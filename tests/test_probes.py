"""The probe registry (repro.probes): one install/scope/adopt contract shared
by all six instrumentation kinds."""

import copy
import pickle

import pytest

from repro import probes
from repro.audit import Auditor
from repro.obs import ChannelInspector, EngineProfiler, PacketTracer, TimeSeriesSampler
from repro.runner.scheduler import worker_init
from repro.sim.engine import Simulator
from repro.sim.packet import PACKET_POOL
from repro.sim.snapshot import SnapshotHookError, snapshot_world
from repro.telemetry import Recorder

#: a fresh live probe of each kind
MAKE = {
    "telemetry": Recorder,
    "audit": lambda: Auditor("warn"),
    "tracer": PacketTracer,
    "inspector": ChannelInspector,
    "sampler": TimeSeriesSampler,
    "profiler": EngineProfiler,
}


@pytest.fixture(autouse=True)
def _reset_probes():
    """Never leak an installed probe into other tests."""
    yield
    probes.reset()


@pytest.mark.parametrize("kind", probes.KINDS)
def test_probe_kind_contract(kind):
    # off by default: a fresh simulator adopts the inert probe
    assert getattr(Simulator(1), kind) is probes.OFF
    assert probes.active(kind) is None

    outer = MAKE[kind]()
    with probes.scope(kind, outer) as got:
        assert got is outer and probes.active(kind) is outer
        inner = MAKE[kind]()
        with probes.scope(kind, inner):
            sim = Simulator(1)
            assert getattr(sim, kind) is inner
        assert probes.active(kind) is outer  # restored on clean exit
        with pytest.raises(KeyError):
            with probes.scope(kind, MAKE[kind]()):
                raise KeyError("boom")
        assert probes.active(kind) is outer  # restored on exception
    assert probes.active(kind) is None

    # a world carrying a live probe refuses to snapshot, naming the kind
    with pytest.raises(SnapshotHookError, match=rf"\({kind}\)"):
        snapshot_world(sim)

    # workers start with every kind off, whatever the parent installed
    probes.install(kind, MAKE[kind]())
    worker_init()
    assert probes.active(kind) is None
    assert getattr(Simulator(1), kind) is probes.OFF


def test_packet_pool_follows_audit_kind():
    aud = Auditor("warn")
    assert PACKET_POOL.audit is probes.OFF
    with probes.scope("audit", aud):
        assert PACKET_POOL.audit is aud
    assert PACKET_POOL.audit is probes.OFF
    assert probes.install("audit", aud) is probes.OFF
    assert PACKET_POOL.audit is aud
    worker_init()
    assert PACKET_POOL.audit is probes.OFF


def test_scope_finalizes_on_clean_exit_only():
    class Probe:
        enabled = True
        finalized = 0

        def finalize(self):
            self.finalized += 1

    probe = Probe()
    with probes.scope("tracer", probe):
        pass
    assert probe.finalized == 1
    with pytest.raises(KeyError):
        with probes.scope("tracer", probe):
            raise KeyError("boom")
    assert probe.finalized == 1


def test_off_is_shared_by_copies_and_unknown_kinds_are_refused():
    assert not probes.OFF.enabled
    assert copy.deepcopy(probes.OFF) is probes.OFF
    assert pickle.loads(pickle.dumps(probes.OFF)) is probes.OFF
    with pytest.raises(KeyError, match="recorder"):
        probes.install("recorder", Recorder())
