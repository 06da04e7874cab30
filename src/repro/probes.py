"""One registry for the simulator's instrumentation probes.

Six kinds of probe can watch a simulation: the telemetry
:class:`~repro.telemetry.Recorder`, the invariant
:class:`~repro.audit.Auditor`, the :class:`~repro.obs.PacketTracer`, the
PrioPlus :class:`~repro.obs.ChannelInspector`, the
:class:`~repro.obs.TimeSeriesSampler` and the
:class:`~repro.obs.EngineProfiler`.  They share one contract:

* each kind has a process default, :data:`OFF` unless installed;
* every new :class:`~repro.sim.engine.Simulator` adopts the defaults at
  construction (:func:`adopt`), and components snapshot ``sim.<kind>``
  once, so a disabled hook site costs one attribute read and one
  ``enabled`` test;
* a probe never schedules events or touches the RNG, so results are
  byte-identical with any set of probes on (the golden battery pins this).

Usage::

    from repro import probes
    from repro.telemetry import Recorder

    with probes.scope("telemetry", Recorder()) as rec:
        sim = Simulator(seed=1)       # adopts rec
        ...build topology, run...
    print(rec.snapshot()["metrics"]["counters"])
"""

from __future__ import annotations

from contextlib import contextmanager

__all__ = ["KINDS", "OFF", "active", "adopt", "install", "reset", "scope"]

#: probe kinds, each also the name of the Simulator attribute hook sites read
KINDS = ("telemetry", "audit", "tracer", "inspector", "sampler", "profiler")


class _Off:
    """The inert probe of every kind; hook sites only read ``enabled``."""

    __slots__ = ()
    enabled = False

    def __reduce__(self):
        # copy/deepcopy/pickle hand back this very object, so snapshots and
        # forks share it instead of dragging copies around
        return "OFF"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<probes.OFF>"


#: the shared disabled probe (safe to share: it holds no state)
OFF = _Off()

_installed = dict.fromkeys(KINDS, OFF)


def install(kind: str, probe):
    """Make ``probe`` the ``kind`` default new simulators adopt; return the previous one.

    ``None`` installs :data:`OFF`.  Install *before* building simulators and
    topologies: components snapshot their probes at construction.  The
    audit kind also feeds the process packet pool's conservation ledger.
    """
    if kind not in _installed:
        raise KeyError(f"unknown probe kind {kind!r}; expected one of {KINDS}")
    if probe is None:
        probe = OFF
    prev, _installed[kind] = _installed[kind], probe
    if kind == "audit":
        from .sim.packet import PACKET_POOL

        PACKET_POOL.audit = probe
        if probe.enabled:
            probe.attach_pool(PACKET_POOL)
    return prev


def active(kind: str):
    """The enabled ``kind`` default, or ``None`` when that kind is off."""
    probe = _installed[kind]
    return probe if probe.enabled else None


def reset() -> None:
    """Turn every kind off."""
    for kind in KINDS:
        install(kind, None)


@contextmanager
def scope(kind: str, probe):
    """Install ``probe`` for the ``with`` block and yield it.

    The previous default is restored on every exit.  Only a clean exit then
    calls ``probe.finalize()`` (when it has one), so a strict auditor's
    reconciliation failure raises after the restore and never masks an
    exception already in flight.
    """
    prev = install(kind, probe)
    try:
        yield probe
    finally:
        install(kind, prev)
    finalize = getattr(probe, "finalize", None)
    if finalize is not None:
        finalize()


def adopt(sim) -> None:
    """Give a new simulator the current default of every kind."""
    for kind in KINDS:
        setattr(sim, kind, _installed[kind])
    if sim.audit.enabled:
        sim.audit.register_sim(sim)
