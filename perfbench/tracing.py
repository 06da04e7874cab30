"""Outside-in instrumentation: everything here patches the program from the
benchmark's side and restores it afterwards; no file of the program changes.

* :class:`FirstDispatch` marks the end of set-up: the first call of
  ``Simulator.run`` after an entry point starts.  It patches ``run`` for that
  one call only, so an untraced run carries no instrumentation past it.
* :class:`LayerTrace` wraps the public functions of each layer (and the
  engine callbacks that enter a layer) in spans.  A layer's self time is its
  spans' time minus the time of the spans they contain.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, List, Optional, Tuple

from repro.sim.engine import Simulator


class _SetupDone(Exception):
    """Raised at the first dispatch when only set-up is being timed."""


class FirstDispatch:
    """Time from ``__enter__`` to the first ``Simulator.run`` call.

    ``abort=True`` stops the entry point right there (it raises
    :class:`_SetupDone`, which ``__exit__`` swallows), so set-up can be
    sampled many times without paying for the simulation.
    """

    def __init__(self, abort: bool = False):
        self.abort = abort
        self.t: Optional[float] = None
        self.sim: Optional[Simulator] = None

    def __enter__(self) -> "FirstDispatch":
        original = Simulator.__dict__["run"]

        def first_run(sim, *args, **kwargs):
            self.t = perf_counter()
            self.sim = sim
            Simulator.run = original
            if self.abort:
                raise _SetupDone
            return original(sim, *args, **kwargs)

        self._original = original
        Simulator.run = first_run
        self.t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        Simulator.run = self._original
        return exc_type is _SetupDone


class _Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class LayerTrace:
    """Span accounting per layer: calls, boundary entries and self time."""

    def __init__(self):
        #: open spans: [layer, label, time covered by child spans]
        self._stack: List[list] = []
        #: span time minus child-span time, by label
        self.self_s = defaultdict(float)
        #: every call of a wrapped function, by label
        self.calls: Counter = Counter()
        #: calls made from outside the function's own layer, by label
        self.entries: Counter = Counter()
        #: time covered by spans with no parent
        self.root_s = 0.0
        #: inclusive ``Simulator.run`` time by hybrid phase ("-" = no driver)
        self.run_s = defaultdict(float)
        self.specs = 0
        #: hooks not found in the program, as ``Owner.name``
        self.missing: List[str] = []
        self._layer_of = {}
        self._patches = _Patches()

    # ------------------------------------------------------------------
    def _open(self, layer: str, label: str) -> list:
        stack = self._stack
        self.calls[label] += 1
        if not stack or stack[-1][0] != layer:
            self.entries[label] += 1
        frame = [layer, label, 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list, dt: float) -> None:
        stack = self._stack
        stack.pop()
        self.self_s[frame[1]] += dt - frame[2]
        if stack:
            stack[-1][2] += dt
        else:
            self.root_s += dt

    def layer_self_s(self, layer: str) -> float:
        return sum(t for label, t in self.self_s.items() if self._layer_of[label] == layer)

    def layer_entries(self, layer: str) -> int:
        return sum(n for label, n in self.entries.items() if self._layer_of[label] == layer)

    def span(self, fn: Callable, layer: str, label: str) -> Callable:
        self._layer_of[label] = layer
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            frame = open_(layer, label)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, perf_counter() - t0)

        return wrapped

    def _engine_run(self, fn: Callable) -> Callable:
        self._layer_of["Simulator.run"] = "engine"
        open_, close, run_s = self._open, self._close, self.run_s

        @functools.wraps(fn)
        def run(sim, *args, **kwargs):
            driver = getattr(sim, "fluid_driver", None)
            phase = driver.phase if driver is not None else "-"
            frame = open_("engine", "Simulator.run")
            t0 = perf_counter()
            try:
                return fn(sim, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                run_s[phase] += dt
                close(frame, dt)

        return run

    def _spec_stream(self, fn: Callable) -> Callable:
        """Time each ``next()`` on a lazy workload generator."""
        self._layer_of[fn.__name__] = "workloads"
        open_, close, trace = self._open, self._close, self

        @functools.wraps(fn)
        def stream(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                frame = open_("workloads", fn.__name__)
                t0 = perf_counter()
                try:
                    spec = next(it)
                except StopIteration:
                    return
                finally:
                    close(frame, perf_counter() - t0)
                trace.specs += 1
                yield spec

        return stream

    def _spec_list(self, fn: Callable) -> Callable:
        wrapped_fn = self.span(fn, "workloads", fn.__name__)

        @functools.wraps(fn)
        def listing(*args, **kwargs):
            specs = wrapped_fn(*args, **kwargs)
            self.specs += len(specs)
            return specs

        return listing

    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.analysis.streaming import StreamingStats
        from repro.cc.base import CongestionControl
        from repro.cc.swift import Swift
        from repro.core.prioplus import PrioPlusCC
        from repro.experiments import flowsched, paper_scale
        from repro.experiments.common import FlowAdmitter
        from repro.fluid import model
        from repro.fluid.hybrid import HybridDriver
        from repro.sim.buffer import SharedBuffer
        from repro.sim.host import Host
        from repro.sim.pfc import PfcIngressState
        from repro.sim.port import Port
        from repro.sim.switch import Switch
        from repro.transport.receiver import FlowReceiver
        from repro.transport.sender import FlowSender

        p = self._patches
        p.set(Simulator, "run", self._engine_run(Simulator.__dict__["run"]))
        layers = [
            ("switch", Switch, ("receive",)),
            ("port", Port, ("enqueue", "kick", "set_paused", "_tx_wake")),
            ("buffer", SharedBuffer,
             ("try_admit_shared", "try_admit_headroom", "release", "record_drop")),
            ("buffer", PfcIngressState, ("on_enqueue", "on_dequeue")),
            ("host", Host, ("receive", "send")),
            ("transport", FlowSender,
             ("on_packet", "try_send", "_start", "_on_rto", "_pace_fire", "_send_probe",
              "fluid_hold", "fluid_release", "fluid_advance")),
            ("transport", FlowReceiver, ("on_packet",)),
            ("fluid", model, ("solve_rates", "classify_contention")),
            ("hybrid", HybridDriver, ("run_until_done", "admit", "_quiescent")),
            ("admission", FlowAdmitter, ("_pump", "_on_done")),
            ("admission", flowsched, ("launch_specs",)),
            ("streaming", StreamingStats, ("add",)),
            ("topology", flowsched, ("fat_tree",)),
            ("topology", paper_scale, ("paper_fabric",)),
        ]
        cc_names = ("on_ack", "on_probe_ack", "on_start", "on_timeout", "fluid_sync")
        for cls in (CongestionControl, Swift, PrioPlusCC):
            layers.append(("cc", cls, tuple(n for n in cc_names if n in cls.__dict__)))
        for layer, owner, names in layers:
            prefix = getattr(owner, "__qualname__", owner.__name__.rsplit(".", 1)[-1])
            for name in names:
                if name not in owner.__dict__:
                    # a renamed hook leaves its figures at 0 instead of
                    # failing every traced run
                    self.missing.append(f"{prefix}.{name}")
                    continue
                p.set(owner, name, self.span(owner.__dict__[name], layer, f"{prefix}.{name}"))
        p.set(flowsched, "poisson_flows_iter", self._spec_stream(flowsched.poisson_flows_iter))
        p.set(flowsched, "poisson_flows", self._spec_list(flowsched.poisson_flows))

    def restore(self) -> None:
        self._patches.restore()

    def __enter__(self) -> "LayerTrace":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
