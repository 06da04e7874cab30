#!/usr/bin/env python3
"""Benchmark of the PrioPlus simulator: wall time, set-up, memory and
hybrid-vs-packet accuracy on one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload fabric_sparse --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload fabric_dense --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --make-reference --workload fattree_packet --timed-seed 7

``--trace 0`` times untraced runs and reports the end-to-end metrics named
in ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced runs and
reports the per-layer metrics.  Both print a human-readable table, then, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` where ``attempted``/``failed`` count simulated flows.
See ``perfbench/README.md`` for every metric's definition.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402  (imports nothing from the simulator)

#: set-up-only samples taken before the timed runs
SETUP_SAMPLES = 11
#: timed runs made even when ``--seconds`` has already elapsed
MIN_REPS = 3


@dataclass
class Rep:
    """One call of a workload's entry point."""

    result: dict
    stats: dict
    setup_s: float
    wall_s: float
    sim_ns: int

    @property
    def total_s(self) -> float:
        return self.setup_s + self.wall_s


def run_once(workload, seed: int, duration_ns: int, fluid: bool = True) -> Rep:
    from tracing import FirstDispatch

    gc.collect()
    with FirstDispatch() as fd:
        result = workload.run(seed, duration_ns, fluid)
        t_end = perf_counter()
    if fd.sim is None:
        raise RuntimeError("the entry point returned without dispatching an event")
    return Rep(
        result,
        checks.sim_stats(result, fd.sim.events_processed),
        setup_s=fd.t - fd.t0,
        wall_s=t_end - fd.t,
        sim_ns=fd.sim.now,
    )


def setup_sample(workload, seed: int, duration_ns: int) -> float:
    from tracing import FirstDispatch

    gc.collect()
    with FirstDispatch(abort=True) as fd:
        workload.run(seed, duration_ns)
    if fd.t is None:
        raise RuntimeError("the entry point returned without dispatching an event")
    return fd.t - fd.t0


def another(t_start: float, seconds: float, durations: List[float], minimum: int) -> bool:
    """Whether one more run, as long as the median one so far, fits in ``seconds``."""
    if len(durations) < minimum:
        return True
    return perf_counter() - t_start + statistics.median(durations) <= seconds


class Ledger:
    """Flows attempted and failed across every run of one invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def guarded(self, what: str, admitted: int, fn: Callable[[], Rep]) -> Optional[Rep]:
        """Run ``fn``; a raise counts ``admitted`` flows as failed."""
        try:
            return fn()
        except Exception:  # a failed run is a benchmark result, not a crash
            traceback.print_exc(file=sys.stderr)
            self.attempted += admitted
            self.failed += admitted
            self.problems.append(f"{what}: raised")
            return None

    def judge(self, what: str, rep: Rep, ref: Optional[dict], exact: bool) -> None:
        """Count ``rep``'s flows; a failed output check fails all of them."""
        problems = checks.check(rep.stats, ref, exact)
        n = rep.stats["n_flows"]
        self.attempted += n
        if problems:
            self.failed += n
        self.problems.extend(f"{what}: {p}" for p in problems)

    def mismatch(self, what: str, rep: Rep, expected: dict) -> None:
        """Fail ``rep`` if its statistics differ from an identical run's."""
        if rep.stats != expected:
            self.failed += rep.stats["n_flows"]
            self.problems.append(
                f"{what}: digest {checks.digest(rep.stats)} != {checks.digest(expected)} "
                "of the same trace"
            )


# ----------------------------------------------------------------------
# context
# ----------------------------------------------------------------------
def git_revision() -> str:
    """HEAD's commit id read from ``.git`` (no git process); "unknown" outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def context(workload, args) -> dict:
    from repro.runner.bench_core import calibrate

    return {
        "workload": workload.name,
        "why": workload.why,
        "stresses": workload.stresses,
        "seed": args.seed,
        "timed_seed": args.timed_seed,
        "timed_window_ms": workload.timed_ns / 1e6,
        "check_window_ms": workload.check_ns / 1e6,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "calibrate_ops_per_s": round(calibrate(), 1),
    }


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------
def fidelity(err: float) -> float:
    """1 / (1 + err): 1.0 for an exact match, never 0, lower when worse."""
    return 1.0 / (1.0 + err)


class SpeedProbe:
    """Host speed measured next to each timed run, to normalize its time.

    The host this runs on speeds up and slows down by tens of percent over
    seconds (shared cores); a fixed pure-Python loop run just before and
    just after a timed call tracks that.  A time ``t`` measured while the
    loop ran at ``r`` ops/s is reported as ``t * r / REF_OPS_PER_S``: the
    time on a host whose loop runs at exactly ``REF_OPS_PER_S``.  The loop
    is the benchmark's own copy, so changes to the program never move it.
    """

    REF_OPS_PER_S = 1e7

    def __init__(self, n: int = 300_000):
        self.n = n
        self.rates: List[float] = [self._measure()]

    def _measure(self) -> float:
        class Cell:
            __slots__ = ("v",)

            def __init__(self):
                self.v = 0

            def bump(self, d: int) -> int:
                self.v = (self.v + d) & 0xFFFFFFFF
                return self.v

        bump = Cell().bump
        t0 = perf_counter()
        for i in range(self.n):
            bump(i)
        return self.n / (perf_counter() - t0)

    def scale(self) -> float:
        """Normalization factor for the call made since the last probe."""
        self.rates.append(self._measure())
        return (self.rates[-2] + self.rates[-1]) / 2 / self.REF_OPS_PER_S


def measure_e2e(workload, args, ref: dict, ledger: Ledger) -> Dict[str, tuple]:
    """Untraced runs of the timed trace: set-up, wall, throughput, memory, accuracy."""
    seed, window = args.timed_seed, workload.timed_ns
    admitted = ref["stats"]["n_flows"]
    speed = SpeedProbe()
    setups, setups_raw = [], []
    for _ in range(SETUP_SAMPLES):
        t = setup_sample(workload, seed, window)
        setups_raw.append(t)
        setups.append(t * speed.scale())
    reps: List[Rep] = []
    scales: List[float] = []
    durations: List[float] = []
    t_start = perf_counter()
    while another(t_start, args.seconds, durations, MIN_REPS):
        t0 = perf_counter()
        rep = ledger.guarded("timed run", admitted, lambda: run_once(workload, seed, window))
        if rep is None:
            break
        scales.append(speed.scale())
        durations.append(perf_counter() - t0)
        ledger.judge("timed run", rep, ref["stats"], exact=not workload.hybrid)
        if reps:
            ledger.mismatch("timed run", rep, reps[0].stats)
        reps.append(rep)
    if not reps:
        return {}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    host_sim_s = workload.n_hosts(reps[0].result) * reps[0].sim_ns / 1e9
    errs = checks.fct_errors(reps[0].stats, ref["stats"])
    n_ref = ref["stats"]["n_done"]
    out = {
        "setup_s": (setups + [r.setup_s * k for r, k in zip(reps, scales)], "s"),
        "wall_s": ([r.wall_s * k for r, k in zip(reps, scales)], "s"),
        "host_sim_s_per_wall_s": (
            [host_sim_s / (r.wall_s * k) for r, k in zip(reps, scales)], "host-s/s"),
        "rss_peak_mb": ([rss_mb], "MB"),
        "setup_raw_s": (setups_raw + [r.setup_s for r in reps], "s"),
        "wall_raw_s": ([r.wall_s for r in reps], "s"),
        "probe_ops_per_s": (speed.rates, "1/s"),
    }
    for stem, err in errs.items():
        out[f"fct_{stem}_err"] = ([err] * n_ref, "ratio")
        out[f"fct_{stem}_fidelity"] = ([fidelity(err)] * n_ref, "ratio")
    return out


def layer_metrics(rep: Rep, trace, prof, scale: float = 1.0) -> Dict[str, float]:
    """The per-layer figures of one traced run; times (``*_s``) are
    multiplied by ``scale``, the run's :class:`SpeedProbe` factor."""
    r = rep.result
    fl = r.get("fluid") or {}
    callbacks = prof.stats
    enqueues = trace.calls["Port.enqueue"]
    wakes = int(callbacks.get("Port._tx_wake", (0,))[0])
    quiescence_checks = trace.calls["HybridDriver._quiescent"]
    epochs = fl.get("fluid_epochs", 0)
    run_s = sum(trace.run_s.values())
    figures = {
        "engine.events": prof.events,
        "engine.self_s": trace.layer_self_s("engine"),
        "switch.receive.calls": trace.calls["Switch.receive"],
        "switch.self_s": trace.layer_self_s("switch"),
        "port.enqueue.calls": enqueues,
        "port.tx_wake.events": wakes,
        "port.wakes_per_enqueue": wakes / enqueues if enqueues else 0.0,
        "port.self_s": trace.layer_self_s("port"),
        "buffer.calls": trace.layer_entries("buffer"),
        "buffer.self_s": trace.layer_self_s("buffer"),
        "pfc.pauses": r["pfc_pauses"],
        "buffer.drops": r["drops"],
        "host.receive.calls": trace.calls["Host.receive"],
        "host.self_s": trace.layer_self_s("host"),
        "transport.calls": trace.layer_entries("transport"),
        "transport.self_s": trace.layer_self_s("transport"),
        "transport.rto_fires": int(callbacks.get("FlowSender._on_rto", (0,))[0]),
        "cc.on_ack.calls": sum(
            n for label, n in trace.entries.items() if label.endswith(".on_ack")),
        "cc.self_s": trace.layer_self_s("cc"),
        "cc.probes": trace.calls["FlowSender._send_probe"],
        "fluid.solve.calls": trace.calls["model.solve_rates"],
        "fluid.solve_s": trace.self_s["model.solve_rates"],
        "fluid.classify_s": trace.self_s["model.classify_contention"],
        "hybrid.packet_s": trace.run_s["packet"],
        "hybrid.drain_s": trace.run_s["drain"],
        "hybrid.fluid_s": trace.run_s["fluid"],
        "hybrid.self_s": trace.layer_self_s("hybrid"),
        "hybrid.epochs": epochs,
        "hybrid.enter_ratio": epochs / quiescence_checks if quiescence_checks else 0.0,
        "hybrid.drain_failures": fl.get("drain_failures", 0),
        "hybrid.fluid_share": fl.get("fluid_ns", 0) / rep.sim_ns if rep.sim_ns else 0.0,
        "hybrid.fresh_starts": fl.get("handoff_fresh_starts", 0),
        "workloads.specs": trace.specs,
        "workloads.gen_s": trace.layer_self_s("workloads"),
        "admission.pumps": trace.calls["FlowAdmitter._pump"],
        "admission.self_s": trace.layer_self_s("admission"),
        "admission.live_peak": r.get("live_peak", 0),
        "streaming.adds": trace.calls["StreamingStats.add"],
        "streaming.self_s": trace.layer_self_s("streaming"),
        "topology.build_s": trace.layer_self_s("topology"),
        "trace.uncovered_share": 1.0 - trace.root_s / rep.total_s,
    }
    figures = {k: v * scale if k.endswith("_s") else v for k, v in figures.items()}
    figures["engine.events_per_s"] = prof.events / (run_s * scale) if run_s else 0.0
    return figures


def measure_layers(workload, args, ref: dict, ledger: Ledger) -> Dict[str, tuple]:
    """Untraced and traced runs of the timed trace, alternating."""
    from repro.obs import profile_scope
    from tracing import LayerTrace

    seed, window = args.timed_seed, workload.timed_ns
    admitted = ref["stats"]["n_flows"]
    exact = not workload.hybrid
    speed = SpeedProbe()
    plain: List[Rep] = []
    traced: List[Dict[str, float]] = []
    durations: List[float] = []
    t_start = perf_counter()
    while another(t_start, args.seconds, durations, 1):
        t0 = perf_counter()
        rep = ledger.guarded("untraced run", admitted, lambda: run_once(workload, seed, window))
        if rep is None:
            break
        plain_scale = speed.scale()
        ledger.judge("untraced run", rep, ref["stats"], exact)
        if plain:
            ledger.mismatch("untraced run", rep, plain[0].stats)
        plain.append(rep)

        def traced_run():
            with LayerTrace() as trace, profile_scope() as prof:
                return run_once(workload, seed, window), trace, prof

        got = ledger.guarded("traced run", admitted, traced_run)
        if got is None:
            break
        trep, trace, prof = got
        scale = speed.scale()
        if trace.missing and not traced:
            print(f"perfbench: not traced (absent): {', '.join(trace.missing)}", file=sys.stderr)
        ledger.judge("traced run", trep, ref["stats"], exact)
        ledger.mismatch("traced run", trep, plain[0].stats)
        figures = layer_metrics(trep, trace, prof, scale)
        figures["trace.overhead_ratio"] = trep.total_s * scale / (rep.total_s * plain_scale)
        traced.append(figures)
        durations.append(perf_counter() - t0)
    if not traced:
        return {}
    return {name: ([t[name] for t in traced], None) for name in traced[0]}


def check_trace(workload, seed: int, ledger: Ledger) -> Dict[str, float]:
    """The run's ``--seed`` trace: a short window checked against a
    packet-only run of the same trace made here and now."""
    rep = ledger.guarded("check run", 1, lambda: run_once(workload, seed, workload.check_ns))
    if rep is None:
        return {}
    ref = rep.stats
    if workload.hybrid:
        packet = ledger.guarded(
            "check reference", rep.stats["n_flows"],
            lambda: run_once(workload, seed, workload.check_ns, fluid=False))
        if packet is None:
            return {}
        ledger.judge("check reference", packet, None, exact=False)
        ref = packet.stats
    ledger.judge("check run", rep, ref, exact=not workload.hybrid)
    # a packet-only workload is its own reference: its errors are 0 by construction
    return checks.fct_errors(rep.stats, ref) if workload.hybrid else {}


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------
def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(title: str, samples: Dict[str, tuple], units: Dict[str, str]) -> Dict[str, float]:
    """Print ``name  median  unit  n  [min, max]`` rows; return the medians."""
    print(f"== {title}")
    print(f"{'metric':<26} {'median':>12} {'unit':<9} {'n':>6}  range")
    medians = {}
    for name, (values, unit) in samples.items():
        unit = units.get(name, unit)
        med = statistics.median(values)
        medians[name] = med
        spread = f"[{_fmt(min(values))}, {_fmt(max(values))}]" if len(set(values)) > 1 else ""
        print(f"{name:<26} {_fmt(med):>12} {unit:<9} {len(values):>6}  {spread}")
    return medians


def make_reference(workload, seed: int) -> None:

    rep = run_once(workload, seed, workload.timed_ns, fluid=False)
    problems = checks.check(rep.stats, None, exact=False)
    if problems:
        raise SystemExit("reference run failed its checks: " + "; ".join(problems))
    path = checks.ref_path(workload.name, seed)
    path.parent.mkdir(exist_ok=True)
    record = {
        "workload": workload.name,
        "seed": seed,
        "duration_ns": workload.timed_ns,
        "fluid": False,
        "digest": checks.digest(rep.stats),
        "stats": rep.stats,
    }
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}: {rep.stats['n_flows']} flows, "
          f"digest {record['digest']}, {rep.total_s:.1f} s")


def run_all(args, names) -> int:
    """Every workload in turn, each in a fresh process of its own."""
    rc = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.timed_seed is not None:
            cmd += ["--timed-seed", str(args.timed_seed)]
        rc = max(rc, subprocess.run(cmd).returncode)
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1, help="seed of the check trace")
    ap.add_argument("--seconds", type=float, default=35.0, help="time spent on timed runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--timed-seed", type=int, default=None,
                    help="seed of the timed trace (default: the workloads' TIMED_SEED; "
                         "HOLDOUT_SEED confirms a claim on a trace nobody tuned against)")
    ap.add_argument("--make-reference", action="store_true",
                    help="run the timed trace packet-only and store it under perfbench/refs")
    args = ap.parse_args(argv)
    src = ROOT / "src"
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the simulator from {src}: {exc}", file=sys.stderr)
        return 2
    if src.resolve() not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    workload = workloads.get(args.workload)
    if args.timed_seed is None:
        args.timed_seed = workloads.TIMED_SEED
    if args.make_reference:
        make_reference(workload, args.timed_seed)
        return 0

    spec = load_spec()
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    ref = checks.load_ref(workload.name, args.timed_seed)
    ledger = Ledger()
    ctx = context(workload, args)
    print("context " + json.dumps(ctx))
    measure = measure_layers if args.trace else measure_e2e
    samples = measure(workload, args, ref, ledger)
    medians = report(
        f"{workload.name}: {'per-layer (traced)' if args.trace else 'end to end (untraced)'}",
        samples, units)
    check_errs = check_trace(workload, args.seed, ledger)
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 1.0
    report(f"{workload.name}: output check, check trace seed {args.seed}", {
        "flows_failed_ratio": ([ratio] * max(ledger.attempted, 1), "ratio"),
        **{f"check_fct_{stem}_err": ([err], "ratio") for stem, err in check_errs.items()},
    }, {})
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    missing = [name for name in units if name not in medians]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": medians[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
