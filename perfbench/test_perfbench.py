"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.experiments.common import Point, get_experiment  # noqa: E402
from repro.experiments.paper_scale import PAPER_LONG_CFG  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SMALL_NS = 300_000


def small(name: str) -> workloads.Workload:
    w = workloads.get(name)
    return dataclasses.replace(w, timed_ns=SMALL_NS, check_ns=SMALL_NS // 2)


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_every_declared_metric_is_measured():
    w = small("fattree_packet")
    ref = {"stats": run.run_once(w, 1, w.timed_ns, fluid=False).stats}
    args = type("Args", (), {"timed_seed": 1, "seconds": 0.0})()
    ledger = run.Ledger()
    e2e = run.measure_e2e(w, args, ref, ledger)
    layers = run.measure_layers(w, args, ref, ledger)
    assert not ledger.problems
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(e2e)
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers)


def test_fct_errors_are_zero_against_itself():
    w = small("fattree_packet")
    stats = run.run_once(w, 3, w.timed_ns).stats
    errs = checks.fct_errors(stats, stats)
    assert errs == {"mean": 0.0, "p50": 0.0, "p99": 0.0}
    assert {run.fidelity(e) for e in errs.values()} == {1.0}
    assert checks.check(stats, copy.deepcopy(stats), exact=True) == []


def test_unfinished_flow_raises_flows_failed_ratio():
    w = small("fattree_packet")
    rep = run.run_once(w, 3, w.timed_ns)
    ok = run.Ledger()
    ok.judge("run", rep, rep.stats, exact=True)
    assert ok.failed == 0 and ok.attempted == rep.stats["n_flows"]

    broken = copy.deepcopy(rep.stats)
    broken["n_done"] -= 1
    broken["all_done"] = False
    rep.stats = broken
    ledger = run.Ledger()
    ledger.judge("run", rep, None, exact=False)
    assert ledger.problems
    assert ledger.failed / ledger.attempted == 1.0


def test_traced_run_matches_untraced_run():
    from repro.obs import profile_scope
    from tracing import LayerTrace

    w = small("fabric_dense")
    plain = run.run_once(w, 2, w.timed_ns)
    with LayerTrace() as trace, profile_scope() as prof:
        traced = run.run_once(w, 2, w.timed_ns)
    assert traced.stats == plain.stats
    assert trace.missing == []
    figures = run.layer_metrics(traced, trace, prof)
    assert figures["engine.events"] == plain.stats["events"]
    assert figures["switch.receive.calls"] > 0 and figures["hybrid.epochs"] >= 1


def test_entry_point_returns_the_fig11_long_record():
    w = workloads.get("fabric_sparse")
    duration = 5_000_000
    cfg = dict(PAPER_LONG_CFG, seed=5, duration_ns=duration)
    point = Point(f"{w.mode}@{w.n_priorities}",
                  {"mode": w.mode, "n_priorities": w.n_priorities, "cfg": cfg}, seed=5)
    assert w.run(5, duration) == get_experiment("fig11_long").run_point(point)


def test_stored_references_match_their_digests():
    for w in workloads.WORKLOADS.values():
        for seed in (workloads.TIMED_SEED, workloads.HOLDOUT_SEED):
            ref = checks.load_ref(w.name, seed)
            assert ref["duration_ns"] == w.timed_ns and ref["fluid"] is False
            assert checks.check(ref["stats"], None, exact=False) == []
