"""Output checks, result digests and accuracy figures for one run.

A run is judged on its *simulated statistics*: FCT by size class and by
priority group, PFC pauses, drops, events and (hybrid runs) the regime
statistics.  They are deterministic, so a run can be compared with a stored
reference, with an earlier run of the same trace, or with itself traced.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

REFS = Path(__file__).resolve().parent / "refs"

#: the accuracy figures: key in ``fct["all"]`` -> metric stem
FCT_KEYS = {"mean": "mean_us", "p50": "p50_us", "p99": "p99_us"}


def sim_stats(result: dict, events: int) -> dict:
    """The statistics a run is checked on, normalized through JSON so a
    stored reference and a fresh run compare with ``==``."""
    stats = {
        "n_flows": result["n_flows"],
        "n_done": result["n_done"],
        "all_done": result["all_done"],
        "drops": result["drops"],
        "pfc_pauses": result["pfc_pauses"],
        "events": events,
        "fct": result.get("fct", {}),
        "fct_by_group": result.get("fct_by_group", {}),
        "fluid": result.get("fluid"),
    }
    return json.loads(json.dumps(stats, sort_keys=True))


def digest(stats: dict) -> str:
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()[:16]


def _counts(section: dict) -> Dict[str, int]:
    return {k: int(v["count"]) for k, v in section.items()}


def check(stats: dict, ref: Optional[dict], exact: bool) -> List[str]:
    """Problems with one run's output; empty when it passes.

    Every admitted flow completes; completed flows as the reducer saw them
    add up to the admitter's count; a hybrid run has no drain failures.
    Against ``ref`` (a packet-only run of the same trace): the same flows
    land in every size class and priority group, and with ``exact`` the
    whole statistics record is identical.
    """
    problems = []
    n, done = stats["n_flows"], stats["n_done"]
    if done != n or not stats["all_done"]:
        problems.append(f"{n - done} of {n} admitted flows did not complete")
    fct = stats["fct"]
    classes = _counts({k: v for k, v in fct.items() if k != "all"})
    groups = _counts(stats["fct_by_group"])
    for what, total in (
        ("all", fct.get("all", {}).get("count", 0)),
        ("size classes", sum(classes.values())),
        ("priority groups", sum(groups.values())),
    ):
        if total != done:
            problems.append(f"completed flows counted over {what}: {total} != {done}")
    fluid = stats.get("fluid") or {}
    if fluid.get("drain_failures", 0):
        problems.append(f"{fluid['drain_failures']} drain failures")
    if ref is not None:
        if n != ref["n_flows"]:
            problems.append(f"{n} flows admitted, reference admitted {ref['n_flows']}")
        if classes != _counts({k: v for k, v in ref["fct"].items() if k != "all"}):
            problems.append("flows per size class differ from the reference")
        if groups != _counts(ref["fct_by_group"]):
            problems.append("flows per priority group differ from the reference")
        if exact and stats != ref:
            problems.append(
                f"statistics digest {digest(stats)} != reference digest {digest(ref)}"
            )
    return problems


def fct_errors(stats: dict, ref: dict) -> Dict[str, float]:
    """|x - reference| / reference for mean, p50 and p99 FCT over all flows
    (empty when the reference completed no flow, so the ratio is undefined)."""
    out = {}
    for stem, key in FCT_KEYS.items():
        x = stats["fct"].get("all", {}).get(key)
        r = ref["fct"].get("all", {}).get(key)
        if x is not None and r:
            out[stem] = abs(x - r) / r
    return out


def ref_path(workload: str, seed: int) -> Path:
    return REFS / f"{workload}-{seed}.json"


def load_ref(workload: str, seed: int) -> dict:
    path = ref_path(workload, seed)
    if not path.exists():
        raise SystemExit(
            f"no stored reference {path.name}; make it with "
            f"perfbench/run.py --make-reference --workload {workload} --timed-seed {seed}"
        )
    data = json.loads(path.read_text())
    if digest(data["stats"]) != data["digest"]:
        raise SystemExit(f"stored reference {path.name} does not match its digest")
    return data
