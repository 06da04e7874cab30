"""The benchmark's workloads and the one call that runs each of them.

Every workload is a batch job driven through an experiment's own public
entry point (``run_paper_scale`` or ``run_flowsched``) exactly as the
registered experiments call it: one process, one thread, no worker fleet.
The simulated traffic is open-loop Poisson WebSearch; the seed is passed
as ``FlowSchedConfig.seed`` and fixes the trace.

Each workload has two traces:

* the *timed* trace: a fixed seed (``TIMED_SEED``, the ``fig11_long``
  seed) and window, timed end to end and checked against a packet-only
  reference stored under ``perfbench/refs``.  ``HOLDOUT_SEED`` has a stored
  reference too, so a claim made on the timed trace can be confirmed on a
  trace nobody tuned against;
* the *check* trace: the ``--seed`` of the run over a short window, run
  once and compared with a packet-only run of the same trace generated in
  the same process, so every run also checks a trace it has never seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.experiments.common import Mode
from repro.experiments.flowsched import FlowSchedConfig, run_flowsched
from repro.experiments.paper_scale import PAPER_LONG_CFG, run_paper_scale

#: the timed trace's seed: the seed of ``fig11_long`` (PAPER_LONG_CFG)
TIMED_SEED = 42
#: a second stored trace, held out from tuning to confirm claims
HOLDOUT_SEED = 7

MS = 1_000_000  # ns


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str
    n_priorities: int
    #: FlowSchedConfig knobs except ``seed`` and ``duration_ns``
    cfg_kwargs: Dict[str, object]
    #: True: run_paper_scale (320-host fabric, streaming, hybrid core);
    #: False: run_flowsched on the default fat-tree, packet-only
    hybrid: bool
    timed_ns: int
    check_ns: int
    #: the layers this workload loads most (printed with its record)
    stresses: str

    def config(self, seed: int, duration_ns: int) -> FlowSchedConfig:
        return FlowSchedConfig(**dict(self.cfg_kwargs, seed=seed, duration_ns=duration_ns))

    def run(self, seed: int, duration_ns: int, fluid: bool = True) -> dict:
        """One point through the experiment entry point; ``fluid=False`` is
        the packet-only reference of the same trace and seed."""
        cfg = self.config(seed, duration_ns)
        if self.hybrid:
            return run_paper_scale(self.mode, self.n_priorities, cfg, fluid=fluid, streaming=True)
        return run_flowsched(self.mode, self.n_priorities, cfg)

    def n_hosts(self, result: dict) -> int:
        if "n_hosts" in result:
            return int(result["n_hosts"])
        k = int(self.cfg_kwargs.get("k", FlowSchedConfig().k))
        return k ** 3 // 4


_PAPER = {k: v for k, v in PAPER_LONG_CFG.items() if k not in ("seed", "duration_ns")}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fabric_sparse",
            why=(
                "the fig11_long run behind the headline verdict: fluid covers ~99% of "
                "simulated time, yet packet-regime dispatch dominates wall time"
            ),
            mode=Mode.PRIOPLUS,
            n_priorities=8,
            cfg_kwargs=dict(_PAPER),
            hybrid=True,
            timed_ns=50 * MS,
            check_ns=5 * MS,
            stresses="fluid.model, fluid.hybrid, staged admission, workloads, analysis.streaming",
        ),
        Workload(
            name="fabric_dense",
            why=(
                "fig11_long at 10x its load: frequent contention exits put most wall time "
                "in the packet regime, so drain, handoff and dispatch changes show here"
            ),
            mode=Mode.PRIOPLUS,
            n_priorities=8,
            cfg_kwargs=dict(_PAPER, load=0.02),
            hybrid=True,
            timed_ns=1 * MS,
            check_ns=MS // 5,
            stresses="fluid.hybrid drain/handoff, sim.port, sim.switch, transport, cc",
        ),
        Workload(
            name="fattree_packet",
            why=(
                "the seed's reduced Fig 11 point, pure DES: eight strict-priority queues, "
                "PFC pauses and Swift, and no fluid or admission work at all"
            ),
            mode=Mode.PHYSICAL,
            n_priorities=8,
            cfg_kwargs={},
            hybrid=False,
            timed_ns=3 * MS // 2,
            check_ns=MS // 2,
            stresses="sim.port, sim.buffer, sim.pfc, sim.switch, cc (Swift)",
        ),
    )
}


def get(name: str) -> Workload:
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        ) from None

