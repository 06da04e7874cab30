"""Observability layer: structured event tracing, metrics, trace export.

Quick taste::

    from repro import Simulator, probes
    from repro.telemetry import Recorder, write_perfetto

    # install BEFORE building simulators/topologies
    with probes.scope("telemetry", Recorder()) as rec:
        sim = Simulator(seed=1)     # adopts the recorder
        ...build topology, run...
    write_perfetto(rec, "run.json")  # open in ui.perfetto.dev
    print(rec.snapshot()["metrics"]["counters"])

See ``docs/OBSERVABILITY.md`` for the hook points and event taxonomy.
"""

from .export import JsonlEventStream, to_perfetto, write_events_jsonl, write_perfetto
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import (
    CHANNELS,
    Recorder,
)

__all__ = [
    "CHANNELS",
    "Recorder",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "JsonlEventStream",
    "to_perfetto",
    "write_perfetto",
    "write_events_jsonl",
]
