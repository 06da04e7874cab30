"""Online invariant auditing for the simulation core (see docs/AUDIT.md).

Usage::

    from repro import probes
    from repro.audit import Auditor

    with probes.scope("audit", Auditor("strict")) as aud:
        sim = Simulator(seed=1)       # adopts the auditor
        ...build topology, run...
    assert aud.report.ok

or through the runner/CLI: ``python -m repro run fig8 --audit=strict``.
"""

from .auditor import (
    AuditError,
    AuditReport,
    AuditViolation,
    Auditor,
)

__all__ = [
    "AuditError",
    "AuditReport",
    "AuditViolation",
    "Auditor",
]
