"""Deterministic test harnesses (fault injection, ingest corruption).

Nothing here runs in production paths unless explicitly wired in via
``classify_stream(..., fault_injector=...)`` or applied to a file on
disk — the modules exist so resilience behaviour is testable with
seeded, reproducible failure plans instead of flaky randomness.
"""

from repro.testing.faults import (
    DurabilityFaultPlan,
    DurabilityFaultSpec,
    FaultPlan,
    FaultSpec,
    InjectedCorruption,
    InjectedCrash,
    InjectedFault,
    corrupt_file,
)
from repro.testing.sanitizer import ProtocolSanitizer, SanitizerError

__all__ = [
    "DurabilityFaultPlan",
    "DurabilityFaultSpec",
    "FaultPlan",
    "FaultSpec",
    "InjectedCorruption",
    "InjectedCrash",
    "InjectedFault",
    "ProtocolSanitizer",
    "SanitizerError",
    "corrupt_file",
]
