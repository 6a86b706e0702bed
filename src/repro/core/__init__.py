"""The passive spoofing detection pipeline (the paper's contribution).

:class:`SpoofingClassifier` implements Figure 3: every flow's source
address is matched strictly sequentially against the bogon list, the
routed address space, and the per-member valid address space of each
configured inference approach. The classes are mutually exclusive:

    Bogon → Unrouted → Invalid(approach) → Valid

:class:`ClassificationResult` carries one label vector per approach and
provides the aggregations every analysis in Sections 4–7 builds on,
plus ground-truth evaluation (precision/recall) that the paper's real
traces could not offer.
"""

from repro.core.classes import TrafficClass
from repro.core.classifier import (
    FailurePolicy,
    SpoofingClassifier,
    default_stream_workers,
)
from repro.core.results import (
    ChunkFailure,
    ClassificationResult,
    FailureLog,
    StreamClassificationResult,
    summarize_chunk,
)
from repro.core.evaluation import DetectionQuality, evaluate_against_truth
from repro.core.filterlists import ACLReport, build_ingress_acl, evaluate_acl
from repro.core.straydetect import (
    StrayDetectionQuality,
    classify_strays,
    evaluate_stray_detection,
)

__all__ = [
    "ACLReport",
    "ChunkFailure",
    "ClassificationResult",
    "DetectionQuality",
    "FailureLog",
    "FailurePolicy",
    "SpoofingClassifier",
    "StrayDetectionQuality",
    "StreamClassificationResult",
    "TrafficClass",
    "build_ingress_acl",
    "classify_strays",
    "default_stream_workers",
    "evaluate_acl",
    "evaluate_against_truth",
    "evaluate_stray_detection",
    "summarize_chunk",
]
