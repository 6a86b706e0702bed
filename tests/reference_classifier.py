"""Reference classifier: the seed per-member Invalid-stage loop.

``invalid_routed_loop`` is the body of the classifier's original
Invalid stage, kept unchanged as an independent oracle for the packed
validity-matrix gather: it asks an approach for one member's validity
at a time through :meth:`~repro.cones.base.ValidSpaceMap.valid_mask`
instead of stacking every member's row into one bit matrix.
``classify_labels`` runs the whole Figure 3 sequence around it —
Bogon, Unrouted, Invalid per approach, Valid — over the classifier's
own bogon set, RIB and approaches.
"""

from __future__ import annotations

import numpy as np

from repro.cones.base import ValidSpaceMap
from repro.core import SpoofingClassifier, TrafficClass
from repro.ixp.flows import FlowTable


def invalid_routed_loop(
    approach: ValidSpaceMap,
    routed_members: np.ndarray,
    prefix_ids: np.ndarray,
    origin_indices: np.ndarray,
) -> np.ndarray:
    """The seed per-member loop: invalid mask over routed flows."""
    invalid = np.zeros(routed_members.size, dtype=bool)
    for member in np.unique(routed_members):
        rows = np.flatnonzero(routed_members == member)
        valid = approach.valid_mask(
            int(member), prefix_ids[rows], origin_indices[rows]
        )
        invalid[rows] = ~valid
    return invalid


def classify_labels(
    classifier: SpoofingClassifier, flows: FlowTable
) -> dict[str, np.ndarray]:
    """Per-approach label vectors of ``flows``, Invalid stage by loop."""
    src = flows.src
    bogon_mask = classifier._bogons.contains_many(src)
    prefix_ids, origin_indices = classifier._rib.lookup_many(src)
    unrouted_mask = ~bogon_mask & (prefix_ids < 0)
    routed_idx = np.flatnonzero(~bogon_mask & ~unrouted_mask)
    routed_members = flows.member[routed_idx]

    base_vector = np.full(len(flows), int(TrafficClass.VALID), dtype=np.uint8)
    base_vector[bogon_mask] = int(TrafficClass.BOGON)
    base_vector[unrouted_mask] = int(TrafficClass.UNROUTED)
    labels: dict[str, np.ndarray] = {}
    for name, approach in classifier._approaches.items():
        invalid_routed = invalid_routed_loop(
            approach,
            routed_members,
            prefix_ids[routed_idx],
            origin_indices[routed_idx],
        )
        class_vector = base_vector.copy()
        class_vector[routed_idx[invalid_routed]] = int(TrafficClass.INVALID)
        labels[name] = class_vector
    return labels
