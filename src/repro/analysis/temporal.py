"""Temporal characteristics of the BGP-derived valid space.

The paper's conclusion calls for "a thorough study of the size and
completeness of the BGP-derived address spaces per AS" and for
incorporating *archived* BGP data. This module quantifies how the
inferred valid space grows with the observation window: route
observations are split by timestamp into cumulative windows, a RIB and
Full Cone are built per window, and per-AS valid-space sizes are
compared. A steep curve means short windows miss links (the
false-positive driver); a flat tail means the four-week union is close
to converged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB
from repro.cones.full_cone import FullConeValidSpace


@dataclass(slots=True)
class WindowSnapshot:
    """The valid-space state after one cumulative window."""

    end_time: int
    num_prefixes: int
    num_adjacencies: int
    routed_slash24s: float
    #: Mean Full-Cone valid space over the sampled ASes (/24s).
    mean_valid_slash24s: float


@dataclass(slots=True)
class TemporalStudy:
    """Growth of the BGP view with observation time."""

    snapshots: list[WindowSnapshot]

    def adjacency_growth(self) -> float:
        """Final / first window adjacency count (≥ 1)."""
        first, last = self.snapshots[0], self.snapshots[-1]
        if first.num_adjacencies == 0:
            return float("inf") if last.num_adjacencies else 1.0
        return last.num_adjacencies / first.num_adjacencies

    def converged(self, tolerance: float = 0.02) -> bool:
        """True iff the last window added <``tolerance`` adjacencies."""
        if len(self.snapshots) < 2:
            return True
        prev, last = self.snapshots[-2], self.snapshots[-1]
        if last.num_adjacencies == 0:
            return True
        return (
            last.num_adjacencies - prev.num_adjacencies
        ) / last.num_adjacencies < tolerance

    def render(self) -> str:
        lines = [
            "Temporal growth of the BGP view (cumulative windows):",
            f"  {'window end':>12s} {'prefixes':>9s} {'adjacencies':>12s} "
            f"{'routed /24s':>12s} {'mean valid /24s':>16s}",
        ]
        for snap in self.snapshots:
            lines.append(
                f"  {snap.end_time:>12d} {snap.num_prefixes:>9d} "
                f"{snap.num_adjacencies:>12d} {snap.routed_slash24s:>12.0f} "
                f"{snap.mean_valid_slash24s:>16.1f}"
            )
        lines.append(
            f"  adjacency growth ×{self.adjacency_growth():.2f}, "
            f"converged={self.converged()}"
        )
        return "\n".join(lines)


def temporal_study(
    observations: list[RouteObservation],
    n_windows: int = 4,
    sample_asns: int = 200,
    seed: int = 5,
) -> TemporalStudy:
    """Build cumulative-window RIBs and measure valid-space growth.

    Observations with ``timestamp == 0`` (the initial table dumps) seed
    the first window; updates accumulate by timestamp.
    """
    if not observations:
        raise ValueError("no observations")
    max_time = max(o.timestamp for o in observations) or 1
    boundaries = [
        int(max_time * (i + 1) / n_windows) for i in range(n_windows)
    ]
    rng = np.random.default_rng(seed)
    ribs: list[GlobalRIB] = []
    for boundary in boundaries:
        rib = GlobalRIB()
        rib.add_all(obs for obs in observations if obs.timestamp <= boundary)
        ribs.append(rib)
    # Sample the AS panel once, from the first window, so the mean is
    # comparable across windows (the union RIB only ever grows).
    panel = ribs[0].indexer.asns()
    if len(panel) > sample_asns:
        picked = sorted(rng.choice(len(panel), sample_asns, replace=False))
        panel = [panel[i] for i in picked]
    snapshots: list[WindowSnapshot] = []
    for boundary, rib in zip(boundaries, ribs):
        full = FullConeValidSpace(rib)
        sizes = [full.valid_slash24s(asn) for asn in panel]
        snapshots.append(
            WindowSnapshot(
                end_time=boundary,
                num_prefixes=rib.num_prefixes,
                num_adjacencies=len(rib.adjacencies()),
                routed_slash24s=rib.routed_space().slash24_equivalents,
                mean_valid_slash24s=float(np.mean(sizes)) if sizes else 0.0,
            )
        )
    return TemporalStudy(snapshots=snapshots)
