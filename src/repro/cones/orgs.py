"""Multi-AS organization adjustment (Section 3.2, "Multi-AS Organizations").

Organizations operating several ASes often interconnect them without
exposing the links in BGP. The paper therefore shares the *joint*
cones and address space of an organization with each constituent AS.
:class:`OrgMergedValidSpace` wraps any base approach and ORs the
validity rows of all ASes mapped to the same organization.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.cones.base import ValidSpaceMap


class OrgMergedValidSpace(ValidSpaceMap):
    """A base valid-space map with organization rows merged."""

    def __init__(self, base: ValidSpaceMap, asn_to_org: Mapping[int, int]) -> None:
        super().__init__(base.rib)
        self._base = base
        self.name = f"{base.name}+orgs"
        self._siblings: dict[int, tuple[int, ...]] = {}
        by_org: dict[int, list[int]] = {}
        for asn, org in asn_to_org.items():
            by_org.setdefault(org, []).append(asn)
        for members in by_org.values():
            if len(members) < 2:
                continue
            group = tuple(sorted(members))
            for asn in group:
                self._siblings[asn] = group
        self._merged_cache: dict[int, np.ndarray] = {}

    @property
    def base(self) -> ValidSpaceMap:
        """The unmerged valid-space map the org merge wraps."""
        return self._base

    @property
    def column_kind(self) -> str:
        """Same column indexing as the wrapped base map."""
        return self._base.column_kind

    def _n_columns(self) -> int:
        return self._base._n_columns()

    def packed_row(self, asn: int) -> np.ndarray | None:
        """Bitwise OR of the packed rows of every sibling in the org."""
        group = self._siblings.get(asn)
        if group is None:
            return self._base.packed_row(asn)
        cached = self._merged_cache.get(asn)
        if cached is not None:
            return cached
        merged: np.ndarray | None = None
        for sibling in group:
            row = self._base.packed_row(sibling)
            if row is None:
                continue
            merged = row.copy() if merged is None else np.bitwise_or(merged, row)
        if merged is not None:
            for sibling in group:
                self._merged_cache[sibling] = merged
        return merged

    def invalidate_cache(self) -> None:
        """Drop the packed matrix and every merged row (after a delta).

        The wrapped base is not touched: the approach dict shares base
        instances between the plain and the ``+orgs`` variants, and the
        stream state manager applies each delta to each unique base
        exactly once.
        """
        super().invalidate_cache()
        self._merged_cache.clear()


def apply_org_merge(
    base: ValidSpaceMap, asn_to_org: Mapping[int, int]
) -> OrgMergedValidSpace:
    """Convenience constructor mirroring the paper's adjustment step."""
    return OrgMergedValidSpace(base, asn_to_org)
