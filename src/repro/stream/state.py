"""Mutable valid-space state for the online pipeline.

:class:`OnlineValidState` owns the trio the batch pipeline builds once
and throws away per run — the :class:`~repro.bgp.rib.GlobalRIB`, the
approach dict of :class:`~repro.cones.base.ValidSpaceMap` instances,
and the :class:`~repro.core.classifier.SpoofingClassifier` — and keeps
them mutually consistent as route deltas arrive:

1. ``rib.apply(observation)`` patches (or schedules a rebuild of) the
   finalized LPM/origin views and reports a
   :class:`~repro.bgp.rib.RIBDelta`;
2. each *unique base* map gets ``apply_delta`` exactly once — the
   approach dict shares base instances between plain and ``+orgs``
   variants, so deduplication by identity prevents double-application;
3. every map drops its memoised packed matrix, and org wrappers their
   merged rows (:meth:`~repro.cones.base.ValidSpaceMap.invalidate_cache`);
   the next :meth:`~repro.cones.base.ValidSpaceMap.packed_matrix` call
   restacks from the maps;
4. the classifier's ``state_version`` is bumped so supervised worker
   pools re-arm before classifying chunks that follow the delta.

The contract is exact: after :meth:`apply_route`, classification
results are bit-equal to a from-scratch rebuild of RIB, cones, and
matrices over the same live routes.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.bgp.messages import RouteObservation
from repro.bgp.rib import GlobalRIB, RIBDelta
from repro.cones.base import ValidSpaceMap
from repro.cones.orgs import OrgMergedValidSpace
from repro.core.classifier import SpoofingClassifier
from repro.obs.metrics import current_metrics


class OnlineValidState:
    """RIB + valid-space maps + classifier, patched as deltas arrive."""

    def __init__(
        self,
        rib: GlobalRIB,
        approaches: Mapping[str, ValidSpaceMap],
        classifier: SpoofingClassifier | None = None,
    ) -> None:
        if classifier is None:
            classifier = SpoofingClassifier(rib, dict(approaches))
        self.rib = rib
        self.approaches = dict(approaches)
        self.classifier = classifier
        #: Deltas applied / events ignored since construction.
        self.n_applied = 0
        self.n_ignored = 0
        #: Finalized-view patch vs rebuild tallies (mirrors the
        #: ``rib.delta_applied`` / ``rib.delta_rebuilds`` counters).
        self.n_patched = 0
        self.n_rebuilds = 0

    def apply_route(self, observation: RouteObservation) -> RIBDelta:
        """Apply one announce/withdraw delta through the whole stack.

        Returns the :class:`RIBDelta`; when the event was ignored
        (duplicate announce, withdrawal of an unknown route) nothing
        else is touched. Otherwise the cone maps are patched, their
        packed matrices dropped and the classifier version is bumped.
        """
        delta = self.rib.apply(observation)
        if not delta.applied:
            self.n_ignored += 1
            return delta
        self.n_applied += 1
        if delta.finalize == "patched":
            self.n_patched += 1
        elif delta.finalize == "rebuild":
            self.n_rebuilds += 1
        approaches = self.approaches.values()
        bases = {id(base): base for base in map(self._base_of, approaches)}
        for base in bases.values():
            base.apply_delta(delta)
        for approach in approaches:
            approach.invalidate_cache()
        current_metrics().counter("stream.deltas_applied").inc()
        self.classifier.notify_state_changed()
        return delta

    @staticmethod
    def _base_of(approach: ValidSpaceMap) -> ValidSpaceMap:
        """The shared base map of a wrapper (or the map itself)."""
        if isinstance(approach, OrgMergedValidSpace):
            return approach.base
        return approach

    # -- durability surface ------------------------------------------------

    def state_digest(self, member_asns: Iterable[int] | None = None) -> str:
        """SHA-256 fingerprint of the whole online state.

        Covers the RIB's live routing state
        (:meth:`~repro.bgp.rib.GlobalRIB.state_digest`) and the delta
        counters; with ``member_asns`` it additionally hashes every
        approach's packed validity matrix for those members, pinning
        the *derived* state too. The durable checkpoint stores this at
        save time and recomputes it after restore — equal digests mean
        a restored daemon classifies bit-equal to the uninterrupted
        run.
        """
        import hashlib

        digest = hashlib.sha256()
        digest.update(self.rib.state_digest().encode())
        digest.update(
            f"|{self.n_applied}:{self.n_ignored}"
            f":{self.n_patched}:{self.n_rebuilds}".encode()
        )
        if member_asns is not None:
            members = sorted(member_asns)
            for name in sorted(self.approaches):
                approach = self.approaches[name]
                digest.update(
                    f"|{name}={approach.state_digest(members)}".encode()
                )
        return digest.hexdigest()

    def rearm_after_restore(self) -> None:
        """Re-sync derived machinery after a checkpoint unpickle.

        Bumps the classifier's ``state_version`` so any supervised
        worker pool built later (or armed against a stale pickle of
        this classifier) re-ships the restored state before the first
        chunk — the resumed daemon must never classify against the
        pre-crash snapshot a long-lived pool may still hold.
        """
        self.classifier.mark_restored()
