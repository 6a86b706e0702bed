"""The durability layer: WAL, checkpoints, atomic IO, and the daemon.

Tentpole contracts under test:

* WAL — append/replay round trip, segment rotation, torn-tail
  tolerance (and truncation on writer re-open), mid-log corruption
  refusal, seq contiguity;
* checkpoints — atomic save, sha256 + state-digest verification,
  newest-first fallback across generations, torn-tmp invisibility,
  :class:`CheckpointCorruptionError` only when *every* generation is
  damaged, pool re-arm after restore;
* daemon — window-for-window parity with the in-memory
  :class:`OnlineClassifier`, exactly-once suppression on resume,
  clean drain discarding the trailing partial window, checkpoint-write
  failures governed by the pipeline failure policy, backpressure via
  the bounded queue;
* satellites — ``merge_event_streams`` disorder quarantine and the
  atomic (never truncated) run-manifest write.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import zlib

import numpy as np
import pytest

from repro.bgp.rib import GlobalRIB
from repro.cones.customer_cone import CustomerConeValidSpace
from repro.core import FailurePolicy
from repro.errors import (
    CheckpointCorruptionError,
    DurabilityError,
    IngestError,
    Quarantine,
    WalCorruptionError,
)
from repro.obs import RunManifest
from repro.obs.metrics import current_metrics
from repro.stream import (
    CheckpointStore,
    DurableWatch,
    OnlineClassifier,
    OnlineValidState,
    WalWriter,
    merge_event_streams,
    recover,
    replay_wal,
)
from repro.stream.durable.wal import last_wal_seq
from repro.stream.events import RouteEvent
from repro.testing import DurabilityFaultPlan, DurabilityFaultSpec
from repro.testing.recovery import (
    WINDOW_SECONDS,
    _obs,
    synthetic_events,
    synthetic_state,
)
from repro.util import atomic_write_bytes, atomic_write_text


@pytest.fixture()
def clean_metrics():
    current_metrics().clear()
    yield
    current_metrics().clear()


def wal_events(seed=5, n_ticks=40):
    return [e for e in synthetic_events(seed, n_ticks)]


# -- atomic IO -------------------------------------------------------------


class TestAtomicIO:
    def test_write_and_replace(self, tmp_path):
        path = tmp_path / "x.json"
        atomic_write_bytes(path, b"one")
        assert path.read_bytes() == b"one"
        atomic_write_text(path, "two")
        assert path.read_text() == "two"

    def test_no_temporaries_left(self, tmp_path):
        path = tmp_path / "x.bin"
        atomic_write_bytes(path, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]

    def test_failed_write_leaves_target_untouched(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "x.bin"
        atomic_write_bytes(path, b"original")

        def enospc(_fd):
            raise OSError(28, "injected disk full")

        monkeypatch.setattr(os, "fsync", enospc)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"partial")
        monkeypatch.undo()
        assert path.read_bytes() == b"original"
        assert [p.name for p in tmp_path.iterdir()] == ["x.bin"]


# -- the write-ahead log ---------------------------------------------------


class TestWal:
    def test_append_replay_roundtrip(self, tmp_path):
        events = wal_events()
        with WalWriter(tmp_path) as wal:
            seqs = [wal.append(e) for e in events]
        assert seqs == list(range(1, len(events) + 1))
        replayed = list(replay_wal(tmp_path))
        assert [seq for seq, _ in replayed] == seqs
        assert [pickle.dumps(e) for _, e in replayed] == [
            pickle.dumps(e) for e in events
        ]
        assert last_wal_seq(tmp_path) == len(events)

    def test_after_seq_suffix(self, tmp_path):
        with WalWriter(tmp_path) as wal:
            for event in wal_events():
                wal.append(event)
        suffix = list(replay_wal(tmp_path, after_seq=30))
        assert [seq for seq, _ in suffix][0] == 31

    def test_segment_rotation(self, tmp_path):
        with WalWriter(tmp_path, segment_bytes=512) as wal:
            for event in wal_events():
                wal.append(event)
        segments = sorted(tmp_path.glob("wal-*.log"))
        assert len(segments) > 1
        # every record still replays, across all segments, in order
        assert last_wal_seq(tmp_path) == len(wal_events())

    def test_torn_tail_is_dropped(self, tmp_path):
        with WalWriter(tmp_path) as wal:
            for event in wal_events():
                wal.append(event)
        tail = sorted(tmp_path.glob("wal-*.log"))[-1]
        whole = tail.read_bytes()
        tail.write_bytes(whole[:-7])  # crash mid-append
        replayed = list(replay_wal(tmp_path))
        assert len(replayed) == len(wal_events()) - 1

    def test_writer_truncates_torn_tail_before_appending(self, tmp_path):
        events = wal_events()
        with WalWriter(tmp_path) as wal:
            for event in events[:10]:
                wal.append(event)
        tail = sorted(tmp_path.glob("wal-*.log"))[-1]
        tail.write_bytes(tail.read_bytes()[:-5])
        # re-open (a restarted daemon) and append more
        with WalWriter(tmp_path) as wal:
            assert wal.last_seq == 9  # the torn 10th record is gone
            for event in events[10:]:
                wal.append(event)
        seqs = [seq for seq, _ in replay_wal(tmp_path)]
        assert seqs == list(range(1, 9 + len(events[10:]) + 1))

    def test_failed_append_leaves_log_record_aligned(
        self, tmp_path, monkeypatch
    ):
        """A partial write mid-append (ENOSPC, interruption) must not
        strand torn bytes mid-segment: the writer truncates back to
        the pre-append size so later appends and replay stay clean."""
        from repro.stream.durable import wal as wal_mod

        events = wal_events()
        with WalWriter(tmp_path) as wal:
            for event in events[:5]:
                wal.append(event)
            real_write_all = wal_mod._write_all

            def torn_write_all(handle, parts):
                real_write_all(handle, parts[:1])  # header lands…
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(wal_mod, "_write_all", torn_write_all)
            with pytest.raises(OSError):
                wal.append(events[5])
            monkeypatch.setattr(wal_mod, "_write_all", real_write_all)
            # the writer is still usable and the log record-aligned
            for event in events[5:]:
                wal.append(event)
        seqs = [seq for seq, _ in replay_wal(tmp_path)]
        assert seqs == list(range(1, len(events) + 1))

    def test_mid_log_corruption_raises(self, tmp_path):
        with WalWriter(tmp_path, segment_bytes=512) as wal:
            for event in wal_events():
                wal.append(event)
        first = sorted(tmp_path.glob("wal-*.log"))[0]
        blob = bytearray(first.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        first.write_bytes(bytes(blob))
        with pytest.raises(WalCorruptionError):
            list(replay_wal(tmp_path))

    @pytest.mark.parametrize(
        "payload",
        [b"cno_such_mod\nX\n.", b"crepro.bgp.rib\nNoSuchClass\n.", b"\x80\x05K"],
        ids=["missing-module", "missing-class", "truncated"],
    )
    def test_crc_valid_record_that_does_not_unpickle_raises(
        self, tmp_path, payload
    ):
        with WalWriter(tmp_path) as wal:
            wal.append(wal_events()[0])
        append_raw_wal_record(tmp_path, 2, payload)
        with pytest.raises(WalCorruptionError) as err:
            list(replay_wal(tmp_path))
        assert err.value.seq == 2

    def test_sync_every_batches_fsync(self, tmp_path):
        with WalWriter(tmp_path, sync_every=16) as wal:
            for event in wal_events():
                wal.append(event)
            wal.sync()
        assert last_wal_seq(tmp_path) == len(wal_events())


# -- checkpoints -----------------------------------------------------------


def window_digests(windows):
    return [
        (w.index, w.n_route_events, w.n_chunks, w.n_flows,
         w.result.counters()["invalid_counts"])
        for w in windows
    ]


def append_raw_wal_record(directory, seq, payload):
    """Append a route record with a valid crc but arbitrary ``payload``
    to the newest WAL segment (a new one when there is none)."""
    from repro.stream.durable import wal as wal_mod

    segments = sorted(directory.glob("wal-*.log"))
    segment = segments[-1] if segments else directory / wal_mod._segment_name(seq)
    kind, length = wal_mod._KIND_ROUTE, len(payload)
    crc = zlib.crc32(payload, zlib.crc32(struct.pack("<QBI", seq, kind, length)))
    with segment.open("ab") as handle:
        handle.write(wal_mod._HEADER.pack(seq, kind, length, crc) + payload)


def rewrite_checkpoint_payload(path, payload):
    """Swap a checkpoint's payload, keeping its header self-consistent
    (length and sha256), so only unpickling can reject it."""
    blob = path.read_bytes()
    magic_end = blob.index(b"{")
    newline = blob.index(b"\n", magic_end)
    header = json.loads(blob[magic_end:newline])
    header["payload_bytes"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
    path.write_bytes(
        blob[:magic_end] + json.dumps(header, sort_keys=True).encode()
        + b"\n" + payload
    )


class TestCheckpointStore:
    def test_save_load_roundtrip(self, tmp_path):
        state = synthetic_state()
        digest = state.state_digest()
        store = CheckpointStore(tmp_path)
        store.save(state, last_seq=17, last_window=3, last_timestamp=350)
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.last_seq == 17
        assert loaded.last_window == 3
        assert loaded.last_timestamp == 350
        assert loaded.state.state_digest() == digest

    def test_restore_rearms_classifier(self, tmp_path):
        state = synthetic_state()
        store = CheckpointStore(tmp_path)
        store.save(state, last_seq=1, last_window=0, last_timestamp=None)
        before = state.classifier.state_version
        loaded = store.load_latest()
        # restored classifier must not collide with any pre-crash
        # pickle a long-lived worker pool may still hold
        assert loaded.state.classifier.state_version > before

    def test_prune_keeps_newest(self, tmp_path):
        state = synthetic_state()
        store = CheckpointStore(tmp_path, keep=2)
        for seq in (5, 10, 15, 20):
            store.save(state, last_seq=seq, last_window=0, last_timestamp=None)
        names = sorted(p.name for p in tmp_path.glob("checkpoint-*.ckpt"))
        assert names == [
            "checkpoint-000000000015.ckpt",
            "checkpoint-000000000020.ckpt",
        ]

    def test_fallback_to_previous_generation(self, tmp_path):
        state = synthetic_state()
        store = CheckpointStore(tmp_path)
        store.save(state, last_seq=5, last_window=1, last_timestamp=100)
        newest = store.save(
            state, last_seq=9, last_window=2, last_timestamp=200
        )
        newest.write_bytes(newest.read_bytes()[:-40])  # damage the newest
        loaded = store.load_latest()
        assert loaded.last_seq == 5  # silently fell back

    def test_torn_tmp_is_invisible(self, tmp_path):
        state = synthetic_state()
        store = CheckpointStore(tmp_path)
        store.save(state, last_seq=5, last_window=1, last_timestamp=100)
        (tmp_path / "checkpoint-000000000009.ckpt.123.tmp").write_bytes(
            b"\xde\xad" * 16
        )
        loaded = store.load_latest()
        assert loaded.last_seq == 5

    def test_all_generations_damaged_raises(self, tmp_path):
        state = synthetic_state()
        store = CheckpointStore(tmp_path)
        for seq in (5, 9):
            store.save(state, last_seq=seq, last_window=0, last_timestamp=None)
        for path in tmp_path.glob("checkpoint-*.ckpt"):
            path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointCorruptionError) as err:
            store.load_latest()
        assert len(err.value.context["failures"]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            b"cno_such_mod\nX\n.",
            b"crepro.bgp.rib\nNoSuchClass\n.",
            # An OnlineValidState shell: unpickles, but holds no state.
            b"\x80\x04crepro.stream.state\nOnlineValidState\n)\x81.",
        ],
        ids=["missing-module", "missing-class", "empty-state"],
    )
    def test_payload_that_does_not_restore_is_a_failed_generation(
        self, tmp_path, payload
    ):
        state = synthetic_state()
        store = CheckpointStore(tmp_path)
        store.save(state, last_seq=5, last_window=1, last_timestamp=100)
        newest = store.save(state, last_seq=9, last_window=2, last_timestamp=200)
        rewrite_checkpoint_payload(newest, payload)
        assert store.load_latest().last_seq == 5  # fell back
        for path in tmp_path.glob("checkpoint-*.ckpt"):
            rewrite_checkpoint_payload(path, payload)
        with pytest.raises(CheckpointCorruptionError) as err:
            store.load_latest()
        assert len(err.value.context["failures"]) == 2

    def test_cone_map_saved_without_a_ledger_resumes(self, tmp_path):
        """A checkpoint written before the customer-cone map kept a
        relationship ledger restores: the map rebuilds the ledger from
        its RIB, and a path-set delta then patches it bit-equal to a
        fresh build."""
        rib = GlobalRIB()
        for prefix, path in (
            ("60.0.0.0/16", (20, 1, 10, 100)),
            ("20.0.0.0/16", (10, 1, 20, 200)),
            ("30.0.0.0/16", (30, 2, 1, 10, 100)),
        ):
            rib.apply(_obs(prefix, *path))
        state = OnlineValidState(rib, {"cc": CustomerConeValidSpace(rib)})
        cc = state.approaches["cc"]
        old_layout = {
            name: value for name, value in vars(cc).items()
            if name not in ("_ledger", "_edges")
        }
        old_layout["relationships"] = dict(cc.relationships)
        old_layout["_given_relationships"] = None
        cc.__dict__.clear()
        cc.__dict__.update(old_layout)
        CheckpointStore(tmp_path).save(
            state, last_seq=3, last_window=0, last_timestamp=None
        )

        restored = CheckpointStore(tmp_path).load_latest().state
        delta = restored.apply_route(_obs("70.0.0.0/16", 30, 2, 1, 20, 200))
        assert delta.added_paths and not delta.rebuild_required
        patched = restored.approaches["cc"]
        fresh = CustomerConeValidSpace(restored.rib)
        assert "_given_relationships" not in vars(patched)
        assert vars(patched._ledger) == vars(fresh._ledger)
        members = sorted(restored.rib.observed_asns())
        np.testing.assert_array_equal(
            patched.packed_matrix(members), fresh.packed_matrix(members)
        )

    def test_empty_directory_is_a_fresh_start(self, tmp_path):
        assert CheckpointStore(tmp_path).load_latest() is None
        point = recover(tmp_path)
        assert point.checkpoint is None
        assert point.emitted_through == -1
        assert point.replay_events == 0


# -- the durable daemon ----------------------------------------------------


class TestDurableWatch:
    def test_window_parity_with_online_classifier(self, tmp_path):
        events = synthetic_events(23, 80)
        reference = window_digests(
            OnlineClassifier(synthetic_state(), WINDOW_SECONDS).run(
                iter(events)
            )
        )
        watch = DurableWatch(
            synthetic_state(),
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            checkpoint_every=2,
        )
        assert window_digests(watch.run(iter(events))) == reference
        assert watch.wal.last_seq == len(events)

    def test_resume_emits_nothing_new(self, tmp_path, clean_metrics):
        events = synthetic_events(23, 80)
        first = DurableWatch(
            synthetic_state(), WINDOW_SECONDS, checkpoint_dir=tmp_path
        )
        emitted = list(first.run(iter(events)))
        assert emitted
        point = recover(tmp_path)
        assert point.emitted_through == emitted[-1].index
        resumed = DurableWatch(
            point.checkpoint.state,
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            resume=point,
        )
        assert list(resumed.run(iter(events))) == []
        assert (
            resumed.state.state_digest() == first.state.state_digest()
        )

    def test_resume_after_positional_cut(self, tmp_path):
        """Killing after window k: the suffix re-emits k+1.. bit-equal."""
        events = synthetic_events(23, 80)
        reference = window_digests(
            OnlineClassifier(synthetic_state(), WINDOW_SECONDS).run(
                iter(events)
            )
        )
        first = DurableWatch(
            synthetic_state(), WINDOW_SECONDS, checkpoint_dir=tmp_path
        )
        head = []
        run = first.run(iter(events))
        for window in run:
            head.append(window)
            if len(head) == 2:
                run.close()  # abandon mid-stream (no drain, like a kill)
                break
        first.wal.close()
        point = recover(tmp_path)
        resumed = DurableWatch(
            point.checkpoint.state,
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            resume=point,
        )
        tail = list(resumed.run(iter(events)))
        assert window_digests(head) + window_digests(tail) == reference

    def test_drain_discards_trailing_partial_window(
        self, tmp_path, clean_metrics
    ):
        events = synthetic_events(23, 80)
        watch = DurableWatch(
            synthetic_state(), WINDOW_SECONDS, checkpoint_dir=tmp_path
        )
        run = watch.run(iter(events))
        first = next(run)
        watch.request_drain()
        drained = list(run)
        # whatever window was in flight when the drain hit is not
        # emitted — a resumed run recomputes it in full instead
        point = recover(tmp_path)
        emitted = [first.index] + [w.index for w in drained]
        assert point.emitted_through == emitted[-1]
        resumed = DurableWatch(
            point.checkpoint.state,
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            resume=point,
        )
        tail = [w.index for w in resumed.run(iter(events))]
        assert not set(tail) & set(emitted)
        reference = [
            w.index
            for w in OnlineClassifier(
                synthetic_state(), WINDOW_SECONDS
            ).run(iter(events))
        ]
        assert emitted + tail == reference

    def test_checkpoint_failure_degrade_counts_and_continues(
        self, tmp_path, clean_metrics
    ):
        plan = DurabilityFaultPlan(
            (DurabilityFaultSpec("disk_full", "checkpoint_begin", 0),)
        )
        watch = DurableWatch(
            synthetic_state(),
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            policy=FailurePolicy(mode="degrade", backoff_base=0.0),
            fault_hook=plan,
        )
        emitted = list(watch.run(iter(synthetic_events(23, 60))))
        assert emitted  # the watch survived every failed checkpoint
        assert watch.checkpoint_failures == len(emitted)
        assert not list(tmp_path.glob("checkpoint-*.ckpt"))
        # recovery still works: no checkpoint, but the cursor + WAL do
        point = recover(tmp_path)
        assert point.checkpoint is None
        assert point.emitted_through == emitted[-1].index

    def test_checkpoint_failure_fail_fast_raises(self, tmp_path):
        plan = DurabilityFaultPlan(
            (DurabilityFaultSpec("disk_full", "checkpoint_begin", 0),)
        )
        watch = DurableWatch(
            synthetic_state(),
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            policy=FailurePolicy(mode="fail_fast"),
            fault_hook=plan,
        )
        with pytest.raises(DurabilityError):
            list(watch.run(iter(synthetic_events(23, 60))))

    def test_checkpoint_failure_retry_recovers(self, tmp_path):
        # ENOSPC on the first visit only; the retry succeeds
        plan = DurabilityFaultPlan(
            (DurabilityFaultSpec("disk_full", "checkpoint_begin", 1),)
        )
        watch = DurableWatch(
            synthetic_state(),
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            policy=FailurePolicy(
                mode="retry", max_retries=2, backoff_base=0.0
            ),
            fault_hook=plan,
        )
        emitted = list(watch.run(iter(synthetic_events(23, 60))))
        assert emitted
        assert watch.checkpoint_failures == 0
        assert list(tmp_path.glob("checkpoint-*.ckpt"))

    def test_bounded_queue_backpressure(self, tmp_path, clean_metrics):
        events = synthetic_events(23, 80)
        reference = window_digests(
            OnlineClassifier(synthetic_state(), WINDOW_SECONDS).run(
                iter(events)
            )
        )
        watch = DurableWatch(
            synthetic_state(),
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            queue_depth=2,  # ingest must block on the consumer
        )
        assert window_digests(watch.run(iter(events))) == reference

    def test_cursor_outruns_sparse_checkpoints(self, tmp_path):
        """checkpoint_every=4: the cursor still suppresses re-emission."""
        events = synthetic_events(23, 80)
        first = DurableWatch(
            synthetic_state(),
            WINDOW_SECONDS,
            checkpoint_dir=tmp_path,
            checkpoint_every=4,
        )
        emitted = [w.index for w in first.run(iter(events))]
        point = recover(tmp_path)
        # the checkpoint may be several windows behind the cursor
        assert point.emitted_through == emitted[-1]
        state = (
            point.checkpoint.state
            if point.checkpoint is not None
            else synthetic_state()
        )
        resumed = DurableWatch(
            state, WINDOW_SECONDS, checkpoint_dir=tmp_path, resume=point
        )
        assert list(resumed.run(iter(events))) == []

    def test_rejects_bad_parameters(self, tmp_path):
        with pytest.raises(ValueError):
            DurableWatch(
                synthetic_state(),
                WINDOW_SECONDS,
                checkpoint_dir=tmp_path,
                checkpoint_every=0,
            )
        with pytest.raises(ValueError):
            DurableWatch(
                synthetic_state(),
                WINDOW_SECONDS,
                checkpoint_dir=tmp_path,
                queue_depth=0,
            )


# -- satellite: merge-stream disorder policy --------------------------------


def ts_events(*stamps):
    return [
        RouteEvent(_obs("60.0.0.0/16", 20, 1, ts=ts)) for ts in stamps
    ]


class TestMergeDisorderPolicy:
    def test_strict_default_raises(self):
        bad = ts_events(10, 5)  # one stream violating its own order
        with pytest.raises(IngestError):
            list(merge_event_streams(bad))

    def test_quarantine_drops_and_counts(self, clean_metrics):
        bad = ts_events(10, 5, 12)
        quarantine = Quarantine(source="stream")
        merged = list(
            merge_event_streams(
                bad, on_disorder="quarantine", quarantine=quarantine
            )
        )
        assert [e.timestamp for e in merged] == [10, 12]
        assert quarantine.count == 1
        assert quarantine.reasons == {"timestamp regression": 1}
        assert (
            current_metrics()
            .counter("ingest.quarantined_events")
            .value
            == 1
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            merge_event_streams(ts_events(1), on_disorder="ignore")


# -- satellite: atomic manifests -------------------------------------------


class TestManifestAtomicity:
    def test_write_leaves_no_temporaries(self, tmp_path):
        manifest = RunManifest.create("durability-test", seed=1)
        manifest.finish(exit_code=0)
        path = manifest.write(tmp_path / "run.manifest.json")
        assert json.loads(path.read_text())["command"] == "durability-test"
        assert [p.name for p in tmp_path.iterdir()] == ["run.manifest.json"]

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "run.manifest.json"
        for attempt in (1, 2):
            manifest = RunManifest.create("durability-test", seed=attempt)
            manifest.finish(exit_code=0)
            manifest.write(path)
        assert json.loads(path.read_text())["seed"] == 2
