"""Runtime protocol sanitizer: fsync before rename, checkpoint behind
the log, no submit to a drained pool.

Each protocol is exercised both ways — a deliberately broken subject
(torn write, unsynced checkpoint, drained pool) must be caught, and a
conforming subject must pass cleanly — plus the real integration
point: ``atomic_write_bytes`` under interposition.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.testing.sanitizer import ProtocolSanitizer, SanitizerError
from repro.util.atomicio import atomic_write_bytes

#: These tests arm private monitor instances and violate them on
#: purpose — the session-level sanitizer must not double-report that.
pytestmark = pytest.mark.sanitizer_self_test


def wal_events(seed=5, n_ticks=40):
    from repro.testing.recovery import synthetic_events

    return list(synthetic_events(seed, n_ticks))


@pytest.fixture()
def protocol_sanitizer():
    sanitizer = ProtocolSanitizer()
    sanitizer.install()
    yield sanitizer
    sanitizer.uninstall()


class TestFsyncProtocol:
    """The rename half of ``wal-commit``: fsync before promoting a
    ``<name>.<pid>.tmp`` onto its final name."""

    def test_torn_write_is_caught(self, tmp_path, protocol_sanitizer):
        """Promoting a .tmp file that was never fsynced is a torn-write
        window: the rename can land while the payload has not."""
        final = tmp_path / "state.json"
        tmp = tmp_path / f"state.json.{os.getpid()}.tmp"
        tmp.write_bytes(b"payload")
        os.replace(tmp, final)
        assert len(protocol_sanitizer.violations) == 1
        violation = protocol_sanitizer.violations[0]
        assert violation["kind"] == "replace-without-fsync"
        assert violation["dst"].endswith("state.json")

    def test_fsynced_write_passes(self, tmp_path, protocol_sanitizer):
        final = tmp_path / "state.json"
        tmp = tmp_path / f"state.json.{os.getpid()}.tmp"
        with open(tmp, "wb") as handle:
            handle.write(b"payload")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, final)
        assert protocol_sanitizer.violations == []

    def test_atomic_write_durable_passes(self, tmp_path, protocol_sanitizer):
        atomic_write_bytes(tmp_path / "state.json", b"x", durable=True)
        assert protocol_sanitizer.violations == []

    def test_atomic_write_non_durable_is_caught(
        self, tmp_path, protocol_sanitizer
    ):
        """The injected fsync-skip: ``durable=False`` on a non-advisory
        target follows the .tmp protocol without the fsync."""
        atomic_write_bytes(tmp_path / "state.json", b"x", durable=False)
        assert [v["kind"] for v in protocol_sanitizer.violations] == [
            "replace-without-fsync"
        ]

    def test_advisory_cursor_is_exempt(self, tmp_path, protocol_sanitizer):
        """cursor.json is advisory by design (recovery falls back to
        the fsynced checkpoint anchor), so durable=False is fine."""
        atomic_write_bytes(tmp_path / "cursor.json", b"x", durable=False)
        assert protocol_sanitizer.violations == []

    def test_unrelated_rename_is_ignored(self, tmp_path, protocol_sanitizer):
        """Renames outside the ``<name>.<pid>.tmp`` signature are not
        part of the durability protocol."""
        src = tmp_path / "a.txt"
        src.write_bytes(b"x")
        os.replace(src, tmp_path / "b.txt")
        assert protocol_sanitizer.violations == []


class TestProtocolSanitizer:
    """Runtime mirror of the RL3xx protocol machines."""

    def test_checkpoint_outrunning_log_is_caught(
        self, tmp_path, protocol_sanitizer
    ):
        from repro.stream import CheckpointStore, WalWriter
        from repro.testing.recovery import synthetic_state

        with WalWriter(tmp_path / "wal", sync_every=10_000) as wal:
            for event in wal_events()[:5]:
                wal.append(event)
            # five appends, zero syncs: the checkpoint claims a seq
            # the log has not made durable yet.
            store = CheckpointStore(tmp_path / "ckpt")
            store.save(
                synthetic_state(),
                last_seq=5,
                last_window=1,
                last_timestamp=1,
            )
        assert any(
            v["protocol"] == "wal-commit"
            and v["kind"] == "checkpoint-outran-log"
            for v in protocol_sanitizer.violations
        )

    def test_synced_checkpoint_passes(self, tmp_path, protocol_sanitizer):
        from repro.stream import CheckpointStore, WalWriter
        from repro.testing.recovery import synthetic_state

        with WalWriter(tmp_path / "wal", sync_every=10_000) as wal:
            for event in wal_events()[:5]:
                wal.append(event)
            wal.sync()
            store = CheckpointStore(tmp_path / "ckpt")
            store.save(
                synthetic_state(),
                last_seq=5,
                last_window=1,
                last_timestamp=1,
            )
        assert protocol_sanitizer.violations == []

    def test_submit_to_drained_pool_is_caught(self, protocol_sanitizer):
        import multiprocessing

        pool = multiprocessing.get_context("spawn").Pool(1)
        pool.terminate()
        pool.join()
        with pytest.raises(ValueError):
            pool.apply_async(int, ("1",))
        assert any(
            v["protocol"] == "supervised-pool"
            and v["kind"] == "submit-to-drained-pool"
            for v in protocol_sanitizer.violations
        )

    def test_live_pool_submit_passes(self, protocol_sanitizer):
        import multiprocessing

        with multiprocessing.get_context("spawn").Pool(1) as pool:
            assert pool.apply(int, ("7",)) == 7
        assert protocol_sanitizer.violations == []

    def test_mirrors_every_declared_protocol(self):
        """Every protocol reprolint checks statically needs a runtime
        mirror; ``supervised-pool`` is the one protocol checked only at
        runtime (a pool kept on an object is beyond a local-variable
        CFG analysis). A new ProtocolSpec without a mirror, or a new
        runtime-only protocol, is a drift this test pins."""
        import sys

        sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
        try:
            from tools.reprolint.protocols import PROTOCOLS
        finally:
            sys.path.pop(0)
        static = {spec.name for spec in PROTOCOLS}
        runtime = set(ProtocolSanitizer.PROTOCOL_NAMES)
        assert static <= runtime
        assert runtime - static == {"supervised-pool"}


class TestFacade:
    """The reporting surface: ``check()`` and ``write_artifacts()``."""

    def test_check_raises_and_artifacts_dump(self, tmp_path):
        sanitizer = ProtocolSanitizer()
        sanitizer.install()
        try:
            tmp = tmp_path / f"state.json.{os.getpid()}.tmp"
            tmp.write_bytes(b"payload")
            os.replace(tmp, tmp_path / "state.json")
            with pytest.raises(SanitizerError) as excinfo:
                sanitizer.check()
        finally:
            sanitizer.uninstall()
        assert excinfo.value.context["violations"]
        artifacts = tmp_path / "artifacts"
        sanitizer.write_artifacts(artifacts)
        assert sorted(p.name for p in artifacts.iterdir()) == [
            "protocol_violations.json"
        ]
        protocols = json.loads(
            (artifacts / "protocol_violations.json").read_text()
        )
        assert protocols["protocols"] == ["wal-commit", "supervised-pool"]
        assert [v["kind"] for v in protocols["violations"]] == [
            "replace-without-fsync"
        ]

    def test_clean_run_passes(self, tmp_path):
        sanitizer = ProtocolSanitizer()
        sanitizer.install()
        try:
            atomic_write_bytes(tmp_path / "ok.json", b"x", durable=True)
            sanitizer.check()
        finally:
            sanitizer.uninstall()
