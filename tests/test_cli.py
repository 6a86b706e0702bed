"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.io import save_flows_npz
from repro.ixp.flows import FlowTable
from tests.test_stream_durable import (
    append_raw_wal_record,
    rewrite_checkpoint_payload,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_preset_choices(self):
        args = build_parser().parse_args(["table1", "--preset", "tiny"])
        assert args.preset == "tiny"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--preset", "huge"])

    def test_acl_defaults(self):
        args = build_parser().parse_args(["acl"])
        assert args.approach == "full+orgs"
        assert args.peer is None


class TestCommands:
    def test_survey(self, capsys):
        assert main(["survey", "--responses", "40", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "40 responses" in out

    def test_table1(self, capsys):
        assert main(["table1", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "bogon" in out and "invalid full+orgs" in out

    def test_cones(self, capsys):
        assert main(["cones", "--preset", "tiny", "--sample", "40"]) == 0
        out = capsys.readouterr().out
        assert "Fig.2" in out

    def test_acl(self, capsys):
        assert main(["acl", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "# ingress whitelist" in out
        # At least one prefix line like a.b.c.d/len.
        assert any("/" in line for line in out.splitlines()[1:])

    def test_acl_unknown_peer(self, capsys):
        assert main(["acl", "--preset", "tiny", "--peer", "999999"]) == 2


FLOW_CSV_HEADER = (
    "src,dst,proto,src_port,dst_port,packets,bytes,member,dst_member,time,"
    "truth\n"
)


class TestClassifyUnreadableInput:
    """``classify`` exits 2 on a flow file it cannot load and still
    writes its manifest, marked as a failed, incomplete run."""

    @pytest.mark.parametrize(
        ("name", "content"),
        [
            ("flows.csv", None),
            ("flows.csv", "not,a,flow,header\n1,2,3,4\n"),
            ("flows.csv", FLOW_CSV_HEADER + '"' + "x" * 140_000 + "\n"),
            ("flows.npz", lambda archive: archive[: len(archive) // 2]),
            ("flows.npz", lambda archive: bytes(len(archive))),
        ],
        ids=[
            "missing", "bad-header", "oversized-field", "truncated-npz",
            "zeroed-npz",
        ],
    )
    def test_manifest_written_with_exit_2(
        self, tmp_path, name, content, capsys
    ):
        path = tmp_path / name
        if callable(content):
            # Damage a valid archive's bytes.
            columns = FLOW_CSV_HEADER.strip().split(",")
            save_flows_npz(
                FlowTable(**{column: np.arange(64) for column in columns}),
                path,
            )
            path.write_bytes(content(path.read_bytes()))
        elif content is not None:
            path.write_text(content)
        out = tmp_path / "m.json"
        argv = ["classify", str(path), "--preset", "tiny"]
        assert main([*argv, "--manifest-out", str(out)]) == 2
        assert "cannot load" in capsys.readouterr().err
        data = json.loads(out.read_text())
        assert data["command"] == "classify"
        assert data["outcome"] == {"exit_code": 2, "complete": False}

    def test_trace_manifest_in_cwd_when_input_dir_is_missing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["classify", "gone/flows.csv", "--preset", "tiny", "--trace"]
        assert main(argv) == 2
        data = json.loads((tmp_path / "repro_classify.manifest.json").read_text())
        assert data["outcome"] == {"exit_code": 2, "complete": False}


class TestWatchResumeFromUnreadableState:
    """``watch --resume`` exits 4, not with a traceback, when the stored
    state passes its checksums but does not unpickle."""

    PAYLOAD = b"crepro.bgp.rib\nNoSuchClass\n."

    def _resume(self, directory):
        return main(["watch", "--preset", "tiny", "--checkpoint-dir",
                     str(directory), "--resume"])

    def _store_checkpoint_with_payload(self, directory, payload):
        from repro.stream.durable import CheckpointStore
        from repro.testing.recovery import synthetic_state

        path = CheckpointStore(directory).save(
            synthetic_state(), last_seq=1, last_window=0, last_timestamp=None
        )
        rewrite_checkpoint_payload(path, payload)

    def test_checkpoint_that_does_not_unpickle_exits_4(self, tmp_path, capsys):
        self._store_checkpoint_with_payload(tmp_path, self.PAYLOAD)
        assert self._resume(tmp_path) == 4
        assert "unrecoverable checkpoint state" in capsys.readouterr().err

    def test_checkpoint_naming_a_removed_module_exits_4(self, tmp_path, capsys):
        # State pickled by a release whose RIB view held a prefix trie.
        payload = b"crepro.net.trie\n_Node\n."
        self._store_checkpoint_with_payload(tmp_path, payload)
        assert self._resume(tmp_path) == 4
        assert "No module named 'repro.net.trie'" in capsys.readouterr().err

    def test_wal_record_that_does_not_unpickle_exits_4(self, tmp_path, capsys):
        from repro.stream.durable.daemon import WAL_SUBDIR

        (tmp_path / WAL_SUBDIR).mkdir()
        append_raw_wal_record(tmp_path / WAL_SUBDIR, 1, self.PAYLOAD)
        assert self._resume(tmp_path) == 4
        assert "unrecoverable WAL state" in capsys.readouterr().err

    def test_wal_kind_2_record_exits_4(self, tmp_path, capsys):
        import pickle

        from repro.stream.durable.daemon import WAL_SUBDIR
        from repro.testing.recovery import synthetic_events

        flow = next(
            e for e in synthetic_events(5, 40) if type(e).__name__ == "FlowEvent"
        )
        (tmp_path / WAL_SUBDIR).mkdir()
        append_raw_wal_record(
            tmp_path / WAL_SUBDIR, 1, pickle.dumps(flow), kind=2
        )
        assert self._resume(tmp_path) == 4
        assert "unknown WAL record kind 2" in capsys.readouterr().err


class TestWatchResumeFromMalformedCursor:
    """``watch --resume`` treats a cursor of the wrong shape as absent
    (it is advisory) instead of dying with a traceback."""

    def test_wrong_shape_cursor_resumes_from_scratch(self, tmp_path, capsys):
        (tmp_path / "cursor.json").write_text('{"last_window": null}')
        argv = ["watch", "--preset", "tiny", "--checkpoint-dir",
                str(tmp_path), "--resume", "--windows", "1"]
        assert main(argv) == 0
        assert "watching:" in capsys.readouterr().out
