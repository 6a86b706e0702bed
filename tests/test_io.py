"""Tests for the I/O layer (flows, route dumps, bogons, filter lists)."""

import numpy as np
import pytest

from repro.bgp.messages import RouteObservation
from repro.datasets.bogons import BOGON_PREFIXES
from repro.io import (
    IngestError,
    Quarantine,
    load_bogon_file,
    load_filter_list,
    load_flows_csv,
    load_flows_npz,
    load_route_dump,
    save_flows_csv,
    save_flows_npz,
    write_bogon_file,
    write_filter_list,
    write_route_dump,
)
from repro.net.prefix import Prefix
from repro.net.prefixset import PrefixSet


def _equal_tables(a, b) -> bool:
    return all(
        (getattr(a, name) == getattr(b, name)).all()
        for name in (
            "src", "dst", "proto", "src_port", "dst_port", "packets",
            "bytes", "member", "dst_member", "time", "truth",
        )
    )


class TestFlowIO:
    def test_npz_roundtrip(self, tiny_world, tmp_path):
        flows = tiny_world.scenario.flows.select(np.arange(500))
        path = tmp_path / "flows.npz"
        save_flows_npz(flows, path)
        assert _equal_tables(flows, load_flows_npz(path))

    def test_csv_roundtrip(self, tiny_world, tmp_path):
        flows = tiny_world.scenario.flows.select(np.arange(200))
        path = tmp_path / "flows.csv"
        save_flows_csv(flows, path)
        assert _equal_tables(flows, load_flows_csv(path))

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,header\n")
        with pytest.raises(ValueError):
            load_flows_csv(path)

    def test_csv_rejects_short_row(self, tiny_world, tmp_path):
        flows = tiny_world.scenario.flows.select(np.arange(5))
        path = tmp_path / "flows.csv"
        save_flows_csv(flows, path)
        with open(path, "a") as handle:
            handle.write("1.2.3.4,5.6.7.8,6\n")
        with pytest.raises(ValueError):
            load_flows_csv(path)


class TestFlowIngestModes:
    """Strict vs quarantine loading of damaged flow CSVs."""

    def _dirty_csv(self, tiny_world, tmp_path):
        """A 10-row CSV with three distinct defects injected.

        Data lines are 2..11 (line 1 is the header); we damage lines
        4, 7 and 10.
        """
        flows = tiny_world.scenario.flows.select(np.arange(10))
        path = tmp_path / "flows.csv"
        save_flows_csv(flows, path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].split(",", 1)[1]  # truncated row (10 fields)
        fields = lines[6].split(",")
        fields[0] = "300.1.2.999"  # bad dotted quad
        lines[6] = ",".join(fields)
        fields = lines[9].split(",")
        fields[5] = "not-a-number"  # non-integer packets column
        lines[9] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_strict_raises_with_line_number(self, tiny_world, tmp_path):
        path = self._dirty_csv(tiny_world, tmp_path)
        with pytest.raises(IngestError) as excinfo:
            load_flows_csv(path)
        assert excinfo.value.line_number == 4
        assert excinfo.value.path == str(path)

    def test_quarantine_reports_every_bad_line(self, tiny_world, tmp_path):
        path = self._dirty_csv(tiny_world, tmp_path)
        quarantine = Quarantine(source=str(path))
        flows = load_flows_csv(
            path, on_error="quarantine", quarantine=quarantine
        )
        assert len(flows) == 7
        assert quarantine.line_numbers == [4, 7, 10]
        assert quarantine.count == 3
        rendered = quarantine.render()
        assert "line 4" in rendered
        assert "line 10" in rendered

    def test_quarantine_auto_created_when_omitted(
        self, tiny_world, tmp_path, caplog
    ):
        path = self._dirty_csv(tiny_world, tmp_path)
        with caplog.at_level("WARNING", logger="repro.io.flows"):
            flows = load_flows_csv(path, on_error="quarantine")
        assert len(flows) == 7
        assert any("quarantin" in r.message for r in caplog.records)

    def test_wrong_header_fatal_even_in_quarantine(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,header\n1,2\n")
        with pytest.raises(IngestError) as excinfo:
            load_flows_csv(path, on_error="quarantine")
        assert excinfo.value.line_number == 1

    def _undecodable_csv(self, tiny_world, tmp_path):
        """A 10-row CSV whose line 4 carries one byte that is not UTF-8."""
        path = tmp_path / "bytes.csv"
        save_flows_csv(tiny_world.scenario.flows.select(np.arange(10)), path)
        lines = path.read_bytes().split(b"\n")
        lines[3] = lines[3][:2] + b"\xff" + lines[3][2:]
        path.write_bytes(b"\n".join(lines))
        return path

    def test_undecodable_byte_raises_ingest_error(self, tiny_world, tmp_path):
        path = self._undecodable_csv(tiny_world, tmp_path)
        with pytest.raises(IngestError) as excinfo:
            load_flows_csv(path)
        assert excinfo.value.line_number == 4

    def test_undecodable_byte_quarantines_its_row(self, tiny_world, tmp_path):
        path = self._undecodable_csv(tiny_world, tmp_path)
        quarantine = Quarantine(source=str(path))
        flows = load_flows_csv(path, on_error="quarantine", quarantine=quarantine)
        assert len(flows) == 9
        assert quarantine.line_numbers == [4]

    def test_empty_file_fatal(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError):
            load_flows_csv(path, on_error="quarantine")

    def test_bad_mode_rejected(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_text("h\n")
        with pytest.raises(ValueError):
            load_flows_csv(path, on_error="ignore")


class TestRouteDumpIO:
    def _observations(self):
        return [
            RouteObservation(
                Prefix.parse("60.0.0.0/16"), (10, 20, 30), "rrc00", 0, False
            ),
            RouteObservation(
                Prefix.parse("61.0.0.0/16"), (11, 30), "ixp-rs", 12345, True
            ),
        ]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "dump.txt"
        assert write_route_dump(self._observations(), path) == 2
        loaded = list(load_route_dump(path))
        assert loaded == self._observations()

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("garbage line\n")
        with pytest.raises(ValueError):
            list(load_route_dump(path))

    def test_rejects_peer_mismatch(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text("TABLE_DUMP2|0|B|rrc00|99|60.0.0.0/16|10 20\n")
        with pytest.raises(ValueError):
            list(load_route_dump(path))

    def test_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "dump.txt"
        write_route_dump(self._observations(), path)
        text = path.read_text()
        path.write_text("# header\n\n" + text)
        assert len(list(load_route_dump(path))) == 2

    def test_strict_error_names_line(self, tmp_path):
        path = tmp_path / "dump.txt"
        write_route_dump(self._observations(), path)
        with open(path, "a") as handle:
            handle.write("TABLE_DUMP2|0|B|rrc00|10|60.0.0.0/16|\n")
        with pytest.raises(IngestError) as excinfo:
            list(load_route_dump(path))
        assert excinfo.value.line_number == 3
        assert "empty AS path" in str(excinfo.value)

    def _undecodable_dump(self, tmp_path):
        """Two good records, then one whose source has a non-UTF-8 byte."""
        path = tmp_path / "dump.txt"
        write_route_dump(self._observations(), path)
        with open(path, "ab") as handle:
            handle.write(b"TABLE_DUMP2|0|B|rrc\xff0|10|62.0.0.0/16|10 30\n")
        return path

    def test_undecodable_byte_raises_ingest_error(self, tmp_path):
        path = self._undecodable_dump(tmp_path)
        with pytest.raises(IngestError) as excinfo:
            list(load_route_dump(path))
        assert excinfo.value.line_number == 3
        assert "undecodable" in str(excinfo.value)

    def test_undecodable_byte_quarantines_its_line(self, tmp_path):
        path = self._undecodable_dump(tmp_path)
        quarantine = Quarantine(source=str(path))
        loaded = list(
            load_route_dump(path, on_error="quarantine", quarantine=quarantine)
        )
        assert loaded == self._observations()
        assert quarantine.line_numbers == [3]
        assert "undecodable byte (not UTF-8)" in quarantine.reasons

    def test_quarantine_collects_all_defects(self, tmp_path):
        path = tmp_path / "dump.txt"
        write_route_dump(self._observations(), path)
        with open(path, "a") as handle:
            # empty AS path, bad record kind, truncated record
            handle.write("TABLE_DUMP2|0|B|rrc00|10|60.0.0.0/16|\n")
            handle.write("TABLE_DUMP2|0|X|rrc00|10|62.0.0.0/16|10 30\n")
            handle.write("TABLE_DUMP2|0|B|rrc00\n")
        quarantine = Quarantine(source=str(path))
        loaded = list(
            load_route_dump(
                path, on_error="quarantine", quarantine=quarantine
            )
        )
        assert loaded == self._observations()
        assert quarantine.line_numbers == [3, 4, 5]
        assert "empty AS path" in quarantine.reasons
        assert "bad kind 'X'" in quarantine.reasons
        assert "malformed record" in quarantine.reasons

    @pytest.mark.parametrize(
        ("record", "reason"),
        [
            ("TABLE_DUMP2|0|B|rrc00|-5|60.0.0.0/16|-5 30", "bad ASN '-5'"),
            ("TABLE_DUMP2|0|B|rrc00|10|60.0.0.0/16|10 99999999999",
             "ASN 99999999999 out of range"),
            ("TABLE_DUMP2|0|B|rrc00|10|60.0.0.0/16|10 1_0", "bad ASN '1_0'"),
            ("TABLE_DUMP2|0|B|rrc00|1_0|60.0.0.0/16|10 30", "bad ASN '1_0'"),
            ("TABLE_DUMP2|0|B|rrc00|10|60.0.0.0/16|10 \u0663",
             "bad ASN '\u0663'"),
            ("TABLE_DUMP2|-1|B|rrc00|10|60.0.0.0/16|10 30",
             "bad timestamp '-1'"),
            ("TABLE_DUMP2|1_0|B|rrc00|10|60.0.0.0/16|10 30",
             "bad timestamp '1_0'"),
        ],
    )
    def test_rejects_bad_numbers(self, tmp_path, record, reason):
        """Only plain ASCII digits, and ASNs within 0..2**32-1; ``int()``
        alone reads '1_0' as 10 and takes signs."""
        path = tmp_path / "dump.txt"
        write_route_dump(self._observations(), path)
        with open(path, "a") as handle:
            handle.write(record + "\n")
        with pytest.raises(IngestError) as excinfo:
            list(load_route_dump(path))
        assert excinfo.value.line_number == 3
        assert reason in str(excinfo.value)
        quarantine = Quarantine(source=str(path))
        loaded = list(
            load_route_dump(path, on_error="quarantine", quarantine=quarantine)
        )
        assert loaded == self._observations()
        assert quarantine.line_numbers == [3]
        assert reason in quarantine.reasons

    def test_accepts_the_largest_asn(self, tmp_path):
        path = tmp_path / "dump.txt"
        path.write_text(
            "TABLE_DUMP2|0|B|rrc00|4294967295|60.0.0.0/16|4294967295 0\n"
        )
        (loaded,) = load_route_dump(path)
        assert loaded.path == (2**32 - 1, 0)

    def test_world_scale_roundtrip(self, bgp_only_world, tmp_path):
        from repro.bgp.rib import GlobalRIB
        from repro.bgp.simulate import simulate_bgp

        world = bgp_only_world
        rng = np.random.default_rng(world.config.seed)
        observations = list(
            simulate_bgp(
                world.topo, world.policies, world.collectors,
                world.ixp.route_server, rng,
            ).observations()
        )
        path = tmp_path / "world.dump"
        write_route_dump(observations, path)
        rib = GlobalRIB.from_observations(load_route_dump(path))
        # Compare against a RIB built from the same in-memory stream
        # (the world's own RIB used a different RNG position).
        reference = GlobalRIB.from_observations(observations)
        assert rib.num_prefixes == reference.num_prefixes
        assert rib.adjacencies() == reference.adjacencies()
        assert rib.num_paths == reference.num_paths


class TestBogonIO:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "bogons.txt"
        write_bogon_file(BOGON_PREFIXES, path)
        loaded = load_bogon_file(path)
        assert loaded == [p for p, _c in BOGON_PREFIXES]

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "bogons.txt"
        path.write_text("# comment\n10.0.0.0/8\n\n192.168.0.0/16 # private\n")
        assert load_bogon_file(path) == [
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("192.168.0.0/16"),
        ]

    def test_rejects_overlap(self, tmp_path):
        path = tmp_path / "bogons.txt"
        path.write_text("10.0.0.0/8\n10.1.0.0/16\n")
        with pytest.raises(ValueError):
            load_bogon_file(path)
        assert len(load_bogon_file(path, reject_overlaps=False)) == 2

    def test_rejects_bad_prefix(self, tmp_path):
        path = tmp_path / "bogons.txt"
        path.write_text("10.0.0.1/8\n")
        with pytest.raises(ValueError) as excinfo:
            load_bogon_file(path)
        assert ":1:" in str(excinfo.value)


class TestFilterListIO:
    def test_roundtrip(self, tmp_path):
        acl = PrefixSet(
            [Prefix.parse("60.0.0.0/16"), Prefix.parse("61.2.0.0/24")]
        )
        path = tmp_path / "acl.txt"
        count = write_filter_list(acl, 64500, path)
        assert count == 2
        name, loaded = load_filter_list(path)
        assert name == "AS64500-in"
        assert loaded == acl

    def test_rejects_mixed_names(self, tmp_path):
        path = tmp_path / "acl.txt"
        path.write_text(
            "ip prefix-list A permit 60.0.0.0/16\n"
            "ip prefix-list B permit 61.0.0.0/16\n"
        )
        with pytest.raises(ValueError):
            load_filter_list(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "acl.txt"
        path.write_text("! nothing here\n")
        with pytest.raises(ValueError):
            load_filter_list(path)
