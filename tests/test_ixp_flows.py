"""Tests for the columnar flow table."""

import numpy as np
import pytest

from repro.ixp.flows import (
    PROTO_TCP,
    FlowTable,
    TruthLabel,
)


def small_table(n=4, member=10):
    return FlowTable(
        src=np.arange(n, dtype=np.uint64),
        dst=np.arange(n, dtype=np.uint64) + 100,
        proto=np.full(n, PROTO_TCP),
        src_port=np.full(n, 1000),
        dst_port=np.full(n, 80),
        packets=np.arange(1, n + 1),
        bytes=np.arange(1, n + 1) * 100,
        member=np.full(n, member),
        dst_member=np.full(n, member + 1),
        time=np.arange(n) * 3600,
        truth=np.full(n, int(TruthLabel.LEGIT)),
    )


class TestConstruction:
    def test_empty(self):
        table = FlowTable.empty()
        assert len(table) == 0
        assert table.total_packets() == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            FlowTable(src=np.array([1, 2]), dst=np.array([1]))

    def test_missing_columns_default_empty(self):
        table = FlowTable(src=np.array([], dtype=np.uint64))
        assert len(table) == 0

    def test_repr(self):
        assert "4 flows" in repr(small_table())


class TestOps:
    def test_concat(self):
        merged = FlowTable.concat([small_table(2), small_table(3)])
        assert len(merged) == 5

    def test_concat_skips_empty(self):
        merged = FlowTable.concat([FlowTable.empty(), small_table(2)])
        assert len(merged) == 2

    def test_concat_nothing(self):
        assert len(FlowTable.concat([])) == 0

    def test_select_mask(self):
        table = small_table(4)
        subset = table.select(table.packets > 2)
        assert len(subset) == 2
        assert subset.packets.tolist() == [3, 4]

    def test_select_indices(self):
        table = small_table(4)
        subset = table.select(np.array([0, 3]))
        assert subset.packets.tolist() == [1, 4]

    def test_totals(self):
        table = small_table(4)
        assert table.total_packets() == 10
        assert table.total_bytes() == 1000

    def test_members(self):
        merged = FlowTable.concat([small_table(2, member=1), small_table(2, member=2)])
        assert merged.members().tolist() == [1, 2]

    def test_sort_by_time(self):
        table = small_table(4).select(np.array([3, 1, 0, 2]))
        ordered = table.sort_by_time()
        assert list(ordered.time) == sorted(table.time)

    def test_mean_packet_sizes(self):
        table = small_table(3)
        assert table.mean_packet_sizes().tolist() == [100.0, 100.0, 100.0]
