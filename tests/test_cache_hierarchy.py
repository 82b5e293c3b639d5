"""Tests for the L1I/L1D/L2/memory hierarchy."""

import pytest

from repro.cache import HierarchyConfig, MemoryHierarchy, PAPER_HIERARCHY, WayConfig
from repro.core import units


def data_access(hierarchy, address, write=False):
    """One load/store as the pipeline performs it: ``(latency, l1_hit)``."""
    l1d = hierarchy.l1d
    way = l1d.probe(address >> l1d.offset_bits, write)
    if way >= 0:
        return hierarchy.l1d_hit_latencies[way], True
    return hierarchy.data_miss(address, write), False


class TestPaperParameters:
    def test_l1d(self):
        cfg = PAPER_HIERARCHY
        assert cfg.l1d_geometry.capacity_bytes == 16 * units.KB
        assert cfg.l1d_geometry.associativity == 4
        assert cfg.l1d_geometry.block_bytes == 32
        assert cfg.l1d_latency == 4

    def test_l1i(self):
        cfg = PAPER_HIERARCHY
        assert cfg.l1i_geometry.capacity_bytes == 16 * units.KB
        assert cfg.l1i_geometry.block_bytes == 64
        assert cfg.l1i_latency == 2

    def test_l2(self):
        cfg = PAPER_HIERARCHY
        assert cfg.l2_geometry.capacity_bytes == 512 * units.KB
        assert cfg.l2_geometry.associativity == 8
        assert cfg.l2_geometry.block_bytes == 128
        assert cfg.l2_latency == 25

    def test_memory(self):
        assert PAPER_HIERARCHY.memory_latency == 350


class TestDataPath:
    def test_cold_access_goes_to_memory(self):
        hierarchy = MemoryHierarchy()
        latency, l1_hit = data_access(hierarchy, 0x1000)
        assert not l1_hit
        assert hierarchy.memory_accesses == 1
        assert latency == 4 + 25 + 350

    def test_second_access_hits_l1(self):
        hierarchy = MemoryHierarchy()
        data_access(hierarchy, 0x1000)
        latency, l1_hit = data_access(hierarchy, 0x1000)
        assert l1_hit
        assert latency == 4

    def test_l2_hit_after_l1_eviction(self):
        hierarchy = MemoryHierarchy()
        data_access(hierarchy, 0x1000)
        # Evict 0x1000 from L1 by filling its set with 4 more blocks;
        # the L2 (128B blocks, 512 sets) keeps it.
        stride = 128 * 32  # L1 set stride
        for i in range(1, 6):
            data_access(hierarchy, 0x1000 + i * stride)
        before = hierarchy.memory_accesses
        latency, l1_hit = data_access(hierarchy, 0x1000)
        assert not l1_hit
        assert hierarchy.memory_accesses == before  # served by the L2
        assert latency == 4 + 25

    def test_same_l2_block_misses_merge(self):
        """Two L1 blocks in one L2 block: second goes to L2, not memory."""
        hierarchy = MemoryHierarchy()
        data_access(hierarchy, 0x2000)
        before = hierarchy.memory_accesses
        latency, l1_hit = data_access(hierarchy, 0x2000 + 64)  # same 128B L2 block
        assert not l1_hit
        assert latency == 4 + 25
        assert hierarchy.memory_accesses == before

    def test_slow_way_latency_surfaces(self):
        config = WayConfig(latencies=(5, 5, 5, 5))
        hierarchy = MemoryHierarchy(l1d_config=config)
        data_access(hierarchy, 0x3000)
        latency, l1_hit = data_access(hierarchy, 0x3000)
        assert l1_hit
        assert latency == 5

    def test_uniform_binning_overrides_way_latency(self):
        config = WayConfig(latencies=(4, 4, 4, 4))
        hierarchy = MemoryHierarchy(
            l1d_config=config, uniform_load_latency=6
        )
        assert data_access(hierarchy, 0x3000)[0] == 6 + 25 + 350
        assert data_access(hierarchy, 0x3000) == (6, True)

    def test_write_allocates_and_dirties(self):
        hierarchy = MemoryHierarchy()
        data_access(hierarchy, 0x4000, write=True)
        latency, l1_hit = data_access(hierarchy, 0x4000)
        assert l1_hit
        l1d = hierarchy.l1d
        block = 0x4000 >> l1d.offset_bits
        way = l1d._tags[block & 127].index(block >> 7)
        assert l1d._dirty[block & 127][way]

    def test_statistics_keys(self):
        hierarchy = MemoryHierarchy()
        data_access(hierarchy, 0x1000)
        stats = hierarchy.statistics()
        for key in (
            "l1d_accesses",
            "l1d_miss_rate",
            "l2_accesses",
            "memory_accesses",
            "l1i_miss_rate",
        ):
            assert key in stats
        assert stats["l1d_accesses"] == 1
        assert stats["l1d_misses"] == 1
        assert stats["l2_accesses"] == 1

    def test_dirty_victim_written_back_to_l2(self):
        hierarchy = MemoryHierarchy()
        stride = 128 * 32  # L1 set stride
        data_access(hierarchy, 0x1000, write=True)
        l2_hits = hierarchy.l2.hits
        for i in range(1, 5):  # the fifth block evicts the dirty one
            data_access(hierarchy, 0x1000 + i * stride)
        # The writeback probes the L2, where 0x1000's block is resident.
        assert hierarchy.l1d.evictions == 1
        assert hierarchy.l2.hits == l2_hits + 1


class TestInstructionPath:
    def test_cold_fetch_cost(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.instruction_fetch(0x40_0000) == 2 + 25 + 350

    def test_warm_fetch(self):
        hierarchy = MemoryHierarchy()
        hierarchy.instruction_fetch(0x40_0000)
        assert hierarchy.instruction_fetch(0x40_0000) == 2

    def test_same_block_fetch_hits(self):
        hierarchy = MemoryHierarchy()
        hierarchy.instruction_fetch(0x40_0000)
        assert hierarchy.instruction_fetch(0x40_0000 + 32) == 2

    def test_instruction_and_data_share_l2(self):
        hierarchy = MemoryHierarchy()
        data_access(hierarchy, 0x40_0000)
        before = hierarchy.memory_accesses
        # Same 128-byte region: the instruction fetch finds it in L2.
        assert hierarchy.instruction_fetch(0x40_0000) == 2 + 25
        assert hierarchy.memory_accesses == before
