"""Memory hierarchy (paper Section 5.2 parameters).

The simulated processor's hierarchy:

* L1 instruction cache: 16 KB, 4-way, 64 B blocks, 2-cycle latency;
* L1 data cache: 16 KB, 4-way, 32 B blocks, 4-cycle latency — the cache
  the yield-aware schemes reconfigure;
* unified L2: 512 KB, 8-way, 128 B blocks, 25-cycle latency;
* memory: 350 cycles.

All caches are lockup-free: the hierarchy does not serialise misses; it
returns each access's total latency and lets the pipeline overlap them
(ports are modelled by the pipeline, MSHR-style merging by block address
is modelled here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache, WayConfig
from repro.core import units
from repro.core.validation import require_positive
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["HierarchyConfig", "MemoryHierarchy", "PAPER_HIERARCHY"]


@dataclass(frozen=True)
class HierarchyConfig:
    """Parameters of the simulated memory hierarchy."""

    l1i_geometry: CacheGeometry = CacheGeometry(16 * units.KB, 4, 64)
    l1i_latency: int = 2
    l1d_geometry: CacheGeometry = CacheGeometry(16 * units.KB, 4, 32)
    l1d_latency: int = BASE_ACCESS_CYCLES
    l2_geometry: CacheGeometry = CacheGeometry(512 * units.KB, 8, 128)
    l2_latency: int = 25
    memory_latency: int = 350
    mshr_entries: int = 16

    def __post_init__(self) -> None:
        require_positive(self.l1i_latency, "l1i_latency")
        require_positive(self.l1d_latency, "l1d_latency")
        require_positive(self.l2_latency, "l2_latency")
        require_positive(self.memory_latency, "memory_latency")
        require_positive(self.mshr_entries, "mshr_entries")


PAPER_HIERARCHY = HierarchyConfig()


class MemoryHierarchy:
    """L1I + L1D + L2 + memory with yield-aware L1D configuration.

    Every level is driven through :meth:`SetAssociativeCache.probe` and
    :meth:`~SetAssociativeCache.install`, so no access allocates: the
    pipeline probes the L1D itself (it needs the hit way to spot a slow
    way), looks the hit latency up in :attr:`l1d_hit_latencies` and
    hands misses to :meth:`data_miss`.

    Parameters
    ----------
    config:
        Hierarchy parameters.
    l1d_config:
        Yield-aware way configuration of the L1 data cache (latencies,
        disables). Defaults to the healthy all-4-cycle configuration.
    uniform_load_latency:
        When set (naive binning, Section 4.5), every L1 hit is served at
        this latency regardless of the way's own latency.
    """

    def __init__(
        self,
        config: HierarchyConfig = PAPER_HIERARCHY,
        l1d_config: Optional[WayConfig] = None,
        uniform_load_latency: Optional[int] = None,
    ) -> None:
        self.config = config
        self.l1i = SetAssociativeCache(config.l1i_geometry, name="L1I")
        self.l1d = SetAssociativeCache(
            config.l1d_geometry, config=l1d_config, name="L1D"
        )
        self.l2 = SetAssociativeCache(config.l2_geometry, name="L2")
        self.uniform_load_latency = uniform_load_latency
        #: Load-to-use cycles of an L1D hit per way (``None``: disabled).
        self.l1d_hit_latencies: Tuple[Optional[int], ...] = tuple(
            None if latency is None
            else latency if uniform_load_latency is None
            else uniform_load_latency
            for latency in self.l1d.config.latencies
        )
        self.l2_accesses = 0
        self.memory_accesses = 0

    # ------------------------------------------------------------------
    def _beyond_l1(self, address: int) -> int:
        """Serve an L1 miss from the L2 (filling it from memory on a
        miss); returns the cycles spent beyond the L1."""
        l2 = self.l2
        block = address >> l2.offset_bits
        self.l2_accesses += 1
        if l2.probe(block) >= 0:
            return self.config.l2_latency
        l2.install(block)
        self.memory_accesses += 1
        return self.config.l2_latency + self.config.memory_latency

    def data_miss(self, address: int, write: bool = False) -> int:
        """Refill the L1D after a missed :meth:`SetAssociativeCache.probe`.

        Allocates in the L2 and the L1D, writes a dirty L1D victim back
        into the L2 (state only; the writeback bandwidth is not
        separately timed) and returns the total load-to-use cycles.
        """
        beyond = self._beyond_l1(address)
        l1d = self.l1d
        way, evicted, evicted_dirty = l1d.install(
            address >> l1d.offset_bits, write
        )
        if evicted_dirty:
            self.l2.probe(
                (evicted << l1d.offset_bits) >> self.l2.offset_bits, True
            )
        return self.l1d_hit_latencies[way] + beyond

    def instruction_fetch(self, address: int) -> int:
        """Fetch latency (cycles) for the instruction block of ``address``."""
        l1i = self.l1i
        block = address >> l1i.offset_bits
        if l1i.probe(block) >= 0:
            return self.config.l1i_latency
        beyond = self._beyond_l1(address)
        l1i.install(block)
        return self.config.l1i_latency + beyond

    # ------------------------------------------------------------------
    def statistics(self) -> Dict[str, float]:
        """Flat counter snapshot for reports and tests."""
        return {
            "l1i_accesses": self.l1i.accesses,
            "l1i_miss_rate": self.l1i.miss_rate,
            "l1d_accesses": self.l1d.accesses,
            "l1d_misses": self.l1d.misses,
            "l1d_miss_rate": self.l1d.miss_rate,
            "l2_accesses": self.l2_accesses,
            "l2_miss_rate": self.l2.miss_rate,
            "memory_accesses": self.memory_accesses,
        }
