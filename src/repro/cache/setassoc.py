"""Set-associative cache with yield-aware way configuration.

:class:`SetAssociativeCache` is a functional (hit/miss + latency) model.
Its :class:`WayConfig` captures everything the yield-aware schemes decide:

* per-way access latency in cycles (VACA ways may answer in 5),
* disabled vertical ways (YAPD),
* a disabled horizontal way (H-YAPD): with ``num_bands`` bands, the sets
  are partitioned into ``num_bands`` contiguous *address groups*, and
  group ``g`` of way ``w`` physically resides in band ``(g + w) mod B``
  (the paper's Figure 5 rotation). Disabling band ``b`` therefore removes
  exactly one — and a different — way from each group, so every address
  keeps ``ways - 1`` candidates and the hit/miss behaviour matches a
  ``ways - 1``-way cache, as the paper argues.

The model is write-allocate, write-back; dirty state is tracked so miss
traffic can be inspected, but writebacks are not separately timed (the
pipeline models stores as non-blocking through a store buffer).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import LRUPolicy, ReplacementPolicy
from repro.core.errors import ConfigurationError
from repro.yieldmodel.constraints import BASE_ACCESS_CYCLES

__all__ = ["WayConfig", "AccessResult", "SetAssociativeCache"]


@dataclass(frozen=True)
class WayConfig:
    """Yield-aware way configuration of one cache.

    Attributes
    ----------
    latencies:
        Access cycles per way; ``None`` marks a way disabled by YAPD.
        Length must equal the cache's associativity.
    disabled_band:
        H-YAPD: the powered-down horizontal band index, or ``None``.
    num_bands:
        Number of horizontal bands (only meaningful with H-YAPD).
    """

    latencies: Tuple[Optional[int], ...]
    disabled_band: Optional[int] = None
    num_bands: int = 4

    def __post_init__(self) -> None:
        if not self.latencies:
            raise ConfigurationError("latencies must not be empty")
        enabled = [lat for lat in self.latencies if lat is not None]
        if not enabled:
            raise ConfigurationError("at least one way must stay enabled")
        for lat in enabled:
            if lat < 1:
                raise ConfigurationError(f"way latency must be >= 1, got {lat}")
        if self.disabled_band is not None:
            if any(lat is None for lat in self.latencies):
                raise ConfigurationError(
                    "cannot combine YAPD way-disable with H-YAPD band-disable"
                )
            if not 0 <= self.disabled_band < self.num_bands:
                raise ConfigurationError(
                    f"disabled_band {self.disabled_band} out of range"
                )

    @classmethod
    def uniform(cls, ways: int, latency: int = BASE_ACCESS_CYCLES) -> "WayConfig":
        """All ways enabled at the same latency (the healthy-chip config)."""
        return cls(latencies=tuple(latency for _ in range(ways)))

    @classmethod
    def from_cycles(
        cls,
        way_cycles: Tuple[Optional[int], ...],
        disabled_band: Optional[int] = None,
        num_bands: int = 4,
    ) -> "WayConfig":
        """Build from a scheme's :class:`RescueOutcome.way_cycles`."""
        return cls(
            latencies=way_cycles,
            disabled_band=disabled_band,
            num_bands=num_bands,
        )

    @property
    def num_ways(self) -> int:
        return len(self.latencies)

    def way_enabled_for_group(self, way: int, group: int) -> bool:
        """Is ``way`` usable for H-YAPD address group ``group``?"""
        if self.latencies[way] is None:
            return False
        if self.disabled_band is None:
            return True
        band = (group + way) % self.num_bands
        return band != self.disabled_band


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache lookup."""

    hit: bool
    way: Optional[int]
    latency: Optional[int]
    set_index: int
    evicted_block: Optional[int] = None
    evicted_dirty: bool = False


class SetAssociativeCache:
    """Functional set-associative cache with yield-aware configuration.

    The primitive is block-addressed and allocation-free:
    :meth:`probe` answers a hit way or ``-1`` and :meth:`install` fills a
    block, returning plain ints. Lines live in per-set lists (a tag per
    way, ``-1`` when empty, plus a dirty flag per way); a way outside a
    set's eligible ways is never filled, so its tag stays ``-1``.
    :meth:`lookup`/:meth:`access`/:meth:`fill` are byte-address
    wrappers that report an :class:`AccessResult`.

    Parameters
    ----------
    geometry:
        Sets/ways/blocks arithmetic.
    config:
        Way latencies and disables; defaults to all ways at the base
        latency.
    policy_factory:
        Creates one :class:`ReplacementPolicy` per set (default LRU).
    name:
        Label used in statistics.
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        config: Optional[WayConfig] = None,
        policy_factory: Callable[[], ReplacementPolicy] = LRUPolicy,
        name: str = "cache",
    ) -> None:
        self.geometry = geometry
        self.config = (
            config
            if config is not None
            else WayConfig.uniform(geometry.associativity)
        )
        ways = geometry.associativity
        if self.config.num_ways != ways:
            raise ConfigurationError(
                f"config has {self.config.num_ways} ways, geometry has "
                f"{ways}"
            )
        num_sets = geometry.num_sets
        self.name = name
        self.offset_bits = geometry.block_bytes.bit_length() - 1
        self._set_bits = num_sets.bit_length() - 1
        self._set_mask = num_sets - 1
        self._tags: List[List[int]] = [[-1] * ways for _ in range(num_sets)]
        self._dirty: List[List[bool]] = [
            [False] * ways for _ in range(num_sets)
        ]
        self._policies: List[ReplacementPolicy] = [
            policy_factory() for _ in range(num_sets)
        ]
        # The way configuration is frozen, so eligibility is computed
        # once per H-YAPD address group (a contiguous run of sets; the
        # last group takes the remainder) instead of per access. A band
        # disable on a cache with fewer ways than bands can leave a group
        # with *zero* usable ways — reject that here with a clear error
        # instead of letting a replacement policy fail mid-simulation.
        num_bands = self.config.num_bands
        sets_per_group = max(num_sets // num_bands, 1)
        self._eligible: List[Tuple[int, ...]] = []
        for group in range(min(num_bands, num_sets)):
            eligible = tuple(
                w for w in range(ways)
                if self.config.way_enabled_for_group(w, group)
            )
            if not eligible:
                raise ConfigurationError(
                    f"{name}: H-YAPD band disable leaves address group "
                    f"{group} with zero usable ways "
                    f"({ways} ways, {num_bands} bands, band "
                    f"{self.config.disabled_band} disabled)"
                )
            start = group * sets_per_group
            end = (
                num_sets if group == num_bands - 1
                else min(start + sets_per_group, num_sets)
            )
            self._eligible.extend([eligible] * (end - start))
        # statistics
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.way_hits = [0] * ways

    # ------------------------------------------------------------------
    def eligible_ways(self, set_index: int) -> List[int]:
        """Ways usable for this set under the current configuration."""
        return list(self._eligible[set_index])

    def effective_associativity(self, set_index: int) -> int:
        """Number of usable ways for this set."""
        return len(self._eligible[set_index])

    # ------------------------------------------------------------------
    def probe(self, block: int, write: bool = False) -> int:
        """Access block address ``block``: the hit way, or ``-1``.

        A hit counts in the statistics, updates the replacement state and
        marks the line dirty on a write. A miss is counted and does *not*
        allocate — call :meth:`install` when the refill arrives, which is
        how the hierarchy models non-blocking misses.
        """
        set_index = block & self._set_mask
        tags = self._tags[set_index]
        tag = block >> self._set_bits
        if tag in tags:
            way = tags.index(tag)
            self.hits += 1
            self.way_hits[way] += 1
            self._policies[set_index].touch(way)
            if write:
                self._dirty[set_index][way] = True
            return way
        self.misses += 1
        return -1

    def install(self, block: int, dirty: bool = False) -> Tuple[int, int, bool]:
        """Fill block address ``block``, evicting if necessary.

        Returns ``(way, evicted_block, evicted_dirty)``; ``evicted_block``
        is ``-1`` when nothing was evicted — a cold fill, or a block that
        another outstanding miss already refilled (then it is only
        touched, and dirtied if ``dirty``). Not counted as an access.
        """
        set_index = block & self._set_mask
        tags = self._tags[set_index]
        dirty_bits = self._dirty[set_index]
        policy = self._policies[set_index]
        tag = block >> self._set_bits
        if tag in tags:
            way = tags.index(tag)
            policy.touch(way)
            if dirty:
                dirty_bits[way] = True
            return way, -1, False
        eligible = self._eligible[set_index]
        # A set with no -1 tag at all is full: skip the scan.
        empty = [w for w in eligible if tags[w] < 0] if -1 in tags else None
        if empty:
            # Spread cold fills across the empty ways (hash by block
            # address): always picking the lowest index would park the
            # long-lived hot blocks in the low ways and starve the high
            # ways of hits, which would bias every per-way-latency
            # experiment.
            way = empty[block % len(empty)]
            evicted_block = -1
            evicted_dirty = False
        else:
            way = policy.victim(eligible)
            evicted_block = (tags[way] << self._set_bits) | set_index
            evicted_dirty = dirty_bits[way]
            self.evictions += 1
        tags[way] = tag
        dirty_bits[way] = dirty
        policy.touch(way)
        return way, evicted_block, evicted_dirty

    # ------------------------------------------------------------------
    def lookup(self, address: int) -> AccessResult:
        """Probe ``address`` without modifying any state (no LRU update)."""
        block = address >> self.offset_bits
        set_index = block & self._set_mask
        tags = self._tags[set_index]
        tag = block >> self._set_bits
        if tag not in tags:
            return AccessResult(False, None, None, set_index)
        way = tags.index(tag)
        return AccessResult(True, way, self.config.latencies[way], set_index)

    def access(self, address: int, write: bool = False) -> AccessResult:
        """:meth:`probe` by byte address."""
        result = self.lookup(address)
        self.probe(address >> self.offset_bits, write)
        return result

    def fill(self, address: int, dirty: bool = False) -> AccessResult:
        """:meth:`install` by byte address."""
        resident = self.lookup(address)
        way, evicted_block, evicted_dirty = self.install(
            address >> self.offset_bits, dirty
        )
        return AccessResult(
            hit=resident.hit,
            way=way,
            latency=self.config.latencies[way],
            set_index=resident.set_index,
            evicted_block=None if evicted_block < 0 else evicted_block,
            evicted_dirty=evicted_dirty,
        )

    # ------------------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss ratio over all accesses so far (0 when never accessed)."""
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_statistics(self) -> None:
        """Zero the counters without touching cache contents."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.way_hits = [0] * self.geometry.associativity
