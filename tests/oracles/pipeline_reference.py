"""Reference timing model: the stage-method pipeline over dataclass caches.

This is the simulator as it stood before the production engine became
one loop over compiled trace columns with int-returning cache probes.
It is kept, unoptimised, purely as a differential oracle:

* :class:`ReferenceCache` — per-address ``lookup``/``access``/``fill``
  returning :class:`AccessResult`, lines held as ``_Line`` objects in
  per-set dicts. The cache battery checks
  :meth:`repro.cache.setassoc.SetAssociativeCache.probe`/``install``
  against it.
* :class:`ReferenceHierarchy` — ``data_access`` returning
  :class:`MemoryAccess`, ``instruction_fetch`` returning cycles.
* :class:`ReferencePipelineEngine` — one method per stage, called in
  reverse order each cycle, fetching :class:`TraceInstruction` objects
  one at a time.
* :func:`reference_simulate` — the :class:`~repro.uarch.SimResult` the
  production :class:`~repro.uarch.Simulator` must reproduce exactly.

Nothing here is imported by ``src/``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import HierarchyConfig, PAPER_HIERARCHY
from repro.cache.replacement import LRUPolicy, ReplacementPolicy
from repro.cache.setassoc import WayConfig
from repro.core.errors import ConfigurationError, SimulationError
from repro.uarch.config import CoreConfig, PAPER_CORE
from repro.uarch.isa import FU_KIND, FU_LATENCIES, OpClass
from repro.uarch.lbb import LoadBypassBuffers
from repro.uarch.simulator import SimResult
from repro.uarch.trace import NUM_REGISTERS, TraceInstruction

__all__ = [
    "AccessResult",
    "MemoryAccess",
    "ReferenceCache",
    "ReferenceHierarchy",
    "ReferencePipelineEngine",
    "reference_simulate",
]


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache lookup."""

    hit: bool
    way: Optional[int]
    latency: Optional[int]
    set_index: int
    evicted_block: Optional[int] = None
    evicted_dirty: bool = False


class _Line:
    __slots__ = ("tag", "dirty")

    def __init__(self, tag: int, dirty: bool = False) -> None:
        self.tag = tag
        self.dirty = dirty


class ReferenceCache:
    """Per-address functional cache (same constructor as the production one)."""

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
        self._lines: List[Dict[int, Optional[_Line]]] = [
            {w: None for w in range(geometry.associativity)}
            for _ in range(geometry.num_sets)
        ]
        self._policies: List[ReplacementPolicy] = [
            policy_factory() for _ in range(geometry.num_sets)
        ]
        self._eligible: List[Tuple[int, ...]] = []
        for set_index in range(geometry.num_sets):
            group = geometry.address_group(set_index, self.config.num_bands)
            eligible = tuple(
                w
                for w in range(geometry.associativity)
                if self.config.way_enabled_for_group(w, group)
            )
            if not eligible:
                raise ConfigurationError(
                    f"{name}: address group {group} has zero usable ways"
                )
            self._eligible.append(eligible)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.way_hits = [0] * geometry.associativity

    def lookup(self, address: int) -> AccessResult:
        set_index = self.geometry.set_index(address)
        tag = self.geometry.tag(address)
        for way in self._eligible[set_index]:
            line = self._lines[set_index][way]
            if line is not None and line.tag == tag:
                return AccessResult(
                    hit=True,
                    way=way,
                    latency=self.config.latencies[way],
                    set_index=set_index,
                )
        return AccessResult(hit=False, way=None, latency=None, set_index=set_index)

    def access(self, address: int, write: bool = False) -> AccessResult:
        result = self.lookup(address)
        set_index = result.set_index
        if result.hit:
            self.hits += 1
            self.way_hits[result.way] += 1
            self._policies[set_index].touch(result.way)
            if write:
                self._lines[set_index][result.way].dirty = True
        else:
            self.misses += 1
        return result

    def fill(self, address: int, dirty: bool = False) -> AccessResult:
        probe = self.lookup(address)
        if probe.hit:
            self._policies[probe.set_index].touch(probe.way)
            if dirty:
                self._lines[probe.set_index][probe.way].dirty = True
            return probe
        set_index = probe.set_index
        tag = self.geometry.tag(address)
        eligible = self._eligible[set_index]
        empty = [w for w in eligible if self._lines[set_index][w] is None]
        evicted_block: Optional[int] = None
        evicted_dirty = False
        if empty:
            way = empty[self.geometry.block_address(address) % len(empty)]
        else:
            way = self._policies[set_index].victim(eligible)
            victim = self._lines[set_index][way]
            set_bits = self.geometry.num_sets.bit_length() - 1
            evicted_block = (victim.tag << set_bits) | set_index
            evicted_dirty = victim.dirty
            self.evictions += 1
        self._lines[set_index][way] = _Line(tag=tag, dirty=dirty)
        self._policies[set_index].touch(way)
        return AccessResult(
            hit=False,
            way=way,
            latency=self.config.latencies[way],
            set_index=set_index,
            evicted_block=evicted_block,
            evicted_dirty=evicted_dirty,
        )

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.way_hits = [0] * self.geometry.associativity

    def state(self) -> tuple:
        """Counters plus every resident ``(set, way, tag, dirty)`` line."""
        lines = []
        for set_index in range(self.geometry.num_sets):
            for way in range(self.geometry.associativity):
                line = self._lines[set_index][way]
                if line is not None:
                    lines.append((set_index, way, line.tag, line.dirty))
        return (
            self.hits,
            self.misses,
            self.evictions,
            tuple(self.way_hits),
            tuple(lines),
        )


# ----------------------------------------------------------------------
# hierarchy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MemoryAccess:
    """Timing outcome of one data access."""

    latency: int
    l1_hit: bool
    l2_hit: bool
    way: Optional[int]


class ReferenceHierarchy:
    """L1I + L1D + L2 + memory over :class:`ReferenceCache`."""

    def __init__(
        self,
        config: HierarchyConfig = PAPER_HIERARCHY,
        l1d_config: Optional[WayConfig] = None,
        uniform_load_latency: Optional[int] = None,
    ) -> None:
        self.config = config
        self.l1i = ReferenceCache(config.l1i_geometry, name="L1I")
        self.l1d = ReferenceCache(
            config.l1d_geometry, config=l1d_config, name="L1D"
        )
        self.l2 = ReferenceCache(config.l2_geometry, name="L2")
        self.uniform_load_latency = uniform_load_latency
        self.l2_accesses = 0
        self.memory_accesses = 0

    def _l1_hit_latency(self, way_latency: int) -> int:
        if self.uniform_load_latency is not None:
            return self.uniform_load_latency
        return way_latency

    def data_access(self, address: int, write: bool = False) -> MemoryAccess:
        result = self.l1d.access(address, write=write)
        if result.hit:
            return MemoryAccess(
                latency=self._l1_hit_latency(result.latency),
                l1_hit=True,
                l2_hit=False,
                way=result.way,
            )
        l2_result = self.l2.access(address, write=False)
        self.l2_accesses += 1
        if l2_result.hit:
            beyond = self.config.l2_latency
            l2_hit = True
        else:
            self.l2.fill(address)
            self.memory_accesses += 1
            beyond = self.config.l2_latency + self.config.memory_latency
            l2_hit = False
        fill = self.l1d.fill(address, dirty=write)
        if fill.evicted_dirty and fill.evicted_block is not None:
            offset_bits = self.l1d.geometry.block_bytes.bit_length() - 1
            self.l2.access(fill.evicted_block << offset_bits, write=True)
        base = self.l1d.config.latencies[fill.way] if fill.way is not None else None
        l1_portion = self._l1_hit_latency(
            base if base is not None else self.config.l1d_latency
        )
        return MemoryAccess(
            latency=l1_portion + beyond,
            l1_hit=False,
            l2_hit=l2_hit,
            way=fill.way,
        )

    def instruction_fetch(self, address: int) -> int:
        result = self.l1i.access(address, write=False)
        if result.hit:
            return self.config.l1i_latency
        l2_result = self.l2.access(address, write=False)
        self.l2_accesses += 1
        if l2_result.hit:
            beyond = self.config.l2_latency
        else:
            self.l2.fill(address)
            self.memory_accesses += 1
            beyond = self.config.l2_latency + self.config.memory_latency
        self.l1i.fill(address)
        return self.config.l1i_latency + beyond

    def statistics(self) -> Dict[str, float]:
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


# ----------------------------------------------------------------------
# pipeline
# ----------------------------------------------------------------------
_DEADLOCK_LIMIT = 200_000


class _Inst:
    __slots__ = (
        "seq", "op", "dest", "srcs", "address", "pc", "mispredicted",
        "fetch_cycle", "producers", "waiters", "remaining", "ready_time",
        "issued", "done", "wake_time", "completed",
    )

    def __init__(self, seq: int, raw: TraceInstruction) -> None:
        self.seq = seq
        self.op = raw.op
        self.dest = raw.dest
        self.srcs = raw.srcs
        self.address = raw.address
        self.pc = raw.pc
        self.mispredicted = raw.mispredicted
        self.fetch_cycle = 0
        self.producers: List["_Inst"] = []
        self.waiters: List["_Inst"] = []
        self.remaining = 0
        self.ready_time = 0
        self.issued = False
        self.done = -1
        self.wake_time = -1
        self.completed = False


class ReferencePipelineEngine:
    """Stage-method out-of-order engine (see ``repro.uarch.pipeline``)."""

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: ReferenceHierarchy,
        trace: Iterable[TraceInstruction],
        warmup_instructions: int = 0,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self._trace = iter(trace)
        self.lbb = LoadBypassBuffers(slack=config.lbb_slack)
        self.warmup_instructions = warmup_instructions
        self.warmup_cycle = 0
        self._warm = warmup_instructions == 0

        self.cycle = 0
        self._fetch_seq = 0
        self._trace_exhausted = False
        self._fetch_blocked_on: Optional[_Inst] = None
        self._fetch_stall_until = 0
        self._last_fetch_block: Optional[int] = None

        self._frontend: Deque[_Inst] = deque()
        self._rob: Deque[_Inst] = deque()
        self._iq_used = 0
        self._last_writer: List[Optional[_Inst]] = [None] * NUM_REGISTERS

        self._ready: List = []
        self._events: List = []
        self._fu_reserved: Dict[int, Dict[str, int]] = {}
        self._last_commit_cycle = 0

        self.committed = 0
        self.issued = 0
        self.replay_count = 0
        self.branch_mispredicts = 0
        self.load_count = 0
        self.store_count = 0
        self.slow_way_hits = 0

    def _push_ready(self, inst: _Inst, time: int) -> None:
        inst.ready_time = max(inst.ready_time, time)
        heapq.heappush(self._ready, (inst.ready_time, inst.seq, inst))

    def _wake_consumers(self, inst: _Inst, wake_time: int) -> None:
        inst.wake_time = wake_time
        for consumer in inst.waiters:
            if consumer.issued:
                continue
            consumer.remaining -= 1
            consumer.ready_time = max(consumer.ready_time, wake_time)
            if consumer.remaining <= 0:
                self._push_ready(consumer, consumer.ready_time)
        inst.waiters = []

    def _end_warmup(self) -> None:
        self._warm = True
        self.warmup_cycle = self.cycle
        self.replay_count = 0
        self.branch_mispredicts = 0
        self.load_count = 0
        self.store_count = 0
        self.slow_way_hits = 0
        self.issued = 0
        self.lbb.total_stalls = 0
        self.lbb.overflows = 0
        self.hierarchy.l1d.reset_statistics()
        self.hierarchy.l1i.reset_statistics()
        self.hierarchy.l2.reset_statistics()
        self.hierarchy.l2_accesses = 0
        self.hierarchy.memory_accesses = 0

    def _revise_load_wakeup(self, load: _Inst) -> None:
        load.wake_time = max(
            load.done - self.config.sched_to_exec_stages, self.cycle + 1
        )

    def _do_commit(self) -> None:
        count = 0
        while (
            self._rob
            and count < self.config.commit_width
            and self._rob[0].completed
            and self._rob[0].done <= self.cycle
        ):
            self._rob.popleft()
            self.committed += 1
            self._last_commit_cycle = self.cycle
            count += 1
            if not self._warm and self.committed >= self.warmup_instructions:
                self._end_warmup()

    def _process_events(self) -> None:
        while self._events and self._events[0][0] <= self.cycle:
            _, kind, _, inst = heapq.heappop(self._events)
            if kind == 0:
                inst.completed = True
            else:
                self._revise_load_wakeup(inst)

    def _issue_load(self, inst: _Inst, exec_start: int) -> int:
        access = self.hierarchy.data_access(inst.address, write=False)
        self.load_count += 1
        done = exec_start + access.latency
        predicted = self.config.predicted_load_latency
        if access.l1_hit and access.latency > predicted:
            self.slow_way_hits += 1
            reserved = self._fu_reserved.setdefault(self.cycle + 1, {})
            reserved["mem"] = reserved.get("mem", 0) + 1
        if access.latency > predicted + self.config.lbb_slack:
            heapq.heappush(self._events, (exec_start, 1, inst.seq, inst))
        return done

    def _do_issue(self) -> None:
        cycle = self.cycle
        config = self.config
        fu_used: Dict[str, int] = self._fu_reserved.pop(cycle, {})
        issued = 0
        deferred: List[_Inst] = []
        while self._ready and issued < config.issue_width:
            time, _, inst = self._ready[0]
            if time > cycle:
                break
            heapq.heappop(self._ready)
            if inst.issued or time < inst.ready_time:
                continue
            revised = max((p.wake_time for p in inst.producers), default=0)
            if revised > cycle:
                self._push_ready(inst, revised)
                continue
            kind = FU_KIND[inst.op]
            if fu_used.get(kind, 0) >= config.fu_pools[kind]:
                deferred.append(inst)
                continue

            exec_start = cycle + config.sched_to_exec_stages
            data_ready = 0
            for producer in inst.producers:
                if not producer.issued:
                    raise SimulationError(
                        "consumer scheduled before its producer issued"
                    )
                data_ready = max(data_ready, producer.done)
            shortfall = data_ready - exec_start

            fu_used[kind] = fu_used.get(kind, 0) + 1
            issued += 1
            self.issued += 1

            if shortfall > 0:
                if shortfall > config.lbb_slack or not self.lbb.try_hold(
                    exec_start, shortfall
                ):
                    self.replay_count += 1
                    retry = max(
                        data_ready - config.sched_to_exec_stages, cycle + 1
                    )
                    self._push_ready(inst, retry)
                    continue
                exec_start += shortfall
                reserved = self._fu_reserved.setdefault(cycle + 1, {})
                reserved[kind] = reserved.get(kind, 0) + 1

            inst.issued = True
            self._iq_used -= 1
            slip = exec_start - (cycle + config.sched_to_exec_stages)
            if inst.op is OpClass.LOAD:
                inst.done = self._issue_load(inst, exec_start)
                wake = cycle + config.predicted_load_latency + slip
            elif inst.op is OpClass.STORE:
                self.hierarchy.data_access(inst.address, write=True)
                self.store_count += 1
                inst.done = exec_start + FU_LATENCIES[inst.op]
                wake = inst.done
            else:
                inst.done = exec_start + FU_LATENCIES[inst.op]
                wake = inst.done - config.sched_to_exec_stages
            heapq.heappush(self._events, (inst.done, 0, inst.seq, inst))
            self._wake_consumers(inst, wake)
            if inst.mispredicted:
                self.branch_mispredicts += 1
                self._fetch_stall_until = max(
                    self._fetch_stall_until, inst.done + 1
                )
                if self._fetch_blocked_on is inst:
                    self._fetch_blocked_on = None
        for inst in deferred:
            self._push_ready(inst, cycle + 1)

    def _do_dispatch(self) -> None:
        count = 0
        while (
            self._frontend
            and count < self.config.fetch_width
            and len(self._rob) < self.config.rob_size
            and self._iq_used < self.config.iq_size
        ):
            inst = self._frontend[0]
            if inst.fetch_cycle + self.config.frontend_stages > self.cycle:
                break
            self._frontend.popleft()
            self._rob.append(inst)
            self._iq_used += 1
            count += 1

            inst.ready_time = self.cycle + 1
            for src in inst.srcs:
                producer = self._last_writer[src]
                if producer is None or producer.completed:
                    continue
                inst.producers.append(producer)
                if producer.issued:
                    inst.ready_time = max(inst.ready_time, producer.wake_time)
                else:
                    inst.remaining += 1
                    producer.waiters.append(inst)
            if inst.dest is not None:
                self._last_writer[inst.dest] = inst
            if inst.remaining == 0:
                self._push_ready(inst, inst.ready_time)

    def _do_fetch(self) -> None:
        if self._fetch_blocked_on is not None:
            return
        if self.cycle < self._fetch_stall_until:
            return
        if self._trace_exhausted:
            return
        if len(self._frontend) >= 3 * self.config.fetch_width:
            return
        fetched = 0
        while fetched < self.config.fetch_width:
            try:
                raw = next(self._trace)
            except StopIteration:
                self._trace_exhausted = True
                break
            inst = _Inst(self._fetch_seq, raw)
            self._fetch_seq += 1
            fetched += 1

            block = self.hierarchy.l1i.geometry.block_address(inst.pc)
            if block != self._last_fetch_block:
                self._last_fetch_block = block
                latency = self.hierarchy.instruction_fetch(inst.pc)
                extra = latency - self.hierarchy.config.l1i_latency
                if extra > 0:
                    self._fetch_stall_until = max(
                        self._fetch_stall_until, self.cycle + extra
                    )
            self._frontend.append(inst)
            inst.fetch_cycle = self.cycle
            if inst.mispredicted:
                self._fetch_blocked_on = inst
                break
            if self.cycle < self._fetch_stall_until:
                break

    def _next_event_time(self) -> Optional[int]:
        candidates: List[int] = []
        if self._events:
            candidates.append(self._events[0][0])
        if self._ready:
            candidates.append(self._ready[0][0])
        if self._frontend:
            candidates.append(
                self._frontend[0].fetch_cycle + self.config.frontend_stages
            )
        if (
            not self._trace_exhausted
            and self._fetch_blocked_on is None
            and len(self._frontend) < 3 * self.config.fetch_width
        ):
            candidates.append(max(self._fetch_stall_until, self.cycle + 1))
        future = [c for c in candidates if c > self.cycle]
        return min(future) if future else None

    def run(self) -> None:
        while True:
            self._process_events()
            self._do_commit()
            self._do_issue()
            self._do_dispatch()
            self._do_fetch()
            if self._trace_exhausted and not self._rob and not self._frontend:
                break
            if self.cycle - self._last_commit_cycle > _DEADLOCK_LIMIT:
                raise SimulationError(
                    f"no commit for {_DEADLOCK_LIMIT} cycles "
                    f"(cycle {self.cycle}, committed {self.committed})"
                )
            nxt = self._next_event_time()
            self.cycle = nxt if nxt is not None else self.cycle + 1
            if self.cycle % 50_000 == 0:
                self.lbb.release_before(self.cycle)


def reference_simulate(
    trace: Iterable[TraceInstruction],
    warmup: int = 0,
    core: CoreConfig = PAPER_CORE,
    hierarchy_config: HierarchyConfig = PAPER_HIERARCHY,
    l1d_config: Optional[WayConfig] = None,
    uniform_load_latency: Optional[int] = None,
) -> SimResult:
    """What :meth:`repro.uarch.Simulator.run` must return for these inputs."""
    hierarchy = ReferenceHierarchy(
        config=hierarchy_config,
        l1d_config=l1d_config,
        uniform_load_latency=uniform_load_latency,
    )
    engine = ReferencePipelineEngine(
        core, hierarchy, trace, warmup_instructions=warmup
    )
    engine.run()
    if engine.committed <= warmup:
        raise SimulationError("trace too short: nothing committed after warmup")
    return SimResult(
        instructions=engine.committed - warmup,
        cycles=engine.cycle - engine.warmup_cycle,
        replays=engine.replay_count,
        lbb_stalls=engine.lbb.total_stalls,
        slow_way_hits=engine.slow_way_hits,
        branch_mispredicts=engine.branch_mispredicts,
        loads=engine.load_count,
        stores=engine.store_count,
        hierarchy_stats=hierarchy.statistics(),
    )
