"""The out-of-order scheduling engine.

Timing model
------------

The engine is trace-driven and cycle-level. Every dynamic instruction
moves through: fetch -> (frontend_stages) -> dispatch (ROB + issue queue)
-> schedule -> (sched_to_exec_stages) -> execute -> complete -> commit.

The paper's two key mechanisms are modelled faithfully:

* **Speculative scheduling.** When a producer issues at cycle T with
  execute latency L, its dependents may issue from cycle T + L so they
  reach the execute stage exactly when the result forwards. Loads
  broadcast their *predicted* latency (the 4-cycle L1D hit), so a
  dependent may be in flight when the load turns out to be slow.

* **Load-bypass buffers and selective replay.** A dependent arriving at
  execute before its data stalls in a load-bypass buffer if the shortfall
  is within the buffer's slack (one cycle for the paper's single-entry
  buffers — the 5-cycle VACA way). A larger shortfall (an L1 miss) means
  the speculatively issued dependent is squashed and reissued when the
  data is actually available, having wasted its issue slot and functional
  unit — the paper's replay mechanism. Dependents that have not issued
  when the miss is discovered (the load's execute stage) are simply
  re-woken for the refill time.

Mispredicted branches stall fetch from the moment they are fetched until
they resolve at execute; the front-end depth then refills naturally.

Implementation
--------------

:meth:`PipelineEngine.run` is one loop over the columns of a
:class:`~repro.workloads.compiled.CompiledTrace` (any other trace is
lowered to one up front). Each simulated cycle runs the stages inline, in
reverse order — event processing, commit, issue, dispatch, fetch — and
then jumps to the next cycle at which anything can happen. Op codes and
functional-unit kinds are ints, the FU pools an int-indexed tuple, and
the caches are driven through their int-returning
``probe``/``install`` primitive, so the steady state allocates one
object per instruction. The stage-per-method form of the same model is
kept under ``tests/oracles/`` as the differential oracle.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, List, Optional

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.errors import SimulationError
from repro.uarch.config import CoreConfig
from repro.uarch.isa import FU_KIND, FU_KINDS, FU_LATENCIES, OpClass
from repro.uarch.lbb import LoadBypassBuffers
from repro.uarch.trace import NUM_REGISTERS, TraceInstruction

__all__ = ["PipelineEngine"]

#: Safety valve: cycles without any commit before declaring deadlock.
_DEADLOCK_LIMIT = 200_000

#: Later than any reachable cycle: "no next event" for the cycle jump.
_NEVER = 1 << 62

#: Per op code (the enum definition order, matching
#: ``repro.workloads.compiled.OP_CODES``): FU pool index and latency.
_FU_INDEX = tuple(FU_KINDS.index(FU_KIND[op]) for op in OpClass)
_LATENCY = tuple(FU_LATENCIES[op] for op in OpClass)
_LOAD = tuple(OpClass).index(OpClass.LOAD)
_STORE = tuple(OpClass).index(OpClass.STORE)
_MEM = FU_KINDS.index(FU_KIND[OpClass.LOAD])


class _Inst:
    """Mutable per-instruction pipeline state.

    ``dest`` is ``-1`` for no destination and ``address`` ``-1`` for
    non-memory ops, as in the compiled columns.
    """

    __slots__ = (
        "seq",
        "op",
        "dest",
        "srcs",
        "address",
        "mispredicted",
        "fetch_cycle",
        "producers",
        "waiters",
        "remaining",
        "ready_time",
        "issued",
        "done",
        "wake_time",
        "completed",
    )

    def __init__(
        self,
        seq: int,
        op: int,
        dest: int,
        srcs: tuple,
        address: int,
        mispredicted: int,
        fetch_cycle: int,
    ) -> None:
        self.seq = seq
        self.op = op
        self.dest = dest
        self.srcs = srcs
        self.address = address
        self.mispredicted = mispredicted
        self.fetch_cycle = fetch_cycle
        self.producers: tuple = ()
        self.waiters: list = []
        self.remaining = 0
        self.ready_time = 0
        self.issued = False
        self.done = -1
        self.wake_time = -1
        self.completed = False


class PipelineEngine:
    """Runs one trace through the configured core and hierarchy.

    Parameters
    ----------
    config:
        Core parameters.
    hierarchy:
        The memory hierarchy (carries the yield-aware L1D configuration).
    trace:
        A :class:`repro.workloads.compiled.CompiledTrace`, or any
        iterable of :class:`TraceInstruction`, which is packed into one
        here (consuming it).
    warmup_instructions:
        Instructions committed before the measurement window opens.
    """

    def __init__(
        self,
        config: CoreConfig,
        hierarchy: MemoryHierarchy,
        trace: Iterable[TraceInstruction],
        warmup_instructions: int = 0,
    ) -> None:
        # Detected by attribute and imported late: importing the compiled
        # module at the top would be circular (workloads.generator
        # imports repro.uarch.isa while repro.uarch's own __init__ runs).
        if not getattr(trace, "is_compiled_trace", False):
            from repro.workloads.compiled import CompiledTrace

            trace = CompiledTrace.from_instructions(trace)
        self.config = config
        self.hierarchy = hierarchy
        self.trace = trace
        self.lbb = LoadBypassBuffers(slack=config.lbb_slack)
        self.warmup_instructions = warmup_instructions
        self.warmup_cycle = 0
        self.cycle = 0

        # statistics, set by run(); all but ``committed`` cover only the
        # measurement window after warm-up
        self.committed = 0
        self.issued = 0
        self.replay_count = 0
        self.branch_mispredicts = 0
        self.load_count = 0
        self.store_count = 0
        self.slow_way_hits = 0

    def _reset_cache_statistics(self) -> None:
        """Warm-up over: zero the buffer and cache counters.

        Cache *contents* are kept (that is the point of warming up).
        """
        self.lbb.total_stalls = 0
        self.lbb.overflows = 0
        hierarchy = self.hierarchy
        hierarchy.l1d.reset_statistics()
        hierarchy.l1i.reset_statistics()
        hierarchy.l2.reset_statistics()
        hierarchy.l2_accesses = 0
        hierarchy.memory_accesses = 0

    def run(self) -> None:
        """Simulate until every fetched instruction has committed."""
        config = self.config
        hierarchy = self.hierarchy
        trace = self.trace
        length = trace.length
        ops = trace.ops
        dests = trace.dests
        src0 = trace.src0
        src1 = trace.src1
        addresses = trace.addresses
        pcs = trace.pcs
        mispredicts = trace.mispredicts

        fetch_width = config.fetch_width
        frontend_cap = 3 * fetch_width
        issue_width = config.issue_width
        commit_width = config.commit_width
        rob_size = config.rob_size
        iq_size = config.iq_size
        sched = config.sched_to_exec_stages
        frontend_stages = config.frontend_stages
        predicted = config.predicted_load_latency
        slack = config.lbb_slack
        pools = tuple(config.fu_pools[kind] for kind in FU_KINDS)
        num_kinds = len(pools)
        fu_index = _FU_INDEX
        latency_of = _LATENCY
        load_op = _LOAD
        store_op = _STORE
        mem_fu = _MEM

        lbb = self.lbb
        try_hold = lbb.try_hold
        l1d = hierarchy.l1d
        d_probe = l1d.probe
        d_shift = l1d.offset_bits
        hit_latency = hierarchy.l1d_hit_latencies
        data_miss = hierarchy.data_miss
        i_fetch = hierarchy.instruction_fetch
        i_shift = hierarchy.l1i.offset_bits
        l1i_latency = hierarchy.config.l1i_latency
        heappush = heapq.heappush
        heappop = heapq.heappop
        make_inst = _Inst

        warmup = self.warmup_instructions
        warm = warmup == 0
        warmup_cycle = 0
        cycle = 0
        pos = 0  # next trace position to fetch (= its sequence number)
        exhausted = False
        blocked_on: Optional[_Inst] = None
        stall_until = 0
        last_fetch_block: Optional[int] = None
        frontend: deque = deque()  # fetched, awaiting dispatch
        rob: deque = deque()
        iq_used = 0
        last_writer: List[Optional[_Inst]] = [None] * NUM_REGISTERS
        ready: list = []  # heap of (time, seq, inst)
        events: list = []  # heap of (time, kind, seq, inst)
        # Latest revised wake-up of any miss-discovered load. While
        # ``cycle >= horizon`` — every instruction window with no pending
        # slow load — issue skips the producer-revision re-check: an
        # unrevised producer's wake time is always folded into the
        # consumer's ready time before it enters the ready heap.
        horizon = 0
        # FU slots taken by bypass-buffer and slow-way occupancy. Issue
        # only reserves for the next cycle, so one pending slot suffices;
        # it lapses if the loop jumps past that cycle.
        reserved_cycle = -1
        reserved: list = []
        last_commit_cycle = 0
        committed = 0
        issued_total = 0
        replays = 0
        mispredicted_branches = 0
        loads = 0
        stores = 0
        slow_hits = 0

        while True:
            # -- events: completions and miss discoveries ---------------
            while events and events[0][0] <= cycle:
                _, kind, _, inst = heappop(events)
                if kind == 0:
                    inst.completed = True
                else:
                    # Miss discovered at the load's execute stage: consumers
                    # that issued inside the shadow replay on their own;
                    # the rest are re-timed for the refill.
                    wake = inst.done - sched
                    if wake <= cycle:
                        wake = cycle + 1
                    inst.wake_time = wake
                    if wake > horizon:
                        horizon = wake

            # -- commit -------------------------------------------------
            count = 0
            while rob and count < commit_width:
                head = rob[0]
                if not head.completed or head.done > cycle:
                    break
                rob.popleft()
                committed += 1
                last_commit_cycle = cycle
                count += 1
                if not warm and committed >= warmup:
                    # The CPI window starts here.
                    warm = True
                    warmup_cycle = cycle
                    issued_total = replays = mispredicted_branches = 0
                    loads = stores = slow_hits = 0
                    self._reset_cache_statistics()

            # -- issue --------------------------------------------------
            if ready and ready[0][0] <= cycle:
                # Load-bypass-buffer occupancy blocks the functional-unit
                # input it sits in front of, so reservations made by
                # earlier stalls count against this cycle's pool.
                fu_used = (
                    reserved if reserved_cycle == cycle else [0] * num_kinds
                )
                next_reserved = None
                check_revised = horizon > cycle
                exec_base = cycle + sched
                width_left = issue_width
                deferred = None
                while ready and width_left:
                    entry = ready[0]
                    time = entry[0]
                    if time > cycle:
                        break
                    heappop(ready)
                    inst = entry[2]
                    if inst.issued or time < inst.ready_time:
                        continue  # stale heap entry
                    producers = inst.producers
                    # A producer's wake-up may have been revised after this
                    # entry was queued (miss discovery): the scheduler was
                    # informed, so re-time the consumer without spending an
                    # issue slot.
                    if check_revised:
                        revised = 0
                        for producer in producers:
                            if producer.wake_time > revised:
                                revised = producer.wake_time
                        if revised > cycle:
                            if revised > inst.ready_time:
                                inst.ready_time = revised
                            heappush(ready, (inst.ready_time, inst.seq, inst))
                            continue
                    op = inst.op
                    fu = fu_index[op]
                    if fu_used[fu] >= pools[fu]:
                        if deferred is None:
                            deferred = [inst]
                        else:
                            deferred.append(inst)
                        continue

                    # Will the data actually be there when we reach execute?
                    data_ready = 0
                    for producer in producers:
                        if not producer.issued:
                            raise SimulationError(
                                "consumer scheduled before its producer issued"
                            )
                        if producer.done > data_ready:
                            data_ready = producer.done
                    shortfall = data_ready - exec_base
                    fu_used[fu] += 1
                    width_left -= 1
                    issued_total += 1

                    if shortfall > 0:
                        if shortfall > slack or not try_hold(
                            exec_base, shortfall
                        ):
                            # Speculatively issued under a miss (or no
                            # buffer space): squash and replay when the
                            # data arrives.
                            replays += 1
                            retry = data_ready - sched
                            if retry <= cycle:
                                retry = cycle + 1
                            if retry > inst.ready_time:
                                inst.ready_time = retry
                            heappush(ready, (inst.ready_time, inst.seq, inst))
                            continue
                        # Absorbed by a load-bypass buffer: the buffered
                        # operand occupies this FU's input, blocking one
                        # issue of the same kind next cycle. The scheduler
                        # knows, and delays the dependents by the same slip.
                        if next_reserved is None:
                            next_reserved = [0] * num_kinds
                        next_reserved[fu] += 1
                        slip = shortfall
                    else:
                        slip = 0
                    exec_start = exec_base + slip

                    inst.issued = True
                    iq_used -= 1
                    if op == load_op:
                        address = inst.address
                        loads += 1
                        way = d_probe(address >> d_shift, False)
                        if way >= 0:
                            latency = hit_latency[way]
                            if latency > predicted:
                                # A 5-cycle way occupies its cache port one
                                # cycle longer, blocking one memory issue
                                # slot next cycle.
                                slow_hits += 1
                                if next_reserved is None:
                                    next_reserved = [0] * num_kinds
                                next_reserved[mem_fu] += 1
                        else:
                            latency = data_miss(address, False)
                        if latency > predicted + slack:
                            # Effectively a miss for the scheduler:
                            # consumers issued in the shadow will replay;
                            # the rest are re-woken when the miss is
                            # discovered at our execute stage.
                            heappush(events, (exec_start, 1, inst.seq, inst))
                        done = exec_start + latency
                        wake = cycle + predicted + slip
                    elif op == store_op:
                        address = inst.address
                        if d_probe(address >> d_shift, True) < 0:
                            data_miss(address, True)
                        stores += 1
                        done = exec_start + latency_of[op]
                        wake = done
                    else:
                        done = exec_start + latency_of[op]
                        wake = done - sched
                    inst.done = done
                    heappush(events, (done, 0, inst.seq, inst))
                    # Wake the consumers waiting on this producer.
                    inst.wake_time = wake
                    for consumer in inst.waiters:
                        if consumer.issued:
                            continue
                        consumer.remaining -= 1
                        if wake > consumer.ready_time:
                            consumer.ready_time = wake
                        if consumer.remaining <= 0:
                            heappush(
                                ready,
                                (consumer.ready_time, consumer.seq, consumer),
                            )
                    inst.waiters = ()
                    if inst.mispredicted:
                        mispredicted_branches += 1
                        if done >= stall_until:
                            stall_until = done + 1
                        if blocked_on is inst:
                            blocked_on = None
                if deferred is not None:  # structural hazard: retry next cycle
                    for inst in deferred:
                        if inst.ready_time <= cycle:
                            inst.ready_time = cycle + 1
                        heappush(ready, (inst.ready_time, inst.seq, inst))
                if next_reserved is not None:
                    reserved_cycle = cycle + 1
                    reserved = next_reserved

            # -- dispatch -----------------------------------------------
            count = 0
            while (
                frontend
                and count < fetch_width
                and len(rob) < rob_size
                and iq_used < iq_size
            ):
                inst = frontend[0]
                if inst.fetch_cycle + frontend_stages > cycle:
                    break
                frontend.popleft()
                rob.append(inst)
                iq_used += 1
                count += 1

                ready_time = cycle + 1
                producers = None
                for src in inst.srcs:
                    producer = last_writer[src]
                    if producer is None or producer.completed:
                        continue
                    if producers is None:
                        producers = [producer]
                    else:
                        producers.append(producer)
                    if producer.issued:
                        if producer.wake_time > ready_time:
                            ready_time = producer.wake_time
                    else:
                        inst.remaining += 1
                        producer.waiters.append(inst)
                if producers is not None:
                    inst.producers = producers
                inst.ready_time = ready_time
                if inst.dest >= 0:
                    last_writer[inst.dest] = inst
                if inst.remaining == 0:
                    heappush(ready, (ready_time, inst.seq, inst))

            # -- fetch --------------------------------------------------
            if (
                blocked_on is None
                and cycle >= stall_until
                and not exhausted
                and len(frontend) < frontend_cap
            ):
                for _ in range(fetch_width):
                    if pos >= length:
                        exhausted = True
                        break
                    s0 = src0[pos]
                    s1 = src1[pos]
                    inst = make_inst(
                        pos,
                        ops[pos],
                        dests[pos],
                        () if s0 < 0 else ((s0,) if s1 < 0 else (s0, s1)),
                        addresses[pos],
                        mispredicts[pos],
                        cycle,
                    )
                    # Instruction cache: pay the miss latency when entering
                    # a new block; the 2-cycle hit latency is part of the
                    # front end.
                    pc = pcs[pos]
                    pos += 1
                    if pc >> i_shift != last_fetch_block:
                        last_fetch_block = pc >> i_shift
                        extra = i_fetch(pc) - l1i_latency
                        if extra > 0 and cycle + extra > stall_until:
                            stall_until = cycle + extra
                    frontend.append(inst)
                    if inst.mispredicted:
                        blocked_on = inst
                        break
                    if cycle < stall_until:
                        break

            if exhausted and not rob and not frontend:
                break
            if cycle - last_commit_cycle > _DEADLOCK_LIMIT:
                raise SimulationError(
                    f"no commit for {_DEADLOCK_LIMIT} cycles "
                    f"(cycle {cycle}, committed {committed})"
                )

            # -- jump to the earliest future cycle with anything to do --
            if (
                not exhausted
                and blocked_on is None
                and len(frontend) < frontend_cap
            ):
                nxt = stall_until if stall_until > cycle else cycle + 1
            else:
                nxt = _NEVER
            if events and cycle < events[0][0] < nxt:
                nxt = events[0][0]
            if ready and cycle < ready[0][0] < nxt:
                nxt = ready[0][0]
            if frontend:
                time = frontend[0].fetch_cycle + frontend_stages
                if cycle < time < nxt:
                    nxt = time
            cycle = cycle + 1 if nxt == _NEVER else nxt
            if cycle % 50_000 == 0:
                lbb.release_before(cycle)

        self.cycle = cycle
        self.warmup_cycle = warmup_cycle
        self.committed = committed
        self.issued = issued_total
        self.replay_count = replays
        self.branch_mispredicts = mispredicted_branches
        self.load_count = loads
        self.store_count = stores
        self.slow_way_hits = slow_hits
