"""Reference stepper: the poll-every-stage-every-cycle AVA pipeline.

This is the original cycle-level implementation of
:class:`repro.vpu.pipeline.VectorPipeline`, retained **verbatim** as the
golden reference for the event-driven scheduler that replaced it.  It is
deliberately naive: every stage is re-evaluated every stepped cycle, and the
clock only fast-forwards when *no* stage makes progress.  Do not optimise
this file — its value is that it stays simple enough to audit against the
paper, while ``tests/vpu/test_pipeline_equivalence.py`` asserts the
production scheduler reproduces its statistics and functional output
byte-for-byte across every workload and configuration.

Stage order per cycle (resources freed early in the cycle are visible to
later stages, classic reverse-pipeline evaluation):

1. **commit** — up to ``commit_width`` finished ROB heads retire: RAC source
   decrements, old-destination VVRs return to the FRL, aggressive register
   reclamation frees physical registers whose counts reached zero;
2. **complete** — issued micro-ops whose last element wrote back flip to
   DONE and set their VVR valid bit;
3. **issue** — the memory and arithmetic queue heads issue in order (each
   queue in-order, the pair decoupled = the paper's "light out-of-order"),
   subject to chaining readiness and the two swap issue rules;
4. **pre-issue** — the second-level mapping (§III.C steps A/B/C): one action
   per cycle — either generating one swap operation or dispatching the head
   micro-op into its queue;
5. **rename** — first-level renaming (logical -> VVR) at one instruction per
   cycle, stalling on an empty FRL or a full ROB;
6. **dispatch** — the 2 GHz scalar core feeds the VPU's dispatch queue and
   absorbs the scalar loop-control blocks.

When a cycle makes no progress the clock fast-forwards to the next
timestamped event; if no event exists the pipeline raises
:class:`DeadlockError` with a diagnostic dump (the dependency-ordering
invariant in :mod:`repro.core.uop` makes this unreachable for well-formed
programs, and the property tests lean on that).
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import MachineConfig
from repro.core.rac import RegisterAccessCounters
from repro.core.rat import RenameTable
from repro.core.rob import ReorderBuffer
from repro.core.swap import SwapLogic, VictimPolicy
from repro.core.uop import MicroOp, UopState
from repro.core.vrf import TwoLevelVRF
from repro.core.vrf_mapping import VRFMapping
from repro.isa.instructions import Instruction, Tag
from repro.isa.opcodes import Op, evaluate_arith
from repro.isa.program import Program
from repro.memory.hierarchy import MemorySystem
from repro.sim.layout import MemoryLayout
from repro.sim.stats import SimStats
from repro.vpu.params import TimingParams
from repro.vpu.vmu import VectorMemoryUnit


from repro.vpu.pipeline import DeadlockError


# Pre-issue action outcomes.
_OK = "ok"
_CREATED = "created-swap"
_STALL_VICTIM = "stall-victim"
_STALL_QUEUE = "stall-queue"


class ReferencePipeline:
    """One VPU instance executing one program, stepped cycle by cycle."""

    def __init__(self, config: MachineConfig, program: Program,
                 params: Optional[TimingParams] = None,
                 memsys: Optional[MemorySystem] = None,
                 functional: bool = False,
                 victim_policy: VictimPolicy = VictimPolicy.RAC_MIN,
                 aggressive_reclamation: bool = True,
                 sanitize: bool = False) -> None:
        program.validate(config.n_logical)
        self.config = config
        self.program = program
        self.params = params or TimingParams()
        self.functional = functional
        self.aggressive_reclamation = aggressive_reclamation

        self.memsys = memsys or MemorySystem()
        self.layout = MemoryLayout(program, config, functional=functional)
        self.vmu = VectorMemoryUnit(self.memsys, self.layout)

        self.rat = RenameTable(config.n_logical, config.n_vvr)
        self.rac = RegisterAccessCounters(config.n_vvr)
        # The initial identity RAT mappings behave as if each VVR had been
        # renamed as a destination once: they carry the +1 that the old-dest
        # decrement releases when the logical register is first overwritten.
        for vvr in self.rat.live_vvrs():
            self.rac.increment(vvr)
        self.mapping = VRFMapping(config.n_vvr, config.n_physical)
        self.vrf = TwoLevelVRF(config.n_vvr, config.n_physical, config.mvl,
                               functional=functional)
        self.swap_logic = SwapLogic(self.mapping, self.rac, self.vrf,
                                    policy=victim_policy)
        self.rob = ReorderBuffer(self.params.rob_entries,
                                 self.params.commit_width)

        self.dispatch_q: Deque[Instruction] = deque()
        self.pre_issue_q: Deque[MicroOp] = deque()
        self.arith_q: Deque[MicroOp] = deque()
        self.mem_q: Deque[MicroOp] = deque()

        # vvr -> in-flight producer micro-op (value not yet written back).
        self._pending_writer: Dict[int, MicroOp] = {}
        # vvr -> number of queued (pre-issued, not yet issued) readers; the
        # Swap Logic deprioritises these as victims (evicting one forces an
        # immediate Swap-Load back).
        self._vvr_queued_readers: Dict[int, int] = {}
        # preg -> outstanding reader micro-ops (pruned lazily once DONE).
        self._preg_readers: Dict[int, List[MicroOp]] = {}
        # preg -> the Swap-Store that freed it (issue rule 1).
        self._pending_store_guard: Dict[int, MicroOp] = {}
        # vvr -> in-flight Swap-Store filling its M-VRF home slot; a
        # Swap-Load of the same VVR depends on it through memory.
        self._pending_mvrf_store: Dict[int, MicroOp] = {}

        self._completions: List[Tuple[int, int, MicroOp]] = []
        self._seq = 0
        self._arith_busy_until = 0
        self._mem_busy_until = 0
        self._fetch_idx = 0
        self._scalar_time = 0.0
        self._inflight_mem = 0  # uncommitted vector memory instructions
        self._to_commit = sum(1 for i in program.insts if not i.is_scalar)

        self.now = 0
        self.stats = SimStats(config_name=config.name,
                              program_name=program.name)

        # Microarchitectural sanitizer (None in normal runs); same probe
        # protocol as the event-driven pipeline, so an invariant violation
        # reproduces identically on both implementations.
        self._san = None
        if sanitize:
            self._install_sanitizer()

    def _install_sanitizer(self) -> None:
        from repro.analysis.sanitizer import PipelineSanitizer
        san = PipelineSanitizer(label=f"{self.config.name}/"
                                      f"{self.program.name} (reference)")
        san.bind(lambda: self.now, rat=self.rat, mapping=self.mapping)
        self.mapping.sanitizer = san
        self.vrf.sanitizer = san
        self.rob.sanitizer = san
        self.rat.sanitizer = san
        self._san = san

    # ------------------------------------------------------------------ utils
    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _is_done(self, uop: MicroOp) -> bool:
        if uop.state in (UopState.DONE, UopState.COMMITTED):
            return True
        return uop.state is UopState.ISSUED and uop.done_at <= self.now

    @property
    def finished(self) -> bool:
        return self.rob.total_committed >= self._to_commit

    # ------------------------------------------------------------------ run
    def run(self, max_cycles: int = 200_000_000) -> SimStats:
        """Execute to completion; returns the accumulated statistics."""
        while not self.finished:
            if self.now > max_cycles:
                raise RuntimeError(
                    f"simulation exceeded {max_cycles} cycles "
                    f"(now={self.now}, {self.rob.total_committed}/"
                    f"{self._to_commit} committed)")
            progress = self._step()
            self.stats.events_processed += 1
            if progress:
                self.now += 1
            else:
                self._fast_forward()
        self._harvest()
        return self.stats

    def _step(self) -> bool:
        progress = self._commit()
        progress |= self._complete()
        progress |= self._issue_memory()
        progress |= self._issue_arith()
        progress |= self._pre_issue()
        progress |= self._rename()
        progress |= self._dispatch()
        return progress

    def _fast_forward(self) -> None:
        candidates: List[float] = []
        if self._completions:
            candidates.append(self._completions[0][0])
        if self.mem_q:
            candidates.append(self._mem_busy_until)
            wait = self._ready_wake(self.mem_q[0])
            if wait is not None:
                candidates.append(wait)
            # Swap ops can issue out of order past a blocked head.
            for queued in self.mem_q:
                if queued.inst.tag is Tag.SWAP:
                    wait = self._ready_wake(queued)
                    if wait is not None:
                        candidates.append(wait)
        if self.arith_q:
            candidates.append(self._arith_busy_until)
            wait = self._ready_wake(self.arith_q[0])
            if wait is not None:
                candidates.append(wait)
        if self._fetch_idx < len(self.program.insts):
            candidates.append(math.ceil(self._scalar_time))
        future = [c for c in candidates if c > self.now]
        if not future:
            raise DeadlockError(self._dump())
        target = int(min(future))
        self.stats.cycles_skipped += target - self.now
        # One stalled interval (the evaluated probe cycle plus the jump)
        # disposed of in one step.
        self.stats.spans_charged += 1
        self.now = target

    def _ready_wake(self, uop: MicroOp) -> Optional[float]:
        """Earliest cycle the queue head could become ready, if timestamped."""
        t = 0.0
        for p in uop.producers:
            if p is None:
                continue
            if p.issued_at < 0:
                return None  # producer not issued yet; no timestamp exists
            t = max(t, p.issued_at + self.params.chain_issue_delay)
        guards = list(uop.reader_guards)
        if uop.store_guard is not None:
            guards.append(uop.store_guard)
        for g in guards:
            if g.issued_at < 0:
                return None
            t = max(t, g.issued_at + self.params.chain_issue_delay)
        return t

    # ------------------------------------------------------------------ commit
    def _commit(self) -> bool:
        ready = self.rob.committable(self.now)
        if not ready:
            return False
        for uop in ready:
            self._retire(uop)
        return True

    def _retire(self, uop: MicroOp) -> None:
        self.rob.retire(uop, self.now)
        for vvr in uop.src_vvrs:
            self.rac.decrement(vvr)
            if (self.aggressive_reclamation and self.rac.is_reclaimable(vvr)
                    and self.mapping.in_pvrf(vvr)
                    and self.vrf.is_valid(vvr)):
                self.mapping.release(vvr)
                self.swap_logic.note_release(vvr)
                self.vrf.drop_mvrf(vvr)  # generation is dead
        if uop.dst_vvr is not None:
            assert uop.old_dst_vvr is not None
            old = uop.old_dst_vvr
            self.mapping.release(old)
            self.swap_logic.note_release(old)
            self.vrf.drop_mvrf(old)
            self.rac.reset(old)
            self.vrf.mark_valid(old)
            self.vrf.commit_valid(old)
            self.vrf.commit_valid(uop.dst_vvr)
            self.rat.commit(uop.inst.dst, uop.dst_vvr, old)
        if uop.inst.is_memory:
            self._inflight_mem -= 1
        self.stats.committed += 1

    # ------------------------------------------------------------------ complete
    def _complete(self) -> bool:
        progress = False
        while self._completions and self._completions[0][0] <= self.now:
            _, _, uop = heapq.heappop(self._completions)
            uop.state = UopState.DONE
            if uop.dst_vvr is not None:
                self.vrf.mark_valid(uop.dst_vvr)
                if self._pending_writer.get(uop.dst_vvr) is uop:
                    del self._pending_writer[uop.dst_vvr]
            if uop.inst.tag is Tag.SWAP and uop.inst.is_store:
                victim = uop.src_vvrs[0]
                if self._pending_mvrf_store.get(victim) is uop:
                    del self._pending_mvrf_store[victim]
            progress = True
        return progress

    # ------------------------------------------------------------------ issue
    def _ready(self, uop: MicroOp) -> bool:
        """Chaining readiness: producers and guards issued.

        Producers: elements will stream in as this op consumes them.
        Guards (swap rules 1 and 2): the old value's Swap-Store / readers
        drain the register at stream rate one beat ahead of the new owner's
        writes, so issue may chain behind them too; the completion clamp in
        :meth:`_finish_issue` keeps the new owner's write-back behind their
        reads in time.
        """
        delay = self.params.chain_issue_delay
        deps = list(uop.producers) + list(uop.reader_guards)
        if uop.store_guard is not None:
            deps.append(uop.store_guard)
        for p in deps:
            if p is None:
                continue
            if p.issued_at < 0 or p.issued_at + delay > self.now:
                return False
        return True

    def _issue_memory(self) -> bool:
        if not self.mem_q or self._mem_busy_until > self.now:
            return False
        uop = self.mem_q[0]
        outcome = self._ensure_operands(uop)
        if outcome == _CREATED:
            return True  # a priority swap op now heads the memory queue
        if outcome == _STALL_VICTIM:
            self.stats.issue_victim_stalls += 1
            return self._issue_swap_bypass()
        if not self._ready(uop):
            return self._issue_swap_bypass()
        self.mem_q.popleft()
        self._issue_memory_uop(uop)
        return True

    def _issue_memory_uop(self, uop: MicroOp) -> None:
        plan = self.vmu.plan(uop.inst)
        dead = self.params.mem_dead_time
        latency = self.vmu.first_element_latency + plan.miss_latency
        occupancy = dead + plan.occupancy
        self._finish_issue(uop, occupancy, dead, latency)
        self._mem_busy_until = self.now + occupancy
        self.stats.mem_busy_cycles += occupancy
        self.stats.mem_beats += plan.beats
        uop.dram_stall = plan.fill_beats + plan.miss_latency
        self._count_issue(uop)
        if uop.inst.tag is Tag.SWAP:
            self._execute_swap(uop)
        else:
            self._execute_memory(uop)

    def _issue_swap_bypass(self) -> bool:
        """Issue a ready swap op from behind a blocked memory-queue head.

        Swap operations move data between the P-VRF and the M-VRF only —
        they can never alias application memory — so when the in-order head
        is stalled, the memory unit may service a younger ready swap op
        instead.  This both resolves head-waits-on-queued-swap chains (the
        head's own source may be coming back via a Swap-Load sitting behind
        it) and overlaps swap traffic with dependency stalls.
        """
        for idx in range(1, len(self.mem_q)):
            cand = self.mem_q[idx]
            if cand.inst.tag is not Tag.SWAP:
                continue
            if not self._ready(cand):
                continue
            del self.mem_q[idx]
            self._issue_memory_uop(cand)
            return True
        return False

    def _issue_arith(self) -> bool:
        if not self.arith_q or self._arith_busy_until > self.now:
            return False
        uop = self.arith_q[0]
        outcome = self._ensure_operands(uop)
        if outcome == _CREATED:
            return True
        if outcome == _STALL_VICTIM:
            self.stats.issue_victim_stalls += 1
            return False
        if not self._ready(uop):
            return False
        self.arith_q.popleft()
        info = uop.inst.info
        beats = self.params.arith_beats(uop.inst.vl, info.beats_per_element)
        dead = self.params.arith_dead_time
        occupancy = dead + beats
        self._finish_issue(uop, occupancy, dead, info.latency)
        self._arith_busy_until = self.now + occupancy
        self.stats.arith_busy_cycles += occupancy
        self._count_issue(uop)
        self._execute_arith(uop)
        return True

    def _ensure_operands(self, uop: MicroOp) -> str:
        """Issue-time operand resolution (§VIII: registers "at issue time").

        Sources were resolved optimistically at pre-issue, but a mapping can
        have gone stale if the Swap Logic evicted the VVR while this
        instruction waited in its queue; such sources are re-resolved here,
        generating a **priority Swap-Load** at the memory-queue front.  The
        destination physical register is assigned here (not at queue entry),
        so queued instructions hold no registers and P-VRF pressure tracks
        live architectural values, not window depth.  When the PFRL is empty
        the Swap Mechanism first reclaims an RAC==0 register, then evicts a
        clean victim for free, and only then creates a **priority
        Swap-Store** (Swap-1; issue rule 1 makes the new owner trail it).
        """
        created = False
        if uop.inst.tag is not Tag.SWAP:
            refreshed = []
            for vvr in uop.src_vvrs:
                if not self.mapping.in_pvrf(vvr):
                    if not self.mapping.in_mvrf(vvr):
                        raise AssertionError(
                            f"source VVR {vvr} of {uop.describe()} has "
                            f"neither a physical register nor an M-VRF home")
                    excluded = list(uop.src_vvrs)
                    if uop.dst_vvr is not None:
                        excluded.append(uop.dst_vvr)
                    outcome = self._free_one_preg(excluded, front=True)
                    if outcome == _CREATED:
                        return _CREATED
                    if outcome != _OK:
                        return outcome
                    self._emit_swap_load(vvr, front=True)
                    return _CREATED
                refreshed.append(self.mapping.preg_of(vvr))
            new_pregs = tuple(refreshed)
            # Always rebuild the producer links: a source may have been
            # evicted and Swap-Loaded back (possibly into the same physical
            # register) while this instruction waited, and its value now
            # comes from that in-flight Swap-Load.
            uop.producers = []
            for vvr in uop.src_vvrs:
                producer = self._pending_writer.get(vvr)
                uop.attach_producer(
                    producer if producer is not None
                    and not self._is_done(producer) else None)
            if new_pregs != uop.src_pregs:
                uop.src_pregs = new_pregs
                for preg in new_pregs:
                    readers = self._preg_readers.setdefault(preg, [])
                    if uop not in readers:
                        readers.append(uop)

        if uop.dst_vvr is None or uop.dst_preg is not None:
            return _OK
        excluded = list(uop.src_vvrs) + [uop.dst_vvr]
        if self.mapping.free_count == 0:
            outcome = self._free_one_preg(excluded, front=True)
            if outcome == _CREATED:
                created = True
            elif outcome != _OK:
                return outcome
        preg = self.mapping.allocate(uop.dst_vvr)
        self._attach_write_guards(uop, preg)
        uop.dst_preg = preg
        return _CREATED if created else _OK

    def _free_one_preg(self, excluded: List[int], front: bool) -> str:
        """Make the PFRL non-empty: reclaim, clean-evict, or Swap-Store."""
        if self.mapping.free_count > 0:
            return _OK
        reclaim = (self.swap_logic.reclaimable_vvr(excluded)
                   if self.aggressive_reclamation else None)
        if reclaim is not None:
            self.mapping.release(reclaim)
            self.swap_logic.note_release(reclaim)
            self.vrf.drop_mvrf(reclaim)
            return _OK
        victim = self._select_victim(excluded)
        if victim is None:
            return _STALL_VICTIM
        if self.vrf.has_mvrf_copy(victim):
            self._clean_evict(victim)
            return _OK
        if not front and len(self.mem_q) >= self.params.mem_queue_depth:
            return _STALL_QUEUE
        self._emit_swap_store(victim, front=front)
        return _CREATED

    def _finish_issue(self, uop: MicroOp, occupancy: int, dead: int,
                      latency: int) -> None:
        """Stamp issue/first-ready/done under the streaming-chaining model.

        The consumer's first element trails both its own pipeline
        (``dead + latency``) and its producers' first elements by its own
        latency; its last element trails its own stream and its producers'
        last elements likewise.  Occupancy is charged to the unit by the
        caller.
        """
        uop.state = UopState.ISSUED
        uop.issued_at = self.now
        prod_first = 0
        prod_done = 0
        for p in uop.producers:
            if p is not None:
                prod_first = max(prod_first, p.first_ready)
                prod_done = max(prod_done, p.done_at)
        # Swap rules in streaming form: this op's writes trail the old
        # value's store/readers, so its completion cannot precede theirs.
        guard_done = 0
        for g in uop.reader_guards:
            guard_done = max(guard_done, g.done_at)
        if uop.store_guard is not None:
            guard_done = max(guard_done, uop.store_guard.done_at)
        first = max(self.now + dead + latency, prod_first + latency)
        done = max(self.now + occupancy + latency,
                   prod_done + latency,
                   guard_done + 1,
                   first + max(0, occupancy - dead))
        uop.first_ready = first
        uop.done_at = done
        heapq.heappush(self._completions, (done, uop.seq, uop))

    def _count_issue(self, uop: MicroOp) -> None:
        inst = uop.inst
        if inst.tag is not Tag.SWAP:
            # Swap ops never pass through pre-issue step C, so only regular
            # uops carry queued-reader pins.
            for vvr in uop.src_vvrs:
                remaining = self._vvr_queued_readers.get(vvr, 0) - 1
                if remaining > 0:
                    self._vvr_queued_readers[vvr] = remaining
                else:
                    self._vvr_queued_readers.pop(vvr, None)
        if inst.is_arith:
            self.stats.arith_insts += 1
            self.stats.fpu_element_ops += inst.vl
        elif inst.is_load:
            if inst.tag is Tag.SPILL:
                self.stats.spill_loads += 1
            elif inst.tag is Tag.SWAP:
                self.stats.swap_loads += 1
            else:
                self.stats.vloads += 1
        else:
            if inst.tag is Tag.SPILL:
                self.stats.spill_stores += 1
            elif inst.tag is Tag.SWAP:
                self.stats.swap_stores += 1
            else:
                self.stats.vstores += 1

    # ------------------------------------------------------------------ execute
    def _execute_arith(self, uop: MicroOp) -> None:
        inst = uop.inst
        if self._san is not None:
            self._san.on_execute(uop)
        values = [self.vrf.read_preg(p, inst.vl) for p in uop.src_pregs]
        assert uop.dst_preg is not None
        if self.functional:
            result = evaluate_arith(inst.op, values, inst.scalar, inst.vl)
            self.vrf.write_preg(uop.dst_preg, result, inst.vl)
        else:
            self.vrf.write_preg(uop.dst_preg, None, inst.vl)  # counters only

    def _execute_swap(self, uop: MicroOp) -> None:
        if uop.inst.is_store:
            victim = uop.src_vvrs[0]
            if self.vrf.generation(victim) != uop.swap_gen:
                # The generation this store was saving died while the store
                # waited in the queue (its readers all committed and the
                # register was reclaimed); the slot now belongs to a newer
                # generation and must not be overwritten.
                if self._san is not None:
                    self._san.on_swap_squashed(uop.src_pregs[0])
                return
            self.vrf.swap_out(victim, uop.src_pregs[0])
        else:
            assert uop.dst_vvr is not None and uop.dst_preg is not None
            if self.vrf.generation(uop.dst_vvr) != uop.swap_gen:
                raise AssertionError(
                    "swap-load executing for a dead VVR generation")
            self.vrf.swap_in(uop.dst_vvr, uop.dst_preg)

    def _execute_memory(self, uop: MicroOp) -> None:
        inst = uop.inst
        mem = inst.mem
        assert mem is not None
        if self._san is not None:
            self._san.on_execute(uop)
        if inst.is_load:
            assert uop.dst_preg is not None
            if self.functional:
                index = None
                if mem.indexed:
                    index = self.vrf.read_preg(uop.src_pregs[0], inst.vl)
                data = self.layout.load(mem, inst.vl, index)
                self.vrf.write_preg(uop.dst_preg, data, inst.vl)
            else:
                if mem.indexed:
                    self.vrf.read_preg(uop.src_pregs[0], inst.vl)
                self.vrf.write_preg(uop.dst_preg, None, inst.vl)
            return
        # Store: data always comes from srcs[0]; gather index from srcs[1].
        data = self.vrf.read_preg(uop.src_pregs[0], inst.vl)
        index = None
        if mem.indexed:
            index = self.vrf.read_preg(uop.src_pregs[1], inst.vl)
        if self.functional:
            assert data is not None
            self.layout.store(mem, inst.vl, data, index)

    # ------------------------------------------------------------------ pre-issue
    def _pre_issue(self) -> bool:
        if not self.pre_issue_q:
            return False
        uop = self.pre_issue_q[0]
        excluded = list(uop.src_vvrs)
        if uop.dst_vvr is not None:
            excluded.append(uop.dst_vvr)

        # Step A: map sources; evicted sources need a Swap-Load each.  Swap
        # generation is combinational with the mapping update, so mapping can
        # complete in the same cycle as dispatch, but the memory queue
        # accepts at most `preissue_swap_budget` inserted swap ops per cycle.
        budget = self.params.preissue_swap_budget
        for vvr in uop.src_vvrs:
            if self.mapping.in_pvrf(vvr):
                continue
            if self.mapping.in_mvrf(vvr):
                if budget <= 0:
                    return True  # resume next cycle
                outcome = self._acquire_preg(excluded)
                if outcome == _CREATED:
                    budget -= 1
                    if budget <= 0:
                        return True
                    outcome = self._acquire_preg(excluded)
                if outcome != _OK:
                    self._count_preissue_stall(outcome)
                    return False
                self._emit_swap_load(vvr)
                budget -= 1
                continue
            if vvr in self._pending_writer:
                # The producer has not issued yet, so the VVR has no physical
                # register (destinations are assigned at issue time).  Wait
                # in order; the producer sits ahead in an issue queue.
                self.stats.preissue_writer_stalls += 1
                return False
            # Never-defined source: allocate and read the SRAM reset state.
            outcome = self._acquire_preg(excluded)
            if outcome == _CREATED:
                return True
            if outcome != _OK:
                self._count_preissue_stall(outcome)
                return False
            preg = self.mapping.allocate(vvr)
            if self._san is not None:
                # Reading the reset state of a never-defined source is
                # legal, not a read-before-write.
                self._san.on_reset_alloc(preg)
            self._attach_write_guards(None, preg)  # drop stale guards
            self.swap_logic.note_allocation(vvr)

        # Step B (destination mapping) happens at issue time — see
        # _ensure_dst_preg.  Step C: dispatch into the issue queue.
        target = self.mem_q if uop.inst.is_memory else self.arith_q
        depth = (self.params.mem_queue_depth if uop.inst.is_memory
                 else self.params.arith_queue_depth)
        if len(target) >= depth:
            self.stats.preissue_queue_stalls += 1
            return False

        uop.src_pregs = tuple(self.mapping.preg_of(v) for v in uop.src_vvrs)
        for vvr in uop.src_vvrs:
            producer = self._pending_writer.get(vvr)
            uop.attach_producer(
                producer if producer is not None
                and not self._is_done(producer) else None)
        for preg in uop.src_pregs:
            self._preg_readers.setdefault(preg, []).append(uop)
        for vvr in uop.src_vvrs:
            self._vvr_queued_readers[vvr] = (
                self._vvr_queued_readers.get(vvr, 0) + 1)
        # The destination physical register is assigned at issue time
        # (_ensure_dst_preg); uop.dst_preg stays None until then.
        uop.state = UopState.PRE_ISSUED
        uop.pre_issued_at = self.now
        uop.seq = self._next_seq()
        uop.validate_ordering()
        self.pre_issue_q.popleft()
        target.append(uop)
        return True

    def _count_preissue_stall(self, outcome: str) -> None:
        if outcome == _STALL_VICTIM:
            self.stats.preissue_victim_stalls += 1
        else:
            self.stats.preissue_queue_stalls += 1

    def _select_victim(self, excluded: List[int]) -> Optional[int]:
        """Swap Logic victim choice with the pipeline's reload context."""
        return self.swap_logic.select_victim(
            excluded,
            has_queued_reader=lambda v: self._vvr_queued_readers.get(v, 0) > 0,
            rat_live=self.rat.live_vvrs(),
            is_clean=self.vrf.has_mvrf_copy)

    def _clean_evict(self, victim: int) -> None:
        """Evict a VVR whose M-VRF copy is still valid: a pure remap."""
        self.mapping.evict(victim)
        self.swap_logic.note_release(victim)

    def _acquire_preg(self, excluded: List[int]) -> str:
        """Ensure the PFRL is non-empty (§III.C Swap-1, pre-issue path)."""
        return self._free_one_preg(excluded, front=False)

    def _emit_swap_store(self, victim: int, front: bool = False) -> None:
        preg = self.mapping.preg_of(victim)
        inst = Instruction(op=Op.VSE, srcs=(0,), vl=self.config.mvl,
                           mem=self.layout.mvrf_operand(victim), tag=Tag.SWAP)
        uop = MicroOp(inst, seq=self._next_seq(), state=UopState.PRE_ISSUED,
                      src_vvrs=(victim,), src_pregs=(preg,),
                      renamed_at=self.now, pre_issued_at=self.now,
                      priority=front, swap_gen=self.vrf.generation(victim))
        if self._san is not None:
            self._san.on_swap_store_emitted(preg)
        self.mapping.evict(victim)
        self.swap_logic.note_release(victim)
        self._pending_store_guard[preg] = uop
        self._pending_mvrf_store[victim] = uop
        self._preg_readers.setdefault(preg, []).append(uop)
        uop.validate_ordering()
        if front:
            self.mem_q.appendleft(uop)
        else:
            self.mem_q.append(uop)

    def _emit_swap_load(self, vvr: int, front: bool = False) -> None:
        preg = self.mapping.allocate(vvr)
        inst = Instruction(op=Op.VLE, dst=0, vl=self.config.mvl,
                           mem=self.layout.mvrf_operand(vvr), tag=Tag.SWAP)
        uop = MicroOp(inst, seq=self._next_seq(), state=UopState.PRE_ISSUED,
                      dst_vvr=vvr, dst_preg=preg,
                      renamed_at=self.now, pre_issued_at=self.now,
                      priority=front, swap_gen=self.vrf.generation(vvr))
        self._attach_write_guards(uop, preg)
        # The load reads the M-VRF home slot; if the Swap-Store filling that
        # slot is still in flight, it is this load's data producer.
        filler = self._pending_mvrf_store.get(vvr)
        if filler is not None and not self._is_done(filler):
            uop.attach_producer(filler)
        self._pending_writer[vvr] = uop
        self.vrf.mark_pending(vvr)
        self.swap_logic.note_allocation(vvr)
        uop.validate_ordering()
        if front:
            # Priority load: jump the queue, but never ahead of the
            # Swap-Store that freed its physical register, nor ahead of the
            # Swap-Store filling its M-VRF slot — the memory queue issues in
            # order, so landing in front of either would deadlock or read a
            # slot that has not been written yet.
            idx = 0
            for dep in (uop.store_guard, filler):
                if dep is None or dep.issued_at >= 0:
                    continue
                for pos, queued in enumerate(self.mem_q):
                    if queued is dep:
                        idx = max(idx, pos + 1)
                        break
            self.mem_q.insert(idx, uop)
        else:
            self.mem_q.append(uop)

    def _attach_write_guards(self, writer: Optional[MicroOp],
                             preg: int) -> None:
        """Guard a new owner of ``preg`` against the old value's users.

        Rule 1: the Swap-Store that freed the register must have executed
        (the new owner chains behind it).  Rule 2: readers of the previous
        value that have already **issued** clamp the new owner's write-back
        behind their streaming reads; readers still waiting in a queue are
        *not* guards — their mapping went stale and they re-resolve their
        source at issue time (_ensure_operands), reloading the value from
        the M-VRF.  Restricting guards to issued micro-ops keeps the wait
        graph acyclic by construction.

        Passing ``writer=None`` just clears stale tracking (uninitialised
        reads own the register without writing it).
        """
        guard = self._pending_store_guard.pop(preg, None)
        readers = self._preg_readers.pop(preg, [])
        if writer is None:
            return
        if guard is not None:
            writer.attach_store_guard(guard)
        for reader in readers:
            if reader.issued_at >= 0 and not self._is_done(reader):
                writer.attach_reader_guard(reader)

    # ------------------------------------------------------------------ rename
    def _rename(self) -> bool:
        if not self.dispatch_q:
            return False
        if len(self.pre_issue_q) >= self.params.pre_issue_depth:
            return False
        if self.rob.full:
            self.stats.rename_rob_stalls += 1
            return False
        inst = self.dispatch_q[0]
        if inst.dst is not None and not self.rat.can_rename_dst():
            self.stats.rename_frl_stalls += 1
            return False
        self.dispatch_q.popleft()

        src_vvrs = self.rat.rename_sources(inst.srcs)
        for vvr in src_vvrs:
            self.rac.increment(vvr)
        dst_vvr = old_vvr = None
        if inst.dst is not None:
            dst_vvr, old_vvr = self.rat.rename_destination(inst.dst)
            self.rac.increment(dst_vvr)
            self.rac.decrement(old_vvr)
            self.vrf.mark_pending(dst_vvr)
            # Aggressive reclamation case 1 at rename time, guarded by the
            # paper's condition (b): no older vector memory instruction may
            # be in flight (they are the recovery-event sources).
            if (self.aggressive_reclamation
                    and self.rac.is_reclaimable(old_vvr)
                    and self.mapping.in_pvrf(old_vvr)
                    and self.vrf.is_valid(old_vvr)
                    and self._inflight_mem == 0):
                self.mapping.release(old_vvr)
                self.swap_logic.note_release(old_vvr)
                self.vrf.drop_mvrf(old_vvr)  # generation is dead

        uop = MicroOp(inst, src_vvrs=src_vvrs,
                      dst_vvr=dst_vvr, old_dst_vvr=old_vvr,
                      renamed_at=self.now)
        if dst_vvr is not None:
            self._pending_writer[dst_vvr] = uop
        self.rob.allocate(uop)
        if inst.is_memory:
            self._inflight_mem += 1
        self.pre_issue_q.append(uop)
        return True

    # ------------------------------------------------------------------ dispatch
    def _dispatch(self) -> bool:
        progress = False
        insts = self.program.insts
        while self._fetch_idx < len(insts):
            inst = insts[self._fetch_idx]
            if inst.is_scalar:
                assert inst.scalar is not None
                self._scalar_time += self.params.scalar_to_vpu(inst.scalar)
                self.stats.scalar_blocks += 1
                self._fetch_idx += 1
                progress = True
                continue
            if len(self.dispatch_q) >= self.params.dispatch_queue_depth:
                break
            if self._scalar_time > self.now:
                break
            self.dispatch_q.append(inst)
            self._fetch_idx += 1
            self._scalar_time += self.params.scalar_to_vpu(
                self.params.dispatch_scalar_cycles)
            progress = True
        return progress

    # ------------------------------------------------------------------ results
    def _harvest(self) -> None:
        self.stats.cycles = self.now
        self.stats.vrf_reads = self.vrf.pvrf_reads
        self.stats.vrf_writes = self.vrf.pvrf_writes
        self.stats.mvrf_reads = self.vrf.mvrf_reads
        self.stats.mvrf_writes = self.vrf.mvrf_writes
        l2 = self.memsys.l2.stats
        self.stats.l2_reads = l2.reads
        self.stats.l2_writes = l2.writes
        self.stats.l2_misses = l2.misses
        self.stats.dram_accesses = self.memsys.dram.accesses

    def _dump(self) -> str:
        lines = [
            f"pipeline deadlock at cycle {self.now} running "
            f"{self.program.name} on {self.config.name}",
            f"committed {self.rob.total_committed}/{self._to_commit}",
            f"PFRL free={self.mapping.free_count}  "
            f"FRL free={self.rat.free_count}  ROB={self.rob.occupancy}",
        ]
        for name, queue in (("pre-issue", self.pre_issue_q),
                            ("mem", self.mem_q), ("arith", self.arith_q)):
            lines.append(f"{name} queue ({len(queue)}):")
            for uop in list(queue)[:4]:
                lines.append("  " + uop.describe())
        return "\n".join(lines)
