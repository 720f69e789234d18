"""The detailed timing engine's loop: SoA state advanced in rounds.

:meth:`~repro.timing.engine.DetailedEngine.run` has one body, this one.
Every issue port serves at most one instruction per ``issue_interval``
and the model latencies are integers by default, so ready times cluster
on cycle boundaries: all instructions that become ready at one
timestamp form a *round*.  A bucket queue (a dict keyed by timestamp
plus a heap of *distinct* times) hands out whole rounds; members of a
round are kept in push order, which is the engine's total event order.

A round is **replayed member by member**, in that order: issue-port
arbitration, latency, cache access, barrier bookkeeping, warp
retirement and dispatch, and every event emission happen per member.
This is the reference semantics, and it is the only path a run takes
when vector rounds are off.

A round of at least :data:`VEC_THRESHOLD` members is **vectorized**,
because within one timestamp the member effects factor cleanly:

* **Issue-port arbitration** is a per-port recurrence with a closed
  form: the ``k``-th same-port member of a round at time ``t`` issues at
  ``max(port_free, t) + k * issue_interval`` — one gather, one max, one
  scatter per round.
* **Fixed-latency classes** (ALU, LDS, branches, waitcnt) retire at
  ``issue + latency`` — a vector add.
* **Dependency-ready times** only reference *earlier* instructions of
  the *same* warp, and each warp has at most one in-flight instruction,
  so the dependee's retire time is already committed — a vector gather.
* **Stateful members** (cache accesses, barrier arrivals, warp
  retirement/dispatch) and members with event emissions are still
  replayed one by one, with the round's remaining members
  bulk-committed *between* them, so caches, barriers, the bucket queue
  and the attach-order event contract observe the member-by-member
  sequence.

Vector rounds are off for a whole run — one local decision in
:meth:`_BatchedRun.run`, counted as
``engine.batch.member_only.<reason>`` — when

* a watchdog is armed (``watchdog``): it ticks once per member, between
  member effects, and notes progress once per new timestamp;
* the start time (``fractional_start_time``) or an issue/ALU/branch/
  LDS/dispatch latency (``fractional_latency``) is not integer-valued:
  the closed-form port recurrence is bit-exact on integers only.

Per-warp state lives in stacked SoA numpy matrices (retire timestamps,
issue ports, encoded latencies, dependency indices — one row per
resident-warp slot).  ``collect_latency`` accumulates per-opcode sums
into dense float64 arrays with ``np.add.at``, which applies elements
sequentially in index order — the same addition sequence, hence the
same IEEE-754 bits, as accumulating member by member.

The bar is *bitwise*: ``tests/test_timing_batch.py`` holds vectorized
rounds to the member-by-member replay on cycles, event sequences and
``request_stop`` snapshots, and ``tests/test_timing_golden.py`` pins
the member-only runs.  Every run is timed under the ``timing.batch``
span with ``engine.batch.*`` counters.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from ..errors import SimulationStalled, TimingError
from ..isa.opcodes import OpClass, Opcode
from ..obs import (
    ENGINE_BARRIER,
    ENGINE_BB,
    ENGINE_INST,
    ENGINE_KERNEL,
    ENGINE_STALL,
    ENGINE_WAITCNT,
    ENGINE_WARP_DISPATCH,
    ENGINE_WARP_RETIRE,
    ENGINE_WG_DISPATCH,
)
from .engine import EngineResult

_CLS_SCALAR_ALU = int(OpClass.SCALAR_ALU)
_CLS_VECTOR_ALU = int(OpClass.VECTOR_ALU)
_CLS_SCALAR_MEM = int(OpClass.SCALAR_MEM)
_CLS_VECTOR_MEM = int(OpClass.VECTOR_MEM)
_CLS_LDS = int(OpClass.LDS)
_CLS_BRANCH = int(OpClass.BRANCH)
_CLS_BARRIER = int(OpClass.BARRIER)
_CLS_WAITCNT = int(OpClass.WAITCNT)
_CLS_END = int(OpClass.END)

#: op classes that issue through the CU's scalar port, indexable by class
_IS_SCALAR_PORT = [
    cls in (_CLS_SCALAR_ALU, _CLS_SCALAR_MEM, _CLS_BRANCH, _CLS_BARRIER,
            _CLS_WAITCNT, _CLS_END)
    for cls in range(9)
]

#: dense latency-table accumulator width (opcode ids are small ints)
_N_CODES = max(op.value for op in Opcode) + 1

#: rounds smaller than this are issued member-by-member (no numpy); the
#: vectorized round costs ~25-30 numpy dispatches regardless of width,
#: so it only beats the ~1.3us/event member path from ~2 dozen
#: same-cycle events up (measured; see docs/performance.md)
VEC_THRESHOLD = 24
#: higher break-even when every member must be replayed anyway
#: (instruction-event subscribers or a windowed-IPC bucket attached)
VEC_THRESHOLD_OBS = 48


class _SlotRef:
    """Identity token for one resident slot (what ``request_stop`` sees)."""

    __slots__ = ("slot", "warp_id", "in_stop_snapshot")

    def __init__(self, slot: int, warp_id: int):
        self.slot = slot
        self.warp_id = warp_id
        self.in_stop_snapshot = False


class _BatchedRun:
    """One engine run over SoA state (see module docstring)."""

    def __init__(self, engine):
        self.engine = engine
        # pool-offset cache keyed by id() of the (immutable, WarpPack-
        # shared) trace column lists; values pin the lists so ids stay
        # unique for the run
        self._trace_cache: Dict[tuple, tuple] = {}
        self.retire_mat = None
        self.wp = 0
        self.n_rows = 0
        # per-trace instruction pools: one row per *distinct* trace (a
        # WarpPack path group shares its column lists, so every warp of
        # a group shares one pool row); gathers stay in a few KB of hot
        # memory instead of striding per-slot matrices
        self.lat_pool = np.zeros(0, dtype=np.int32)
        self.mask_pool = np.zeros(0, dtype=bool)
        self.depn_pool = np.zeros(0, dtype=np.int32)
        self.code_pool = np.zeros(0, dtype=np.int32)
        self._pool_used = 0

    # -- SoA row management ------------------------------------------------

    def _ensure_capacity(self, width: int) -> bool:
        """Grow the retire matrix to hold traces of ``width`` instructions.

        Rows are pre-sized once (max concurrently-resident slots); only
        the column count grows, geometrically, when a longer trace
        arrives.  Returns True when a reallocation happened (callers
        must refresh any hoisted view of ``retire_rav``).
        """
        wp = width + 1
        cols = self.wp
        if cols >= wp:
            return False
        if cols:
            wp = max(wp, cols + (cols >> 1))
        retire = np.zeros((self.n_rows, wp), dtype=np.float64)
        if cols:
            retire[:, :cols] = self.retire_mat
        self.retire_mat = retire
        self.wp = wp
        self.retire_rav = retire.reshape(-1)
        return True

    def _convert_trace(self, trace) -> int:
        """Pool offset of one trace's per-instruction vec-round data.

        Each pool row holds the trace's encoded latencies, scalar-port
        mask, and *next*-instruction dependency column (``dep[i + 1]``
        pre-shifted so the round's dep gather needs no index add), with
        ``-1`` remapped to the slot's sentinel column ``n`` (whose
        retire cell holds 0.0).  Cached by identity of the opclass/dep
        list pair.
        """
        cls_list = trace.opclass
        dep_list = trace.dep
        key = (id(cls_list), id(dep_list))
        cached = self._trace_cache.get(key)
        if cached is not None:
            return cached[2]
        n = trace.n_insts
        used = self._pool_used
        need = used + n
        if need > len(self.lat_pool):
            cap = max(need, 2 * len(self.lat_pool), 1024)
            for name in ("lat_pool", "mask_pool", "depn_pool", "code_pool"):
                old = getattr(self, name)
                grown = np.zeros(cap, dtype=old.dtype)
                grown[:used] = old[:used]
                setattr(self, name, grown)
        self._pool_used = need
        cls = np.asarray(cls_list, dtype=np.int64)
        self.lat_pool[used:need] = self._lat_lut[cls]
        self.mask_pool[used:need] = self._scalar_lut[cls]
        if self._collect_latency:
            self.code_pool[used:need] = trace.opcode
        depn = np.full(n, -1, dtype=np.int32)
        if n > 1:
            depn[:n - 1] = dep_list[1:]
        self.depn_pool[used:need] = np.where(depn < 0, np.int32(n), depn)
        self._trace_cache[key] = (cls_list, dep_list, used)
        return used

    # -- the run -----------------------------------------------------------

    def run(self) -> EngineResult:
        e = self.engine
        kernel = e.kernel
        config = e.config
        hierarchy = e.hierarchy
        bus = e.bus
        result = EngineResult()
        result.ipc_bucket = e.ipc_bucket
        e._result = result

        n_cu = config.n_cu
        spc = config.simd_per_cu
        interval = config.issue_interval
        lat_branch = config.branch_lat
        start = e.start_time
        is_scalar_port = _IS_SCALAR_PORT

        wg_subs = bus.channel(ENGINE_WG_DISPATCH).subscribers
        dispatch_subs = bus.channel(ENGINE_WARP_DISPATCH).subscribers
        bb_subs = bus.channel(ENGINE_BB).subscribers
        retire_subs = bus.channel(ENGINE_WARP_RETIRE).subscribers
        barrier_subs = bus.channel(ENGINE_BARRIER).subscribers
        waitcnt_subs = bus.channel(ENGINE_WAITCNT).subscribers
        stall_subs = bus.channel(ENGINE_STALL).subscribers
        inst_subs = bus.channel(ENGINE_INST).subscribers
        has_bb = bool(bb_subs)
        bucket = e.ipc_bucket
        ipc_series: List[int] = []
        e.live_ipc_series = ipc_series

        # encoded latency LUT: normal classes hold their latency;
        # stateful classes hold -(cls + 1) so one gathered row drives
        # both the vector add and the per-member special dispatch
        lat_lut = np.empty(9, dtype=np.int32)
        lat_lut[_CLS_SCALAR_ALU] = config.scalar_alu_lat
        lat_lut[_CLS_VECTOR_ALU] = config.vector_alu_lat
        lat_lut[_CLS_SCALAR_MEM] = -(_CLS_SCALAR_MEM + 1)
        lat_lut[_CLS_VECTOR_MEM] = -(_CLS_VECTOR_MEM + 1)
        lat_lut[_CLS_LDS] = config.lds_lat
        lat_lut[_CLS_BRANCH] = lat_branch
        lat_lut[_CLS_BARRIER] = -(_CLS_BARRIER + 1)
        lat_lut[_CLS_WAITCNT] = (-(_CLS_WAITCNT + 1) if waitcnt_subs
                                 else lat_branch)
        lat_lut[_CLS_END] = -(_CLS_END + 1)
        self._lat_lut = lat_lut
        self._scalar_lut = np.asarray(_IS_SCALAR_PORT, dtype=bool)

        # dense per-opcode latency accumulators; np.add.at applies
        # elements sequentially, so a vector round performs the exact
        # addition sequence of its member-by-member replay
        collect_latency = e.collect_latency
        self._collect_latency = collect_latency
        if collect_latency:
            lat_sum = np.zeros(_N_CODES, dtype=np.float64)
            lat_cnt = np.zeros(_N_CODES, dtype=np.int64)
            add_at = np.add.at

        # issue ports: scalar port of CU c is c; SIMD s of CU c is
        # n_cu + c * spc + s
        n_ports = n_cu + n_cu * spc
        PF = np.full(n_ports, float(start), dtype=np.float64)
        PF_item = PF.item

        # per-slot python-side state (member path + stateful members)
        cls_l: List[list] = []       # trace opclass list
        dep_l: List[list] = []       # trace dep list (raw, -1 allowed)
        mem_l: List[list] = []       # trace mem_lines
        code_l: List[list] = []      # trace opcode ids (latency table)
        warp_l: List[int] = []
        wg_l: List[int] = []
        cu_l: List[int] = []
        simd_l: List[int] = []
        disp_l: List[float] = []
        ref_l: List[Optional[_SlotRef]] = []
        bbptr_l: List[int] = []
        bbpc_l: List[int] = []
        bbstart_l: List[float] = []
        bbpcs_l: List[list] = []
        bbstarts_l: List[list] = []
        nba_l: List[int] = []        # next bb boundary (or -1)

        free_slot_ids: List[List[int]] = [[] for _ in range(n_cu)]
        free_slots = [config.max_warps_per_cu] * n_cu
        slot_cursor = [0] * n_cu

        e._wg_queue = [
            (wg, list(kernel.warps_in_workgroup(wg)))
            for wg in range(kernel.n_workgroups)
        ]
        e._wg_next = 0
        wg_sizes = {wg: len(w) for wg, w in e._wg_queue}
        total_warps = sum(wg_sizes.values())
        # slots are recycled per CU, so concurrently-live rows never
        # exceed the machine's capacity (or the whole kernel, if smaller)
        self.n_rows = max(
            1, min(total_warps, n_cu * config.max_warps_per_cu))
        # instruction cursors: numpy so whole rounds advance in one
        # scatter; .item() reads stay cheap on the member path
        cur_arr = np.zeros(self.n_rows, dtype=np.int64)
        cur_item = cur_arr.item
        # per-slot pool offset and the slot's two issue ports (the round
        # picks per instruction via the pooled scalar-port mask)
        tr_off = np.zeros(self.n_rows, dtype=np.int64)
        sport = np.zeros(self.n_rows, dtype=np.int32)
        vport = np.zeros(self.n_rows, dtype=np.int32)
        next_slot = 0
        barrier_state: Dict[int, List] = {}  # wg -> [arrived, max_t, parked]
        resident = e._resident

        # bucket queue: timestamp -> members (append order == seq order)
        buckets: Dict[float, List[int]] = {}
        times: List[float] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        metrics = bus.metrics
        metrics.counter("engine.batch.runs").inc()
        trace_provider = e.trace_provider
        rounds_vec = rounds_scalar = 0
        insts_vec = insts_scalar = 0

        def push(rd: float, s: int) -> None:
            lst = buckets.get(rd)
            if lst is None:
                buckets[rd] = [s]
                heappush(times, rd)
            else:
                lst.append(s)

        def dispatch_wg(cu: int, time: float) -> bool:
            """Dispatch the next queued workgroup onto ``cu`` if it fits."""
            nonlocal next_slot
            if e._stop_requested or e._wg_next >= len(e._wg_queue):
                return False
            wg_id, warps = e._wg_queue[e._wg_next]
            if free_slots[cu] < len(warps):
                return False
            free_slots[cu] -= len(warps)
            e._wg_next += 1
            if wg_subs:
                for fn in wg_subs:
                    fn(wg_id, cu, time, len(warps))
            for warp_id in warps:
                trace = trace_provider(warp_id)
                simd = slot_cursor[cu] % spc
                slot_cursor[cu] += 1
                ids = free_slot_ids[cu]
                if ids:
                    s = ids.pop()
                else:
                    s = next_slot
                    next_slot += 1
                    for col in (cls_l, dep_l, mem_l, code_l,
                                warp_l, wg_l, cu_l, simd_l, disp_l,
                                ref_l, bbptr_l, bbpc_l, bbstart_l,
                                bbpcs_l, bbstarts_l, nba_l):
                        col.append(None)
                n = trace.n_insts
                self._ensure_capacity(n)
                tr_off[s] = self._convert_trace(trace)
                sport[s] = cu
                vport[s] = n_cu + cu * spc + simd
                self.retire_mat[s, n] = 0.0  # dep sentinel for -1
                cur_arr[s] = 0
                cls_l[s] = trace.opclass
                dep_l[s] = trace.dep
                mem_l[s] = trace.mem_lines
                code_l[s] = trace.opcode
                warp_l[s] = warp_id
                wg_l[s] = wg_id
                cu_l[s] = cu
                simd_l[s] = simd
                disp_l[s] = time
                ref = _SlotRef(s, warp_id)
                ref_l[s] = ref
                resident.add(ref)
                if has_bb:
                    bbptr_l[s] = 0
                    bbpc_l[s] = -1
                    bbstart_l[s] = time
                    pcs = [pc for pc, _ in trace.bb_seq]
                    starts = [at for _, at in trace.bb_seq]
                    bbpcs_l[s] = pcs
                    bbstarts_l[s] = starts
                    nba_l[s] = starts[0] if starts else -1
                push(time, s)
                if dispatch_subs:
                    for fn in dispatch_subs:
                        fn(warp_id, time)
            return True

        # initial dispatch: fill CUs round-robin until nothing more fits;
        # the command processor dispatches one workgroup every
        # cp_dispatch_interval cycles, staggering the start-up burst
        cp_interval = config.cp_dispatch_interval
        cp_time = start
        progress = True
        while progress:
            progress = False
            for cu in range(n_cu):
                if dispatch_wg(cu, cp_time):
                    cp_time += cp_interval
                    progress = True

        # every member must be replayed when these are attached
        full_replay = bool(inst_subs) or bucket is not None
        vec_threshold = VEC_THRESHOLD_OBS if full_replay else VEC_THRESHOLD
        # vector rounds allowed?  (reasons: see the module docstring)
        wd = None
        if e.watchdog is not None:
            wd = e.watchdog.for_engine(f"engine({kernel.name})")
            if not wd.armed:
                wd = None
        member_only = None
        if wd is not None:
            member_only = "watchdog"
        elif not float(start).is_integer():
            member_only = "fractional_start_time"
        elif not all(float(lat).is_integer() for lat in (
                interval, config.scalar_alu_lat, config.vector_alu_lat,
                lat_branch, config.lds_lat, cp_interval)):
            member_only = "fractional_latency"
        if member_only is not None:
            metrics.counter("engine.batch.member_only." + member_only).inc()
            vec_threshold = float("inf")
        vector_access_many = hierarchy.vector_access_many
        scalar_access = hierarchy.scalar_access
        n_insts = 0
        end_time = 0.0
        aborted = False
        if self.wp:
            wp = self.wp
            ret_rav = self.retire_rav

        while times and not aborted:
            if e._stop_requested and e._abort_requested:
                if e._now > end_time:
                    end_time = e._now
                break
            t = heappop(times)
            members = buckets.pop(t, None)
            if members is None:
                continue  # stale entry: same-time bucket already drained
            e._now = t
            if wd is not None and t > start:
                wd.note_progress()  # round times strictly increase

            # a round can refill its own timestamp (END dispatch, zero
            # issue_interval): re-pop until the bucket stays empty
            while members is not None:
                if e._abort_requested:
                    # set by an emission at the tail of the previous
                    # same-time round
                    aborted = True
                    break
                r = len(members)
                ready_list = None
                in_vec = False
                spec_list = None  # None => replay every member

                if r >= vec_threshold:
                    # -- vectorized round: ports, latencies, dep-ready --
                    rounds_vec += 1
                    insts_vec += r
                    in_vec = True
                    m = np.fromiter(members, np.int64, r)
                    cur = cur_arr[m]
                    mw = m * wp
                    flat = mw + cur
                    ft = tr_off[m] + cur
                    lat = self.lat_pool[ft]
                    port = np.where(self.mask_pool[ft], sport[m], vport[m])
                    pf = PF[port]
                    issue = np.maximum(pf, t)
                    cnt = np.bincount(port, minlength=n_ports)
                    cntp = cnt[port]
                    # same-port duplicates write identical values, so
                    # the scatter is order-independent
                    if interval == 1:
                        PF[port] = issue + cntp
                    else:
                        PF[port] = issue + cntp * interval
                    dups = int(cntp.max()) > 1
                    if dups:
                        # rare: the k-th same-port member (seq order)
                        # issues k intervals late; only colliders —
                        # members on a port with count > 1 — need fixing
                        seen: Dict[int, int] = {}
                        for k in np.nonzero(cntp > 1)[0].tolist():
                            p = port[k]
                            c = seen.get(p, 0)
                            if c:
                                issue[k] += c * interval
                            seen[p] = c + 1
                    retire = issue + lat
                    # scatter-then-gather: a dep equal to the current
                    # instruction reads the retire committed just above
                    ret_rav[flat] = retire
                    rdep = ret_rav[mw + self.depn_pool[ft]]
                    ready = issue + interval
                    np.maximum(ready, rdep, out=ready)
                    if collect_latency and not full_replay:
                        codes_r = self.code_pool[ft]
                        lats_r = retire - issue
                    spec = lat < 0
                    if has_bb:
                        nba = np.fromiter(
                            map(nba_l.__getitem__, members), np.int64, r)
                        spec |= nba == cur
                    if stall_subs:
                        if dups:
                            spec |= (issue > t) | (cntp > 1)
                        else:
                            spec |= issue > t
                    if not full_replay:
                        spec_idx = np.nonzero(spec)[0]
                        if spec_idx.size == 0:
                            # fully batched commit
                            n_insts += r
                            if collect_latency:
                                add_at(lat_sum, codes_r, lats_r)
                                add_at(lat_cnt, codes_r, 1)
                            cur_arr[m] += 1
                            for s, rd in zip(members, ready.tolist()):
                                lst = buckets.get(rd)
                                if lst is None:
                                    buckets[rd] = [s]
                                    heappush(times, rd)
                                else:
                                    lst.append(s)
                            members = buckets.pop(t, None)
                            continue
                        # plain members advance here in one scatter; the
                        # replayed specials advance in their handlers
                        cur_arr[m[~spec]] += 1
                        spec_list = spec_idx.tolist()
                    issue_item = issue.item
                    retire_item = retire.item
                    lat_item = lat.item
                    ready_list = ready.tolist()
                else:
                    rounds_scalar += 1
                    insts_scalar += r

                # -- member replay, in push order.  With spec_list set,
                # only the stateful / emitting members replay; the rest
                # bulk-commit between them, preserving the exact order
                # of every push and emission ---------------------------
                prev = 0
                for k in (spec_list if spec_list is not None
                          else range(r)):
                    if e._abort_requested:
                        aborted = True
                        break
                    if spec_list is not None and prev < k:
                        # bulk-commit the plain members ahead of this one
                        n_insts += k - prev
                        if collect_latency:
                            add_at(lat_sum, codes_r[prev:k], lats_r[prev:k])
                            add_at(lat_cnt, codes_r[prev:k], 1)
                        for kk in range(prev, k):
                            s = members[kk]
                            rd = ready_list[kk]
                            lst = buckets.get(rd)
                            if lst is None:
                                buckets[rd] = [s]
                                heappush(times, rd)
                            else:
                                lst.append(s)
                    prev = k + 1
                    if wd is not None:
                        wd.tick()
                    s = members[k]
                    i = cur_item(s)
                    cls = cls_l[s][i]
                    cu = cu_l[s]

                    if in_vec:
                        issue = issue_item(k)
                        enc = lat_item(k)
                        if stall_subs and issue > t:
                            for fn in stall_subs:
                                fn(warp_l[s], t, issue - t,
                                   "scalar" if is_scalar_port[cls]
                                   else "simd")
                    else:
                        if is_scalar_port[cls]:
                            p = cu
                        else:
                            p = n_cu + cu * spc + simd_l[s]
                        pf = PF_item(p)
                        issue = pf if pf > t else t
                        PF[p] = issue + interval
                        if stall_subs and issue > t:
                            for fn in stall_subs:
                                fn(warp_l[s], t, issue - t,
                                   "scalar" if is_scalar_port[cls]
                                   else "simd")
                        enc = 0

                    if has_bb and i == nba_l[s]:
                        if bbpc_l[s] >= 0:
                            for fn in bb_subs:
                                fn(warp_l[s], bbpc_l[s], bbstart_l[s],
                                   issue)
                        ptr = bbptr_l[s]
                        bbpc_l[s] = bbpcs_l[s][ptr]
                        bbstart_l[s] = issue
                        ptr += 1
                        bbptr_l[s] = ptr
                        starts = bbstarts_l[s]
                        nba_l[s] = starts[ptr] if ptr < len(starts) else -1

                    if cls == _CLS_BARRIER:
                        state = barrier_state.setdefault(
                            wg_l[s], [0, 0.0, []])
                        state[0] += 1
                        if issue > state[1]:
                            state[1] = issue
                        n_insts += 1
                        if inst_subs:
                            for fn in inst_subs:
                                fn(warp_l[s], cls, issue, issue)
                        if state[0] < wg_sizes[wg_l[s]]:
                            state[2].append(s)
                            continue  # parked until the last arrival
                        release = state[1] + 1
                        del barrier_state[wg_l[s]]
                        if barrier_subs:
                            for fn in barrier_subs:
                                fn(wg_l[s], release, wg_sizes[wg_l[s]])
                        if bucket is not None:
                            idx = int(release // bucket)
                            for _ in state[2] + [s]:
                                _bump(ipc_series, idx)
                        for other in state[2] + [s]:
                            oi = cur_item(other)
                            ret_rav[other * wp + oi] = release
                            oi += 1
                            cur_arr[other] = oi
                            ready_o = release + 1
                            odep = dep_l[other][oi]
                            if odep >= 0:
                                od = ret_rav.item(other * wp + odep)
                                if od > ready_o:
                                    ready_o = od
                            push(ready_o, other)
                        continue

                    if cls == _CLS_END:
                        retire = issue
                        ret_rav[s * wp + i] = retire
                        n_insts += 1
                        if inst_subs:
                            for fn in inst_subs:
                                fn(warp_l[s], cls, issue, retire)
                        if bucket is not None:
                            _bump(ipc_series, int(retire // bucket))
                        result.warp_times[warp_l[s]] = (disp_l[s], retire)
                        if retire > end_time:
                            end_time = retire
                        if has_bb and bbpc_l[s] >= 0:
                            for fn in bb_subs:
                                fn(warp_l[s], bbpc_l[s], bbstart_l[s],
                                   retire)
                        if retire_subs:
                            for fn in retire_subs:
                                fn(warp_l[s], disp_l[s], retire)
                        free_slots[cu] += 1
                        ref = ref_l[s]
                        resident.discard(ref)
                        ref_l[s] = None
                        free_slot_ids[cu].append(s)
                        if ref.in_stop_snapshot:
                            result.cu_slot_free.setdefault(
                                cu, []).append(retire)
                        if dispatch_wg(cu, retire) and wp != self.wp:
                            # a longer trace grew the retire matrix
                            wp = self.wp
                            ret_rav = self.retire_rav
                        continue

                    if cls == _CLS_VECTOR_MEM:
                        lines = mem_l[s][i]
                        if lines:
                            retire = vector_access_many(cu, lines, issue)
                        else:
                            retire = issue + 1
                        ret_rav[s * wp + i] = retire
                    elif cls == _CLS_SCALAR_MEM:
                        retire = scalar_access(cu, mem_l[s][i][0], issue)
                        ret_rav[s * wp + i] = retire
                    elif in_vec:
                        # fixed latency, already committed vector-wise
                        retire = retire_item(k)
                        if waitcnt_subs and cls == _CLS_WAITCNT:
                            retire = issue + lat_branch
                            ret_rav[s * wp + i] = retire
                            for fn in waitcnt_subs:
                                fn(warp_l[s], issue)
                    else:
                        if cls == _CLS_VECTOR_ALU:
                            retire = issue + config.vector_alu_lat
                        elif cls == _CLS_SCALAR_ALU:
                            retire = issue + config.scalar_alu_lat
                        elif cls == _CLS_LDS:
                            retire = issue + config.lds_lat
                        elif cls == _CLS_BRANCH or cls == _CLS_WAITCNT:
                            retire = issue + lat_branch
                            if waitcnt_subs and cls == _CLS_WAITCNT:
                                for fn in waitcnt_subs:
                                    fn(warp_l[s], issue)
                        else:  # pragma: no cover - defensive
                            raise TimingError(f"unknown op class {cls}")
                        ret_rav[s * wp + i] = retire

                    n_insts += 1
                    if inst_subs:
                        for fn in inst_subs:
                            fn(warp_l[s], cls, issue, retire)
                    if bucket is not None:
                        _bump(ipc_series, int(retire // bucket))
                    if collect_latency:
                        code = code_l[s][i]
                        lat_sum[code] += retire - issue
                        lat_cnt[code] += 1

                    i += 1
                    cur_arr[s] = i
                    if in_vec and enc >= 0 and not (
                            waitcnt_subs and cls == _CLS_WAITCNT):
                        ready_m = ready_list[k]
                    else:
                        ready_m = issue + interval
                        mdep = dep_l[s][i]
                        if mdep >= 0:
                            md = ret_rav.item(s * wp + mdep)
                            if md > ready_m:
                                ready_m = md
                    lst = buckets.get(ready_m)
                    if lst is None:
                        buckets[ready_m] = [s]
                        heappush(times, ready_m)
                    else:
                        lst.append(s)

                if aborted:
                    break
                if spec_list is not None and prev < r:
                    if e._abort_requested:
                        # the round's last replayed member aborted the
                        # run from one of its emissions
                        aborted = True
                        break
                    n_insts += r - prev
                    if collect_latency:
                        add_at(lat_sum, codes_r[prev:r], lats_r[prev:r])
                        add_at(lat_cnt, codes_r[prev:r], 1)
                    for kk in range(prev, r):
                        s = members[kk]
                        rd = ready_list[kk]
                        lst = buckets.get(rd)
                        if lst is None:
                            buckets[rd] = [s]
                            heappush(times, rd)
                        else:
                            lst.append(s)
                members = buckets.pop(t, None)

        if aborted and t > end_time:
            end_time = t

        if barrier_state and not aborted:
            parked = sorted(
                warp_l[s] for state in barrier_state.values()
                for s in state[2])
            raise SimulationStalled(
                f"kernel {kernel.name!r}: barrier deadlock — warps "
                f"{parked} parked in workgroups "
                f"{sorted(barrier_state)} with no runnable warp left")

        result.n_insts = n_insts
        result.end_time = end_time
        if bucket is not None:
            result.ipc_series = ipc_series
        if collect_latency:
            result.latency_table = {
                int(code): float(lat_sum[code] / lat_cnt[code])
                for code in np.nonzero(lat_cnt)[0]
            }
        result.mem_stats = hierarchy.stats()
        bus.emit(ENGINE_KERNEL, kernel.name, start, result.end_time,
                 n_insts, result.stopped)
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.insts").inc(n_insts)
        metrics.counter("engine.batch.rounds").inc(rounds_vec)
        metrics.counter("engine.batch.scalar_rounds").inc(rounds_scalar)
        metrics.counter("engine.batch.batched_insts").inc(insts_vec)
        metrics.counter("engine.batch.scalar_insts").inc(insts_scalar)
        e._result = None
        e._resident = set()
        return result


def _bump(series: List[int], idx: int) -> None:
    if idx >= len(series):
        series.extend([0] * (idx + 1 - len(series)))
    series[idx] += 1
