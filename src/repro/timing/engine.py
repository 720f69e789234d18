"""Event-driven detailed timing engine (the "detailed mode" simulator).

The engine replays per-warp functional traces against the machine model:
workgroups are dispatched to compute units as slots free up; each CU
issues instructions in order per warp through per-SIMD and scalar issue
ports; memory operations traverse the cache hierarchy; ``s_barrier``
synchronises workgroups; dependencies stall the per-warp in-order stream.

**The loop.**  :meth:`DetailedEngine.run` has one body.  All
instructions that become ready at one timestamp form a *round*; a
bucket queue (a dict keyed by timestamp plus a heap of *distinct*
times) hands out whole rounds.  Members of a round are kept in push
order, which is the engine's total event order, and are replayed one by
one: issue-port arbitration, latency, cache access, barrier bookkeeping,
warp retirement and dispatch, and every event emission, per member.

**The state** is Python-native: every member touches a handful of
scalars, and a list subscript is the cheapest way to reach one (a numpy
scalar read or write costs several times more; ``docs/performance.md``).

* Per resident-warp *slot*, parallel lists: the instruction cursor, the
  trace's ``opclass`` / ``dep`` / ``mem_lines`` / ``opcode`` lists (its
  own, nothing copied or converted), a cursor into ``mem_lines`` (one
  record per memory instruction, in issue order; a warp that ends with
  one left, or runs out, is a ``TimingError``), the CU (also its scalar
  issue port), the SIMD issue port, the dispatch bookkeeping and, while
  ``engine.bb`` has subscribers, the open block's pc, start and the
  path's block map; the class column then reads ``cls + _N_CLASSES``
  at a block's first instruction.
* A plain list of port-free times, one cell per issue port.
* A per-class latency list: ``lat_of[cls] >= 0`` is a fixed latency
  (the configuration's exact value, fractional or not); a negative cell
  sends the member to the stateful handlers (a marked block start, then
  memory, barrier, end, and waitcnt while it has a subscriber).
* **One ``array('d')`` retire ring per slot.**  No instruction reads
  a retire time further back than its path's longest dependency
  distance, so instruction ``i`` writes cell ``i & (K - 1)``, where
  ``K`` is the smallest power of two above that distance: cell
  ``d mod K`` is next overwritten by instruction ``d + K``, and every
  reader ``j`` of ``d`` issues before it (``j - d < K``).  The slot
  reads its path's dependency column remapped the same way, computed
  once per distinct column while a resident slot uses it.  The ring
  is one cell longer than ``K`` and that cell is never written, so a
  dependency of ``-1`` ("none") reads 0.0 through the negative index
  and the ready time needs no branch (simulated time is never
  negative).  A slot keeps a ring that fits.

All instrumentation flows through the :mod:`repro.obs` event bus:
workgroup-dispatch, warp-dispatch, basic-block, barrier, waitcnt,
issue-port-stall, instruction-class and kernel-span events.  With no
subscriber on a kind, its publish is a single falsy-list check — the
hot loop pays nothing by default and allocates no event objects.  Runs
are timed under the ``timing`` span and counted in ``engine.{runs,insts}``
and ``engine.batch.{runs,scalar_rounds,scalar_insts}`` (rounds, members).

Sampling methodologies observe a run through
:meth:`DetailedEngine.subscribe`: a handler registered for an event type
is subscribed to the engine's bus when :meth:`DetailedEngine.run` starts
and released when it returns or raises, so nothing an engine wired
outlives its run.  A handler may call
:meth:`DetailedEngine.request_stop` to halt dispatch of further
workgroups — the engine then drains resident warps and reports the state
needed to continue with a fast model (undispatched warps, per-CU slot
release times).

Registration-order contract: a channel delivers every event to its
subscribers in subscription order, and :meth:`run` subscribes handlers
in registration order — so two observers registered on the same engine
see byte-identical event sequences, and one registered first always sees
an event before one registered later.  Registering the same handler for
the same event twice is a :class:`~repro.errors.ConfigError`.

The bar for any change to the loop is *bitwise*:
``tests/test_timing_golden.py`` replays corpora recorded from the two
engines it replaced (the heap loop and the numpy vector rounds).
"""

from __future__ import annotations

import heapq
from array import array
from typing import Callable, Dict, List, Optional, Tuple

from ..config.gpu_configs import GpuConfig
from ..errors import ConfigError, SimulationStalled, TimingError
from ..functional.batch import PackProvider
from ..functional.executor import FunctionalExecutor
from ..functional.kernel import Kernel
from ..functional.trace import WarpTrace
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
    EventBus,
    EventType,
    current_bus,
)
from ..reliability.watchdog import Watchdog, WatchdogConfig, deadline_of
from .caches import MemoryHierarchy

TraceProvider = Callable[[int], WarpTrace]

_CLS_SCALAR_ALU = int(OpClass.SCALAR_ALU)
_CLS_VECTOR_ALU = int(OpClass.VECTOR_ALU)
_CLS_SCALAR_MEM = int(OpClass.SCALAR_MEM)
_CLS_VECTOR_MEM = int(OpClass.VECTOR_MEM)
_CLS_LDS = int(OpClass.LDS)
_CLS_BRANCH = int(OpClass.BRANCH)
_CLS_BARRIER = int(OpClass.BARRIER)
_CLS_WAITCNT = int(OpClass.WAITCNT)
_CLS_END = int(OpClass.END)
_N_CLASSES = max(int(cls) for cls in OpClass) + 1

#: op classes that issue through the CU's scalar port, indexable by class
#: (and by a block start's ``cls + _N_CLASSES``)
_IS_SCALAR_PORT = [
    cls in (_CLS_SCALAR_ALU, _CLS_SCALAR_MEM, _CLS_BRANCH, _CLS_BARRIER,
            _CLS_WAITCNT, _CLS_END)
    for cls in range(_N_CLASSES)
] * 2

#: dense latency-table accumulator width (opcode ids are small ints)
_N_CODES = max(op.value for op in Opcode) + 1


class EngineResult:
    """Outcome of one (possibly stopped-early) detailed engine run."""

    def __init__(self) -> None:
        self.end_time: float = 0.0
        self.n_insts: int = 0
        self.warp_times: Dict[int, Tuple[float, float]] = {}
        self.ipc_series: Optional[List[int]] = None
        self.ipc_bucket: Optional[float] = None
        self.latency_table: Dict[int, float] = {}
        self.undispatched: List[int] = []
        self.cu_slot_free: Dict[int, List[float]] = {}
        self.stopped: bool = False
        self.stop_time: float = 0.0
        self.mem_stats: Dict[str, int] = {}


class DetailedEngine:
    """Runs one kernel in detailed mode (optionally stopping early)."""

    def __init__(
        self,
        kernel: Kernel,
        config: GpuConfig,
        hierarchy: Optional[MemoryHierarchy] = None,
        trace_provider: Optional[TraceProvider] = None,
        ipc_bucket: Optional[float] = None,
        collect_latency: bool = False,
        watchdog: Optional[WatchdogConfig] = None,
        bus: Optional[EventBus] = None,
        deadline: Optional[float] = None,
    ):
        if kernel.wg_size > config.max_warps_per_cu:
            raise ConfigError(
                f"workgroup of {kernel.wg_size} warps exceeds CU capacity "
                f"{config.max_warps_per_cu}"
            )
        self.kernel = kernel
        self.config = config
        self.hierarchy = hierarchy or MemoryHierarchy(config)
        self.bus = bus if bus is not None else current_bus()
        # a methodology's instant bounds its whole evaluation; an engine
        # built on its own opens its own window
        self.deadline = deadline if deadline is not None \
            else deadline_of(watchdog)
        self.max_events = watchdog.max_events if watchdog is not None \
            else None
        # execution-driven unless the caller serves traces: each warp is
        # functionally emulated (in chunks) when it is first dispatched,
        # accounted on this engine's bus
        self.trace_provider = (
            trace_provider if trace_provider is not None
            else PackProvider(kernel, executor=FunctionalExecutor(
                kernel, bus=self.bus, deadline=self.deadline)))
        self.ipc_bucket = ipc_bucket
        self.collect_latency = collect_latency
        self._subscriptions: List[Tuple[EventType, Callable]] = []
        self._stop_requested = False
        self._abort_requested = False
        self._result: Optional[EngineResult] = None
        self._resident: set = set()       # slots holding a live warp
        self._stop_snapshot: frozenset = frozenset()
        self._now: float = 0.0
        self._wg_queue: List[Tuple[int, List[int]]] = []
        self._wg_next = 0

    def subscribe(self, event_type: EventType, handler: Callable) -> None:
        """Deliver ``event_type`` to ``handler`` for the span of :meth:`run`.

        Handlers reach the engine's bus in registration order when the
        run starts — which fixes delivery order: one registered earlier
        sees every event before one registered later — and leave it
        when the run returns or raises.  The same handler for the same
        event twice raises :class:`~repro.errors.ConfigError` (it would
        be delivered every event twice).
        """
        if (event_type, handler) in self._subscriptions:
            raise ConfigError(
                f"{handler!r} is already subscribed to {event_type.name}")
        self._subscriptions.append((event_type, handler))

    def request_stop(self) -> None:
        """Stop dispatching further workgroups (resident warps drain).

        Snapshot taken immediately: the still-resident warps' retire times
        seed the fast-model continuation, and the not-yet-dispatched warps
        are reported in ``result.undispatched``.
        """
        if self._stop_requested:
            return
        self._stop_requested = True
        result = self._result
        if result is None:
            return
        result.stopped = True
        result.stop_time = self._now
        # no workgroup is dispatched after a stop, so a slot id keeps
        # naming the same warp until it retires
        self._stop_snapshot = frozenset(self._resident)
        result.undispatched = [
            warp_id
            for wg in range(self._wg_next, len(self._wg_queue))
            for warp_id in self._wg_queue[wg][1]
        ]

    def request_abort(self) -> None:
        """Terminate the run immediately (resident warps are discarded).

        Used by extrapolating methodologies (e.g. PKA) that need no drain:
        once a stable IPC is observed, the remaining simulation adds no
        information.  Implies :meth:`request_stop`.
        """
        self.request_stop()
        self._abort_requested = True

    @property
    def now(self) -> float:
        """Current simulated time (valid while :meth:`run` executes)."""
        return self._now

    def run(self) -> EngineResult:
        """Run the kernel; returns the (possibly stopped-early) result.

        Handlers registered through :meth:`subscribe` are on the
        engine's bus for exactly this call, even when it raises.
        """
        bus = self.bus
        for etype, fn in self._subscriptions:
            bus.subscribe(etype, fn)
        try:
            with bus.metrics.span("timing"):
                return self._replay()
        finally:
            for etype, fn in self._subscriptions:
                bus.unsubscribe(etype, fn)
            self._subscriptions = []  # an observer holds its engine

    def _replay(self) -> EngineResult:
        """The engine's one loop (see the module docstring)."""
        kernel = self.kernel
        config = self.config
        hierarchy = self.hierarchy
        bus = self.bus
        result = EngineResult()
        result.ipc_bucket = self.ipc_bucket
        self._result = result

        n_cu = config.n_cu
        spc = config.simd_per_cu
        # float(n) is exact, and float + float is the interpreter's fast add
        interval = float(config.issue_interval)
        lat_branch = float(config.branch_lat)
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
        bucket = self.ipc_bucket
        ipc_series: List[int] = []
        self.live_ipc_series = ipc_series

        # per-class latency: the configuration's exact values (a
        # fractional latency stays fractional); stateful classes and
        # marked block starts are negative and go to the handlers below
        lat_of = [-1.0] * (2 * _N_CLASSES)
        lat_of[_CLS_SCALAR_ALU] = float(config.scalar_alu_lat)
        lat_of[_CLS_VECTOR_ALU] = float(config.vector_alu_lat)
        lat_of[_CLS_LDS] = float(config.lds_lat)
        lat_of[_CLS_BRANCH] = lat_branch
        if not waitcnt_subs:
            lat_of[_CLS_WAITCNT] = lat_branch

        # memory opcodes only: a fixed-latency class would read ``lat_of``
        # back, and the common member path stays free of accounting
        collect_latency = self.collect_latency
        if collect_latency:
            lat_sum = [0.0] * _N_CODES
            lat_cnt = [0] * _N_CODES

        # issue ports: scalar port of CU c is c; SIMD s of CU c is
        # n_cu + c * spc + s
        port_free = [0.0] * (n_cu + n_cu * spc)

        self._wg_queue = [
            (wg, list(kernel.warps_in_workgroup(wg)))
            for wg in range(kernel.n_workgroups)
        ]
        self._wg_next = 0
        wg_sizes = {wg: len(w) for wg, w in self._wg_queue}
        # slots are recycled per CU, so concurrently-live slots never
        # exceed the machine's capacity (or the whole kernel, if smaller)
        n_slots = max(1, min(sum(wg_sizes.values()),
                             n_cu * config.max_warps_per_cu))

        # per-slot state, one parallel list per field
        cur_l = [0] * n_slots              # instruction cursor
        cls_l: List[list] = [None] * n_slots   # trace opclass column
        dep_l: List[list] = [None] * n_slots   # dep column, ring cells
        mask_l = [0] * n_slots             # ring size - 1
        ring_l: List[list] = [None] * n_slots  # the slot's rings entry
        mem_l: List[list] = [None] * n_slots   # trace mem_lines records
        mcur_l = [0] * n_slots             # next memory record
        code_l: List[list] = [None] * n_slots  # trace opcode column
        ret_l: List[array] = [None] * n_slots  # retire ring, see docstring
        cu_l = [0] * n_slots               # CU == its scalar issue port
        vport_l = [0] * n_slots            # the slot's SIMD issue port
        warp_l = [0] * n_slots
        wg_l = [0] * n_slots
        disp_l = [0.0] * n_slots
        bbpc_l = [-1] * n_slots            # basic-block events only:
        bbstart_l = [0.0] * n_slots        # the open block and its start,
        bbat_l: List[dict] = [None] * n_slots  # block start -> block pc
        marked: Dict[tuple, tuple] = {}    # per distinct path, see dispatch
        # id(dep column) -> [ring column, mask, resident users, column]
        rings: Dict[int, list] = {}

        free_slot_ids: List[List[int]] = [[] for _ in range(n_cu)]
        free_slots = [config.max_warps_per_cu] * n_cu
        slot_cursor = [0] * n_cu
        next_slot = 0
        barrier_state: Dict[int, List] = {}  # wg -> [arrived, max_t, parked]
        resident = self._resident

        # bucket queue: timestamp -> members (append order == seq order)
        buckets: Dict[float, List[int]] = {}
        times: List[float] = []
        heappush = heapq.heappush
        heappop = heapq.heappop
        bucket_at = buckets.get
        metrics = bus.metrics
        metrics.counter("engine.batch.runs").inc()
        trace_provider = self.trace_provider
        n_rounds = n_members = 0

        def push(rd: float, s: int) -> None:
            lst = bucket_at(rd)
            if lst is None:
                buckets[rd] = [s]
                heappush(times, rd)
            else:
                lst.append(s)

        def dispatch_wg(cu: int, time: float) -> bool:
            """Dispatch the next queued workgroup onto ``cu`` if it fits."""
            nonlocal next_slot
            if self._stop_requested or self._wg_next >= len(self._wg_queue):
                return False
            wg_id, warps = self._wg_queue[self._wg_next]
            if free_slots[cu] < len(warps):
                return False
            free_slots[cu] -= len(warps)
            self._wg_next += 1
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
                ring = rings.get(id(trace.dep))
                if ring is None:  # the entry keeps its id-keyed column
                    ring = rings[id(trace.dep)] = [
                        *_ring_column(trace.dep), 0, trace.dep]
                ring[2] += 1
                ring_l[s] = ring
                dep_l[s] = ring[0]
                mask = mask_l[s] = ring[1]
                row = ret_l[s]
                if row is None or len(row) <= mask + 1:
                    # K cells plus the never-written 0.0 that dep -1 reads
                    ret_l[s] = array("d", bytes(8 * (mask + 2)))
                cur_l[s] = mcur_l[s] = 0
                cls_l[s] = trace.opclass
                if has_bb:  # the entry keeps its id-keyed lists alive
                    key = id(trace.opclass), id(trace.bb_seq)
                    if key not in marked:
                        col = list(trace.opclass)
                        for _, at in trace.bb_seq:
                            col[at] += _N_CLASSES
                        marked[key] = (col, {a: pc for pc, a in trace.bb_seq},
                                       trace.opclass, trace.bb_seq)
                    cls_l[s], bbat_l[s] = marked[key][:2]
                    bbpc_l[s] = -1
                mem_l[s] = trace.mem_lines
                code_l[s] = trace.opcode
                cu_l[s] = cu
                vport_l[s] = n_cu + cu * spc + simd
                warp_l[s] = warp_id
                wg_l[s] = wg_id
                disp_l[s] = time
                resident.add(s)
                push(time, s)
                if dispatch_subs:
                    for fn in dispatch_subs:
                        fn(warp_id, time)
            return True

        # initial dispatch: fill CUs round-robin until nothing more fits;
        # the command processor dispatches one workgroup every
        # cp_dispatch_interval cycles, staggering the start-up burst
        cp_interval = config.cp_dispatch_interval
        cp_time = 0.0
        progress = True
        while progress:
            progress = False
            for cu in range(n_cu):
                if dispatch_wg(cu, cp_time):
                    cp_time += cp_interval
                    progress = True

        # an armed watchdog ticks once per member, between member effects
        wd = None
        if self.max_events is not None or self.deadline is not None:
            wd = Watchdog(f"engine({kernel.name})", "events",
                          deadline=self.deadline, budget=self.max_events,
                          bus=self.bus)
        vector_access_many = hierarchy.vector_access_many
        scalar_access = hierarchy.scalar_access
        n_insts = 0
        # one test per member while nobody counts instructions (read
        # once, like has_bb: subscribe before the run)
        accounted = bool(inst_subs) or bucket is not None
        end_time = 0.0
        aborted = False

        while times and not aborted:
            if self._stop_requested and self._abort_requested:
                if self._now > end_time:
                    end_time = self._now
                break
            t = heappop(times)
            members = buckets.pop(t, None)
            if members is None:
                continue  # stale entry: same-time bucket already drained
            self._now = t

            # a round can refill its own timestamp (END dispatch, zero
            # issue_interval): re-pop until the bucket stays empty
            while members is not None:
                n_rounds += 1
                n_members += len(members)
                for s in members:
                    if self._abort_requested:
                        # set by an emission of the previous member
                        aborted = True
                        break
                    if wd is not None:
                        wd.tick()
                    i = cur_l[s]
                    cls = cls_l[s][i]
                    p = cu_l[s] if is_scalar_port[cls] else vport_l[s]
                    free_at = port_free[p]
                    issue = free_at if free_at > t else t
                    port_free[p] = issue + interval
                    if stall_subs and issue > t:
                        for fn in stall_subs:
                            fn(warp_l[s], t, issue - t,
                               "scalar" if is_scalar_port[cls] else "simd")

                    lat = lat_of[cls]
                    if lat >= 0.0:
                        retire = issue + lat
                    else:
                        if cls >= _N_CLASSES:  # a block starts here
                            if bbpc_l[s] >= 0:
                                for fn in bb_subs:
                                    fn(warp_l[s], bbpc_l[s], bbstart_l[s],
                                       issue)
                            bbpc_l[s] = bbat_l[s][i]
                            bbstart_l[s] = issue
                            cls -= _N_CLASSES
                            lat = lat_of[cls]
                        if lat >= 0.0:
                            retire = issue + lat
                        elif cls == _CLS_VECTOR_MEM or cls == _CLS_SCALAR_MEM:
                            m = mcur_l[s]
                            mcur_l[s] = m + 1
                            try:
                                lines = mem_l[s][m]
                            except IndexError:
                                raise TimingError(
                                    f"warp {warp_l[s]} of {kernel.name!r} "
                                    f"has only {m} memory records") from None
                            if cls == _CLS_SCALAR_MEM:
                                retire = scalar_access(cu_l[s], lines[0],
                                                       issue)
                            elif lines:
                                retire = vector_access_many(cu_l[s], lines,
                                                            issue)
                            else:
                                retire = issue + 1.0
                            if collect_latency:
                                code = code_l[s][i]
                                lat_sum[code] += retire - issue
                                lat_cnt[code] += 1
                        elif cls == _CLS_WAITCNT:
                            retire = issue + lat_branch
                            for fn in waitcnt_subs:
                                fn(warp_l[s], issue)
                        elif cls == _CLS_BARRIER:
                            wg = wg_l[s]
                            state = barrier_state.setdefault(wg, [0, 0.0, []])
                            state[0] += 1
                            if issue > state[1]:
                                state[1] = issue
                            n_insts += 1
                            if inst_subs:
                                for fn in inst_subs:
                                    fn(warp_l[s], cls, issue, issue)
                            if state[0] < wg_sizes[wg]:
                                state[2].append(s)
                                continue  # parked until the last arrival
                            release = state[1] + 1
                            del barrier_state[wg]
                            if barrier_subs:
                                for fn in barrier_subs:
                                    fn(wg, release, wg_sizes[wg])
                            arrived = state[2] + [s]
                            if bucket is not None:
                                idx = int(release // bucket)
                                for _ in arrived:
                                    _bump(ipc_series, idx)
                            for other in arrived:
                                oi = cur_l[other]
                                row = ret_l[other]
                                row[oi & mask_l[other]] = release
                                oi += 1
                                cur_l[other] = oi
                                ready = release + 1
                                dep_ready = row[dep_l[other][oi]]
                                if dep_ready > ready:
                                    ready = dep_ready
                                push(ready, other)
                            continue
                        elif cls == _CLS_END:
                            if mcur_l[s] != len(mem_l[s]):
                                raise TimingError(
                                    f"warp {warp_l[s]} of {kernel.name!r} "
                                    f"ended with {len(mem_l[s])} memory "
                                    f"records for {mcur_l[s]} accesses")
                            retire = issue  # nothing follows: no row write
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
                            ring = ring_l[s]
                            ring[2] -= 1
                            if not ring[2]:
                                del rings[id(ring[3])]
                            cu = cu_l[s]
                            free_slots[cu] += 1
                            resident.discard(s)
                            free_slot_ids[cu].append(s)
                            if s in self._stop_snapshot:
                                result.cu_slot_free.setdefault(
                                    cu, []).append(retire)
                            dispatch_wg(cu, retire)
                            continue
                        else:  # pragma: no cover - defensive
                            raise TimingError(f"unknown op class {cls}")

                    row = ret_l[s]
                    row[i & mask_l[s]] = retire
                    n_insts += 1
                    if accounted:
                        if inst_subs:
                            for fn in inst_subs:
                                fn(warp_l[s], cls, issue, retire)
                        if bucket is not None:
                            _bump(ipc_series, int(retire // bucket))

                    i += 1
                    cur_l[s] = i
                    ready = issue + interval
                    dep_ready = row[dep_l[s][i]]  # dep -1: the 0.0 cell
                    if dep_ready > ready:
                        ready = dep_ready
                    lst = bucket_at(ready)
                    if lst is None:
                        buckets[ready] = [s]
                        heappush(times, ready)
                    else:
                        lst.append(s)

                if aborted:
                    break
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
                code: lat_sum[code] / count
                for code, count in enumerate(lat_cnt) if count
            }
        result.mem_stats = hierarchy.stats()
        bus.emit(ENGINE_KERNEL, kernel.name, 0.0, result.end_time,
                 n_insts, result.stopped)
        metrics.counter("engine.runs").inc()
        metrics.counter("engine.insts").inc(n_insts)
        metrics.counter("engine.batch.scalar_rounds").inc(n_rounds)
        metrics.counter("engine.batch.scalar_insts").inc(n_members)
        self._result = None
        self._resident = set()
        self._stop_snapshot = frozenset()
        return result


def _ring_column(dep: List[int]) -> Tuple[List[int], int]:
    """``(ring column, K - 1)`` for one dependency column: ``K`` is the
    smallest power of two above the longest distance ``i - dep[i]``,
    and each dependency becomes its ring cell (``-1`` stays ``-1``)."""
    far = 0
    for i, d in enumerate(dep):
        if d >= 0 and i - d > far:
            far = i - d
    mask = (1 << far.bit_length()) - 1
    return [d & mask if d >= 0 else -1 for d in dep], mask


def _bump(series: List[int], idx: int) -> None:
    if idx >= len(series):
        series.extend([0] * (idx + 1 - len(series)))
    series[idx] += 1
