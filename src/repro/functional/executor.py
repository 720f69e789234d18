"""Functional (architectural) simulator for the mini ISA: the interpreter.

There is one interpreter, :meth:`FunctionalExecutor.run_batches`.  It
advances a *batch* of warps in lockstep — register files are stacked
along a leading batch axis, scalar registers as ``(n,)`` rows and vector
registers as ``(n, warp_size)`` planes, so every handler is one numpy
op for every warp still on the same path — and splits the batch when
its members stop agreeing: on a scalar branch with mixed outcomes
(divergence) and on an :class:`~repro.errors.ExecutionError` (a fault,
see below).  A single warp is a batch of one, not a second code path.

Two modes are offered, both by that driver:

* FULL (:meth:`FunctionalExecutor.run_warp_full`) emulates every lane,
  computes memory addresses, applies stores, and produces the
  :class:`~repro.functional.trace.WarpTrace` the detailed timing model
  consumes (dependencies + coalesced cache lines).
* CONTROL (:meth:`FunctionalExecutor.run_warp_control`) is the same
  driver with the vector side off.  Control flow in GCN-style kernels
  depends only on scalar state, which depends only on scalar registers
  and scalar loads, so vector / LDS / barrier / waitcnt instructions
  are counted and skipped.  It records the basic-block sequence and the
  instruction count.  This is the cheap fast-forward mode Photon uses
  for online analysis and for warps whose timing is predicted rather
  than simulated.

**Fault = split.**  Every memory accessor bounds-checks before it
writes and operands are validated before a destination is touched, so
when an instruction faults the batch state is exactly the state before
that instruction.  The driver bisects the batch there and retries each
half; only a batch of one ever keeps the error, which therefore names
one warp, and no warp is ever executed twice.  Reliability errors
(watchdog trips, injected faults) are not faults of the program: they
propagate and stop the run.

Warps are architecturally independent in all supplied workloads (each
writes disjoint outputs), so interpretation order does not change
results.  LDS is modelled as per-warp scratch: values exchanged through
LDS between warps are not reproduced, but no workload's control flow or
addressing depends on them — only timing does, and that is the timing
model's job (barriers are simulated there).

Fills over many warps (path-memo grouping, chunked providers, the
``exec.batch`` accounting) live in :mod:`repro.functional.batch`.
"""

from __future__ import annotations

import time as _time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ExecutionError
from ..isa.instructions import Instruction
from ..isa.opcodes import Opcode, SReg, VReg
from ..obs import EXEC_WARP, EventBus, current_bus
from ..reliability.faults import FaultPlan
from ..reliability.watchdog import WatchdogConfig
from .kernel import (
    FIRST_ARG_SREG,
    Kernel,
    SREG_WARP_ID,
    SREG_WARP_IN_WG,
    SREG_WORKGROUP_ID,
)
from .memory import WORDS_PER_LINE
from .trace import ControlTrace, WarpTrace

N_SREGS = 32
N_VREGS = 32
LDS_WORDS = 4096
DEFAULT_MAX_STEPS = 2_000_000


# -- opcode semantics: one table per family --------------------------------

def _int_binop(fn):
    def apply(a, b):
        return fn(
            np.asarray(a, dtype=np.float64).astype(np.int64),
            np.asarray(b, dtype=np.float64).astype(np.int64),
        ).astype(np.float64)

    return apply


_SCALAR_BINOPS = {
    Opcode.S_ADD: np.add,
    Opcode.S_SUB: np.subtract,
    Opcode.S_MUL: np.multiply,
    # the first operand wins ties and NaN comparisons (np.minimum /
    # np.maximum would propagate the NaN instead)
    Opcode.S_MIN: lambda a, b: np.where(b < a, b, a),
    Opcode.S_MAX: lambda a, b: np.where(b > a, b, a),
    Opcode.S_AND: _int_binop(np.bitwise_and),
    Opcode.S_OR: _int_binop(np.bitwise_or),
    Opcode.S_LSHL: _int_binop(np.left_shift),
    Opcode.S_LSHR: _int_binop(np.right_shift),
}

_SCALAR_CMPS = {
    Opcode.S_CMP_LT: np.less,
    Opcode.S_CMP_LE: np.less_equal,
    Opcode.S_CMP_EQ: np.equal,
    Opcode.S_CMP_NE: np.not_equal,
    Opcode.S_CMP_GT: np.greater,
    Opcode.S_CMP_GE: np.greater_equal,
}

_VECTOR_BINOPS = {
    Opcode.V_ADD: np.add,
    Opcode.V_SUB: np.subtract,
    Opcode.V_MUL: np.multiply,
    Opcode.V_MIN: np.minimum,
    Opcode.V_MAX: np.maximum,
    Opcode.V_AND: _int_binop(np.bitwise_and),
    Opcode.V_OR: _int_binop(np.bitwise_or),
    Opcode.V_XOR: _int_binop(np.bitwise_xor),
    Opcode.V_LSHL: _int_binop(np.left_shift),
    Opcode.V_LSHR: _int_binop(np.right_shift),
}

_VECTOR_CMPS = {
    Opcode.V_CMP_LT: np.less,
    Opcode.V_CMP_LE: np.less_equal,
    Opcode.V_CMP_EQ: np.equal,
    Opcode.V_CMP_NE: np.not_equal,
    Opcode.V_CMP_GT: np.greater,
    Opcode.V_CMP_GE: np.greater_equal,
}


# dispatch kinds resolved once per static instruction (hot-loop tags);
# the scalar side — everything control flow can depend on — comes first
_K_SBIN = 0
_K_SCMP = 1
_K_SMOV = 2
_K_SLOAD = 3
_K_BRANCH = 4
_K_CBR1 = 5
_K_CBR0 = 6
_K_END = 7
# kinds from here on never touch scalar state: CONTROL counts and skips
_K_VECTOR_SIDE = 8
_K_VBIN = 8
_K_VMAC = 9
_K_VFMA = 10
_K_VMOV = 11
_K_VLANE = 12
_K_VCND = 13
_K_VCMP = 14
_K_EXEC_VCC = 15
_K_EXEC_ALL = 16
_K_VLOAD = 17
_K_VSTORE = 18
_K_DSREAD = 19
_K_DSWRITE = 20
_K_BARRIER = 21
_K_WAITCNT = 22

_SIMPLE_KINDS = {
    Opcode.V_MAC: _K_VMAC, Opcode.V_FMA: _K_VFMA,
    Opcode.V_MOV: _K_VMOV, Opcode.V_LANE: _K_VLANE,
    Opcode.V_CNDMASK: _K_VCND, Opcode.S_MOV: _K_SMOV,
    Opcode.S_EXEC_FROM_VCC: _K_EXEC_VCC,
    Opcode.S_EXEC_ALL: _K_EXEC_ALL, Opcode.S_LOAD: _K_SLOAD,
    Opcode.V_LOAD: _K_VLOAD, Opcode.V_STORE: _K_VSTORE,
    Opcode.DS_READ: _K_DSREAD, Opcode.DS_WRITE: _K_DSWRITE,
    Opcode.S_BRANCH: _K_BRANCH, Opcode.S_CBRANCH_SCC1: _K_CBR1,
    Opcode.S_CBRANCH_SCC0: _K_CBR0, Opcode.S_BARRIER: _K_BARRIER,
    Opcode.S_WAITCNT: _K_WAITCNT, Opcode.S_ENDPGM: _K_END,
}


def _kind_of(op: Opcode):
    """Resolve (kind, semantic function) for one opcode."""
    for kind, table in ((_K_VBIN, _VECTOR_BINOPS), (_K_VCMP, _VECTOR_CMPS),
                        (_K_SBIN, _SCALAR_BINOPS), (_K_SCMP, _SCALAR_CMPS)):
        if op in table:
            return kind, table[op]
    return _SIMPLE_KINDS[op], None


def _scalar_operands(spec, sregs) -> list:
    """Operand rows of a scalar instruction: ``(n,)`` register rows or
    immediates.  The scalar side cannot read a vector register."""
    out = []
    for tag, x in spec:
        if tag == "v":
            raise ExecutionError(
                f"vector operand v{x} in a scalar instruction")
        out.append(sregs[x] if tag == "s" else x)
    return out


_LINE_SENTINEL = np.int64(2 ** 62)  # beyond any legal line number


def _batch_mem_lines(addrs: np.ndarray,
                     mask: Optional[np.ndarray]) -> List[tuple]:
    """Per-warp coalesced line tuples for a ``(n, warp_size)`` plane.

    Models coalescing — lanes hitting the same 64-byte line produce one
    memory transaction — as :func:`~repro.functional.memory.lines_of`
    does for one warp (sorted unique line numbers as a tuple of ints;
    ``()`` when a warp has no active lane), with the sort/unique
    reduction running once over the whole plane.
    """
    lines = addrs.astype(np.int64) // WORDS_PER_LINE
    if mask is not None:
        lines = np.where(mask, lines, _LINE_SENTINEL)
    srt = np.sort(lines, axis=1)
    fresh = np.empty(srt.shape, dtype=bool)
    fresh[:, 0] = True
    fresh[:, 1:] = srt[:, 1:] != srt[:, :-1]
    if mask is not None:
        fresh &= srt != _LINE_SENTINEL
    flat = srt[fresh].tolist()          # python ints in one C pass
    out: List[tuple] = []
    pos = 0
    for count in fresh.sum(axis=1).tolist():
        out.append(tuple(flat[pos:pos + count]))
        pos += count
    return out


class _StaticInfo:
    """Pre-resolved per-instruction metadata (dependency keys, class)."""

    __slots__ = ("reads", "writes", "opclass", "opcode_id", "is_leader",
                 "kind", "fn", "dst_idx", "src_spec", "target", "is_mem",
                 "mem_base", "mem_index", "mem_scale", "mem_offset")

    def __init__(self, inst: Instruction):
        reads: List[object] = []
        for reg in inst.reads():
            if isinstance(reg, SReg):
                reads.append(("s", reg.index))
            elif isinstance(reg, VReg):
                reads.append(("v", reg.index))
        op = inst.opcode
        if op is Opcode.V_CNDMASK or op is Opcode.S_EXEC_FROM_VCC:
            reads.append("vcc")
        if op in (Opcode.S_CBRANCH_SCC0, Opcode.S_CBRANCH_SCC1):
            reads.append("scc")
        writes: List[object] = []
        for reg in inst.writes():
            if isinstance(reg, SReg):
                writes.append(("s", reg.index))
            elif isinstance(reg, VReg):
                writes.append(("v", reg.index))
        if op in _VECTOR_CMPS:
            writes.append("vcc")
        if op in _SCALAR_CMPS:
            writes.append("scc")
        if op in (Opcode.S_EXEC_FROM_VCC, Opcode.S_EXEC_ALL):
            writes.append("exec")
        self.reads = tuple(reads)
        self.writes = tuple(writes)
        self.opclass = int(inst.op_class)
        self.opcode_id = op.value
        self.is_leader = False  # filled in by the executor
        self.kind, self.fn = _kind_of(op)
        self.is_mem = self.kind in (_K_VLOAD, _K_VSTORE, _K_SLOAD)
        self.dst_idx = inst.dst.index if hasattr(inst.dst, "index") else -1
        # operand spec: ("s", idx) scalar reg, ("v", idx) vector reg,
        # ("i", value) immediate — avoids isinstance checks per execution
        spec = []
        for operand in inst.srcs:
            if isinstance(operand, SReg):
                spec.append(("s", operand.index))
            elif isinstance(operand, VReg):
                spec.append(("v", operand.index))
            else:
                spec.append(("i", operand.value))
        self.src_spec = tuple(spec)
        self.target = inst.target
        mem = inst.mem
        self.mem_base = mem.base.index if mem is not None else -1
        self.mem_index = (mem.index.index
                          if mem is not None and mem.index is not None
                          else -1)
        self.mem_scale = mem.scale if mem is not None else 1
        self.mem_offset = mem.offset if mem is not None else 0


class _Batch:
    """Warps advancing in lockstep: stacked state plus shared history.

    Scalar state is ``sregs (N_SREGS, n)`` / ``scc (n,)``; the vector
    side (``vregs (N_VREGS, n, warp_size)``, ``lds (n, LDS_WORDS)``,
    ``vcc`` / ``exec_mask (n, warp_size)``) is allocated when a FULL run
    first picks the batch up and stays ``None`` in CONTROL.  ``cols`` are
    the trace columns every member shares (static index, class, opcode,
    dependency, is-store); ``mem_rows`` holds ``(dyn, per-member line
    tuples)`` for the memory instructions.
    """

    __slots__ = ("pc", "steps", "dyn", "last_mem_dyn", "members", "sregs",
                 "scc", "vregs", "lds", "vcc", "exec_mask", "exec_all",
                 "cols", "bb_seq", "mem_rows", "last_writer", "wd",
                 "wd_seen")

    def __init__(self, members: np.ndarray, sregs: np.ndarray, wd,
                 n_static: int):
        self.pc = 0
        self.steps = 0
        self.dyn = 0
        self.last_mem_dyn = -1
        self.members = members
        self.sregs = sregs
        self.scc = np.zeros(len(members), dtype=bool)
        self.vregs = self.lds = self.vcc = self.exec_mask = None
        self.exec_all = True
        self.cols = ([], [], [], [], [])
        self.bb_seq: list = []
        self.mem_rows: list = []
        self.last_writer: Dict[object, int] = {}
        self.wd = wd
        self.wd_seen = bytearray(n_static) if wd is not None else None

    def take(self, sel: np.ndarray, pc: int, share: bool) -> "_Batch":
        """The members at positions ``sel``, resuming at ``pc``.

        ``share`` hands the live history lists to the child (the last
        part of a split keeps them); the other parts get copies.
        """
        child = _Batch.__new__(_Batch)
        child.pc = pc
        child.steps = self.steps
        child.dyn = self.dyn
        child.last_mem_dyn = self.last_mem_dyn
        child.members = self.members[sel]
        child.sregs = self.sregs[:, sel]
        child.scc = self.scc[sel]
        if self.vregs is None:
            child.vregs = child.lds = child.vcc = child.exec_mask = None
            child.exec_all = True
        else:
            child.vregs = self.vregs[:, sel]
            child.lds = self.lds[sel]
            child.vcc = self.vcc[sel]
            child.exec_mask = self.exec_mask[sel]
            child.exec_all = (self.exec_all
                              or bool(child.exec_mask.all()))
        picks = sel.tolist()
        child.mem_rows = [(dyn, [rec[j] for j in picks])
                          for dyn, rec in self.mem_rows]
        if share:
            child.cols = self.cols
            child.bb_seq = self.bb_seq
            child.last_writer = self.last_writer
        else:
            child.cols = tuple(list(col) for col in self.cols)
            child.bb_seq = list(self.bb_seq)
            child.last_writer = dict(self.last_writer)
        child.wd = self.wd
        child.wd_seen = self.wd_seen
        return child


class FunctionalExecutor:
    """Interprets warps of one kernel."""

    def __init__(self, kernel: Kernel, max_steps: int = DEFAULT_MAX_STEPS,
                 watchdog: Optional[WatchdogConfig] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 bus: Optional[EventBus] = None):
        self.kernel = kernel
        self.program = kernel.program
        self.max_steps = int(kernel.meta.get("max_steps", max_steps))
        self.watchdog = watchdog
        self.fault_plan = fault_plan
        self.bus = bus if bus is not None else current_bus()
        leaders = {b.start for b in self.program.blocks}
        self._static = [
            _StaticInfo(inst) for inst in self.program.instructions
        ]
        for pc in leaders:
            self._static[pc].is_leader = True
        self._leaders = leaders

    def watchdog_for(self, label: str):
        """Armed watchdog for one guarded run, or None when the
        configuration sets no limit."""
        if self.watchdog is None:
            return None
        wd = self.watchdog.for_executor(label)
        return wd if wd.armed else None

    def warp_watchdog(self, warp_id: int):
        """The watchdog of a warp that runs as its own batch of one."""
        return self.watchdog_for(
            f"executor({self.kernel.name!r} warp {warp_id})")

    # -- register-file setup --------------------------------------------------

    def _init_sregs(self, warp_id: int) -> List[float]:
        kernel = self.kernel
        sregs = [0.0] * N_SREGS
        sregs[SREG_WARP_ID] = float(warp_id)
        sregs[SREG_WORKGROUP_ID] = float(kernel.workgroup_of(warp_id))
        sregs[SREG_WARP_IN_WG] = float(warp_id % kernel.wg_size)
        if kernel.args is not None:
            for index, value in kernel.args(warp_id).items():
                if not FIRST_ARG_SREG <= index < N_SREGS:
                    raise ExecutionError(
                        f"kernel arg register s{index} outside "
                        f"[{FIRST_ARG_SREG}, {N_SREGS})"
                    )
                sregs[index] = float(value)
        return sregs

    # -- per-warp entry points: a batch of one ------------------------------

    def run_warp_full(self, warp_id: int) -> WarpTrace:
        """Emulate every lane of ``warp_id``; return its detailed trace."""
        return self._run_warp(warp_id, True)

    def run_warp_control(self, warp_id: int) -> ControlTrace:
        """Execute only the scalar/uniform side; return the control trace."""
        return self._run_warp(warp_id, False)

    def _run_warp(self, warp_id: int, full: bool):
        with self.bus.metrics.span("functional"):
            warp_subs = self.bus.channel(EXEC_WARP).subscribers
            t_start = _time.perf_counter() if warp_subs else 0.0
            traces, errors, _groups = self.run_batches(
                [([warp_id], self.warp_watchdog(warp_id))], full)
            if errors:
                raise errors[warp_id]
            trace = traces[warp_id]
            if warp_subs:
                wall = _time.perf_counter() - t_start
                for fn in warp_subs:
                    fn(warp_id, "full" if full else "control",
                       trace.n_insts, wall)
        return trace

    # -- the interpreter ----------------------------------------------------

    def run_batches(self, batches: Sequence[Tuple[Sequence[int], object]],
                    full: bool):
        """Execute ``batches`` in lockstep with split-on-divergence.

        ``batches`` is a list of ``(warp ids, watchdog or None)``.  Warps
        of one batch advance together — **one numpy dispatch per
        instruction for the whole batch** — for as long as their dynamic
        paths coincide.  A scalar branch with mixed outcomes splits the
        batch and each side continues independently, so path groups
        share every dispatch up to their divergence point.  An
        :class:`ExecutionError` bisects the batch at the faulting
        instruction (see the module docstring); a batch of one records
        it.  Batches run in the order given, each to completion.

        ``full`` selects FULL mode; otherwise the vector side is off
        (CONTROL).  Returns ``(traces, errors, groups)``: per-warp
        :class:`WarpTrace` / :class:`ControlTrace`, the per-warp
        ``ExecutionError`` of every warp that has no trace, and the
        finished leaves as lists of warp ids (warps of one leaf took
        an identical dynamic path).  Watchdog trips and injected faults
        propagate.
        """
        kernel = self.kernel
        static = self._static
        warp_size = kernel.warp_size
        read_gather = kernel.memory.read_gather
        write_scatter = kernel.memory.write_scatter
        max_steps = self.max_steps
        # fault plans arm per memory instruction of an emulated warp;
        # a CONTROL pass is not an emulation and never armed them
        plan = self.fault_plan if full else None
        lane_ids = np.arange(warp_size, dtype=np.float64)

        traces: Dict[int, object] = {}
        errors: Dict[int, ExecutionError] = {}
        groups: List[List[int]] = []
        stack: List[_Batch] = []
        for warp_ids, wd in reversed(batches):
            members, rows = [], []
            for warp_id in warp_ids:
                try:
                    rows.append(self._init_sregs(warp_id))
                    members.append(warp_id)
                except ExecutionError as exc:
                    errors[warp_id] = exc
            if members:
                stack.append(_Batch(
                    np.asarray(members, dtype=np.int64),
                    np.array(rows, dtype=np.float64).T.copy(),
                    wd, len(static)))

        while stack:
            batch = stack.pop()
            members = batch.members
            n = len(members)
            if full and batch.vregs is None:
                batch.vregs = np.zeros((N_VREGS, n, warp_size),
                                       dtype=np.float64)
                batch.lds = np.zeros((n, LDS_WORDS), dtype=np.float64)
                batch.vcc = np.zeros((n, warp_size), dtype=bool)
                batch.exec_mask = np.ones((n, warp_size), dtype=bool)
            sregs, scc = batch.sregs, batch.scc
            vregs, lds, vcc = batch.vregs, batch.lds, batch.vcc
            exec_mask, exec_all = batch.exec_mask, batch.exec_all
            t_static, t_class, t_opcode, t_dep, t_store = batch.cols
            t_bb = batch.bb_seq
            mem_rows = batch.mem_rows
            last_writer = batch.last_writer
            lw_get = last_writer.get
            wd, wd_seen = batch.wd, batch.wd_seen
            pc, steps, dyn = batch.pc, batch.steps, batch.dyn
            last_mem_dyn = batch.last_mem_dyn
            row_ids = np.arange(n)[:, None]           # LDS row selector
            parts = None    # [(member positions, resume pc)] of a split

            def val(spec, sregs=sregs, vregs=vregs):
                tag, x = spec
                if tag == "s":
                    return sregs[x][:, None]  # warp column vs lane axis
                if tag == "v":
                    return vregs[x]
                return x

            try:
                while True:
                    steps += 1
                    if steps > max_steps:
                        # lockstep: every member took exactly these steps
                        for warp_id in members.tolist():
                            errors[warp_id] = ExecutionError(
                                f"warp {warp_id} of {kernel.name!r} "
                                f"exceeded {max_steps} steps "
                                f"(runaway loop?)")
                        break
                    info = static[pc]
                    if wd is not None:
                        if not wd_seen[pc]:
                            wd_seen[pc] = 1
                            wd.note_progress()
                        wd.tick()
                    if info.is_leader:
                        t_bb.append((pc, dyn) if full else pc)
                    kind = info.kind
                    if not full and kind >= _K_VECTOR_SIDE:
                        dyn += 1
                        pc += 1
                        continue
                    if plan is not None and info.is_mem:
                        plan.arm("executor.memory", kernel=kernel.name)

                    next_pc = pc + 1
                    spec = info.src_spec
                    if full:
                        # dependency = youngest producer of any read
                        dep = -1
                        for key in info.reads:
                            d = lw_get(key, -1)
                            if d > dep:
                                dep = d
                        mem_rec = None   # or a list of per-warp tuples
                        store = False

                    # two-level dispatch, vector kinds by frequency: small
                    # batches are bound by these comparisons, not by numpy
                    if kind < _K_VECTOR_SIDE:
                        if kind == _K_SBIN:
                            a, b = _scalar_operands(spec, sregs)
                            sregs[info.dst_idx] = info.fn(a, b)
                        elif kind == _K_SCMP:
                            a, b = _scalar_operands(spec, sregs)
                            flags = np.asarray(info.fn(a, b), dtype=bool)
                            if flags.shape != scc.shape:
                                flags = np.broadcast_to(
                                    flags, scc.shape).copy()
                            scc = flags
                        elif kind == _K_SMOV:
                            (a,) = _scalar_operands(spec, sregs)
                            sregs[info.dst_idx] = a
                        elif kind == _K_SLOAD:
                            addrs = (sregs[info.mem_base].astype(np.int64)
                                     + info.mem_offset)
                            sregs[info.dst_idx] = read_gather(addrs)
                            if full:
                                mem_rec = [(line,) for line in
                                           (addrs // WORDS_PER_LINE).tolist()]
                                last_mem_dyn = dyn
                        elif kind == _K_BRANCH:
                            next_pc = info.target
                        elif kind == _K_CBR1 or kind == _K_CBR0:
                            taken = scc if kind == _K_CBR1 else ~scc
                            if taken.all():
                                next_pc = info.target
                            elif taken.any():
                                # divergence: the batch splits once this
                                # branch is committed
                                parts = [(np.nonzero(taken)[0], info.target),
                                         (np.nonzero(~taken)[0], pc + 1)]
                        elif kind == _K_END:
                            group = members.tolist()
                            groups.append(group)
                            if not full:
                                for warp_id in group:
                                    trace = ControlTrace(warp_id=warp_id)
                                    trace.bb_seq = list(t_bb)
                                    trace.n_insts = dyn + 1
                                    traces[warp_id] = trace
                                break
                            t_static.append(pc)
                            t_class.append(info.opclass)
                            t_opcode.append(info.opcode_id)
                            t_dep.append(dep)
                            t_store.append(False)
                            # the END row never records memory (its entry
                            # is None).  Every warp of the leaf references
                            # the SAME column list objects (only mem_lines
                            # is per-warp) — columns are immutable once
                            # built, and downstream id()-keyed conversion
                            # caches (the timing engine's per-trace pools)
                            # rely on the sharing
                            mem_template: List[Optional[tuple]] = \
                                [None] * len(t_static)
                            for j, warp_id in enumerate(group):
                                mem = list(mem_template)
                                for pos, per_warp in mem_rows:
                                    mem[pos] = per_warp[j]
                                trace = WarpTrace(warp_id=warp_id)
                                trace.static_idx = t_static
                                trace.opclass = t_class
                                trace.opcode = t_opcode
                                trace.dep = t_dep
                                trace.mem_lines = mem
                                trace.is_store = t_store
                                trace.bb_seq = t_bb
                                traces[warp_id] = trace
                            break
                    elif kind == _K_VBIN:
                        result = info.fn(val(spec[0]), val(spec[1]))
                        if exec_all:
                            vregs[info.dst_idx] = result
                        else:
                            vregs[info.dst_idx][exec_mask] = \
                                np.broadcast_to(
                                    result, (n, warp_size))[exec_mask]
                    elif kind == _K_VMAC:
                        result = vregs[info.dst_idx] + \
                            np.asarray(val(spec[0])) * val(spec[1])
                        if exec_all:
                            vregs[info.dst_idx] = result
                        else:
                            vregs[info.dst_idx][exec_mask] = \
                                result[exec_mask]
                    elif kind == _K_VLOAD or kind == _K_VSTORE:
                        base = (sregs[info.mem_base][:, None]
                                + info.mem_offset)
                        if info.mem_index >= 0:
                            addrs = (base + vregs[info.mem_index]
                                     * info.mem_scale)
                        else:
                            addrs = np.broadcast_to(base, (n, warp_size))
                        reg = vregs[info.dst_idx]
                        store = kind == _K_VSTORE
                        if exec_all:
                            if store:
                                write_scatter(addrs.ravel(), reg.ravel())
                            else:
                                vregs[info.dst_idx] = read_gather(
                                    addrs.ravel()).reshape(n, warp_size)
                            mem_rec = _batch_mem_lines(addrs, None)
                        else:
                            flat = addrs[exec_mask]
                            if flat.size and store:
                                write_scatter(flat, reg[exec_mask])
                            elif flat.size:
                                reg[exec_mask] = read_gather(flat)
                            mem_rec = _batch_mem_lines(addrs, exec_mask)
                        last_mem_dyn = dyn
                    elif kind == _K_VFMA:
                        result = (np.asarray(val(spec[0])) * val(spec[1])
                                  + val(spec[2]))
                        if exec_all:
                            vregs[info.dst_idx] = result
                        else:
                            vregs[info.dst_idx][exec_mask] = \
                                np.broadcast_to(
                                    result, (n, warp_size))[exec_mask]
                    elif kind == _K_VCMP:
                        vcc = np.asarray(
                            info.fn(np.asarray(val(spec[0])),
                                    np.asarray(val(spec[1]))),
                            dtype=bool)
                        if vcc.shape != (n, warp_size):
                            vcc = np.broadcast_to(
                                vcc, (n, warp_size)).copy()
                    elif kind == _K_WAITCNT:
                        if last_mem_dyn > dep:
                            dep = last_mem_dyn
                    elif kind == _K_VMOV:
                        if exec_all:
                            vregs[info.dst_idx] = val(spec[0])
                        else:
                            vregs[info.dst_idx][exec_mask] = \
                                np.broadcast_to(
                                    np.asarray(val(spec[0]),
                                               dtype=np.float64),
                                    (n, warp_size))[exec_mask]
                    elif kind == _K_VCND:
                        result = np.where(vcc, np.asarray(val(spec[1])),
                                          np.asarray(val(spec[0])))
                        if exec_all:
                            vregs[info.dst_idx] = result
                        else:
                            vregs[info.dst_idx][exec_mask] = \
                                np.broadcast_to(
                                    result, (n, warp_size))[exec_mask]
                    elif kind == _K_DSREAD:
                        idx = (np.asarray(val(spec[0]))
                               .astype(np.int64) % LDS_WORDS)
                        idx = np.broadcast_to(idx, (n, warp_size))
                        gathered = lds[row_ids, idx]
                        if exec_all:
                            vregs[info.dst_idx] = gathered
                        else:
                            vregs[info.dst_idx][exec_mask] = \
                                gathered[exec_mask]
                    elif kind == _K_DSWRITE:
                        idx = (np.asarray(val(spec[0]))
                               .astype(np.int64) % LDS_WORDS)
                        idx = np.broadcast_to(idx, (n, warp_size))
                        data = np.broadcast_to(
                            np.asarray(val(spec[1]), dtype=np.float64),
                            (n, warp_size))
                        rows = np.broadcast_to(row_ids, (n, warp_size))
                        if exec_all:
                            lds[rows, idx] = data
                        else:
                            lds[rows[exec_mask], idx[exec_mask]] = \
                                data[exec_mask]
                    elif kind == _K_VLANE:
                        if exec_all:
                            vregs[info.dst_idx] = lane_ids
                        else:
                            vregs[info.dst_idx][exec_mask] = \
                                np.broadcast_to(
                                    lane_ids, (n, warp_size))[exec_mask]
                    elif kind == _K_EXEC_VCC:
                        exec_mask = vcc.copy()
                        exec_all = bool(exec_mask.all())
                    elif kind == _K_EXEC_ALL:
                        exec_mask = np.ones((n, warp_size), dtype=bool)
                        exec_all = True
                    elif kind == _K_BARRIER:
                        pass  # timing-only effect
                    else:  # pragma: no cover - defensive
                        raise ExecutionError(f"unhandled kind {kind}")

                    if full:
                        for key in info.writes:
                            last_writer[key] = dyn
                        t_static.append(pc)
                        t_class.append(info.opclass)
                        t_opcode.append(info.opcode_id)
                        t_dep.append(dep)
                        t_store.append(store)
                        if mem_rec is not None:
                            mem_rows.append((dyn, mem_rec))
                    dyn += 1
                    if parts is not None:
                        break
                    pc = next_pc
            except ExecutionError as exc:
                if n == 1:
                    errors[int(members[0])] = exc
                    continue
                # a fault is a divergence: nothing of the faulting
                # instruction has been applied, so undo its bookkeeping
                # and retry it on each half
                if info.is_leader:
                    t_bb.pop()
                steps -= 1
                parts = [(np.arange(n // 2, n), pc),
                         (np.arange(n // 2), pc)]

            if parts is not None:
                batch.steps, batch.dyn = steps, dyn
                batch.last_mem_dyn = last_mem_dyn
                batch.scc, batch.vcc = scc, vcc
                batch.exec_mask, batch.exec_all = exec_mask, exec_all
                for sel, resume in parts[:-1]:
                    stack.append(batch.take(sel, resume, share=False))
                stack.append(batch.take(*parts[-1], share=True))
        return traces, errors, groups
