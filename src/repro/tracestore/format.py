"""On-disk trace format: stable content keys and the binary path/line codec.

The persistent store (:mod:`repro.tracestore.store`) is content
addressed: a bundle of FULL-mode warp traces is keyed by what the
traces *depend on* — the instruction stream, the initial memory image
and per-warp kernel arguments, and the grid shape.  Nothing
microarchitectural enters the key: traces contain opcode classes,
register dependencies and cache-line numbers, so one bundle serves
every GPU configuration (the same observation that lets Photon reuse
its offline analysis across configs, §6.3).

``Program.fingerprint`` cannot key a *disk* store: it is built on
Python ``hash()``, which is process-randomised for strings and, before
3.12, undefined for ``None``-bearing tuples across runs.  The digests
here are sha256 over a canonical text encoding — stable across
processes, platforms and Python versions.

A warp trace serialises to two little-endian binary blobs (section
sizes up front, then flat numpy arrays), split where the interpreter
splits it: the *path blob* holds every column the warps of one path
group share by reference (static index, class, opcode, dependency,
is-store, basic-block sequence) plus the positions of the memory
instructions, and is stored once per distinct path; the *line blob*
holds only what is per-warp — the cache lines touched at those
positions.  ``mem_lines`` is ternary per instruction — ``None`` (not a
memory op), ``()`` (memory op with no active lanes), or a tuple of
line numbers — so a line blob is (line count per memory position, flat
lines) and the common non-memory instruction costs nothing.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..functional.kernel import Kernel
from ..functional.trace import WarpTrace
from ..isa.opcodes import Imm, OpClass, SReg, VReg
from ..isa.program import Program

#: bump on any incompatible change to the key derivation or blob layout
FORMAT_VERSION = 2

#: header magic for bundle files
FORMAT_NAME = "repro-tracestore"


# -- stable content digests -------------------------------------------------

def _operand(op) -> object:
    if op is None:
        return None
    if isinstance(op, SReg):
        return ("s", op.index)
    if isinstance(op, VReg):
        return ("v", op.index)
    if isinstance(op, Imm):
        return ("i", repr(op.value))
    return ("?", repr(op))


def program_digest(program: Program) -> str:
    """sha256 over a canonical encoding of the instruction stream.

    Unlike :attr:`Program.fingerprint` this is stable across processes
    and Python versions, and it covers operands and addressing (the
    in-memory fingerprint only hashes opcodes and branch targets).
    """
    parts: List[object] = [FORMAT_VERSION, bool(program.split_on_waitcnt)]
    for inst in program.instructions:
        mem = inst.mem
        parts.append((
            inst.opcode.name,
            _operand(inst.dst),
            tuple(_operand(s) for s in inst.srcs),
            inst.target,
            None if mem is None else (
                mem.base.index,
                None if mem.index is None else mem.index.index,
                mem.scale,
                mem.offset,
            ),
        ))
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def kernel_data_digest(kernel: Kernel) -> str:
    """sha256 over everything *besides* the program that shapes a trace.

    Traces record the dynamic path and the concrete line addresses, so
    they depend on the initial memory image and the per-warp argument
    registers.  Two launches of the same program with different input
    data legitimately get different bundles.
    """
    h = hashlib.sha256()
    mem = kernel.memory
    h.update(mem._data[: mem._next_free].tobytes())
    for name in sorted(mem._buffers):
        base, size = mem._buffers[name]
        h.update(f"{name}:{base}:{size};".encode("utf-8"))
    if kernel.args is not None:
        for warp_id in range(kernel.n_warps):
            items = sorted(kernel.args(warp_id).items())
            h.update(repr(items).encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True, order=True)
class TraceKey:
    """Content address of one trace bundle (all warps of one launch)."""

    program: str   # program_digest hex
    data: str      # kernel_data_digest hex
    n_warps: int
    wg_size: int
    warp_size: int

    @property
    def bundle_name(self) -> str:
        return (f"{self.program[:20]}-{self.data[:20]}"
                f"-g{self.n_warps}x{self.wg_size}w{self.warp_size}.trc")

    def to_dict(self) -> Dict[str, object]:
        return {
            "program": self.program,
            "data": self.data,
            "n_warps": self.n_warps,
            "wg_size": self.wg_size,
            "warp_size": self.warp_size,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TraceKey":
        return cls(program=str(d["program"]), data=str(d["data"]),
                   n_warps=int(d["n_warps"]), wg_size=int(d["wg_size"]),
                   warp_size=int(d["warp_size"]))


def trace_key(kernel: Kernel) -> TraceKey:
    """Content address for ``kernel``'s FULL-mode traces.

    Computed against the kernel's *current* memory image: a kernel whose
    memory has been mutated (for example by a previous execution-driven
    run applying stores) keys to a different bundle, so stale traces are
    never replayed against changed data.  Warm runs should rebuild the
    kernel from its workload factory.
    """
    return TraceKey(
        program=program_digest(kernel.program),
        data=kernel_data_digest(kernel),
        n_warps=kernel.n_warps,
        wg_size=kernel.wg_size,
        warp_size=kernel.warp_size,
    )


# -- binary codec: path blobs and line blobs --------------------------------

_PATH_COUNTS = struct.Struct("<3I")  # n_insts, n_mem, n_bb
_LINE_COUNTS = struct.Struct("<2I")  # n_mem, total_lines

# OpClass values are contiguous from 0, so an unsigned max() check
# validates the whole section without a per-element Python loop
_MAX_OPCLASS = max(int(c) for c in OpClass)


class TraceFormatError(ValueError):
    """A trace blob or bundle failed structural validation."""


#: a decoded path blob: what every warp of one path group shares, as a
#: line-less trace (``warp_id`` -1), and the dynamic indices whose
#: ``mem_lines`` is not None
DecodedPath = Tuple[WarpTrace, List[int]]


def mem_positions(mem_lines: Sequence[Optional[tuple]]) -> List[int]:
    """Dynamic indices of the memory instructions of one trace."""
    return [i for i, rec in enumerate(mem_lines) if rec is not None]


def encode_path(trace: WarpTrace, mem_pos: Sequence[int]) -> bytes:
    """Serialise the path-shared columns of ``trace`` to a path blob."""
    sections = (
        np.asarray(trace.static_idx, dtype="<i4"),
        np.asarray(trace.opclass, dtype="<u1"),
        np.asarray(trace.opcode, dtype="<i4"),
        np.asarray(trace.dep, dtype="<i4"),
        np.asarray(trace.is_store, dtype="<u1"),
        np.asarray(mem_pos, dtype="<u4"),
        np.asarray([pc for pc, _ in trace.bb_seq], dtype="<i4"),
        np.asarray([start for _, start in trace.bb_seq], dtype="<u4"),
    )
    head = _PATH_COUNTS.pack(len(trace.opclass), len(mem_pos),
                             len(trace.bb_seq))
    return head + b"".join(a.tobytes() for a in sections)


def _sections(blob, offset: int, *shape: Tuple[str, int]) -> List[list]:
    """Consecutive flat arrays of ``(dtype, count)`` from ``blob``."""
    out = []
    for dtype, count in shape:
        arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
        offset += arr.nbytes
        out.append(arr.tolist())
    return out


def decode_path(blob) -> DecodedPath:
    """Rebuild the shared columns from :func:`encode_path` output.

    Raises :class:`TraceFormatError` on any structural mismatch (the
    store turns that into a per-entry quarantine, never a failed run).
    """
    if len(blob) < _PATH_COUNTS.size:
        raise TraceFormatError("path blob shorter than its count header")
    n, n_mem, n_bb = _PATH_COUNTS.unpack_from(blob, 0)
    expected = _PATH_COUNTS.size + n * 14 + n_mem * 4 + n_bb * 8
    if len(blob) != expected:
        raise TraceFormatError(
            f"path blob length {len(blob)} != expected {expected}")
    (static_idx, opclass, opcode, dep, is_store, mem_pos, bb_pc,
     bb_start) = _sections(
        blob, _PATH_COUNTS.size, ("<i4", n), ("<u1", n), ("<i4", n),
        ("<i4", n), ("?", n), ("<u4", n_mem), ("<i4", n_bb), ("<u4", n_bb))
    if n and max(opclass) > _MAX_OPCLASS:
        raise TraceFormatError(f"unknown opclass value {max(opclass)}")
    if mem_pos and (mem_pos[-1] >= n or sorted(set(mem_pos)) != mem_pos):
        raise TraceFormatError("memory positions out of range or order")
    return WarpTrace(-1, static_idx, opclass, opcode, dep, [], is_store,
                     list(zip(bb_pc, bb_start))), mem_pos


def encode_lines(mem_lines: Sequence[Optional[tuple]],
                 mem_pos: Sequence[int]) -> bytes:
    """Serialise one warp's cache lines at ``mem_pos`` to a line blob."""
    recs = [mem_lines[p] for p in mem_pos]
    flat = list(chain.from_iterable(recs))
    return (_LINE_COUNTS.pack(len(recs), len(flat))
            + np.asarray([len(r) for r in recs], dtype="<u4").tobytes()
            + np.asarray(flat, dtype="<i8").tobytes())


def decode_lines(warp_id: int, path: DecodedPath, blob) -> WarpTrace:
    """Rebuild a :class:`WarpTrace` over ``path``'s column lists (shared
    by reference, as a fresh fill does) from :func:`encode_lines` output.

    Raises :class:`TraceFormatError` on any structural mismatch.
    """
    columns, mem_pos = path
    if len(blob) < _LINE_COUNTS.size:
        raise TraceFormatError("line blob shorter than its count header")
    n_mem, total_lines = _LINE_COUNTS.unpack_from(blob, 0)
    expected = _LINE_COUNTS.size + n_mem * 4 + total_lines * 8
    if len(blob) != expected or n_mem != len(mem_pos):
        raise TraceFormatError(
            f"line blob length {len(blob)} != expected {expected}, or "
            f"{n_mem} memory positions != the path's {len(mem_pos)}")
    counts, vals = _sections(blob, _LINE_COUNTS.size,
                             ("<u4", n_mem), ("<i8", total_lines))
    mem_lines: List[Optional[Tuple[int, ...]]] = [None] * columns.n_insts
    pos = 0
    for i, cnt in zip(mem_pos, counts):
        mem_lines[i] = tuple(vals[pos:pos + cnt])
        pos += cnt
    if pos != total_lines:
        raise TraceFormatError("memory-line section not fully consumed")
    return replace(columns, warp_id=warp_id, mem_lines=mem_lines)


def blob_checksum(blob) -> str:
    """Per-blob integrity checksum (sha256 hex) over a path or line blob."""
    return hashlib.sha256(blob).hexdigest()
