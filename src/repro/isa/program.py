"""Programs and basic-block extraction.

A :class:`Program` is an immutable list of instructions plus its derived
basic-block structure.  Basic blocks follow the paper's definition
(Observation 3): a block is a maximal straight-line instruction sequence
with one entry and one exit, where exits are branch instructions,
``s_barrier`` (so that inter-warp synchronisation latency lands in its own
block) and ``s_endpgm``.  Blocks are identified by the PC (index) of their
first instruction, exactly as SimPoint-style BBVs do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..errors import IsaError
from .instructions import Instruction, validate_instruction
from .opcodes import OpClass, Opcode, ends_basic_block, is_branch, op_class


@dataclass(frozen=True)
class BasicBlock:
    """A basic block: instructions ``[start, end)`` of the program.

    ``pc`` (== ``start``) is the block's identity, matching the paper's
    "basic blocks are labeled by the PC of their first instructions".
    """

    pc: int
    start: int
    end: int

    @property
    def length(self) -> int:
        """Number of instructions in the block."""
        return self.end - self.start


class Program:
    """An assembled kernel program with basic-block structure.

    Parameters
    ----------
    name:
        Human-readable kernel name (used for reporting only — Photon never
        keys decisions on names, unlike GT-Pin/Sieve).
    instructions:
        Fully resolved instruction list; must end with ``s_endpgm``.
    """

    def __init__(self, name: str, instructions: Sequence[Instruction],
                 split_on_waitcnt: bool = False):
        if not instructions:
            raise IsaError(f"program {name!r} has no instructions")
        if instructions[-1].opcode is not Opcode.S_ENDPGM:
            raise IsaError(f"program {name!r} must end with s_endpgm")
        for inst in instructions:
            validate_instruction(inst)
            if inst.target is not None and not (
                0 <= inst.target < len(instructions)
            ):
                raise IsaError(
                    f"branch target {inst.target} out of range in {name!r}"
                )
        self.name = name
        self.instructions: Tuple[Instruction, ...] = tuple(instructions)
        # Paper §3 (Observation 3): "s_waitcnt isolates memory accesses so
        # that a single basic block will not contain different sets of
        # unrelated memory accesses.  The evaluation of these instructions
        # is left for future work."  We implement that future work as an
        # opt-in block-splitting rule.
        self.split_on_waitcnt = split_on_waitcnt
        self.blocks: Tuple[BasicBlock, ...] = tuple(self._extract_blocks())
        self._block_of_pc: Dict[int, BasicBlock] = {
            b.pc: b for b in self.blocks
        }
        self._block_at: List[BasicBlock] = [None] * len(self.instructions)
        for block in self.blocks:
            for i in range(block.start, block.end):
                self._block_at[i] = block

    def _extract_blocks(self) -> List[BasicBlock]:
        n = len(self.instructions)
        leaders = {0}
        for i, inst in enumerate(self.instructions):
            if inst.target is not None:
                leaders.add(inst.target)
            ends = ends_basic_block(inst.opcode)
            if self.split_on_waitcnt and inst.opcode is Opcode.S_WAITCNT:
                ends = True
            if ends and i + 1 < n:
                leaders.add(i + 1)
        ordered = sorted(leaders)
        blocks = []
        for idx, start in enumerate(ordered):
            end = ordered[idx + 1] if idx + 1 < len(ordered) else n
            blocks.append(BasicBlock(pc=start, start=start, end=end))
        return blocks

    @property
    def fingerprint(self) -> int:
        """Stable identity of the instruction stream (not the name).

        Used to key offline analysis reuse: two launches of the same
        binary share a fingerprint even if their grids differ.
        """
        cached = getattr(self, "_fingerprint", None)
        if cached is None:
            cached = hash(tuple(
                (inst.opcode.value, inst.target)
                for inst in self.instructions
            ))
            self._fingerprint = cached
        return cached

    @property
    def once_per_warp_pcs(self) -> FrozenSet[int]:
        """PCs of the blocks a warp executes at most once.

        A warp has one program counter, and only a branch whose target
        is not ahead of it moves that counter backwards: a block
        outside every backward-branch span ``[target, branch]`` cannot
        be reached a second time.  (Data-dependent trip counts do not
        matter — a block inside a span is simply not in this set.)
        """
        cached = getattr(self, "_once_per_warp_pcs", None)
        if cached is None:
            spans = [(inst.target, i)
                     for i, inst in enumerate(self.instructions)
                     if inst.target is not None and inst.target <= i]
            cached = frozenset(
                block.pc for block in self.blocks
                if not any(target <= block.pc <= branch
                           for target, branch in spans))
            self._once_per_warp_pcs = cached
        return cached

    def block_at(self, pc: int) -> BasicBlock:
        """Return the basic block containing instruction index ``pc``."""
        if not 0 <= pc < len(self.instructions):
            raise IsaError(f"pc {pc} out of range for {self.name!r}")
        return self._block_at[pc]

    def block_by_pc(self, pc: int) -> BasicBlock:
        """Return the block whose first instruction is at ``pc``."""
        try:
            return self._block_of_pc[pc]
        except KeyError:
            raise IsaError(f"no basic block starts at pc {pc}") from None

    @property
    def num_blocks(self) -> int:
        """Count of static basic blocks."""
        return len(self.blocks)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Program({self.name!r}, {len(self.instructions)} insts, "
            f"{self.num_blocks} blocks)"
        )

    def listing(self) -> str:
        """Disassembly listing with basic-block markers (for debugging)."""
        lines = []
        starts = {b.start for b in self.blocks}
        for i, inst in enumerate(self.instructions):
            if i in starts:
                lines.append(f".bb_{i}:")
            lines.append(f"  {i:4d}  {inst!r}")
        return "\n".join(lines)


def static_instruction_mix(program: Program) -> Dict[str, int]:
    """Histogram of opcode names in ``program`` (used by PKA-style
    feature-count clustering, which the paper argues is insufficient)."""
    mix: Dict[str, int] = {}
    for inst in program.instructions:
        mix[inst.opcode.name] = mix.get(inst.opcode.name, 0) + 1
    return mix


def with_waitcnt_blocks(program: Program) -> Program:
    """Rebuild ``program`` with ``s_waitcnt``-terminated basic blocks.

    Implements the paper's future-work block definition (Observation 3):
    memory accesses separated by ``s_waitcnt`` land in distinct blocks,
    so one block never mixes unrelated memory access sets.  The
    instruction stream is unchanged; only the block structure differs.
    """
    return Program(program.name, program.instructions,
                   split_on_waitcnt=True)
