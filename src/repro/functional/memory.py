"""Global-memory arena for the functional simulator.

Memory is word-addressed: one word is 8 bytes (a float64), and a 64-byte
cache line holds :data:`WORDS_PER_LINE` = 8 words.  Workloads allocate
named buffers from the arena; the functional executor reads and writes
words, and the timing model only ever sees *line* numbers derived from the
word addresses.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import MemoryFault

WORDS_PER_LINE = 8
LINE_BYTES = 64


class GlobalMemory:
    """A flat word-addressed memory arena with named buffer allocation."""

    def __init__(self, capacity_words: int = 1 << 22):
        if capacity_words <= 0:
            raise MemoryFault("memory capacity must be positive")
        self._data = np.zeros(capacity_words, dtype=np.float64)
        self._next_free = 0
        self._buffers: Dict[str, tuple] = {}  # name -> (base, size)

    @property
    def capacity(self) -> int:
        """Total capacity in words."""
        return len(self._data)

    @property
    def words_allocated(self) -> int:
        """Words handed out so far (line-aligned)."""
        return self._next_free

    def alloc(self, name: str, size_or_array) -> int:
        """Allocate a line-aligned buffer; return its base word address.

        ``size_or_array`` is either a word count or an initial numpy array
        copied into the buffer.
        """
        if name in self._buffers:
            raise MemoryFault(f"buffer {name!r} already allocated")
        if isinstance(size_or_array, (int, np.integer)):
            size = int(size_or_array)
            init = None
        else:
            init = np.asarray(size_or_array, dtype=np.float64).ravel()
            size = len(init)
        if size <= 0:
            raise MemoryFault(f"buffer {name!r} must have positive size")
        base = self._next_free
        end = base + size
        if end > len(self._data):
            raise MemoryFault(
                f"out of arena space allocating {name!r} "
                f"({size} words, {len(self._data) - base} free)"
            )
        if init is not None:
            self._data[base:end] = init
        # align the next allocation to a cache line so buffers never share
        # lines (keeps per-buffer access patterns clean in the cache model)
        self._next_free = -(-end // WORDS_PER_LINE) * WORDS_PER_LINE
        self._buffers[name] = (base, size)
        return base

    def base_of(self, name: str) -> int:
        """Base word address of buffer ``name``."""
        try:
            return self._buffers[name][0]
        except KeyError:
            raise MemoryFault(f"no buffer named {name!r}") from None

    def image(self) -> np.ndarray:
        """View of every allocated word (what a device access can read)."""
        return self._data[: self._next_free]

    def view(self, name: str) -> np.ndarray:
        """Writable numpy view of buffer ``name`` (host-side access)."""
        base, size = self._buffers[name]
        return self._data[base : base + size]

    # -- device-side accessors ------------------------------------------------

    def read_word(self, addr: int) -> float:
        """Read one word (scalar load)."""
        self._check(addr)
        return float(self._data[int(addr)])

    def read_gather(self, addrs: np.ndarray) -> np.ndarray:
        """Gather words at per-lane addresses."""
        idx = addrs.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._next_free):
            raise MemoryFault(
                f"gather out of bounds: [{idx.min()}, {idx.max()}] "
                f"vs {self._next_free} allocated"
            )
        return self._data[idx]

    def write_scatter(self, addrs: np.ndarray, values: np.ndarray) -> None:
        """Scatter words to per-lane addresses."""
        idx = addrs.astype(np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self._next_free):
            raise MemoryFault(
                f"scatter out of bounds: [{idx.min()}, {idx.max()}] "
                f"vs {self._next_free} allocated"
            )
        self._data[idx] = values

    def _check(self, addr) -> None:
        if not 0 <= int(addr) < self._next_free:
            raise MemoryFault(
                f"word address {int(addr)} outside allocated "
                f"[0, {self._next_free})"
            )


def lines_of(addrs: np.ndarray) -> tuple:
    """Unique cache-line numbers touched by per-lane word addresses.

    Models coalescing: lanes hitting the same 64-byte line produce a single
    memory transaction.
    """
    lines = np.unique(addrs.astype(np.int64) // WORDS_PER_LINE)
    return tuple(int(x) for x in lines)
