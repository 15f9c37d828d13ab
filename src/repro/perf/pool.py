"""A named-buffer arena for the solver hot path.

The paper's GPU driver allocates every per-step buffer once and reuses it
until the next regrid ("host/device synchronous" rebuilds only); the
compiled step gets the same discipline from a :class:`BufferPool` — a
dictionary of named, shape-keyed scratch arrays.  Requesting the same
``(name, shape, dtype)`` twice returns the *same* ndarray, so a warm
compiled RK4 step allocates no array: ``tests/test_backends.py`` holds
its ``tracemalloc`` peak to a few kB.  That takes more than ``out=``:
the native kernels read the state where it lies (the prolongation takes
its source blocks straight from it, with no gathered copy), and write
into pooled buffers.  The NumPy execution, the oracle, allocates as
plain NumPy does.

Keys include the shape so the ragged last chunk of a chunked sweep gets
its own (smaller) buffers instead of thrashing a single slot.
"""

from __future__ import annotations

import numpy as np


class BufferPool:
    """Shape-keyed arena of reusable scratch arrays.

    ``get`` never zero-fills: callers own the full contents of the
    buffer they request (every element is written before it is read).
    """

    def __init__(self):
        self._bufs: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        """The pooled buffer for ``(name, shape, dtype)`` (allocated on
        first request, reused afterwards)."""
        key = (name, tuple(int(s) for s in shape), np.dtype(dtype))
        buf = self._bufs.get(key)
        if buf is None:
            buf = np.empty(key[1], dtype=key[2])
            self._bufs[key] = buf
            self.misses += 1
        else:
            self.hits += 1
        return buf

    def clear(self) -> None:
        """Drop every buffer (used on regrid, when all shapes change)."""
        self._bufs.clear()

    @property
    def num_buffers(self) -> int:
        return len(self._bufs)

    @property
    def nbytes(self) -> int:
        """Total bytes held by the arena."""
        return sum(b.nbytes for b in self._bufs.values())

    def __contains__(self, name: str) -> bool:
        return any(k[0] == name for k in self._bufs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BufferPool({self.num_buffers} buffers, "
            f"{self.nbytes / 1e6:.1f} MB, "
            f"{self.hits} hits / {self.misses} misses)"
        )
