"""Deterministic random-number streams.

Every stochastic routine in this package draws from numpy's Philox
counter-based bit generator. A logical stream is addressed by a pair of
unsigned 64-bit integers ``(seed, stream_id)`` used directly as the Philox
key, so Monte Carlo replicate ``r`` can use stream ``(seed, r)`` and produce
identical draws whether replicates run serially or in parallel. A loop over
many streams re-keys one generator with ``rekey`` instead of constructing a
generator per stream; the draws are the same.

Sub-tasks that need their own seed (for example the per-cognate-class
D-statistic runs inside the metrics stage) derive one by hashing stable
string identifiers with BLAKE2b, which keeps results independent of
iteration order and worker count.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_ZEROS = (0, 0, 0, 0)


def stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """Return the Philox generator for logical stream ``(seed, stream_id)``."""
    key = np.array([seed & _MASK64, stream_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(generator: np.random.Generator, seed: int, stream_id: int) -> None:
    """Reset a generator made by ``stream`` to the start of stream ``(seed, stream_id)``.

    Philox output depends only on its key and counter (Salmon et al. 2011),
    so a new key, a zero counter and empty output buffers (``buffer_pos`` 4,
    no cached 32-bit half) draw exactly what ``stream(seed, stream_id)``
    draws, at a fraction of the cost of constructing it.
    """
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed & _MASK64, stream_id & _MASK64)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def derived_seed(seed: int, *parts: str) -> int:
    """Derive a 64-bit sub-seed from a master seed and string identifiers."""
    h = hashlib.blake2b(digest_size=8)
    h.update(str(seed & _MASK64).encode("utf-8"))
    for part in parts:
        h.update(b"\x1f")
        h.update(part.encode("utf-8"))
    return int.from_bytes(h.digest(), "big")
