"""Deterministic pseudo-random number generation.

Every randomized *generator* in this library (graph generators, workload
builders) draws from :class:`SplitMix64`, a tiny, fast, splittable PRNG with
a fully specified bit-level behaviour.  Using our own PRNG instead of
:mod:`random` guarantees that benchmark workloads are reproducible across
Python versions and platforms.

The generators take whole arrays of draws at once
(:meth:`SplitMix64.next_u64_array`, :meth:`SplitMix64.randrange_array`);
each array draw returns exactly what the matching run of scalar calls
would, and leaves the same state behind.

The splitmix64 finalizer itself (:func:`mix64`, :func:`mix64_array`) is
also the library's one fixed hash: the message fabric's vertex owners and
the fault plans' per-key draws mix through it.

The paper's algorithms themselves are deterministic; randomness only appears
in workload construction.
"""

from __future__ import annotations

import numpy as np

__all__ = ["GAMMA", "SplitMix64", "mix64", "mix64_array"]

_MASK64 = (1 << 64) - 1

# The golden-ratio increment of the SplitMix64 state.
GAMMA = 0x9E3779B97F4A7C15

_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Raw-draw batch sizes randrange_array compares at once.  A rejection
# re-compares the rest of its batch, so the batch halves after one (down
# to the floor) and doubles after a clean one (up to the cap).
_WINDOW_CAP = 1 << 16
_WINDOW_FLOOR = 64


def mix64(z: int) -> int:
    """The splitmix64 finalizer of ``z`` mod 2^64."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` of every element of a ``uint64`` array, in place.

    Returns ``z``.
    """
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


def _as_bounds(bounds) -> np.ndarray:
    """``bounds`` as a ``uint64`` array; ``ValueError`` on any bound <= 0."""
    if isinstance(bounds, np.ndarray) and bounds.dtype.kind in "iu":
        if bounds.size and bounds.min() <= 0:
            raise ValueError("randrange requires n >= 1")
        return bounds.astype(np.uint64).ravel()
    # A list goes through Python ints: numpy would read one mixing values
    # past 2^63 with smaller ones as float64.
    values = [int(b) for b in bounds]
    if values and min(values) <= 0:
        raise ValueError("randrange requires n >= 1")
    return np.array(values, dtype=np.uint64)


class SplitMix64:
    """SplitMix64 PRNG (Steele, Lea & Flood 2014).

    Produces a deterministic stream of 64-bit values from a seed, one at a
    time or as arrays.  The state after ``i`` draws is ``seed + i * GAMMA``
    mod 2^64, so an array draw computes every state at once.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next raw 64-bit output."""
        self._state = (self._state + GAMMA) & _MASK64
        return mix64(self._state)

    def next_u64_array(self, count: int) -> np.ndarray:
        """The next ``count`` raw outputs as a ``uint64`` array.

        Equal to ``count`` calls of :meth:`next_u64`, state included.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        steps = np.arange(1, count + 1, dtype=np.uint64)
        steps *= np.uint64(GAMMA)
        steps += np.uint64(self._state)
        self._state = (self._state + count * GAMMA) & _MASK64
        return mix64_array(steps)

    def randrange(self, n: int) -> int:
        """Return a uniform integer in ``[0, n)``.

        Uses rejection sampling to avoid modulo bias.
        """
        if n <= 0:
            raise ValueError("randrange requires n >= 1")
        # Largest multiple of n that fits in 64 bits.
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            value = self.next_u64()
            if value < limit:
                return value % n

    def randrange_array(self, bounds) -> np.ndarray:
        """``randrange(b)`` for each ``b`` of ``bounds`` in order (``uint64``).

        Equal to the scalar calls, state included: a raw draw at or past
        the largest multiple of its bound is consumed and the same bound
        tries the next raw draw.
        """
        bounds = _as_bounds(bounds)
        out = np.empty(len(bounds), dtype=np.uint64)
        # Raw draws at or past 2^64 - (2^64 mod b) are rejected; for a
        # bound dividing 2^64 none are.
        spill = (np.uint64(0) - bounds) % bounds
        cutoff = np.uint64(0) - spill
        done = 0
        width = _WINDOW_CAP
        # Never more raw draws in hand than bounds left to serve, so the
        # state ends exactly past the last draw consumed.
        raw = np.empty(0, dtype=np.uint64)
        while done < len(bounds):
            want = min(len(bounds) - done, width)
            if len(raw) < want:
                raw = np.concatenate((raw, self.next_u64_array(want - len(raw))))
            window = slice(done, done + want)
            rejected = (spill[window] != 0) & (raw[:want] >= cutoff[window])
            take = int(np.argmax(rejected)) if rejected.any() else want
            out[done:done + take] = raw[:take] % bounds[done:done + take]
            done += take
            if take < want:  # skip the rejected draw
                raw = raw[take + 1:]
                width = max(width // 2, _WINDOW_FLOOR)
            else:
                raw = raw[take:]
                width = min(width * 2, _WINDOW_CAP)
        return out

    def shuffle(self, items: list) -> None:
        """Fisher-Yates shuffle of ``items`` in place."""
        swaps = self.randrange_array(np.arange(len(items), 1, -1)).tolist()
        for i, j in zip(range(len(items) - 1, 0, -1), swaps):
            items[i], items[j] = items[j], items[i]

    def split(self) -> "SplitMix64":
        """Return an independent child PRNG (for parallel workloads)."""
        return SplitMix64(self.next_u64() ^ 0xA5A5A5A5A5A5A5A5)
