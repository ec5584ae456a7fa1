"""Deterministic seeded fault injection and row-slab checksums.

The message fabric's shard chains run on threads
(:mod:`repro.ampc.pool`), and a chain whose row slab fails its checksum
is re-run bit-identically, because it is a pure function of its
inputs.  Testing that promise needs faults that are

- **deterministic** — a chaos run must be reproducible from one seed, so
  a failing schedule can be replayed exactly;
- **addressable** — keyed by ``(round, shard, attempt)``, where
  ``round`` counts the partition call's chain dispatches, so a test can
  fault *the second attempt of shard 3 in dispatch 7* and nothing else
  (and so a re-run draws a fresh fault decision instead of
  deterministically re-failing forever);
- **scoped** — an explicitly :func:`inject`-ed plan always beats the
  ``REPRO_FAULT_PLAN`` environment shim CI uses to chaos-run the whole
  suite.

Fault kinds
-----------

``slow``
    The chain sleeps ``slow_s`` seconds, then plays normally — jitter
    for completion order, which no observable may depend on.
``slab``
    The chain corrupts one served row-resolution slab after stamping
    its :func:`rows_checksum` — the row-message integrity path:
    ``install_ghosts`` rejects the slab before any ghost mutates, the
    attempt dies with a :class:`ChecksumError`, and the re-run redraws.

Checksums
---------

:func:`rows_checksum` digests a row-resolution slab ``(ids, lens,
targets)`` — a CRC-32 of each packed array with its length, chained
through a splitmix64 finalizer.  It is the integrity contract a future
socket/MPI transport attaches to every row message
(:meth:`repro.ampc.messaging._Shard.install_ghosts` verifies it; the
in-process paths stamp one only under an active fault plan, since a
same-process self-stamp can never detect corruption).
"""

from __future__ import annotations

import contextlib
import os
import zlib
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from repro.util.rng import GAMMA, mix64

__all__ = [
    "ChecksumError",
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "inject",
    "rows_checksum",
]

FAULT_KINDS = ("slow", "slab")

FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"


class ChecksumError(RuntimeError):
    """A payload failed its integrity check (corrupted in transit)."""


class FaultSpec(NamedTuple):
    """One resolved fault: what to do and (for slow) for how long."""

    kind: str
    seconds: float = 0.0


class FaultPlan:
    """A deterministic schedule of chain faults keyed by
    ``(round, shard, attempt)``.

    ``entries`` maps explicit keys to kinds.  A ``seed`` additionally
    samples faults for *every* key: the key is hashed through splitmix64
    and faults with probability ``rate``, drawing the kind from
    ``kinds`` — reproducible chaos at any dispatch count.  ``attempts``
    (when set) restricts seeded faults to attempt indices below it, so
    a schedule can be made survivable-by-retry by construction;
    ``rate=1.0`` with ``attempts=None`` faults every attempt of every
    shard, so a ``slab`` plan exhausts the re-runs.

    Plans encode to a ``key=value;…`` string (:meth:`spec`)
    round-trippable through :meth:`parse` — the ``REPRO_FAULT_PLAN``
    shim CI uses.
    """

    def __init__(
        self,
        entries: Mapping[tuple[int, int, int], str] | None = None,
        *,
        seed: int | None = None,
        rate: float = 0.0,
        kinds: Iterable[str] = ("slab",),
        attempts: int | None = None,
        slow_s: float = 0.02,
    ) -> None:
        self.entries = {}
        for key, kind in dict(entries or {}).items():
            rnd, shard, attempt = (int(c) for c in key)
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}"
                )
            self.entries[(rnd, shard, attempt)] = kind
        self.seed = None if seed is None else int(seed)
        self.rate = float(rate)
        if not (0.0 <= self.rate <= 1.0):
            raise ValueError("rate must be in [0, 1]")
        self.kinds = tuple(kinds)
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}"
                )
        if self.rate > 0.0 and self.seed is not None and not self.kinds:
            raise ValueError("a seeded plan needs at least one kind")
        self.attempts = None if attempts is None else int(attempts)
        self.slow_s = float(slow_s)

    def lookup(self, rnd: int, shard: int, attempt: int) -> FaultSpec | None:
        """The fault (if any) for this dispatch/shard/attempt key."""
        kind = self.entries.get((rnd, shard, attempt))
        if (
            kind is None
            and self.seed is not None
            and self.rate > 0.0
            and (self.attempts is None or attempt < self.attempts)
        ):
            h = mix64(self.seed + GAMMA)
            for coord in (rnd, shard, attempt):
                h = mix64(h ^ (coord + GAMMA))
            if (h >> 11) / float(1 << 53) < self.rate:
                kind = self.kinds[mix64(h + 1) % len(self.kinds)]
        if kind is None:
            return None
        if kind == "slow":
            return FaultSpec(kind, self.slow_s)
        return FaultSpec(kind)

    def spec(self) -> str:
        """The ``key=value;…`` encoding :meth:`parse` round-trips."""
        parts = []
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.rate:
            parts.append(f"rate={self.rate}")
        if self.seed is not None or self.rate:
            parts.append("kinds=" + "+".join(self.kinds))
        if self.attempts is not None:
            parts.append(f"attempts={self.attempts}")
        parts.append(f"slow_s={self.slow_s}")
        if self.entries:
            parts.append("at=" + "+".join(
                f"{kind}@{r}.{s}.{a}"
                for (r, s, a), kind in sorted(self.entries.items())
            ))
        return ";".join(parts)

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the env-shim syntax, e.g.
        ``"seed=7;rate=0.2;kinds=slab+slow"`` or
        ``"at=slab@0.1.0+slow@2.0.1;slow_s=0.5"``.
        """
        kwargs: dict = {}
        entries: dict[tuple[int, int, int], str] = {}
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(
                    f"bad fault-plan entry {part!r} (want key=value)"
                )
            if key == "seed":
                kwargs["seed"] = int(value)
            elif key == "rate":
                kwargs["rate"] = float(value)
            elif key == "kinds":
                kwargs["kinds"] = tuple(value.split("+"))
            elif key == "attempts":
                kwargs["attempts"] = int(value)
            elif key == "slow_s":
                kwargs[key] = float(value)
            elif key == "at":
                for item in value.split("+"):
                    kind, sep2, coords = item.partition("@")
                    cs = coords.split(".")
                    if not sep2 or len(cs) != 3:
                        raise ValueError(
                            f"bad explicit fault {item!r} "
                            "(want kind@round.shard.attempt)"
                        )
                    entries[tuple(int(c) for c in cs)] = kind
            else:
                raise ValueError(f"unknown fault-plan key {key!r}")
        return cls(entries, **kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({self.spec()!r})"


# Explicitly injected plan.  A module global rather than a parameter
# thread-through: the plan is test machinery, resolved once per
# dispatch — production call sites never mention it.
_ACTIVE: FaultPlan | None = None
_ACTIVE_SET = False
# One-slot cache of the env-shim parse, keyed by the raw string.
_ENV_CACHE: tuple[str, FaultPlan] | None = None


@contextlib.contextmanager
def inject(plan: FaultPlan | None):
    """Activate ``plan`` for chain dispatches inside the block.

    An injected plan (even ``None``) beats the ``REPRO_FAULT_PLAN``
    environment shim, so a test pinning its own schedule is isolated
    from a CI-wide chaos run.
    """
    global _ACTIVE, _ACTIVE_SET
    prev, prev_set = _ACTIVE, _ACTIVE_SET
    _ACTIVE, _ACTIVE_SET = plan, True
    try:
        yield plan
    finally:
        _ACTIVE, _ACTIVE_SET = prev, prev_set


def active_plan() -> FaultPlan | None:
    """The plan the next dispatch should use: :func:`inject`'s, else
    the parsed ``REPRO_FAULT_PLAN`` environment shim, else None."""
    global _ENV_CACHE
    if _ACTIVE_SET:
        return _ACTIVE
    raw = os.environ.get(FAULT_PLAN_ENV, "").strip()
    if not raw:
        return None
    if _ENV_CACHE is None or _ENV_CACHE[0] != raw:
        _ENV_CACHE = (raw, FaultPlan.parse(raw))
    return _ENV_CACHE[1]


def rows_checksum(
    ids: np.ndarray, lens: np.ndarray, targets: np.ndarray
) -> int:
    """Digest of one row-resolution slab ``(ids, lens, targets)``.

    The digest is slab-granular — one CRC pass per packed array, not a
    python loop over rows — matching the columnar wire format
    :func:`repro.ampc.messaging.run_shard_chain` serves and
    :meth:`~repro.ampc.messaging._Shard.install_ghosts` verifies.
    """
    h = 0x452821E638D01377
    for arr in (ids, lens, targets):
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        h = mix64(h ^ zlib.crc32(arr))
        h = mix64(h ^ len(arr))
    return h
