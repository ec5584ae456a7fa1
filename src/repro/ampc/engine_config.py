"""Tunable engine knobs as one explicit, env-overridable configuration.

Scenario sweeps want to tune dispatch cutoffs and cohort sizes without
editing source.  The knobs keep living as module constants next to the
code they tune (:data:`repro.core.columnar_rounds.COHORT_GAMES`,
:data:`repro.ampc.pool.MIN_POOL_GAMES` /
:data:`~repro.ampc.pool.MIN_POOL_GAMES_BATCHED`) — tests monkeypatch
them there, and they document themselves in context — but every run of
:func:`repro.core.beta_partition_ampc.beta_partition_ampc` snapshots
them into one frozen :class:`EngineConfig` via :meth:`EngineConfig.from_env`,
applying ``REPRO_*`` environment overrides on top.  The config then
threads explicitly through the round kernel, the process pool (one
picklable value per shard payload), the batched engine, and the message
fabric, so every layer of one run agrees on the same knob values.

All knobs are pure throughput/memory-policy levers: no observable
(partitions, probe counts, store words) depends on any of them, which
is exactly why an environment override is safe.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Mapping

__all__ = ["EngineConfig"]

# Engine names an env override may select; beta_partition_ampc accepts
# the same set (plus None) for explicitly constructed configs.
_ENGINE_NAMES = ("scalar", "batched", "compiled")


def _env_int(name: str, raw: str, minimum: int) -> int:
    """Parse an integer env override, naming the variable on any error."""
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{name}={raw!r} is not an integer"
        ) from None
    if value < minimum:
        raise ValueError(f"{name}={raw!r} must be >= {minimum}")
    return value


def _env_float(name: str, raw: str, low: float, high: float) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{name}={raw!r} is not a number") from None
    if not (low <= value <= high):
        raise ValueError(f"{name}={raw!r} must be in [{low}, {high}]")
    return value


def _env_bool(name: str, raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{name}={raw!r} is not a boolean (use 0/1)")


def _env_engine(name: str, raw: str) -> str:
    if raw not in _ENGINE_NAMES:
        choices = ", ".join(f'"{e}"' for e in _ENGINE_NAMES)
        raise ValueError(f"{name}={raw!r} must be one of {choices}")
    return raw


@dataclass(frozen=True)
class EngineConfig:
    """One run's engine knobs (see module docstring for the defaults).

    ``message_cap_words`` and ``shard_budget_words`` configure the
    message-passing fabric (:mod:`repro.ampc.messaging`): the maximum
    payload of one delivery segment and the per-shard S budget every
    held array is accounted against (None: account but never raise).
    """

    cohort_games: int
    min_pool_games: int
    min_pool_games_batched: int
    message_cap_words: int
    shard_budget_words: int | None = None
    # Round-supervisor knobs (repro.ampc.pool): how many times a lost
    # or corrupted shard chain is re-dispatched before the driver runs
    # it inline (or, with pool_degrade=False, raises WorkerPoolError);
    # the base of the seed-jittered exponential retry backoff; the hard
    # per-shard wall-clock deadline; and the adaptive multiple of the
    # slowest observed sibling shard a still-running shard may take
    # before it is presumed hung and killed.  All recovery knobs — a
    # recovered round is bit-identical to an undisturbed one.
    max_shard_retries: int = 2
    retry_backoff_s: float = 0.05
    pool_deadline_s: float = 300.0
    pool_deadline_scale: float = 25.0
    pool_degrade: bool = True
    # Game engine when the caller passes engine=None: "batched",
    # "compiled", or "scalar" (``REPRO_ENGINE``); None keeps the
    # built-in default ("compiled", downgraded with a warning to
    # "batched" when the kernel cannot load).  Engine choice never changes
    # observables — the compiled kernel is bit-identical by contract —
    # so an env override is as safe as the throughput knobs above.
    engine: str | None = None

    @classmethod
    def from_env(cls, env: Mapping[str, str] | None = None) -> "EngineConfig":
        """Snapshot the module-constant defaults with ``REPRO_*`` overrides.

        Defaults are read from the owning modules *at call time*, so a
        test that monkeypatches e.g. ``columnar_rounds.COHORT_GAMES``
        before running a partition sees its patch honored here.

        Every override is validated at parse time — a zero or negative
        cohort size, a non-numeric value, or a misspelled engine name
        raises a :class:`ValueError` naming the offending variable and
        value here, instead of failing deep inside the engine (or
        silently degenerating) rounds later.
        """
        # Imported lazily: repro.core imports repro.ampc, so a top-level
        # import back into core would be cyclic.
        from repro.ampc import messaging, pool
        from repro.core import columnar_rounds

        if env is None:
            env = os.environ

        def get(name: str, default, parse, *args):
            raw = env.get(name, "").strip()
            return parse(name, raw, *args) if raw else default

        return cls(
            cohort_games=get(
                "REPRO_COHORT_GAMES", columnar_rounds.COHORT_GAMES,
                _env_int, 1,
            ),
            min_pool_games=get(
                "REPRO_MIN_POOL_GAMES", pool.MIN_POOL_GAMES, _env_int, 1
            ),
            min_pool_games_batched=get(
                "REPRO_MIN_POOL_GAMES_BATCHED", pool.MIN_POOL_GAMES_BATCHED,
                _env_int, 1,
            ),
            message_cap_words=get(
                "REPRO_MESSAGE_CAP_WORDS", messaging.MESSAGE_CAP_WORDS,
                # >= 4: one row-resolution header must fit in a segment
                # (the same floor MessageFabric enforces).
                _env_int, 4,
            ),
            shard_budget_words=get(
                "REPRO_SHARD_BUDGET_WORDS", None, _env_int, 1
            ),
            max_shard_retries=get(
                "REPRO_MAX_SHARD_RETRIES", pool.MAX_SHARD_RETRIES,
                _env_int, 0,
            ),
            retry_backoff_s=get(
                "REPRO_RETRY_BACKOFF_S", pool.RETRY_BACKOFF_S,
                _env_float, 0.0, 3600.0,
            ),
            pool_deadline_s=get(
                "REPRO_POOL_DEADLINE_S", pool.POOL_DEADLINE_S,
                _env_float, 0.001, float("inf"),
            ),
            pool_deadline_scale=get(
                "REPRO_POOL_DEADLINE_SCALE", pool.POOL_DEADLINE_SCALE,
                _env_float, 1.0, float("inf"),
            ),
            pool_degrade=get(
                "REPRO_POOL_DEGRADE", pool.POOL_DEGRADE, _env_bool
            ),
            engine=get("REPRO_ENGINE", None, _env_engine),
        )

    def with_overrides(self, **changes) -> "EngineConfig":
        """A copy with ``changes`` applied (convenience for call sites)."""
        return replace(self, **changes)
