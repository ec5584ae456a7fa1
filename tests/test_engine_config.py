"""EngineConfig: one snapshot of every engine knob, env-overridable.

The knobs keep living as module constants next to the code they tune
(tests monkeypatch them there); :meth:`EngineConfig.from_env` snapshots
them at call time with ``REPRO_*`` environment overrides applied, and
the frozen dataclass threads through kernel, pool, and fabric so one
run agrees with itself everywhere.  All knobs are throughput/policy
levers: no observable may depend on any of them.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.ampc import messaging, pool
from repro.ampc.engine_config import EngineConfig
from repro.core import columnar_rounds
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import random_gnm, union_of_random_forests


class TestFromEnv:
    def test_defaults_snapshot_module_constants(self):
        cfg = EngineConfig.from_env(env={})
        assert cfg.cohort_games == columnar_rounds.COHORT_GAMES
        assert cfg.min_pool_games == pool.MIN_POOL_GAMES
        assert cfg.message_cap_words == messaging.MESSAGE_CAP_WORDS
        assert cfg.shard_budget_words is None
        assert cfg.max_shard_retries == pool.MAX_SHARD_RETRIES
        assert cfg.retry_backoff_s == pool.RETRY_BACKOFF_S
        assert cfg.pool_deadline_s == pool.POOL_DEADLINE_S
        assert cfg.pool_deadline_scale == pool.POOL_DEADLINE_SCALE
        assert cfg.pool_degrade is pool.POOL_DEGRADE

    def test_env_overrides_parse_and_win(self):
        cfg = EngineConfig.from_env(env={
            "REPRO_COHORT_GAMES": "128",
            "REPRO_MIN_POOL_GAMES": "7",
            "REPRO_MESSAGE_CAP_WORDS": "4096",
            "REPRO_SHARD_BUDGET_WORDS": "123456",
            "REPRO_MAX_SHARD_RETRIES": "5",
            "REPRO_RETRY_BACKOFF_S": "0.25",
            "REPRO_POOL_DEADLINE_S": "12.5",
            "REPRO_POOL_DEADLINE_SCALE": "8",
            "REPRO_POOL_DEGRADE": "off",
        })
        assert cfg.cohort_games == 128
        assert cfg.min_pool_games == 7
        assert cfg.message_cap_words == 4096
        assert cfg.shard_budget_words == 123456
        assert cfg.max_shard_retries == 5
        assert cfg.retry_backoff_s == 0.25
        assert cfg.pool_deadline_s == 12.5
        assert cfg.pool_deadline_scale == 8.0
        assert cfg.pool_degrade is False

    def test_blank_values_fall_back(self):
        cfg = EngineConfig.from_env(env={"REPRO_COHORT_GAMES": "  "})
        assert cfg.cohort_games == columnar_rounds.COHORT_GAMES

    def test_engine_env_override(self):
        assert EngineConfig.from_env(env={}).engine is None
        cfg = EngineConfig.from_env(env={"REPRO_ENGINE": "scalar"})
        assert cfg.engine == "scalar"

    def test_repro_engine_selects_engine(self, monkeypatch):
        # engine=None reads REPRO_ENGINE; an explicit engine= wins.
        g = random_gnm(60, 120, seed=3)
        monkeypatch.setenv("REPRO_ENGINE", "scalar")
        out = beta_partition_ampc(g, 9, store="columnar")
        assert out.engine == "scalar"
        explicit = beta_partition_ampc(g, 9, store="columnar",
                                       engine="batched")
        assert explicit.engine == "batched"
        monkeypatch.setenv("REPRO_ENGINE", "turbo")
        with pytest.raises(ValueError, match="REPRO_ENGINE"):
            beta_partition_ampc(g, 9, store="columnar")

    @pytest.mark.parametrize("name", [
        "REPRO_COHORT_GAMES",
        "REPRO_MIN_POOL_GAMES",
        "REPRO_MESSAGE_CAP_WORDS",
        "REPRO_SHARD_BUDGET_WORDS",
    ])
    def test_nonpositive_int_overrides_rejected_at_parse_time(self, name):
        # A zero/negative knob used to pass straight through int() and
        # fail deep inside the engine (or silently degenerate); now the
        # error fires here and names the variable and value.
        for raw in ("0", "-3"):
            with pytest.raises(ValueError, match=name) as err:
                EngineConfig.from_env(env={name: raw})
            assert raw in str(err.value)

    @pytest.mark.parametrize("name", [
        "REPRO_COHORT_GAMES", "REPRO_ENGINE",
    ])
    def test_non_numeric_overrides_name_the_variable(self, name):
        with pytest.raises(ValueError, match=name) as err:
            EngineConfig.from_env(env={name: "banana"})
        assert "banana" in str(err.value)

    def test_message_cap_floor_matches_fabric(self):
        # The fabric rejects cap_words < 4 (one row header); the env
        # parse must fail the same way instead of deferring the crash.
        with pytest.raises(ValueError, match="REPRO_MESSAGE_CAP_WORDS"):
            EngineConfig.from_env(env={"REPRO_MESSAGE_CAP_WORDS": "2"})

    def test_supervisor_knob_validation(self):
        # retries may be 0 (fail fast) but never negative.
        cfg = EngineConfig.from_env(env={"REPRO_MAX_SHARD_RETRIES": "0"})
        assert cfg.max_shard_retries == 0
        with pytest.raises(ValueError, match="REPRO_MAX_SHARD_RETRIES"):
            EngineConfig.from_env(env={"REPRO_MAX_SHARD_RETRIES": "-1"})
        # backoff 0 is valid (no sleep); negative is not.
        cfg = EngineConfig.from_env(env={"REPRO_RETRY_BACKOFF_S": "0"})
        assert cfg.retry_backoff_s == 0.0
        with pytest.raises(ValueError, match="REPRO_RETRY_BACKOFF_S"):
            EngineConfig.from_env(env={"REPRO_RETRY_BACKOFF_S": "-0.1"})
        # a zero deadline would kill every shard instantly.
        with pytest.raises(ValueError, match="REPRO_POOL_DEADLINE_S"):
            EngineConfig.from_env(env={"REPRO_POOL_DEADLINE_S": "0"})
        # scale < 1 would kill shards faster than the slowest sibling.
        with pytest.raises(ValueError, match="REPRO_POOL_DEADLINE_SCALE"):
            EngineConfig.from_env(env={"REPRO_POOL_DEADLINE_SCALE": "0.5"})

    def test_pool_degrade_boolean_parse(self):
        for raw, want in (
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("false", False), ("No", False), ("off", False),
        ):
            cfg = EngineConfig.from_env(env={"REPRO_POOL_DEGRADE": raw})
            assert cfg.pool_degrade is want
        with pytest.raises(ValueError, match="REPRO_POOL_DEGRADE"):
            EngineConfig.from_env(env={"REPRO_POOL_DEGRADE": "maybe"})

    def test_misspelled_engine_rejected_at_parse_time(self):
        # "compilde" used to thread silently until partition time.
        with pytest.raises(ValueError, match="REPRO_ENGINE") as err:
            EngineConfig.from_env(env={"REPRO_ENGINE": "compilde"})
        assert "compilde" in str(err.value)
        assert "compiled" in str(err.value)  # the valid choices are named

    def test_monkeypatched_constants_flow_through(self, monkeypatch):
        # Defaults are read at call time, so tests that pin a module
        # constant see their pin honored by from_env().
        monkeypatch.setattr(columnar_rounds, "COHORT_GAMES", 77)
        monkeypatch.setattr(pool, "MIN_POOL_GAMES", 9)
        cfg = EngineConfig.from_env(env={})
        assert cfg.cohort_games == 77
        assert cfg.min_pool_games == 9

    def test_frozen_and_with_overrides(self):
        cfg = EngineConfig.from_env(env={})
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.cohort_games = 1
        alt = cfg.with_overrides(cohort_games=5, shard_budget_words=42)
        assert alt.cohort_games == 5
        assert alt.shard_budget_words == 42
        assert cfg.cohort_games == columnar_rounds.COHORT_GAMES


class TestThreading:
    def test_min_pool_games_for_prefers_config(self):
        # One cutoff for every engine: threads, processes and the
        # fabric's shard chains all read the same knob.
        cfg = EngineConfig.from_env(env={}).with_overrides(min_pool_games=11)
        assert pool.min_pool_games_for(cfg) == 11
        assert pool.min_pool_games_for() == pool.MIN_POOL_GAMES
        fields = {f.name for f in dataclasses.fields(EngineConfig)}
        assert "min_pool_games_batched" not in fields

    def test_knobs_do_not_change_observables(self):
        # A deliberately odd cohort size must be invisible:
        # bit-identical partitions and per-round stats.
        g = random_gnm(80, 160, seed=5)
        base = beta_partition_ampc(g, 5, store="columnar")
        tuned = beta_partition_ampc(
            g, 5, store="columnar",
            config=EngineConfig.from_env().with_overrides(cohort_games=3),
        )
        assert tuned.partition.layers == base.partition.layers
        for ra, rb in zip(
            base.simulator.stats.rounds, tuned.simulator.stats.rounds
        ):
            assert (ra.total_reads, ra.total_writes, ra.store_words) == (
                rb.total_reads, rb.total_writes, rb.store_words
            )

    def test_env_shard_budget_reaches_the_guard(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_BUDGET_WORDS", "50")
        g = union_of_random_forests(200, 1, seed=7)
        with pytest.raises(messaging.MemoryGuardError):
            beta_partition_ampc(
                g, 3, x=4, store="columnar", transport="message", shards=2
            )

    def test_explicit_budget_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_BUDGET_WORDS", "50")
        g = union_of_random_forests(40, 1, seed=1)
        out = beta_partition_ampc(
            g, 3, x=4, store="columnar", transport="message", shards=2,
            shard_budget=10**9,
        )
        assert out.max_held_words > 50  # env budget would have tripped
