"""Exact incremental cascade replay — cone invalidation and reuse plumbing.

The differential matrices in ``tests/test_parallel_equivalence`` already
pin the batched engine (replay included) against the dict oracle; these
tests aim the replay machinery's own edges: adversarial shapes where a
newly explored row lands mid-hop inside another game's snapshotted
interior, games dropping out of the replay arena through bigint
ejection, the redo hand-back when a cone demands a scale escalation, the
adaptive cone gate, GameCache's cone-aware batch validation, and the
cohort-granular / engine-aware pool dispatch.  One mid-size differential
shape runs in the default tier-1 tier (not ``--slow``-gated) so replay
correctness is exercised on every push.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ampc import faults
import repro.core.batched_games as batched_games
from repro.ampc.pool import (
    _SHARED_POOLS,
    CoinGamePool,
    close_shared_pools,
    min_pool_games_for,
)
from repro.core.batched_games import play_games_batched
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import (
    GameCache,
    play_coin_game,
    residual_adjacency_lists,
)
from repro.graphs.generators import (
    cycle_graph,
    grid_2d,
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer

_INF = float("inf")


def _assert_same_outcome(a, b):
    assert a.partition.layers == b.partition.layers
    assert a.rounds == b.rounds
    for ra, rb in zip(a.simulator.stats.rounds, b.simulator.stats.rounds):
        for field in (
            "machines_active", "max_reads", "max_writes",
            "total_reads", "total_writes", "store_words",
        ):
            assert getattr(ra, field) == getattr(rb, field), field


def _reuse_totals(outcome) -> dict:
    totals: dict = {}
    for reuse in outcome.round_reuse:
        for key, value in reuse.items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    return totals


def _engine_vs_scalar(graph: Graph, beta: int, x: int):
    """Full-fleet lockstep run vs the scalar oracle, all observables."""
    offsets, targets = graph.csr()
    n = graph.num_vertices
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    scale = fixed_coin_scale(beta, horizon)
    roots = np.arange(n, dtype=np.int64)
    out_layer = np.full(n, _INF)
    out_count = np.zeros(n, dtype=np.int64)
    stats: dict = {}
    info = play_games_batched(
        offsets, targets, roots, x=x, beta=beta, clip=clip, horizon=horizon,
        scale=scale, out_layer=out_layer, out_count=out_count,
        want_records=True, replay_stats=stats,
    )
    adj = residual_adjacency_lists(offsets, targets)
    ejected = set(info.ejected.tolist())
    ref_layer = [_INF] * n
    ref_count = [0] * n
    for v in range(n):
        rl = ref_layer if v not in ejected else [_INF] * n
        rc = ref_count if v not in ejected else [0] * n
        reads, writes, record = play_coin_game(
            adj, v, x, beta, clip, horizon, scale, rl, rc, True,
        )
        if v in ejected:
            continue  # the fallback wrapper replays these scalar-side
        assert reads == info.reads[v], f"reads diverge at root {v}"
        assert writes == info.writes[v], f"writes diverge at root {v}"
        assert record[0] == info.records[v][0], f"S_v diverges at root {v}"
        assert sorted(record[1]) == sorted(info.records[v][1])
    if not ejected:
        # Ejected games zero their engine-side fold (the fallback wrapper
        # replays them scalar), so the raw fold compares only when none.
        assert np.array_equal(out_layer, np.array(ref_layer))
        assert np.array_equal(out_count, np.asarray(ref_count))
    return stats


class TestTier1ReplayDifferential:
    def test_mid_size_gnm_shape(self):
        # The tier-1 (every-push) incremental-replay shape: multi-wave
        # games whose balls overlap heavily, so explored rows constantly
        # land inside other games' snapshotted interiors.  Asserts the
        # full outcome against the dict oracle AND that replay actually
        # engaged — a silently disabled replay path cannot pass.
        g = random_gnm(1500, 3000, seed=42)
        oracle = beta_partition_ampc(g, 9, store="dict")
        batched = beta_partition_ampc(g, 9, store="columnar", engine="batched")
        _assert_same_outcome(oracle, batched)
        totals = _reuse_totals(batched)
        assert totals["replayed_waves"] > 0
        assert totals["replayed_entries"] > 0
        assert batched.round_reuse[0]["cone_fraction"] is not None


class TestConeInvalidation:
    @pytest.mark.parametrize("maker,beta,x", [
        # Overlapping-ball shapes: every explore wave patches rows deep
        # inside other games' snapshotted interiors mid-hop.
        (lambda: grid_2d(14, 14), 3, 16),
        (lambda: cycle_graph(160), 1, 4),
        (lambda: random_gnm(220, 440, seed=77), 4, 25),
        (lambda: union_of_random_forests(200, 2, seed=13), 6, 49),
        # Hubs: σ-ranked forwarding sets in play, so games keep losing
        # replay eligibility to the σ-dependence rule.
        (lambda: preferential_attachment(200, 2, seed=9), 6, 49),
    ])
    def test_randomized_adversarial_shapes(self, maker, beta, x):
        stats = _engine_vs_scalar(maker(), beta, x)
        assert stats.get("fresh_waves", 0) > 0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
    def test_randomized_gnm_sweep(self, seed):
        g = random_gnm(150, 300, seed=seed)
        _engine_vs_scalar(g, 9, 100)

    def test_redo_hand_back_is_exact(self):
        # A shape measured to hand games back mid-replay (cone divisions
        # outgrowing the padded snapshot scale): the redo path re-runs
        # them fresh and must stay bit-identical.
        g = random_gnm(1500, 3000, seed=42)
        batched = beta_partition_ampc(g, 9, store="columnar", engine="batched")
        assert _reuse_totals(batched)["redo_games"] > 0
        oracle = beta_partition_ampc(g, 9, store="dict")
        _assert_same_outcome(oracle, batched)

    def test_adaptive_gate_choices_are_invisible(self, monkeypatch):
        # The gate only ever picks between two exact strategies: forcing
        # it fully off (cutoff 0 disables replay after the streak) and
        # fully on (cutoff 1 never disables) must produce identical
        # observables.
        g = random_gnm(300, 600, seed=5)
        oracle = beta_partition_ampc(g, 9, store="dict")
        monkeypatch.setattr(batched_games, "REPLAY_CONE_CUTOFF", -1.0)
        never = beta_partition_ampc(g, 9, store="columnar", engine="batched")
        monkeypatch.setattr(batched_games, "REPLAY_CONE_CUTOFF", 2.0)
        always = beta_partition_ampc(g, 9, store="columnar", engine="batched")
        _assert_same_outcome(oracle, never)
        _assert_same_outcome(oracle, always)
        assert _reuse_totals(never)["replay_disabled"] > 0
        assert _reuse_totals(always).get("replay_disabled", 0) == 0


class TestEjectionDropsOutOfArena:
    def test_ejected_games_mixed_with_replaying_games(self, monkeypatch):
        # A small word budget forces mid-run bigint ejections while other
        # games keep replaying: an ejected game drops out of the replay
        # arena and replays scalar-side, and the fold must not notice.
        g = preferential_attachment(300, 2, seed=11)
        oracle = beta_partition_ampc(g, 6, store="dict")
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        hatch = beta_partition_ampc(g, 6, store="columnar", engine="batched")
        _assert_same_outcome(oracle, hatch)

    def test_gamecache_parity_when_ejection_invalidates_record(
        self, monkeypatch
    ):
        # Multi-round instance under a tiny word budget: cross-round
        # cache records are produced by both the lockstep arena and the
        # scalar escape hatch, and invalidation must treat them alike.
        beta = 3
        g = union_of_random_forests(220, 2, seed=21)
        oracle = beta_partition_ampc(g, beta, x=beta + 1, store="dict")
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 22)
        batched = beta_partition_ampc(
            g, beta, x=beta + 1, store="columnar", engine="batched"
        )
        assert batched.rounds >= 2
        _assert_same_outcome(oracle, batched)
        scalar = beta_partition_ampc(
            g, beta, x=beta + 1, store="columnar", engine="scalar"
        )
        assert batched.game_cache_hits == scalar.game_cache_hits


class TestGameCacheConeValidation:
    def test_lookup_all_matches_scalar_lookup(self):
        cache = GameCache()
        cache.store(3, ([3, 4, 5], [(3, 0), (4, 1)], 7, 2))
        cache.store(9, ([9, 2], [(9, 0)], 4, 1))
        cache.advance(np.asarray([1, 1, 1, 2, 2, 1, 0, 0, 0, 1]))
        degrees = np.asarray([1, 1, 1, 2, 2, 1, 0, 0, 0, 1])
        alive = np.ones(10, dtype=bool)
        pos, reads, writes, pu, pl = cache.lookup_all(
            np.asarray([3, 9, 7]), degrees, alive
        )
        assert pos.tolist() == [0, 1]
        assert reads.tolist() == [7, 4]
        assert writes.tolist() == [2, 1]
        assert sorted(zip(pu.tolist(), pl.tolist())) == [
            (3, 0), (4, 1), (9, 0),
        ]
        assert cache.hits == 2 and cache.misses == 1

    def test_cone_intersection_invalidates(self):
        cache = GameCache()
        cache.store(3, ([3, 4, 5], [(3, 0)], 7, 2))
        cache.store(9, ([9, 2], [(9, 0)], 4, 1))
        cache.advance(np.asarray([1, 1, 1, 2, 2, 1, 0, 0, 0, 1]))
        degrees = np.asarray([1, 1, 1, 2, 1, 1, 0, 0, 0, 1])  # deg[4] moved
        alive = np.ones(10, dtype=bool)
        pos, reads, __w, __u, __l = cache.lookup_all(
            np.asarray([3, 9]), degrees, alive
        )
        # 3's ball intersects the invalidation cone (member 4 changed);
        # 9's does not.  The stale record drops on sight.
        assert pos.tolist() == [1]
        assert len(cache) == 1

    def test_dead_member_is_in_the_cone(self):
        cache = GameCache()
        cache.store(3, ([3, 4], [(3, 0)], 3, 1))
        cache.advance(np.asarray([0, 0, 0, 1, 1]))
        alive = np.asarray([True, True, True, True, False])
        pos, *_rest = cache.lookup_all(
            np.asarray([3]), np.asarray([0, 0, 0, 1, 1]), alive
        )
        assert pos.size == 0
        assert len(cache) == 0


class TestPoolDispatch:
    def test_engine_aware_threshold(self):
        assert min_pool_games_for("batched") > min_pool_games_for("scalar")

    def test_batched_rounds_below_cutoff_stay_serial(self):
        # 600 pending games: above the scalar cutoff (256) but below the
        # batched one (2048) — the pool must never fork under the
        # batched engine, and must fork under the scalar engine.
        close_shared_pools()
        g = random_gnm(600, 1200, seed=2)
        beta_partition_ampc(g, 9, store="columnar", workers=2, engine="batched")
        pool = _SHARED_POOLS.get(2)
        assert pool is not None and pool._executor is None
        beta_partition_ampc(g, 9, store="columnar", workers=2, engine="scalar")
        assert _SHARED_POOLS[2]._executor is not None
        close_shared_pools()

    def test_cohort_granular_shards(self):
        # Shard boundaries must fall on cohort multiples when the fleet
        # spans enough cohorts, so workers run whole cache-sized cohorts.
        g = random_gnm(64, 128, seed=4)
        offsets, targets = g.csr()
        clip = max_provable_layer(16, 3)
        horizon = 4 * (clip + 2)
        scale = fixed_coin_scale(3, horizon)
        roots = np.arange(40, dtype=np.int64)
        with CoinGamePool(2) as pool:
            shards = pool.run_games(
                offsets, targets, roots, roots,
                x=16, beta=3, clip=clip, horizon=horizon, scale=scale,
                want_records=False, engine="batched", cohort_games=8,
            )
            sizes = sorted(len(p) for p, __ in shards)
            assert sizes == [8, 8, 8, 8, 8]
            # Too few cohorts for the fleet: rebalances instead.
            shards = pool.run_games(
                offsets, targets, roots[:12], roots[:12],
                x=16, beta=3, clip=clip, horizon=horizon, scale=scale,
                want_records=False, engine="batched", cohort_games=8,
            )
            assert sum(len(p) for p, __ in shards) == 12

    def test_workers_replay_counters_fold_back(self):
        close_shared_pools()
        g = random_gnm(400, 800, seed=6)
        pooled = beta_partition_ampc(
            g, 9, store="columnar", workers=2, min_pool_games=1,
            engine="batched",
        )
        serial = beta_partition_ampc(
            g, 9, store="columnar", workers=1, engine="batched"
        )
        assert pooled.partition.layers == serial.partition.layers
        assert _reuse_totals(pooled).get("fresh_waves", 0) > 0
        close_shared_pools()


@pytest.fixture(autouse=True)
def _no_worker_env(monkeypatch):
    """These tests pin worker counts explicitly; isolate from CI's env."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    yield
    # No test may leak an in-process injected fault plan.
    assert faults._ACTIVE_SET is False
