"""Unit-level coverage of the lockstep batched coin-game engine.

The differential matrices in ``tests/test_parallel_equivalence`` pin the
engine against the dict oracle end-to-end; these tests aim at the
engine's own moving parts — the shared-CSR transpose map behind row
patches, cohort blocking, the coin-scale escape hatch (ejection), the
huge-β escalation fallback, engine-aware and cohort-granular pool
dispatch, the batched ``query_all`` port the E1/F2 sweeps run on, and
multi-round partitions whose later rounds replay nothing from earlier
ones.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.ampc import faults
import repro.core.batched_games as batched_games
import repro.core.columnar_rounds as columnar_rounds
from repro.ampc.pool import (
    _SHARED_POOLS,
    CoinGamePool,
    close_shared_pools,
    min_pool_games_for,
    resolve_workers,
)
from repro.core.batched_games import (
    csr_transpose_positions,
    play_games_batched,
)
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import (
    play_coin_game,
    residual_adjacency_lists,
    run_games_batched_with_fallback,
)
from repro.experiments.e1_lca_quality import run_lca_quality
from repro.experiments.f2_exploration_ablation import run_exploration_ablation
from repro.graphs.generators import (
    complete_ary_tree,
    cycle_graph,
    grid_2d,
    path_graph,
    preferential_attachment,
    random_gnm,
    star_graph,
    union_of_random_forests,
)
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer
from repro.lca.partial_partition_lca import PartialPartitionLCA

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


def _play_both_engines(graph, beta, x, want_records=False):
    """One full-fleet run per engine; returns (batched, scalar) outputs.

    The batched side goes through the kernel's fallback wrapper, so
    legitimately ejected games replay scalar-side exactly as a round
    would run them.
    """
    offsets, targets = graph.csr()
    n = graph.num_vertices
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    scale = fixed_coin_scale(beta, horizon)
    roots = np.arange(n, dtype=np.int64)

    out_layer = np.full(n, _INF)
    out_count = np.zeros(n, dtype=np.int64)
    reads, writes, records = run_games_batched_with_fallback(
        offsets, targets, roots, x=x, beta=beta, clip=clip, horizon=horizon,
        scale=scale, out_layer=out_layer, out_count=out_count,
        want_records=want_records,
    )

    adj = residual_adjacency_lists(offsets, targets)
    ref_layer = [_INF] * n
    ref_count = [0] * n
    ref_reads = np.zeros(n, dtype=np.int64)
    ref_writes = np.zeros(n, dtype=np.int64)
    ref_records = []
    for v in range(n):
        ref_reads[v], ref_writes[v], record = play_coin_game(
            adj, v, x, beta, clip, horizon, scale,
            ref_layer, ref_count, want_records,
        )
        ref_records.append(record)
    return (
        (reads, writes, records, out_layer, out_count),
        (ref_reads, ref_writes, ref_records, ref_layer, ref_count),
    )


class TestEngineAgainstScalar:
    @pytest.mark.parametrize("maker,beta,x", [
        (lambda: random_gnm(120, 240, seed=5), 9, 100),
        (lambda: complete_ary_tree(4, 4), 3, 16),
        (lambda: preferential_attachment(150, 2, seed=11), 6, 49),
        (lambda: star_graph(25), 2, 9),
        # Overlapping balls: every explore wave patches rows deep inside
        # other games' explored sets.
        (lambda: grid_2d(14, 14), 3, 16),
        (lambda: cycle_graph(160), 1, 4),
    ])
    def test_reads_writes_folds_and_records_match(self, maker, beta, x):
        graph = maker()
        got, ref = _play_both_engines(graph, beta, x, want_records=True)
        reads, writes, records, out_layer, out_count = got
        ref_reads, ref_writes, ref_records, ref_layer, ref_count = ref
        assert np.array_equal(reads, ref_reads)
        assert np.array_equal(writes, ref_writes)
        assert np.array_equal(out_layer, np.array(ref_layer))
        assert np.array_equal(out_count, np.asarray(ref_count))
        for got_rec, want_rec in zip(records, ref_records):
            assert got_rec[0] == want_rec[0]  # explored, exploration order
            assert sorted(got_rec[1]) == sorted(want_rec[1])  # clipped proof
            assert got_rec[2:] == want_rec[2:]  # (reads, writes)

    def test_isolated_and_tiny_games(self):
        # Star center has deg > β+1 (σ-ranked F); leaves have deg 1.
        graph = star_graph(12)
        got, ref = _play_both_engines(graph, 1, 4)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[4], np.asarray(ref[4]))

    def test_empty_batch(self):
        offsets = np.array([0, 1, 2], dtype=np.int64)
        targets = np.array([1, 0], dtype=np.int64)
        info = play_games_batched(
            offsets, targets, np.empty(0, dtype=np.int64),
            x=4, beta=2, clip=1, horizon=12, scale=12,
            out_layer=np.full(2, _INF), out_count=np.zeros(2, dtype=np.int64),
        )
        assert not info.reads.size and not info.ejected.size


class TestTransposePositions:
    def test_reverse_entry_roundtrip(self):
        graph = random_gnm(200, 400, seed=3)
        offsets, targets = graph.csr()
        tp = csr_transpose_positions(offsets, targets)
        src = np.repeat(np.arange(200), np.diff(offsets))
        # Entry p is (src[p] -> targets[p]); its transpose holds the
        # reversed pair, and transposing twice is the identity.
        assert np.array_equal(src[tp], targets)
        assert np.array_equal(targets[tp], src)
        assert np.array_equal(tp[tp], np.arange(len(targets)))


class TestCohortBlocking:
    def test_tiny_cohorts_change_nothing(self, monkeypatch):
        # Force many game-index blocks even on a small fleet: blocking
        # must be invisible to every observable.
        graph = random_gnm(90, 180, seed=8)
        oracle = beta_partition_ampc(graph, 9, store="dict")
        monkeypatch.setattr(columnar_rounds, "COHORT_GAMES", 7)
        blocked = beta_partition_ampc(graph, 9, store="columnar")
        _assert_same_outcome(oracle, blocked)


class TestEscapeHatch:
    def test_ejected_games_replay_exactly(self, monkeypatch):
        # A tiny word budget forces coin-scale ejections; the scalar
        # fallback must keep the whole round bit-identical.
        graph = preferential_attachment(150, 2, seed=11)
        oracle = beta_partition_ampc(graph, 6, store="dict")
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        ejected_counts = []
        original = batched_games.play_games_batched

        def spy(*args, **kwargs):
            info = original(*args, **kwargs)
            ejected_counts.append(int(info.ejected.size))
            return info

        monkeypatch.setattr(
            columnar_rounds, "play_games_batched", spy
        )
        hatch = beta_partition_ampc(
            graph, 6, store="columnar", engine="batched"
        )
        assert sum(ejected_counts) > 0, "budget never forced an ejection"
        _assert_same_outcome(oracle, hatch)

    def test_no_scaled_representation_at_all(self):
        # x so large that not even scale 1 fits the budget: every game
        # takes the escape hatch (Fraction coins in the deep-horizon
        # scalar fallback) and the outcome still matches the oracle.
        graph = path_graph(4)
        oracle = beta_partition_ampc(graph, 1, x=2**61, store="dict")
        batched = beta_partition_ampc(
            graph, 1, x=2**61, store="columnar", engine="batched"
        )
        _assert_same_outcome(oracle, batched)

    def test_huge_beta_uses_python_lcm_fold(self):
        # β+1 > 36 routes escalation factors through Python bigint lcm
        # (int64 np.lcm would wrap); the observables must not notice.
        graph = star_graph(50)
        oracle = beta_partition_ampc(graph, 40, store="dict")
        batched = beta_partition_ampc(
            graph, 40, store="columnar", engine="batched"
        )
        _assert_same_outcome(oracle, batched)


class TestWorkersAutoAndThreshold:
    def test_resolve_auto(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(None) >= 1  # default is now auto
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert resolve_workers(None) == resolve_workers("auto")

    def test_small_rounds_skip_pool_dispatch(self):
        # Below the minimum-game threshold the pool must never fork:
        # its executor stays unmaterialized for the whole partition.
        close_shared_pools()
        graph = random_gnm(80, 160, seed=2)
        outcome = beta_partition_ampc(graph, 9, store="columnar", workers=2)
        assert not outcome.partition.is_partial(range(80))
        pool = _SHARED_POOLS.get(2)
        assert pool is not None and pool._executor is None
        close_shared_pools()

    def test_threshold_override_dispatches(self):
        close_shared_pools()
        graph = random_gnm(80, 160, seed=2)
        beta_partition_ampc(
            graph, 9, store="columnar", workers=2, min_pool_games=1
        )
        pool = _SHARED_POOLS.get(2)
        assert pool is not None and pool._executor is not None
        close_shared_pools()

    def test_workers_auto_accepted_end_to_end(self):
        graph = random_gnm(60, 120, seed=4)
        auto = beta_partition_ampc(graph, 9, store="columnar", workers="auto")
        serial = beta_partition_ampc(graph, 9, store="columnar", workers=1)
        assert auto.partition.layers == serial.partition.layers
        assert auto.workers == resolve_workers("auto")
        close_shared_pools()

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
                engine="batched", cohort_games=8,
            )
            sizes = sorted(len(p) for p, __ in shards)
            assert sizes == [8, 8, 8, 8, 8]
            # Too few cohorts for the fleet: rebalances instead.
            shards = pool.run_games(
                offsets, targets, roots[:12], roots[:12],
                x=16, beta=3, clip=clip, horizon=horizon, scale=scale,
                engine="batched", cohort_games=8,
            )
            assert sum(len(p) for p, __ in shards) == 12


class TestQueryAllPort:
    @pytest.mark.parametrize("maker,beta,x", [
        (lambda: union_of_random_forests(120, 2, seed=55), 6, 49),
        (lambda: preferential_attachment(120, 2, seed=5), 6, 49),
    ])
    def test_batched_query_all_matches_scalar(self, maker, beta, x):
        graph = maker()
        merged_b, res_b = PartialPartitionLCA(
            graph, x=x, beta=beta, engine="batched"
        ).query_all()
        merged_s, res_s = PartialPartitionLCA(
            graph, x=x, beta=beta, engine="scalar"
        ).query_all()
        assert merged_b.layers == merged_s.layers
        for v in graph.vertices():
            a, b = res_b[v], res_s[v]
            assert a.root == b.root
            assert a.layer == b.layer
            assert a.queries == b.queries
            assert a.super_iterations == b.super_iterations
            assert a.edges_seen == b.edges_seen
            assert a.explored == b.explored
            assert a.proof.layers == b.proof.layers

    def test_strict_mode_stays_scalar(self):
        graph = path_graph(12)
        lca = PartialPartitionLCA(graph, x=4, beta=1, strict=True)
        merged, results = lca.query_all(vertices=[0, 5])
        assert set(results) == {0, 5}
        assert merged.is_valid(graph, 1)

    def test_e1_rows_engine_invariant(self):
        batched = run_lca_quality(ns=(80,), alphas=(1, 2), xs=(16,))
        scalar = run_lca_quality(
            ns=(80,), alphas=(1, 2), xs=(16,), engine="scalar"
        )
        assert batched == scalar

    def test_f2_rows_engine_invariant(self):
        batched = run_exploration_ablation(
            beta=3, chain_length=3, fan=15, decoy_fan=15
        )
        scalar = run_exploration_ablation(
            beta=3, chain_length=3, fan=15, decoy_fan=15, engine="scalar"
        )
        assert batched == scalar


class TestMultiRoundUnderBatchedEngine:
    def test_deep_path_matches_oracle(self):
        # β = 1, x = 2 strips two layers off each end of a path per
        # round, so interior games are replayed unchanged round after
        # round — each round must play them afresh, identically.
        g = path_graph(40)
        oracle = beta_partition_ampc(g, 1, x=2, store="dict")
        batched = beta_partition_ampc(
            g, 1, x=2, store="columnar", engine="batched"
        )
        assert batched.rounds >= 3
        _assert_same_outcome(oracle, batched)

    def test_deep_tree_matches_oracle(self):
        # Residual shrink and frontier degree drift between rounds.
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        oracle = beta_partition_ampc(g, beta, x=beta + 1, store="dict")
        batched = beta_partition_ampc(
            g, beta, x=beta + 1, store="columnar", engine="batched"
        )
        assert batched.rounds >= 2
        _assert_same_outcome(oracle, batched)

    def test_deep_path_with_pool_matches_oracle(self):
        g = path_graph(40)
        oracle = beta_partition_ampc(g, 1, x=2, store="dict")
        pooled = beta_partition_ampc(
            g, 1, x=2, store="columnar", engine="batched", workers=2,
            min_pool_games=1,
        )
        _assert_same_outcome(oracle, pooled)
        close_shared_pools()


@pytest.fixture(autouse=True)
def _no_worker_env(monkeypatch):
    """These tests pin worker counts explicitly; isolate from CI's env."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    yield
    # No test may leak an in-process injected fault plan.
    assert faults._ACTIVE_SET is False
