"""Differential harness: the parallel and batched engines must be invisible.

``beta_partition_ampc`` exposes four execution knobs — ``store``
(columnar kernels vs the dict-backed oracle), ``engine`` (lockstep
batched game kernels vs the per-game scalar interpreter), ``workers``
(process-pool machine sharding), and, implicitly, the cross-round game
cache and the scaled-integer coin fast path.  None of them may change a
single observable: partitions, layer values, round counts, per-round
statistics (probe/write totals and maxima), and per-store word
accounting must be bit-identical to the serial dict oracle for every
(store, engine, workers) combination.  These tests enforce that on
randomized sparse graphs, on the Fraction deep-horizon fallback, and on
the bigint escalation path of the integer coins.

Small shapes run by default; the full-size shapes are marked ``slow``
and opt in via ``--slow`` (CI's cron/label-gated job).  ``--workers``
adds one more worker count to the built-in {1, 2, 4} matrix.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import (
    complete_ary_tree,
    path_graph,
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)
from repro.lca.coin_game import CoinDroppingGame
from repro.lca.oracle import GraphOracle

WORKER_MATRIX = (1, 2, 4)


def _assert_outcomes_equivalent(oracle, candidate):
    """Candidate run vs the serial dict oracle: observationally identical."""
    assert candidate.partition.layers == oracle.partition.layers
    assert candidate.rounds == oracle.rounds
    assert candidate.mode == oracle.mode
    assert candidate.x == oracle.x
    assert candidate.unlayered_per_round == oracle.unlayered_per_round
    sa, sb = oracle.simulator.stats, candidate.simulator.stats
    assert sb.space_per_machine == sa.space_per_machine
    assert len(sb.rounds) == len(sa.rounds)
    for ra, rb in zip(sa.rounds, sb.rounds):
        for field in (
            "round_index",
            "machines_active",
            "max_reads",
            "max_writes",
            "total_reads",
            "total_writes",
            "store_words",
        ):
            assert getattr(rb, field) == getattr(ra, field), field
    for store_a, store_b in zip(oracle.simulator.stores, candidate.simulator.stores):
        assert store_b.total_words() == store_a.total_words()


def _run_matrix(graph, beta, **kwargs):
    """Run every (store, engine, workers) combination vs the dict oracle.

    ``min_pool_games=1`` forces pool dispatch even on these tiny shapes,
    so the worker legs genuinely exercise the sharded path.
    """
    oracle = beta_partition_ampc(graph, beta, store="dict", workers=1, **kwargs)
    legs = [
        ("dict", None),
        ("columnar", "batched"),
        ("columnar", "scalar"),
    ]
    if native.available():
        # The fused C kernel joins the matrix wherever it can load; its
        # dedicated skip-marked tests live in test_native_kernel.py.
        legs.append(("columnar", "compiled"))
    for store, engine in legs:
        for workers in WORKER_MATRIX:
            if store == "dict" and workers == 1:
                continue
            candidate = beta_partition_ampc(
                graph, beta, store=store, workers=workers, engine=engine,
                min_pool_games=1, **kwargs
            )
            assert candidate.workers == workers
            if engine is not None:
                assert candidate.engine == engine
            _assert_outcomes_equivalent(oracle, candidate)
    return oracle


class TestDifferentialMatrix:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=5, deadline=None)
    def test_forest_unions_lca(self, seed, alpha):
        g = union_of_random_forests(60, alpha, seed=seed)
        _run_matrix(g, 3 * alpha)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=4, deadline=None)
    def test_gnm_lca(self, seed):
        g = random_gnm(90, 180, seed=seed)
        _run_matrix(g, 9)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=3, deadline=None)
    def test_peel_mode(self, seed):
        g = union_of_random_forests(70, 2, seed=seed)
        _run_matrix(g, 6, mode="peel")

    def test_multi_round_deep_tree(self):
        # x = β+1 certifies one layer per round: several residuals, so the
        # matrix also covers re-encoding, eviction, and cache staleness.
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        oracle = _run_matrix(g, beta, x=beta + 1)
        assert oracle.rounds >= 2
        # The fourth knob: transport="message" joins the matrix on this
        # multi-round shape (full shard sweeps live in the fabric tests).
        message_legs = [("batched", 3), ("scalar", 2)]
        if native.available():
            message_legs.append(("compiled", 3))
        for engine, shards in message_legs:
            candidate = beta_partition_ampc(
                g, beta, x=beta + 1, store="columnar", engine=engine,
                transport="message", shards=shards,
            )
            assert candidate.transport == "message"
            _assert_outcomes_equivalent(oracle, candidate)

    def test_preferential_attachment_hubs(self):
        g = preferential_attachment(150, 2, seed=11)
        _run_matrix(g, 6)

    def test_workers_option_joins_matrix(self, workers_option):
        # The opt-in --workers value (e.g. CI's REPRO_WORKERS leg) gets a
        # seat in the matrix even when it is not one of {1, 2, 4}.
        g = random_gnm(60, 120, seed=3)
        oracle = beta_partition_ampc(g, 9, store="dict")
        candidate = beta_partition_ampc(
            g, 9, store="columnar", workers=workers_option
        )
        _assert_outcomes_equivalent(oracle, candidate)

    @pytest.mark.slow
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=2, deadline=None)
    def test_full_size_gnm_lca(self, seed):
        g = random_gnm(6000, 12000, seed=seed)
        _run_matrix(g, 9)

    @pytest.mark.slow
    def test_full_size_multi_round(self):
        g = preferential_attachment(4000, 3, seed=7)
        oracle = _run_matrix(g, 8)
        assert oracle.rounds >= 2


class TestCoinRepresentationPaths:
    def test_fraction_deep_horizon_fallback(self):
        # x = 2^15 at β = 1 pushes the forwarding horizon past
        # INT_COIN_HORIZON_CAP, so every fabric and worker count runs
        # Fraction coins; the matrix must still agree bit for bit.
        g = path_graph(10)
        _run_matrix(g, 1, x=2**15)

    def test_int_coins_escalate_and_match_fractions(self):
        # Dynamic-scale games must agree with the Fraction representation
        # on the same graph, and at least one forwarding division on a
        # hub-heavy graph must actually escalate the scale.
        g = preferential_attachment(120, 2, seed=5)
        escalated = False
        for v in range(0, g.num_vertices, 7):
            fast = CoinDroppingGame(GraphOracle(g), v, x=49, beta=6)
            result = fast.run()
            escalated = escalated or fast.peak_coin_scale > 1
            slow = CoinDroppingGame(GraphOracle(g), v, x=49, beta=6)
            slow._int_coins = False  # force the Fraction representation
            reference = slow.run()
            assert result.layer == reference.layer
            assert result.explored == reference.explored
            assert result.proof.layers == reference.proof.layers
            assert result.queries == reference.queries
        assert escalated, "no game ever needed a scale escalation"

    def test_bigint_escalation_matches_fractions(self):
        # A division chain through coprime forwarding-set sizes (3, 5, 7)
        # with x a power of two forces an escalation on every hop, pushing
        # the scale far past 63 bits: the "overflow" path is plain Python
        # bigint arithmetic and must stay value-identical to Fractions.
        game = CoinDroppingGame(
            GraphOracle(path_graph(3)), 0, x=2**75, beta=6,
            forward_iterations=40,
        )
        assert game._int_coins
        primes = (3, 5, 7)
        fsets: dict[int, list[int]] = {}
        fresh = 100
        for i in range(39):
            k = primes[i % len(primes)]
            members = [i + 1] + list(range(fresh, fresh + k - 1))
            fresh += k - 1
            fsets[i] = members
        ints = game._forward_scaled_ints(fsets)
        fractions = game._forward_fractions(fsets)
        assert game.peak_coin_scale > 2**63
        # Coins never leave the system: the total recovers the scale.
        total = sum(ints.values())
        assert total % game.x == 0
        scale = total // game.x
        assert set(ints) == set(fractions)
        for u, amount in ints.items():
            assert Fraction(amount, scale) == fractions[u]


class TestSeedDeterminism:
    def test_byte_identical_across_workers_and_runs(self):
        # Map-ordering or scheduling nondeterminism anywhere in the pool
        # path would show up here: same seed => byte-identical layers for
        # workers=1 vs workers=4 and across two consecutive runs.
        g = random_gnm(400, 800, seed=20260730)
        n = g.num_vertices
        serial = beta_partition_ampc(g, 9, store="columnar", workers=1)
        pooled = beta_partition_ampc(g, 9, store="columnar", workers=4)
        repeat = beta_partition_ampc(g, 9, store="columnar", workers=4)
        blob = serial.partition.layer_array(n).tobytes()
        assert pooled.partition.layer_array(n).tobytes() == blob
        assert repeat.partition.layer_array(n).tobytes() == blob

    def test_peel_mode_byte_identical(self):
        g = union_of_random_forests(200, 2, seed=9)
        n = g.num_vertices
        runs = [
            beta_partition_ampc(g, 6, mode="peel", store="columnar", workers=w)
            for w in (1, 4, 4)
        ]
        blobs = {r.partition.layer_array(n).tobytes() for r in runs}
        assert len(blobs) == 1


class TestMultiRoundPath:
    # β = 1, x = 2 strips two layers off each end of a path per round:
    # a deep multi-round partition whose interior games repeat unchanged
    # from round to round.
    def test_columnar_matches_oracle(self):
        g = path_graph(40)
        columnar = beta_partition_ampc(g, 1, x=2, store="columnar")
        oracle = beta_partition_ampc(g, 1, x=2, store="dict")
        assert columnar.rounds >= 3
        _assert_outcomes_equivalent(oracle, columnar)

    def test_pool_matches_oracle(self):
        g = path_graph(40)
        oracle = beta_partition_ampc(g, 1, x=2, store="dict")
        pooled = beta_partition_ampc(g, 1, x=2, store="columnar", workers=2)
        _assert_outcomes_equivalent(oracle, pooled)

    def test_message_fabric_matches_oracle(self):
        g = path_graph(40)
        oracle = beta_partition_ampc(g, 1, x=2, store="dict")
        sharded = beta_partition_ampc(
            g, 1, x=2, store="columnar", transport="message", shards=3
        )
        _assert_outcomes_equivalent(oracle, sharded)
