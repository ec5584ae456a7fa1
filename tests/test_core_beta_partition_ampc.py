"""Tests for Theorem 1.2: β-partitioning in simulated AMPC."""

from __future__ import annotations

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampc.simulator import AMPCSimulator
from repro.core import native
from repro.core.beta_partition_ampc import (
    beta_partition_ampc,
    default_game_budget,
)
from repro.core.columnar_rounds import lca_round_kernel, residual_csr
from repro.core.orientation import orient_by_partition
from repro.graphs.generators import (
    complete_ary_tree,
    complete_graph,
    grid_2d,
    path_graph,
    preferential_attachment,
    random_gnm,
    skewed_dependency_gadget,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.lca.partial_partition_lca import PartialPartitionLCA


class TestBasics:
    def test_empty_graph(self):
        out = beta_partition_ampc(Graph.from_edges(0, []), 3)
        assert out.rounds == 0
        assert out.num_layers == 0

    def test_path(self):
        g = path_graph(10)
        out = beta_partition_ampc(g, 2)
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, 2)

    def test_invalid_beta(self):
        with pytest.raises(ValueError):
            beta_partition_ampc(path_graph(3), 0)

    @pytest.mark.parametrize("beta", [1.5, 3.0, "3"])
    @pytest.mark.parametrize("n", [0, 10])
    def test_non_integral_beta_rejected_up_front(self, beta, n):
        with pytest.raises(ValueError, match="beta"):
            beta_partition_ampc(path_graph(n), beta)

    def test_numpy_integer_beta_accepted(self):
        g = path_graph(10)
        out = beta_partition_ampc(g, np.int64(2))
        assert out.partition.layers == beta_partition_ampc(g, 2).partition.layers

    @pytest.mark.parametrize("transport", ["shm", "message"])
    @pytest.mark.parametrize("mode", ["pel", "LCA", ""])
    def test_unknown_mode_rejected(self, mode, transport):
        # An unknown mode must not fall through to the shm lca path,
        # which would ignore transport="message" and its shards.
        with pytest.raises(ValueError, match="mode must be"):
            beta_partition_ampc(
                random_gnm(200, 400, seed=1), 9, mode=mode,
                transport=transport, shards=3, workers=1,
            )

    @pytest.mark.parametrize(
        "knobs", [{"shards": 4}, {"shard_budget": 5}, {"shards": 4, "shard_budget": 5}]
    )
    @pytest.mark.parametrize("n", [0, 200])
    def test_shard_knobs_require_the_message_transport(self, knobs, n):
        # Under shm the knobs would be silently ignored (shards=0 in the
        # outcome, no budget enforced), so they are rejected up front.
        g = random_gnm(n, 2 * n, seed=1)
        with pytest.raises(ValueError, match='transport="message"'):
            beta_partition_ampc(g, 9, **knobs)
        with pytest.raises(ValueError, match='transport="message"'):
            beta_partition_ampc(g, 9, transport="shm", **knobs)

    def test_shard_knobs_accepted_with_the_message_transport(self):
        out = beta_partition_ampc(
            random_gnm(200, 400, seed=1), 9, transport="message", shards=4, workers=1
        )
        assert out.shards == 4

    @pytest.mark.parametrize("delta", [0.0, 1.0, 7.0, -0.5])
    @pytest.mark.parametrize("n", [0, 10])
    def test_invalid_delta_rejected_on_every_graph(self, delta, n):
        # The empty graph returns early; its delta is checked first.
        with pytest.raises(ValueError, match="delta"):
            beta_partition_ampc(path_graph(n), 3, delta=delta)

    def test_default_budget(self):
        assert default_game_budget(3) == 16


class TestCompletenessAndValidity:
    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_forest_unions(self, seed, alpha):
        g = union_of_random_forests(80, alpha, seed=seed)
        beta = math.ceil(3 * alpha)
        out = beta_partition_ampc(g, beta)
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, beta)
        ori = orient_by_partition(g, out.partition)
        assert ori.max_out_degree() <= beta
        assert ori.is_acyclic()

    def test_grid(self):
        g = grid_2d(8, 8)
        out = beta_partition_ampc(g, 5)
        assert out.partition.is_valid(g, 5)

    def test_preferential_attachment_multi_round(self):
        g = preferential_attachment(300, 2, seed=4)
        out = beta_partition_ampc(g, 6)
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, 6)

    def test_deep_tree_needs_multiple_rounds(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)  # 5 natural layers
        out = beta_partition_ampc(g, beta, x=beta + 1)  # certifies 1 layer
        assert out.rounds >= 2
        assert out.partition.is_valid(g, beta)

    def test_layers_appended_monotonically(self):
        # Later-round vertices must sit strictly above earlier ones; with
        # x = beta+1 on a deep tree, round 2 layers exceed round 1 layers.
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        out = beta_partition_ampc(g, beta, x=beta + 1)
        assert out.partition.max_layer() >= 2


class TestFailureModes:
    def test_beta_too_small_for_clique_raises(self):
        # β below the degeneracy is a bad argument: a ValueError.
        g = complete_graph(8)
        with pytest.raises(ValueError, match="below the graph's degeneracy"):
            beta_partition_ampc(g, 2, max_rounds=5)

    def test_round_cap_respected(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        with pytest.raises(RuntimeError):
            beta_partition_ampc(g, beta, x=beta + 1, max_rounds=1)


class TestPeelMode:
    def test_peel_mode_completes(self):
        g = union_of_random_forests(100, 2, seed=5)
        out = beta_partition_ampc(g, 6, mode="peel")
        assert out.mode == "peel"
        assert not out.partition.is_partial(g.vertices())
        assert out.partition.is_valid(g, 6)

    def test_peel_matches_natural_layer_count(self):
        from repro.partition.induced import natural_beta_partition

        g = union_of_random_forests(100, 2, seed=6)
        out = beta_partition_ampc(g, 6, mode="peel")
        natural = natural_beta_partition(g, 6)
        assert out.num_layers == natural.size()
        assert out.rounds == natural.size()

    def test_peel_on_clique_at_threshold(self):
        g = complete_graph(6)
        out = beta_partition_ampc(g, 5, mode="peel")
        assert out.num_layers == 1


class TestResourceAccounting:
    def test_simulator_stats_present(self):
        g = union_of_random_forests(60, 2, seed=7)
        out = beta_partition_ampc(g, 6)
        assert out.simulator is not None
        stats = out.simulator.stats
        assert stats.num_rounds == out.rounds
        assert stats.max_machine_communication > 0
        # At toy scale constants dominate n^delta, so delta' can exceed 1;
        # it just has to be a sane positive number.
        assert stats.effective_delta() > 0

    def test_unlayered_history_decreases(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        out = beta_partition_ampc(g, beta, x=beta + 1)
        hist = out.unlayered_per_round
        assert hist[0] == g.num_vertices
        assert all(a > b for a, b in zip(hist, hist[1:]))


def _assert_outcomes_equivalent(a, b):
    """Dict-backed oracle vs columnar path: observationally identical."""
    assert a.partition.layers == b.partition.layers
    assert a.rounds == b.rounds
    assert a.mode == b.mode
    assert a.x == b.x
    assert a.unlayered_per_round == b.unlayered_per_round
    sa, sb = a.simulator.stats, b.simulator.stats
    assert sa.space_per_machine == sb.space_per_machine
    assert len(sa.rounds) == len(sb.rounds)
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
            assert getattr(ra, field) == getattr(rb, field), field
    # Space accounting all the way down: every D_i holds the same words.
    for store_a, store_b in zip(a.simulator.stores, b.simulator.stores):
        assert store_a.total_words() == store_b.total_words()


class TestColumnarEquivalence:
    """The columnar fabric must reproduce the dict-backed oracle exactly."""

    @given(st.integers(min_value=0, max_value=2**31), st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_lca_mode_randomized(self, seed, alpha):
        g = union_of_random_forests(70, alpha, seed=seed)
        beta = 3 * alpha
        a = beta_partition_ampc(g, beta, store="dict")
        b = beta_partition_ampc(g, beta, store="columnar")
        _assert_outcomes_equivalent(a, b)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=8, deadline=None)
    def test_peel_mode_randomized(self, seed):
        g = union_of_random_forests(80, 2, seed=seed)
        a = beta_partition_ampc(g, 6, mode="peel", store="dict")
        b = beta_partition_ampc(g, 6, mode="peel", store="columnar")
        _assert_outcomes_equivalent(a, b)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=6, deadline=None)
    def test_gnm_randomized(self, seed):
        g = random_gnm(120, 260, seed=seed)
        a = beta_partition_ampc(g, 9, store="dict")
        b = beta_partition_ampc(g, 9, store="columnar")
        _assert_outcomes_equivalent(a, b)

    def test_multi_round_deep_tree(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        a = beta_partition_ampc(g, beta, x=beta + 1, store="dict")
        b = beta_partition_ampc(g, beta, x=beta + 1, store="columnar")
        assert a.rounds >= 2  # the equivalence spans multiple residuals
        _assert_outcomes_equivalent(a, b)

    def test_preferential_attachment(self):
        g = preferential_attachment(300, 2, seed=4)
        a = beta_partition_ampc(g, 6, store="dict")
        b = beta_partition_ampc(g, 6, store="columnar")
        _assert_outcomes_equivalent(a, b)

    def test_fraction_coin_fallback_parity(self):
        # x = 2^15 at β = 1 pushes the forwarding horizon past the
        # scaled-integer cap, so both fabrics run Fraction coins.
        g = path_graph(10)
        a = beta_partition_ampc(g, 1, x=2**15, store="dict")
        b = beta_partition_ampc(g, 1, x=2**15, store="columnar")
        _assert_outcomes_equivalent(a, b)

    def test_failure_parity_beta_too_small(self):
        g = complete_graph(8)
        for store in ("dict", "columnar"):
            with pytest.raises(ValueError, match="below the graph's degeneracy"):
                beta_partition_ampc(g, 2, max_rounds=5, store=store)

    def test_invalid_store_rejected(self):
        with pytest.raises(ValueError):
            beta_partition_ampc(path_graph(3), 2, store="sqlite")

    def test_strict_space_parity_on_peel(self):
        g = union_of_random_forests(150, 2, seed=9)
        a = beta_partition_ampc(g, 6, mode="peel", strict_space=True, store="dict")
        b = beta_partition_ampc(
            g, 6, mode="peel", strict_space=True, store="columnar"
        )
        _assert_outcomes_equivalent(a, b)
        assert b.simulator.stats.within_budget


class TestStrictSpace:
    def test_peel_mode_fits_strict_budgets(self):
        """Each peel-mode machine does 1 read + <=1 write, so even the
        tiny bench-scale n^delta budgets hold strictly."""
        g = union_of_random_forests(150, 2, seed=9)
        out = beta_partition_ampc(g, 6, mode="peel", strict_space=True)
        assert not out.partition.is_partial(g.vertices())
        assert out.simulator.stats.within_budget

    def test_lca_mode_reports_budget_status(self):
        # At toy scale the game's constant factors exceed n^delta; the
        # simulator must *report* that honestly rather than hide it.
        g = union_of_random_forests(150, 2, seed=9)
        out = beta_partition_ampc(g, 6, mode="lca")
        stats = out.simulator.stats
        assert stats.max_machine_communication > 0
        assert isinstance(stats.within_budget, bool)


# (β, x) pairs of the full-fleet reference sweep: x = (β+1)^2 for five
# β, and x = β+1 (one provable layer above 0) for two.
_BETA_X = [(2, 9), (3, 16), (4, 25), (6, 49), (9, 100), (3, 4), (6, 7)]

_random_graphs = st.tuples(
    st.sampled_from(["gnm", "pa", "forests"]),
    st.integers(min_value=300, max_value=600),  # n
    st.integers(min_value=2, max_value=3),  # edges per vertex
    st.integers(min_value=0, max_value=2**32),  # seed
).map(lambda t: {
    "gnm": lambda n, k, seed: random_gnm(n, k * n, seed=seed),
    "pa": preferential_attachment,
    "forests": union_of_random_forests,
}[t[0]](t[1], t[2], seed=t[3]))

_gadgets = st.tuples(
    st.sampled_from([2, 3]),  # β
    st.integers(min_value=1, max_value=3),  # chain length
    st.integers(min_value=2, max_value=6),  # fan
    st.booleans(),  # decoy
).map(lambda t: (
    skewed_dependency_gadget(
        t[0], t[1], fan=t[2], decoy_fan=2 * t[0] if t[3] else 0
    )[0],
    t[0],
))


def _engine() -> str:
    return "compiled" if native.available() else "batched"


def _first_lca_round(graph: Graph, beta: int, x: int) -> dict[int, int]:
    """The layers one lca round assigns (hub roots play, the rest write
    layer 0)."""
    n = graph.num_vertices
    sim = AMPCSimulator(
        n + graph.num_edges, delta=0.5, store="columnar", num_vertices=n
    )
    alive = np.arange(n, dtype=np.int64)
    offsets, targets = residual_csr(graph, alive)
    sim.port_residual_csr(alive, offsets, targets)
    kernel = partial(lca_round_kernel, beta=beta, x=x, engine=_engine())
    target = sim.round_vectorized(alive, kernel, reducer=min)
    vertices, layers = target.layer_assignments()
    return dict(zip(vertices.tolist(), layers.astype(np.int64).tolist()))


def _full_fleet(graph: Graph, beta: int, x: int) -> dict[int, int]:
    """Every root plays its game; the proofs min-merge (Remark 4.8)."""
    merged, __ = PartialPartitionLCA(
        graph, x, beta, engine=_engine()
    ).query_all()
    return merged.layers


class TestHubFleetReference:
    """An lca round plays games only at roots of residual degree > β; a
    root of degree <= β proposes {v: 0}, a valid partial β-partition.
    Its layers must equal the full fleet's, where every root plays."""

    @given(_random_graphs, st.sampled_from(_BETA_X))
    @settings(deadline=None)
    def test_random_graphs(self, graph, beta_x):
        beta, x = beta_x
        assert _first_lca_round(graph, beta, x) == _full_fleet(graph, beta, x)

    @given(_gadgets, st.integers(min_value=3, max_value=100))
    @settings(deadline=None)
    def test_skewed_dependency_gadget(self, gadget, x):
        graph, beta = gadget
        x = max(x, beta + 1)
        assert _first_lca_round(graph, beta, x) == _full_fleet(graph, beta, x)

    @pytest.mark.parametrize("beta, x", _BETA_X)
    def test_tier1_shapes(self, beta, x):
        for graph in (
            grid_2d(12, 12), path_graph(50), complete_ary_tree(4, 4),
            preferential_attachment(400, 3, seed=7),
        ):
            assert (
                _first_lca_round(graph, beta, x)
                == _full_fleet(graph, beta, x)
            )
