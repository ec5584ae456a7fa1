"""Tests for the (x, β, F)-coin dropping game (Section 4)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.generators import (
    complete_ary_tree,
    path_graph,
    preferential_attachment,
    star_graph,
    union_of_random_forests,
)
from repro.lca import coin_game
from repro.lca.coin_game import CoinDroppingGame, max_provable_layer
from repro.lca.forwarding import forwarding_set
from repro.lca.oracle import GraphOracle
from repro.partition.beta_partition import INFINITY
from repro.partition.dependency import dependency_set
from repro.partition.induced import natural_beta_partition


class TestMaxProvableLayer:
    def test_values(self):
        assert max_provable_layer(4, 3) == 1  # log_4(4) = 1
        assert max_provable_layer(16, 3) == 2
        assert max_provable_layer(15, 3) == 1
        assert max_provable_layer(1, 3) == 0

    def test_just_below_a_power(self):
        # A float log rounds these up to the next power's exponent.
        assert max_provable_layer(2**31 - 1, 1) == 30
        assert max_provable_layer(49**5 - 1, 48) == 4

    def test_sweep_against_the_definition(self):
        # The largest k with (β+1)^k <= x, at and around every power.
        for beta in range(1, 64):
            for k in range(70):
                power = (beta + 1) ** k
                for x in (power - 1, power, power + 1):
                    if x < 1:
                        continue
                    want = max(
                        j for j in range(k + 2) if (beta + 1) ** j <= x
                    )
                    assert max_provable_layer(x, beta) == want, (x, beta)

    def test_invalid_x(self):
        with pytest.raises(ValueError):
            max_provable_layer(0, 3)


class TestGameBasics:
    def test_isolated_vertex(self):
        from repro.graphs.graph import Graph

        g = Graph.from_edges(3, [(1, 2)])
        res = CoinDroppingGame(GraphOracle(g), 0, x=4, beta=2).run()
        assert res.layer == 0  # degree 0 <= beta: layer 0 immediately
        assert res.explored == {0}

    def test_path_layer_zero(self):
        g = path_graph(5)
        res = CoinDroppingGame(GraphOracle(g), 2, x=4, beta=2).run()
        assert res.layer == 0

    def test_star_hub(self):
        g = star_graph(8)
        res = CoinDroppingGame(GraphOracle(g), 0, x=4, beta=2).run()
        # Hub has degree 7 > beta; needs leaves layered first -> layer 1.
        assert res.layer == 1

    def test_invalid_parameters(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            CoinDroppingGame(GraphOracle(g), 0, x=0, beta=2)
        with pytest.raises(ValueError):
            CoinDroppingGame(GraphOracle(g), 0, x=4, beta=0)

    def test_proof_is_clipped(self):
        beta = 2
        g = complete_ary_tree(beta + 1, 3)
        x = (beta + 1) ** 2  # provable layers: 0..2, tree has up to 3
        res = CoinDroppingGame(GraphOracle(g), 0, x=x, beta=beta).run()
        clip = max_provable_layer(x, beta)
        assert all(lay <= clip for lay in res.proof.layers.values())
        assert res.layer == INFINITY  # root's true layer 3 > clip


class TestLemma44Correctness:
    """sigma_{S_v}(v) = l_beta(v) whenever |D| <= x^2 and l(v) <= log x."""

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=12, deadline=None)
    def test_forest_union(self, seed):
        alpha = 2
        beta = math.ceil(3 * alpha)
        g = union_of_random_forests(60, alpha, seed=seed)
        x = (beta + 1) ** 2
        natural = natural_beta_partition(g, beta)
        clip = max_provable_layer(x, beta)
        for v in range(0, g.num_vertices, 7):
            dep = dependency_set(g, natural, v)
            res = CoinDroppingGame(GraphOracle(g), v, x=x, beta=beta).run()
            if len(dep) <= x * x and natural.layer(v) <= clip:
                assert res.layer == natural.layer(v)

    def test_deep_tree_exact_layers(self):
        beta = 3
        g = complete_ary_tree(beta + 1, 2)
        natural = natural_beta_partition(g, beta)
        x = (beta + 1) ** 2
        for v in range(0, g.num_vertices, 3):
            res = CoinDroppingGame(GraphOracle(g), v, x=x, beta=beta).run()
            assert res.layer == natural.layer(v)

    def test_layer_never_below_natural(self):
        """Lemma 3.13: the simulated layer can only overestimate."""
        g = union_of_random_forests(80, 3, seed=77)
        beta = 9
        natural = natural_beta_partition(g, beta)
        for v in range(0, 80, 11):
            res = CoinDroppingGame(GraphOracle(g), v, x=10, beta=beta).run()
            assert res.layer >= natural.layer(v)


class TestLemma46Bounds:
    @given(st.integers(min_value=0, max_value=2**31), st.sampled_from([4, 9, 16]))
    @settings(max_examples=12, deadline=None)
    def test_size_and_edge_bounds(self, seed, x):
        g = union_of_random_forests(70, 2, seed=seed)
        res = CoinDroppingGame(GraphOracle(g), seed % 70, x=x, beta=5).run()
        assert len(res.explored) <= x**3 + 1
        assert res.edges_seen <= x**6

    def test_explored_subgraph_connected(self):
        g = union_of_random_forests(60, 2, seed=5)
        res = CoinDroppingGame(GraphOracle(g), 0, x=16, beta=5).run()
        # BFS within explored set from root must reach everything.
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in g.neighbors(v):
                w = int(w)
                if w in res.explored and w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert seen == res.explored


class TestStrictMode:
    def test_strict_agrees_with_early_exit(self):
        """The fixpoint early-exit must not change the outcome."""
        g = union_of_random_forests(40, 2, seed=30)
        beta, x = 5, 6
        for v in (0, 10, 25):
            fast = CoinDroppingGame(GraphOracle(g), v, x=x, beta=beta).run()
            slow = CoinDroppingGame(
                GraphOracle(g), v, x=x, beta=beta, strict=True
            ).run()
            assert fast.layer == slow.layer
            assert fast.explored == slow.explored

    def test_strict_runs_all_super_iterations(self):
        g = path_graph(5)
        res = CoinDroppingGame(GraphOracle(g), 0, x=3, beta=2, strict=True).run()
        assert res.super_iterations == 9


class TestSuperIterationStepping:
    def test_manual_stepping_matches_run(self):
        g = star_graph(10)
        oracle = GraphOracle(g)
        game = CoinDroppingGame(oracle, 0, x=9, beta=2)
        while game.super_iteration() > 0:
            pass
        sigma = game.current_partition()
        reference = CoinDroppingGame(GraphOracle(g), 0, x=9, beta=2).run()
        assert sigma.layer(0) == reference.layer

    def test_progress_monotone(self):
        """Lemma 4.2 flavor: while the root's simulated layer exceeds its
        natural layer, super-iterations keep adding vertices."""
        beta = 2
        g = complete_ary_tree(beta + 1, 2)
        natural = natural_beta_partition(g, beta)
        oracle = GraphOracle(g)
        game = CoinDroppingGame(oracle, 0, x=(beta + 1) ** 2, beta=beta)
        for _ in range(200):
            sigma = game.current_partition()
            if sigma.layer(0) == natural.layer(0):
                break
            added = game.super_iteration()
            assert added > 0, "no progress while layer still wrong"
        else:
            raise AssertionError("game never converged")


class _EagerSets(coin_game._ForwardingSets):
    """Every member's forwarding set, built up front."""

    def __init__(self, adjacency, layers, beta):
        super().__init__(adjacency, layers, beta)
        for u in adjacency:
            self[u]


class TestLazyForwardingSets:
    """F(σ, u) is built only for members that hold coins, at most once
    per super-iteration; the games are the same as with every set
    built up front."""

    @staticmethod
    def _play(monkeypatch, graph, roots, x, beta, eager, **kw):
        calls = []

        def counting(neighbors, layers, explored, beta):
            calls.append((neighbors, layers))
            return forwarding_set(neighbors, layers, explored, beta)

        games = []
        with monkeypatch.context() as m:
            m.setattr(coin_game, "forwarding_set", counting)
            if eager:
                m.setattr(coin_game, "_ForwardingSets", _EagerSets)
            for root in roots:
                game = CoinDroppingGame(GraphOracle(graph), root, x, beta, **kw)
                result = game.run()
                games.append((
                    result.layer, result.proof.layers, result.explored,
                    result.super_iterations, result.queries,
                    result.edges_seen, game.peak_coin_scale,
                ))
        # σ's layers dict is new each super-iteration and every row list
        # belongs to one member: no (σ, member) pair is built twice.
        assert len({(id(nb), id(lay)) for nb, lay in calls}) == len(calls)
        return games, len(calls)

    @pytest.mark.parametrize("graph, beta, x, kw", [
        (preferential_attachment(300, 3, seed=5), 9, 100, {}),
        (preferential_attachment(300, 3, seed=5), 3, 16, {}),
        (union_of_random_forests(300, 3, seed=5), 6, 49, {}),
        # A horizon past INT_COIN_HORIZON_CAP plays Fraction coins.
        (preferential_attachment(120, 2, seed=5), 3, 16,
         {"forward_iterations": 80}),
    ])
    def test_fewer_builds_same_games(self, monkeypatch, graph, beta, x, kw):
        roots = [v for v in graph.vertices() if graph.degree(v) > beta][:12]
        assert roots
        lazy, lazy_calls = self._play(
            monkeypatch, graph, roots, x, beta, False, **kw
        )
        eager, eager_calls = self._play(
            monkeypatch, graph, roots, x, beta, True, **kw
        )
        assert lazy == eager
        assert lazy_calls < eager_calls
