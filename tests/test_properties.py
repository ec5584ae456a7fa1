"""Cross-module property suite: the paper's invariant chain end to end.

Hypothesis generates random sparse graphs through a shared strategy; each
test checks one link of the chain

    arboricity bounds -> β-partition -> orientation -> coloring -> MIS

holding simultaneously, plus the determinism and monotonicity facts the
analyses lean on.
"""

from __future__ import annotations

import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.greedy import orientation_greedy_coloring
from repro.coloring.mis import is_maximal_independent_set, mis_from_coloring
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import _induced_sigma
from repro.core.orientation import orient_by_partition
from repro.graphs.arboricity import degeneracy, density_lower_bound
from repro.graphs.generators import (
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)
from repro.graphs.validation import is_proper_coloring
from repro.lca.coin_game import CoinDroppingGame
from repro.lca.oracle import GraphOracle
from repro.partition.beta_partition import INFINITY
from repro.partition.dependency import dependency_set
from repro.partition.induced import induced_beta_partition, natural_beta_partition
from repro.util.rng import SplitMix64

sparse_graphs = st.tuples(
    st.integers(min_value=20, max_value=80),  # n
    st.integers(min_value=1, max_value=3),  # k forests
    st.integers(min_value=0, max_value=2**31),  # seed
).map(lambda t: (union_of_random_forests(t[0], t[1], seed=t[2]), t[1]))


class TestChainInvariants:
    @given(sparse_graphs)
    @settings(max_examples=10, deadline=None)
    def test_full_chain(self, data):
        graph, k = data
        # (1) arboricity machinery consistent
        d = degeneracy(graph)
        assert density_lower_bound(graph) <= max(k, 1)
        assert d <= 2 * k  # degeneracy <= 2*alpha - 1 <= 2k
        # (2) β-partition valid + complete
        beta = 3 * max(k, 1)
        outcome = beta_partition_ampc(graph, beta)
        assert outcome.partition.is_valid(graph, beta)
        assert not outcome.partition.is_partial(graph.vertices())
        # (3) orientation bounded + acyclic
        ori = orient_by_partition(graph, outcome.partition)
        assert ori.max_out_degree() <= beta
        assert ori.is_acyclic()
        # (4) sinks-first coloring within out-degree+1
        colors = orientation_greedy_coloring(ori)
        assert is_proper_coloring(graph, colors)
        assert max(colors) <= ori.max_out_degree()
        # (5) MIS from the coloring is maximal-independent
        mis = mis_from_coloring(graph, colors)
        assert is_maximal_independent_set(graph, mis)

    @given(sparse_graphs)
    @settings(max_examples=10, deadline=None)
    def test_partition_size_logarithmic(self, data):
        graph, k = data
        beta = 3 * max(k, 1)
        partition = natural_beta_partition(graph, beta)
        bound = math.log(graph.num_vertices) / math.log(1.5) + 1
        assert partition.size() <= bound


class TestGameInvariants:
    @given(sparse_graphs, st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_simulated_layer_sandwich(self, data, pick):
        """ℓ(v) <= game layer; equality when the game certifies (clip)."""
        graph, k = data
        beta = 3 * max(k, 1)
        natural = natural_beta_partition(graph, beta)
        v = pick % graph.num_vertices
        x = (beta + 1) ** 2
        res = CoinDroppingGame(GraphOracle(graph), v, x=x, beta=beta).run()
        assert res.layer >= natural.layer(v)
        if res.layer != INFINITY:
            # certified answers are exactly natural (Lemma 4.4 direction)
            assert res.layer == natural.layer(v)

    @given(sparse_graphs, st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_proof_contains_explored_dependency(self, data, pick):
        """If the game certifies v, its proof's layers on the explored set
        agree with the natural partition restricted there (Lemma 3.14)."""
        graph, k = data
        beta = 3 * max(k, 1)
        natural = natural_beta_partition(graph, beta)
        v = pick % graph.num_vertices
        res = CoinDroppingGame(
            GraphOracle(graph), v, x=(beta + 1) ** 2, beta=beta
        ).run()
        if res.layer == INFINITY:
            return
        dep = dependency_set(graph, natural, v)
        if dep <= res.explored:
            for w in dep:
                if w in res.proof.layers:
                    assert res.proof.layer(w) == natural.layer(w)


class TestSubsetMonotonicityRandomized:
    @given(sparse_graphs, st.integers(0, 2**31))
    @settings(max_examples=10, deadline=None)
    def test_induced_chain_is_monotone(self, data, seed):
        """σ_{S1} >= σ_{S2} >= σ_{S3} pointwise for S1 ⊆ S2 ⊆ S3."""
        graph, k = data
        beta = 3 * max(k, 1)
        rng = SplitMix64(seed)
        s1 = {v for v in graph.vertices() if rng.random() < 0.3}
        s2 = s1 | {v for v in graph.vertices() if rng.random() < 0.3}
        s3 = s2 | {v for v in graph.vertices() if rng.random() < 0.3}
        p1 = induced_beta_partition(graph, s1, beta)
        p2 = induced_beta_partition(graph, s2, beta)
        p3 = induced_beta_partition(graph, s3, beta)
        for v in graph.vertices():
            assert p1.layer(v) >= p2.layer(v) >= p3.layer(v)


def _inside(ball, adj):
    """``_induced_sigma``'s view of ``ball``: each member's in-ball row."""
    return {u: [w for w in adj[u] if w in ball] for u in ball}


def _relax_sigma(sigma, ball, adj, beta):
    """The wave kernel's incremental σ: a downward worklist relaxation of
    F over ``ball``, started from ``sigma`` (σ of a smaller ball; absent
    members start at ∞).  F(v) is 0 if deg(v) <= β, else 1 + the
    (deg(v)-β)-th smallest finite σ over v's in-ball neighbours, or ∞.
    Only the new members start queued; when v drops to nv, only in-ball
    neighbours with deg > β and σ > nv+1 are queued."""
    queue = deque(u for u in ball if u not in sigma)
    sigma = {u: sigma.get(u, INFINITY) for u in ball}
    queued = set(queue)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        d = len(adj[v])
        nv = 0
        if d > beta:
            finite = sorted(
                sigma[w] for w in adj[v] if w in ball and sigma[w] != INFINITY
            )
            nv = 1 + finite[d - beta - 1] if len(finite) >= d - beta \
                else INFINITY
        if nv >= sigma[v]:
            continue
        sigma[v] = nv
        for w in adj[v]:
            if (w in ball and w not in queued and len(adj[w]) > beta
                    and sigma[w] > nv + 1):
                queue.append(w)
                queued.add(w)
    return sigma


class TestIncrementalSigma:
    """σ only drops as a ball grows, and F's fixpoint is unique, so a
    downward relaxation from the last ball's σ reaches the new ball's σ
    exactly (the wave kernel's incremental σ rests on this)."""

    @given(
        st.sampled_from(["gnm", "pa"]),
        st.integers(20, 120),
        st.integers(1, 6),
        st.integers(0, 2**31),
        st.lists(st.integers(1, 40), min_size=1, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_relaxation_from_a_smaller_ball_is_exact(
        self, shape, n, beta, seed, growth
    ):
        graph = (
            random_gnm(n, 3 * n, seed=seed) if shape == "gnm"
            else preferential_attachment(n, 3, seed=seed)
        )
        adj = [graph.neighbors(v).tolist() for v in graph.vertices()]
        rng = SplitMix64(seed)
        # Nested balls grown from a root one random frontier vertex at a
        # time, like a coin game's explored sets.
        ball = {rng.randrange(n)}
        sigma = _induced_sigma(_inside(ball, adj), adj, beta)
        for step in growth:
            for __ in range(step):
                frontier = sorted(
                    {w for u in ball for w in adj[u]} - ball
                )
                if not frontier:
                    break
                ball.add(frontier[rng.randrange(len(frontier))])
            sigma = _relax_sigma(sigma, ball, adj, beta)
            assert sigma == _induced_sigma(_inside(ball, adj), adj, beta)
