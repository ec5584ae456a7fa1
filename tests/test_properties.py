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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring.greedy import orientation_greedy_coloring
from repro.coloring.mis import is_maximal_independent_set, mis_from_coloring
from repro.core.beta_partition_ampc import beta_partition_ampc
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
from repro.partition.induced import (
    induced_beta_partition,
    induced_partition_from_view,
    natural_beta_partition,
)
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
        s1 = {v for v in graph.vertices() if rng.next_u64() < 0.3 * 2**64}
        s2 = s1 | {v for v in graph.vertices() if rng.next_u64() < 0.3 * 2**64}
        s3 = s2 | {v for v in graph.vertices() if rng.next_u64() < 0.3 * 2**64}
        p1 = induced_beta_partition(graph, s1, beta)
        p2 = induced_beta_partition(graph, s2, beta)
        p3 = induced_beta_partition(graph, s3, beta)
        for v in graph.vertices():
            assert p1.layer(v) >= p2.layer(v) >= p3.layer(v)


def _peel(ball, adj, beta):
    """σ of ``ball`` by the row-walking peel: each member's in-ball row,
    with its row length as true degree."""
    inside = {u: [w for w in adj[u] if w in ball] for u in ball}
    degrees = {u: len(adj[u]) for u in ball}
    return induced_partition_from_view(inside, degrees, beta).layers


def _inball(h, ball, adj):
    """``h``'s in-ball neighbours with non-empty rows."""
    return sum(1 for w in adj[h] if w in ball and w != h and adj[w])


def _relax_sigma(sigma, inball, ball, adj, beta):
    """The wave kernel's incremental σ: a downward worklist relaxation of
    F over ``ball``, started from ``sigma`` (σ of a smaller ball).  F(v)
    is 0 if deg(v) <= β, else 1 + the (deg(v)-β)-th smallest finite σ
    over v's in-ball neighbours with non-empty rows, or ∞.  New members
    start at 0 if deg <= β, else queued at ∞; one walk per new row adds
    its in-ball edges to the hubs' ``inball`` counts (updated in place)
    and queues the hubs a new degree-<=β member can lower.  A dequeued
    hub with inball < deg - β stays ∞ unwalked; when v drops to nv, only
    in-ball hubs with σ > nv+1 are queued."""
    old = set(sigma)
    new = [u for u in ball if u not in old]
    sigma = dict(sigma)
    queue = deque()
    for u in new:
        hub = len(adj[u]) > beta
        sigma[u] = INFINITY if hub else 0
        if hub:
            inball[u] = 0
            queue.append(u)
    queued = set(queue)
    for v in new:
        for w in adj[v]:
            if w not in ball or w == v:
                continue
            dw = len(adj[w])
            if v in inball:
                inball[v] += dw > 0
            if dw <= beta:
                continue
            if w in old:
                inball[w] += 1
            if sigma[v] == 0 and w not in queued and sigma[w] > 1:
                queue.append(w)
                queued.add(w)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        d = len(adj[v])
        if inball[v] < d - beta:
            continue
        finite = sorted(
            sigma[w] for w in adj[v]
            if w in ball and w != v and adj[w] and sigma[w] != INFINITY
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
    exactly (the wave kernel's incremental σ rests on this), also when
    some rows read as empty, and the hubs' inball counts it keeps equal
    a fresh count."""

    @given(
        st.sampled_from(["gnm", "pa"]),
        st.integers(20, 120),
        st.integers(1, 6),
        st.integers(0, 2**31),
        st.lists(st.integers(1, 40), min_size=1, max_size=6),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_relaxation_from_a_smaller_ball_is_exact(
        self, shape, n, beta, seed, growth, emptied
    ):
        graph = (
            random_gnm(n, 3 * n, seed=seed) if shape == "gnm"
            else preferential_attachment(n, 3, seed=seed)
        )
        full = [graph.neighbors(v).tolist() for v in graph.vertices()]
        rng = SplitMix64(seed)
        adj = [[] if emptied and rng.next_u64() < 2**64 / 3 else row
               for row in full]
        # Nested balls grown from a root one random frontier vertex at a
        # time, like a coin game's explored sets (over the full graph:
        # members with emptied rows are touched from their neighbours').
        ball = {rng.randrange(n)}
        sigma = _peel(ball, adj, beta)
        inball = {h: _inball(h, ball, adj) for h in ball
                  if len(adj[h]) > beta}
        for step in growth:
            for __ in range(step):
                frontier = sorted(
                    {w for u in ball for w in full[u]} - ball
                )
                if not frontier:
                    break
                ball.add(frontier[rng.randrange(len(frontier))])
            sigma = _relax_sigma(sigma, inball, ball, adj, beta)
            assert sigma == _peel(ball, adj, beta)
            assert inball == {h: _inball(h, ball, adj) for h in ball
                              if len(adj[h]) > beta}


def _low(dw, beta):
    """A layer-0 neighbour that decrements a hub: a non-empty row of
    degree <= β."""
    return 0 < dw <= beta


def _hub_peel(ball, adj, beta, counted=_low):
    """The wave kernel's first σ: members with deg <= β sit at layer 0
    unwalked, and each hub's countdown starts at deg minus its in-ball
    neighbours that ``counted`` admits, read off its own row.  The
    synchronous peel then runs over hubs only."""
    sigma = {u: 0 if len(adj[u]) <= beta else INFINITY for u in ball}
    count = {}
    frontier = []
    for h in ball:
        if sigma[h] == 0:
            continue
        count[h] = len(adj[h]) - sum(
            1 for w in adj[h]
            if w in ball and w != h and counted(len(adj[w]), beta)
        )
        if count[h] <= beta:
            frontier.append(h)
    layer = 1
    while frontier:
        for h in frontier:
            sigma[h] = layer
        nxt = []
        for h in frontier:
            for w in adj[h]:
                if w in ball and sigma[w] == INFINITY:
                    count[w] -= 1
                    if count[w] == beta:
                        nxt.append(w)
        frontier = nxt
        layer += 1
    return sigma


def _random_ball(shape, n, beta, seed, emptied):
    """A ball grown from a random root like a coin game's explored set,
    over a random graph of ``shape``; with ``emptied`` a third of the
    rows read as empty, like a fabric shard's unheld rows (the ball still
    grows over the full graph, as members with unheld rows are touched
    from their neighbours' rows)."""
    graph = {
        "gnm": lambda: random_gnm(n, 2 * n, seed=seed),
        "pa": lambda: preferential_attachment(n, 3, seed=seed),
        "forests": lambda: union_of_random_forests(n, 3, seed=seed),
    }[shape]()
    full = [graph.neighbors(v).tolist() for v in graph.vertices()]
    rng = SplitMix64(seed)
    ball = {rng.randrange(n)}
    for __ in range(rng.randrange(n)):
        frontier = sorted({w for u in ball for w in full[u]} - ball)
        if not frontier:
            break
        ball.add(frontier[rng.randrange(len(frontier))])
    adj = [[] if emptied and rng.next_u64() < 2**64 / 3 else row for row in full]
    return ball, adj


balls = st.tuples(
    st.sampled_from(["gnm", "pa", "forests"]),
    st.integers(10, 80),  # n
    st.integers(1, 6),  # beta
    st.integers(0, 2**31),  # seed
    st.booleans(),  # a third of the rows emptied
)

# Hub-only peels that miscount layer 0: each must disagree with
# `_peel` on some ball of TestHubOnlySigma's fixed sample.
_MUTANTS = {
    "counts empty-row neighbours": lambda dw, beta: dw <= beta,
    "counts hubs": lambda dw, beta: dw > 0,
    "filter one too wide": lambda dw, beta: 0 < dw <= beta + 1,
    "filter one too narrow": lambda dw, beta: 0 < dw < beta,
}


class TestHubOnlySigma:
    """σ read from the hubs alone (the wave kernel's peel and
    relaxation) is the row-walking peel, `_peel`."""

    @given(balls)
    @settings(max_examples=60, deadline=None)
    def test_hub_only_peel_is_the_row_walking_peel(self, case):
        beta = case[2]
        ball, adj = _random_ball(*case)
        assert _hub_peel(ball, adj, beta) == _peel(ball, adj, beta)

    @given(balls)
    @settings(max_examples=60, deadline=None)
    def test_a_hub_short_of_non_empty_neighbours_is_unlayered(self, case):
        beta = case[2]
        ball, adj = _random_ball(*case)
        sigma = _peel(ball, adj, beta)
        for h in ball:
            d = len(adj[h])
            if d > beta and _inball(h, ball, adj) < d - beta:
                assert sigma[h] == INFINITY

    @pytest.mark.parametrize("mutant", sorted(_MUTANTS))
    def test_the_sample_catches_each_miscount(self, mutant):
        counted = _MUTANTS[mutant]
        for seed in range(40):
            beta = 1 + seed % 6
            for shape in ("gnm", "pa", "forests"):
                ball, adj = _random_ball(shape, 60, beta, seed, True)
                if _hub_peel(ball, adj, beta, counted) != _peel(
                    ball, adj, beta
                ):
                    return
        pytest.fail(f"no sampled ball tells the {mutant!r} peel apart")
