"""Direct differential tests of the fused C wave kernel.

``repro.core.native.play_games_compiled`` must be a bit-identical
drop-in for ``play_games_batched`` — fold accumulators, probe counts,
flat records (explored sets in exploration order + clipped proofs),
super-iteration counts, inside-edge counts, and the ejection set all
byte-for-byte, including under adversarial word budgets that force
mid-game ejections and the Fraction deep-horizon regime.  A hypothesis
fuzz plays random small graphs, stars and hubs on both engines through
the fleet player, where the interpreter finishes the games a shrunk
word budget ejects, and a kernel allocation failure must leave every
output exact.  A second fuzz calls the coloring tail's three C loops
against their numpy passes, and a third the k-core peel against the
list peel.  Skip-marked wholesale when the kernel cannot load (tier-1
must pass without it).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coloring import recolor
from repro.coloring.arb_linial import linial_undirected_coloring
from repro.coloring.cover_free import choose_family
from repro.coloring.kuhn_wattenhofer import kw_color_reduction
from repro.coloring.layers import split_layers, whole_layer
from repro.core import batched_games, columnar_rounds, native
from repro.core.batched_games import (
    csr_transpose_positions,
    play_games_batched,
)
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import LazyAdjacency, play_fleet
from repro.graphs.arboricity import degeneracy, degeneracy_order
from repro.graphs.generators import (
    path_graph,
    preferential_attachment,
    random_gnm,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer
from repro.partition.induced import induced_partition_from_view

from peel_shapes import peel_shapes
from tail_engines import no_c_call, tail

pytestmark = pytest.mark.skipif(
    not native.available(), reason="compiled wave kernel unavailable"
)

_INF = float("inf")


def _run_both(offsets, targets, roots, want_records=True, **game):
    n = len(offsets) - 1
    layer_b = np.full(n, _INF)
    count_b = np.zeros(n, dtype=np.int64)
    layer_c = np.full(n, _INF)
    count_c = np.zeros(n, dtype=np.int64)
    batched = play_games_batched(
        offsets, targets, roots, out_layer=layer_b, out_count=count_b,
        want_records=want_records,
        transpose_pos=csr_transpose_positions(offsets, targets), **game
    )
    compiled = native.play_games_compiled(
        offsets, targets, roots, out_layer=layer_c, out_count=count_c,
        want_records=want_records, **game
    )
    assert np.array_equal(layer_b, layer_c)
    assert np.array_equal(count_b, count_c)
    for field in (
        "reads", "writes", "super_iterations", "edges_seen", "ejected",
    ):
        assert np.array_equal(
            getattr(batched, field), getattr(compiled, field)
        ), field
    if not want_records:
        assert batched.records is compiled.records is None
        return batched, compiled
    assert len(batched.records) == len(compiled.records) == 5
    for got, want in zip(compiled.records, batched.records):
        assert np.array_equal(got, want)
    return batched, compiled


class TestBitIdentical:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_gnm(self, seed):
        g = random_gnm(120, 240, seed=seed)
        offsets, targets = g.csr()
        roots = np.arange(g.num_vertices, dtype=np.int64)
        _run_both(
            offsets, targets, roots,
            x=100, beta=9, clip=2, horizon=16, scale=None,
        )

    def test_hub_heavy_forwarding_sets(self):
        # Hubs with deg > beta+1 exercise the sigma-ranked top-(beta+1)
        # selection and the per-super-iteration fset cache.
        g = preferential_attachment(200, 3, seed=4)
        offsets, targets = g.csr()
        roots = np.arange(g.num_vertices, dtype=np.int64)
        _run_both(
            offsets, targets, roots,
            x=49, beta=6, clip=2, horizon=16, scale=None,
        )

    def test_star_graph_huge_beta(self):
        # beta+1 > 36: the numpy engine folds escalation factors through
        # Python bigint lcm; the C kernel's incremental int64 lcm with
        # division guards must land on the same transcripts.
        g = star_graph(50)
        offsets, targets = g.csr()
        roots = np.arange(g.num_vertices, dtype=np.int64)
        _run_both(
            offsets, targets, roots,
            x=1681, beta=40, clip=1, horizon=12, scale=None,
        )

    def test_forests_with_explicit_scale(self):
        g = union_of_random_forests(80, 2, seed=9)
        offsets, targets = g.csr()
        roots = np.arange(g.num_vertices, dtype=np.int64)
        _run_both(
            offsets, targets, roots,
            x=4, beta=3, clip=1, horizon=12, scale=12,
        )

    def test_empty_roots(self):
        g = path_graph(4)
        offsets, targets = g.csr()
        info = native.play_games_compiled(
            offsets, targets, np.empty(0, dtype=np.int64),
            x=4, beta=2, clip=1, horizon=12, scale=12,
            out_layer=np.full(4, _INF),
            out_count=np.zeros(4, dtype=np.int64),
        )
        assert not info.reads.size and not info.ejected.size


class TestEjectionParity:
    def test_mixed_ejections_identical(self, monkeypatch):
        # A shrunken word budget ejects an x-dependent subset of the
        # fleet mid-game: the ejected *set*, the rollback (zeroed
        # outputs, empty record segments), and every surviving game's
        # transcript must match the numpy engine exactly.
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        g = preferential_attachment(150, 2, seed=11)
        offsets, targets = g.csr()
        roots = np.arange(g.num_vertices, dtype=np.int64)
        batched, compiled = _run_both(
            offsets, targets, roots,
            x=64, beta=6, clip=3, horizon=20, scale=None,
        )
        assert 0 < batched.ejected.size < len(roots)
        member_counts, proof_counts = compiled.records[3:]
        for gi in batched.ejected.tolist():
            assert member_counts[gi] == 0 and proof_counts[gi] == 0
            assert compiled.reads[gi] == 0
            assert compiled.super_iterations[gi] == 0

    def test_all_ejected_when_no_scale_fits(self):
        # x so large that scale_cap < 1: the compiled wrapper delegates
        # to the batched all-ejected early path, so the whole fleet
        # takes the scalar escape hatch on both engines.
        g = path_graph(4)
        offsets, targets = g.csr()
        roots = np.arange(4, dtype=np.int64)
        batched, compiled = _run_both(
            offsets, targets, roots,
            x=2**61, beta=1, clip=1, horizon=12, scale=None,
        )
        assert batched.ejected.size == 4
        assert compiled.ejected.size == 4


@st.composite
def _fuzz_fleets(draw):
    """A small graph, β and x, and the fleet's word budget and blocking.

    Graphs are random, stars, or a hub of degree > β+1 whose rim is
    wired among itself: a dense rim pulls most of the hub's row into a
    game's ball (fewer than β+1 non-members left), a sparse one leaves
    most of it outside (more than β+1).
    """
    beta = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["random", "star", "hub"]))
    if kind == "random":
        n = draw(st.integers(1, 40))
        pairs = draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        ))
        edges = [(u, v) for u, v in pairs if u != v]
    elif kind == "star":
        n = 1 + draw(st.integers(1, 2 * beta + 4))
        edges = [(0, v) for v in range(1, n)]
    else:
        n = 1 + draw(st.integers(beta + 2, beta + 24))
        density = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        us, vs = np.triu_indices(n - 1, 1)
        wired = rng.random(len(us)) < density
        edges = [(0, v) for v in range(1, n)]
        edges += list(zip((us[wired] + 1).tolist(), (vs[wired] + 1).tolist()))
    return {
        "graph": Graph.from_edges(n, edges),
        "beta": beta,
        "x": draw(st.integers(2, 300)),
        # Word budget as headroom bits over x·(β+2): small headroom
        # ejects every game, large none, and in between some.
        "headroom_bits": draw(st.integers(1, 40)),
        "cohort_games": draw(st.sampled_from([1, 3, 8, None])),
        "workers": draw(st.sampled_from([1, 2])),
    }


def _fleets_agree(graph, beta, x, *, workers=1, scale_limit=None,
                  cohort_games=None):
    """Play one game per vertex on both engines through the fleet player;
    assert every per-game output agrees and return the batched info."""
    offsets, targets = graph.csr()
    n = graph.num_vertices
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)

    def fleet(engine):
        out_layer = np.full(n, _INF)
        out_count = np.zeros(n, dtype=np.int64)
        info = play_fleet(
            offsets, targets, np.arange(n, dtype=np.int64),
            x=x, beta=beta, clip=clip, horizon=horizon,
            scale=fixed_coin_scale(beta, horizon),
            out_layer=out_layer, out_count=out_count, engine=engine,
            want_records=True, workers=workers,
        )
        return info, out_layer, out_count

    with mock.patch.object(
        batched_games, "SCALE_LIMIT",
        scale_limit or batched_games.SCALE_LIMIT,
    ), mock.patch.object(
        columnar_rounds, "COHORT_GAMES",
        cohort_games or columnar_rounds.COHORT_GAMES,
    ):
        batched, layer_b, count_b = fleet("batched")
        compiled, layer_c, count_c = fleet("compiled")
    assert np.array_equal(layer_b, layer_c)
    assert np.array_equal(count_b, count_c)
    for field in (
        "reads", "writes", "super_iterations", "edges_seen", "ejected",
    ):
        assert np.array_equal(
            getattr(batched, field), getattr(compiled, field)
        ), field
    for got, want in zip(compiled.records, batched.records):
        assert np.array_equal(got, want)
    return batched


class TestFleetFuzz:
    """The two array engines, fuzzed against each other through the
    fleet player: a shrunken word budget makes some games eject from
    the int64 pass, the interpreter finishes them, and every per-game
    output must agree, and equal the full budget's."""

    @given(_fuzz_fleets())
    @settings(deadline=None)  # example count from the hypothesis profile
    def test_engines_agree_through_the_fleet_player(self, case):
        beta, x = case["beta"], case["x"]
        batched = _fleets_agree(
            case["graph"], beta, x, workers=case["workers"],
            scale_limit=min(
                batched_games.SCALE_LIMIT,
                x * (beta + 2) << case["headroom_bits"],
            ),
            cohort_games=case["cohort_games"],
        )
        # Ejected games come back finished: every ball holds its root,
        # and the interpreter's outputs equal the full budget's.
        member_counts = batched.records[3]
        assert member_counts[batched.ejected].all()
        full = _fleets_agree(case["graph"], beta, x)
        for field in ("reads", "writes", "super_iterations", "edges_seen"):
            assert np.array_equal(
                getattr(batched, field), getattr(full, field)
            ), field
        for got, want in zip(batched.records, full.records):
            assert np.array_equal(got, want)


class TestForwardingSetBranches:
    """A hub (degree > β+1) takes its forwarding set from the row's first
    β+1 non-members when it holds that many, else from the σ-ranked
    selection.  Hand-built games pin each side of that boundary; every
    case also plays both engines against each other."""

    BETA = 3
    X = 4 * (BETA + 1) ** 2  # each hop hands a hub at least β+1 coins

    @pytest.mark.parametrize(
        "members, non_members, branch",
        [
            (2, BETA, "selection"),
            (2, BETA + 1, "prefix"),
            (2, BETA + 2, "prefix"),
            (1, BETA, "selection"),  # deg(hub) == β+2
        ],
    )
    def test_interleaved_hub_row(self, members, non_members, branch):
        # Root r (degree members+1 <= β+1) explores the hub h and the
        # member rim M in super-iteration 0.  In super-iteration 1 the
        # hub's row is M ∪ N ∪ {r} with M and N interleaved by id, so it
        # holds exactly |N| non-members when it builds its forwarding set.
        beta = self.BETA
        rim = list(range(members + non_members))
        m_ids = rim[1:2 * members:2]
        n_ids = [w for w in rim if w not in m_ids]
        hub, root = len(rim), len(rim) + 1
        assert len(m_ids) == members and len(n_ids) == non_members
        assert 1 + members + non_members > beta + 1  # a hub row
        assert ("prefix" if non_members >= beta + 1 else "selection") \
            == branch
        edges = [(root, hub)] + [(root, w) for w in m_ids]
        edges += [(hub, w) for w in rim]
        graph = Graph.from_edges(root + 1, edges)
        batched = _fleets_agree(graph, beta, self.X)
        members_arena, member_counts = batched.records[0], batched.records[3]
        explored = members_arena[member_counts[:root].sum():].tolist()
        ball = [root] + sorted(m_ids + [hub])
        # Super-iteration 1 explores exactly the hub's forwarded
        # non-members: the first β+1 of N by id, or all of N.
        assert explored[:len(ball)] == ball
        assert explored[len(ball):len(ball) + min(non_members, beta + 1)] \
            == n_ids[:beta + 1]

    @pytest.mark.parametrize(
        "rim, branches",
        [
            # Non-member counts per super-iteration: 8, 4 (= β+1), 0.
            (2 * BETA + 2, ["prefix", "prefix", "selection"]),
            # 9, 5 (= β+2), 1, 0.
            (2 * BETA + 3, ["prefix", "prefix", "selection", "selection"]),
            # deg == β+2: 5, 1, 0.
            (BETA + 2, ["prefix", "selection", "selection"]),
        ],
    )
    def test_hub_rooted_star(self, rim, branches):
        # The hub roots its own game and forwards its fresh x coins every
        # super-iteration to β+1 rim leaves, lowest unexplored ids first,
        # so the ball grows by β+1 leaves a super-iteration until the
        # row holds no non-member; that super-iteration touches nothing
        # new and the game retires.
        beta = self.BETA
        counts = [max(0, rim - s * (beta + 1)) for s in range(len(branches))]
        assert counts[-1] == 0 < counts[-2]
        assert [
            "prefix" if c >= beta + 1 else "selection" for c in counts
        ] == branches
        graph = star_graph(rim + 1)
        batched = _fleets_agree(graph, beta, self.X)
        assert batched.super_iterations[0] == len(branches)
        assert batched.records[3][0] == rim + 1


class TestIncrementalSigma:
    """A game keeps its σ across super-iterations: a full peel for its
    first σ, a downward relaxation from the last σ once the ball has
    grown, and no end-of-game σ when the last super-iteration's still
    covers the ball.  Both walk hub rows only (members of degree <= β
    sit at layer 0), and the relaxation leaves at ∞, unwalked, a hub with
    fewer than deg - β in-ball neighbours with non-empty rows.
    Hand-built hub games pin each branch, hub-free and PA fleets bracket
    them, and every case plays both engines."""

    BETA = 3
    X = 4 * (BETA + 1) ** 2  # each hop hands a hub at least β+1 coins

    def test_sigma_in_two_super_iterations_then_retire(self):
        # The hub roots its own game and takes β+1 rim leaves a
        # super-iteration (TestForwardingSetBranches.test_hub_rooted_star):
        # its row keeps 9, 5, 1, 0 non-members, so super-iterations 2 and
        # 3 rank it by σ, first by a full peel, then by a relaxation.
        # Super-iteration 3 forwards to members only, touches nothing and
        # retires: the end of the game reuses that σ.
        beta, rim = self.BETA, 2 * self.BETA + 3
        offsets, targets = star_graph(rim + 1).csr()
        roots = np.arange(rim + 1, dtype=np.int64)
        __, compiled = _run_both(
            offsets, targets, roots, x=self.X, beta=beta, clip=2,
            horizon=16, scale=None,
        )
        assert compiled.super_iterations[0] == 4
        assert compiled.records[3][0] == rim + 1

    def test_end_sigma_relaxes_after_the_super_iteration_cap(self):
        # x = 2 caps the game at x² = 4 super-iterations.  The hub root's
        # row keeps 7, 5, 3, 1 non-members: super-iteration 3 ranks it by
        # σ (a full peel), forwards to the last leaf, and explores it as
        # the cap ends the game, so the end σ relaxes from the ball of
        # super-iteration 3.  That leaf has a second neighbour outside
        # the ball, so its σ is 2 (1 + the hub's), not the 0 of a leaf;
        # every finite σ is clipped in.
        offsets, targets = Graph.from_edges(
            9, [(0, v) for v in range(1, 8)] + [(7, 8)]
        ).csr()
        roots = np.arange(9, dtype=np.int64)
        __, compiled = _run_both(
            offsets, targets, roots, **dict(_game(2, 1), clip=9)
        )
        assert compiled.super_iterations[0] == 4
        members, proof_u, proof_l, member_counts, proof_counts = \
            compiled.records
        assert members[:member_counts[0]].tolist() == list(range(8))
        proof = dict(zip(proof_u[:proof_counts[0]].tolist(),
                         proof_l[:proof_counts[0]].tolist()))
        assert proof[0] == 1 and proof[7] == 2

    @pytest.mark.parametrize("want_records", [True, False])
    def test_inball_reaches_the_bar_a_super_iteration_later(
        self, want_records
    ):
        # β = 2.  Root 0 has row {1, 2, 3, 4}; hub 1 has row {0, 5..11},
        # degree 8, so its σ is finite only with 6 in-ball neighbours.
        # The root forwards to 1, 2, 3 by prefix, then ranks by σ from
        # super-iteration 2 on (a full peel: hub 1 counts 1 in-ball
        # neighbour).  Hub 1 forwards to 5, 6, 7, then to 8, 9, 10, a
        # prefix of three each time.  The relaxation after the first
        # three leaves queues hub 1 with 4 in-ball neighbours and leaves
        # it at ∞ unwalked; the one after the next three finds 7 and
        # lowers it to 1.
        beta = 2
        edges = [(0, v) for v in (1, 2, 3, 4)]
        edges += [(1, v) for v in range(5, 12)]
        offsets, targets = Graph.from_edges(12, edges).csr()
        __, compiled = _run_both(
            offsets, targets, np.arange(12, dtype=np.int64),
            want_records=want_records, **_game(4 * (beta + 1) ** 2, beta),
        )
        assert compiled.super_iterations[0] == 5
        if want_records:
            members, proof_u, proof_l, member_counts, proof_counts = \
                compiled.records
            assert members[:member_counts[0]].tolist() == list(range(12))
            assert proof_l[:proof_counts[0]].tolist()[:2] == [1, 1]

    @pytest.mark.parametrize("want_records", [True, False])
    def test_hub_free_fleet(self, want_records):
        # Every degree is <= β: every σ is 0 from the degree alone, and
        # neither routine walks a row.
        graph = random_gnm(300, 600, seed=5)
        offsets, targets = graph.csr()
        beta = int(np.diff(offsets).max())
        __, compiled = _run_both(
            offsets, targets, np.arange(graph.num_vertices, dtype=np.int64),
            want_records=want_records, **_game(100, beta),
        )
        assert compiled.writes.sum() > graph.num_vertices

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("beta, x", [(3, 64), (6, 49)])
    def test_hub_heavy_fleets(self, seed, beta, x):
        graph = preferential_attachment(300, 3, seed=seed)
        offsets, targets = graph.csr()
        roots = np.arange(graph.num_vertices, dtype=np.int64)
        for want_records in (True, False):
            _run_both(offsets, targets, roots, want_records=want_records,
                      **_game(x, beta))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_empty_rows_never_count(self, seed):
        # The message fabric plays CSRs whose unheld rows are empty: such
        # a member has degree 0 but sits in its neighbours' rows.  Neither
        # the peel's countdowns nor the relaxation's inball counts may
        # count it, as the row-walking peel of
        # `induced_partition_from_view`, which decrements along rows,
        # never does.  With every finite σ clipped in, each game's proof
        # is that peel of its recorded ball: each member's in-ball row
        # with its row length as true degree.
        for graph in (
            preferential_attachment(400, 3, seed=seed),
            random_gnm(400, 800, seed=seed),
            union_of_random_forests(400, 3, seed=seed),
        ):
            self._proofs_are_the_peel_with_empty_rows(graph, seed)

    @staticmethod
    def _proofs_are_the_peel_with_empty_rows(graph, seed):
        offsets, targets = graph.csr()
        n = graph.num_vertices
        held = np.random.default_rng(seed).random(n) > 0.3
        targets = targets[np.repeat(held, np.diff(offsets))]
        offsets = np.concatenate(([0], np.cumsum(np.diff(offsets) * held)))
        adj = LazyAdjacency(offsets, targets)
        beta = 3
        game = dict(_game(64, beta), clip=n)
        info = native.play_games_compiled(
            offsets, targets, np.arange(n, dtype=np.int64),
            out_layer=np.full(n, _INF),
            out_count=np.zeros(n, dtype=np.int64), want_records=True,
            **game,
        )
        members, proof_u, proof_l, member_counts, proof_counts = info.records
        member_ends = np.cumsum(member_counts).tolist()
        proof_ends = np.cumsum(proof_counts).tolist()
        mo = po = 0
        for me, pe in zip(member_ends, proof_ends):
            ball = members[mo:me].tolist()
            in_ball = set(ball)
            inside = {v: [w for w in adj[v] if w in in_ball] for v in ball}
            sigma = induced_partition_from_view(
                inside, {v: len(adj[v]) for v in ball}, beta
            ).layers
            want = [(v, sigma[v]) for v in ball if sigma[v] != _INF]
            assert list(zip(proof_u[po:pe].tolist(),
                            proof_l[po:pe].tolist())) == want
            mo, po = me, pe


class TestEndToEndEngines:
    def test_partition_compiled_vs_oracle(self):
        g = random_gnm(300, 600, seed=21)
        oracle = beta_partition_ampc(g, 9, store="dict")
        compiled = beta_partition_ampc(g, 9, store="columnar",
                                       engine="compiled")
        assert compiled.engine == "compiled"
        assert compiled.partition.layers == oracle.partition.layers
        assert compiled.rounds == oracle.rounds

    def test_fraction_deep_horizon_partition(self):
        # x = 2^15 at beta = 1 pushes past INT_COIN_HORIZON_CAP: every
        # game ejects to the Fraction scalar path under both engines.
        g = path_graph(10)
        oracle = beta_partition_ampc(g, 1, x=2**15, store="dict")
        compiled = beta_partition_ampc(
            g, 1, x=2**15, store="columnar", engine="compiled"
        )
        assert compiled.partition.layers == oracle.partition.layers

    def test_lca_query_all_compiled(self):
        from repro.lca.partial_partition_lca import PartialPartitionLCA

        g = preferential_attachment(120, 2, seed=5)
        ref = PartialPartitionLCA(g, x=49, beta=6, engine="batched")
        lca = PartialPartitionLCA(g, x=49, beta=6, engine="compiled")
        merged_ref, results_ref = ref.query_all()
        merged, results = lca.query_all()
        assert merged.layers == merged_ref.layers
        for v, res in results_ref.items():
            got = results[v]
            assert got.layer == res.layer
            assert got.explored == res.explored
            assert got.proof.layers == res.proof.layers
            assert got.queries == res.queries
            assert got.super_iterations == res.super_iterations
            assert got.edges_seen == res.edges_seen


class TestScalarOnShardRows:
    """The scalar engine is the kernel's oracle on fabric-shard-like
    CSRs too, where a third of the rows read as empty (unheld rows):
    game for game, the same reads, writes, super-iterations, members,
    proofs and folds, and the same ``edges_seen``: both count each
    inside edge off the row of its later-explored endpoint, so an
    ejected shard game the interpreter replays keeps the kernel's
    count."""

    @pytest.mark.parametrize(
        "make, beta, x",
        [
            (lambda: preferential_attachment(300, 3, seed=0), 6, 49),
            (lambda: random_gnm(300, 600, seed=0), 3, 16),
            (lambda: union_of_random_forests(300, 3, seed=0), 9, 100),
        ],
        ids=["pa", "gnm", "forests"],
    )
    def test_scalar_fleet_matches_compiled(self, make, beta, x):
        graph = make()
        offsets, targets = graph.csr()
        n = graph.num_vertices
        held = np.random.default_rng(n).random(n) >= 1 / 3
        targets = targets[np.repeat(held, np.diff(offsets))]
        offsets = np.concatenate(([0], np.cumsum(np.diff(offsets) * held)))
        roots = np.nonzero(held)[0].astype(np.int64)

        def fleet(engine):
            layer = np.full(n, _INF)
            count = np.zeros(n, dtype=np.int64)
            info = play_fleet(
                offsets, targets, roots, out_layer=layer, out_count=count,
                engine=engine, want_records=True, **_game(x, beta),
            )
            return info, layer, count

        scalar, layer_s, count_s = fleet("scalar")
        compiled, layer_c, count_c = fleet("compiled")
        for field in ("reads", "writes", "super_iterations", "edges_seen"):
            assert np.array_equal(
                getattr(scalar, field), getattr(compiled, field)
            ), field
        for got, want in zip(scalar.records, compiled.records):
            assert np.array_equal(got, want)
        assert np.array_equal(layer_s, layer_c)
        assert np.array_equal(count_s, count_c)


def _game(x, beta):
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    return dict(
        x=x, beta=beta, clip=clip, horizon=horizon,
        scale=fixed_coin_scale(beta, horizon),
    )


class TestNoRecords:
    """Only records runs count inside edges: without records both engines
    skip the count and report ``edges_seen`` as zero, and every other
    output equals the records run's."""

    @staticmethod
    def _same(got, want, edges):
        """``got`` (info, layer, count) equals ``want`` but for
        ``edges_seen``, which must equal ``edges``."""
        for field in ("reads", "writes", "super_iterations", "ejected"):
            assert np.array_equal(
                getattr(got[0], field), getattr(want[0], field)
            ), field
        assert np.array_equal(got[0].edges_seen, edges)
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])

    @pytest.mark.parametrize(
        "make, beta, x, scale_limit",
        [
            (lambda: random_gnm(300, 600, seed=3), 9, 100, None),
            (lambda: preferential_attachment(200, 3, seed=4), 3, 64, None),
            (lambda: preferential_attachment(150, 2, seed=11), 6, 64,
             1 << 24),
        ],
        ids=["gnm", "pa-hubs", "pa-ejections"],
    )
    @pytest.mark.parametrize("workers", [1, 2])
    def test_fleet_without_records(
        self, make, beta, x, scale_limit, workers, monkeypatch
    ):
        if scale_limit is not None:
            monkeypatch.setattr(batched_games, "SCALE_LIMIT", scale_limit)
        graph = make()
        offsets, targets = graph.csr()
        n = graph.num_vertices
        game = _game(x, beta)

        def fleet(engine, want_records):
            layer = np.full(n, _INF)
            count = np.zeros(n, dtype=np.int64)
            info = play_fleet(
                offsets, targets, np.arange(n, dtype=np.int64),
                out_layer=layer, out_count=count, engine=engine,
                want_records=want_records, workers=workers, **game,
            )
            assert (info.records is not None) == want_records
            return info, layer, count

        want = fleet("batched", True)
        edges = want[0].edges_seen
        assert edges.any()
        if scale_limit is not None:
            assert want[0].ejected.size
        self._same(fleet("compiled", True), want, edges)
        for engine in ("batched", "compiled"):
            self._same(fleet(engine, False), want, 0 * edges)


@st.composite
def _tail_graphs(draw):
    """A small random graph, its edges as drawn, and a coloring: distinct
    colors from a palette of up to 10**6 (proper), or colors from a tiny
    palette (usually improper, which the loops must handle as their
    numpy passes do)."""
    n = draw(st.integers(0, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
        max_size=3 * n,
    ))
    graph = Graph.from_edges(n, sorted({
        (min(u, v), max(u, v)) for u, v in pairs if u != v
    }))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        palette = draw(st.integers(max(n, 2), 10**6))
        colors = rng.choice(palette, size=n, replace=False)
    else:
        palette = draw(st.integers(2, 6))
        colors = rng.integers(0, palette, size=n)
    return graph, colors.astype(np.int64), palette, rng


def _constraint_csr(src, dst, n):
    order = np.argsort(src, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return offsets.astype(np.int64), dst[order]


class TestTailFuzz:
    """The coloring tail's three C loops called directly on random small
    graphs against their numpy passes (the oracles): equal outputs, and
    a failed loop (rc 2) exactly where the numpy pass raises.  CI's
    sanitized step plays them under ASan and UBSan."""

    @given(_tail_graphs(), st.booleans())
    @settings(deadline=None)  # example count from the hypothesis profile
    def test_cover_free_round(self, case, oriented):
        graph, colors, palette, rng = case
        n = graph.num_vertices
        edges = graph.edge_array()
        if oriented:  # one random direction per edge (Arb-Linial)
            flip = rng.random(len(edges)) < 0.5
            src = np.where(flip, edges[:, 1], edges[:, 0])
            dst = np.where(flip, edges[:, 0], edges[:, 1])
        else:  # both directions (undirected Linial)
            src = np.concatenate((edges[:, 0], edges[:, 1]))
            dst = np.concatenate((edges[:, 1], edges[:, 0]))
        src, dst = src.astype(np.int64), dst.astype(np.int64)
        beta = max(1, int(np.bincount(src, minlength=1).max()))
        family = choose_family(max(palette, 2), beta)
        layer = whole_layer(graph, csr=_constraint_csr(src, dst, n))
        got = native.cover_free_round(
            layer, colors, family.d + 1, family.q, beta
        )
        try:
            want = family._reduce_colors_numpy(family.digits(colors), src, dst)
        except AssertionError:
            assert got is None
        else:
            assert got is not None and np.array_equal(got, want)

    @given(_tail_graphs(), st.integers(-2, 2))
    @settings(deadline=None)
    def test_kw_reduce(self, case, slack):
        graph, colors, palette, __ = case
        # A bound below the true degree can leave a mover no free color.
        delta = max(0, graph.max_degree() + slack)
        got = native.kw_reduce(whole_layer(graph), colors, palette, delta + 1)
        try:
            want = kw_color_reduction(
                graph, colors, delta, palette=palette, engine="batched"
            )
        except AssertionError:
            assert got is None
        else:
            assert got is not None
            np.testing.assert_array_equal(got[0], want.colors)
            assert got[1:] == (want.num_colors, want.local_rounds)

    # β around the int64 mask width, and far above every degree (the
    # walk's stamp window is then the degree bound, not the palette).
    @given(
        _tail_graphs(),
        st.one_of(st.integers(0, 70), st.integers(500, 5000)),
        st.booleans(),
    )
    @settings(deadline=None)
    def test_recolor_walk(self, case, beta, lowest):
        graph, __, __, rng = case
        order = rng.permutation(graph.num_vertices).astype(np.int64)
        offsets, targets = graph.csr()
        got = native.recolor_walk(offsets, targets, order, beta, lowest)
        pick = "lowest" if lowest else "highest"
        try:
            want = recolor._recolor_walk(graph, order.tolist(), beta, pick)
        except AssertionError:
            assert got is None
        else:
            assert got is not None and got.tolist() == want


@st.composite
def _layered_tail_graphs(draw):
    """A small random graph (edgeless ones included), a label vector and
    one label's layer of its split: the whole graph under one label, a
    singleton layer, or a random class of a random labelling (possibly
    edgeless inside).  Returns the layer, its induced subgraph and a
    coloring of the layer as in :func:`_tail_graphs`."""
    n = draw(st.integers(1, 40))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    ))
    graph = Graph.from_edges(n, sorted({
        (min(u, v), max(u, v)) for u, v in pairs if u != v
    }))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(("whole", "singleton", "random")))
    labels = np.zeros(n, dtype=np.int64)
    if shape == "singleton":
        labels[int(rng.integers(n))] = 1
    elif shape == "random":
        labels = rng.integers(0, draw(st.integers(1, 4)), size=n)
    label = labels[int(rng.integers(n))]
    layer = split_layers(graph, labels)[
        int(np.searchsorted(np.unique(labels), label))
    ]
    k = layer.size
    if draw(st.booleans()):
        palette = draw(st.integers(max(k, 2), 10**6))
        colors = rng.choice(palette, size=k, replace=False)
    else:
        palette = draw(st.integers(2, 6))
        colors = rng.integers(0, palette, size=k)
    sub = graph.induced_subgraph(layer.vertices)
    return layer, sub, colors.astype(np.int64), palette


class TestLayerTailFuzz:
    """The layer-restricted Linial round and KW, run in place on the
    whole graph's CSR, against their numpy passes on
    ``graph.induced_subgraph(vertices)``: equal outputs, and a failed
    loop exactly where the numpy pass raises.  CI's sanitized step
    plays them under ASan and UBSan.  Neither sanitizer flags a read of
    uninitialised heap memory, so the rule that each arc tests the far
    end's label before it reads that vertex's scratch (set only at the
    layer's ids) is checked by the differential, where such a read
    changes a result, and by ``test_cross_layer_arcs_are_skipped``."""

    def test_cross_layer_arcs_are_skipped(self):
        # Two paths 0-1-2-3 and 4-5-6-7 under labels 0 and 1, joined by
        # every cross arc, with equal colors at equal positions: were a
        # cross arc counted, each vertex would see 4 more neighbors (past
        # the bound 2) and twins of its own color.  Each layer colors
        # exactly as its induced path.
        cross = [(u, w) for u in range(4) for w in range(4, 8)]
        paths = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
        graph = Graph.from_arrays(8, np.array(paths + cross, dtype=np.int64))
        labels = np.repeat(np.arange(2, dtype=np.int64), 4)
        colors = np.array([5, 9, 5, 9], dtype=np.int64)
        family = choose_family(10, 2)
        for layer in split_layers(graph, labels):
            sub = graph.induced_subgraph(layer.vertices)
            got = native.cover_free_round(
                layer, colors, family.d + 1, family.q, 2
            )
            want = family.reduce_colors(
                colors, whole_layer(sub), 2, engine="batched"
            )
            np.testing.assert_array_equal(got, want)
            got_kw = native.kw_reduce(layer, colors, 10, 3)
            want_kw = kw_color_reduction(
                sub, colors, 2, palette=10, engine="batched"
            )
            np.testing.assert_array_equal(got_kw[0], want_kw.colors)
            assert got_kw[1:] == (want_kw.num_colors, want_kw.local_rounds)

    @given(_layered_tail_graphs(), st.integers(-1, 1))
    @settings(deadline=None)  # example count from the hypothesis profile
    def test_cover_free_round_on_a_layer(self, case, slack):
        layer, sub, colors, palette = case
        # A bound below the within-layer degree must fail the loop, as
        # the numpy round's degree check rejects it.
        bound = max(1, sub.max_degree() + slack)
        family = choose_family(max(palette, 2), bound)
        got = native.cover_free_round(
            layer, colors, family.d + 1, family.q, bound
        )
        try:
            want = family.reduce_colors(
                colors, whole_layer(sub), bound, engine="batched"
            )
        except (AssertionError, ValueError):
            assert got is None
        else:
            assert got is not None and np.array_equal(got, want)

    @given(_layered_tail_graphs(), st.integers(-2, 2))
    @settings(deadline=None)
    def test_kw_reduce_on_a_layer(self, case, slack):
        layer, sub, colors, palette = case
        delta = max(0, sub.max_degree() + slack)
        got = native.kw_reduce(layer, colors, palette, delta + 1)
        try:
            want = kw_color_reduction(
                sub, colors, delta, palette=palette, engine="batched"
            )
        except AssertionError:
            assert got is None
        else:
            assert got is not None
            np.testing.assert_array_equal(got[0], want.colors)
            assert got[1:] == (want.num_colors, want.local_rounds)

    @given(_layered_tail_graphs())
    @settings(deadline=None)
    def test_layer_stage_matches_the_induced_subgraph(self, case):
        # The Section 6.3 per-layer stage through the public entry
        # points: Linial then KW on a Layer, compiled in place, equal
        # the numpy stage on the induced copy, which the compiled path
        # never builds.
        layer, sub, __, __ = case
        bound = sub.max_degree()
        want_lin = linial_undirected_coloring(sub, bound, engine="batched")
        want_kw = kw_color_reduction(
            sub, want_lin.colors, bound, palette=want_lin.num_colors,
            engine="batched",
        )
        with tail("compiled"):
            lin = linial_undirected_coloring(layer, bound, engine="compiled")
            kw = kw_color_reduction(
                layer, lin.colors, bound, palette=lin.num_colors,
                engine="compiled",
            )
        assert layer._induced is None
        np.testing.assert_array_equal(lin.colors, want_lin.colors)
        assert (lin.num_colors, lin.local_rounds) == (
            want_lin.num_colors, want_lin.local_rounds
        )
        np.testing.assert_array_equal(kw.colors, want_kw.colors)
        assert (kw.num_colors, kw.local_rounds) == (
            want_kw.num_colors, want_kw.local_rounds
        )


class TestTailInputGuards:
    """Malformed colors and orders raise ValueError in the tail's
    wrappers, before any C call: the loops index their outputs and
    their per-vertex scratch by the ids they are handed.  A malformed
    layer cannot reach them at all: :func:`split_layers`, the only way
    to build one, rejects it (``tests/test_coloring_layers.py``)."""

    # A path 0-1-2-3-4-5 labelled [0, 0, 1, 1, 0, 2]: label 0's layer is
    # [0, 1, 4].
    LABELS = [0, 0, 1, 1, 0, 2]

    def _layer(self):
        return split_layers(path_graph(6), self.LABELS)[0]

    @pytest.mark.parametrize("colors", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]]])
    @pytest.mark.parametrize("entry", ["cover_free_round", "kw_reduce"])
    def test_one_color_per_layer_vertex(
        self, entry, colors, monkeypatch
    ):
        monkeypatch.setattr(native, "_tail_call", no_c_call)
        with pytest.raises(ValueError, match="one color per layer vertex"):
            if entry == "cover_free_round":
                native.cover_free_round(self._layer(), colors, 2, 5, 2)
            else:
                native.kw_reduce(self._layer(), colors, 8, 3)

    @pytest.mark.parametrize("colors", [[0, 8, 1], [-1, 0, 1]])
    def test_kw_color_outside_the_palette_raises(
        self, colors, monkeypatch
    ):
        monkeypatch.setattr(native, "_tail_call", no_c_call)
        with pytest.raises(ValueError, match="palette"):
            native.kw_reduce(self._layer(), np.array(colors), 8, 3)

    def test_kw_layer_of_an_orientation_raises(self, monkeypatch):
        # The loop would avoid out-neighbours only: on this orientation
        # of a path it returned [0, 1, 0, 0, 0, 0], improper on the path.
        monkeypatch.setattr(native, "_tail_call", no_c_call)
        directed = whole_layer(
            path_graph(6), csr=([0, 1, 2, 3, 4, 5, 5], [1, 2, 3, 4, 5])
        )
        with pytest.raises(ValueError, match="its graph's CSR"):
            native.kw_reduce(directed, np.arange(6), 6, 2)

    @pytest.mark.parametrize(
        "order",
        [[0, 1, 2, 3, 4, 6], [0, 1, 2, 3, 4, -1], [0, 1, 2, 3, 4],
         [0, 1, 2, 3, 4, 5, 5]],
        ids=["past-n", "negative", "short", "long"],
    )
    def test_recolor_walk_order_outside_the_vertices_raises(
        self, order, monkeypatch
    ):
        # The walk writes colors[order[i]]: an id past n wrote beyond
        # the output buffer before the wrapper checked the order.
        offsets, targets = path_graph(6).csr()
        monkeypatch.setattr(native, "_tail_call", no_c_call)
        with pytest.raises(ValueError, match="order"):
            native.recolor_walk(
                offsets, targets, np.array(order), 2, lowest=False
            )

    def test_well_formed_layer_reaches_the_loop(self):
        # The guards' own control: a well-formed layer and colors run.
        got = native.cover_free_round(
            self._layer(), np.array([0, 1, 2]), 2, 5, 2
        )
        np.testing.assert_array_equal(got, [0, 1, 2])
        got = native.kw_reduce(self._layer(), np.array([0, 7, 1]), 8, 2)
        assert got is not None and got[1] == 2
        assert got[0][0] != got[0][1]


class TestCorePeelFuzz:
    """The k-core peel's C loop against the list peel of
    :func:`degeneracy_order` (its oracle) on every peel shape: cherries
    on a cycle, disjoint unions, n = 0 and edgeless graphs included.
    CI's sanitized step plays it under ASan and UBSan."""

    @given(peel_shapes)
    @settings(deadline=None)  # example count from the hypothesis profile
    def test_cores_match_the_list_peel(self, graph):
        cores = native.core_peel(*graph.csr())
        assert cores is not None
        want = degeneracy_order(graph)[1]
        assert cores.tolist() == want
        assert degeneracy(graph) == max(want, default=0)


_REALLOC_SHIM = r"""
#define _GNU_SOURCE
#include <dlfcn.h>
#include <stddef.h>
#include <string.h>

/* Counts the reallocs called from the wave kernel's shared object and
 * fails the fail_at-th one (0 = never). */
static long seen, fail_at, fired;

void shim_arm(long n) { seen = 0; fail_at = n; fired = 0; }
long shim_seen(void) { return seen; }
long shim_fired(void) { return fired; }

void *realloc(void *p, size_t size) {
    static void *(*real)(void *, size_t);
    Dl_info info;
    if (!real) real = (void *(*)(void *, size_t))dlsym(RTLD_NEXT, "realloc");
    if (dladdr(__builtin_return_address(0), &info) && info.dli_fname
            && strstr(info.dli_fname, "_wave_kernel")) {
        if (++seen == fail_at) {
            fired = 1;
            return NULL;
        }
    }
    return real(p, size);
}
"""

_ALLOC_FAILURE_SCRIPT = r"""
import ctypes
import sys

import numpy as np

from repro.core import native
from repro.core.columnar_rounds import play_fleet
from repro.graphs.generators import preferential_attachment, random_gnm
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer

shim = ctypes.CDLL(sys.argv[1])
assert native.available(), native.load_error()


def make_game(x, beta):
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    return dict(x=x, beta=beta, clip=clip, horizon=horizon,
                scale=fixed_coin_scale(beta, horizon))


def armed(fail_at, call):
    shim.shim_arm(fail_at)
    out = call()
    seen, fired = shim.shim_seen(), shim.shim_fired()
    shim.shim_arm(0)
    return out, seen, fired


def fleet(offsets, targets, roots, game, fail_at):
    n = len(offsets) - 1
    layer = np.full(n, float("inf"))
    count = np.zeros(n, dtype=np.int64)
    info, seen, fired = armed(fail_at, lambda: play_fleet(
        offsets, targets, roots, out_layer=layer, out_count=count,
        engine="compiled", want_records=True, workers=1, **game))
    return info, layer, count, seen, fired


def same(got, want, fields):
    assert np.array_equal(got[1], want[1]), "out_layer"
    assert np.array_equal(got[2], want[2]), "out_count"
    for field in fields:
        assert np.array_equal(getattr(got[0], field),
                              getattr(want[0], field)), field


def same_fleet(got, want, num_games):
    # Every output but ejected is exact.  A failed int64 call ejects
    # the games it left unplayed, a suffix of the cohort, and the
    # fleet player's ladder finishes them.
    same(got, want, ("reads", "writes", "super_iterations", "edges_seen"))
    for part, expect in zip(got[0].records, want[0].records):
        assert np.array_equal(part, expect)
    got_ej, want_ej = got[0].ejected, want[0].ejected
    extra = np.setdiff1d(got_ej, want_ej)
    first = extra[0] if extra.size else num_games
    assert np.array_equal(got_ej, np.union1d(
        want_ej[want_ej < first], np.arange(first, num_games))), first


def fail_each(offsets, targets, roots, game, points=None):
    clean = fleet(offsets, targets, roots, game, 0)
    total = clean[3]
    assert total > 20, total
    for fail_at in points(total) if points else range(1, total + 1):
        got = fleet(offsets, targets, roots, game, fail_at)
        assert got[4], fail_at
        same_fleet(got, clean, len(roots))


# The int64 pass: the games after the failure go down the ladder, and
# every output but the ejection set stays exact.
graph = random_gnm(400, 800, seed=1)
offsets, targets = graph.csr()
n = graph.num_vertices
game = make_game(100, 9)
roots = np.arange(n, dtype=np.int64)
fail_each(offsets, targets, roots, game,
          lambda total: sorted({1, 20, total // 2, total}))

# A hub-heavy fleet that relaxes sigma thousands of times: failing each
# of its reallocs in turn, sigma_relax's value buffer and every slot
# array's growth (the hubs' inball counts included) among them, leaves
# every output exact.
hubs = preferential_attachment(60, 3, seed=3)
fail_each(*hubs.csr(), np.arange(hubs.num_vertices, dtype=np.int64),
          make_game(64, 3))

# Fabric-shard-like CSRs, a third of the rows emptied: the ladder
# plays the unfinished games on the CSR as given.
for size in (20, 60):
    pa = preferential_attachment(size, 3, seed=size)
    p_offsets, p_targets = pa.csr()
    held = np.random.default_rng(size).random(size) >= 1 / 3
    p_targets = p_targets[np.repeat(held, np.diff(p_offsets))]
    p_offsets = np.concatenate(([0], np.cumsum(np.diff(p_offsets) * held)))
    fail_each(p_offsets, p_targets, np.nonzero(held)[0].astype(np.int64),
              make_game(49, 6))

print("ALLOC_FAILURE_OK")
"""


class TestAllocationFailure:
    """A realloc that fails inside the kernel (rc=1) mid-cohort: the
    games it finished stay folded exactly once, and the rest go down
    the fleet player's ladder, so every output but the ejection set
    equals an unfailed run."""

    @pytest.mark.skipif(
        shutil.which("gcc") is None, reason="needs gcc for the realloc shim"
    )
    @pytest.mark.skipif(
        bool(os.environ.get("REPRO_NATIVE_SANITIZE", "").strip()),
        reason="the sanitizer runtimes own realloc",
    )
    def test_failed_realloc_replays_only_the_unfinished_games(
        self, tmp_path
    ):
        shim_c = tmp_path / "realloc_shim.c"
        shim_c.write_text(_REALLOC_SHIM)
        shim = tmp_path / "realloc_shim.so"
        subprocess.run(
            ["gcc", "-O2", "-fPIC", "-shared", str(shim_c), "-o", str(shim),
             "-ldl"],
            check=True, capture_output=True,
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src, LD_PRELOAD=str(shim))
        env.pop("REPRO_NATIVE_DISABLE", None)
        result = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(_ALLOC_FAILURE_SCRIPT),
             str(shim)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "ALLOC_FAILURE_OK" in result.stdout
