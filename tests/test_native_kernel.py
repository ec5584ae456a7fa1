"""Direct differential tests of the fused C wave kernel.

``repro.core.native.play_games_compiled`` must be a bit-identical
drop-in for ``play_games_batched`` — fold accumulators, probe counts,
flat records (explored sets in exploration order + clipped proofs),
super-iteration counts, inside-edge counts, and the ejection set all
byte-for-byte, including under adversarial word budgets that force
mid-game ejections and the Fraction deep-horizon regime.  A hypothesis
fuzz plays random small graphs, stars and hubs on both engines through
the fleet player.  Skip-marked wholesale when the kernel cannot load
(tier-1 must pass without it).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batched_games, columnar_rounds, native
from repro.core.batched_games import (
    csr_transpose_positions,
    play_games_batched,
)
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import play_fleet
from repro.graphs.generators import (
    path_graph,
    preferential_attachment,
    random_gnm,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer

pytestmark = pytest.mark.skipif(
    not native.available(), reason="compiled wave kernel unavailable"
)

_INF = float("inf")


def _run_both(offsets, targets, roots, **game):
    n = len(offsets) - 1
    layer_b = np.full(n, _INF)
    count_b = np.zeros(n, dtype=np.int64)
    layer_c = np.full(n, _INF)
    count_c = np.zeros(n, dtype=np.int64)
    batched = play_games_batched(
        offsets, targets, roots, out_layer=layer_b, out_count=count_b,
        want_records=True,
        transpose_pos=csr_transpose_positions(offsets, targets), **game
    )
    compiled = native.play_games_compiled(
        offsets, targets, roots, out_layer=layer_c, out_count=count_c,
        want_records=True, **game
    )
    assert np.array_equal(layer_b, layer_c)
    assert np.array_equal(count_b, count_c)
    for field in (
        "reads", "writes", "super_iterations", "edges_seen", "ejected",
    ):
        assert np.array_equal(
            getattr(batched, field), getattr(compiled, field)
        ), field
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


class TestFleetFuzz:
    """The two array engines, fuzzed against each other through the
    fleet player: a shrunken word budget makes some games eject and
    others finish, and every per-game output must agree."""

    @given(_fuzz_fleets())
    @settings(max_examples=60, deadline=None)
    def test_engines_agree_through_the_fleet_player(self, case):
        graph, beta, x = case["graph"], case["beta"], case["x"]
        offsets, targets = graph.csr()
        n = graph.num_vertices
        clip = max_provable_layer(x, beta)
        horizon = 4 * (clip + 2)
        cohort_games = case["cohort_games"] or columnar_rounds.COHORT_GAMES

        def fleet(engine):
            out_layer = np.full(n, _INF)
            out_count = np.zeros(n, dtype=np.int64)
            info = play_fleet(
                offsets, targets, np.arange(n, dtype=np.int64),
                x=x, beta=beta, clip=clip, horizon=horizon,
                scale=fixed_coin_scale(beta, horizon),
                out_layer=out_layer, out_count=out_count, engine=engine,
                want_records=True, workers=case["workers"],
            )
            return info, out_layer, out_count

        budget = min(
            batched_games.SCALE_LIMIT,
            x * (beta + 2) << case["headroom_bits"],
        )
        with mock.patch.object(
            batched_games, "SCALE_LIMIT", budget
        ), mock.patch.object(columnar_rounds, "COHORT_GAMES", cohort_games):
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
        member_counts = batched.records[3]
        assert not member_counts[batched.ejected].any()


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
