"""Direct differential tests of the fused C wave kernel.

``repro.core.native.play_games_compiled`` must be a bit-identical
drop-in for ``play_games_batched`` — fold accumulators, probe counts,
flat records (explored sets in exploration order + clipped proofs),
super-iteration counts, inside-edge counts, and the ejection set all
byte-for-byte, including under adversarial word budgets that force
mid-game ejections and the Fraction deep-horizon regime.  A hypothesis
fuzz plays random small graphs, stars and hubs on both engines through
the fleet player.  The kernel's ``__int128`` build
(``play_games_wide``), which replays the ejected games, must match the
scalar replay game for game, and a kernel allocation failure must
leave every output exact.  Skip-marked wholesale when the kernel
cannot load (tier-1 must pass without it).
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

from repro.core import batched_games, columnar_rounds, native
from repro.core.batched_games import (
    csr_transpose_positions,
    play_games_batched,
)
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import LazyAdjacency, play_coin_game, play_fleet
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
    fleet player: a shrunken word budget makes some games eject and
    others finish, and every per-game output must agree."""

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
        member_counts = batched.records[3]
        assert not member_counts[batched.ejected].any()


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


def _game(x, beta):
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    return dict(
        x=x, beta=beta, clip=clip, horizon=horizon,
        scale=fixed_coin_scale(beta, horizon),
    )


def _ejected_roots(graph, game):
    """The roots the int64 pass ejects when every vertex plays a game."""
    offsets, targets = graph.csr()
    n = graph.num_vertices
    info = play_fleet(
        offsets, targets, np.arange(n, dtype=np.int64),
        out_layer=np.full(n, _INF), out_count=np.zeros(n, dtype=np.int64),
        engine="compiled", **game,
    )
    return info.ejected


def _wide_matches_scalar(graph, roots, game):
    """Replay ``roots`` on the wide tier, and the games it ejects on the
    scalar engine, against a scalar replay of every root; assert they
    agree game for game and return the wide tier's info."""
    offsets, targets = graph.csr()
    n = graph.num_vertices
    adj = LazyAdjacency(offsets, targets)
    args = (game["x"], game["beta"], game["clip"], game["horizon"],
            game["scale"])
    layer_s = np.full(n, _INF)
    count_s = np.zeros(n, dtype=np.int64)
    scalar = [
        play_coin_game(adj, v, *args, layer_s, count_s, want_record=True)
        for v in roots.tolist()
    ]
    layer_w = np.full(n, _INF)
    count_w = np.zeros(n, dtype=np.int64)
    wide = native.play_games_wide(
        offsets, targets, roots, out_layer=layer_w, out_count=count_w,
        want_records=True, **game,
    )
    members, proof_u, proof_l, member_counts, proof_counts = wide.records
    member_ends = np.cumsum(member_counts)
    proof_ends = np.cumsum(proof_counts)
    ejected = set(wide.ejected.tolist())
    for i, (reads, writes, (explored, proof, __, __)) in enumerate(scalar):
        if i in ejected:
            assert wide.reads[i] == wide.writes[i] == 0
            assert wide.super_iterations[i] == wide.edges_seen[i] == 0
            assert member_counts[i] == proof_counts[i] == 0
            play_coin_game(adj, int(roots[i]), *args, layer_w, count_w)
            continue
        assert (wide.reads[i], wide.writes[i]) == (reads, writes)
        segment = slice(member_ends[i] - member_counts[i], member_ends[i])
        assert members[segment].tolist() == explored
        segment = slice(proof_ends[i] - proof_counts[i], proof_ends[i])
        assert list(zip(proof_u[segment].tolist(),
                        proof_l[segment].tolist())) == proof
    assert np.array_equal(layer_w, layer_s)
    assert np.array_equal(count_w, count_s)
    return wide


class TestWideTier:
    """The __int128 build of the kernel replays the games the int64 pass
    ejects.  Each game it finishes must equal the scalar replay exactly;
    each game it ejects comes back zeroed for the scalar replay."""

    @pytest.mark.parametrize(
        "make, beta, x, scale_limit",
        [
            (lambda: random_gnm(400, 800, seed=2), 9, 100, None),
            (lambda: random_gnm(400, 800, seed=1), 9, 100, 1 << 30),
            (lambda: preferential_attachment(150, 2, seed=11), 6, 64,
             1 << 24),
        ],
        ids=["gnm-default-budget", "gnm-shrunk", "pa-shrunk"],
    )
    def test_wide_replay_equals_scalar(
        self, make, beta, x, scale_limit, monkeypatch
    ):
        if scale_limit is not None:
            monkeypatch.setattr(batched_games, "SCALE_LIMIT", scale_limit)
        graph = make()
        game = _game(x, beta)
        roots = _ejected_roots(graph, game)
        assert roots.size
        wide = _wide_matches_scalar(graph, roots, game)
        assert not wide.ejected.size

    def test_wide_ejections_fall_through_to_the_scalar_hatch(
        self, monkeypatch
    ):
        # A wide budget between the int64 one and what every game needs:
        # some replays finish on the wide tier, the rest come back
        # zeroed, and the round still equals the dict oracle.
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        monkeypatch.setattr(batched_games, "WIDE_SCALE_LIMIT", 1 << 27)
        graph = preferential_attachment(300, 2, seed=11)
        game = _game(49, 6)
        roots = _ejected_roots(graph, game)
        wide = _wide_matches_scalar(graph, roots, game)
        assert 0 < wide.ejected.size < roots.size
        oracle = beta_partition_ampc(graph, 6, x=49, store="dict")
        compiled = beta_partition_ampc(graph, 6, x=49, engine="compiled")
        assert compiled.partition.layers == oracle.partition.layers
        assert compiled.rounds == oracle.rounds

    def test_no_wide_budget_ejects_every_game(self, monkeypatch):
        monkeypatch.setattr(batched_games, "WIDE_SCALE_LIMIT", 0)
        graph = random_gnm(400, 800, seed=2)
        game = _game(100, 9)
        roots = _ejected_roots(graph, game)
        wide = _wide_matches_scalar(graph, roots, game)
        assert wide.ejected.tolist() == list(range(roots.size))

    @pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
    def test_without_int128_every_game_is_ejected(self, tmp_path):
        # A compiler without __int128 builds the wide entry point as a
        # stub that ejects every game, so the scalar replay stays exact.
        import cffi

        from repro.core.native import _build

        lib_path = tmp_path / "wide_stub.so"
        subprocess.run(
            ["gcc", "-O2", "-fPIC", "-shared", "-U__SIZEOF_INT128__",
             str(_build.SOURCES[0]), "-o", str(lib_path)],
            check=True, capture_output=True,
        )
        ffi = cffi.FFI()
        ffi.cdef(_build.CDEF)
        lib = ffi.dlopen(str(lib_path))
        offsets, targets = path_graph(6).csr()
        roots = np.arange(6, dtype=np.int64)
        layer = np.full(6, _INF)
        count = np.zeros(6, dtype=np.int64)
        with mock.patch.object(native, "_lib", lib), \
                mock.patch.object(native, "_ffi", ffi):
            info = native.play_games_wide(
                offsets, targets, roots, out_layer=layer, out_count=count,
                want_records=True, **_game(4, 2),
            )
        assert info.ejected.tolist() == list(range(6))
        assert not info.reads.any() and not info.writes.any()
        assert not info.records[3].any() and not info.records[4].any()
        assert np.isinf(layer).all() and not count.any()

    @given(_fuzz_fleets(), st.integers(0, 80))
    @settings(deadline=None)  # example count from the hypothesis profile
    def test_wide_replay_matches_scalar_replay(self, case, wide_bits):
        # The fleet's int64 budget as in TestFleetFuzz; the wide budget
        # another 0-80 headroom bits on top, capped at WIDE_SCALE_LIMIT,
        # so some draws send replays on to the scalar hatch too.
        beta, x = case["beta"], case["x"]
        floor = x * (beta + 2) << case["headroom_bits"]
        with mock.patch.object(
            batched_games, "SCALE_LIMIT",
            min(batched_games.SCALE_LIMIT, floor),
        ), mock.patch.object(
            batched_games, "WIDE_SCALE_LIMIT",
            min(batched_games.WIDE_SCALE_LIMIT, floor << wide_bits),
        ):
            game = _game(x, beta)
            roots = _ejected_roots(case["graph"], game)
            _wide_matches_scalar(case["graph"], roots, game)


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

from repro.core import batched_games, native
from repro.core.columnar_rounds import LazyAdjacency, play_coin_game
from repro.graphs.generators import random_gnm
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer

shim = ctypes.CDLL(sys.argv[1])
assert native.available(), native.load_error()
graph = random_gnm(400, 800, seed=1)
offsets, targets = graph.csr()
n = graph.num_vertices
x, beta = 100, 9
clip = max_provable_layer(x, beta)
horizon = 4 * (clip + 2)
game = dict(x=x, beta=beta, clip=clip, horizon=horizon,
            scale=fixed_coin_scale(beta, horizon))
adj = LazyAdjacency(offsets, targets)


def play(entry, roots, fail_at, hatch=False):
    layer = np.full(n, float("inf"))
    count = np.zeros(n, dtype=np.int64)
    shim.shim_arm(fail_at)
    info = entry(offsets, targets, roots, out_layer=layer, out_count=count,
                 want_records=True, **game)
    seen, fired = shim.shim_seen(), shim.shim_fired()
    shim.shim_arm(0)
    if hatch:
        # The games the wide tier hands back go to the scalar hatch.
        for gi in info.ejected.tolist():
            info.reads[gi], info.writes[gi], _ = play_coin_game(
                adj, int(roots[gi]), x, beta, clip, horizon, game["scale"],
                layer, count)
    return info, layer, count, seen, fired


def same(got, want, fields):
    assert np.array_equal(got[1], want[1]), "out_layer"
    assert np.array_equal(got[2], want[2]), "out_count"
    for field in fields:
        assert np.array_equal(getattr(got[0], field),
                              getattr(want[0], field)), field


# The int64 pass: games after the failure replay on the numpy engine,
# and every output, records and ejection set included, stays exact.
roots = np.arange(n, dtype=np.int64)
clean = play(native.play_games_compiled, roots, 0)
total = clean[3]
assert total > 20, total
for fail_at in sorted({1, 20, total // 2, total}):
    got = play(native.play_games_compiled, roots, fail_at)
    assert got[4], fail_at
    same(got, clean, ("reads", "writes", "super_iterations", "edges_seen",
                      "ejected"))
    for part, want in zip(got[0].records, clean[0].records):
        assert np.array_equal(part, want)

# The wide pass over the int64 pass's ejections under a shrunk budget:
# the games after the failure come back ejected, for the scalar hatch.
batched_games.SCALE_LIMIT = 1 << 24
ejected = native.play_games_compiled(
    offsets, targets, roots, out_layer=np.full(n, float("inf")),
    out_count=np.zeros(n, dtype=np.int64), **game).ejected
clean = play(native.play_games_wide, ejected, 0, hatch=True)
total = clean[3]
assert total > 20, total
for fail_at in sorted({1, 20, total // 2, total}):
    got = play(native.play_games_wide, ejected, fail_at, hatch=True)
    assert got[4], fail_at
    same(got, clean, ("reads", "writes"))
print("ALLOC_FAILURE_OK")
"""


class TestAllocationFailure:
    """A realloc that fails inside the kernel (rc=1) mid-cohort: the
    games it finished stay folded exactly once, and the rest replay on
    the next engine, so every output equals an unfailed run."""

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
