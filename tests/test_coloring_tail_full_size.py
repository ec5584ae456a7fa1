"""Full-size identity of the coloring tail (``slow``-marked).

``color_graph`` picks α with the compiled k-core peel and, by default,
colors and recolors with the compiled kernel's C loops.  On full-size
shapes that must reproduce, color for color, a run with the reference
paths forced in: the batched engine's numpy tail, the ordered list peel
(``degeneracy_order``) and the vertex-by-vertex recolor walk.  The
compiled Linial and KW loops color each layer in place on the whole
graph's CSR, the numpy tail on the layer's induced subgraph; on the
200k-vertex path the single layer is the whole graph.  The
compiled peel must also match the list peel on a 200k-vertex path.  A
compiled run whose shrunk coin budget sends games to the interpreter
must give the partition, the per-round reads and writes, and the
colours of a default-budget run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.coloring import pipeline, recolor
from repro.coloring.pipeline import color_graph, coloring_two_plus_eps
from repro.core import batched_games, columnar_rounds, native
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.arboricity import degeneracy, degeneracy_order
from repro.graphs.generators import path_graph, preferential_attachment, random_gnm

pytestmark = pytest.mark.slow


def _list_peel_degeneracy(graph):
    return max(degeneracy_order(graph)[1], default=0)


def _walk_by_class_signature(graph, order, layer_sorted, init_sorted, beta, pick):
    return np.array(
        recolor._recolor_walk(graph, order.tolist(), beta, pick), dtype=np.int64
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_gnm(100_000, 200_000, seed=1),
        lambda: preferential_attachment(50_000, 3, seed=1),
        # One layer spanning the whole graph: the compiled tail colors it
        # in place, the batched tail on its induced copy.
        lambda: path_graph(200_000),
    ],
    ids=["gnm100k", "pa50k", "path200k"],
)
def test_colors_match_reference_paths(make, monkeypatch):
    graph = make()
    fast = color_graph(graph)
    monkeypatch.setattr(pipeline, "degeneracy", _list_peel_degeneracy)
    monkeypatch.setattr(recolor, "_recolor_by_class", _walk_by_class_signature)
    reference = color_graph(graph, engine="batched")
    assert fast.variant == "two_plus_eps"  # the variant that recolors
    assert fast.alpha == reference.alpha
    np.testing.assert_array_equal(fast.colors, reference.colors)
    assert fast.num_colors == reference.num_colors
    assert fast.partition_rounds == reference.partition_rounds
    assert fast.coloring_rounds == reference.coloring_rounds
    assert fast.num_layers == reference.num_layers


def test_path_degeneracy_matches_list_peel():
    graph = path_graph(200_000)
    assert degeneracy(graph) == _list_peel_degeneracy(graph) == 1


@pytest.mark.skipif(not native.available(), reason="compiled kernel unavailable")
def test_interpreter_replays_match_the_default_budget_on_gnm100k(monkeypatch):
    # The hub games of this graph fit int64 coins, so a 2^24 budget
    # makes some of them eject, and the interpreter replays them.
    graph = random_gnm(100_000, 200_000, seed=1)
    interpreted = []
    original = columnar_rounds.play_coin_game

    def counting(*args, **kwargs):
        interpreted[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(columnar_rounds, "play_coin_game", counting)

    def run():
        interpreted.append(0)
        partition = beta_partition_ampc(graph, 9, x=100, engine="compiled")
        colored = coloring_two_plus_eps(graph, 3, x=100, engine="compiled")
        rounds = [
            (r.total_reads, r.total_writes)
            for r in partition.simulator.stats.rounds
        ]
        return partition, rounds, colored

    default, default_rounds, default_colored = run()
    monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
    shrunk, shrunk_rounds, shrunk_colored = run()
    assert 0 <= interpreted[0] < interpreted[1]
    assert shrunk.partition.layers == default.partition.layers
    assert shrunk.rounds == default.rounds
    assert shrunk_rounds == default_rounds
    np.testing.assert_array_equal(shrunk_colored.colors, default_colored.colors)
    assert shrunk_colored.num_colors == default_colored.num_colors
    assert shrunk_colored.num_layers == default_colored.num_layers
