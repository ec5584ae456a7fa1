"""Full-size identity of the array coloring tail (``slow``-marked).

``color_graph`` picks α with the array degeneracy peel and recolors with
the class-at-a-time pass.  On full-size shapes both must reproduce, color
for color, a run with the reference paths forced in: the ordered list
peel (``degeneracy_order``) and the vertex-by-vertex recolor walk.  The
array peel must also match the list peel on a 200k-vertex path, its
chain-like worst case (one scalar worklist step per vertex).  The
kernel's ``__int128`` replay tier must give the partition, the per-round
reads and writes, and the colours of a run whose ejected games all
replay on the scalar engine.
"""

from __future__ import annotations

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
    return recolor._recolor_walk(graph, order.tolist(), beta, pick)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_gnm(100_000, 200_000, seed=1),
        lambda: preferential_attachment(50_000, 3, seed=1),
    ],
    ids=["gnm100k", "pa50k"],
)
def test_colors_match_reference_paths(make, monkeypatch):
    graph = make()
    fast = color_graph(graph)
    monkeypatch.setattr(pipeline, "degeneracy", _list_peel_degeneracy)
    monkeypatch.setattr(recolor, "_recolor_by_class", _walk_by_class_signature)
    reference = color_graph(graph)
    assert fast.variant == "two_plus_eps"  # the variant that recolors
    assert fast.alpha == reference.alpha
    assert fast.colors == reference.colors
    assert fast.num_colors == reference.num_colors
    assert fast.partition_rounds == reference.partition_rounds
    assert fast.coloring_rounds == reference.coloring_rounds
    assert fast.num_layers == reference.num_layers


def test_path_degeneracy_matches_list_peel():
    graph = path_graph(200_000)
    assert degeneracy(graph) == _list_peel_degeneracy(graph) == 1


@pytest.mark.skipif(not native.available(), reason="compiled kernel unavailable")
def test_wide_tier_matches_the_scalar_hatch_on_gnm100k(monkeypatch):
    # WIDE_SCALE_LIMIT = 0 gives the wide tier no budget, so every game
    # the int64 pass ejects replays on the scalar engine instead.
    graph = random_gnm(100_000, 200_000, seed=1)
    scalar_replays = []
    original = columnar_rounds.play_coin_game

    def counting(*args, **kwargs):
        scalar_replays[-1] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(columnar_rounds, "play_coin_game", counting)

    def run():
        scalar_replays.append(0)
        partition = beta_partition_ampc(graph, 9, x=100, engine="compiled")
        colored = coloring_two_plus_eps(graph, 3, x=100, engine="compiled")
        rounds = [
            (r.total_reads, r.total_writes)
            for r in partition.simulator.stats.rounds
        ]
        return partition, rounds, colored

    wide, wide_rounds, wide_colored = run()
    monkeypatch.setattr(batched_games, "WIDE_SCALE_LIMIT", 0)
    forced, forced_rounds, forced_colored = run()
    assert 0 <= scalar_replays[0] < scalar_replays[1]
    assert wide.partition.layers == forced.partition.layers
    assert wide.rounds == forced.rounds
    assert wide_rounds == forced_rounds
    assert wide_colored.colors == forced_colored.colors
    assert wide_colored.num_colors == forced_colored.num_colors
    assert wide_colored.num_layers == forced_colored.num_layers
