"""A2 — ablation: coin-forwarding horizon sensitivity.

Algorithm 1 forwards coins for |V| iterations; our default horizon is a
small multiple of the Lemma 4.2 wave depth ceil(log_{β+1} x) (see
:mod:`repro.lca.coin_game`).  This ablation runs the game on deep
(β+1)-ary trees with horizons from 1 to the strict |V|, measuring whether
the root's layer is certified and the query cost — validating that (a)
too-short horizons break the progress guarantee, (b) the default matches
strict mode at a fraction of the cost.
"""

from __future__ import annotations

from repro.graphs.generators import complete_ary_tree
from repro.lca.coin_game import CoinDroppingGame, max_provable_layer
from repro.lca.oracle import GraphOracle
from repro.partition.induced import natural_beta_partition

__all__ = ["run_horizon_ablation"]


def run_horizon_ablation(beta: int = 3, depth: int = 3) -> list[dict]:
    """One row per horizon setting; root of a depth-d (β+1)-ary tree."""
    graph = complete_ary_tree(beta + 1, depth)
    natural = natural_beta_partition(graph, beta)
    x = (beta + 1) ** depth  # deep enough to certify the root
    wave = max_provable_layer(x, beta) + 1
    horizons = {
        "1": 1,
        "2": 2,
        f"wave={wave}": wave,
        f"default={4 * (wave + 1)}": None,  # library default
        f"strict=|V|={graph.num_vertices}": graph.num_vertices,
    }
    rows = []
    for label, horizon in horizons.items():
        oracle = GraphOracle(graph)
        game = CoinDroppingGame(
            oracle, 0, x=x, beta=beta, forward_iterations=horizon
        )
        result = game.run()
        rows.append(
            {
                "horizon": label,
                "certified": result.layer == natural.layer(0),
                "layer": "inf" if result.layer == float("inf") else int(result.layer),
                "true_layer": int(natural.layer(0)),
                "queries": result.queries,
                "super_iters": result.super_iterations,
                "|S|": len(result.explored),
            }
        )
    return rows
