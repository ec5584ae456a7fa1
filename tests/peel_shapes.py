"""Graph shapes for the k-core peel oracles.

``peel_shapes`` draws the shapes the degeneracy peels are held to
each other on: random gnm, paths, cycles, stars, grids, trees, cliques,
cherries on a cycle, edgeless graphs (n = 0 included), and disjoint
unions of up to four of them.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graphs.generators import (
    complete_ary_tree,
    complete_graph,
    cycle_graph,
    grid_2d,
    path_graph,
    random_gnm,
    random_tree,
    star_graph,
)
from repro.graphs.graph import Graph


def disjoint_union(*graphs: Graph) -> Graph:
    """The graphs side by side, vertex ids shifted block by block."""
    shift = 0
    blocks = []
    for g in graphs:
        blocks.append(g.edge_array() + shift)
        shift += g.num_vertices
    return Graph.from_arrays(shift, np.concatenate(blocks))


def _gnm_from_seed(seed: int) -> Graph:
    n = 2 + seed % 40
    m = min((seed // 7) % (3 * n), n * (n - 1) // 2)
    return random_gnm(n, m, seed=seed)


def cherries_on_a_cycle(c: int) -> Graph:
    """A c-cycle whose every vertex carries a pendant "cherry": a vertex
    with two leaves.  Peeling at k=1 drops 2c leaves, each stem losing
    two of them; a peel that lost count of a stem's degree would wrongly
    strip the cycle (degeneracy 2) as well."""
    w = np.arange(c, dtype=np.int64)
    stems, leaves_a, leaves_b = w + c, w + 2 * c, w + 3 * c
    edges = np.concatenate((
        np.column_stack((w, (w + 1) % c)),
        np.column_stack((w, stems)),
        np.column_stack((stems, leaves_a)),
        np.column_stack((stems, leaves_b)),
    ))
    return Graph.from_arrays(4 * c, edges)


# Shapes for the peel oracles: a few hundred vertices, with wide levels
# (stars, tree leaves, dense gnm) and long chains of them (paths, cycles).
_seeds = st.integers(min_value=0, max_value=2**31)
_base_shapes = st.one_of(
    _seeds.map(_gnm_from_seed),
    st.builds(random_gnm, st.integers(64, 300), st.integers(0, 900), _seeds),
    st.builds(lambda n: Graph.from_edges(n, []), st.integers(0, 100)),
    st.builds(path_graph, st.integers(0, 300)),
    st.builds(cycle_graph, st.integers(3, 300)),
    st.builds(star_graph, st.integers(1, 300)),
    st.builds(grid_2d, st.integers(1, 20), st.integers(1, 20)),
    st.builds(complete_ary_tree, st.integers(1, 3), st.integers(0, 7)),
    st.builds(random_tree, st.integers(1, 300), _seeds),
    st.builds(complete_graph, st.integers(1, 70)),
    st.builds(cherries_on_a_cycle, st.integers(3, 60)),
)
peel_shapes = st.one_of(
    _base_shapes,
    st.lists(_base_shapes, min_size=2, max_size=4).map(
        lambda gs: disjoint_union(*gs)
    ),
)
