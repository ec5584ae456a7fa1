"""Graph substrate: CSR graphs, generators, arboricity, validation.

The core is array-native: :class:`Graph` builds from numpy edge arrays
(:meth:`Graph.from_arrays`), exposes bulk accessors
(:meth:`Graph.edge_array`, :meth:`Graph.neighbors_of`), and hands out only
read-only views of its frozen CSR arrays.  The seed pure-Python builder
survives in :mod:`repro.graphs.reference` as the equivalence-test oracle.
"""

from repro.graphs.arboricity import (
    core_numbers,
    degeneracy,
    degeneracy_order,
    density_lower_bound,
    exact_arboricity,
    forest_partition,
)
from repro.graphs.generators import (
    complete_ary_tree,
    complete_graph,
    cycle_graph,
    grid_2d,
    hypercube,
    path_graph,
    preferential_attachment,
    random_forest,
    random_gnm,
    random_tree,
    skewed_dependency_gadget,
    star_graph,
    union_of_random_forests,
)
from repro.graphs.graph import Graph
from repro.graphs.io import (
    graph_from_json,
    graph_to_json,
    read_edge_list,
    write_edge_list,
)
from repro.graphs.validation import (
    count_colors,
    is_forest,
    is_proper_coloring,
)

__all__ = [
    "Graph",
    "complete_ary_tree",
    "complete_graph",
    "core_numbers",
    "count_colors",
    "cycle_graph",
    "degeneracy",
    "degeneracy_order",
    "density_lower_bound",
    "exact_arboricity",
    "forest_partition",
    "graph_from_json",
    "graph_to_json",
    "grid_2d",
    "hypercube",
    "is_forest",
    "is_proper_coloring",
    "path_graph",
    "preferential_attachment",
    "random_forest",
    "random_gnm",
    "random_tree",
    "read_edge_list",
    "skewed_dependency_gadget",
    "star_graph",
    "union_of_random_forests",
    "write_edge_list",
]
