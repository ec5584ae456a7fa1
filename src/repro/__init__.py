"""repro — Adaptive Massively Parallel Coloring in Sparse Graphs.

A complete, executable reproduction of Latypov, Maus, Pai & Uitto
(PODC 2024, arXiv:2402.13755): deterministic low-space AMPC algorithms for
arboricity-dependent graph coloring, together with every substrate they
stand on — AMPC/MPC simulators with resource accounting, β-partition
machinery, the sublinear coin-dropping LCA, cover-free-family color
reduction, and derandomized MPC coloring.

Quickstart::

    from repro import color_graph, union_of_random_forests

    graph = union_of_random_forests(n=1000, k=3, seed=0)   # arboricity <= 3
    result = color_graph(graph, variant="two_plus_eps", alpha=3)
    print(result.num_colors, "colors in", result.total_rounds, "AMPC rounds")

Subpackages
-----------
- :mod:`repro.graphs` — CSR graphs, generators, arboricity, validation.
- :mod:`repro.partition` — β-partitions (Definitions 3.5/3.6/3.9/3.12).
- :mod:`repro.lca` — the coin-dropping game and partial-partition LCA.
- :mod:`repro.ampc` — AMPC/MPC simulators and cost accounting.
- :mod:`repro.core` — Theorem 1.2 β-partitioning, Lemma 5.1, orientations.
- :mod:`repro.coloring` — Theorem 1.3 pipelines, Theorem 1.5, baselines.
- :mod:`repro.experiments` — the experiment harness behind benchmarks/.
"""

from repro.coloring import (
    color_graph,
    coloring_alpha_squared,
    coloring_alpha_squared_eps,
    coloring_large_alpha,
    coloring_two_plus_eps,
    deterministic_mpc_coloring,
)
from repro.core import (
    beta_partition_ampc,
    beta_partition_unknown_alpha,
    orient_by_partition,
)
from repro.graphs import (
    Graph,
    exact_arboricity,
    grid_2d,
    is_proper_coloring,
    preferential_attachment,
    random_gnm,
    random_tree,
    skewed_dependency_gadget,
    union_of_random_forests,
)
from repro.lca import PartialPartitionLCA
from repro.partition import PartialBetaPartition, natural_beta_partition

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "PartialBetaPartition",
    "PartialPartitionLCA",
    "beta_partition_ampc",
    "beta_partition_unknown_alpha",
    "color_graph",
    "coloring_alpha_squared",
    "coloring_alpha_squared_eps",
    "coloring_large_alpha",
    "coloring_two_plus_eps",
    "deterministic_mpc_coloring",
    "exact_arboricity",
    "grid_2d",
    "is_proper_coloring",
    "natural_beta_partition",
    "orient_by_partition",
    "preferential_attachment",
    "random_gnm",
    "random_tree",
    "skewed_dependency_gadget",
    "union_of_random_forests",
    "__version__",
]
