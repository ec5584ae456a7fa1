"""Coloring algorithms: Theorem 1.3 pipelines, Theorem 1.5, baselines."""

from repro.coloring.arb_linial import (
    ArbLinialResult,
    ampc_rounds_for_simulation,
    arb_linial_coloring,
    linial_undirected_coloring,
)
from repro.coloring.cover_free import CoverFreeFamily, choose_family
from repro.coloring.derandomized_mpc import (
    MPCColoringResult,
    deterministic_mpc_coloring,
)
from repro.coloring.greedy import (
    degeneracy_coloring,
    greedy_coloring,
    orientation_greedy_coloring,
)
from repro.coloring.kuhn_wattenhofer import KWResult, kw_color_reduction
from repro.coloring.mis import (
    is_independent_set,
    is_maximal_independent_set,
    mis_from_coloring,
)
from repro.coloring.pipeline import (
    PipelineResult,
    color_graph,
    coloring_alpha_squared,
    coloring_alpha_squared_eps,
    coloring_large_alpha,
    coloring_two_plus_eps,
)
from repro.coloring.rake_compress import (
    RakeCompressResult,
    rake_compress,
    three_color_forest,
)
from repro.coloring.recolor import (
    RecolorResult,
    greedy_recolor_by_layers,
    recoloring_ampc_rounds,
)

__all__ = [
    "ArbLinialResult",
    "CoverFreeFamily",
    "KWResult",
    "MPCColoringResult",
    "PipelineResult",
    "RakeCompressResult",
    "RecolorResult",
    "ampc_rounds_for_simulation",
    "arb_linial_coloring",
    "choose_family",
    "color_graph",
    "coloring_alpha_squared",
    "coloring_alpha_squared_eps",
    "coloring_large_alpha",
    "coloring_two_plus_eps",
    "degeneracy_coloring",
    "deterministic_mpc_coloring",
    "greedy_coloring",
    "greedy_recolor_by_layers",
    "is_independent_set",
    "is_maximal_independent_set",
    "kw_color_reduction",
    "linial_undirected_coloring",
    "mis_from_coloring",
    "orientation_greedy_coloring",
    "rake_compress",
    "recoloring_ampc_rounds",
    "three_color_forest",
]
