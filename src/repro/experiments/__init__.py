"""Experiment harness: one module per paper claim, indexed by ``ALL_EXPERIMENTS``."""

from repro.experiments.a1_forest_coloring import run_forest_coloring
from repro.experiments.a2_horizon_ablation import run_horizon_ablation
from repro.experiments.a3_batch_bits import run_batch_bits

from repro.experiments.common import format_table, format_value
from repro.experiments.e1_lca_quality import run_lca_quality
from repro.experiments.e2_game_bounds import run_game_bounds
from repro.experiments.e3_theorem12 import run_theorem12, run_theorem12_deep
from repro.experiments.e4_coloring_eps import run_coloring_eps
from repro.experiments.e5_coloring_quadratic import run_coloring_quadratic
from repro.experiments.e6_coloring_optimal import run_coloring_optimal
from repro.experiments.e7_theorem15 import run_theorem15
from repro.experiments.e8_guessing import run_guessing
from repro.experiments.e9_constant_round import run_constant_round
from repro.experiments.e10_vs_delta import run_vs_delta
from repro.experiments.e11_substrate import run_substrate
from repro.experiments.e12_scaling import run_scaling
from repro.experiments.f1_layer_histogram import run_layer_histogram
from repro.experiments.f2_exploration_ablation import run_exploration_ablation

ALL_EXPERIMENTS = {
    "E1 Lemma 4.7 (LCA quality)": run_lca_quality,
    "E2 Lemma 4.6 (game bounds)": run_game_bounds,
    "E3 Theorem 1.2 (beta-partition)": run_theorem12,
    "E3b Theorem 1.2 (deep trees)": run_theorem12_deep,
    "E4 Theorem 1.3(1) (alpha^{2+eps})": run_coloring_eps,
    "E5 Theorem 1.3(2) (alpha^2)": run_coloring_quadratic,
    "E6 Theorem 1.3(3) ((2+eps)alpha+1)": run_coloring_optimal,
    "E7 Theorem 1.5 (derandomized MPC)": run_theorem15,
    "E8 Lemma 5.1 (unknown alpha)": run_guessing,
    "E9 Corollary 1.4 (constant rounds)": run_constant_round,
    "E10 vs (Delta+1) baselines": run_vs_delta,
    "E11 substrate (arboricity)": run_substrate,
    "E12 harness scaling (wall-clock)": run_scaling,
    "F1 Figure 1 (layer histogram)": run_layer_histogram,
    "F2 Figure 2b (exploration ablation)": run_exploration_ablation,
    "A1 ablation (forest 3-coloring)": run_forest_coloring,
    "A2 ablation (forwarding horizon)": run_horizon_ablation,
    "A3 ablation (derandomization batch)": run_batch_bits,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "format_table",
    "format_value",
    "run_coloring_eps",
    "run_coloring_optimal",
    "run_coloring_quadratic",
    "run_batch_bits",
    "run_constant_round",
    "run_exploration_ablation",
    "run_forest_coloring",
    "run_game_bounds",
    "run_guessing",
    "run_horizon_ablation",
    "run_layer_histogram",
    "run_lca_quality",
    "run_scaling",
    "run_substrate",
    "run_theorem12",
    "run_theorem12_deep",
    "run_theorem15",
    "run_vs_delta",
]
