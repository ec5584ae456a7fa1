"""Metric names, units and directions, and the per-layer aggregation.

``END_TO_END`` and ``PER_LAYER`` are the benchmark's metric catalogue;
``BENCHMARK.json`` at the repository root lists the same names, units
and directions (a test keeps the two in step).  Per-layer metrics are
computed per traced call by :func:`call_layer_metrics` from the call's
spans (:mod:`e2ebench.tracing`) and from the counters the library's own
result objects carry, then averaged over the traced calls.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from e2ebench.tracing import Recorder, dispatch_split, self_times

__all__ = ["END_TO_END", "PER_LAYER", "call_layer_metrics", "mean_metrics"]

# (name, unit, better, bound): bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# The bounds follow the spread between runs on different seeds: call
# times on a shared 2-core host swing by a fifth from call to call, and
# peak memory and the counts depend on which graphs the seed draws.
#
# wall_s: mean time of one call over the run's calls;
# setup_s: import + kernel load + the median set-up (graphs, warm-up);
# peak_rss_mb: peak resident memory of the benchmark process;
# colors_used, ampc_rounds, partition_layers: means over the run's graphs;
# passed_frac: share of calls whose outputs passed every check.
END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
    ("colors_used", "count", "lower", 0.15),
    ("ampc_rounds", "count", "lower", 0.15),
    ("partition_layers", "count", "lower", 0.15),
    ("passed_frac", "ratio", "higher", 0.01),
)

# (name, unit, better).  Counts the library reports per call are
# averaged over the traced calls, like the span times.
PER_LAYER = (
    ("graphs.degeneracy_s", "s", "lower"),
    ("graphs.induced_subgraph_s", "s", "lower"),
    ("graphs.induced_subgraph_calls", "count", "lower"),
    ("partition.s", "s", "lower"),
    ("partition.self_s", "s", "lower"),
    ("partition.lca_rounds", "count", "lower"),
    ("partition.unlayered_after_r1", "count", "lower"),
    ("simulator.round_self_s", "s", "lower"),
    ("simulator.total_reads", "count", "lower"),
    ("simulator.max_machine_comm", "words", "lower"),
    ("rounds.residual_csr_s", "s", "lower"),
    ("rounds.lca_round_s", "s", "lower"),
    ("rounds.escape_games", "count", "lower"),
    ("rounds.escape_s", "s", "lower"),
    ("rounds.game_cache_hits", "count", "higher"),
    ("engine.explore_s", "s", "lower"),
    ("engine.forward_s", "s", "lower"),
    ("engine.fold_s", "s", "lower"),
    ("engine.native_s", "s", "lower"),
    ("engine.cache_s", "s", "lower"),
    ("engine.measured_rounds", "count", "higher"),
    ("engine.pooled_rounds", "count", "lower"),
    ("engine.replayed_waves", "count", "higher"),
    ("engine.fresh_waves", "count", "lower"),
    ("engine.cone_fraction", "ratio", "lower"),
    ("pool.run_games_s", "s", "lower"),
    ("pool.run_games_calls", "count", "lower"),
    ("pool.retries", "count", "lower"),
    ("pool.respawns", "count", "lower"),
    ("pool.deadline_kills", "count", "lower"),
    ("pool.checksum_rejects", "count", "lower"),
    ("pool.degraded_shards", "count", "lower"),
    ("fabric.run_round_s", "s", "lower"),
    ("fabric.serve_s", "s", "lower"),
    ("fabric.install_s", "s", "lower"),
    ("fabric.compact_s", "s", "lower"),
    ("fabric.play_s", "s", "lower"),
    ("fabric.shard_wall_s", "s", "lower"),
    ("fabric.messages", "count", "lower"),
    ("fabric.words", "words", "lower"),
    ("fabric.subrounds", "count", "lower"),
    ("fabric.row_requests", "count", "lower"),
    ("fabric.ghost_cache_hits", "count", "higher"),
    ("fabric.ghost_hit_ratio", "ratio", "higher"),
    ("fabric.max_held_words", "words", "lower"),
    ("fabric.ejected_games", "count", "lower"),
    ("orientation.s", "s", "lower"),
    ("linial.s", "s", "lower"),
    ("linial.calls", "count", "lower"),
    ("linial.local_rounds", "count", "lower"),
    ("arb_linial.s", "s", "lower"),
    ("arb_linial.local_rounds", "count", "lower"),
    ("kw.s", "s", "lower"),
    ("kw.local_rounds", "count", "lower"),
    ("recolor.s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("validate.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Engine phases the lca rounds accumulate into the ``phases=`` dict.
_PHASES = ("explore", "forward", "fold", "native", "cache")
# Fabric communication counters summed over an outcome's lca rounds.
_FABRIC_SUMS = (
    "serve_s", "install_s", "compact_s", "play_s", "shard_wall_s",
    "messages", "words", "subrounds", "row_requests", "ghost_cache_hits",
    "ejected_games",
)
_RECOVERY = (
    "retries", "respawns", "deadline_kills", "checksum_rejects",
    "degraded_shards",
)


def call_layer_metrics(rec: Recorder, outcome) -> dict[str, float]:
    """Per-layer metrics of one traced call.

    ``rec`` holds the call's spans (the root span first) and the counters
    its wrappers recorded; ``outcome`` is the call's
    :class:`~repro.core.beta_partition_ampc.BetaPartitionOutcome`.
    ``trace.overhead_s`` is filled in by the caller, which knows the
    untraced time of the same input.
    """
    from repro.core.batched_games import replay_cone_fraction

    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for span, self_s in zip(rec.spans, self_times(rec.spans)):
        total[span.name] += span.end - span.start
        own[span.name] += self_s
        calls[span.name] += 1
    stats = outcome.simulator.stats
    reuse = Counter()
    for entry in outcome.round_reuse:
        reuse.update({k: v for k, v in entry.items() if k != "cone_fraction"})
    comm = Counter()
    for entry in outcome.round_comm:
        comm.update({k: entry.get(k, 0) for k in _FABRIC_SUMS})
    measured, pooled = dispatch_split(rec.spans)
    m = {
        "graphs.degeneracy_s": total["graphs.degeneracy"],
        "graphs.induced_subgraph_s": total["graphs.induced_subgraph"],
        "graphs.induced_subgraph_calls": calls["graphs.induced_subgraph"],
        "partition.s": total["partition"],
        "partition.self_s": own["partition"],
        "partition.lca_rounds": (
            len(outcome.unlayered_per_round) if outcome.mode == "lca" else 0
        ),
        "partition.unlayered_after_r1": (
            outcome.unlayered_per_round[1]
            if len(outcome.unlayered_per_round) > 1 else 0
        ),
        "simulator.round_self_s": own["simulator.round"],
        "simulator.total_reads": sum(r.total_reads for r in stats.rounds),
        "simulator.max_machine_comm": stats.max_machine_communication,
        "rounds.residual_csr_s": total["rounds.residual_csr"],
        "rounds.lca_round_s": total["rounds.lca_round"],
        "rounds.escape_games": calls["rounds.escape"],
        "rounds.escape_s": total["rounds.escape"],
        "rounds.game_cache_hits": outcome.game_cache_hits,
        "engine.measured_rounds": measured,
        "engine.pooled_rounds": pooled,
        "engine.replayed_waves": reuse["replayed_waves"],
        "engine.fresh_waves": reuse["fresh_waves"],
        "engine.cone_fraction": replay_cone_fraction(reuse) or 0.0,
        "pool.run_games_s": total["pool.run_games"],
        "pool.run_games_calls": calls["pool.run_games"],
        "fabric.run_round_s": total["fabric.run_round"],
        "fabric.ghost_hit_ratio": (
            comm["ghost_cache_hits"] / comm["row_requests"]
            if comm["row_requests"] else 0.0
        ),
        "fabric.max_held_words": outcome.max_held_words,
        "orientation.s": total["orientation"],
        "linial.s": total["linial"],
        "linial.calls": calls["linial"],
        "linial.local_rounds": rec.counters.get("linial.local_rounds", 0),
        "arb_linial.s": total["arb_linial"],
        "arb_linial.local_rounds": rec.counters.get("arb_linial.local_rounds", 0),
        "kw.s": total["kw"],
        "kw.local_rounds": rec.counters.get("kw.local_rounds", 0),
        "recolor.s": total["recolor"],
        "pipeline.self_s": own["pipeline"],
        "validate.s": total["validate"],
    }
    for phase in _PHASES:
        m[f"engine.{phase}_s"] = rec.phases.get(phase, 0.0)
    for key in _RECOVERY:
        m[f"pool.{key}"] = outcome.round_recovery.get(key, 0)
    for key in _FABRIC_SUMS:
        m[f"fabric.{key}"] = comm[key]
    return m


def mean_metrics(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Average each metric over the calls (empty when there are none)."""
    if not per_call:
        return {}
    return {
        name: sum(float(m[name]) for m in per_call) / len(per_call)
        for name in per_call[0]
    }
