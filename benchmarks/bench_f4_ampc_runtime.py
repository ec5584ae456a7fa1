"""F4 — AMPC runtime throughput: columnar stores vs the dict-backed oracle.

Measures ``beta_partition_ampc`` end-to-end on both execution fabrics at
the scale the ROADMAP names as the dict path's breaking point (n = 10⁵),
in the two regimes of Theorem 1.2:

1. **lca** — the coin-dropping-game rounds (β = (2+ε)α on a sparse
   ``random_gnm``, the default pipeline configuration).  The headline
   columnar leg pins the lockstep batched numpy engine
   (:mod:`repro.core.batched_games`, the compiled kernel's fallback and
   oracle); the per-game scalar interpreter is timed alongside it
   (``columnar_scalar_s``) as the engine baseline, and — whenever the
   fused C kernel (the library default) can load — so is
   ``engine="compiled"`` (``compiled_s``, with
   ``engine_speedup_compiled`` = batched/compiled of the same run).
2. **peel** — the Barenboim-Elkin fallback, where every round is a pure
   degree-mask array kernel and the speedup is the full dict-overhead
   factor.

All fabrics and engines produce *identical* partitions, round counts,
and per-round statistics (asserted here on the quick config and by the
equivalence tests); the benchmark's job is only to time them.  The lca
regime is additionally swept over ``workers`` (process-pool machine
sharding; ``columnar_workers_s`` in the JSON records the per-worker
scaling — informative only on multi-core hosts, but every sweep point
must still reproduce the serial partition exactly).

Run as a script to (re)generate the tracked ``BENCH_ampc.json``::

    PYTHONPATH=src python benchmarks/bench_f4_ampc_runtime.py \
        --phases --out BENCH_ampc.json

or with ``--quick`` for a CI-sized configuration.  ``--phases`` records
the lca rounds' per-phase wall clock (explore / forward / fold).
``--check-regression BENCH_ampc.json`` compares the current run against
the tracked baseline and fails (exit 2) if the lca columnar time
regressed by more than 25% or if any single phase regressed by more
than 40% — both normalized by the dict-oracle time of the same run, so
those guards measure the code path, not the CI hardware — or if pool
dispatch at any swept worker count exceeds the *same run's* serial
columnar time by more than its overhead budget (1.25x at workers=2; a
within-run ratio, so it needs no baseline or normalization).  The
worker-overhead guard reads the recorded ``host_cpus``: on a 1-core
host the pool forks no more processes than the core count, so every
point — workers=4 included — is held to the flat
:data:`MAX_WORKER_OVERHEAD_SINGLE_CORE` dispatch budget (the old
superlinear 11.3/31.4/102.6 s sweep fails it immediately; pure
dispatch overhead passes with room).  When the compiled leg ran, the
guard also requires the
same-run ``engine_speedup_compiled`` to stay at or above
:data:`MIN_COMPILED_SPEEDUP` on the quick config — a within-run ratio
that catches the fused kernel silently losing its edge (or silently
dropping out while the kernel still loads).

The lca block also times one ``transport="message"`` leg (the
PR 6 sharded fabric at :data:`MESSAGE_SHARDS` shards) and records its
communication/memory counters — messages, words, sub-rounds, max
per-shard words, and the peak *real* held-row words — next to a
configured per-shard S budget (:data:`MESSAGE_HELD_BUDGET_FACTOR` x
the graph's CSR words).  The leg asserts the sharded partition equals
the shared-memory one, and ``--check-regression`` additionally fails
when the measured max per-shard held words exceeds that budget: the
counters are deterministic for a fixed config, so this guard needs no
baseline or hardware normalization either.

``--guard-worker-monotone`` turns the worker sweep into a scaling
guard for multi-core runners: each successive swept worker count must
not run slower than the previous one by more than
:data:`MONOTONE_SLACK`.  Sweep points asking for more workers than the
host has cores are waived with a logged notice (in particular the
whole guard soft-fails on a 1-core runner), so the flag is safe to set
unconditionally in CI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.ampc import faults
from repro.ampc.engine_config import EngineConfig
from repro.ampc.faults import FaultPlan
from repro.ampc.pool import close_shared_pools
from repro.core import native
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import random_gnm

FULL_CONFIG = {"n": 100_000, "m": 200_000, "seed": 20260730, "beta": 9}
QUICK_CONFIG = {"n": 8_000, "m": 16_000, "seed": 20260730, "beta": 9}
FULL_WORKER_SWEEP = (1, 2, 4)
# workers={2,4} ride in the quick sweep too (CI's REPRO_WORKERS matrix
# leg), so a multi-worker pool regression cannot return silently.
QUICK_WORKER_SWEEP = (1, 2, 4)

# A quick-config lca run may regress this much against the tracked
# baseline (after dict-normalization) before --check-regression fails.
MAX_REGRESSION = 0.25
# Any single lca phase (explore / forward / fold) may regress
# this much (dict-normalized) before the guard fails; phases below
# MIN_PHASE_SHARE of the columnar total — or below MIN_PHASE_SECONDS
# of absolute wall clock, where min-of-3 timing cannot resolve a 40%
# delta from scheduler noise — are noise and not guarded.
MAX_PHASE_REGRESSION = 0.40
MIN_PHASE_SHARE = 0.05
MIN_PHASE_SECONDS = 0.1
# Pool dispatch on an oversubscribed host (CI runners, 1-core boxes) may
# cost at most this factor over the serial columnar run before the
# worker guard fails.  workers=2 is the acceptance bar (dispatch cost
# must stay near-serial even with zero spare cores); higher counts get
# headroom for pure time-slicing overhead on small hosts — the PR 4
# regression pattern (time growing linearly with the worker count)
# lands past both.
MAX_WORKER_OVERHEAD = {"2": 1.25}
MAX_WORKER_OVERHEAD_DEFAULT = 1.6
# On a 1-core host the executor never forks more processes than cores
# (the pool caps it), so any requested worker count must cost only the
# fixed dispatch overhead: every sweep point is held to this flat
# budget instead of being waived.  The old superlinear regression
# (11.3/31.4/102.6 s at workers 1/2/4 — oversubscribed CPU-bound
# workers multiplying kernel page-fault overhead) fails this bar by 5x.
MAX_WORKER_OVERHEAD_SINGLE_CORE = 2.0
# The message-transport leg: shard count, and the per-shard S budget
# for *held* residual rows (owned slice + pinned ghost fringe), as a
# multiple of the graph's full CSR words.  Deep default-x balls pin
# wide ghost fringes, so the per-shard held peak can exceed one CSR
# copy (~3.5x on the quick config); 4.5x gives the guard headroom
# without letting the fringe grow unbounded.
MESSAGE_SHARDS = 4
MESSAGE_HELD_BUDGET_FACTOR = 4.5
# The message fabric runs the compiled engine inside its shards (when
# the kernel loads), so the quick-config transport tax over the bare
# compiled run is a within-run ratio the guard can pin.  Before the
# fabric's seeded exchanges / speculative prefetch / pooled shard
# chains, quick message_s tracked 9.91 s against a 0.102 s compiled
# run (~97x); the columnar row plane (slab serving, incremental local
# CSR) brought the tax under 8x, which this
# factor pins without a baseline or hardware normalization.
MAX_MESSAGE_OVER_COMPILED = 8.0
# Each swept worker count may be at most this factor slower than the
# previous one before --guard-worker-monotone fails (non-increasing
# up to timing noise and pool dispatch overhead).
MONOTONE_SLACK = 1.25
# When the fused C kernel loads, the quick-config compiled run must
# beat the same run's batched time by at least this factor — a
# within-run ratio, so no baseline or hardware normalization applies.
# The tracked full-size margin is far larger; 2x keeps headroom for
# the quick config's fixed per-round overhead (graph setup, folding).
MIN_COMPILED_SPEEDUP = 2.0
# The round supervisor's zero-fault bookkeeping (deadline polling,
# result checksum verification) may cost at most this share of the
# pooled run's wall clock — a within-run ratio, so no baseline or
# hardware normalization applies.
MAX_RECOVERY_OVERHEAD = 0.03


# Legs that name no engine (the headline columnar leg, the worker sweep,
# the degraded leg) pin the batched numpy engine rather than the library
# default: the compiled leg is measured against it, and the tracked
# BENCH_ampc.json phases and ratios were recorded on it.
def _time_run(graph, beta: int, mode: str, store: str, workers: int = 1,
              engine="batched", phases=None, **kwargs):
    start = time.perf_counter()
    outcome = beta_partition_ampc(
        graph, beta, mode=mode, store=store, workers=workers, engine=engine,
        phases=phases, **kwargs,
    )
    elapsed = time.perf_counter() - start
    return elapsed, outcome


def bench_mode(
    graph,
    beta: int,
    mode: str,
    check_equivalence: bool,
    worker_sweep: tuple[int, ...] = (),
    phases: bool = False,
    repeats: int = 1,
    chaos: bool = False,
) -> dict:
    """Columnar vs dict wall-clock for one Theorem 1.2 regime.

    ``worker_sweep`` additionally times the columnar path at each worker
    count (per-machine coin-game sharding over the process pool) and
    verifies every sweep point reproduces the serial partition exactly.
    ``repeats`` takes the best of that many timings for every measured
    configuration — quick configs are noisy enough that the regression
    guard needs it, and the min must apply symmetrically or the derived
    ratios (speedup, engine_speedup, worker scaling) would be biased.
    """
    want_phases = phases and mode == "lca"
    phase_times: dict | None = {} if want_phases else None
    columnar_s, columnar = _time_run(
        graph, beta, mode, "columnar", phases=phase_times
    )
    for __ in range(repeats - 1):
        repeat_phases: dict | None = {} if want_phases else None
        repeat_s, __o = _time_run(
            graph, beta, mode, "columnar", phases=repeat_phases
        )
        if repeat_s < columnar_s:
            # Keep the breakdown of the run the headline time reports.
            columnar_s, phase_times = repeat_s, repeat_phases
    scalar_s = scalar = compiled_s = None
    if mode == "lca":
        # Timed before the dict oracle so the engine comparison is not
        # skewed by the dict run's interpreter-heap churn.
        scalar_s, scalar = _time_run(
            graph, beta, mode, "columnar", engine="scalar"
        )
        for __ in range(repeats - 1):
            scalar_s = min(
                scalar_s,
                _time_run(graph, beta, mode, "columnar", engine="scalar")[0],
            )
        assert scalar.partition.layers == columnar.partition.layers
        if native.available():
            # The fused C kernel leg only exists where it can load; the
            # engine-fallback CI step runs with it disabled, and the
            # regression guard treats the missing leg as a waiver there.
            compiled_s, compiled = _time_run(
                graph, beta, mode, "columnar", engine="compiled"
            )
            for __ in range(repeats - 1):
                compiled_s = min(
                    compiled_s,
                    _time_run(
                        graph, beta, mode, "columnar", engine="compiled"
                    )[0],
                )
            assert compiled.engine == "compiled"
            assert compiled.partition.layers == columnar.partition.layers
    dict_s, oracle = _time_run(graph, beta, mode, "dict")
    for __ in range(repeats - 1):
        dict_s = min(dict_s, _time_run(graph, beta, mode, "dict")[0])
    assert columnar.rounds == oracle.rounds
    assert columnar.partition.size() == oracle.partition.size()
    if check_equivalence:
        assert columnar.partition.layers == oracle.partition.layers
        for a, b in zip(
            oracle.simulator.stats.rounds, columnar.simulator.stats.rounds
        ):
            assert (a.total_reads, a.total_writes, a.store_words) == (
                b.total_reads, b.total_writes, b.store_words
            )
    report = {
        "mode": mode,
        "beta": beta,
        "columnar_s": round(columnar_s, 3),
        "dict_s": round(dict_s, 3),
        "speedup": round(dict_s / columnar_s, 2),
        "rounds": columnar.rounds,
        "num_layers": columnar.num_layers,
        "total_reads": sum(
            r.total_reads for r in columnar.simulator.stats.rounds
        ),
    }
    if scalar_s is not None:
        # Peel rounds are degree-mask kernels with no coin games, so the
        # engine comparison only exists for lca mode.
        report["engine"] = columnar.engine
        report["columnar_scalar_s"] = round(scalar_s, 3)
        report["engine_speedup"] = round(scalar_s / columnar_s, 2)
        if compiled_s is not None:
            report["compiled_s"] = round(compiled_s, 3)
            report["engine_speedup_compiled"] = round(
                columnar_s / compiled_s, 2
            )
    if mode == "lca":
        # One sharded-fabric leg: same partition, plus the communication
        # and memory counters the S-budget regression guard reads.  The
        # counters are deterministic for a fixed config; only message_s
        # is hardware-dependent.  The fabric runs the compiled engine
        # inside its shards whenever the kernel loads (the block records
        # which engine actually ran, so the regression guard notices a
        # silent fallback to the slow path).
        csr_words = (graph.num_vertices + 1) + 2 * graph.num_edges
        message_engine = "compiled" if native.available() else "batched"
        message_s, sharded = _time_run(
            graph, beta, mode, "columnar", engine=message_engine,
            transport="message", shards=MESSAGE_SHARDS,
        )
        for __ in range(repeats - 1):
            message_s = min(
                message_s,
                _time_run(
                    graph, beta, mode, "columnar", engine=message_engine,
                    transport="message", shards=MESSAGE_SHARDS,
                )[0],
            )
        assert sharded.partition.layers == columnar.partition.layers
        comm_totals: dict = {}
        for comm in sharded.round_comm:
            for key in ("messages", "words", "subrounds",
                        "row_requests", "rows_served"):
                comm_totals[key] = comm_totals.get(key, 0) + comm.get(key, 0)
        # Per-phase fabric wall (serve / install / compact / play, plus
        # the pooled replay overlap), summed over rounds — so the next
        # transport PR profiles instead of guessing.
        phase_split: dict = {}
        for comm in sharded.round_comm:
            for key in ("serve_s", "install_s", "compact_s", "play_s",
                        "comm_overlap_s"):
                phase_split[key] = phase_split.get(key, 0.0) + comm.get(
                    key, 0.0
                )
        report["message"] = {
            "shards": sharded.shards,
            "engine": sharded.engine,
            "message_s": round(message_s, 3),
            "budget_words": int(MESSAGE_HELD_BUDGET_FACTOR * csr_words),
            "max_held_words": sharded.max_held_words,
            "max_shard_words": max(
                (c.get("max_shard_words", 0) for c in sharded.round_comm),
                default=0,
            ),
            "phase_s": {k: round(v, 3) for k, v in phase_split.items()},
            **comm_totals,
        }
    if phase_times is not None:
        report["phases"] = {
            k: round(v, 3) for k, v in sorted(phase_times.items())
        }
    if worker_sweep:
        scaling = {"1": report["columnar_s"]}
        for workers in worker_sweep:
            if workers == 1:
                continue
            sweep_s, sweep = _time_run(
                graph, beta, mode, "columnar", workers=workers
            )
            if workers == 2 and mode == "lca":
                # Zero-fault recovery accounting from the first pooled
                # run: every counter must be zero, and the supervisor's
                # bookkeeping (deadline polling, checksum verification)
                # must stay under MAX_RECOVERY_OVERHEAD of this run's
                # own wall clock — both guarded by --check-regression.
                rec = dict(sweep.round_recovery)
                report["recovery"] = {
                    "pool_wall_s": round(sweep_s, 3),
                    "recovery_overhead_s": round(
                        rec.pop("recovery_wall_s"), 4
                    ),
                    **rec,
                }
            for __ in range(repeats - 1):
                sweep_s = min(
                    sweep_s,
                    _time_run(graph, beta, mode, "columnar", workers=workers)[0],
                )
            assert sweep.partition.layers == columnar.partition.layers
            scaling[str(workers)] = round(sweep_s, 3)
        report["columnar_workers_s"] = scaling
        if mode == "lca" and "message" in report:
            # The pooled-fabric matrix: the same sweep over the
            # message transport, whose shard chains dispatch to the
            # worker pool.  Every point must still reproduce the
            # serial partition exactly; the monotone guard covers this
            # dict alongside the plain columnar sweep.
            message_engine = "compiled" if native.available() else "batched"
            fabric_scaling = {"1": report["message"]["message_s"]}
            for workers in worker_sweep:
                if workers == 1:
                    continue
                sweep_s, sweep = _time_run(
                    graph, beta, mode, "columnar", engine=message_engine,
                    transport="message", shards=MESSAGE_SHARDS,
                    workers=workers,
                )
                for __ in range(repeats - 1):
                    sweep_s = min(
                        sweep_s,
                        _time_run(
                            graph, beta, mode, "columnar",
                            engine=message_engine, transport="message",
                            shards=MESSAGE_SHARDS, workers=workers,
                        )[0],
                    )
                assert sweep.partition.layers == columnar.partition.layers
                fabric_scaling[str(workers)] = round(sweep_s, 3)
            report["message"]["message_workers_s"] = fabric_scaling
        if chaos and mode == "lca":
            # The degraded-serial leg (quick config only): a rate=1.0
            # crash plan makes every pool attempt fail, so after
            # max_shard_retries the supervisor runs every shard chain
            # inline on the driver — and the partition must still be
            # bit-identical.  Guarded by --check-regression so the
            # degradation path cannot silently rot.
            plan = FaultPlan(seed=QUICK_CONFIG["seed"], rate=1.0,
                             kinds=("crash",))
            fast = EngineConfig.from_env().with_overrides(
                retry_backoff_s=0.0
            )
            with faults.inject(plan):
                degraded_s, degraded = _time_run(
                    graph, beta, mode, "columnar", workers=2, config=fast,
                )
            rec = degraded.round_recovery
            report.setdefault("recovery", {})["degraded"] = {
                "degraded_s": round(degraded_s, 3),
                "degraded_shards": rec["degraded_shards"],
                "retries": rec["retries"],
                "bit_identical": (
                    degraded.partition.layers == columnar.partition.layers
                ),
            }
        close_shared_pools()
        # Recorded next to the sweep so a reader (and the regression
        # guard) can tell dispatch cost from plain time-slicing.
        report["host_cpus"] = os.cpu_count() or 1
    return report


def run(
    config: dict,
    check_equivalence: bool = False,
    worker_sweep: tuple[int, ...] = (),
    phases: bool = False,
    repeats: int = 1,
    chaos: bool = False,
) -> dict:
    graph = random_gnm(config["n"], config["m"], config["seed"])
    return {
        "bench": "f4_ampc_runtime",
        "config": dict(config),
        "lca": bench_mode(
            graph, config["beta"], "lca", check_equivalence, worker_sweep,
            phases=phases, repeats=repeats, chaos=chaos,
        ),
        "peel": bench_mode(
            graph, max(2, config["beta"] // 2), "peel", check_equivalence
        ),
    }


def check_regression(report: dict, baseline: dict) -> tuple[list[str], list[str]]:
    """Compare a run against the tracked baseline's matching config.

    Returns ``(failures, waivers)`` — failure messages (empty = within
    budget) plus logged notices for guards that were skipped for a
    stated hardware reason rather than passed.  Times are normalized by
    the same run's dict-oracle wall clock before comparing, so the
    guard is about the columnar code path rather than absolute CI
    hardware speed.  Besides the headline lca columnar time, the guard
    covers the per-phase breakdown (a >40% dict-normalized regression
    in any single phase fails even when the total hides it) and the
    worker sweep (pool dispatch may not exceed the serial run by more
    than :data:`MAX_WORKER_OVERHEAD` on any measured worker count — the
    shape of the old per-worker-linear pool regression).  On a host
    with fewer than 2 CPUs (the recorded ``host_cpus``) the pool forks
    no extra processes, so every worker point is held to the flat
    :data:`MAX_WORKER_OVERHEAD_SINGLE_CORE` dispatch budget instead of
    the per-count table.  The message-transport leg is guarded
    within-run: its max per-shard held words must stay inside the
    configured S budget (deterministic counters, so no baseline
    normalization applies), the leg may not silently drop out while
    the baseline still tracks it, its shards must run the compiled
    engine whenever the kernel loads, and on the quick config its
    transport tax over the same-run compiled leg must stay under
    :data:`MAX_MESSAGE_OVER_COMPILED`.  Finally,
    when the fused C kernel loaded, the same run's compiled leg must
    beat its batched leg by :data:`MIN_COMPILED_SPEEDUP` on the quick
    config; a missing compiled leg is a waiver when the kernel cannot
    load (the engine-fallback CI step) and a failure when it can.  The
    quick config additionally guards the round supervisor: a clean run
    must record zero recovery counters, the supervisor's bookkeeping
    (deadline polling, result checksums) must cost under
    :data:`MAX_RECOVERY_OVERHEAD` of the pooled wall clock, and the
    degraded-to-serial leg (every pool attempt faulted) must stay
    bit-identical — all within-run ratios, no normalization.
    """
    section = (
        "quick" if report["config"] == baseline.get("quick", {}).get("config")
        else None
    )
    if section == "quick":
        base = baseline["quick"]["lca"]
    elif report["config"] == baseline.get("config"):
        base = baseline["lca"]
    else:
        return (
            [
                "no matching config in baseline: refresh the tracked JSON "
                "with this benchmark's --out (and --quick for the quick "
                "block)"
            ],
            [],
        )
    failures = []
    waivers = []
    current_ratio = report["lca"]["columnar_s"] / report["lca"]["dict_s"]
    base_ratio = base["columnar_s"] / base["dict_s"]
    if current_ratio > base_ratio * (1 + MAX_REGRESSION):
        failures.append(
            f"lca columnar regressed: columnar/dict ratio {current_ratio:.4f} "
            f"vs baseline {base_ratio:.4f} "
            f"(>{MAX_REGRESSION:.0%} over budget)"
        )
    base_phases = base.get("phases") or {}
    cur_phases = report["lca"].get("phases") or {}
    for phase, base_s in base_phases.items():
        if base_s < max(MIN_PHASE_SHARE * base["columnar_s"],
                        MIN_PHASE_SECONDS):
            continue  # too small to separate from noise
        cur_s = cur_phases.get(phase)
        if cur_s is None:
            # A tracked phase that stopped being measured must fail
            # loudly, not silently drop out of the guard.
            failures.append(
                f"lca phase '{phase}' is in the baseline but missing from "
                "this run (run with --phases, or refresh the baseline)"
            )
            continue
        cur_norm = cur_s / report["lca"]["dict_s"]
        base_norm = base_s / base["dict_s"]
        if cur_norm > base_norm * (1 + MAX_PHASE_REGRESSION):
            failures.append(
                f"lca phase '{phase}' regressed: dict-normalized "
                f"{cur_norm:.4f} vs baseline {base_norm:.4f} "
                f"(>{MAX_PHASE_REGRESSION:.0%} over budget)"
            )
    scaling = report["lca"].get("columnar_workers_s") or {}
    serial_s = report["lca"]["columnar_s"]
    host_cpus = report["lca"].get("host_cpus") or os.cpu_count() or 1
    for workers, sweep_s in scaling.items():
        if workers == "1":
            continue
        if host_cpus < 2:
            # The pool never forks more processes than the host has
            # cores, so on a 1-core host every requested worker count
            # must cost only the fixed dispatch overhead — a flat
            # budget, not a waiver (the old superlinear sweep fails it
            # immediately).
            limit = MAX_WORKER_OVERHEAD_SINGLE_CORE
        else:
            limit = MAX_WORKER_OVERHEAD.get(
                workers, MAX_WORKER_OVERHEAD_DEFAULT
            )
        if sweep_s > serial_s * limit:
            failures.append(
                f"pool dispatch at workers={workers} costs {sweep_s:.3f}s vs "
                f"{serial_s:.3f}s serial (>{limit:.2f}x overhead budget"
                f"{' on a 1-core host' if host_cpus < 2 else ''})"
            )
    message = report["lca"].get("message") or {}
    if base.get("message") and not message:
        # Same spirit as the phase drop-out check: a tracked leg that
        # silently stops being measured must fail, not slip the guard.
        failures.append(
            "lca message-transport leg is in the baseline but missing "
            "from this run (refresh the baseline if it was removed)"
        )
    budget = message.get("budget_words")
    if budget and message.get("max_held_words", 0) > budget:
        failures.append(
            f"message fabric exceeded its S budget: max per-shard held "
            f"words {message['max_held_words']} > {budget} "
            f"(shards={message.get('shards')}; a within-run check — the "
            "ghost fringe or owned-slice residency grew)"
        )
    if message and native.available():
        if message.get("engine") != "compiled":
            # The fabric must run the fused kernel inside its shards
            # whenever it loads; most of the pre-pooling 212 s full-size
            # message time was exactly this silent pin to the slow path.
            failures.append(
                "message fabric ran engine="
                f"{message.get('engine')!r} although the compiled kernel "
                "loads (the shard chains silently fell back)"
            )
        elif report["lca"].get("compiled_s") and section == "quick":
            # Within-run transport tax: quick message_s over the bare
            # compiled run of the same graph.  Encodes the >= 5x
            # improvement bar over the pre-pooling 9.91 s baseline
            # without hardware normalization.
            ratio = message["message_s"] / report["lca"]["compiled_s"]
            if ratio > MAX_MESSAGE_OVER_COMPILED:
                failures.append(
                    f"message transport tax regressed: message_s "
                    f"{message['message_s']:.3f}s is {ratio:.1f}x the "
                    f"same-run compiled {report['lca']['compiled_s']:.3f}s "
                    f"(>{MAX_MESSAGE_OVER_COMPILED:.0f}x budget)"
                )
    recovery = report["lca"].get("recovery")
    if section == "quick":
        # Supervisor guards, all within-run (no baseline normalization):
        # a clean CI run must inject zero faults, the supervisor's
        # bookkeeping must stay under MAX_RECOVERY_OVERHEAD of the
        # pooled wall clock, and the degraded-serial leg must still be
        # bit-identical.
        if recovery is None:
            failures.append(
                "the quick run has no lca recovery block (the supervisor "
                "overhead guard cannot silently drop out; run with the "
                "quick worker sweep)"
            )
        else:
            fault_counts = {
                k: v for k, v in recovery.items()
                if isinstance(v, int) and v
            }
            if fault_counts:
                failures.append(
                    f"zero-fault pooled run recovered from faults: "
                    f"{fault_counts} (real worker loss, or a fault plan "
                    "leaked into the bench environment)"
                )
            overhead = recovery["recovery_overhead_s"]
            budget = MAX_RECOVERY_OVERHEAD * recovery["pool_wall_s"]
            if overhead > budget:
                failures.append(
                    f"supervisor recovery overhead {overhead:.4f}s exceeds "
                    f"{MAX_RECOVERY_OVERHEAD:.0%} of the pooled wall clock "
                    f"{recovery['pool_wall_s']:.3f}s (checksum/deadline "
                    "bookkeeping got expensive)"
                )
            degraded = recovery.get("degraded")
            if degraded is None:
                failures.append(
                    "the quick run has no degraded-serial leg (the "
                    "degradation guard cannot silently drop out)"
                )
            elif not degraded["bit_identical"]:
                failures.append(
                    "the degraded-serial path diverged from the serial "
                    "partition (inline re-execution is no longer "
                    "bit-identical)"
                )
            elif degraded["degraded_shards"] == 0:
                failures.append(
                    "the degraded-serial leg degraded zero shards (the "
                    "rate=1.0 crash plan stopped reaching the workers)"
                )
    compiled_s = report["lca"].get("compiled_s")
    if compiled_s is None:
        if not native.available():
            waivers.append(
                "compiled engine leg not measured (kernel unavailable: "
                f"{native.load_error()!r}): compiled speedup guard waived"
            )
        else:
            failures.append(
                "compiled kernel loads but the run has no compiled_s leg "
                "(the compiled-vs-batched guard cannot silently drop out)"
            )
    elif section == "quick":
        # Within-run ratio: no baseline or hardware normalization.  Only
        # the quick config is guarded in CI; full-size refreshes carry a
        # far larger margin and are eyeballed at --out time.
        speedup = report["lca"]["columnar_s"] / compiled_s
        if speedup < MIN_COMPILED_SPEEDUP:
            failures.append(
                f"compiled engine lost its edge: {compiled_s:.3f}s vs "
                f"{report['lca']['columnar_s']:.3f}s batched "
                f"({speedup:.2f}x < {MIN_COMPILED_SPEEDUP:.1f}x same-run "
                "budget)"
            )
    return failures, waivers


def guard_worker_monotone(report: dict) -> tuple[list[str], list[str]]:
    """Monotone non-increasing worker sweep, waived per-point by cores.

    Returns ``(failures, waivers)``.  Each swept worker count must not
    be slower than its predecessor by more than :data:`MONOTONE_SLACK`.
    Points asking for more workers than the host has cores — and the
    whole guard on a 1-core host — are waived with a logged notice
    instead of failing, so CI can set the flag unconditionally.
    """
    cores = os.cpu_count() or 1
    failures: list[str] = []
    waivers: list[str] = []
    if cores < 2:
        waivers.append(
            f"runner has {cores} core(s): worker-monotone guard waived"
        )
        return failures, waivers
    sweeps = {
        "columnar": report["lca"].get("columnar_workers_s") or {},
        # The pooled-fabric matrix: the message transport's shard
        # chains run on the same worker pool, so its sweep must scale
        # (or at least not anti-scale) the same way.
        "message": (
            report["lca"].get("message") or {}
        ).get("message_workers_s") or {},
    }
    for label, scaling in sweeps.items():
        points = sorted((int(w), s) for w, s in scaling.items())
        for (prev_w, prev_s), (cur_w, cur_s) in zip(points, points[1:]):
            if cur_w > cores:
                waivers.append(
                    f"{label} workers={cur_w} exceeds the runner's "
                    f"{cores} cores: sweep point waived"
                )
                continue
            if cur_s > prev_s * MONOTONE_SLACK:
                failures.append(
                    f"{label} worker sweep not monotone: workers={cur_w} "
                    f"took {cur_s:.3f}s vs {prev_s:.3f}s at "
                    f"workers={prev_w} (>{MONOTONE_SLACK:.2f}x slack)"
                )
    return failures, waivers


def test_f4_ampc_runtime(benchmark, show_table):
    """Quick config: columnar must beat dict in both regimes, equivalently."""
    report = benchmark.pedantic(
        lambda: run(
            QUICK_CONFIG,
            check_equivalence=True,
            worker_sweep=QUICK_WORKER_SWEEP,
            phases=True,
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        {"metric": f"{mode}.{key}", "value": value}
        for mode in ("lca", "peel")
        for key, value in report[mode].items()
        if not isinstance(value, dict)
    ]
    show_table(rows, "F4 — AMPC runtime (quick config)")
    # Loose bounds for shared CI hardware; the committed BENCH_ampc.json
    # records the full-size numbers.
    assert report["lca"]["speedup"] >= 1.5
    assert report["peel"]["speedup"] >= 3.0
    assert set(report["lca"]["phases"]) >= {"explore", "forward", "fold"}
    if native.available():
        assert report["lca"]["engine_speedup_compiled"] >= MIN_COMPILED_SPEEDUP
    message = report["lca"]["message"]
    assert message["max_held_words"] <= message["budget_words"]
    assert message["messages"] > 0 and message["shards"] == MESSAGE_SHARDS
    if native.available():
        # The fabric's shard chains must actually run the fused kernel.
        assert message["engine"] == "compiled"
    # The pooled-fabric sweep rides in the quick worker matrix too.
    assert set(message["message_workers_s"]) == {
        str(w) for w in QUICK_WORKER_SWEEP
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=FULL_CONFIG["n"])
    parser.add_argument("--m", type=int, default=FULL_CONFIG["m"])
    parser.add_argument("--seed", type=int, default=FULL_CONFIG["seed"])
    parser.add_argument("--beta", type=int, default=FULL_CONFIG["beta"])
    parser.add_argument("--quick", action="store_true", help="CI-sized config")
    parser.add_argument(
        "--phases", action="store_true",
        help="record per-phase lca wall clock (explore/forward/fold)",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    parser.add_argument(
        "--quick-baseline", action="store_true",
        help="additionally run the quick config and attach it as the "
        "'quick' block (the reference --check-regression compares "
        "CI quick runs against); use when refreshing the tracked JSON",
    )
    parser.add_argument(
        "--check-regression", default=None, metavar="BASELINE",
        help="compare against this tracked JSON; exit 2 if the lca "
        f"columnar time regressed >{MAX_REGRESSION:.0%} (dict-normalized) "
        "or the message fabric exceeded its per-shard S budget",
    )
    parser.add_argument(
        "--guard-worker-monotone", action="store_true",
        help="exit 2 unless the worker sweep is monotone non-increasing "
        f"(up to {MONOTONE_SLACK:.2f}x slack); sweep points beyond the "
        "host's core count are waived with a logged notice",
    )
    args = parser.parse_args()
    if args.quick:
        config = dict(QUICK_CONFIG)
        sweep = QUICK_WORKER_SWEEP
    else:
        config = {"n": args.n, "m": args.m, "seed": args.seed, "beta": args.beta}
        sweep = FULL_WORKER_SWEEP
    report = run(
        config, check_equivalence=args.quick, worker_sweep=sweep,
        phases=args.phases, repeats=3 if args.quick else 1,
        chaos=args.quick,
    )
    if args.quick_baseline and not args.quick:
        quick = run(QUICK_CONFIG, check_equivalence=True, repeats=3, phases=True)
        report["quick"] = {
            "config": quick["config"],
            "lca": {
                "columnar_s": quick["lca"]["columnar_s"],
                "dict_s": quick["lca"]["dict_s"],
                "speedup": quick["lca"]["speedup"],
                # within-run numbers (the CI guard recomputes its own);
                # tracked for counter-drift eyeballing
                **(
                    {
                        "compiled_s": quick["lca"]["compiled_s"],
                        "engine_speedup_compiled":
                            quick["lca"]["engine_speedup_compiled"],
                    }
                    if "compiled_s" in quick["lca"] else {}
                ),
                # the per-phase regression guard compares CI quick runs
                # against this breakdown
                "phases": quick["lca"].get("phases", {}),
                # tracked so the quick guard notices the message leg
                # dropping out, and for counter-drift eyeballing
                "message": quick["lca"].get("message", {}),
            },
        }
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    failed = False
    if args.check_regression:
        with open(args.check_regression) as handle:
            baseline = json.load(handle)
        failures, waivers = check_regression(report, baseline)
        for notice in waivers:
            print(f"WAIVER: {notice}", file=sys.stderr)
        for message in failures:
            print(f"REGRESSION: {message}", file=sys.stderr)
        failed = failed or bool(failures)
    if args.guard_worker_monotone:
        failures, waivers = guard_worker_monotone(report)
        for notice in waivers:
            print(f"WAIVER: {notice}", file=sys.stderr)
        for message in failures:
            print(f"MONOTONE: {message}", file=sys.stderr)
        failed = failed or bool(failures)
    if failed:
        raise SystemExit(2)


if __name__ == "__main__":
    main()
