"""One benchmark run: pinned set-up, the timed loop, the traced pass.

A run

1. pins the environment (:func:`pinned_environment`) and loads — or
   builds — the compiled wave kernel;
2. sets up ``SETUP_REPEATS`` times: generate the run's graphs, then one
   untimed warm-up call (on the next graph each time) that starts the
   worker pool afresh;
3. calls the workload's entry point round-robin over the graphs until
   ``seconds`` of call time have passed and every graph was called the
   workload's ``repeats`` times, with a full garbage collection before
   each call; every output is checked outside the timed region;
4. with ``trace``, makes one more call on each of the first
   ``TRACED_INPUTS`` graphs with the layer spans installed and derives
   the per-layer metrics from them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import platform
import resource
import statistics
import tempfile
import time
import traceback
from pathlib import Path

from e2ebench import checks
from e2ebench import workloads as wl
from e2ebench.metrics import (
    END_TO_END,
    PER_LAYER,
    UNITS,
    call_layer_metrics,
    mean_metrics,
)
from e2ebench.tracing import (
    Recorder,
    check_spans,
    chrome_trace,
    layer_patches,
    patched,
)

__all__ = ["SETUP_REPEATS", "pinned_environment", "run_benchmark"]

SETUP_REPEATS = 5
# Graphs the traced pass calls (the first ones of the run).
TRACED_INPUTS = 4


@contextlib.contextmanager
def pinned_environment(build_dir: Path):
    """Clear every ``REPRO_*`` override for the duration of a run.

    The compiled kernel's cache and every temporary file go under
    ``build_dir``.  Yields the names of the cleared variables; the
    previous environment is restored on exit.
    """
    saved = dict(os.environ)
    cleared = sorted(key for key in os.environ if key.startswith("REPRO_"))
    for key in cleared:
        del os.environ[key]
    (build_dir / "native").mkdir(parents=True, exist_ok=True)
    (build_dir / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(build_dir / "native")
    os.environ["TMPDIR"] = str(build_dir / "tmp")
    tempfile.tempdir = None  # re-read TMPDIR
    try:
        yield cleared
    finally:
        os.environ.clear()
        os.environ.update(saved)
        tempfile.tempdir = None


def _kernel_status() -> dict:
    from repro.core import native

    started = time.perf_counter()
    available = native.available()
    load_s = time.perf_counter() - started
    source = Path(native.__file__).with_name("_wave_kernel.c")
    return {
        "available": available,
        "error": None if available else repr(native.load_error()),
        "load_s": load_s,
        "source_sha256": hashlib.sha256(source.read_bytes()).hexdigest()[:16],
    }


def _host() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def _close_pools() -> None:
    from repro.ampc.pool import close_shared_pools

    close_shared_pools()


def _attempt(workload, inp, capture, rec: Recorder | None = None):
    """One call; returns ``(output or None, seconds, error text)``.

    With ``rec``, the call is the recorder's root span: ``pipeline`` for
    the coloring workloads, ``partition`` for the fabric one.
    """
    fabric = workload.variant is None
    gc.collect()
    started = time.perf_counter()
    root = rec.open("partition" if fabric else "pipeline") if rec else None
    try:
        out = wl.call(
            workload, inp, capture,
            phases=rec.phases if rec is not None and fabric else None,
        )
    except Exception:
        return None, time.perf_counter() - started, traceback.format_exc()
    finally:
        if rec is not None:
            rec.close(root)
    return out, time.perf_counter() - started, ""


def run_benchmark(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    build_dir: Path,
    toy: bool = False,
    started: float | None = None,
) -> tuple[dict, dict]:
    """Run one workload; returns ``(result, report)``.

    ``result`` is the contract's summary line (``correct``,
    ``attempted``, ``failed``, ``metrics``): end-to-end metrics, or with
    ``trace`` the per-layer ones.  ``report`` holds everything else —
    host, kernel, what ran, every call.  ``started`` is the
    ``perf_counter`` reading at process start, so import time counts
    into ``setup_s``.
    """
    workload = wl.get(name)
    import_s = time.perf_counter() - started if started is not None else 0.0
    kernel = _kernel_status()
    capture = wl.Capture()

    setups = []
    for rep in range(SETUP_REPEATS):
        _close_pools()  # each set-up starts the worker pool afresh
        gc.collect()
        t0 = time.perf_counter()
        inputs = wl.make_inputs(workload, seed, toy)
        t1 = time.perf_counter()
        with patched(capture.patches()):
            wl.call(workload, inputs[rep % len(inputs)], capture)
        setups.append({"generate_s": t1 - t0, "warmup_s": time.perf_counter() - t1})
    setup_s = import_s + kernel["load_s"] + statistics.median(
        s["generate_s"] + s["warmup_s"] for s in setups
    )

    calls = []
    outputs = []  # (summary, fabric layers) per call
    measured = 0.0
    planned = (1 if toy else workload.repeats) * len(inputs)
    with patched(capture.patches()):
        i = 0
        while i < planned or measured < seconds:
            k = i % len(inputs)
            i += 1
            out, elapsed, error = _attempt(workload, inputs[k], capture)
            measured += elapsed
            errors, summary = (
                ([error], {}) if out is None else wl.check(workload, inputs[k], out)
            )
            del out
            calls.append({"input": k, "seconds": elapsed, "errors": errors})
            outputs.append((summary, summary.pop("layers", None)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # The fabric's partitions must equal the shared-memory ones.  The
    # reference partitions are computed only now, so that their memory
    # stays out of peak_rss_mb.
    times: list[list[float]] = [[] for _ in inputs]
    summaries: list[dict | None] = [None] * len(inputs)
    for call, (summary, layers) in zip(calls, outputs):
        k = call["input"]
        if layers is not None:
            call["errors"] += checks.same_layers(layers, inputs[k].reference_layers())
        if not call["errors"]:
            times[k].append(call["seconds"])
            summaries[k] = summaries[k] or summary

    passed = [t for per_graph in times for t in per_graph]
    done = [s for s in summaries if s]
    failed = sum(1 for c in calls if c["errors"])
    e2e = {
        "wall_s": _mean(passed),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "colors_used": _mean(s["colors_used"] for s in done),
        "ampc_rounds": _mean(s["ampc_rounds"] for s in done),
        "partition_layers": _mean(s["partition_layers"] for s in done),
        "passed_frac": (len(calls) - failed) / len(calls),
    }

    traced = []
    layer = {}
    if trace:
        per_call = []
        for k, inp in enumerate(inputs[:TRACED_INPUTS]):
            rec = Recorder()
            with patched(capture.patches()), patched(layer_patches(rec)):
                out, elapsed, error = _attempt(workload, inp, capture, rec)
            errors = [error] if error else []
            if out is not None:
                found, summary = wl.check(workload, inp, out)
                errors += found + check_spans(rec.spans)
                if summary["layers"] is not None:
                    errors += checks.same_layers(
                        summary["layers"], inp.reference_layers()
                    )
                metrics = call_layer_metrics(rec, out.outcome)
                untraced = statistics.median(times[k]) if times[k] else elapsed
                metrics["trace.overhead_s"] = (
                    rec.spans[0].end - rec.spans[0].start - untraced
                )
                per_call.append(metrics)
            del out
            calls.append({"input": k, "seconds": elapsed, "errors": errors,
                          "traced": True})
            traced.append(({"workload": name, "input": k, "seed": inp.seed},
                           rec.spans))
        layer = mean_metrics(per_call)
        failed = sum(1 for c in calls if c["errors"])
    _close_pools()

    chosen = PER_LAYER if trace else END_TO_END
    values = layer if trace else e2e
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {
            metric: {"value": float(values.get(metric, 0.0)), "unit": UNITS[metric]}
            for metric, *_ in chosen
        },
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": _host(),
        "kernel": kernel,
        "ran": _what_ran(summaries),
        "inputs": [
            {"seed": inp.seed, "n": inp.graph.num_vertices,
             "m": inp.graph.num_edges, "max_degree": inp.graph.max_degree()}
            for inp in inputs
        ],
        "setup": {"import_s": import_s, "repeats": setups},
        "end_to_end": e2e,
        "per_layer": layer,
        "calls": calls,
    }
    if trace:
        report["chrome_trace"] = chrome_trace(traced)
    return result, report


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _what_ran(summaries: list[dict | None]) -> dict:
    """Engine, workers, shards and transport over every checked call."""
    keys = ("engine", "workers", "shards", "transport", "pool_attached")
    return {
        key: sorted({s[key] for s in summaries if s}, key=str) for key in keys
    }
