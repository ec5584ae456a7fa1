"""Command line of the end-to-end coloring benchmark.

Run from the root of a source checkout (the library is imported from
``src/``; nothing needs installing)::

    python3 e2ebench/run.py --workload gnm-8k --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  The lines before it
say what ran.  Everything stays under ``.bench_build/`` in the checkout:
the compiled kernel, temporary files, and per run a JSON report; with
``--trace 1`` also the Chrome trace-event file (open it in Perfetto)
and the per-layer table.

Exits with status 2, printing no result, when the working directory
holds no library sources.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

DEFAULT_SEED = 20260730
BUILD_DIR = ".bench_build"

_ENGINE_PHASES = tuple(
    f"engine.{p}_s" for p in ("explore", "forward", "fold", "native", "cache")
)


def _layer_table(workload, layer: dict, traced_calls: int) -> str:
    """The per-layer metrics as aligned text, with what each should do here."""
    from e2ebench.metrics import PER_LAYER

    measured = layer.get("engine.measured_rounds", 0.0)
    pooled = layer.get("engine.pooled_rounds", 0.0)
    lines = [
        f"per-layer metrics of {workload.name}: mean per traced call over "
        f"{traced_calls} calls",
        f"{'metric':34} {'value':>16}  {'unit':6} expected here",
    ]
    for name, unit, _ in PER_LAYER:
        value = f"{layer.get(name, 0.0):16.6g}"
        if name in _ENGINE_PHASES and measured == 0:
            value = f"{'unmeasured':>16}"
        expect = (
            "moves wall_s" if name in workload.moves
            else "stays" if name in workload.still else ""
        )
        lines.append(f"{name:34} {value}  {unit:6} {expect}")
    if pooled:
        lines.append(
            f"engine phases cover in-process lca rounds only: {measured:g} "
            f"measured, {pooled:g} handed to pool workers or the fabric "
            "per call (unmeasured)"
        )
    return "\n".join(lines)


def _stop_resource_tracker() -> None:
    """Stop and reap the tracker process shared memory starts."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="call time to measure, at least")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

    from e2ebench import workloads
    from e2ebench.bench import pinned_environment, run_benchmark

    try:
        workload = workloads.get(args.workload)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    build_dir = root / BUILD_DIR
    try:
        with pinned_environment(build_dir) as cleared:
            import repro  # noqa: F401  (import time counts into setup_s)

            result, report = run_benchmark(
                workload.name, args.seed, args.seconds, bool(args.trace),
                build_dir, started=_STARTED,
            )
    finally:
        _stop_resource_tracker()
    report["cleared_env"] = cleared

    out_dir = Path(BUILD_DIR) / "e2ebench"  # relative to the checkout
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    print(f"host {json.dumps(report['host'])}")
    print(f"kernel {json.dumps(report['kernel'])}")
    print(f"ran {json.dumps(report['ran'])} cleared {json.dumps(cleared)}")
    if args.trace:
        traced_calls = sum(1 for c in report["calls"] if c.get("traced"))
        table = _layer_table(workload, report["per_layer"], traced_calls)
        (out_dir / f"{stem}.layers.txt").write_text(table + "\n")
        (out_dir / f"{stem}.trace.json").write_text(report.pop("chrome_trace"))
        print(table)
        print(f"trace {out_dir / stem}.trace.json")
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))
    for call in report["calls"]:
        for error in call["errors"]:
            print(f"FAILED input {call['input']}: {error}", file=sys.stderr)
    print(f"report {out_dir / stem}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
