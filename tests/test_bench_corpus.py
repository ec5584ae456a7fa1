"""Every guard of ``benchmarks/bench_corpus.py`` fires on a doctored report.

The tracked ``BENCH_corpus.json`` passes against itself; each case below
breaks one measured figure of a copy, the way a regression would, and
the guard that owns that figure must name it.
"""

from __future__ import annotations

import copy
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_corpus", ROOT / "benchmarks" / "bench_corpus.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
BASELINE = json.loads((ROOT / "BENCH_corpus.json").read_text())


@pytest.fixture(autouse=True)
def kernel_loads(monkeypatch):
    # The guards ask whether the kernel loads; pin the answer so the
    # cases hold on the batched-oracle leg too.
    monkeypatch.setattr(bench, "native", SimpleNamespace(
        available=lambda: True, load_error=lambda: None,
    ))


def _legs(report):
    return report["quick"]["legs"]


def _scale(keys, field, factor):
    def doctor(report):
        for key in keys(report):
            _legs(report)[key][field] *= factor
    return doctor


def _corpus(report):
    return [k for k in _legs(report)
            if k.endswith(("/w1", "/auto")) and not k.startswith("gnm-batched")]


def _scale_phase(keys, phase, factor):
    def doctor(report):
        for key in keys(report):
            _legs(report)[key]["phases"][phase] *= factor
    return doctor


def _lift_phase(keys, phase):
    """Set ``phase`` of ``keys`` to the phase guard's floor.

    Every summed phase of the tracked quick block is below
    ``MIN_PHASE_SECONDS``, where the guard does not look, so the phase
    cases lift one into its range in the baseline and the report alike.
    """
    def lift(report):
        for key in keys(report):
            _legs(report)[key]["phases"][phase] = 2 * bench.MIN_PHASE_SECONDS
    return lift


def _set(path, value):
    def doctor(report):
        *parents, last = path
        node = report
        for part in parents:
            node = node[part]
        node[last] = value
    return doctor


def _sweep(w1, w2, w4, cpus):
    def doctor(report):
        report["host_cpus"] = cpus
        for label, wall in (("w1", w1), ("w2", w2), ("w4", w4)):
            _legs(report)[f"gnm/{label}"]["wall_s"] = wall
        _legs(report)["gnm/auto"]["wall_s"] = w1
    return doctor


def _relative(key, field, other, other_field, factor):
    def doctor(report):
        _legs(report)[key][field] = factor * _legs(report)[other][other_field]
    return doctor


def _delete(*path):
    def doctor(report):
        node = report
        for part in path[:-1]:
            node = node[part]
        del node[path[-1]]
    return doctor


def _drop_phase(report):
    for key in _corpus(report):
        _legs(report)[key]["phases"].pop("native", None)


def _budget(report):
    leg = _legs(report)["fabric/w1"]
    leg["max_held_words"] = leg["budget_words"] + 1


def _batched(report):
    return ["gnm-batched/w1"]


CASES = {
    "corpus wall +30%": (_scale(_corpus, "wall_s", 1.3),
                         "quick corpus regressed"),
    "corpus native phase +50%": (_scale_phase(_corpus, "native", 1.5),
                                 "quick corpus phase 'native' regressed",
                                 _lift_phase(_corpus, "native")),
    "corpus phase missing": (_drop_phase, "'native' is in the baseline",
                             _lift_phase(_corpus, "native")),
    "batched wall +30%": (_scale(_batched, "wall_s", 1.3),
                          "quick gnm-batched/w1 regressed"),
    "batched forward +50%": (_scale_phase(_batched, "forward", 1.5),
                             "gnm-batched/w1 phase 'forward' regressed",
                             _lift_phase(_batched, "forward")),
    "compiled under 2x batched": (
        _relative("gnm-batched/w1", "partition_s", "gnm/w1", "partition_s",
                  1.9),
        "compiled partition lost its edge"),
    "compiled tail under 2x batched": (
        _relative("gnm-batched/w1", "tail_s", "gnm/w1", "tail_s", 1.9),
        "compiled coloring tail lost its edge"),
    "workers=2 at 1.3x serial": (_sweep(1.0, 1.3, 1.3, 2),
                                 "worker-overhead budget"),
    "1-CPU host at 2.1x serial": (_sweep(1.0, 2.1, 1.0, 1),
                                  "2.00x worker-overhead budget"),
    "4-CPU sweep anti-scaling": (_sweep(1.0, 0.6, 0.8, 4), "not monotone"),
    "fabric over its S budget": (_budget, "exceeded its S budget"),
    "fabric shards off the kernel": (
        _set(("quick", "legs", "fabric/auto", "engine"), "batched"),
        "the shard chains fell back"),
    "transport tax 9x": (
        _relative("fabric/w1", "wall_s", "pa/w1", "partition_s", 9.0),
        "message transport tax"),
    "slab leg diverged": (
        _set(("quick", "recovery", "bit_identical"), False),
        "slab-fault fabric partition diverged"),
    "slab leg re-ran nothing": (_set(("quick", "recovery", "retries"), 0),
                                "re-ran no chain"),
    "tracked leg missing": (_delete("quick", "legs", "pa/auto"),
                            "leg 'pa/auto' is in the baseline but missing"),
    "full leg missing": (_delete("full", "legs", "fabric/w1"),
                         "leg 'fabric/w1' is in the baseline but missing"),
    "recovery block missing": (_delete("quick", "recovery"),
                               "no recovery block"),
    "quick sizes changed": (_set(("quick", "sizes", "gnm"), [9_000, 18_000]),
                            "quick sizes differ"),
}


def test_the_tracked_report_passes_against_itself():
    failures, __ = bench.check_regression(copy.deepcopy(BASELINE), BASELINE)
    assert failures == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_doctored_report_fails_its_guard(case):
    doctor, expected, *lifts = CASES[case]
    baseline = copy.deepcopy(BASELINE)
    for lift in lifts:
        lift(baseline)
    report = copy.deepcopy(baseline)
    doctor(report)
    failures, __ = bench.check_regression(report, baseline)
    assert any(expected in failure for failure in failures), failures


def test_without_the_kernel_the_engine_guards_are_waived(monkeypatch):
    monkeypatch.setattr(bench, "native", SimpleNamespace(
        available=lambda: False, load_error=lambda: RuntimeError("off"),
    ))
    report = copy.deepcopy(BASELINE)
    for leg in _legs(report).values():
        leg["engine"] = "batched"
    failures, waivers = bench.check_regression(report, BASELINE)
    assert failures == []
    assert any("compiled speedup" in waiver for waiver in waivers)
