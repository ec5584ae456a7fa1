"""Tests of the end-to-end benchmark's checks, tracing and output.

Run with ``PYTHONPATH=src python -m pytest e2ebench -q``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from e2ebench import checks, run, workloads
from e2ebench.bench import pinned_environment, run_benchmark
from e2ebench.metrics import END_TO_END, PER_LAYER
from e2ebench.tracing import Recorder, check_spans, chrome_trace, self_times
from repro.coloring.greedy import greedy_coloring
from repro.coloring.pipeline import color_graph
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.orientation import orient_by_partition
from repro.graphs.generators import (
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)
from repro.graphs.validation import is_proper_coloring
from repro.partition.beta_partition import PartialBetaPartition

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def small_graphs():
    for seed in range(4):
        yield random_gnm(40, 90, seed)
        yield preferential_attachment(40, 3, seed)
        yield union_of_random_forests(40, 2, seed)


# -- the array checks agree with the library's own validators ------------


def test_partition_check_agrees_with_is_valid():
    rng = np.random.default_rng(7)
    seen = set()
    for graph in small_graphs():
        for _ in range(6):
            layers = rng.integers(0, 3, graph.num_vertices).astype(float)
            beta = int(rng.integers(1, graph.max_degree() + 1))
            ours = not checks.partition_errors(graph, layers, beta)
            theirs = PartialBetaPartition(
                {v: layers[v] for v in range(graph.num_vertices)}
            ).is_valid(graph, beta)
            assert ours == theirs
            seen.add(ours)
    assert seen == {True, False}


def test_coloring_check_agrees_with_is_proper_coloring():
    rng = np.random.default_rng(11)
    seen = set()
    for graph in small_graphs():
        proper = np.array(greedy_coloring(graph))
        for _ in range(6):
            colors = proper.copy()
            colors[rng.integers(0, graph.num_vertices)] = rng.integers(0, 4)
            ours = not checks.coloring_errors(graph, colors, graph.num_vertices)
            assert ours == is_proper_coloring(graph, colors.tolist())
            seen.add(ours)
    assert seen == {True, False}


# -- the checks reject corrupted outputs ---------------------------------


def test_pipeline_output_passes_and_corruptions_fail():
    graph = union_of_random_forests(120, 3, 5)
    result = color_graph(graph, variant="alpha_squared")
    outcome = beta_partition_ampc(graph, result.beta)
    layers = outcome.partition.layer_array(graph.num_vertices)
    orientation = orient_by_partition(graph, outcome.partition)
    beta = result.beta
    assert not checks.coloring_errors(graph, result.colors, result.palette_bound)
    assert not checks.partition_errors(graph, layers, beta)
    assert not checks.orientation_errors(
        graph, layers, orientation.out_neighbors, beta
    )

    u, v = (int(x) for x in graph.edge_array()[0])
    clash = list(result.colors)
    clash[v] = clash[u]
    assert checks.coloring_errors(graph, clash, result.palette_bound)
    assert checks.coloring_errors(graph, result.colors, result.num_colors - 1)

    unlayered = layers.copy()
    unlayered[u] = math.inf
    assert checks.partition_errors(graph, unlayered, beta)
    flat = np.zeros_like(layers)
    hub = int(np.argmax(graph.degrees()))
    assert checks.partition_errors(graph, flat, graph.degree(hub) - 1)
    moved = layers.copy()
    moved[u] += 1
    assert checks.same_layers(moved, layers)
    assert not checks.same_layers(layers, layers.copy())

    out = [list(nbrs) for nbrs in orientation.out_neighbors]
    src = next(s for s, nbrs in enumerate(out) if nbrs)
    dst = out[src].pop()
    out[dst].append(src)  # reverse one edge
    assert checks.orientation_errors(graph, layers, out, beta)
    assert checks.orientation_errors(graph, layers, out, 0)


# -- tracing ------------------------------------------------------------


def record(rec, nesting):
    """Record ``nesting`` — (name, [children]) pairs — as nested spans."""
    for name, children in nesting:
        index = rec.open(name)
        sum(range(1000))
        record(rec, children)
        rec.close(index)


def test_self_times_add_up_to_the_root():
    rec = Recorder()
    record(rec, [("root", [("a", [("b", [])]), ("c", [])])])
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]
    assert not check_spans(rec.spans)
    root = rec.spans[0]
    assert sum(self_times(rec.spans)) == pytest.approx(root.end - root.start)
    events = json.loads(chrome_trace([({"call": 0}, rec.spans)]))["traceEvents"]
    assert [e["name"] for e in events if e["ph"] == "X"] == ["root", "a", "b", "c"]


def test_check_spans_rejects_a_span_outside_its_parent():
    rec = Recorder()
    record(rec, [("root", [("child", [])])])
    rec.spans[1].end = rec.spans[0].end + 1.0
    assert check_spans(rec.spans)


# -- the workloads and the benchmark's output ----------------------------


@pytest.mark.parametrize("workload", [w.name for w in workloads.WORKLOADS])
def test_toy_run_emits_every_metric(workload, tmp_path):
    with pinned_environment(tmp_path):
        result, report = run_benchmark(
            workload, seed=3, seconds=0.0, trace=True, build_dir=tmp_path,
            toy=True,
        )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    units = {name: unit for name, unit, _ in PER_LAYER}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert set(report["end_to_end"]) == {name for name, *_ in END_TO_END}
    e2e = report["end_to_end"]
    assert e2e["passed_frac"] == 1.0 and e2e["wall_s"] > 0
    assert e2e["colors_used"] >= 1 and e2e["partition_layers"] >= 1
    assert report["ran"]["engine"] and report["kernel"]["source_sha256"]
    assert json.loads(report["chrome_trace"])["traceEvents"]


def test_fabric_partition_matches_the_coloring_workloads_partition():
    fabric, shm = workloads.get("pa-2k-fabric"), workloads.get("pa-2k")
    assert (fabric.generator, fabric.n) == (shm.generator, shm.n)
    inp = workloads.make_inputs(fabric, seed=4, toy=True)[0]
    out = workloads.call(fabric, inp, workloads.Capture())
    errors, summary = workloads.check(fabric, inp, out)
    assert not errors
    assert not checks.same_layers(summary["layers"], inp.reference_layers())
    assert summary["colors_used"] <= inp.beta + 1


def test_workload_expectations_name_per_layer_metrics():
    names = {name for name, *_ in PER_LAYER}
    for workload in workloads.WORKLOADS:
        assert set(workload.moves) <= names
        assert set(workload.still) <= names
        assert not set(workload.moves) & set(workload.still)


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]
    ] == list(END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in spec["per_layer"]
    ] == list(PER_LAYER)


def test_cli_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "gnm-8k", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""
