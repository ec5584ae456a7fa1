"""The layer contract of the coloring tail (``repro.coloring.layers``).

A :class:`Layer` is right by construction: :func:`split_layers` is its
only builder, each layer's vertices are one label class, strictly
ascending, a CSR other than the graph's (taken only by the one-label
:func:`whole_layer`) is checked once, when the layer is built, and
every array is read-only.  Malformed labels and CSRs
raise there, before any C loop can see them.
"""

from __future__ import annotations

import numpy as np
import pytest
from tail_engines import no_c_call

from repro.coloring.layers import Layer, layer_of, split_layers, whole_layer
from repro.core import native
from repro.graphs.generators import path_graph, random_gnm

# A path 0-1-2-3-4-5 labelled [0, 0, 1, 1, 0, 2]: label 0's layer is
# [0, 1, 4].
LABELS = [0, 0, 1, 1, 0, 2]


class TestSplit:
    def test_one_layer_per_label_class_in_label_order(self):
        g = random_gnm(40, 80, seed=3)
        labels = np.random.default_rng(3).integers(-2, 5, size=40)
        layers = split_layers(g, labels)
        assert len(layers) == len(np.unique(labels))
        for label, layer in zip(np.unique(labels), layers):
            np.testing.assert_array_equal(
                layer.vertices, np.flatnonzero(labels == label)
            )
            assert layer.graph is g and layer.labels is layers[0].labels
            assert layer.offsets is g.csr()[0]
            assert layer.targets is g.csr()[1]
            assert layer.size == len(layer.vertices)
            np.testing.assert_array_equal(
                layer.induced().csr()[1],
                g.induced_subgraph(layer.vertices).csr()[1],
            )

    def test_whole_layer_is_the_one_label_split(self):
        g = path_graph(5)
        layer = whole_layer(g)
        np.testing.assert_array_equal(layer.vertices, np.arange(5))
        np.testing.assert_array_equal(layer.labels, np.zeros(5))
        assert layer.induced() is g and layer_of(g).size == 5
        assert layer_of(layer) is layer
        assert whole_layer(path_graph(0)).size == 0

    def test_whole_layer_keeps_its_own_csr(self):
        g = path_graph(4)
        layer = whole_layer(g, csr=([0, 1, 2, 3, 3], [1, 2, 3]))
        np.testing.assert_array_equal(layer.local_csr()[0], [0, 1, 2, 3, 3])
        np.testing.assert_array_equal(layer.local_csr()[1], [1, 2, 3])
        assert layer.offsets.dtype == layer.targets.dtype == np.int64
        assert not layer.on_graph

    def test_whole_layer_of_the_graphs_own_csr_is_on_the_graph(self):
        g = path_graph(4)
        for layer in (whole_layer(g), whole_layer(g, csr=g.csr())):
            assert layer.on_graph
            assert layer.offsets is g.csr()[0]
            assert layer.targets is g.csr()[1]


class TestReadOnly:
    def test_arrays_are_read_only(self):
        g = path_graph(6)
        for layer in (
            split_layers(g, LABELS)[0],
            whole_layer(g, csr=([0, 1, 2, 3, 4, 5, 5], [1, 2, 3, 4, 5])),
        ):
            for name in ("vertices", "labels", "offsets", "targets"):
                with pytest.raises(ValueError, match="read-only"):
                    getattr(layer, name)[0] = 1

    def test_attributes_cannot_be_rebound(self):
        layer = split_layers(path_graph(6), LABELS)[0]
        with pytest.raises(AttributeError):
            layer.vertices = np.array([0, 1, 2])

    def test_no_layer_but_from_a_split(self):
        with pytest.raises(TypeError, match="split_layers"):
            Layer(path_graph(4), np.arange(4), np.zeros(4, dtype=np.int64))


class TestMalformedLayers:
    """Labels and CSRs that break the contract raise ValueError while
    the layer is built, so no C loop is reached."""

    @pytest.mark.parametrize(
        "labels",
        [[LABELS], LABELS[:5], LABELS + [0], [float(v) for v in LABELS],
         [True, True, False, False, True, False]],
        ids=["2-d", "short", "long", "float", "bool"],
    )
    def test_labels_not_one_integer_per_vertex(self, labels, monkeypatch):
        monkeypatch.setattr(native, "_tail_call", no_c_call)
        with pytest.raises(ValueError, match="one integer label per vertex"):
            layer = split_layers(path_graph(6), labels)[0]
            native.cover_free_round(layer, np.arange(layer.size), 2, 5, 2)

    @pytest.mark.parametrize(
        "offsets, targets",
        [
            ([0, 1, 2, 3, 3], [1, 2, 3]),  # too few rows
            ([1, 1, 2, 3, 4, 5, 5], [1, 2, 3, 4, 5]),  # not from 0
            ([0, 2, 1, 3, 4, 5, 5], [1, 2, 3, 4, 5]),  # a negative row
            ([0, 1, 2, 3, 4, 5, 5], [1, 2, 3, 4]),  # targets short
            ([0, 1, 2, 3, 4, 5, 5], [[1, 2, 3, 4, 5]]),  # targets 2-D
            ([0, 1, 2, 3, 4, 5, 5], [1, 2, -3, 4, 5]),  # negative target
            ([0, 1, 2, 3, 4, 5, 5], [1, 2, 6, 4, 5]),  # target past n
        ],
        ids=["rows", "start", "negative-row", "short-targets",
             "2-d-targets", "negative-target", "target-past-n"],
    )
    @pytest.mark.parametrize("entry", ["cover_free_round", "kw_reduce"])
    def test_malformed_csr(self, entry, offsets, targets, monkeypatch):
        monkeypatch.setattr(native, "_tail_call", no_c_call)
        with pytest.raises(ValueError):
            layer = whole_layer(path_graph(6), csr=(offsets, targets))
            if entry == "cover_free_round":
                native.cover_free_round(layer, np.arange(6), 2, 7, 2)
            else:
                native.kw_reduce(layer, np.arange(6), 6, 3)
