"""Tests for the array-backed ColumnStore and the batched round API."""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.ampc.columnar import ColumnStore
from repro.ampc.machine import SpaceExceeded
from repro.ampc.simulator import AMPCSimulator
from repro.core.columnar_rounds import peel_round_kernel


def _loaded_store(n=5, name="D0") -> ColumnStore:
    """A store holding the path 0-1-2-3 plus isolated vertex 4."""
    store = ColumnStore(n, name=name)
    offsets = np.array([0, 1, 3, 5, 6, 6], dtype=np.int64)
    targets = np.array([1, 0, 2, 1, 3, 2], dtype=np.int64)
    store.load_residual_csr(np.arange(n), offsets, targets)
    return store


class TestBulkContract:
    """The bulk column API the columnar round loop uses."""

    def test_total_words_counts_logical_pairs(self):
        store = _loaded_store()
        assert store.total_words() == 5 + 6  # five deg words + six adj words
        store.install_layer_column(
            np.array([np.inf, 0.0, np.inf, 1.0, np.inf]),
            np.array([0, 1, 0, 3, 0], dtype=np.int64),
        )
        assert store.total_words() == 5 + 6 + 4
        store.reduce_per_key(min)
        assert store.total_words() == 5 + 6 + 2

    def test_total_words_counts_only_alive_deg_keys(self):
        """Dead rows have no ("deg", v) key, as in the dict encoding."""
        store = ColumnStore(4)
        store.load_residual_csr(
            np.array([0, 1]),
            np.array([0, 1, 2, 2, 2], dtype=np.int64),
            np.array([1, 0], dtype=np.int64),
        )
        assert store.total_words() == 2 + 2

    def test_columns_must_cover_the_universe(self):
        with pytest.raises(ValueError):
            ColumnStore(3).load_residual_csr(
                np.arange(3), np.zeros(3, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        with pytest.raises(ValueError):
            ColumnStore(3).install_layer_column(
                np.full(2, np.inf), np.zeros(2, np.int64)
            )

    def test_adjacency_csr_before_install_raises(self):
        with pytest.raises(KeyError):
            ColumnStore(3).adjacency_csr()

    def test_install_layer_column_twice_raises(self):
        store = ColumnStore(3)
        store.install_layer_column(
            np.array([np.inf, 0.0, np.inf]), np.array([0, 1, 0], np.int64)
        )
        with pytest.raises(NotImplementedError):
            store.install_layer_column(
                np.full(3, np.inf), np.zeros(3, np.int64)
            )

    def test_non_min_reducer_on_multi_proposal_layers_raises(self):
        store = ColumnStore(3)
        store.install_layer_column(
            np.array([np.inf, 1.0, np.inf]), np.array([0, 2, 0], np.int64)
        )
        with pytest.raises(NotImplementedError):
            store.reduce_per_key(max)
        store.reduce_per_key(min)  # the advertised reducer still works
        vs, lays = store.layer_assignments()
        assert vs.tolist() == [1] and lays.tolist() == [1.0]
        # Single-proposal columns reduce as a no-op under any reducer.
        store2 = ColumnStore(3)
        store2.install_layer_column(
            np.array([5.0, np.inf, np.inf]), np.array([1, 0, 0], np.int64)
        )
        store2.reduce_per_key(max)
        assert store2.layer_assignments()[1].tolist() == [5.0]

    def test_layer_assignments_bulk_getter(self):
        store = ColumnStore(6)
        assert store.layer_assignments()[0].size == 0
        minima = np.full(6, np.inf)
        minima[[2, 5]] = [0.0, 1.0]
        store.install_layer_column(
            minima, np.array([0, 0, 1, 0, 0, 2], dtype=np.int64)
        )
        vs, lays = store.layer_assignments()
        assert vs.tolist() == [2, 5]
        assert lays.tolist() == [0.0, 1.0]

    def test_held_words_counts_array_lengths(self):
        store = _loaded_store()
        assert store.held_words() == 6 + 6  # offsets + targets
        store.install_layer_column(np.full(5, np.inf), np.zeros(5, np.int64))
        assert store.held_words() == 6 + 6 + 5 + 5


class TestRoundVectorized:
    def test_requires_columnar_backend(self):
        sim = AMPCSimulator(10, store="dict")
        with pytest.raises(TypeError):
            sim.round_vectorized(np.arange(3), lambda batch: None)
        with pytest.raises(TypeError):
            sim.port_residual_csr(
                np.arange(3), np.zeros(4, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )

    def test_per_key_api_requires_dict_backend(self):
        sim = AMPCSimulator(10, store="columnar", num_vertices=3)
        with pytest.raises(TypeError, match="load_input"):
            sim.load_input([(("deg", 0), 0)])
        with pytest.raises(TypeError, match="port_to_current"):
            sim.port_to_current([(("deg", 0), 0)])
        with pytest.raises(TypeError, match="round"):
            sim.round([])
        assert len(sim.stores) == 1 and not sim.stats.rounds

    def test_kernel_stats_match_scalar_round(self):
        """The same logical round through both APIs: identical RoundStats."""
        def build(store_kind):
            sim = AMPCSimulator(
                100, store=store_kind,
                num_vertices=4 if store_kind == "columnar" else None,
            )
            offsets = np.array([0, 1, 2, 2, 2], dtype=np.int64)
            targets = np.array([1, 0], dtype=np.int64)
            if store_kind == "columnar":
                sim.port_residual_csr(np.arange(4), offsets, targets)
            else:
                sim.load_input([
                    (("deg", 0), 1), (("adj", 0, 0), 1),
                    (("deg", 1), 1), (("adj", 1, 0), 0),
                    (("deg", 2), 0), (("deg", 3), 0),
                ])
            return sim

        scalar = build("dict")

        def task(v):
            def run(ctx):
                if ctx.read(("deg", v)) <= 0:
                    ctx.write(("layer", v), 0)
            return v, run

        scalar.round([task(v) for v in range(4)], reducer=min)

        vector = build("columnar")
        store = vector.round_vectorized(
            np.arange(4), partial(peel_round_kernel, beta=0), reducer=min
        )
        a, b = scalar.stats.rounds[0], vector.stats.rounds[0]
        for field in ("machines_active", "max_reads", "max_writes",
                      "total_reads", "total_writes", "store_words"):
            assert getattr(a, field) == getattr(b, field), field
        for store_a, store_b in zip(scalar.stores, vector.stores):
            assert store_a.total_words() == store_b.total_words()
        vs, lays = store.layer_assignments()
        assert vs.tolist() == [2, 3]
        assert lays.tolist() == [0.0, 0.0]

    def test_strict_budget_raises_named_machine(self):
        sim = AMPCSimulator(
            4, delta=0.5, strict_space=True, store="columnar", num_vertices=3
        )
        sim.port_residual_csr(
            np.arange(3),
            np.array([0, 0, 0, 0], dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )

        def kernel(batch):
            batch.account(
                np.array([1, 99, 1], dtype=np.int64),
                np.zeros(3, dtype=np.int64),
            )

        with pytest.raises(SpaceExceeded, match="machine 1"):
            sim.round_vectorized(np.arange(3), kernel)
        # The failed round leaves no partial state behind.
        assert len(sim.stats.rounds) == 0
        assert len(sim.stores) == 1
