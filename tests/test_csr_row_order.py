"""Every CSR a fleet of coin games plays on has strictly ascending rows.

The compiled kernel reads a hub's forwarding set off the row's first
β+1 non-members in CSR order (all non-members tie on σ and break ties by
id), so sorted rows are a correctness precondition of the kernel, not
just a matter of reproducible iteration.  These tests check each
producer of such a CSR: ``Graph.csr()``, ``residual_csr`` over a random
alive set, a fabric shard's CSR and the ``query_all`` CSR — the
last three by spying on :func:`repro.core.columnar_rounds.play_fleet`,
the one fleet player they all call — and the closed CSR
(:func:`repro.core.columnar_rounds.close_empty_rows`) the fleet player
hands the batched engine.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar_rounds
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import close_empty_rows, residual_csr
from repro.graphs.generators import (
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)
from repro.lca.partial_partition_lca import PartialPartitionLCA


def _assert_rows_ascending(offsets, targets):
    offsets = np.asarray(offsets)
    targets = np.asarray(targets)
    assert offsets[0] == 0 and offsets[-1] == len(targets)
    row_start = np.zeros(len(targets), dtype=bool)
    starts = offsets[:-1]
    row_start[starts[starts < len(targets)]] = True
    assert (np.diff(targets)[~row_start[1:]] > 0).all()


@pytest.fixture
def fleet_csrs(monkeypatch):
    """Check the CSR of every ``play_fleet`` call; returns the call count."""
    calls = []
    real = columnar_rounds.play_fleet

    def checked(offsets, targets, *args, **kwargs):
        _assert_rows_ascending(offsets, targets)
        calls.append(len(offsets) - 1)
        return real(offsets, targets, *args, **kwargs)

    monkeypatch.setattr(columnar_rounds, "play_fleet", checked)
    return calls


@pytest.mark.parametrize("seed", [0, 1])
def test_graph_and_residual_csr(seed):
    g = preferential_attachment(400, 3, seed=seed)
    _assert_rows_ascending(*g.csr())
    rng = np.random.default_rng(seed)
    alive = np.flatnonzero(rng.random(g.num_vertices) < 0.6)
    _assert_rows_ascending(*residual_csr(g, alive))


def test_shm_rounds(fleet_csrs):
    g = random_gnm(300, 700, seed=2)
    beta_partition_ampc(g, 4, store="columnar", engine="batched", workers=1)
    assert fleet_csrs


def test_fabric_shard_local_csr(fleet_csrs):
    # Several rounds on a sparse shape leave shards with fringe vertices
    # whose synthetic reverse rows (batched engine) hold several edges.
    g = union_of_random_forests(500, 2, seed=1)
    out = beta_partition_ampc(
        g, 4, x=4, store="columnar", engine="batched",
        transport="message", shards=4, workers=1,
    )
    assert out.transport == "message"
    # Shards play one CSR over the global id range, as the shm round.
    assert fleet_csrs and set(fleet_csrs) == {g.num_vertices}


def test_query_all(fleet_csrs):
    g = preferential_attachment(200, 3, seed=4)
    PartialPartitionLCA(g, x=49, beta=6, engine="batched").query_all()
    assert fleet_csrs


_SHAPES = {
    "gnm": lambda n, seed: random_gnm(n, 2 * n, seed=seed),
    "pa": lambda n, seed: preferential_attachment(n, 3, seed=seed),
    "forests": lambda n, seed: union_of_random_forests(n, 3, seed=seed),
}


def _fringe_closure(offsets, targets, held):
    """Reference: every held row as is, and each unheld row (empty) given
    the held rows that list it, built edge by edge from the fringe."""
    u_count = len(offsets) - 1
    deg_held = np.diff(offsets)
    held_src = np.repeat(np.arange(u_count, dtype=np.int64), deg_held)
    fringe_edge = ~held[targets]
    syn_src = targets[fringe_edge]
    syn_tgt = held_src[fringe_edge]
    deg = deg_held + np.bincount(syn_src, minlength=u_count)
    closed_offsets = np.zeros(u_count + 1, dtype=np.int64)
    np.cumsum(deg, out=closed_offsets[1:])
    order = np.lexsort((syn_tgt, syn_src))
    syn_src, syn_tgt = syn_src[order], syn_tgt[order]
    rows = [
        targets[offsets[v]:offsets[v + 1]] if held[v]
        else syn_tgt[syn_src == v]
        for v in range(u_count)
    ]
    return closed_offsets, np.concatenate(rows)


@given(
    st.sampled_from(sorted(_SHAPES)),
    st.integers(10, 120),  # n
    st.integers(0, 2**31),  # seed
)
@settings(max_examples=40, deadline=None)
def test_close_empty_rows_is_the_fringe_closure(shape, n, seed):
    g = _SHAPES[shape](n, seed)
    offsets, targets = g.csr()
    # The full CSR lists no empty row: the same objects come back.
    closed = close_empty_rows(offsets, targets)
    assert closed[0] is offsets and closed[1] is targets
    # A third of the rows emptied, like a fabric shard's unheld rows.
    held = np.random.default_rng(seed).random(g.num_vertices) >= 1 / 3
    targets = targets[np.repeat(held, np.diff(offsets))]
    offsets = np.concatenate(([0], np.cumsum(np.diff(offsets) * held)))
    closed_offsets, closed_targets = close_empty_rows(offsets, targets)
    want_offsets, want_targets = _fringe_closure(offsets, targets, held)
    assert np.array_equal(closed_offsets, want_offsets)
    assert np.array_equal(closed_targets, want_targets)
    _assert_rows_ascending(closed_offsets, closed_targets)
    if not (~held[targets]).any():
        assert closed_offsets is offsets and closed_targets is targets
