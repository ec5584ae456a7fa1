"""Every CSR a fleet of coin games plays on has strictly ascending rows.

The compiled kernel reads a hub's forwarding set off the row's first
β+1 non-members in CSR order (all non-members tie on σ and break ties by
id), so sorted rows are a correctness precondition of the kernel, not
just a matter of reproducible iteration.  These tests check each
producer of such a CSR: ``Graph.csr()``, ``residual_csr`` over a random
alive set, a fabric shard's local CSR and the ``query_all`` CSR — the
last three by spying on :func:`repro.core.columnar_rounds.play_fleet`,
the one fleet player they all call.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import columnar_rounds
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import residual_csr
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
    # Shard-local CSRs are smaller than the vertex universe.
    assert any(n < g.num_vertices for n in fleet_csrs)


def test_query_all(fleet_csrs):
    g = preferential_attachment(200, 3, seed=4)
    PartialPartitionLCA(g, x=49, beta=6, engine="batched").query_all()
    assert fleet_csrs
