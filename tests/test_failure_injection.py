"""Failure injection: corrupted artifacts and broken workers must be *detected*.

Every experiment trusts the validators to fail loudly; these tests mutate
correct outputs in targeted ways and assert the validators notice.  A
validator that silently accepts garbage would make every green table in
EXPERIMENTS.md meaningless.  The worker-pool section breaks the message
fabric's shard chains on the game threads: an exception a chain raises
must surface unchanged, a row slab corrupted on every attempt must
surface as its :class:`~repro.ampc.faults.ChecksumError` once the
re-runs run out, and the serial path must ignore fault plans.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampc import faults, pool
from repro.ampc.faults import ChecksumError, FaultPlan
from repro.ampc.pool import CoinGamePool
from repro.coloring.pipeline import coloring_two_plus_eps
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.orientation import Orientation, orient_by_partition
from repro.graphs.generators import random_gnm, union_of_random_forests
from repro.graphs.validation import is_proper_coloring
from repro.partition.beta_partition import INFINITY
from repro.partition.induced import natural_beta_partition
from repro.util.rng import SplitMix64


def _graph(seed: int = 60):
    return union_of_random_forests(70, 2, seed=seed)


class TestColoringCorruption:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_copying_a_neighbor_color_is_detected(self, seed):
        g = _graph()
        res = coloring_two_plus_eps(g, 2, eps=1.0)
        colors = list(res.colors)
        rng = SplitMix64(seed)
        # Corrupt: make a random non-isolated vertex copy a neighbor.
        for _ in range(100):
            v = rng.randrange(g.num_vertices)
            if g.degree(v):
                w = int(g.neighbors(v)[rng.randrange(g.degree(v))])
                colors[v] = colors[w]
                break
        assert not is_proper_coloring(g, colors)

    def test_missing_vertex_is_detected(self):
        g = _graph()
        res = coloring_two_plus_eps(g, 2, eps=1.0)
        colors = {v: res.colors[v] for v in g.vertices()}
        del colors[0]
        assert not is_proper_coloring(g, colors)


class TestPartitionCorruption:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=10, deadline=None)
    def test_demoting_a_hub_is_detected(self, seed):
        g = _graph()
        beta = 6
        partition = natural_beta_partition(g, beta)
        rng = SplitMix64(seed)
        # Corrupt: drop a vertex of degree > beta to layer 0 while its
        # neighbors keep higher-or-equal layers.
        heavy = [v for v in g.vertices() if g.degree(v) > beta]
        if not heavy:
            return
        victim = heavy[rng.randrange(len(heavy))]
        mutated = partition.copy()
        mutated.layers[victim] = 0
        for w in g.neighbors(victim):
            mutated.layers[int(w)] = 5
        assert not mutated.is_valid(g, beta)

    def test_promoting_everything_to_one_layer_fails_for_dense(self):
        from repro.graphs.generators import complete_graph

        g = complete_graph(9)
        flat = natural_beta_partition(g, 8).copy()
        # All in one layer: every vertex has 8 same-layer neighbors > beta=4.
        assert not flat.is_valid(g, 4)


class TestOrientationCorruption:
    def test_reversed_edge_creates_cycle_or_is_caught(self):
        g = _graph()
        beta = 6
        partition = natural_beta_partition(g, beta)
        ori = orient_by_partition(g, partition)
        # Corrupt: add a back edge for the first directed edge found.
        outs = [list(o) for o in ori.out_neighbors]
        for v, targets in enumerate(outs):
            if targets:
                w = targets[0]
                outs[w].append(v)  # now v <-> w: a 2-cycle
                break
        assert not Orientation(graph=g, out_neighbors=outs).is_acyclic()

    def test_dropping_an_edge_changes_coverage(self):
        g = _graph()
        partition = natural_beta_partition(g, 6)
        ori = orient_by_partition(g, partition)
        directed = sum(len(o) for o in ori.out_neighbors)
        outs = [list(o) for o in ori.out_neighbors]
        for v, targets in enumerate(outs):
            if targets:
                targets.pop()
                break
        assert sum(len(o) for o in outs) == directed - 1  # caught by count


@pytest.fixture
def no_leaked_plan():
    yield
    assert faults._ACTIVE_SET is False  # no leaked injected plan


# Every attempt of every shard faults, forever.
_ALWAYS = dict(seed=1, rate=1.0)


@pytest.mark.usefixtures("fast_pool", "no_leaked_plan")
class TestWorkerPoolFaults:
    def _partition(self, workers):
        # fast_pool forces dispatch: this round is smaller than the
        # default MIN_POOL_GAMES, and faults only fire in the message
        # fabric's shard chains run through the pool (the array engines
        # fan their fleets out themselves, the scalar oracle plays
        # in-process).
        g = random_gnm(120, 240, seed=13)
        return beta_partition_ampc(
            g, 9, store="columnar", workers=workers, transport="message",
        )

    def test_worker_exception_surfaces_clearly(self, monkeypatch):
        # A chain's exception reaches the caller as raised on the game
        # thread: same object, not wrapped, not retried.
        failure = RuntimeError("chain failed")
        calls = []

        def chain(*args, **kwargs):
            calls.append(1)
            raise failure

        monkeypatch.setattr(pool, "run_shard_chain", chain)
        with pytest.raises(RuntimeError) as info:
            self._partition(workers=2)
        assert info.value is failure
        assert len(calls) <= 2  # one per dispatched shard, no re-run

    def test_retry_exhaustion_surfaces_checksum_error(self, monkeypatch):
        real = pool.run_shard_chain
        faulted = []

        def chain(*args, fault=None, **kwargs):
            faulted.append(fault is not None)
            return real(*args, fault=fault, **kwargs)

        monkeypatch.setattr(pool, "run_shard_chain", chain)
        with faults.inject(FaultPlan(kinds=("slab",), **_ALWAYS)):
            with pytest.raises(ChecksumError, match="checksum mismatch"):
                self._partition(workers=2)
        # The failing shard got its first attempt plus MAX_SHARD_RETRIES
        # (2) re-runs, each with a fault drawn for its own attempt.
        assert sum(faulted) >= 1 + pool.MAX_SHARD_RETRIES

    def test_serial_path_ignores_fault_plan(self):
        # workers=1 never constructs a pool: the fault hooks must be dead
        # code there.
        with faults.inject(FaultPlan(kinds=("slab",), **_ALWAYS)):
            outcome = self._partition(workers=1)
        assert not outcome.partition.is_partial(range(120))
        assert outcome.round_recovery == {}

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ValueError):
            beta_partition_ampc(random_gnm(10, 15, seed=1), 3, workers=0)
        with pytest.raises(ValueError):
            CoinGamePool(workers=1)


class TestGuaranteeTightness:
    def test_beta_partition_validator_rejects_beta_minus_one(self):
        """The natural β-partition is tight: some vertex uses its full β
        budget, so validating against β-1 must fail on dense-enough inputs."""
        g = union_of_random_forests(100, 3, seed=61)
        beta = 7
        partition = natural_beta_partition(g, beta)
        assert partition.is_valid(g, beta)
        budgets = []
        for v in g.vertices():
            lay = partition.layer(v)
            if lay == INFINITY:
                continue
            budgets.append(
                sum(1 for w in g.neighbors(v) if partition.layer(int(w)) >= lay)
            )
        if max(budgets, default=0) == beta:
            assert not partition.is_valid(g, beta - 1)
