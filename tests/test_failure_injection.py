"""Failure injection: corrupted artifacts and broken workers must be *detected*.

Every experiment trusts the validators to fail loudly; these tests mutate
correct outputs in targeted ways and assert the validators notice.  A
validator that silently accepts garbage would make every green table in
EXPERIMENTS.md meaningless.  The worker-pool section injects seeded
:class:`~repro.ampc.faults.FaultPlan` faults into the message fabric's
pooled shard chains — an exception mid-round, a poisoned (unpicklable)
result, a worker death — and asserts the round supervisor recovers each
one with a bit-identical partition; with recovery disabled
(``MAX_SHARD_RETRIES = 0``, ``POOL_DEGRADE = False``) the same faults must
surface as one clear, context-carrying :class:`WorkerPoolError` with no
orphan worker processes left behind.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampc import faults
from repro.ampc.faults import FaultPlan
from repro.ampc.pool import (
    CoinGamePool,
    WorkerPoolError,
    close_shared_pools,
)
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
def fresh_pool_env():
    """Isolate pool state: shared pools from earlier tests must not leak
    in, and whatever this test breaks must not leak out."""
    close_shared_pools()
    yield
    close_shared_pools()
    assert faults._ACTIVE_SET is False  # no leaked injected plan
    assert multiprocessing.active_children() == []  # no orphan workers


# Every shard of every dispatch faults on its first attempt; retries
# (attempt >= 1) run clean.
_FIRST_ATTEMPT = dict(seed=1, rate=1.0, attempts=1)
# Every attempt faults, forever: with degradation disabled this must
# exhaust the retry budget and raise.
_ALWAYS = dict(seed=1, rate=1.0)

# Pool constants (pinned through the fast_pool fixture).  Recovery
# disabled: the first fault must surface as WorkerPoolError.
_NO_RECOVERY = dict(MAX_SHARD_RETRIES=0, POOL_DEGRADE=False)
# Bounded retries, no degradation.
_NO_DEGRADE = dict(POOL_DEGRADE=False)


@pytest.mark.usefixtures("fast_pool")
class TestWorkerPoolFaults:
    def _partition(self, workers):
        # fast_pool forces dispatch: this round is smaller than the
        # default MIN_POOL_GAMES, and the faults only fire inside worker
        # processes — which only the message fabric's shard chains use
        # (the array engines fan out over threads, the scalar oracle
        # plays in-process).
        g = random_gnm(120, 240, seed=13)
        return beta_partition_ampc(
            g, 9, store="columnar", workers=workers, transport="message",
        )

    def _oracle_layers(self):
        return self._partition(workers=1).partition.layers

    def test_worker_exception_is_recovered(self, fresh_pool_env):
        with faults.inject(FaultPlan(kinds=("crash",), **_FIRST_ATTEMPT)):
            outcome = self._partition(workers=2)
        assert outcome.partition.layers == self._oracle_layers()
        assert outcome.round_recovery["retries"] > 0
        assert outcome.round_recovery["worker_faults"] > 0

    def test_unpicklable_result_is_recovered(self, fresh_pool_env):
        with faults.inject(
            FaultPlan(kinds=("unpicklable",), **_FIRST_ATTEMPT)
        ):
            outcome = self._partition(workers=2)
        assert outcome.partition.layers == self._oracle_layers()
        assert outcome.round_recovery["retries"] > 0

    def test_worker_death_is_recovered(self, fresh_pool_env):
        with faults.inject(FaultPlan(kinds=("exit",), **_FIRST_ATTEMPT)):
            outcome = self._partition(workers=2)
        assert outcome.partition.layers == self._oracle_layers()
        assert outcome.round_recovery["respawns"] > 0

    def test_corrupted_result_is_rejected_and_recovered(
        self, fresh_pool_env
    ):
        with faults.inject(FaultPlan(kinds=("garbage",), **_FIRST_ATTEMPT)):
            outcome = self._partition(workers=2)
        assert outcome.partition.layers == self._oracle_layers()
        assert outcome.round_recovery["checksum_rejects"] > 0

    def test_worker_exception_surfaces_clearly(
        self, fresh_pool_env, fast_pool
    ):
        fast_pool(**_NO_RECOVERY)
        with faults.inject(FaultPlan(kinds=("crash",), **_ALWAYS)):
            with pytest.raises(
                WorkerPoolError, match="injected worker fault"
            ) as info:
                self._partition(workers=2)
        err = info.value
        assert err.shard is not None and err.attempts == 1
        assert err.outcomes and "InjectedFault" in err.outcomes[0]
        assert isinstance(err.__cause__, Exception)

    def test_retry_exhaustion_surfaces_attempt_history(
        self, fresh_pool_env, fast_pool
    ):
        fast_pool(**_NO_DEGRADE)
        with faults.inject(FaultPlan(kinds=("crash",), **_ALWAYS)):
            with pytest.raises(WorkerPoolError) as info:
                self._partition(workers=2)
        err = info.value
        # MAX_SHARD_RETRIES = 2: initial try + 2 retries, all logged.
        assert err.attempts == 3
        assert len(err.outcomes) == 3
        assert err.__cause__ is err.cause

    def test_faulted_pool_is_closed_and_replaced(
        self, fresh_pool_env, fast_pool
    ):
        fast_pool(**_NO_RECOVERY)
        with faults.inject(FaultPlan(kinds=("crash",), **_ALWAYS)):
            with pytest.raises(WorkerPoolError):
                self._partition(workers=2)
        assert multiprocessing.active_children() == []
        # The poisoned pool was dropped: clearing the fault and retrying
        # lazily builds a fresh one and succeeds.
        with faults.inject(None):
            outcome = self._partition(workers=2)
        assert outcome.partition.layers == self._oracle_layers()

    def test_serial_path_ignores_fault_plan(self, fresh_pool_env):
        # workers=1 never constructs a pool: the fault hooks must be dead
        # code there, and no child process may appear.
        with faults.inject(FaultPlan(kinds=("crash",), **_ALWAYS)):
            before = multiprocessing.active_children()
            outcome = self._partition(workers=1)
            assert multiprocessing.active_children() == before
        assert not outcome.partition.is_partial(range(120))

    def test_pool_shutdown_mid_partition_is_loud(self, fresh_pool_env):
        pool = CoinGamePool(workers=2)
        pool.close()
        offsets = np.array([0, 1, 2], dtype=np.int64)
        targets = np.array([1, 0], dtype=np.int64)
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.run_games(
                offsets, targets, [(0, np.array([0], dtype=np.int64))],
                {}, on_result=lambda *result: None,
            )

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
