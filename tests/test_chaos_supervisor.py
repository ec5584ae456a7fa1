"""Chaos harness for the fault-tolerant round supervisor.

Randomized seeded :class:`~repro.ampc.faults.FaultPlan` schedules across
shard counts and fault kinds must leave every observable —
partitions, layers, communication counters, guard peaks — bit-identical
to the fault-free serial oracle, because every recovery path re-executes
a pure shard chain.  The matrix here deliberately mixes loss modes:
picklable worker exceptions (``crash``), dead processes that break the
whole executor (``exit``), checksum-detected corruption (``garbage``),
results that cannot cross the pipe (``unpicklable``), lost
shared-memory attachments (``shm-detach``), and completion-order jitter
(``slow``).  Every leg runs ``transport="message"``: the message
fabric's shard chains are the only work the process pool runs (the
array engines fan out over threads and the scalar oracle plays
in-process), so faults can only be injected there.  Separate legs
cover the hang-deadline kill (a deliberately sleeping worker), the
degraded-to-serial fallback (every attempt faults), teardown hygiene
(no orphaned workers or /dev/shm segments after any schedule), and the
``close_shared_pools`` double-close regression.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.ampc import faults
from repro.ampc.faults import FaultPlan
from repro.ampc.messaging import owner_of
from repro.ampc.pool import (
    _SHARED_POOLS,
    close_shared_pools,
    new_recovery_counters,
    shared_pool,
)
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import preferential_attachment

# Wall-clock keys excluded from comm-counter equality.
_TIMING_KEYS = (
    "shard_wall_s", "comm_overlap_s",
    "serve_s", "install_s", "compact_s", "play_s",
)

# Every test runs under the fast_pool fixture: every round dispatches
# to the pool, and retries do not back off.  The attempts=2 gate on
# every seeded plan keeps schedules survivable by construction (attempt
# 2 runs clean; MAX_SHARD_RETRIES is 2).
pytestmark = pytest.mark.usefixtures("fast_pool")


# Every test runs at β = 9.  An lca round plays coin games only at hub
# roots (residual degree > β), and only shards that own games dispatch
# to the pool.  A preferential-attachment graph has hubs enough for
# every shard count below (TestChaosMatrix::test_every_shard_owns_hub_roots).
def _graph(seed=23):
    return preferential_attachment(150, 3, seed=seed)


def _counts(comm):
    return [
        {k: v for k, v in c.items() if k not in _TIMING_KEYS} for c in comm
    ]


def _shm_segments() -> set[str]:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()


@pytest.fixture
def fresh_pool_env():
    close_shared_pools()
    yield
    close_shared_pools()
    assert faults._ACTIVE_SET is False  # no leaked injected plan
    assert multiprocessing.active_children() == []  # no orphan workers


class TestChaosMatrix:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_every_shard_owns_hub_roots(self, shards):
        hubs = np.flatnonzero(_graph().degrees() > 9)
        assert len(hubs) >= shards
        assert set(owner_of(hubs, shards).tolist()) == set(range(shards))

    # Seed 9's schedule fires all five kinds on the round's one
    # dispatch; seed 0's fires garbage, unpicklable and slow.
    @pytest.mark.parametrize("seed", [0, 9])
    def test_fabric_survives_pipe_detach_and_slow_faults(
        self, seed, fresh_pool_env
    ):
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        plan = FaultPlan(
            seed=seed, rate=0.35, attempts=2, slow_s=0.005,
            kinds=("crash", "garbage", "unpicklable", "shm-detach", "slow"),
        )
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
                shards=8,
            )
        assert out.partition.layers == oracle.partition.layers
        assert out.unlayered_per_round == oracle.unlayered_per_round
        rec = out.round_recovery
        assert rec["retries"] > 0  # the schedule hit the pool
        assert rec["degraded_shards"] == 0  # attempts=2 gate: retry wins
        assert rec["recovery_wall_s"] >= 0.0

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_message_fabric_survives_mixed_faults(
        self, shards, fresh_pool_env
    ):
        g = _graph()
        oracle = beta_partition_ampc(
            g, 9, store="columnar", workers=1,
            transport="message", shards=shards,
        )
        plan = FaultPlan(
            seed=100 + shards, rate=0.4, attempts=2,
            kinds=("crash", "garbage", "exit"),
        )
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2,
                transport="message", shards=shards,
            )
        # The whole observable surface: layers, comm counters (words,
        # messages, sub-rounds, row requests — replayed exactly once per
        # shard despite retries), and guard peaks.
        assert out.partition.layers == oracle.partition.layers
        assert _counts(out.round_comm) == _counts(oracle.round_comm)
        assert out.max_held_words == oracle.max_held_words

    def test_explicit_schedule_hits_named_shards(self, fresh_pool_env):
        # Addressability: fault exactly shards 0 and 1 of dispatch 0 on
        # their first attempts, nothing else.
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        plan = FaultPlan({(0, 0, 0): "crash", (0, 1, 0): "garbage"})
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.partition.layers == oracle.partition.layers
        rec = out.round_recovery
        assert rec["worker_faults"] == 1  # the crash
        assert rec["checksum_rejects"] == 1  # the garbage
        assert rec["retries"] == 2

    def test_zero_fault_run_has_zero_recovery(self, fresh_pool_env):
        with faults.inject(None):  # isolate from any CI-wide chaos plan
            out = beta_partition_ampc(
                _graph(), 9, store="columnar", workers=2, transport="message",
            )
        rec = dict(out.round_recovery)
        wall = rec.pop("recovery_wall_s")
        zeros = new_recovery_counters()
        zeros.pop("recovery_wall_s")
        assert rec == zeros
        # Only checksum verification contributes, and it is tiny.
        assert wall >= 0.0


class TestHangDeadline:
    def test_hung_worker_is_killed_and_retried(
        self, fresh_pool_env, fast_pool
    ):
        # Shard 0's first attempt sleeps far past the 0.5 s deadline; the
        # supervisor must kill the executor, respawn it, and retry —
        # completing bit-identically, well before the 20 s nap ends.
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        fast_pool(POOL_DEADLINE_S=0.5)
        plan = FaultPlan({(0, 0, 0): "hang"}, hang_s=20.0)
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.partition.layers == oracle.partition.layers
        rec = out.round_recovery
        assert rec["deadline_kills"] >= 1
        assert rec["respawns"] >= 1
        assert rec["retries"] >= 1

    def test_slow_but_under_deadline_is_just_slow(self, fresh_pool_env):
        # A nap shorter than the deadline is a success, not a kill.
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        plan = FaultPlan({(0, 0, 0): "slow"}, slow_s=0.2)
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.partition.layers == oracle.partition.layers
        assert out.round_recovery["deadline_kills"] == 0
        assert out.round_recovery["retries"] == 0


class TestDegradedToSerial:
    def test_every_attempt_faulting_degrades_bit_identically(
        self, fresh_pool_env
    ):
        # rate=1.0 with no attempts gate: the pool can never succeed, so
        # after MAX_SHARD_RETRIES the supervisor runs every shard chain
        # inline on the driver — and the round must still be exact.
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        with faults.inject(FaultPlan(seed=5, rate=1.0, kinds=("crash",))):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.partition.layers == oracle.partition.layers
        rec = out.round_recovery
        assert rec["degraded_shards"] > 0
        assert rec["retries"] > 0

    def test_degraded_fabric_keeps_comm_exact(self, fresh_pool_env):
        g = _graph()
        oracle = beta_partition_ampc(
            g, 9, store="columnar", workers=1,
            transport="message", shards=3,
        )
        with faults.inject(FaultPlan(seed=5, rate=1.0, kinds=("crash",))):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2,
                transport="message", shards=3,
            )
        assert out.partition.layers == oracle.partition.layers
        assert _counts(out.round_comm) == _counts(oracle.round_comm)
        assert out.max_held_words == oracle.max_held_words
        assert out.round_recovery["degraded_shards"] > 0

    def test_pool_survives_degradation_for_next_run(self, fresh_pool_env):
        g = _graph()
        with faults.inject(FaultPlan(seed=5, rate=1.0, kinds=("crash",))):
            beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        # Degradation is per-dispatch, not a pool death sentence: the
        # next clean run uses the pool again with zero recovery.
        with faults.inject(None):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.round_recovery["degraded_shards"] == 0
        assert out.round_recovery["retries"] == 0


class TestTeardownHygiene:
    @pytest.mark.parametrize(
        "kinds",
        [("exit",), ("shm-detach",), ("crash", "exit", "garbage")],
    )
    def test_no_orphans_after_fault_schedule(self, kinds, fresh_pool_env):
        # Whatever the schedule breaks — dead workers, dropped shm
        # attachments, broken executors — nothing may leak: every
        # /dev/shm segment unlinked, every worker reaped after close.
        before = _shm_segments()
        plan = FaultPlan(seed=17, rate=0.5, attempts=2, kinds=kinds)
        with faults.inject(plan):
            out = beta_partition_ampc(
                _graph(), 9, store="columnar", workers=2,
                transport="message", shards=8,
            )
        assert out.round_recovery["retries"] > 0  # the schedule hit
        assert _shm_segments() <= before
        close_shared_pools()
        assert multiprocessing.active_children() == []

    def test_close_shared_pools_double_close(self, fresh_pool_env):
        # Regression: atexit runs close_shared_pools after a test (or a
        # service shutdown hook) may already have closed everything —
        # including pools that just tore down a broken executor.  Both
        # the second close and a close of an already-torn-down pool must
        # be clean no-ops.
        pool = shared_pool(2)
        pool._ensure_executor()
        pool._teardown_executor()  # simulate a mid-round respawn point
        close_shared_pools()
        close_shared_pools()  # the atexit double-close
        assert pool.closed
        assert _SHARED_POOLS == {}
        assert multiprocessing.active_children() == []

    def test_submit_time_broken_executor_is_recovered(self, fresh_pool_env):
        # A worker can die *between* two submissions of one dispatch, in
        # which case executor.submit raises BrokenProcessPool
        # synchronously instead of returning a failed future.  Breaking
        # the executor ahead of the run makes that race deterministic:
        # the supervisor must reap, respawn, and still finish exactly.
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        pool = shared_pool(2)
        executor = pool._ensure_executor()
        executor.submit(int).result(timeout=30)  # spawn the lazy workers
        procs = list(executor._processes.values())
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        with pytest.raises(BrokenProcessPool):
            # No worker is left, so this future can only fail; once it
            # does, the executor is flagged broken and the *next*
            # submit — the supervisor's — raises synchronously.
            executor.submit(int).result(timeout=30)
        with faults.inject(None):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.partition.layers == oracle.partition.layers
        rec = out.round_recovery
        assert rec["respawns"] >= 1
        assert rec["retries"] >= 1

    def test_persistently_broken_submit_degrades_instead_of_dropping(
        self, fresh_pool_env, monkeypatch
    ):
        # Regression: when *every* submit of a pass raises
        # BrokenProcessPool synchronously (an executor broken by a prior
        # round, or the last shard after its siblings degraded), the
        # supervisor ends the pass with nothing in flight while the lost
        # shards sit re-queued in `pending`.  An early `break` there
        # dropped them — never delivered, never degraded, no error — and
        # the round completed with a wrong partition.  The loop must
        # instead keep draining `pending` until each shard is delivered
        # or runs inline as degraded.
        pool = shared_pool(2)
        monkeypatch.setattr(pool, "_ensure_executor", lambda: None)

        def submit(executor, key, fault_key, plan):
            raise BrokenProcessPool("permanently broken")

        delivered = []
        with faults.inject(None):
            pool._run_supervised(
                2,
                submit,
                inline=lambda key: ("inline", key),
                deliver=lambda key, result, others: delivered.append(
                    (key, result, others)
                ),
                verify=lambda result: None,
            )
        assert sorted(delivered) == [
            # others_running reflects the degraded shards still queued
            # behind this one (exactly-once, overlap-accounted).
            (0, ("inline", 0), True),
            (1, ("inline", 1), False),
        ]
        assert pool.recovery["degraded_shards"] == 2
        assert pool.recovery["respawns"] >= 1
        assert not pool.closed

    def test_teardown_executor_keeps_pool_open(self, fresh_pool_env):
        pool = shared_pool(2)
        pool._ensure_executor()
        pool._teardown_executor()
        assert not pool.closed  # self-healing, not shutdown
        assert pool._executor is None
        pool._ensure_executor()  # respawns lazily
        assert pool._executor is not None
        close_shared_pools()
