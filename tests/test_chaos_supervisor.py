"""Chaos harness for the message fabric's threaded shard chains.

Randomized seeded :class:`~repro.ampc.faults.FaultPlan` schedules across
shard counts must leave every observable — partitions, layers,
communication counters, guard peaks — bit-identical to the fault-free
serial oracle, because a chain whose row slab fails its checksum is
re-run, and a shard chain is a pure function of its inputs.  The matrix
mixes the two fault kinds: corrupted row slabs (``slab``) and
completion-order jitter (``slow``).  Every leg runs
``transport="message"``: the message fabric's shard chains are the only
work the pool runs (the array engines fan their fleets out themselves
and the scalar oracle plays in-process), so faults can only be injected
there.  Separate legs cover addressability, a zero-fault run's
counters, and what a failing round leaves behind.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.ampc import faults, pool
from repro.ampc.faults import FaultPlan
from repro.ampc.messaging import owner_of
from repro.ampc.pool import close_shared_pools
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import preferential_attachment

# Wall-clock keys excluded from comm-counter equality.
_TIMING_KEYS = (
    "shard_wall_s", "comm_overlap_s",
    "serve_s", "install_s", "compact_s", "play_s",
)

# Every test runs under the fast_pool fixture: every round dispatches
# its chains to the game threads.  The attempts=2 gate on every seeded
# plan keeps schedules survivable by construction (attempt 2 runs
# clean; MAX_SHARD_RETRIES is 2).
pytestmark = pytest.mark.usefixtures("fast_pool")


# Every test runs at β = 9.  An lca round plays coin games only at hub
# roots (residual degree > β), and only shards that own games run a
# chain.  A preferential-attachment graph has hubs enough for every
# shard count below (TestChaosMatrix::test_every_shard_owns_hub_roots).
def _graph(seed=23):
    return preferential_attachment(150, 3, seed=seed)


def _counts(comm):
    return [
        {k: v for k, v in c.items() if k not in _TIMING_KEYS} for c in comm
    ]


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    assert faults._ACTIVE_SET is False  # no leaked injected plan


class TestChaosMatrix:
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_every_shard_owns_hub_roots(self, shards):
        hubs = np.flatnonzero(_graph().degrees() > 9)
        assert len(hubs) >= shards
        assert set(owner_of(hubs, shards).tolist()) == set(range(shards))

    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_message_fabric_survives_mixed_faults(self, shards):
        g = _graph()
        oracle = beta_partition_ampc(
            g, 9, store="columnar", workers=1,
            transport="message", shards=shards,
        )
        plan = FaultPlan(
            seed=100 + shards, rate=0.4, attempts=2, slow_s=0.005,
            kinds=("slab", "slow"),
        )
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2,
                transport="message", shards=shards,
            )
        # The whole observable surface: layers, comm counters (words,
        # messages, sub-rounds, row requests — replayed exactly once per
        # shard despite re-runs), and guard peaks.
        assert out.partition.layers == oracle.partition.layers
        assert _counts(out.round_comm) == _counts(oracle.round_comm)
        assert out.max_held_words == oracle.max_held_words

    def test_explicit_schedule_hits_named_shards(self):
        # Addressability: corrupt exactly jobs 0 and 1 of dispatch 0 on
        # their first attempts, nothing else.
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        plan = FaultPlan({(0, 0, 0): "slab", (0, 1, 0): "slab"})
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.partition.layers == oracle.partition.layers
        assert out.round_recovery == {"retries": 2}

    def test_zero_fault_run_has_zero_recovery(self):
        with faults.inject(None):  # isolate from any CI-wide chaos plan
            out = beta_partition_ampc(
                _graph(), 9, store="columnar", workers=2, transport="message",
            )
        assert out.round_recovery == {"retries": 0}


class TestSlowChains:
    def test_slow_chain_is_just_slow(self):
        # A napping chain is a late success, never a re-run.
        g = _graph()
        oracle = beta_partition_ampc(g, 9, store="columnar", workers=1)
        plan = FaultPlan({(0, 0, 0): "slow"}, slow_s=0.2)
        with faults.inject(plan):
            out = beta_partition_ampc(
                g, 9, store="columnar", workers=2, transport="message",
            )
        assert out.partition.layers == oracle.partition.layers
        assert out.round_recovery["retries"] == 0


class TestTeardownHygiene:
    def test_close_shared_pools_double_close(self):
        # Harnesses close pools between runs and again at exit: both
        # calls are clean no-ops, and the next run still fans out.
        close_shared_pools()
        close_shared_pools()
        out = beta_partition_ampc(
            _graph(), 9, store="columnar", workers=2, transport="message",
        )
        assert out.round_recovery["retries"] == 0

    def test_a_failing_chain_surfaces_after_its_siblings_finish(
        self, monkeypatch
    ):
        # A chain's exception reaches the caller only once every other
        # running chain of the round has returned, so no chain outlives
        # the call that started it.
        real = pool.run_shard_chain
        running: set[int] = set()
        lock = threading.Lock()

        def chain(offsets, targets, sid, **kwargs):
            with lock:
                running.add(sid)
            try:
                if sid == 0:
                    raise RuntimeError("chain 0 failed")
                time.sleep(0.05)
                return real(offsets, targets, sid, **kwargs)
            finally:
                with lock:
                    running.discard(sid)

        monkeypatch.setattr(pool, "run_shard_chain", chain)
        with pytest.raises(RuntimeError, match="chain 0 failed"):
            beta_partition_ampc(
                _graph(), 9, store="columnar", workers=2,
                transport="message", shards=8,
            )
        assert running == set()
