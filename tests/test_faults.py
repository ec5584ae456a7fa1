"""Unit tests for the seeded fault-injection layer (repro.ampc.faults).

The chaos harness is only as trustworthy as its determinism: a failing
schedule must replay exactly from its seed/spec, an injected plan must
beat the CI env shim, and the row-slab checksum must catch any
byte-level corruption.  Integration coverage (faults actually recovered
by re-running shard chains) lives in test_chaos_supervisor.py,
test_pooled_fabric.py and test_failure_injection.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ampc import faults
from repro.ampc.faults import (
    FAULT_KINDS,
    ChecksumError,
    FaultPlan,
    FaultSpec,
    rows_checksum,
)


class TestFaultPlanLookup:
    def test_empty_plan_never_faults(self):
        plan = FaultPlan()
        assert all(
            plan.lookup(r, s, a) is None
            for r in range(4) for s in range(4) for a in range(4)
        )

    def test_explicit_entry_fires_only_at_its_key(self):
        plan = FaultPlan({(2, 1, 0): "slab"})
        assert plan.lookup(2, 1, 0) == FaultSpec("slab")
        assert plan.lookup(2, 1, 1) is None
        assert plan.lookup(2, 0, 0) is None
        assert plan.lookup(0, 1, 0) is None

    def test_seeded_sampling_is_deterministic(self):
        a = FaultPlan(seed=7, rate=0.5, kinds=("slab", "slow"))
        b = FaultPlan(seed=7, rate=0.5, kinds=("slab", "slow"))
        keys = [(r, s, at) for r in range(10) for s in range(4)
                for at in range(3)]
        assert [a.lookup(*k) for k in keys] == [b.lookup(*k) for k in keys]
        # A different seed draws a different schedule.
        c = FaultPlan(seed=8, rate=0.5, kinds=("slab", "slow"))
        assert [a.lookup(*k) for k in keys] != [c.lookup(*k) for k in keys]

    def test_rate_one_faults_everything_rate_zero_nothing(self):
        hot = FaultPlan(seed=3, rate=1.0)
        cold = FaultPlan(seed=3, rate=0.0)
        for key in [(0, 0, 0), (5, 2, 1), (99, 7, 3)]:
            assert hot.lookup(*key) is not None
            assert cold.lookup(*key) is None

    def test_attempts_gate_makes_plan_survivable(self):
        plan = FaultPlan(seed=3, rate=1.0, attempts=2)
        assert plan.lookup(0, 0, 0) is not None
        assert plan.lookup(0, 0, 1) is not None
        assert plan.lookup(0, 0, 2) is None  # retries past the gate run clean

    def test_rate_spread_roughly_matches(self):
        plan = FaultPlan(seed=11, rate=0.25, kinds=("slab",))
        n = 2000
        hits = sum(
            plan.lookup(r, s, 0) is not None
            for r in range(n // 4) for s in range(4)
        )
        assert 0.15 < hits / n < 0.35

    def test_slow_carries_its_duration(self):
        plan = FaultPlan({(0, 0, 0): "slab", (0, 1, 0): "slow"}, slow_s=0.5)
        assert plan.lookup(0, 0, 0) == FaultSpec("slab")
        assert plan.lookup(0, 1, 0) == FaultSpec("slow", 0.5)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(kinds=("segfault",), seed=1, rate=0.5)
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan({(0, 0, 0): "segfault"})
        # The process-only kinds are gone with the process pool.
        for kind in ("crash", "exit", "hang", "garbage", "unpicklable",
                     "shm-detach"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                FaultPlan(kinds=(kind,), seed=1, rate=0.5)
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(seed=1, rate=1.5)


class TestSpecRoundTrip:
    def test_seeded_plan_round_trips(self):
        plan = FaultPlan(
            seed=42, rate=0.3, kinds=("slab", "slow"),
            attempts=2, slow_s=0.01,
        )
        back = FaultPlan.parse(plan.spec())
        keys = [(r, s, a) for r in range(8) for s in range(4)
                for a in range(3)]
        assert [plan.lookup(*k) for k in keys] == [
            back.lookup(*k) for k in keys
        ]

    def test_explicit_entries_round_trip(self):
        plan = FaultPlan({(0, 1, 0): "slab", (2, 0, 1): "slow"}, slow_s=3.0)
        back = FaultPlan.parse(plan.spec())
        assert back.entries == plan.entries
        assert back.lookup(2, 0, 1) == FaultSpec("slow", 3.0)

    def test_parse_rejects_malformed_specs(self):
        for bad in ("seed", "seed=", "wat=1", "at=slab@1.2", "rate=x",
                    "hang_s=1"):
            with pytest.raises(ValueError):
                FaultPlan.parse(bad)


class TestInjectAndEnvShim:
    def test_env_shim_parses_and_caches(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULT_PLAN_ENV, "seed=5;rate=0.2;kinds=slab+slow"
        )
        plan = faults.active_plan()
        assert plan is not None and plan.seed == 5 and plan.rate == 0.2
        assert faults.active_plan() is plan  # cached on the raw string

    def test_inject_beats_env(self, monkeypatch):
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, "seed=5;rate=1.0")
        mine = FaultPlan(seed=9, rate=0.0)
        with faults.inject(mine):
            assert faults.active_plan() is mine
        # inject(None) disables even the env plan — test isolation.
        with faults.inject(None):
            assert faults.active_plan() is None
        assert faults.active_plan() is not None  # env shim restored

    def test_no_env_no_plan(self, monkeypatch):
        monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
        assert faults.active_plan() is None

    def test_inject_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with faults.inject(FaultPlan(seed=1, rate=1.0)):
                raise RuntimeError("boom")
        assert faults._ACTIVE_SET is False

    def test_every_kind_is_documented_in_module(self):
        doc = faults.__doc__
        for kind in FAULT_KINDS:
            assert f"``{kind}``" in doc


class TestChecksums:
    def test_rows_checksum_covers_every_slab_column(self):
        ids = np.array([3, 9], dtype=np.int64)
        lens = np.array([2, 0], dtype=np.int64)
        tgts = np.array([1, 2], dtype=np.int64)
        base = rows_checksum(ids, lens, tgts)
        assert rows_checksum(ids.copy(), lens.copy(), tgts.copy()) == base
        assert rows_checksum(
            np.array([4, 9], dtype=np.int64), lens, tgts
        ) != base
        assert rows_checksum(
            ids, np.array([1, 1], dtype=np.int64), tgts
        ) != base
        assert rows_checksum(
            ids, lens, np.array([1, 5], dtype=np.int64)
        ) != base

    def test_install_ghosts_verifies_checksum(self):
        from repro.ampc.messaging import _Shard

        shard = _Shard(0, 2, None, 2)
        ids = np.array([1], dtype=np.int64)
        lens = np.array([1], dtype=np.int64)
        tgts = np.array([0], dtype=np.int64)
        with pytest.raises(ChecksumError, match="checksum mismatch"):
            shard.install_ghosts(
                ids, lens, tgts,
                checksum=rows_checksum(ids, lens, tgts) ^ 1,
            )
        # The corrupted slab was rejected before any ghost mutated.
        assert not shard.ghost.any()
        shard.install_ghosts(
            ids, lens, tgts, checksum=rows_checksum(ids, lens, tgts)
        )
        assert shard.ghost_row(1) is not None

    def test_rows_stamp_gated_on_active_plan(self):
        # In-process delivery digests the very arrays the serving side
        # would, so a self-stamp can never detect corruption: the
        # fault-free paths must skip it (it would double the digest cost
        # of every row delivery), while chaos mode keeps the verify path
        # exercised.
        from repro.ampc.messaging import _rows_stamp

        ids = np.array([1], dtype=np.int64)
        lens = np.array([1], dtype=np.int64)
        tgts = np.array([0], dtype=np.int64)
        with faults.inject(None):
            assert _rows_stamp(ids, lens, tgts) is None
        with faults.inject(FaultPlan(seed=7, rate=0.5)):
            assert _rows_stamp(ids, lens, tgts) == rows_checksum(
                ids, lens, tgts
            )
