"""The message-passing shard fabric must be invisible — and must bind.

``transport="message"`` replaces "every worker attaches the whole shared
CSR" with owner-hashed shards that hold only their residual slice plus a
bounded ghost fringe (:mod:`repro.ampc.messaging`).  Two contracts:

1. **Invisibility** — partitions, layers, probe counts, per-round stats,
   and store words are bit-identical to the ``transport="shm"`` oracle
   for any shard count and either engine, on randomized inputs, across
   retirement rounds, with zero-game shards, and through the bigint
   ejection path.
2. **The S budget binds** — a graph whose full CSR exceeds one shard's
   budget colors correctly with enough shards (strict accounting of
   every held array stays under budget), and an under-budgeted shard
   raises :class:`MemoryGuardError` loudly instead of over-holding.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ampc.engine_config import EngineConfig
from repro.ampc.messaging import (
    MemoryGuard,
    MemoryGuardError,
    MessageFabric,
    _Shard,
    owner_of,
)
from repro.core import batched_games, native
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import (
    complete_ary_tree,
    path_graph,
    preferential_attachment,
    random_gnm,
    union_of_random_forests,
)

SHARD_MATRIX = (1, 2, 3, 8)


def _assert_equivalent(oracle, candidate, compare_held=False):
    """Candidate vs oracle: observationally identical (the same checks
    as the (store, engine, workers) differential harness)."""
    assert candidate.partition.layers == oracle.partition.layers
    assert candidate.rounds == oracle.rounds
    assert candidate.mode == oracle.mode
    assert candidate.x == oracle.x
    assert candidate.unlayered_per_round == oracle.unlayered_per_round
    sa, sb = oracle.simulator.stats, candidate.simulator.stats
    assert sb.space_per_machine == sa.space_per_machine
    assert len(sb.rounds) == len(sa.rounds)
    fields = [
        "round_index", "machines_active", "max_reads", "max_writes",
        "total_reads", "total_writes", "store_words",
    ]
    if compare_held:  # same store backend on both sides
        fields.append("dds_held_words")
    for ra, rb in zip(sa.rounds, sb.rounds):
        for field in fields:
            assert getattr(rb, field) == getattr(ra, field), field
    for store_a, store_b in zip(
        oracle.simulator.stores, candidate.simulator.stores
    ):
        assert store_b.total_words() == store_a.total_words()


class TestOwnerHash:
    def test_deterministic_and_vectorized(self):
        ids = np.arange(500, dtype=np.int64)
        a = owner_of(ids, 7)
        b = owner_of(ids, 7)
        assert (a == b).all()
        assert all(owner_of(np.asarray([v]), 7)[0] == a[v] for v in (0, 3, 499))

    def test_spreads_consecutive_ids(self):
        # splitmix64 scatters contiguous ranges: no shard may own a
        # wildly disproportionate slice of a consecutive id block.
        counts = np.bincount(owner_of(np.arange(4096), 8), minlength=8)
        assert counts.min() > 0
        assert counts.max() < 2 * 4096 // 8


class TestMemoryGuard:
    def test_accounts_by_tag_and_raises(self):
        guard = MemoryGuard(budget_words=100, name="shard[3]")
        guard.account("owned_rows", 60)
        guard.account("ghost_fringe", 30)
        assert guard.current == 90
        guard.account("ghost_fringe", 10)  # replace, not add
        assert guard.current == 70
        with pytest.raises(MemoryGuardError) as err:
            guard.account("game_scratch", 40)
        assert "shard[3]" in str(err.value)
        assert "owned_rows=60" in str(err.value)

    def test_peaks_and_release(self):
        guard = MemoryGuard()  # unbudgeted: accounts but never raises
        guard.account("a", 50)
        guard.begin_round()
        guard.account("b", 30)
        guard.release("b")
        assert guard.current == 50
        assert guard.round_peak == 80
        assert guard.peak == 80
        guard.begin_round()
        assert guard.round_peak == 50

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            MemoryGuard(budget_words=0)
        with pytest.raises(ValueError):
            MemoryGuard().account("t", -1)

    def test_over_budget_charge_rolls_back(self):
        # The over-budget charge must not be committed before the raise:
        # a caller that catches the error continues with accounting that
        # reflects what the shard actually holds, not the rejected
        # charge, and the peaks stay unpolluted.
        guard = MemoryGuard(budget_words=100)
        guard.account("owned_rows", 60)
        guard.begin_round()
        with pytest.raises(MemoryGuardError):
            guard.account("game_scratch", 70)
        assert guard.held_words() == 60
        assert guard.peak == 60
        assert guard.round_peak == 60
        # The rejected tag holds nothing; a later in-budget charge of
        # the same tag accounts from a clean slate.
        guard.account("game_scratch", 30)
        assert guard.held_words() == 90
        with pytest.raises(MemoryGuardError):
            guard.account("game_scratch", 50)
        assert guard.held_words() == 90  # replace-charge rolled back too
        guard.release("game_scratch")
        assert guard.held_words() == 60


class TestShardCountInvariance:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=3, deadline=None)
    def test_randomized_transport_matrix_batched(self, seed):
        g = union_of_random_forests(60, 1, seed=seed)
        oracle = beta_partition_ampc(g, 3, x=4, store="dict")
        shm = beta_partition_ampc(g, 3, x=4, store="columnar")
        _assert_equivalent(oracle, shm)
        for shards in SHARD_MATRIX:
            msg = beta_partition_ampc(
                g, 3, x=4, store="columnar", transport="message",
                shards=shards,
            )
            assert msg.transport == "message"
            assert msg.shards == shards
            _assert_equivalent(oracle, msg)
            _assert_equivalent(shm, msg, compare_held=True)

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=2, deadline=None)
    def test_randomized_transport_matrix_scalar(self, seed):
        g = union_of_random_forests(50, 1, seed=seed)
        oracle = beta_partition_ampc(g, 3, x=4, store="dict")
        for shards in SHARD_MATRIX:
            msg = beta_partition_ampc(
                g, 3, x=4, store="columnar", engine="scalar",
                transport="message", shards=shards,
            )
            _assert_equivalent(oracle, msg)

    @pytest.mark.skipif(
        not native.available(), reason="compiled wave kernel unavailable"
    )
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=2, deadline=None)
    def test_randomized_transport_matrix_compiled(self, seed):
        g = union_of_random_forests(60, 1, seed=seed)
        oracle = beta_partition_ampc(g, 3, x=4, store="dict")
        for shards in SHARD_MATRIX:
            msg = beta_partition_ampc(
                g, 3, x=4, store="columnar", engine="compiled",
                transport="message", shards=shards,
            )
            assert msg.engine == "compiled"
            _assert_equivalent(oracle, msg)

    def test_gnm_with_default_budget_games(self):
        # Denser shape at the default x = (β+1)²: deeper balls, several
        # ghost-exchange sub-rounds per round.
        g = random_gnm(70, 140, seed=13)
        oracle = beta_partition_ampc(g, 7, store="dict")
        msg = beta_partition_ampc(
            g, 7, store="columnar", transport="message", shards=3
        )
        _assert_equivalent(oracle, msg)
        assert any(c.get("subrounds", 0) > 0 for c in msg.round_comm)

    def test_multi_round_retirement_pruning(self):
        # x = β+1 certifies one layer per round: several residuals, so
        # retirement notices must prune every shard's owned rows down to
        # exactly the next residual CSR.
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        oracle = beta_partition_ampc(g, beta, x=beta + 1, store="dict")
        msg = beta_partition_ampc(
            g, beta, x=beta + 1, store="columnar", transport="message",
            shards=3,
        )
        assert oracle.rounds >= 2
        _assert_equivalent(oracle, msg)
        assert sum(c.get("retirement_words", 0) for c in msg.round_comm) > 0

    def test_zero_game_shard(self):
        # 8 shards on a 10-vertex forest: some shards own zero games and
        # zero rows, yet still serve folds and count in every round.
        g = union_of_random_forests(10, 1, seed=3)
        oracle = beta_partition_ampc(g, 3, store="dict")
        msg = beta_partition_ampc(
            g, 3, store="columnar", transport="message", shards=8
        )
        owners = owner_of(np.arange(g.num_vertices), 8)
        assert len(set(range(8)) - set(owners.tolist())) > 0
        _assert_equivalent(oracle, msg)

    def test_bigint_ejected_game_under_message(self, monkeypatch):
        # A tiny scale budget forces real ejections: the shard must
        # replay ejected games through the scalar bigint path against
        # its *local* compacted CSR and still commit exact transcripts.
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        g = preferential_attachment(150, 2, seed=11)
        oracle = beta_partition_ampc(g, 6, store="dict")
        msg = beta_partition_ampc(
            g, 6, store="columnar", transport="message", shards=3
        )
        assert sum(c.get("ejected_games", 0) for c in msg.round_comm) > 0
        _assert_equivalent(oracle, msg)

    @pytest.mark.skipif(
        not native.available(), reason="compiled wave kernel unavailable"
    )
    def test_bigint_ejected_game_under_message_compiled(self, monkeypatch):
        # Same adversarial budget through the fused C kernel: its
        # division-guarded escalation must eject the identical game set
        # and the shard replays them scalar-side, bit for bit.
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        g = preferential_attachment(150, 2, seed=11)
        oracle = beta_partition_ampc(g, 6, store="dict")
        msg = beta_partition_ampc(
            g, 6, store="columnar", engine="compiled",
            transport="message", shards=3,
        )
        assert sum(c.get("ejected_games", 0) for c in msg.round_comm) > 0
        _assert_equivalent(oracle, msg)


def _slab(rows: dict[int, list[int]]):
    """One sorted (ids, lens, targets) row-resolution slab."""
    ids = np.array(sorted(rows), dtype=np.int64)
    lens = np.array([len(rows[v]) for v in ids.tolist()], dtype=np.int64)
    targets = np.concatenate([
        np.asarray(rows[v], dtype=np.int64) for v in ids.tolist()
    ])
    return ids, lens, targets


class TestGhostFringe:
    def test_over_budget_slab_rejected_before_any_ghost_mutates(self):
        shard = _Shard(0, 2, 30)
        shard.install_ghosts(*_slab({4: [1, 2, 3]}))  # 4 words held
        held_before = shard.guard.current
        big = {v: list(range(10)) for v in range(6, 30, 2)}  # 132 words
        with pytest.raises(MemoryGuardError):
            shard.install_ghosts(*_slab(big))
        # Store and accounting exactly as they were: no partial install,
        # no guard drift — the caller can shed load without rollback.
        assert shard.guard.current == held_before
        assert shard.ghost_ids.tolist() == [4]
        assert shard._fringe_words == 4
        assert np.array_equal(shard.ghost_row(4), np.array([1, 2, 3]))
        # A subsequent within-budget slab still lands cleanly.
        shard.install_ghosts(*_slab({8: [5]}))
        assert np.array_equal(shard.ghost_row(8), np.array([5]))

    def test_round_boundary_drops_every_ghost(self):
        shard = _Shard(1, 2, None)
        shard.install_ghosts(*_slab({2: [3, 5], 6: [1]}))
        assert shard.guard.current == 5
        shard.finish_round()
        assert len(shard.ghost_ids) == 0
        assert shard.ghost_row(2) is None
        assert shard.guard.current == 0

    def test_eviction_keeps_exactly_the_pinned_ghosts(self):
        shard = _Shard(1, 2, 100)
        shard.install_ghosts(*_slab({2: [3, 5], 6: [1], 8: [7]}))
        shard.evict_ghosts(pinned=np.array([6], dtype=np.int64))
        assert shard.ghost_ids.tolist() == [6]
        assert np.array_equal(shard.ghost_row(6), np.array([1]))
        assert shard.guard.current == 2


class TestBudgetBinds:
    def test_budget_below_full_csr_passes_with_enough_shards(self):
        # The acceptance scenario: the full residual CSR does not fit in
        # one shard's budget, yet 32 shards color the graph bit-identical
        # to the serial oracle while every shard stays under budget.
        g = union_of_random_forests(4000, 1, seed=7)
        csr_words = g.num_vertices + 1 + 2 * g.num_edges
        budget = int(csr_words * 0.85)
        oracle = beta_partition_ampc(g, 3, x=4, store="columnar")
        msg = beta_partition_ampc(
            g, 3, x=4, store="columnar", transport="message", shards=32,
            shard_budget=budget,
        )
        assert csr_words > budget
        assert 0 < msg.max_held_words <= budget
        _assert_equivalent(oracle, msg, compare_held=True)
        assert all(
            c["max_held_words"] <= budget for c in msg.round_comm if c
        )

    def test_under_budgeted_shard_raises(self):
        g = union_of_random_forests(200, 1, seed=7)
        with pytest.raises(MemoryGuardError) as err:
            beta_partition_ampc(
                g, 3, x=4, store="columnar", transport="message", shards=2,
                shard_budget=60,
            )
        assert "S budget" in str(err.value)

    def test_strict_space_parity_against_real_held_words(self):
        # A committed game's probe charge equals the real words of its
        # held ball (one degree word + the row per explored vertex), so
        # the strict S scan audits genuine footprint.  Round 0 has no
        # cache hits: its max_reads is exactly the largest fabric ball.
        g = random_gnm(80, 160, seed=2)
        msg = beta_partition_ampc(
            g, 5, store="columnar", transport="message", shards=3
        )
        round0 = msg.simulator.stats.rounds[0]
        assert msg.round_comm[0]["max_game_ball_words"] == round0.max_reads
        assert round0.dds_held_words > 0


class TestFabricSurface:
    def test_outcome_records_transport_and_comm(self):
        g = union_of_random_forests(40, 1, seed=1)
        msg = beta_partition_ampc(
            g, 3, x=4, store="columnar", transport="message", shards=2
        )
        assert msg.transport == "message"
        assert msg.shards == 2
        assert len(msg.round_comm) == msg.rounds
        total = {"messages": 0, "words": 0}
        for comm in msg.round_comm:
            assert comm["shards"] == 2
            for key in total:
                total[key] += comm[key]
        assert total["messages"] > 0 and total["words"] > 0
        assert msg.max_held_words == max(
            c["max_held_words"] for c in msg.round_comm
        )
        shm = beta_partition_ampc(g, 3, x=4, store="columnar")
        assert shm.transport == "shm"
        assert shm.shards == 0
        assert shm.round_comm == []
        assert shm.max_held_words == 0

    def test_dict_store_rejects_message_transport(self):
        g = path_graph(6)
        with pytest.raises(ValueError, match="columnar"):
            beta_partition_ampc(g, 1, x=2, store="dict", transport="message")

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            beta_partition_ampc(path_graph(4), 1, x=2, transport="carrier")

    def test_peel_mode_unsharded_but_recorded(self):
        g = union_of_random_forests(50, 2, seed=4)
        oracle = beta_partition_ampc(g, 6, mode="peel", store="dict")
        msg = beta_partition_ampc(
            g, 6, mode="peel", store="columnar", transport="message"
        )
        _assert_equivalent(oracle, msg)
        assert msg.transport == "message"
        assert msg.round_comm == []

    def test_smaller_cap_means_more_messages_same_outcome(self):
        g = random_gnm(70, 140, seed=13)
        big = beta_partition_ampc(
            g, 7, store="columnar", transport="message", shards=3
        )
        tiny = beta_partition_ampc(
            g, 7, store="columnar", transport="message", shards=3,
            config=EngineConfig.from_env().with_overrides(
                message_cap_words=16
            ),
        )
        assert tiny.partition.layers == big.partition.layers
        msgs = lambda out: sum(c["messages"] for c in out.round_comm)  # noqa: E731
        words = lambda out: sum(c["words"] for c in out.round_comm)  # noqa: E731
        assert msgs(tiny) > msgs(big)
        assert words(tiny) == words(big)  # cap re-segments, never re-words

    def test_fabric_run_round_requires_config_default(self):
        # MessageFabric.run_round without an explicit config snapshots
        # EngineConfig.from_env() — exercised via the public API default.
        fabric = MessageFabric(2, cap_words=64)
        assert fabric.num_shards == 2
        with pytest.raises(ValueError):
            MessageFabric(0)
        with pytest.raises(ValueError):
            MessageFabric(2, cap_words=2)
