"""Pooled message-fabric execution: the shard chains on the game threads.

A fabric shard's BSP round is a pure function of (residual CSR, its
roots, shard count, engine, budget): every row another shard
would serve it is a verbatim CSR slice.  Running the chains on the
game threads (``transport="message"`` + ``workers > 1``) must therefore
be bit-identical to running them inline on the driver — which is itself
bit-identical to the shared-memory oracle — for every (engine, shards,
workers) combination: partitions, per-round stats, *and* the
communication counters and guard peaks the driver reconstructs by
replaying each chain's request trace.  Those counters are also pinned to
golden values (:class:`TestGoldenCounters`).

Faults: a chain whose row slab fails its checksum is re-run and the
round completes bit-identically; a slab that fails on every attempt
surfaces as its :class:`~repro.ampc.faults.ChecksumError`; and a
:class:`MemoryGuardError` — a protocol outcome the serial fabric raises
identically — passes through without a re-run.
"""

from __future__ import annotations

import pytest

from repro.ampc import faults
from repro.ampc.faults import ChecksumError, FaultPlan
from repro.ampc.messaging import MemoryGuardError
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.graphs.generators import (
    complete_ary_tree,
    random_gnm,
    union_of_random_forests,
)

# Every round with workers > 1 runs its chains on the game threads,
# however small.
pytestmark = pytest.mark.usefixtures("fast_pool")

# Keys whose values are wall-clock measurements, not protocol counts.
_TIMING_KEYS = (
    "shard_wall_s", "comm_overlap_s",
    "serve_s", "install_s", "compact_s", "play_s",
)


def _graph():
    return random_gnm(150, 400, seed=23)


def _partition(g, *, engine, workers=1, shards=None, **kw):
    return beta_partition_ampc(
        g, 6, x=25, store="columnar", engine=engine, workers=workers,
        transport="message", shards=shards, **kw
    )


def _counts(comm: dict) -> dict:
    return {k: v for k, v in comm.items() if k not in _TIMING_KEYS}


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    assert faults._ACTIVE_SET is False  # no leaked injected plan


class TestPooledDifferential:
    @pytest.mark.parametrize("engine", ["scalar", "batched", "compiled"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 8])
    def test_pooled_matches_serial_fabric_and_oracle(self, engine, shards):
        g = _graph()
        oracle = beta_partition_ampc(
            g, 6, x=25, store="columnar", engine=engine
        )
        serial = _partition(g, engine=engine, workers=1, shards=shards)
        pooled = _partition(g, engine=engine, workers=2, shards=shards)
        assert pooled.partition.layers == oracle.partition.layers
        assert pooled.partition.layers == serial.partition.layers
        for ro, rp in zip(
            oracle.simulator.stats.rounds, pooled.simulator.stats.rounds
        ):
            assert (ro.total_reads, ro.total_writes, ro.store_words) == (
                rp.total_reads, rp.total_writes, rp.store_words
            )
        # The driver's trace replay must reconstruct the serial fabric's
        # communication exactly: every word, message, sub-round, and
        # guard peak — only the wall-clock keys may differ.
        assert len(serial.round_comm) == len(pooled.round_comm)
        for cs, cp in zip(serial.round_comm, pooled.round_comm):
            assert _counts(cs) == _counts(cp)
        assert pooled.max_held_words == serial.max_held_words

    def test_workers_four_spot_check(self):
        g = _graph()
        serial = _partition(g, engine="compiled", workers=1, shards=3)
        pooled = _partition(g, engine="compiled", workers=4, shards=3)
        assert pooled.partition.layers == serial.partition.layers
        for cs, cp in zip(serial.round_comm, pooled.round_comm):
            assert _counts(cs) == _counts(cp)
        assert pooled.max_held_words == serial.max_held_words

    def test_pooled_rounds_report_shard_wall_time(self):
        g = _graph()
        pooled = _partition(g, engine="compiled", workers=2, shards=2)
        inline = _partition(g, engine="compiled", workers=1, shards=2)
        # Every round carries its slowest shard chain's wall time, on
        # the threads or inline; only threaded replay can overlap play.
        assert all(c["shard_wall_s"] > 0 for c in pooled.round_comm)
        assert all(c["shard_wall_s"] > 0 for c in inline.round_comm)
        assert all(c["comm_overlap_s"] >= 0 for c in pooled.round_comm)
        assert all(c["comm_overlap_s"] == 0 for c in inline.round_comm)


class TestPooledBudget:
    def test_budget_error_passes_through_and_pool_survives(self):
        g = union_of_random_forests(200, 1, seed=7)
        with pytest.raises(MemoryGuardError):
            beta_partition_ampc(
                g, 3, x=4, store="columnar", transport="message",
                shards=2, workers=2, shard_budget=50,
            )
        # A budget violation is a protocol outcome, not a fault: the
        # game threads must serve the next (unbudgeted) run.
        out = _partition(_graph(), engine="compiled", workers=2, shards=2)
        ref = _partition(_graph(), engine="compiled", workers=1, shards=2)
        assert out.partition.layers == ref.partition.layers

    def test_budgeted_pooled_matches_serial_peaks(self):
        g = union_of_random_forests(600, 1, seed=7)
        kw = dict(shards=16, shard_budget=40_000)
        serial = _partition(g, engine="compiled", workers=1, **kw)
        pooled = _partition(g, engine="compiled", workers=2, **kw)
        assert pooled.partition.layers == serial.partition.layers
        assert pooled.max_held_words == serial.max_held_words
        assert pooled.max_held_words <= 40_000


def _gnm_counts(shards, fold, messages, placement, requests, shard_words,
                words, subrounds):
    return [{
        "shards": shards, "messages": messages, "words": words,
        "subrounds": subrounds, "row_requests": requests,
        "rows_served": requests, "placement_words": placement,
        "retirement_words": 150 * shards, "fold_words": fold,
        "result_words": 98, "max_shard_words": shard_words,
        "max_game_ball_words": 93, "ejected_games": 0,
    }]


# case: (graph, beta, x, fabric kwargs, per-round counters).  The
# counters are every non-timing round_comm key except max_held_words;
# they are the same for every engine unless _ENGINE_COUNTS overrides
# them.  Only hub roots (residual degree > beta) play games, so only
# they are assigned to shards; the values were recorded at workers=1
# and equal what the fabric counts when handed exactly those roots.
_GOLDEN = {
    "gnm-s1": (
        lambda: random_gnm(150, 400, seed=23), 6, 25, {"shards": 1},
        _gnm_counts(1, 423, 6, 1095, 0, 2560, 2287, 0),
    ),
    "gnm-s3": (
        lambda: random_gnm(150, 400, seed=23), 6, 25, {"shards": 3},
        _gnm_counts(3, 657, 40, 1097, 284, 2868, 5253, 2),
    ),
    "gnm-s8": (
        lambda: random_gnm(150, 400, seed=23), 6, 25, {"shards": 8},
        _gnm_counts(8, 732, 213, 1102, 836, 2678, 11002, 1),
    ),
    # Deeper balls at x = (beta+1)^2: two exchange sub-rounds.
    "gnm-deep": (
        lambda: random_gnm(70, 140, seed=13), 7, 64, {"shards": 3},
        [{"shards": 3, "messages": 31, "words": 1450, "subrounds": 2,
          "row_requests": 56, "rows_served": 56, "placement_words": 421,
          "retirement_words": 210, "fold_words": 240, "result_words": 6,
          "max_shard_words": 817, "max_game_ball_words": 199,
          "ejected_games": 0}],
    ),
    # x = beta + 1 certifies one layer per round: three residuals, the
    # last of which has no hub and plays no game.
    "tree": (
        lambda: complete_ary_tree(4, 4), 3, 4, {"shards": 3},
        [
            {"shards": 3, "messages": 36, "words": 6947, "subrounds": 1,
             "row_requests": 436, "rows_served": 436,
             "placement_words": 1365, "retirement_words": 960,
             "fold_words": 960, "result_words": 170,
             "max_shard_words": 3442, "max_game_ball_words": 36,
             "ejected_games": 0},
            {"shards": 3, "messages": 32, "words": 346, "subrounds": 1,
             "row_requests": 27, "rows_served": 27, "placement_words": 0,
             "retirement_words": 60, "fold_words": 60, "result_words": 10,
             "max_shard_words": 198, "max_game_ball_words": 29,
             "ejected_games": 0},
            {"shards": 3, "messages": 6, "words": 3, "subrounds": 0,
             "row_requests": 0, "rows_served": 0, "placement_words": 0,
             "retirement_words": 3, "fold_words": 0, "result_words": 0,
             "max_shard_words": 0, "max_game_ball_words": 0,
             "ejected_games": 0},
        ],
    ),
    # Budgeted shards never speculate and evict mid-round.
    "forest-budget": (
        lambda: union_of_random_forests(600, 1, seed=7), 6, 25,
        {"shards": 16, "shard_budget": 40_000},
        [{"shards": 16, "messages": 279, "words": 13180, "subrounds": 3,
          "row_requests": 94, "rows_served": 94,
          "placement_words": 2414, "retirement_words": 9600,
          "fold_words": 300, "result_words": 12,
          "max_shard_words": 422, "max_game_ball_words": 107,
          "ejected_games": 0}],
    ),
}

# (case, engine): per-round max_held_words, plus any counter that
# differs for that engine.
_ENGINE_COUNTS = {
    ("gnm-s1", "scalar"): [{"max_held_words": 2122}],
    ("gnm-s1", "batched"): [{"max_held_words": 3382}],
    ("gnm-s1", "compiled"): [{"max_held_words": 3382}],
    ("gnm-s3", "scalar"): [{"max_held_words": 1802}],
    ("gnm-s3", "batched"): [{"max_held_words": 3224}],
    ("gnm-s3", "compiled"): [{"max_held_words": 3212}],
    ("gnm-s8", "scalar"): [{"max_held_words": 1439}],
    ("gnm-s8", "batched"): [{"max_held_words": 3114}],
    ("gnm-s8", "compiled"): [{"max_held_words": 3039}],
    ("gnm-deep", "scalar"): [{"max_held_words": 582}],
    ("gnm-deep", "batched"): [{"max_held_words": 1143}],
    ("gnm-deep", "compiled"): [{"max_held_words": 1089}],
    ("tree", "scalar"): [
        {"max_held_words": 1688}, {"max_held_words": 121},
        {"max_held_words": 1},
    ],
    ("tree", "batched"): [
        {"max_held_words": 3810}, {"max_held_words": 241},
        {"max_held_words": 1},
    ],
    ("tree", "compiled"): [
        {"max_held_words": 3680}, {"max_held_words": 241},
        {"max_held_words": 1},
    ],
    ("forest-budget", "scalar"): [{"max_held_words": 352}],
    ("forest-budget", "batched"): [{"max_held_words": 1444}],
    ("forest-budget", "compiled"): [{"max_held_words": 1220}],
}


class TestGoldenCounters:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("engine", ["scalar", "batched", "compiled"])
    @pytest.mark.parametrize("case", sorted(_GOLDEN))
    def test_counters_match_golden(self, case, engine, workers):
        make, beta, x, kw, rounds = _GOLDEN[case]
        g = make()
        out = beta_partition_ampc(
            g, beta, x=x, store="columnar", engine=engine, workers=workers,
            transport="message", **kw
        )
        oracle = beta_partition_ampc(
            g, beta, x=x, store="columnar", engine=engine
        )
        assert out.partition.layers == oracle.partition.layers
        # out.engine, not engine: a kernel that cannot load runs the
        # compiled request on the batched engine.
        expected = [
            {**base, **over}
            for base, over in zip(rounds, _ENGINE_COUNTS[case, out.engine])
        ]
        assert [_counts(c) for c in out.round_comm] == expected
        assert out.max_held_words == max(
            c["max_held_words"] for c in expected
        )


# First attempt of every shard faults; re-runs run clean.
_FIRST_ATTEMPT = dict(seed=2, rate=1.0, attempts=1)


class TestPooledFaults:
    def test_slab_corruption_is_recovered_bit_identically(self):
        # A "slab" fault corrupts one served row slab inside the chain
        # *after* its checksum is stamped, so install_ghosts' verify
        # rejects the attempt before any ghost mutates and the re-run
        # replays the whole chain clean.
        g = _graph()
        with faults.inject(FaultPlan(kinds=("slab",), **_FIRST_ATTEMPT)):
            out = _partition(g, engine="compiled", workers=2, shards=3)
        ref = _partition(g, engine="compiled", workers=1, shards=3)
        assert out.partition.layers == ref.partition.layers
        for cs, cp in zip(ref.round_comm, out.round_comm):
            assert _counts(cs) == _counts(cp)
        assert out.round_recovery["retries"] > 0

    def test_unrecoverable_fault_surfaces_and_cleans_up(self, fast_pool):
        # With no re-runs allowed, a corrupted slab surfaces as its own
        # ChecksumError, and the next run is unaffected.
        fast_pool(MAX_SHARD_RETRIES=0)
        with faults.inject(FaultPlan(kinds=("slab",), seed=2, rate=1.0)):
            with pytest.raises(ChecksumError, match="checksum mismatch"):
                _partition(_graph(), engine="compiled", workers=2, shards=3)
        with faults.inject(None):
            out = _partition(_graph(), engine="compiled", workers=2, shards=3)
            ref = _partition(_graph(), engine="compiled", workers=1, shards=3)
        assert out.partition.layers == ref.partition.layers
        assert out.round_recovery == {"retries": 0}
