"""Unit-level coverage of the lockstep batched coin-game engine.

The differential matrices in ``tests/test_parallel_equivalence`` pin the
engine against the dict oracle end-to-end; these tests aim at the
engine's own moving parts — the shared-CSR transpose map behind row
patches, cohort blocking, the coin-scale escape hatch (ejection), the
huge-β escalation fallback, the thread fan-out of the array engines
(bit-identical to the serial run) beside the in-process scalar
engine, the usable-CPU count behind ``workers="auto"``, the
batched ``query_all`` port the E1/F2 sweeps run on, and multi-round
partitions whose later rounds replay nothing from earlier ones.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.ampc import faults
import repro.core.batched_games as batched_games
import repro.core.columnar_rounds as columnar_rounds
from repro.ampc.pool import (
    _SHARED_POOLS,
    CoinGamePool,
    close_shared_pools,
    resolve_workers,
    usable_cpus,
)
from repro.core import native
from repro.core.batched_games import (
    csr_transpose_positions,
    play_games_batched,
)
from repro.core.beta_partition_ampc import beta_partition_ampc
from repro.core.columnar_rounds import (
    play_coin_game,
    play_fleet,
    residual_adjacency_lists,
)
from repro.experiments.e1_lca_quality import run_lca_quality
from repro.experiments.f2_exploration_ablation import run_exploration_ablation
from repro.graphs.generators import (
    complete_ary_tree,
    cycle_graph,
    grid_2d,
    path_graph,
    preferential_attachment,
    random_gnm,
    star_graph,
    union_of_random_forests,
)
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer
from repro.lca.partial_partition_lca import PartialPartitionLCA

_INF = float("inf")


def _assert_same_outcome(a, b):
    assert a.partition.layers == b.partition.layers
    assert a.rounds == b.rounds
    for ra, rb in zip(a.simulator.stats.rounds, b.simulator.stats.rounds):
        for field in (
            "machines_active", "max_reads", "max_writes",
            "total_reads", "total_writes", "store_words",
        ):
            assert getattr(ra, field) == getattr(rb, field), field


def _per_game(records):
    """Split flat records into per-game ``(members, proof pairs)``."""
    members, proof_u, proof_layer, member_counts, proof_counts = records
    member_ends = np.cumsum(member_counts)
    proof_ends = np.cumsum(proof_counts)
    return [
        (
            members[me - mc:me].tolist(),
            list(zip(
                proof_u[pe - pc:pe].tolist(), proof_layer[pe - pc:pe].tolist()
            )),
        )
        for me, mc, pe, pc in zip(
            member_ends, member_counts, proof_ends, proof_counts
        )
    ]


def _play_both_engines(graph, beta, x, want_records=False):
    """One full-fleet run per engine; returns (batched, scalar) outputs.

    The batched side goes through the fleet player, and its legitimately
    ejected games replay scalar-side exactly as a round would run them
    (their record segments stay empty; their reference records are the
    replays themselves).
    """
    offsets, targets = graph.csr()
    n = graph.num_vertices
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    scale = fixed_coin_scale(beta, horizon)
    roots = np.arange(n, dtype=np.int64)

    out_layer = np.full(n, _INF)
    out_count = np.zeros(n, dtype=np.int64)
    info = play_fleet(
        offsets, targets, roots, x=x, beta=beta, clip=clip, horizon=horizon,
        scale=scale, out_layer=out_layer, out_count=out_count,
        engine="batched", want_records=want_records,
    )
    adj = residual_adjacency_lists(offsets, targets)
    reads, writes = info.reads, info.writes
    for gi in info.ejected.tolist():
        reads[gi], writes[gi], __ = play_coin_game(
            adj, gi, x, beta, clip, horizon, scale, out_layer, out_count,
        )

    ref_layer = [_INF] * n
    ref_count = [0] * n
    ref_reads = np.zeros(n, dtype=np.int64)
    ref_writes = np.zeros(n, dtype=np.int64)
    ref_records = []
    for v in range(n):
        ref_reads[v], ref_writes[v], record = play_coin_game(
            adj, v, x, beta, clip, horizon, scale,
            ref_layer, ref_count, want_records,
        )
        if want_records and v in info.ejected:
            record = ([], [])
        ref_records.append(record)
    records = _per_game(info.records) if want_records else None
    return (
        (reads, writes, records, out_layer, out_count),
        (ref_reads, ref_writes, ref_records, ref_layer, ref_count),
    )


class TestEngineAgainstScalar:
    @pytest.mark.parametrize("maker,beta,x", [
        (lambda: random_gnm(120, 240, seed=5), 9, 100),
        (lambda: complete_ary_tree(4, 4), 3, 16),
        (lambda: preferential_attachment(150, 2, seed=11), 6, 49),
        (lambda: star_graph(25), 2, 9),
        # Overlapping balls: every explore wave patches rows deep inside
        # other games' explored sets.
        (lambda: grid_2d(14, 14), 3, 16),
        (lambda: cycle_graph(160), 1, 4),
    ])
    def test_reads_writes_folds_and_records_match(self, maker, beta, x):
        graph = maker()
        got, ref = _play_both_engines(graph, beta, x, want_records=True)
        reads, writes, records, out_layer, out_count = got
        ref_reads, ref_writes, ref_records, ref_layer, ref_count = ref
        assert np.array_equal(reads, ref_reads)
        assert np.array_equal(writes, ref_writes)
        assert np.array_equal(out_layer, np.array(ref_layer))
        assert np.array_equal(out_count, np.asarray(ref_count))
        assert len(records) == len(ref_records)
        for got_rec, want_rec in zip(records, ref_records):
            assert got_rec[0] == want_rec[0]  # explored, exploration order
            assert sorted(got_rec[1]) == sorted(want_rec[1])  # clipped proof

    def test_isolated_and_tiny_games(self):
        # Star center has deg > β+1 (σ-ranked F); leaves have deg 1.
        graph = star_graph(12)
        got, ref = _play_both_engines(graph, 1, 4)
        assert np.array_equal(got[0], ref[0])
        assert np.array_equal(got[4], np.asarray(ref[4]))

    def test_empty_batch(self):
        offsets = np.array([0, 1, 2], dtype=np.int64)
        targets = np.array([1, 0], dtype=np.int64)
        info = play_games_batched(
            offsets, targets, np.empty(0, dtype=np.int64),
            x=4, beta=2, clip=1, horizon=12, scale=12,
            out_layer=np.full(2, _INF), out_count=np.zeros(2, dtype=np.int64),
        )
        assert not info.reads.size and not info.ejected.size


class TestTransposePositions:
    def test_reverse_entry_roundtrip(self):
        graph = random_gnm(200, 400, seed=3)
        offsets, targets = graph.csr()
        tp = csr_transpose_positions(offsets, targets)
        src = np.repeat(np.arange(200), np.diff(offsets))
        # Entry p is (src[p] -> targets[p]); its transpose holds the
        # reversed pair, and transposing twice is the identity.
        assert np.array_equal(src[tp], targets)
        assert np.array_equal(targets[tp], src)
        assert np.array_equal(tp[tp], np.arange(len(targets)))


class TestCohortBlocking:
    def test_tiny_cohorts_change_nothing(self, monkeypatch):
        # Force many game-index blocks even on a small fleet: blocking
        # must be invisible to every observable.
        graph = random_gnm(90, 180, seed=8)
        oracle = beta_partition_ampc(graph, 9, store="dict")
        monkeypatch.setattr(columnar_rounds, "COHORT_GAMES", 7)
        blocked = beta_partition_ampc(graph, 9, store="columnar")
        _assert_same_outcome(oracle, blocked)

    def test_knobs_do_not_change_observables(self, monkeypatch):
        # A deliberately odd cohort size must be invisible:
        # bit-identical partitions and per-round stats.
        g = random_gnm(80, 160, seed=5)
        base = beta_partition_ampc(g, 5, store="columnar")
        monkeypatch.setattr(columnar_rounds, "COHORT_GAMES", 3)
        tuned = beta_partition_ampc(g, 5, store="columnar")
        assert tuned.partition.layers == base.partition.layers
        for ra, rb in zip(
            base.simulator.stats.rounds, tuned.simulator.stats.rounds
        ):
            assert (ra.total_reads, ra.total_writes, ra.store_words) == (
                rb.total_reads, rb.total_writes, rb.store_words
            )


class TestEscapeHatch:
    def test_ejected_games_replay_exactly(self, monkeypatch):
        # A tiny word budget forces coin-scale ejections; the scalar
        # fallback must keep the whole round bit-identical.
        graph = preferential_attachment(150, 2, seed=11)
        oracle = beta_partition_ampc(graph, 6, store="dict")
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        ejected_counts = []
        original = batched_games.play_games_batched

        def spy(*args, **kwargs):
            info = original(*args, **kwargs)
            ejected_counts.append(int(info.ejected.size))
            return info

        monkeypatch.setattr(
            columnar_rounds, "play_games_batched", spy
        )
        hatch = beta_partition_ampc(
            graph, 6, store="columnar", engine="batched"
        )
        assert sum(ejected_counts) > 0, "budget never forced an ejection"
        _assert_same_outcome(oracle, hatch)

    def test_no_scaled_representation_at_all(self):
        # x so large that not even scale 1 fits the budget: every game
        # takes the escape hatch (Fraction coins in the deep-horizon
        # scalar fallback) and the outcome still matches the oracle.
        graph = path_graph(4)
        oracle = beta_partition_ampc(graph, 1, x=2**61, store="dict")
        batched = beta_partition_ampc(
            graph, 1, x=2**61, store="columnar", engine="batched"
        )
        _assert_same_outcome(oracle, batched)

    def test_huge_beta_uses_python_lcm_fold(self):
        # β+1 > 36 routes escalation factors through Python bigint lcm
        # (int64 np.lcm would wrap); the observables must not notice.
        graph = star_graph(50)
        oracle = beta_partition_ampc(graph, 40, store="dict")
        batched = beta_partition_ampc(
            graph, 40, store="columnar", engine="batched"
        )
        _assert_same_outcome(oracle, batched)


class TestWorkersAutoAndThreshold:
    def test_resolve_auto(self):
        assert resolve_workers("auto") >= 1
        assert resolve_workers(None) >= 1  # default is now auto
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "auto")
        assert resolve_workers(None) == resolve_workers("auto")

    @pytest.mark.parametrize("workers,env,message", [
        (None, "two", r"\$REPRO_WORKERS='two' is not an integer"),
        (None, "2.5", r"\$REPRO_WORKERS='2.5' is not an integer"),
        (None, "0", r"\$REPRO_WORKERS='0' must be >= 1"),
        (2.7, None, r"workers=2.7 is not an integer"),
        ("2.5", None, r"workers='2.5' is not an integer"),
        (0, None, r"workers=0 must be >= 1"),
    ])
    def test_rejects_non_integral_workers(
        self, workers, env, message, monkeypatch
    ):
        if env is not None:
            monkeypatch.setenv("REPRO_WORKERS", env)
        with pytest.raises(ValueError, match=message):
            resolve_workers(workers)

    def test_small_rounds_skip_pool_dispatch(self):
        # Below the minimum-game threshold the fabric's pool must never
        # fork: its executor stays unmaterialized for the whole
        # partition.
        close_shared_pools()
        graph = random_gnm(80, 160, seed=2)
        outcome = beta_partition_ampc(
            graph, 9, store="columnar", workers=2, transport="message"
        )
        assert not outcome.partition.is_partial(range(80))
        pool = _SHARED_POOLS.get(2)
        assert pool is not None and pool._executor is None
        close_shared_pools()

    def test_threshold_override_dispatches(self, fast_pool):
        close_shared_pools()
        graph = random_gnm(80, 160, seed=2)
        beta_partition_ampc(
            graph, 9, store="columnar", workers=2, transport="message",
        )
        pool = _SHARED_POOLS.get(2)
        assert pool is not None and pool._executor is not None
        close_shared_pools()

    def test_workers_auto_accepted_end_to_end(self):
        graph = random_gnm(60, 120, seed=4)
        auto = beta_partition_ampc(graph, 9, store="columnar", workers="auto")
        serial = beta_partition_ampc(graph, 9, store="columnar", workers=1)
        assert auto.partition.layers == serial.partition.layers
        assert auto.workers == resolve_workers("auto")
        close_shared_pools()

    def test_array_engines_thread_scalar_in_process(
        self, monkeypatch, fast_pool
    ):
        # 600 pending games, every round above the cutoff: the default
        # engine plays them on threads, and the scalar oracle plays them
        # one by one on the driver.  Neither acquires the process pool.
        _many_cpus(monkeypatch)
        close_shared_pools()
        played_on = _spy_cohort_threads(monkeypatch)
        g = random_gnm(600, 1200, seed=2)
        beta_partition_ampc(g, 9, store="columnar", workers=2)
        assert played_on - {threading.get_ident()}, "no game left the driver"
        assert _SHARED_POOLS.get(2) is None
        serial = beta_partition_ampc(
            g, 9, store="columnar", workers=1, engine="scalar"
        )
        scalar = beta_partition_ampc(
            g, 9, store="columnar", workers=2, engine="scalar",
        )
        assert _SHARED_POOLS.get(2) is None
        assert multiprocessing.active_children() == []
        assert scalar.partition.layers == serial.partition.layers
        assert scalar.round_recovery == {}

    def test_auto_counts_usable_cpus_not_installed(self, monkeypatch):
        # An affinity mask (taskset, a cgroup cpuset) grants fewer CPUs
        # than the machine has: "auto", the process cap and the thread
        # cap must all follow the mask.
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {5}, raising=False
        )
        assert usable_cpus() == 1
        assert resolve_workers("auto") == 1
        with CoinGamePool(4) as pool:
            assert pool.workers == 4 and pool.procs == 1
        played_on = _spy_cohort_threads(monkeypatch)
        _play_fleet(random_gnm(300, 600, seed=3), 9, workers=4)
        assert played_on == {threading.get_ident()}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 4, 6})
        assert usable_cpus() == 3
        # Without sched_getaffinity (macOS, Windows) the installed count
        # is all there is to go on.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert usable_cpus() == 64


def _many_cpus(monkeypatch, count=8):
    """Pretend this process may use ``count`` CPUs, so the thread
    fan-out engages at workers 2 and 4 even on a 1-CPU host.  The game
    thread pool is sized once, at creation, so the test gets a fresh one
    of ``count`` threads (shut down after the test)."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )
    monkeypatch.setattr(columnar_rounds, "_GAME_THREADS", None)


def _spy_cohort_threads(monkeypatch, ejections=None, barrier=None):
    """Record the thread idents that play cohorts (both array engines);
    with ``ejections`` given, also the ejection count of every slice.
    A ``barrier`` holds each thread at its first slice until all parties
    have claimed one, so no thread can drain every slice alone."""
    played_on: set[int] = set()

    def spying(original):
        def spy(*args, **kwargs):
            if barrier is not None and threading.get_ident() not in played_on:
                barrier.wait()
            info = original(*args, **kwargs)
            played_on.add(threading.get_ident())
            if ejections is not None:
                ejections.append(int(info.ejected.size))
            return info

        return spy

    monkeypatch.setattr(
        columnar_rounds, "play_games_batched",
        spying(columnar_rounds.play_games_batched),
    )
    monkeypatch.setattr(
        native, "play_games_compiled", spying(native.play_games_compiled)
    )
    return played_on


def _play_fleet(graph, beta, workers, engine="batched", x=None):
    """One whole-fleet play_fleet call (ejected games not replayed)."""
    offsets, targets = graph.csr()
    n = graph.num_vertices
    x = 2 * (beta + 1) if x is None else x
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    out_layer = np.full(n, _INF)
    out_count = np.zeros(n, dtype=np.int64)
    info = play_fleet(
        offsets, targets, np.arange(n, dtype=np.int64),
        x=x, beta=beta, clip=clip, horizon=horizon,
        scale=fixed_coin_scale(beta, horizon),
        out_layer=out_layer, out_count=out_count, engine=engine,
        want_records=True, workers=workers,
    )
    return info, out_layer, out_count


def _assert_same_fleet(got, want):
    """Every per-game output (flat records, game order) and the folded
    accumulators."""
    info, out_layer, out_count = got
    want_info, want_layer, want_count = want
    for field in (
        "reads", "writes", "super_iterations", "edges_seen", "ejected",
    ):
        assert np.array_equal(
            getattr(info, field), getattr(want_info, field)
        ), field
    assert len(info.records) == len(want_info.records) == 5
    for got_part, want_part in zip(info.records, want_info.records):
        assert np.array_equal(got_part, want_part)
    assert np.array_equal(out_layer, want_layer)
    assert np.array_equal(out_count, want_count)


_ARRAY_ENGINES = [
    "batched",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not native.available(), reason="compiled kernel unavailable"
        ),
    ),
]


class TestThreadFanOut:
    """workers > 1 fans array-engine games out over threads; every
    observable must be bit-identical to the serial run."""

    @pytest.mark.parametrize("engine", _ARRAY_ENGINES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_hub_heavy_fleet_matches_serial(
        self, engine, workers, monkeypatch
    ):
        # 4 slices per thread: more slices than threads, claimed in
        # whatever order the threads get to them; the barrier makes
        # every thread (and its accumulators) take part.
        _many_cpus(monkeypatch)
        graph = preferential_attachment(400, 3, seed=21)
        serial = _play_fleet(graph, 6, 1, engine)
        barrier = threading.Barrier(workers, timeout=60)
        played_on = _spy_cohort_threads(monkeypatch, barrier=barrier)
        threaded = _play_fleet(graph, 6, workers, engine)
        assert len(played_on - {threading.get_ident()}) == workers
        _assert_same_fleet(threaded, serial)

    @pytest.mark.parametrize("engine", _ARRAY_ENGINES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_ejections_in_several_slices_replay_after_join(
        self, engine, workers, monkeypatch, fast_pool
    ):
        # The fleet reports every slice's ejections in game order; the
        # round replays them on the calling thread, after the join, into the
        # same partition as the serial run.  A compiled round replays
        # them through the __int128 tier first; its shrunken budget
        # (between the int64 one and what every game needs) sends some
        # on to the scalar hatch, so both replays run.
        _many_cpus(monkeypatch)
        graph = preferential_attachment(300, 2, seed=11)
        monkeypatch.setattr(batched_games, "SCALE_LIMIT", 1 << 24)
        monkeypatch.setattr(batched_games, "WIDE_SCALE_LIMIT", 1 << 26)
        serial = _play_fleet(graph, 6, 1, engine, x=49)
        ejections: list[int] = []
        _spy_cohort_threads(monkeypatch, ejections)
        threaded = _play_fleet(graph, 6, workers, engine, x=49)
        assert sum(1 for count in ejections if count) >= 2
        _assert_same_fleet(threaded, serial)

        replayed_on = set()
        wide_on = set()

        def spying(original, seen):
            def spy(*args, **kwargs):
                seen.add(threading.get_ident())
                return original(*args, **kwargs)

            return spy

        round_serial = beta_partition_ampc(
            graph, 6, x=49, engine=engine, workers=1
        )
        monkeypatch.setattr(
            columnar_rounds, "play_coin_game",
            spying(columnar_rounds.play_coin_game, replayed_on),
        )
        monkeypatch.setattr(
            native, "play_games_wide",
            spying(native.play_games_wide, wide_on),
        )
        round_threaded = beta_partition_ampc(
            graph, 6, x=49, engine=engine, workers=workers,
        )
        assert replayed_on == {threading.get_ident()}  # on the driver
        assert wide_on == (
            {threading.get_ident()} if engine == "compiled" else set()
        )
        _assert_same_outcome(round_serial, round_threaded)

    @pytest.mark.parametrize("engine", _ARRAY_ENGINES)
    @pytest.mark.parametrize("workers", [2, 4])
    def test_partition_and_round_stats_match_serial(
        self, engine, workers, monkeypatch, fast_pool
    ):
        _many_cpus(monkeypatch)
        graph = preferential_attachment(500, 3, seed=7)
        serial = beta_partition_ampc(graph, 7, engine=engine, workers=1)
        phases: dict = {}
        threaded = beta_partition_ampc(
            graph, 7, engine=engine, workers=workers, phases=phases,
        )
        _assert_same_outcome(serial, threaded)
        assert threaded.unlayered_per_round == serial.unlayered_per_round
        if engine == "compiled":
            assert phases["native"] > 0.0
        close_shared_pools()


class TestGameThreadPool:
    def test_wider_fan_out_leaves_the_pool_usable(self, monkeypatch):
        # A round may still hold the pool (between fetching it and
        # submitting) while a wider fan-out starts: the pool it holds
        # must keep accepting work, so it is never replaced.
        _many_cpus(monkeypatch, 64)
        held = []
        original = columnar_rounds._game_threads

        def spy(*args):
            held.append(original(*args))
            return held[-1]

        monkeypatch.setattr(columnar_rounds, "_game_threads", spy)
        graph = preferential_attachment(200, 3, seed=5)
        serial = _play_fleet(graph, 6, 1)
        for workers in (2, 64):
            _assert_same_fleet(_play_fleet(graph, 6, workers), serial)
        assert held[0].submit(int, "7").result() == 7
        assert all(pool is held[0] for pool in held)


class TestThreadStress:
    """More threads than cores with a tiny switch interval, so the
    interpreter interleaves threads as often as it can."""

    def _switch_often(self):
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        return old

    def test_iota_under_concurrent_growth(self, monkeypatch):
        # A racing grower may swap a different — even smaller — buffer
        # into the global at any moment; a swapper thread does exactly
        # that nonstop, and every call must still get a full prefix.
        monkeypatch.setattr(batched_games, "_IOTA", np.empty(0, np.int64))
        done = threading.Event()

        def swap():
            small = np.arange(1, dtype=np.int64)
            while not done.is_set():
                batched_games._IOTA = small

        def hammer(seed):
            rng = np.random.default_rng(seed)
            for total in rng.integers(2, 5_000, size=2_000).tolist():
                got = batched_games._iota(total)
                if len(got) != total or got[-1] != total - 1:
                    return False
            return True

        old = self._switch_often()
        try:
            swapper = threading.Thread(target=swap)
            swapper.start()
            with ThreadPoolExecutor(7) as executor:
                results = list(executor.map(hammer, range(7), timeout=120))
        finally:
            done.set()
            sys.setswitchinterval(old)
        swapper.join(timeout=30)
        assert not swapper.is_alive()
        assert results == [True] * 7

    @pytest.mark.parametrize("engine", _ARRAY_ENGINES)
    def test_oversubscribed_fan_out_matches_serial(self, engine, monkeypatch):
        _many_cpus(monkeypatch, 16)
        graph = preferential_attachment(300, 3, seed=5)
        serial = _play_fleet(graph, 6, 1, engine)
        old = self._switch_often()
        try:
            threaded = _play_fleet(graph, 6, 8, engine)
        finally:
            sys.setswitchinterval(old)
        _assert_same_fleet(threaded, serial)


class TestQueryAllPort:
    @pytest.mark.parametrize("maker,beta,x", [
        (lambda: union_of_random_forests(120, 2, seed=55), 6, 49),
        (lambda: preferential_attachment(120, 2, seed=5), 6, 49),
    ])
    def test_batched_query_all_matches_scalar(self, maker, beta, x):
        graph = maker()
        merged_b, res_b = PartialPartitionLCA(
            graph, x=x, beta=beta, engine="batched"
        ).query_all()
        merged_s, res_s = PartialPartitionLCA(
            graph, x=x, beta=beta, engine="scalar"
        ).query_all()
        assert merged_b.layers == merged_s.layers
        for v in graph.vertices():
            a, b = res_b[v], res_s[v]
            assert a.root == b.root
            assert a.layer == b.layer
            assert a.queries == b.queries
            assert a.super_iterations == b.super_iterations
            assert a.edges_seen == b.edges_seen
            assert a.explored == b.explored
            assert a.proof.layers == b.proof.layers

    def test_strict_mode_stays_scalar(self):
        graph = path_graph(12)
        lca = PartialPartitionLCA(graph, x=4, beta=1, strict=True)
        merged, results = lca.query_all(vertices=[0, 5])
        assert set(results) == {0, 5}
        assert merged.is_valid(graph, 1)

    def test_e1_rows_engine_invariant(self):
        batched = run_lca_quality(ns=(80,), alphas=(1, 2), xs=(16,))
        scalar = run_lca_quality(
            ns=(80,), alphas=(1, 2), xs=(16,), engine="scalar"
        )
        assert batched == scalar

    def test_f2_rows_engine_invariant(self):
        batched = run_exploration_ablation(
            beta=3, chain_length=3, fan=15, decoy_fan=15
        )
        scalar = run_exploration_ablation(
            beta=3, chain_length=3, fan=15, decoy_fan=15, engine="scalar"
        )
        assert batched == scalar


class TestMultiRoundUnderBatchedEngine:
    def test_deep_path_matches_oracle(self):
        # β = 1, x = 2 strips two layers off each end of a path per
        # round, so interior games are replayed unchanged round after
        # round — each round must play them afresh, identically.
        g = path_graph(40)
        oracle = beta_partition_ampc(g, 1, x=2, store="dict")
        batched = beta_partition_ampc(
            g, 1, x=2, store="columnar", engine="batched"
        )
        assert batched.rounds >= 3
        _assert_same_outcome(oracle, batched)

    def test_deep_tree_matches_oracle(self):
        # Residual shrink and frontier degree drift between rounds.
        beta = 3
        g = complete_ary_tree(beta + 1, 4)
        oracle = beta_partition_ampc(g, beta, x=beta + 1, store="dict")
        batched = beta_partition_ampc(
            g, beta, x=beta + 1, store="columnar", engine="batched"
        )
        assert batched.rounds >= 2
        _assert_same_outcome(oracle, batched)

    def test_deep_path_with_pool_matches_oracle(self, fast_pool):
        g = path_graph(40)
        oracle = beta_partition_ampc(g, 1, x=2, store="dict")
        pooled = beta_partition_ampc(
            g, 1, x=2, store="columnar", engine="batched", workers=2,
        )
        _assert_same_outcome(oracle, pooled)
        close_shared_pools()


@pytest.fixture(autouse=True)
def _no_worker_env(monkeypatch):
    """These tests pin worker counts explicitly; isolate from CI's env."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    yield
    # A pool created for a test's pretend CPU count (_many_cpus) dies
    # with the test, once undo() has restored the process's own.
    pool = columnar_rounds._GAME_THREADS
    monkeypatch.undo()
    if pool is not None and columnar_rounds._GAME_THREADS is not pool:
        pool.shutdown(wait=True)
    # No test may leak an in-process injected fault plan.
    assert faults._ACTIVE_SET is False
