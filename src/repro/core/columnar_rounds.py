"""Columnar round kernels for Theorem 1.2 — batched machine execution.

This module is the array-native engine behind
:func:`repro.core.beta_partition_ampc.beta_partition_ampc`'s columnar
path.  It replaces three per-element Python walks of the dict-backed
path with bulk kernels, while reproducing its observable behavior —
assignments, round counts, per-machine read/write counts, store words —
*exactly* (the equivalence tests in ``tests/test_core_beta_partition_ampc``
and ``tests/test_parallel_equivalence`` assert this against the
dict-backed oracle):

- :func:`residual_csr` — the residual graph G_i = G[alive] as one
  alive-mask gather over the frozen CSR core, instead of the per-edge
  ``_residual_store_pairs`` generator;
- :func:`peel_round_kernel` — the Barenboim-Elkin peel as a degree-mask
  array kernel (every machine: one deg read, one conditional layer write);
- :func:`lca_round_kernel` — one machine per alive vertex.  A root of
  residual degree <= β writes {v: 0} after its degree read (layer 0 of
  the natural β-partition, one Barenboim-Elkin peel step); every other
  root (a hub) plays the (x, β, F)-coin dropping game against the
  store's columns.  The array engines play whole fleets
  (:mod:`repro.core.batched_games`, :mod:`repro.core.native`); the
  scalar engine and the last tier of the ejection ladder play
  :class:`repro.lca.coin_game.CoinDroppingGame` itself over the CSR rows
  (:func:`play_coin_game`), so the game has exactly one Python
  implementation.

Machines within a round are independent (they all read D_{i-1} only),
so the fleet can fan out over threads or message-passing shards
(:class:`repro.ampc.messaging.MessageFabric`, whose shard chains run
on the same threads through :class:`repro.ampc.pool.CoinGamePool`).
:func:`play_fleet` is the one fleet player of every engine — the shm
round, a fabric shard's sub-round and the Lemma 4.7 LCA's
``query_all`` all call it — and it returns every game complete: the
games whose coins outgrow a machine word finish inside it, on
:class:`CoinDroppingGame`'s exact Python coins.  The
kernel folds each slice's or shard's layer-proposal deltas and
per-machine counts back through the same min/+ accumulators the serial
loop uses, making the result independent of completion order.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from repro.ampc import pool as ampc_pool
from repro.ampc.machine import BatchMachineContext
from repro.ampc.pool import usable_cpus
from repro.core.batched_games import (
    BatchedGamesInfo,
    _segment_indices,
    csr_transpose_positions,
    join_infos,
    play_games_batched,
)
from repro.graphs.graph import Graph
from repro.lca.coin_game import (
    CoinDroppingGame,
    fixed_coin_scale,
    max_provable_layer,
)
from repro.lca.oracle import QueryStats

__all__ = [
    "LazyAdjacency",
    "close_empty_rows",
    "lca_round_kernel",
    "peel_round_kernel",
    "play_coin_game",
    "play_fleet",
    "residual_csr",
]

# A scalar game record is the plain tuple
#     (explored, proof, reads, writes, super_iterations, edges_seen)
# where ``explored`` lists the final S_v in exploration order, ``proof``
# the clipped (vertex, layer) proof entries, reads/writes the machine's
# communication charge, and the last two are CoinGameResult's fields of
# the same names.  Plain lists/ints keep record construction out of the
# per-game hot path.  play_fleet packs them into the flat arrays the
# array engines return (see repro.core.batched_games.BatchedGamesInfo).

_INF = float("inf")

# Lockstep games run in game-index blocks of this size so each block's
# struct-of-arrays arena stays cache-resident (see play_fleet); a pure
# throughput knob.
COHORT_GAMES = 8192

# The fleet player's persistent thread pool; see _game_threads.
_GAME_THREADS: ThreadPoolExecutor | None = None
_GAME_THREADS_LOCK = threading.Lock()


def residual_csr(
    graph: Graph, alive: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """CSR of G[alive] over the full vertex universe (dead rows empty).

    Vertex ids are preserved (no remapping), matching the
    ``("adj", v, j)`` encoding of Theorem 1.2's proof.  One vectorized
    gather + mask instead of a per-edge Python filter.
    """
    n = graph.num_vertices
    if len(alive) == n:
        return graph.csr()
    mask = np.zeros(n, dtype=bool)
    mask[alive] = True
    nbrs, boundaries = graph.neighbors_of(alive)
    keep = mask[nbrs]
    targets = nbrs[keep]
    kept = np.zeros(len(nbrs) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    counts = kept[boundaries[1:]] - kept[boundaries[:-1]]
    degrees = np.zeros(n, dtype=np.int64)
    degrees[alive] = counts
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    return offsets, targets


def peel_round_kernel(batch: BatchMachineContext, beta: int) -> None:
    """One Barenboim-Elkin peel round as an array kernel.

    Machine M_v reads its residual degree (one probe) and writes
    ``("layer", v) <- 0`` when deg <= β.  Each vertex gets at most one
    proposal, so the round's ``reducer=min`` is a no-op by construction.
    """
    alive = batch.machine_ids
    offsets, __ = batch.previous.adjacency_csr()
    degs = offsets[alive + 1] - offsets[alive]
    low = degs <= beta
    n = len(offsets) - 1
    minima = np.full(n, _INF)
    minima[alive[low]] = 0.0
    counts = np.zeros(n, dtype=np.int64)
    counts[alive[low]] = 1
    batch.target.install_layer_column(minima, counts)
    batch.account(np.ones(len(alive), dtype=np.int64), low.astype(np.int64))


class LazyAdjacency(dict):
    """Residual adjacency rows of a CSR, each made a list on first read.

    It is also the probe-counting oracle (:meth:`explore`, ``stats``)
    that :func:`play_coin_game`'s games query, one per fleet, so the
    games the interpreter plays share the rows they read and pay only
    for those.  A row hit is a plain dict lookup; only a miss calls
    :meth:`__missing__`.  The CSR stays plain arrays: a fabric shard
    rewrites its ``offsets`` in place later.
    """

    def __init__(self, offsets: np.ndarray, targets: np.ndarray) -> None:
        super().__init__()
        self._offsets = offsets
        self._targets = targets
        self.stats = QueryStats()

    def __missing__(self, v: int) -> list[int]:
        row = self._targets[self._offsets[v]:self._offsets[v + 1]].tolist()
        self[v] = row
        return row

    def explore(self, v: int) -> list[int]:
        """``v``'s row, charged as 1 degree probe + deg neighbor probes."""
        row = self[v]
        self.stats.degree_probes += 1
        self.stats.neighbor_probes += len(row)
        return row


def close_empty_rows(
    offsets: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR with every listed empty row filled with the rows listing it.

    The batched engine patches its row arena through a transpose map
    (:func:`~repro.core.batched_games.csr_transpose_positions`) that
    needs every edge's reverse.  A fabric shard's CSR lists fringe
    vertices whose rows it does not hold and reads as empty; closing
    gives each such row, ascending, the rows that list it.  Only a game
    that explores a fringe vertex reads a synthetic row, and the fabric
    discards that game, since its explored set is not held.  Their
    fake cycles escalate such a game's coin scale far past its true
    trajectory's, so :func:`play_fleet` plays the ejected games on the
    CSR as given.  A CSR with no listed empty row (every residual CSR)
    comes back as the same objects.
    """
    deg = np.diff(offsets)
    listed_empty = deg[targets] == 0
    if not listed_empty.any():
        return offsets, targets
    n = len(deg)
    rows = targets[listed_empty]
    # Sources are ascending in CSR order, so a stable sort by row keeps
    # each synthetic row ascending.
    listers = np.repeat(np.arange(n, dtype=np.int64), deg)[listed_empty]
    extra = np.bincount(rows, minlength=n)
    closed_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg + extra, out=closed_offsets[1:])
    closed = np.empty(int(closed_offsets[-1]), dtype=np.int64)
    closed[_segment_indices(closed_offsets[:-1], deg)] = targets
    closed[_segment_indices(closed_offsets[:-1], extra)] = listers[
        np.argsort(rows, kind="stable")
    ]
    return closed_offsets, closed


def _game_threads() -> ThreadPoolExecutor:
    """The process-wide thread pool the fleet player fans out over.

    The message fabric's shard chains run on it too
    (:meth:`repro.ampc.pool.CoinGamePool.run_games`).

    Created once, on first use, with :func:`usable_cpus` threads, and
    kept for the process's lifetime (idle threads cost nothing; the
    interpreter joins them at exit).  It is never replaced, so a round
    that already holds it can always submit.  A fan-out submits exactly
    its own number of drain loops, ``min(workers, usable_cpus(),
    games)``, so ``workers`` bounds how many run at once.
    """
    global _GAME_THREADS
    with _GAME_THREADS_LOCK:
        if _GAME_THREADS is None:
            _GAME_THREADS = ThreadPoolExecutor(
                max_workers=usable_cpus(), thread_name_prefix="repro-games"
            )
        return _GAME_THREADS


def play_fleet(
    offsets: np.ndarray,
    targets: np.ndarray,
    roots: np.ndarray,
    *,
    x: int,
    beta: int,
    clip: int,
    horizon: int,
    scale: int | None,
    out_layer: np.ndarray,
    out_count: np.ndarray,
    engine: str,
    want_records: bool = False,
    phases: dict | None = None,
    workers: int = 1,
) -> BatchedGamesInfo:
    """Play one game per root, every game complete; outputs in game order.

    The one fleet player of every engine: the shm lca round, a fabric
    shard's sub-round and
    :meth:`repro.lca.partial_partition_lca.PartialPartitionLCA.query_all`
    all call it.  Layers fold into ``out_layer``/``out_count``; the
    returned :class:`~repro.core.batched_games.BatchedGamesInfo` covers
    the whole fleet, flat records included when ``want_records``.

    ``engine`` picks the cohort player: ``"compiled"`` (the fused C
    kernel of :mod:`repro.core.native`) or ``"batched"`` (numpy
    lockstep, bit-identical; it plays the CSR closed by
    :func:`close_empty_rows` and gets its transpose map built once
    here).  ``"scalar"`` plays every game through
    :func:`play_coin_game`, serially; ``scale`` is only the array
    engines' starting coin scale.

    The ejection ladder: a cohort player ejects the games whose coin
    scale outgrows int64 (see :mod:`repro.core.batched_games`).  After
    the join, on the calling thread and into the same accumulators,
    :func:`play_coin_game` replays them on the CSR as given, for both
    array engines.  Every game comes back complete; ``ejected`` still
    lists the int64 pass's ejections.

    Cohort blocking: the engine's state is gathered and scattered
    millions of times per round, and a whole-fleet arena (hundreds of MB
    at bench scale) turns every access into a cache miss.  Games are
    independent and every fold is commutative, so the fleet plays as
    game-index blocks of :data:`COHORT_GAMES` (read at call time, so
    tests monkeypatch it), each block sized from the last one's arena
    (the arena hint).

    ``workers > 1`` fans the games out over ``min(workers, usable CPUs)``
    threads of one persistent pool.  The roots split into about four
    slices per thread (never more than :data:`COHORT_GAMES` games each),
    which the threads claim one at a time, so a slow hub-heavy slice
    does not stall the others.  Each thread folds into its own
    accumulators; the caller's are min/+-folded from them after the
    join, and per-game outputs join by slice position.  cffi drops the
    GIL for every compiled cohort call and the kernel keeps no global
    state, so the threads really run in parallel.  Thread slices run
    without ``phases``; instead a threaded compiled run adds its whole
    fan-out wall time to ``phases["native"]`` once, and the accumulator
    fold to ``phases["fold"]``.  Every observable is bit-identical to
    the serial run.
    """
    game = dict(x=x, beta=beta, clip=clip, horizon=horizon)
    if engine == "scalar":
        return _interpret(
            offsets, targets, roots, out_layer, out_count, want_records,
            **game,
        )
    num_games = len(roots)
    block = COHORT_GAMES
    cohort_offsets, cohort_targets = offsets, targets
    transpose_pos = None
    if engine == "compiled":
        from repro.core.native import play_games_compiled

        play_cohort = play_games_compiled
    else:
        play_cohort = play_games_batched
        cohort_offsets, cohort_targets = close_empty_rows(offsets, targets)
        transpose_pos = csr_transpose_positions(
            cohort_offsets, cohort_targets
        )

    threads = min(workers, usable_cpus(), num_games)
    if threads > 1:
        pieces = max(4 * threads, -(-num_games // block))
        pieces = min(pieces, num_games)
        bounds = (np.arange(pieces + 1) * num_games // pieces).tolist()
    else:
        # An empty fleet still plays one (empty) cohort.
        bounds = list(range(0, num_games, block)) or [0]
        bounds.append(num_games)
    infos: list[BatchedGamesInfo | None] = [None] * (len(bounds) - 1)
    claim = itertools.count()

    def drain(layer, count, slice_phases):
        # Play slices until none are left; next() on a shared counter is
        # atomic, so every slice is claimed exactly once.
        arena_hint = [0, 0]
        while (i := next(claim)) < len(infos):
            infos[i] = play_cohort(
                cohort_offsets, cohort_targets,
                roots[bounds[i]:bounds[i + 1]],
                out_layer=layer, out_count=count,
                want_records=want_records, phases=slice_phases,
                transpose_pos=transpose_pos, arena_hint=arena_hint,
                scale=scale, **game,
            )
        return layer, count

    if threads > 1:
        n = len(out_layer)
        executor = _game_threads()
        t0 = time.perf_counter()
        futures = [
            executor.submit(
                drain, np.full(n, _INF), np.zeros(n, dtype=np.int64), None
            )
            for __ in range(threads)
        ]
        wait(futures)
        parts = [future.result() for future in futures]
        t1 = time.perf_counter()
        for layer, count in parts:
            np.minimum(out_layer, layer, out=out_layer)
            out_count += count
        if phases is not None:
            if engine == "compiled":
                phases["native"] = phases.get("native", 0.0) + t1 - t0
            phases["fold"] = (
                phases.get("fold", 0.0) + time.perf_counter() - t1
            )
    else:
        drain(out_layer, out_count, phases)
    info = infos[0] if len(infos) == 1 else join_infos(infos)

    left = info.ejected
    if left.size:
        info = _fill(info, left, _interpret(
            offsets, targets, roots[left], out_layer, out_count,
            want_records, **game,
        ))
    return info


def _interpret(
    offsets, targets, roots, out_layer, out_count, want_records, *,
    x, beta, clip, horizon,
) -> BatchedGamesInfo:
    """Play ``roots`` one at a time through :func:`play_coin_game`.

    Its exact Python coins never overflow, so every game finishes.  The
    games share one :class:`LazyAdjacency` oracle.  The module global is
    looked up per call, so a patched ``play_coin_game`` sees every game
    it plays.
    """
    adj = LazyAdjacency(offsets, targets)
    g = len(roots)
    reads = np.zeros(g, dtype=np.int64)
    writes = np.zeros(g, dtype=np.int64)
    super_iterations = np.zeros(g, dtype=np.int64)
    edges_seen = np.zeros(g, dtype=np.int64)
    member_counts = np.zeros(g, dtype=np.int64)
    proof_counts = np.zeros(g, dtype=np.int64)
    members: list[int] = []
    proof: list[tuple[int, int]] = []
    for i, root in enumerate(roots.tolist()):
        reads[i], writes[i], record = play_coin_game(
            adj, root, x, beta, clip, horizon, out_layer, out_count, True,
        )
        explored, pairs, __, __, super_iterations[i], edges = record
        if want_records:
            edges_seen[i] = edges
            members += explored
            proof += pairs
            member_counts[i] = len(explored)
            proof_counts[i] = len(pairs)
    records = None
    if want_records:
        pairs = np.array(proof, dtype=np.int64).reshape(-1, 2)
        records = (
            np.array(members, dtype=np.int64), pairs[:, 0].copy(),
            pairs[:, 1].copy(), member_counts, proof_counts,
        )
    return BatchedGamesInfo(
        reads, writes, records, super_iterations, edges_seen,
        np.empty(0, dtype=np.int64),
    )


def _fill(
    info: BatchedGamesInfo, games: np.ndarray, tier: BatchedGamesInfo
) -> BatchedGamesInfo:
    """``info`` with the outputs of ``games`` (ascending, zeroed in
    ``info``) taken from ``tier``, which played them in that order."""
    for field in ("reads", "writes", "super_iterations", "edges_seen"):
        getattr(info, field)[games] = getattr(tier, field)
    if info.records is None:
        return info
    members, proof_u, proof_l, member_counts, proof_counts = info.records
    member_counts[games] = tier.records[3]
    proof_counts[games] = tier.records[4]
    return info._replace(records=(
        _spliced(members, member_counts, games, tier.records[0]),
        _spliced(proof_u, proof_counts, games, tier.records[1]),
        _spliced(proof_l, proof_counts, games, tier.records[2]),
        member_counts, proof_counts,
    ))


def _spliced(flat, counts, games, tier_flat) -> np.ndarray:
    """``flat`` with ``tier_flat`` as the (so far empty) segments of
    ``games``; ``counts`` already holds the new segment lengths."""
    slots = _segment_indices(
        np.cumsum(counts)[games] - counts[games], counts[games]
    )
    out = np.empty(len(flat) + len(tier_flat), dtype=np.int64)
    rest = np.ones(len(out), dtype=bool)
    rest[slots] = False
    out[slots] = tier_flat
    out[rest] = flat
    return out


def lca_round_kernel(
    batch: BatchMachineContext,
    beta: int,
    x: int,
    pool=None,
    engine: str = "batched",
    phases: dict | None = None,
    fabric=None,
    comm: dict | None = None,
    workers: int = 1,
) -> None:
    """One LCA round: every alive hub machine plays the coin game.

    A machine whose root has residual degree <= β writes the proof
    {v: 0}, which is valid (v is in layer 0 of the natural β-partition),
    charging one read and one write as in :func:`peel_round_kernel`.
    The other machines (the hubs) play the game; the degree read that
    decides is their game's first probe, so a hub charges exactly what a
    full game charges.  Proof layers are
    min-folded into the target's layer column as each game finishes (the
    DDS-side merge of Remark 4.8 + Lemma 4.10); probe and write counts
    are accounted per machine, exactly as the scalar
    :class:`~repro.ampc.machine.MachineContext` would have charged them.

    ``engine`` selects how the fleet's games execute: ``"batched"`` runs
    them in lockstep as array kernels (:mod:`repro.core.batched_games`),
    ``"compiled"`` plays each cohort in one fused C pass
    (:mod:`repro.core.native`, bit-identical to batched), ``"scalar"``
    interprets them one at a time (:func:`play_coin_game`, which plays
    :class:`~repro.lca.coin_game.CoinDroppingGame`, the oracle).  Every
    engine plays through one :func:`play_fleet` call, which finishes the
    games it ejects itself.

    Rounds that play at least :data:`repro.ampc.pool.MIN_POOL_GAMES`
    games (hub roots, not machines; read at call time) fan out over
    threads when ``workers > 1``; smaller rounds run serially
    in-process, where dispatch would cost more than the games, and the
    scalar engine always plays serially.
    Every engine, and the fabric, folds into the same pair of dense
    universe-sized arrays (layer minima, write counts), which become
    the target's layer column, so partitions, per-round stats, and word
    counts are identical for every knob combination.

    ``phases``, when given, accumulates per-phase wall-clock seconds
    (``explore`` / ``forward`` / ``fold`` from the batched engine,
    ``native`` / ``fold`` from the compiled one).  Every key of the
    engine is always present.  A threaded compiled round books its
    whole fan-out under ``native`` and its accumulator fold under
    ``fold``; a compiled fabric round books its ``run_round`` under
    ``native`` the same way, and any fabric round books its min/+
    scatter under ``fold``.  A threaded batched round and a batched
    fabric round leave ``explore``/``forward`` at zero.

    ``fabric`` (a :class:`repro.ampc.messaging.MessageFabric`) replaces
    all of the above with owner-hashed message-passing shards — every
    hub game dispatches through the fabric, whose shard chains run on the
    game threads through ``pool``
    (:meth:`repro.ampc.pool.CoinGamePool.run_games`) for rounds above
    the cutoff; ``pool`` is used for nothing else.  The
    round's communication counters accumulate into ``comm``, and the
    fabric's ``(positions, ShardResult)`` pairs min/+-scatter into the
    same two arrays.
    """
    alive = batch.machine_ids
    offsets, targets = batch.previous.adjacency_csr()
    n = len(offsets) - 1
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    scale = fixed_coin_scale(beta, horizon)
    # Only the hubs play; every other machine writes {v: 0}.
    hub = offsets[alive + 1] - offsets[alive] > beta
    low = np.flatnonzero(~hub)
    positions = np.flatnonzero(hub)
    hubs = alive[positions]
    big = len(hubs) >= ampc_pool.MIN_POOL_GAMES
    if phases is not None:
        keys = (
            ("native", "fold") if engine == "compiled"
            else ("explore", "forward", "fold")
        )
        for key in keys:
            phases.setdefault(key, 0.0)

    out_layer = np.full(n, _INF)
    out_count = np.zeros(n, dtype=np.int64)
    out_layer[alive[low]] = 0.0
    out_count[alive[low]] = 1
    ones = np.ones(len(low), dtype=np.int64)
    batch.account_at(low, ones, ones)
    if fabric is not None:
        t0 = time.perf_counter()
        shards = fabric.run_round(
            offsets,
            targets,
            hubs,
            positions,
            x=x,
            beta=beta,
            clip=clip,
            horizon=horizon,
            scale=scale,
            engine=engine,
            comm=comm,
            # Shard chains run on the game threads above the cutoff;
            # smaller rounds (the long tail) run them on this thread.
            # Either way the fabric's observables and counters are
            # identical.
            pool=pool if big else None,
        )
        t1 = time.perf_counter()
        # Every piece is a commutative min/+ scatter, so shard order is
        # irrelevant.
        for shard_positions, shard in shards:
            np.minimum.at(out_layer, shard.fold_vertices, shard.fold_minima)
            np.add.at(out_count, shard.fold_vertices, shard.fold_counts)
            batch.account_at(shard_positions, shard.reads, shard.writes)
        if phases is not None:
            if engine == "compiled":
                phases["native"] += t1 - t0
            phases["fold"] += time.perf_counter() - t1
    else:
        info = play_fleet(
            offsets, targets, hubs,
            x=x, beta=beta, clip=clip, horizon=horizon, scale=scale,
            out_layer=out_layer, out_count=out_count, engine=engine,
            phases=phases, workers=workers if big else 1,
        )
        batch.account_at(positions, info.reads, info.writes)

    batch.target.install_layer_column(out_layer, out_count)


def play_coin_game(
    adj: LazyAdjacency,
    root: int,
    x: int,
    beta: int,
    clip: int,
    horizon: int,
    out_layer,
    out_count,
    want_record: bool = False,
) -> tuple[int, int, tuple | None]:
    """Play one (x, β, F)-coin dropping game against residual CSR rows.

    The game is :class:`~repro.lca.coin_game.CoinDroppingGame` with
    ``horizon`` forwarding hops, probing ``adj``.  The layers of the
    final σ_{S_v} that are at most ``clip`` fold into
    ``out_layer``/``out_count`` (any pair of indexables supporting
    min-update and +=; callers pass dense universe-sized arrays).
    Returns ``(reads, writes, record)``: ``reads`` charges 1 + deg per
    explored vertex, root included; ``record`` is the game record tuple
    (see the top of this module) when ``want_record``, else None.
    """
    start = adj.stats.total
    game = CoinDroppingGame(adj, root, x, beta, forward_iterations=horizon)
    result = game.run()
    reads = adj.stats.total - start
    # The caller's clip, not the result's proof: that one is clipped at
    # max_provable_layer(x, β).  σ covers S_v in exploration order.
    sigma = game.current_partition().layers
    writes = 0
    proof: list[tuple[int, int]] | None = [] if want_record else None
    for u, lay in sigma.items():
        if lay <= clip:  # ∞ never passes
            writes += 1
            if lay < out_layer[u]:
                out_layer[u] = lay
            out_count[u] += 1
            if proof is not None:
                proof.append((u, lay))
    record = None
    if want_record:
        record = (
            list(sigma), proof, reads, writes, result.super_iterations,
            result.edges_seen,
        )
    return reads, writes, record
