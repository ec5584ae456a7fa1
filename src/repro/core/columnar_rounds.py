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
- :func:`lca_round_kernel` — one machine per alive vertex playing the
  (x, β, F)-coin dropping game against the store's columns.  The game
  itself (:func:`play_coin_game`) is a re-derivation of
  :class:`repro.lca.coin_game.CoinDroppingGame` specialized for the
  store-backed oracle: identical exploration order, coin arithmetic
  (fixed-scale exact integers, Fraction fallback for deep
  horizons), proofs, and probe counts, with three exactness-preserving
  shortcuts:

  1. σ_{S_v} is computed lazily — forwarding sets of vertices with at
     most β+1 neighbors do not depend on σ (Definition 4.1 takes all
     neighbors), so the per-super-iteration peel runs only when a
     high-degree vertex must actually rank its neighbors, and once for
     the final proof;
  2. coins resting *outside* S_v never move again (their holders have no
     forwarding set), so the engine tracks outside holders as a touched
     set instead of carrying their exact amounts — the newcomer set is
     identical because every delivered share is positive;
  3. forwarding happens over a worklist of vertices whose amount changed
     (a vertex below its threshold stays below it until it receives), so
     an iteration costs O(#forwarders + #shares), not O(#holders).

Machines within a round are independent (they all read D_{i-1} only),
so the fleet can fan out over threads (the array engines, through
:func:`play_fleet` — the one fleet player, which fabric shards and the
Lemma 4.7 LCA's ``query_all`` share) or message-passing shards
(:class:`repro.ampc.messaging.MessageFabric`, whose shard chains run
on :class:`repro.ampc.pool.CoinGamePool` worker processes); the scalar
oracle always plays in-process.  The kernel
folds each slice's or shard's layer-proposal deltas and per-machine
counts back through the same min/+ accumulators the serial loop uses,
making the result independent of completion order.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from fractions import Fraction

import numpy as np

from repro.ampc import pool as ampc_pool
from repro.ampc.machine import BatchMachineContext
from repro.ampc.pool import usable_cpus
from repro.core.batched_games import (
    BatchedGamesInfo,
    csr_transpose_positions,
    join_infos,
    play_games_batched,
)
from repro.graphs.graph import Graph
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer

__all__ = [
    "LazyAdjacency",
    "lca_round_kernel",
    "peel_round_kernel",
    "play_coin_game",
    "play_fleet",
    "residual_adjacency_lists",
    "residual_csr",
]

# A scalar game record is the plain tuple
#     (explored, proof, reads, writes)
# where ``explored`` lists the final S_v in exploration order, ``proof``
# the clipped (vertex, layer) proof entries, and reads/writes the
# machine's communication charge.  Plain lists/ints keep record
# construction out of the per-game hot path.  The message fabric reads
# ``explored`` to check a shard-local run against the rows it holds.
# The array engines return the same content as flat arrays (see
# repro.core.batched_games.BatchedGamesInfo).

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


def residual_adjacency_lists(
    offsets: np.ndarray, targets: np.ndarray, alive: np.ndarray | None = None
) -> list[list[int] | None]:
    """Python adjacency lists over a residual CSR (None for dead rows).

    The coin-game engine probes adjacency millions of times per round;
    list slices of a pre-converted flat list beat per-probe numpy
    indexing by an order of magnitude.  ``alive=None`` converts every
    row (dead rows become empty lists — they are never probed, because
    residual targets only ever point at alive vertices).
    """
    flat = targets.tolist()
    offs = offsets.tolist()
    if alive is None:
        return [flat[offs[v]:offs[v + 1]] for v in range(len(offsets) - 1)]
    adj: list[list[int] | None] = [None] * (len(offsets) - 1)
    for v in alive.tolist():
        adj[v] = flat[offs[v]:offs[v + 1]]
    return adj


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


class LazyAdjacency:
    """Residual adjacency rows materialized (and memoized) on demand.

    Ejected-game replays probe only the few dozen rows of one game's
    ball; converting the whole residual CSR to flat lists for them would
    dwarf the replay itself.  Supports exactly the ``adj[u]`` access
    :func:`play_coin_game` performs.
    """

    def __init__(self, offsets: np.ndarray, targets: np.ndarray) -> None:
        self._offsets = offsets
        self._targets = targets
        self._rows: dict[int, list[int]] = {}

    def __getitem__(self, v: int) -> list[int]:
        row = self._rows.get(v)
        if row is None:
            start, stop = int(self._offsets[v]), int(self._offsets[v + 1])
            row = self._targets[start:stop].tolist()
            self._rows[v] = row
        return row


def _game_threads() -> ThreadPoolExecutor:
    """The process-wide thread pool the fleet player fans out over.

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
    """Play one game per root on an array engine; outputs in game order.

    The one place that plays a fleet of coin games on an array engine:
    the shm lca round, a fabric shard's sub-round and
    :meth:`repro.lca.partial_partition_lca.PartialPartitionLCA.query_all`
    all call it.  ``engine`` picks the cohort player: ``"batched"``
    (numpy lockstep, which gets the CSR transpose map built once here)
    or ``"compiled"`` (the fused C kernel of :mod:`repro.core.native`,
    bit-identical).  Layers fold into ``out_layer``/``out_count``; the
    returned :class:`~repro.core.batched_games.BatchedGamesInfo` covers
    the whole fleet, flat records included when ``want_records``.

    Games the engine ejects (coin scales past the machine-word budget —
    see :mod:`repro.core.batched_games`) come back in ``ejected`` with
    zeroed outputs and empty record segments; each caller replays them
    through its own escape hatch (:func:`lca_round_kernel` tries the
    kernel's ``__int128`` tier first).

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
    num_games = len(roots)
    block = COHORT_GAMES
    transpose_pos = None
    if engine == "compiled":
        from repro.core.native import play_games_compiled

        play_cohort = play_games_compiled
    else:
        play_cohort = play_games_batched
        transpose_pos = csr_transpose_positions(offsets, targets)

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
                offsets, targets, roots[bounds[i]:bounds[i + 1]],
                x=x, beta=beta, clip=clip, horizon=horizon, scale=scale,
                out_layer=layer, out_count=count,
                want_records=want_records, phases=slice_phases,
                transpose_pos=transpose_pos, arena_hint=arena_hint,
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
    return infos[0] if len(infos) == 1 else join_infos(infos)


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
    """One LCA round: every alive machine plays the coin game.

    Proof layers are min-folded into the target's layer column as each
    game finishes (the DDS-side merge of Remark 4.8 + Lemma 4.10); probe
    and write counts are accounted per machine, exactly as the scalar
    :class:`~repro.ampc.machine.MachineContext` would have charged them.

    ``engine`` selects how the fleet's games execute: ``"batched"`` runs
    them in lockstep as array kernels (:mod:`repro.core.batched_games`),
    ``"compiled"`` plays each cohort in one fused C pass
    (:mod:`repro.core.native`, bit-identical to batched), ``"scalar"``
    interprets them one at a time (:func:`play_coin_game`, kept
    verbatim as the oracle).

    Rounds of at least :data:`repro.ampc.pool.MIN_POOL_GAMES` games
    (read at call time) go parallel when ``workers > 1``; smaller
    rounds run serially in-process, where dispatch would cost more than
    the games.  The array engines play
    through :func:`play_fleet`, which fans out over threads; the games
    it ejects replay here, on the calling thread, down the remaining
    exact tiers.  Coins there go int64 → ``__int128`` →
    bigints/Fractions: a compiled round replays its ejections as one
    cohort of the kernel's ``__int128`` build
    (:func:`repro.core.native.play_games_wide`, booked under
    ``native``), and only the games that outgrow that too reach
    :func:`play_coin_game`.  A batched round sends its ejections
    straight to :func:`play_coin_game`.  The scalar
    engine is the oracle and always plays in-process, one game at a
    time.  Every engine, and the fabric, folds into the same pair of
    dense universe-sized arrays (layer minima, write counts), which
    become the target's layer column, so partitions, per-round stats,
    and word counts are identical for every knob combination.

    ``phases``, when given, accumulates per-phase wall-clock seconds
    (``explore`` / ``forward`` / ``fold`` from the batched engine,
    ``native`` / ``fold`` from the compiled one).  Every key of the
    engine is always present.  A threaded compiled round books its
    whole fan-out under ``native``; a threaded batched round and any
    fabric round leave the engine's own phases at zero.

    ``fabric`` (a :class:`repro.ampc.messaging.MessageFabric`) replaces
    all of the above with owner-hashed message-passing shards — every
    game dispatches through the fabric, whose shard chains run on the
    ``pool``'s processes (:meth:`repro.ampc.pool.CoinGamePool.run_games`)
    for rounds above the cutoff; ``pool`` is used for nothing else.  The
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
    big = len(alive) >= ampc_pool.MIN_POOL_GAMES
    if phases is not None:
        keys = (
            ("native", "fold") if engine == "compiled"
            else ("explore", "forward", "fold")
        )
        for key in keys:
            phases.setdefault(key, 0.0)

    out_layer = np.full(n, _INF)
    out_count = np.zeros(n, dtype=np.int64)
    positions = np.arange(len(alive), dtype=np.int64)
    if fabric is not None:
        shards = fabric.run_round(
            offsets,
            targets,
            alive,
            positions,
            x=x,
            beta=beta,
            clip=clip,
            horizon=horizon,
            scale=scale,
            engine=engine,
            comm=comm,
            # Shard chains dispatch to pool workers above the cutoff;
            # smaller rounds (the long tail) run the shards in-process.
            # Either way the fabric's observables and counters are
            # identical.
            pool=pool if big else None,
        )
        # Every piece is a commutative min/+ scatter, so shard order is
        # irrelevant.
        for shard_positions, shard in shards:
            np.minimum.at(out_layer, shard.fold_vertices, shard.fold_minima)
            np.add.at(out_count, shard.fold_vertices, shard.fold_counts)
            batch.account_at(shard_positions, shard.reads, shard.writes)
    elif engine != "scalar":
        info = play_fleet(
            offsets, targets, alive,
            x=x, beta=beta, clip=clip, horizon=horizon, scale=scale,
            out_layer=out_layer, out_count=out_count, engine=engine,
            phases=phases, workers=workers if big else 1,
        )
        reads, writes, ejected = info.reads, info.writes, info.ejected
        if ejected.size and engine == "compiled":
            # The second tier: the same kernel over __int128 coins
            # replays the ejected games as one cohort, on this thread,
            # into the same accumulators.
            from repro.core.native import play_games_wide

            wide = play_games_wide(
                offsets, targets, alive[ejected],
                x=x, beta=beta, clip=clip, horizon=horizon, scale=scale,
                out_layer=out_layer, out_count=out_count, phases=phases,
            )
            reads[ejected] = wide.reads
            writes[ejected] = wide.writes
            ejected = ejected[wide.ejected]
        if ejected.size:
            # The escape hatch: fixed-scale Python integers widen to
            # bigints (Fractions for deep horizons), folding into the
            # same accumulators.  It probes only each game's ball, so
            # rows are materialized on demand.
            adj = LazyAdjacency(offsets, targets)
            for gi in ejected.tolist():
                reads[gi], writes[gi], __ = play_coin_game(
                    adj, int(alive[gi]), x, beta, clip, horizon, scale,
                    out_layer, out_count,
                )
        batch.account_at(positions, reads, writes)
    else:
        adj = residual_adjacency_lists(offsets, targets, alive)
        reads = np.zeros(len(alive), dtype=np.int64)
        writes = np.zeros(len(alive), dtype=np.int64)
        for slot, v in enumerate(alive.tolist()):
            reads[slot], writes[slot], __ = play_coin_game(
                adj, v, x, beta, clip, horizon, scale, out_layer, out_count,
            )
        batch.account_at(positions, reads, writes)

    batch.target.install_layer_column(out_layer, out_count)


def play_coin_game(
    adj: list[list[int] | None],
    root: int,
    x: int,
    beta: int,
    clip: int,
    horizon: int,
    scale: int | None,
    out_layer,
    out_count,
    want_record: bool = False,
) -> tuple[int, int, tuple | None]:
    """Play one (x, β, F)-coin dropping game against residual adjacency.

    Mirrors :class:`repro.lca.coin_game.CoinDroppingGame` exactly (same
    S_v evolution, same proof, same probe counts — see the module
    docstring for the three exactness-preserving shortcuts), folding the
    clipped proof into ``out_layer``/``out_count`` (any pair of
    indexables supporting min-update and +=; the serial kernel passes
    dense universe-sized arrays, fabric shards sparse dict scratch) and
    returning ``(reads, writes, record)`` — ``record`` is a replayable
    game record tuple when ``want_record``, else None.

    Coins are fixed-scale exact integers (``scale`` from
    :func:`repro.lca.coin_game.fixed_coin_scale`; every share division
    is exact ``//``) or Fractions when ``scale`` is None (deep-horizon
    games).
    """
    bp1 = beta + 1
    inside: dict[int, list[int]] = {}
    inside_get = inside.get
    # Forwarding-set records (inside split, outside split, |F|, forwarding
    # threshold |F|*scale), persisted across super-iterations and patched
    # as S_v grows.  Records are created *threshold-only* (splits None):
    # the hot loop needs just |F|*scale to test a holder, and most
    # holders — high-degree vertices especially, whose split would force
    # a σ-ranking — never accumulate (β+1)·scale coins.  The split is
    # materialized on a record's first forward of the current σ-epoch;
    # σ is constant within a super-iteration and explore-time patches
    # exactly simulate an earlier build, so deferral is value-invisible.
    # Records whose split required a σ-ranking are downgraded back to
    # threshold-only at the next super-iteration (σ changed; |F| didn't).
    recs: dict[int, tuple[list[int] | None, set[int] | None, int, object]] = {}
    recs_get = recs.get
    sigma_recs: list[int] = []

    def explore(u: int) -> int:
        """Add u to S_v; returns its probe charge (1 degree + deg reads)."""
        nbrs = adj[u]
        ins = []
        for w in nbrs:
            il = inside_get(w)
            if il is not None:
                il.append(u)
                ins.append(w)
                rec = recs_get(w)
                if rec is not None:
                    out_m = rec[1]
                    if out_m is not None and u in out_m:
                        # u crossed into S_v; splits are unordered (share
                        # addition commutes, touched is a set).
                        out_m.discard(u)
                        rec[0].append(u)
        inside[u] = ins
        return 1 + len(nbrs)

    reads = explore(root)

    if scale is not None:
        start_amount: object = x * scale
        int_coins = True
    else:
        scale = 1
        start_amount = Fraction(x)
        int_coins = False

    def build_split(u: int, rec):
        """Materialize a threshold-only record's (inside, outside) split."""
        nonlocal sigma
        nbrs = adj[u]
        if len(nbrs) <= bp1:
            fset = nbrs
        else:
            if sigma is None:
                sigma = _induced_sigma(inside, adj, beta)
            sg = sigma.get

            def key(w: int):
                lay = sg(w, _INF)
                return (
                    -lay if lay != _INF else float("-inf"),
                    w in inside,
                    w,
                )

            fset = sorted(nbrs, key=key)[:bp1]
            sigma_recs.append(u)
        ins_m: list[int] = []
        out_m: set[int] = set()
        for w in fset:
            if w in inside:
                ins_m.append(w)
            else:
                out_m.add(w)
        rec = (ins_m, out_m, rec[2], rec[3])
        recs[u] = rec
        return rec

    sigma: dict[int, float] | None = None
    grew = True
    for __ in range(x * x):
        sigma = None  # S_v changed since the last super-iteration
        if sigma_recs:
            for u in sigma_recs:
                old = recs[u]
                recs[u] = (None, None, old[2], old[3])
            sigma_recs = []
        coins: dict[int, object] = {root: start_amount}
        hot: tuple[int, ...] | set[int] = (root,)
        touched: set[int] = set()
        for __h in range(horizon):
            fwds = None
            for u in hot:
                rec = recs_get(u)
                if rec is None:
                    k = len(adj[u])
                    if k > bp1:
                        k = bp1
                    # Threshold |F|*scale; an isolated root (k = 0, only
                    # possible for the root) gets an unreachable sentinel
                    # so the hot loop needs no emptiness test.
                    if k:
                        threshold = k * scale if int_coins else k
                    else:
                        threshold = _INF
                    rec = (None, None, k, threshold)
                    recs[u] = rec
                amount = coins[u]
                if amount >= rec[3]:
                    if rec[0] is None:
                        rec = build_split(u, rec)
                    if fwds is None:
                        fwds = [(u, amount, rec)]
                    else:
                        fwds.append((u, amount, rec))
            if fwds is None:
                break  # nothing can move: a fixed point for this horizon
            new_hot: set[int] = set()
            new_hot_add = new_hot.add
            for u, amount, rec in fwds:
                share = amount // rec[2] if int_coins else amount / rec[2]
                coins[u] -= amount
                for w in rec[0]:
                    if w in coins:
                        coins[w] += share
                    else:
                        coins[w] = share
                    new_hot_add(w)
                out_m = rec[1]
                if out_m:
                    touched.update(out_m)
            hot = new_hot
        # Only vertices not yet in S_v are growth.  On a symmetric
        # adjacency this is a no-op: explore() patches every record's
        # outside split when a member crosses inside, so touched never
        # intersects S_v.  Fabric shards replay games against held rows
        # with missing rows read as empty (repro.ampc.messaging) — there
        # the reverse edge that would trigger the patch may be missing,
        # and an unpatched outside split would re-touch inside vertices
        # every super-iteration, driving the loop to its x² bound.
        touched.difference_update(inside)
        if not touched:
            grew = False
            break
        for u in sorted(touched):
            reads += explore(u)
    if grew or sigma is None:
        sigma = _induced_sigma(inside, adj, beta)
    writes = 0
    proof: list[tuple[int, int]] | None = [] if want_record else None
    for u, lay in sigma.items():
        if lay <= clip:  # ∞ never passes; proofs are clipped (Lemma 4.4)
            writes += 1
            if lay < out_layer[u]:
                out_layer[u] = lay
            out_count[u] += 1
            if proof is not None:
                proof.append((u, lay))
    record = None
    if want_record:
        record = (list(inside), proof, reads, writes)
    return reads, writes, record


def _induced_sigma(
    inside: dict[int, list[int]], adj: list[list[int] | None], beta: int
) -> dict[int, float]:
    """σ_{S_v,β} by synchronous peeling of the incrementally-kept view.

    Semantics of :func:`repro.partition.induced.induced_partition_from_view`
    with the adjacency-closure validation elided (the engine builds the
    closed view itself) and true degrees read off the residual lists.
    """
    sigma = dict.fromkeys(inside, _INF)
    inf_count = {}
    frontier = []
    for u in inside:
        d = len(adj[u])
        if d <= beta:
            frontier.append(u)
        else:
            inf_count[u] = d
    layer_index = 0
    while frontier:
        nxt = []
        for u in frontier:
            sigma[u] = layer_index
        for u in frontier:
            for w in inside[u]:
                if sigma[w] == _INF:
                    c = inf_count[w] - 1
                    inf_count[w] = c
                    if c == beta:
                        nxt.append(w)
        frontier = nxt
        layer_index += 1
    return sigma
