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
so the fleet can shard across worker processes
(:class:`repro.ampc.pool.CoinGamePool`) or message-passing shards
(:class:`repro.ampc.messaging.MessageFabric`); the kernel folds each
shard's layer-proposal deltas and per-machine counts back through the
same min/+ accumulators the serial loop uses, making the result
independent of shard completion order.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.ampc.machine import BatchMachineContext
from repro.ampc.pool import min_pool_games_for
from repro.core.batched_games import (
    csr_transpose_positions,
    play_games_batched,
)
from repro.graphs.graph import Graph
from repro.lca.coin_game import fixed_coin_scale, max_provable_layer

__all__ = [
    "LazyAdjacency",
    "lca_round_kernel",
    "peel_round_kernel",
    "play_coin_game",
    "residual_adjacency_lists",
    "residual_csr",
]

# A game record is the plain tuple
#     (explored, proof, reads, writes)
# where ``explored`` lists the final S_v in exploration order, ``proof``
# the clipped (vertex, layer) proof entries, and reads/writes the
# machine's communication charge.  Plain lists/ints keep record
# construction out of the per-game hot path.  The message fabric reads
# ``explored`` to check a shard-local run against the rows it holds.

_INF = float("inf")

# Lockstep games run in game-index blocks of this size so each block's
# struct-of-arrays arena stays cache-resident (see
# run_games_batched_with_fallback); a pure throughput knob.
COHORT_GAMES = 8192


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
    residual targets only ever point at alive vertices); pool workers
    use that form so shard payloads need not carry the alive set.
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
    ``("layer", v) <- 0`` when deg <= β.  The layer column is min-folded
    on write, so the round's ``reducer=min`` is a no-op by construction.
    """
    alive = batch.machine_ids
    offsets, __ = batch.previous.adjacency_csr()
    degs = offsets[alive + 1] - offsets[alive]
    assigned = alive[degs <= beta]
    batch.target.fold_layer_proposals(assigned, np.zeros(len(assigned)))
    reads = np.ones(len(alive), dtype=np.int64)
    writes = (degs <= beta).astype(np.int64)
    batch.account(reads, writes)


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


def run_games_batched_with_fallback(
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
    want_records: bool = False,
    phases: dict | None = None,
    transpose_pos: np.ndarray | None = None,
    config=None,
    engine: str = "batched",
) -> tuple[np.ndarray, np.ndarray, list | None]:
    """An array engine plus its per-game scalar escape hatch.

    Games the array engine ejects (coin scales past the machine-word
    budget — see :mod:`repro.core.batched_games`) replay through
    :func:`play_coin_game`, whose fixed-scale Python integers widen to
    bigints (or Fractions for deep horizons); both paths fold into the
    same ``out_layer``/``out_count`` accumulators.  ``transpose_pos``
    lets callers that run many fleets against one residual CSR (pool
    workers, chiefly) reuse the per-round transpose map.  ``engine``
    picks the cohort player: ``"batched"`` (numpy lockstep) or
    ``"compiled"`` (the fused C kernel of :mod:`repro.core.native`,
    bit-identical, no transpose map needed).
    """
    # Cohort blocking: the engine's state is gathered/scattered millions
    # of times per round, and a whole-fleet arena (hundreds of MB at
    # bench scale) turns every access into a cache miss.  Games are
    # independent and every fold is commutative, so running the fleet as
    # cache-sized game-index blocks is observationally identical — each
    # block's arena stays resident the way a scalar game's dicts do.
    num_games = len(roots)
    block = COHORT_GAMES if config is None else config.cohort_games
    all_reads = np.zeros(num_games, dtype=np.int64)
    all_writes = np.zeros(num_games, dtype=np.int64)
    records: list | None = [None] * num_games if want_records else None
    ejected: list[int] = []
    if engine == "compiled":
        from repro.core.native import play_games_compiled

        play_cohort = play_games_compiled
    else:
        play_cohort = play_games_batched
        if transpose_pos is None:
            transpose_pos = csr_transpose_positions(offsets, targets)
    arena_hint = [0, 0]
    for start in range(0, num_games, block):
        stop = min(start + block, num_games)
        info = play_cohort(
            offsets, targets, roots[start:stop],
            x=x, beta=beta, clip=clip, horizon=horizon, scale=scale,
            out_layer=out_layer, out_count=out_count,
            want_records=want_records, phases=phases,
            transpose_pos=transpose_pos, arena_hint=arena_hint,
        )
        all_reads[start:stop] = info.reads
        all_writes[start:stop] = info.writes
        if records is not None:
            records[start:stop] = info.records
        ejected.extend((info.ejected + start).tolist())
    if ejected:
        adj = LazyAdjacency(offsets, targets)
        for gi in ejected:
            reads, writes, record = play_coin_game(
                adj, int(roots[gi]), x, beta, clip, horizon, scale,
                out_layer, out_count, want_records,
            )
            all_reads[gi] = reads
            all_writes[gi] = writes
            if records is not None:
                records[gi] = record
    return all_reads, all_writes, records


def lca_round_kernel(
    batch: BatchMachineContext,
    beta: int,
    x: int,
    pool=None,
    engine: str = "batched",
    min_pool_games: int | None = None,
    phases: dict | None = None,
    fabric=None,
    comm: dict | None = None,
    config=None,
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
    verbatim as the oracle).  ``pool`` (a
    :class:`repro.ampc.pool.CoinGamePool`) shards the fleet across
    worker processes at cohort granularity — unless the round has fewer
    than ``min_pool_games`` games (None: the engine-aware
    :func:`repro.ampc.pool.min_pool_games_for` cutoff — the batched
    kernels amortize dispatch only on much larger rounds than the
    scalar interpreter), where dispatch overhead would exceed the games
    themselves and the round runs in-process.  All layers fold through
    the same min/+ accumulators, so partitions, per-round stats, and
    word counts are identical for every knob combination.

    ``phases``, when given, accumulates per-phase wall-clock seconds
    (``explore`` / ``forward`` / ``fold`` from the batched engine,
    ``native`` / ``fold`` from the compiled one).  Worker shards are not
    instrumented, but every key of the engine is always present, so a
    run whose games all went to workers reads as zeros, not missing
    keys.

    ``fabric`` (a :class:`repro.ampc.messaging.MessageFabric`) replaces
    the pool with owner-hashed message-passing shards — every game
    dispatches (no ``min_pool_games`` gate: the fabric models the
    memory/communication discipline, not throughput), the round's
    communication counters accumulate into ``comm``, and the fold path
    is shared with the pool since both return ``(positions,
    ShardResult)`` pairs.  ``config`` (an
    :class:`repro.ampc.engine_config.EngineConfig`) pins the run's
    cohort/dispatch knobs; None falls back to the module constants.
    """
    alive = batch.machine_ids
    offsets, targets = batch.previous.adjacency_csr()
    n = len(offsets) - 1
    clip = max_provable_layer(x, beta)
    horizon = 4 * (clip + 2)
    scale = fixed_coin_scale(beta, horizon)
    if min_pool_games is None:
        min_pool_games = min_pool_games_for(engine, config)
    if phases is not None:
        keys = (
            ("native", "fold") if engine == "compiled"
            else ("explore", "forward", "fold")
        )
        for key in keys:
            phases.setdefault(key, 0.0)

    # Both array engines share the ndarray accumulators and dispatch
    # branches; only the numpy lockstep engine wants the transpose map.
    batched = engine in ("batched", "compiled")
    if batched:
        out_layer: object = np.full(n, _INF)
        out_count: object = np.zeros(n, dtype=np.int64)
    else:
        out_layer = [_INF] * n
        out_count = [0] * n

    def _fold_shards(shards):
        # Shared merge for pool and fabric shard results: every piece is
        # a commutative min/+ scatter, so arrival order is irrelevant.
        for shard_positions, shard in shards:
            if batched:
                np.minimum.at(out_layer, shard.fold_vertices, shard.fold_minima)
                np.add.at(out_count, shard.fold_vertices, shard.fold_counts)
            else:
                for u, minimum, count in zip(
                    shard.fold_vertices.tolist(),
                    shard.fold_minima.tolist(),
                    shard.fold_counts.tolist(),
                ):
                    if minimum < out_layer[u]:
                        out_layer[u] = minimum
                    out_count[u] += count
            batch.account_at(shard_positions, shard.reads, shard.writes)

    positions = np.arange(len(alive), dtype=np.int64)
    if fabric is not None:
        _fold_shards(fabric.run_round(
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
            config=config,
            comm=comm,
            # Shard chains dispatch to pool workers above the same
            # amortization cutoff the pool path uses; smaller rounds
            # (the long tail) run the shards in-process.  Either way
            # the fabric's observables and counters are identical.
            pool=(
                pool if pool is not None and len(alive) >= min_pool_games
                else None
            ),
        ))
    elif pool is not None and len(alive) >= min_pool_games:
        transpose_pos = (
            csr_transpose_positions(offsets, targets)
            if engine == "batched" else None
        )
        cohort = (
            COHORT_GAMES if config is None else config.cohort_games
        )
        _fold_shards(pool.run_games(
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
            transpose_pos=transpose_pos,
            cohort_games=cohort if batched else None,
            config=config,
        ))
    elif batched:
        reads, writes, __ = run_games_batched_with_fallback(
            offsets, targets, alive,
            x=x, beta=beta, clip=clip, horizon=horizon, scale=scale,
            out_layer=out_layer, out_count=out_count,
            phases=phases, config=config, engine=engine,
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

    minima = out_layer if batched else np.array(out_layer)
    counts = np.asarray(out_count, dtype=np.int64)
    batch.target.install_layer_column(minima, counts)


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
    indexables supporting min-update and +=; both the serial kernel and
    pool workers pass dense universe-sized lists) and returning the
    ``(reads, writes, record)`` — ``record`` is a replayable game record
    tuple when ``want_record``, else None.

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
