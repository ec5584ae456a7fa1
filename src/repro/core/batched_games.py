"""Lockstep batched coin-game engine — whole game frontiers as array kernels.

:class:`repro.lca.coin_game.CoinDroppingGame` interprets one
(x, β, F)-coin dropping game at a time; at bench scale the per-vertex
Python control flow is the entire lca-round wall clock.  This module
advances **all** of a round's games simultaneously: per program point a
handful of numpy kernels act on game-indexed struct-of-arrays state, so
the interpreter cost is paid per *wave*, not per vertex.

Lockstep invariant
------------------
Every active game sits at the same program point ``(super-iteration s,
forwarding hop h)`` at all times.  The engine's wave loop is the scalar
game loop with the game index turned into an array axis:

- a game whose hop has no forwarder simply contributes nothing to the
  wave (the scalar engine's early ``break`` is a no-op transition, so
  idling is observationally identical);
- a game whose super-iteration touched no outside vertex *retires from
  the batch* at the end of that super-iteration: its final σ_{S_v} is
  computed (in the batched σ-peel, together with every other game
  retiring that wave), its provable layers are min-folded into the
  round's layer column, and its slots stop participating;
- the remaining games advance to super-iteration s+1 together.

Since coin amounts, explored sets, and σ-ranks of one game never feed
into another game's transitions, running games columns-at-a-time visits
exactly the per-game state sequence of the scalar interpreter; every
observable (S_v evolution, probe counts, proof layers, write counts) is
bit-identical.  The differential tests assert this against the scalar
oracle over the full (store, engine, workers) matrix.

Exact within-round exploration sharing
--------------------------------------
All games of a round play against the *same* residual graph G_i, probed
through the same ``("deg", v)`` / ``("adj", v, j)`` store columns.  Two
overlapping games therefore demand **identical** ``(vertex →
sorted-adjacency, degree)`` views of every vertex they both explore.
The engine exploits that with one shared, round-scoped arena:

- the residual CSR ``(offsets, targets)`` is the canonical explored-row
  store: a vertex's sorted adjacency row is referenced in place by
  every game that explores it, never rebuilt per game;
- each (game, vertex) exploration claims one *slot*, and the **row
  arena** materializes that slot's view of its CSR row exactly once —
  each entry resolved to the in-game destination slot (inside S_v) or
  -1 (outside).  Resolution happens a single time per explored
  adjacency entry: entries toward already-explored vertices are
  resolved when the row is claimed, and the matching reverse entries in
  older rows are *patched* in O(1) through a per-round CSR
  transpose-position map (the reverse entry of CSR position p is at a
  fixed position independent of any game).  Afterwards the entire hop
  loop — thresholds, splits, deliveries, touched detection — and the
  final σ-peel run as pure gathers against the arena, with no
  membership search anywhere.

The sharing is **exact**, not approximate, for two reasons.  First, a
round's residual graph is immutable while its machines run (machines of
round i read D_{i-1} and write only layer proposals to D_i — Section
3.1), so the shared row a game reads at hop h is byte-for-byte the row
a private copy would hold.  Second, a game transcript is a pure
function of its root and of the residual adjacency rows restricted to
its explored set (the same purity argument the message fabric of
:mod:`repro.ampc.messaging` relies on); the arena reproduces those rows
verbatim and per-game slot state is disjoint by construction (slots are
keyed by the pair ``game · n + vertex``), so no game can observe another
game's presence and every transcript is unchanged.  What is *not*
shared is anything σ-dependent: σ_{S_v} ranks neighbors relative to the
game-local explored set, so σ-ranked forwarding sets are built per game
(and only for the rare holders with more than β+1 residual neighbors
that actually forward).

Coin representation
-------------------
Coins are exact scaled integers.  When the round's shared fixed scale
``lcm(1..β+1)^horizon`` (:func:`repro.lca.coin_game.fixed_coin_scale`)
fits the engine's machine-word budget, every game starts at that scale
and every share division is exact by construction — the escalation
machinery below never fires.  Past the budget (β = 9 at the default
horizon already needs ~180 bits) each game instead starts at scale 1
and escalates per hop by the smallest factor that clears that hop's
remainders — the dynamic policy of
:meth:`repro.lca.coin_game.CoinDroppingGame._forward_scaled_ints`,
vectorized with ``np.gcd``/``np.lcm.at`` — so amounts stay
machine-word-sized unless a game truly demands more.  Because every
representation is exact, thresholds, shares, and touched sets are
value-identical across all of them (the PR 3 differential tests pinned
this), so the choice is invisible to every observable.  A game whose
escalation would overflow the budget is *ejected*, and the fleet
player (:func:`repro.core.columnar_rounds.play_fleet`) replays it.
Both array engines share one two-rung ladder, each rung exact:

1. int64 coins (this engine, or the compiled kernel) play every game,
   with amounts below :data:`SCALE_LIMIT` = 2^61;
2. the scalar interpreter
   (:func:`repro.core.columnar_rounds.play_coin_game`, which plays
   :class:`~repro.lca.coin_game.CoinDroppingGame`) plays the ejected
   games one at a time: its dynamically scaled Python integers widen
   to bigints (Fractions for deep horizons).

When the full fixed scale does not fit, games do not start at scale 1
either: they start at the largest power ``lcm(1..β+1)^j`` that leaves
escalation headroom within the word budget.  Scale choice is invisible
(coin values are exact rationals at every scale), and the power-of-lcm
start clears the p-adic valuations any realistic division chain
acquires — a share division's denominator growth per hop divides
``lcm(1..β+1)`` — so escalations (and with them per-hop gcd/lcm work
and stamp normalization) essentially never fire outside adversarial
convergent-path constructions, which the backstop still handles
exactly.  All amounts are kept below 2^61 so every int64 product and
scatter-fold in the engine stays exact.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np

__all__ = [
    "BatchedGamesInfo",
    "SCALE_LIMIT",
    "csr_transpose_positions",
    "empty_records",
    "join_infos",
    "play_games_batched",
    "replay_cone_fraction",
]


def replay_cone_fraction(stats: dict) -> float | None:
    """Always None: every super-iteration runs fresh, nothing is replayed.

    The end-to-end benchmark's ``engine.cone_fraction`` metric
    (``e2ebench/metrics.py``) calls it.
    """
    return None


_INF = float("inf")

# Amounts (and therefore scales, thresholds, and per-slot share sums) are
# kept strictly below 2**61: together with the mass-conservation bound
# (no slot ever holds more than the game's total x·scale), every int64
# sum, product, and scatter-add in the engine is overflow-free.
SCALE_LIMIT = 1 << 61

# np.lcm.at accumulates per-game escalation factors in int64; factors are
# lcms of divisor deficits <= beta+1, bounded by lcm(1..beta+1), which
# fits comfortably only up to beta+1 = 36 (lcm(1..36) ~ 1.4e14).  Larger
# betas fold their factors in Python bigints instead.
_VECTOR_LCM_MAX_BP1 = 36


class BatchedGamesInfo(NamedTuple):
    """Per-game outputs of one lockstep run (game order = ``roots`` order).

    ``records`` (None unless asked for) is the flat int64 tuple
    ``(members, proof_u, proof_layer, member_counts, proof_counts)``:
    game ``g``'s final S_v in exploration order and its clipped proof
    entries are the ``counts``-delimited segments of the three flat
    arrays.  Every engine returns this one format.  A cohort player
    leaves its ejected games zeroed, with empty segments; the fleet
    player (:func:`repro.core.columnar_rounds.play_fleet`) fills them.
    """

    reads: np.ndarray  # probe counts
    writes: np.ndarray  # proof-entry writes
    records: tuple | None  # flat records
    super_iterations: np.ndarray  # super-iterations played per game
    edges_seen: np.ndarray  # |E(G[S_v])| per game with records, else 0
    ejected: np.ndarray  # game indices the int64 pass ejected


def empty_records(num_games: int) -> tuple:
    """Flat records of ``num_games`` games that all have empty segments."""
    empty = np.empty(0, dtype=np.int64)
    return (
        empty, empty.copy(), empty.copy(),
        np.zeros(num_games, dtype=np.int64),
        np.zeros(num_games, dtype=np.int64),
    )


def join_infos(infos: list[BatchedGamesInfo]) -> BatchedGamesInfo:
    """The games of ``infos`` back to back, in list order."""
    starts = np.cumsum([0] + [len(info.reads) for info in infos[:-1]])

    def joined(field):
        return np.concatenate([getattr(info, field) for info in infos])

    records = None
    if infos[0].records is not None:
        records = tuple(
            map(np.concatenate, zip(*(info.records for info in infos)))
        )
    return BatchedGamesInfo(
        reads=joined("reads"),
        writes=joined("writes"),
        records=records,
        super_iterations=joined("super_iterations"),
        edges_seen=joined("edges_seen"),
        ejected=np.concatenate(
            [info.ejected + start for info, start in zip(infos, starts)]
        ),
    )


_IOTA = np.empty(0, dtype=np.int64)


def _iota(total: int) -> np.ndarray:
    """Read-only ``arange(total)`` from a shared grow-once buffer.

    Shared by the array engines' fan-out threads.  Each call slices the
    buffer it checked (or built) through a local, never a second read of
    the global, so its result does not depend on where the interpreter
    may switch threads.  Racing growers may leave a smaller buffer in
    the global; every buffer is an ``arange`` prefix, so that only costs
    a later caller a regrow.
    """
    global _IOTA
    buf = _IOTA
    if len(buf) < total:
        buf = np.arange(max(total, 2 * len(buf), 4096), dtype=np.int64)
        _IOTA = buf
    return buf[:total]


def _segment_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat gather indices for rows ``[starts[i], starts[i]+counts[i])``."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += _iota(total)
    return out


def csr_transpose_positions(
    offsets: np.ndarray, targets: np.ndarray
) -> np.ndarray:
    """Position of each CSR entry's reverse: entry p = (v→w) ↦ (w→v).

    Rows are sorted and the edge set is symmetric, so sorting entries by
    (target, source) enumerates exactly the reverse entries in CSR
    order.  A per-round constant — this is what makes row-arena patches
    O(1) per entry (see the module docstring).
    """
    m = len(targets)
    src = np.repeat(
        np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
    )
    transpose_pos = np.empty(m, dtype=np.int64)
    transpose_pos[np.lexsort((src, targets))] = np.arange(m, dtype=np.int64)
    return transpose_pos


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` via quicksort (much faster than the hash path here)."""
    if not values.size:
        return values
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _grown(buf: np.ndarray, need: int, fill) -> np.ndarray:
    """``buf`` with capacity >= ``need`` (amortized doubling, contents kept).

    Arena arrays grow every explore wave; reallocating at exact size would
    copy the whole arena per wave.  New capacity is initialized to
    ``fill`` so buffer invariants (zeroed delta, -1 tags, ...) extend to
    fresh slots without per-wave resets.
    """
    if len(buf) >= need:
        return buf
    cap = max(need, 2 * len(buf), 1024)
    out = np.empty(cap, dtype=buf.dtype)
    out[: len(buf)] = buf
    out[len(buf):] = fill
    return out


class _Lockstep:
    """State and wave kernels of one batched run (see module docstring)."""

    def __init__(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        roots: np.ndarray,
        x: int,
        beta: int,
        clip: int,
        horizon: int,
        scale: int | None,
        out_layer: np.ndarray,
        out_count: np.ndarray,
        want_records: bool,
        transpose_pos: np.ndarray | None = None,
        arena_hint: tuple[int, int] | None = None,
    ) -> None:
        self.arena_hint = arena_hint or (0, 0)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.n = len(offsets) - 1
        self.deg = np.diff(self.offsets)
        self.num_games = len(roots)
        self.x = x
        self.beta = beta
        self.bp1 = beta + 1
        self.clip = clip
        self.horizon = horizon
        self.out_layer = out_layer
        self.out_count = out_count

        self.scale_cap = SCALE_LIMIT // max(1, x * (beta + 2))
        self._lcm_base = math.lcm(*range(1, self.bp1 + 1)) if beta >= 1 else 1
        if scale is not None and scale <= self.scale_cap:
            self.init_scale = scale
        else:
            # Largest lcm(1..β+1) power that leaves two escalations of
            # headroom: clears every realistic denominator up front (see
            # module docstring) while the backstop still has room to fire.
            base = self._lcm_base
            headroom = self.scale_cap // (base * base) if base > 1 else 0
            init = 1
            while init * base <= headroom:
                init *= base
            self.init_scale = init

        # Per-game accumulators (game order = roots order).
        g = self.num_games
        self.reads = np.zeros(g, dtype=np.int64)
        self.writes = np.zeros(g, dtype=np.int64)
        self.super_iters = np.zeros(g, dtype=np.int64)
        self.edges_seen = np.zeros(g, dtype=np.int64)
        # Directed inside edges, counted only with records (as the kernel)
        self.edge_dirs = np.zeros(g, dtype=np.int64)
        self.records = empty_records(g) if want_records else None
        self.active_mask = np.ones(g, dtype=bool)
        self.ejected: list[int] = []
        self.gscale = np.full(g, self.init_scale, dtype=np.int64)

        if transpose_pos is None:
            transpose_pos = csr_transpose_positions(self.offsets, self.targets)
        self.transpose_pos = transpose_pos

        # Member arena: slot -> (game, vertex, min(deg, β+1), forwarding
        # threshold, row region); append order within a game is the
        # scalar exploration order.  All arena arrays are capacity
        # buffers (amortized doubling); ``self.arena`` is the live count.
        # Capacity hints from the previous cohort's final sizes skip the
        # doubling-growth copy chain (cohorts of one fleet end up with
        # similar arena footprints).
        slot_hint, row_hint = self.arena_hint
        self.arena = 0
        self.mem_game = np.empty(slot_hint, dtype=np.int64)
        self.mem_vertex = np.empty(slot_hint, dtype=np.int64)
        self.mem_kcap = np.empty(slot_hint, dtype=np.int64)
        self.mem_thresh = np.empty(slot_hint, dtype=np.int64)
        self.mem_high = np.empty(slot_hint, dtype=bool)
        self.region_start = np.empty(slot_hint, dtype=np.int64)
        self.row_len = 0
        # Row arena: per-slot view of its CSR row, each entry resolved to
        # the in-game destination slot or -1 (outside S_v); target
        # vertices are read off the CSR itself via each slot's fixed
        # arena→CSR offset, never copied.
        self.row_dst = np.empty(row_hint, dtype=np.int64)
        # Membership index: fused keys game*n+vertex, sorted, with the
        # owning slot as payload (sentinel keeps searches in-bounds).
        # Queried only at exploration time — the engine's single largest
        # search volume — so keys narrow to int32 whenever the fused key
        # space fits (half the memory traffic per binary-search level).
        self.key32 = self.num_games * self.n < 2**31 - 1
        key_dtype = np.int32 if self.key32 else np.int64
        sentinel = 2**31 - 1 if self.key32 else 1 << 62
        self.skeys = np.asarray([sentinel], dtype=key_dtype)
        self.sslots = np.asarray([-1], dtype=np.int64)
        self._targets_k = self.targets.astype(key_dtype, copy=False)

        # Per-super-iteration coin state and scratch buffers, capacity
        # grown with the arena.  Invariants between waves: amounts/delta/
        # countbuf all zero, tagbuf all -1, emit all False, sigbuf all
        # +inf — each consumer restores what it dirtied.
        self.amounts = np.empty(0, dtype=np.int64)
        self.stamps = np.empty(0, dtype=np.int64)
        self.delta = np.empty(0, dtype=np.int64)
        self.tagbuf = np.empty(0, dtype=np.int64)
        self.emit = np.empty(0, dtype=bool)
        self.sigbuf = np.empty(0)
        self.countbuf = np.empty(0, dtype=np.int64)

        # Deferred retirement: games stop participating the moment their
        # super-iteration touches nothing, but their final σ-peel, layer
        # fold, and record construction happen once, in one batch, at the
        # end of the run (a retired game's slots and rows never change
        # again, so σ_{S_v} is the same either way).
        self.retired: list[np.ndarray] = []

        self._explore(np.arange(g, dtype=np.int64) * self.n + roots)

    # -- exploration ------------------------------------------------------

    def _explore(self, keys: np.ndarray) -> None:
        """Add the (game, vertex) pairs in ``keys`` (unique, sorted) to S.

        Charges the probe reads, claims arena slots, merges the
        membership index, materializes the new rows into the row arena,
        and patches older rows whose entries just became inside — the
        one place in the engine that performs membership resolution.
        """
        n = self.n
        g_new = keys // n
        v_new = keys % n
        cnt = self.deg[v_new]
        # g_new is sorted (keys are), so a bincount fold beats np.add.at.
        self.reads += np.bincount(
            g_new, weights=1 + cnt, minlength=self.num_games
        ).astype(np.int64)

        first = self.arena
        self.arena = first + len(keys)
        self.mem_game = _grown(self.mem_game, self.arena, 0)
        self.mem_vertex = _grown(self.mem_vertex, self.arena, 0)
        self.mem_kcap = _grown(self.mem_kcap, self.arena, 0)
        self.mem_thresh = _grown(self.mem_thresh, self.arena, 0)
        self.mem_high = _grown(self.mem_high, self.arena, False)
        self.region_start = _grown(self.region_start, self.arena, 0)
        kcap = np.minimum(cnt, self.bp1)
        thresh = kcap * self.init_scale
        thresh[cnt == 0] = 1 << 62  # isolated root: unreachable sentinel
        self.mem_game[first:self.arena] = g_new
        self.mem_vertex[first:self.arena] = v_new
        self.mem_kcap[first:self.arena] = kcap
        self.mem_thresh[first:self.arena] = thresh
        self.mem_high[first:self.arena] = cnt > self.bp1
        self.region_start[first:self.arena] = self.row_len + np.cumsum(cnt) - cnt
        row_first = self.row_len
        self.row_len += int(cnt.sum())
        self.row_dst = _grown(self.row_dst, self.row_len, -1)

        new_slots = np.arange(first, self.arena, dtype=np.int64)
        key_dtype = self.skeys.dtype
        keys_k = keys.astype(key_dtype, copy=False)
        ins = np.searchsorted(self.skeys, keys_k)
        merged_len = len(self.skeys) + len(keys)
        at = ins + _iota(len(keys))
        put = np.ones(merged_len, dtype=bool)
        put[at] = False
        merged_keys = np.empty(merged_len, dtype=key_dtype)
        merged_slots = np.empty(merged_len, dtype=np.int64)
        merged_keys[at] = keys_k
        merged_keys[put] = self.skeys
        merged_slots[at] = new_slots
        merged_slots[put] = self.sslots
        self.skeys = merged_keys
        self.sslots = merged_slots

        # Classify the new rows: queries are grouped by game and the
        # fused keys cluster by game, so the searches stay cache-hot.
        member_idx = np.repeat(np.arange(len(keys), dtype=np.int64), cnt)
        csr_pos = _segment_indices(self.offsets[v_new], cnt)
        qkeys = self._targets_k[csr_pos]
        qkeys += (g_new * n).astype(key_dtype, copy=False)[member_idx]
        pos = np.searchsorted(self.skeys, qkeys)
        hit = self.skeys[pos] == qkeys
        dst = np.full(len(qkeys), -1, dtype=np.int64)
        dst[hit] = self.sslots[pos[hit]]
        self.row_dst[row_first:self.row_len] = dst

        # Patch the reverse entries of rows claimed in earlier waves
        # (same-wave pairs classify each other's entries directly).
        old = (dst >= 0) & (dst < first)
        if old.any():
            du = dst[old]
            patch_pos = (
                self.transpose_pos[csr_pos[old]]
                - self.offsets[self.mem_vertex[du]]
                + self.region_start[du]
            )
            self.row_dst[patch_pos] = first + member_idx[old]
            if self.records is not None:
                self.edge_dirs += np.bincount(
                    self.mem_game[du], minlength=self.num_games
                )
        if hit.any() and self.records is not None:
            self.edge_dirs += np.bincount(
                g_new[member_idx[hit]], minlength=self.num_games
            )

    # -- σ-peel (shared by retirement and mid-flight σ-ranking) -----------

    def _ensure_buffers(self) -> None:
        arena = max(self.arena, self.arena_hint[0])
        if len(self.amounts) < arena:
            self.amounts = _grown(self.amounts, arena, 0)
            self.stamps = _grown(self.stamps, arena, self.init_scale)
            self.delta = _grown(self.delta, arena, 0)
            self.tagbuf = _grown(self.tagbuf, arena, -1)
            self.emit = _grown(self.emit, arena, False)
            self.sigbuf = _grown(self.sigbuf, arena, _INF)
            self.countbuf = _grown(self.countbuf, arena, 0)

    def _dedup(self, slots: np.ndarray) -> np.ndarray:
        """Distinct entries of ``slots`` without sorting or arena scans.

        Scatter each position into the tag buffer (last write per slot
        wins), keep exactly the winners, reset.  Deterministic, and
        orders of magnitude cheaper than ``np.unique`` at per-hop sizes.
        """
        tag = self.tagbuf
        seq = _iota(len(slots))
        tag[slots] = seq
        out = slots[tag[slots] == seq]
        tag[out] = -1
        return out

    def _peel_games(self, games: np.ndarray):
        """σ_{S_v,β} for a cohort, via synchronous lockstep peeling.

        Returns ``(slots, game_per_slot, vertex_per_slot, sigma,
        directed_edge_count_per_game)`` with slots in arena order — the
        batched counterpart of
        :func:`repro.partition.induced.induced_partition_from_view` for
        every game at once (a game with an exhausted frontier receives no
        decrements, so the global layer index advances each game exactly
        as its private peel would).  Inside adjacency comes straight
        from the row arena; no membership work happens here.
        """
        self._ensure_buffers()
        in_cohort = np.zeros(self.num_games, dtype=bool)
        in_cohort[games] = True
        sel = np.flatnonzero(in_cohort[self.mem_game[:self.arena]])
        gg = self.mem_game[sel]
        vv = self.mem_vertex[sel]
        dd = self.deg[vv]
        sigbuf, countbuf = self.sigbuf, self.countbuf
        countbuf[sel] = dd
        frontier = sel[dd <= self.beta]
        layer = 0
        while frontier.size:
            sigbuf[frontier] = layer
            dsts = self._inside_neighbors(frontier)
            if dsts.size:
                np.subtract.at(countbuf, dsts, 1)
                frontier = self._dedup(dsts[
                    np.isinf(sigbuf[dsts]) & (countbuf[dsts] <= self.beta)
                ])
            else:
                frontier = np.empty(0, dtype=np.int64)
            layer += 1
        sigma = sigbuf[sel].copy()
        sigbuf[sel] = _INF  # reset shared buffers for the next cohort
        countbuf[sel] = 0
        return sel, gg, vv, sigma, self.edge_dirs[games]

    def _inside_neighbors(self, slots: np.ndarray) -> np.ndarray:
        """Destination slots of every inside row entry of ``slots``."""
        idx = _segment_indices(
            self.region_start[slots], self.deg[self.mem_vertex[slots]]
        )
        dsts = self.row_dst[idx]
        return dsts[dsts >= 0]

    def _sigma_by_slot(self) -> np.ndarray:
        """σ of every member of an active game that owns a >β+1-degree slot.

        One cohort peel covers every game that could demand a σ-ranking
        this super-iteration; scattering the result by arena slot makes
        the per-hop forwarding-set builds pure gathers.  Eagerness is
        invisible: σ depends only on S_v (constant within the
        super-iteration), costs no probes, and games without high-degree
        members are excluded.
        """
        need = (
            self.mem_high[:self.arena]
            & self.active_mask[self.mem_game[:self.arena]]
        )
        sigma_by_slot = np.full(self.arena, _INF)
        games = _sorted_unique(self.mem_game[:self.arena][need])
        if games.size:
            sel, __g, __v, sigma, __e = self._peel_games(games)
            sigma_by_slot[sel] = sigma
        return sigma_by_slot

    def _build_fsets(
        self, need_slots: np.ndarray, sigma_by_slot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """σ-top-(β+1) forwarding sets for >β+1-degree slots, batched.

        Definition 4.1 with the scalar oracle's deterministic tie-break:
        highest σ-layer first (∞ — unexplored or unlayered — counts
        highest), then unexplored before explored, then low vertex id.
        One lexsort ranks every slot's row at once; rows all exceed β+1
        entries, so the result is a pair of dense
        ``(len(need_slots), β+1)`` matrices (targets and their resolved
        destination slots) in rank order.
        """
        vv = self.mem_vertex[need_slots]
        cnt = self.deg[vv]
        idx = _segment_indices(self.region_start[need_slots], cnt)
        base = self.offsets[vv] - self.region_start[need_slots]
        row_t = self.targets[idx + np.repeat(base, cnt)]
        row_d = self.row_dst[idx]
        member = row_d >= 0
        lay = np.full(len(row_t), _INF)
        lay[member] = sigma_by_slot[row_d[member]]
        layer_rank = np.where(np.isinf(lay), -_INF, -lay)
        seg = np.repeat(np.arange(len(need_slots)), cnt)
        order = np.lexsort((row_t, member, layer_rank, seg))
        starts = np.cumsum(cnt) - cnt
        rank = np.arange(len(row_t)) - np.repeat(starts, cnt)
        pick = order[rank < self.bp1]
        return (
            row_t[pick].reshape(-1, self.bp1),
            row_d[pick].reshape(-1, self.bp1),
        )

    # -- retirement -------------------------------------------------------

    def _retire(self, games: np.ndarray, performed: int) -> None:
        """Mark ``games`` retired; the σ-peel and fold are deferred.

        A retired game's slots, rows, and inside-edge counts never change
        again (its game gets no new members, and patches are per-game),
        so its final σ_{S_v} can be computed at any later point — the run
        computes every retired game's σ in one batched peel at the end
        (:meth:`_retire_finalize`), instead of one peel per wave.
        """
        self.super_iters[games] = performed
        self.active_mask[games] = False
        self.retired.append(games)

    def _retire_finalize(self) -> None:
        """One batched σ-peel + layer fold + flat records for all retirees.

        Runs once per run, so the records cover every game: games that
        never retired (the ejected ones) keep empty segments.
        """
        if not self.retired:
            return
        games = np.concatenate(self.retired)
        self.retired = []
        sel, gg, vv, sigma, edge_counts = self._peel_games(games)
        prov = sigma <= self.clip  # ∞ never passes; proofs clipped (Lemma 4.4)
        pv, pl = vv[prov], sigma[prov]
        if pv.size:
            np.minimum.at(self.out_layer, pv, pl)
            np.add.at(self.out_count, pv, 1)
        self.writes += np.bincount(gg[prov], minlength=self.num_games)
        self.edges_seen[games] = edge_counts // 2
        if self.records is not None:
            # Group by game, keeping each game's exploration order.
            order = np.argsort(gg, kind="stable")
            members = vv[order]
            proved = prov[order]
            self.records = (
                members,
                members[proved],
                sigma[order][proved].astype(np.int64),
                np.bincount(gg, minlength=self.num_games),
                np.bincount(gg[prov], minlength=self.num_games),
            )

    # -- the wave loop ----------------------------------------------------

    def run(self, phases: dict | None = None) -> None:
        active = np.arange(self.num_games, dtype=np.int64)
        if self.scale_cap < 1:
            # No scaled-integer representation fits the word budget at
            # all (astronomical x): every game is ejected.
            self.ejected = active.tolist()
            self.active_mask[:] = False
            self.reads[:] = 0
            return
        clock = time.perf_counter if phases is not None else None
        for s in range(self.x * self.x):
            if not active.size:
                break
            t0 = clock() if clock else 0.0
            touched = self._super_iteration(active)
            if clock:
                phases["forward"] = phases.get("forward", 0.0) + clock() - t0
            active = active[self.active_mask[active]]  # drop mid-hop ejections
            if touched.size:
                touched = touched[self.active_mask[touched // self.n]]
            growing = (
                _sorted_unique(touched // self.n)
                if touched.size
                else np.empty(0, dtype=np.int64)
            )
            done = np.setdiff1d(active, growing, assume_unique=True)
            if done.size:
                self._retire(done, s + 1)
            active = growing
            if touched.size:
                t0 = clock() if clock else 0.0
                self._explore(touched)
                if clock:
                    phases["explore"] = (
                        phases.get("explore", 0.0) + clock() - t0
                    )
        if active.size:
            self._retire(active, self.x * self.x)
        t0 = clock() if clock else 0.0
        self._retire_finalize()
        if clock:
            phases["fold"] = phases.get("fold", 0.0) + clock() - t0
        self.reads[self.ejected] = 0
        self.writes[self.ejected] = 0
        self.super_iters[self.ejected] = 0
        self.edges_seen[self.ejected] = 0

    def _super_iteration(self, active: np.ndarray) -> np.ndarray:
        """One coin drop + forwarding cascade; returns touched keys."""
        self._ensure_buffers()
        self.amounts[:self.arena] = 0
        self.amounts[active] = self.x * self.init_scale  # root slot g == g
        hot = active
        touched_chunks: list[np.ndarray] = []
        emitted: list[np.ndarray] = []
        # σ-ranked forwarding state, built lazily once per super-iteration
        # (σ and S_v are constant within one): σ scattered by arena slot,
        # then per-slot forwarding sets cached as they first forward.
        sigma_by_slot: np.ndarray | None = None
        fsets: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        # No game has escalated its scale yet: thresholds are the
        # precomputed per-slot k·init_scale and receipt merges skip
        # stamp normalization (ratios are all 1).  The lcm-power start
        # makes this the steady state (see module docstring).
        esc = False
        ej_dirty = False

        for __ in range(self.horizon):
            if not hot.size:
                break
            if ej_dirty:
                hot = hot[self.active_mask[self.mem_game[hot]]]
            amt = self.amounts[hot]
            if not esc:
                can = amt >= self.mem_thresh[hot]
            else:
                k = self.mem_kcap[hot]
                can = (k > 0) & (amt >= k * self.gscale[self.mem_game[hot]])
            fwd = hot[can]
            if not fwd.size:
                break
            famt = amt[can]
            fk = self.mem_kcap[fwd]
            fgame = self.mem_game[fwd]

            shares, rem = np.divmod(famt, fk)
            if rem.any():
                if not esc:
                    esc = True
                    self.gscale[:] = self.init_scale
                    self.stamps[:] = self.init_scale
                fwd, famt, fk, fgame, had_ejections = self._escalate(
                    fwd, famt, fk, fgame, rem
                )
                ej_dirty = ej_dirty or had_ejections
                if not fwd.size:
                    break
                shares = famt // fk  # exact by choice of escalation
            self.amounts[fwd] = 0

            fresh = ~self.emit[fwd]
            if fresh.any():
                newly = fwd[fresh]
                self.emit[newly] = True
                emitted.append(newly)

            ds, sh, touched, sigma_by_slot = self._expand(
                fwd, shares, fgame, fresh, fsets, sigma_by_slot,
            )
            if touched is not None:
                touched_chunks.append(touched)
            if not ds.size:
                hot = np.empty(0, dtype=np.int64)
                continue
            np.add.at(self.delta, ds, sh)
            hot = self._dedup(ds)
            if not esc:
                self.amounts[hot] += self.delta[hot]
            else:
                gs = self.gscale[self.mem_game[hot]]
                self.amounts[hot] = (
                    self.amounts[hot] * (gs // self.stamps[hot])
                    + self.delta[hot]
                )
                self.stamps[hot] = gs
            self.delta[hot] = 0

        for chunk in emitted:
            self.emit[chunk] = False
        if not touched_chunks:
            return np.empty(0, dtype=np.int64)
        return _sorted_unique(np.concatenate(touched_chunks))

    def _escalate(self, fwd, famt, fk, fgame, rem):
        """Raise per-game scales so every division of this hop is exact.

        The factor is the lcm of the per-division deficits |F|/gcd(a,|F|)
        (the dynamic policy of the scalar oracle); a game whose factor
        would push its scale past the word budget is ejected instead.
        """
        inexact = rem > 0
        need = fk[inexact] // np.gcd(rem[inexact], fk[inexact])
        esc_games = fgame[inexact]
        factors = np.ones(self.num_games, dtype=np.int64)
        if self.bp1 <= _VECTOR_LCM_MAX_BP1:
            np.lcm.at(factors, esc_games, need)
            bad_games = np.flatnonzero(factors > self.scale_cap // self.gscale)
        else:
            # Huge-β fallback: fold factors as Python bigints so the lcm
            # cannot silently wrap int64.
            folded: dict[int, int] = {}
            for gi, nd in zip(esc_games.tolist(), need.tolist()):
                folded[gi] = math.lcm(folded.get(gi, 1), nd)
            bad_list = []
            for gi, f in folded.items():
                if f > self.scale_cap // int(self.gscale[gi]):
                    bad_list.append(gi)
                else:
                    factors[gi] = f
            bad_games = np.asarray(sorted(bad_list), dtype=np.int64)
        had_ejections = bool(bad_games.size)
        if had_ejections:
            self.active_mask[bad_games] = False
            self.ejected.extend(bad_games.tolist())
            if self.bp1 <= _VECTOR_LCM_MAX_BP1:
                factors[bad_games] = 1
            keep = self.active_mask[fgame]
            fwd, famt, fk, fgame = (
                fwd[keep], famt[keep], fk[keep], fgame[keep]
            )
        grow = factors > 1
        if grow.any():
            self.gscale[grow] *= factors[grow]
            famt = famt * factors[fgame]
        return fwd, famt, fk, fgame, had_ejections

    def _expand(self, fwd, shares, fgame, fresh, fsets, sigma_by_slot):
        """Forwarding targets: full rows for |adj| <= β+1, σ-top-(β+1) else.

        Pure row-arena gathers: inside deliveries come back as resolved
        destination slots with their shares; outside (touched) keys are
        emitted only on a slot's *first* forward of the super-iteration —
        its outside set is fixed within one, so later forwards re-touch
        the same vertices (set semantics make the skip exact).  σ is
        computed lazily — one batched cohort peel the first hop any
        >β+1-degree holder forwards (the batched counterpart of the
        scalar engine's lazy σ peel) — and forwarding sets are built in
        bulk for every such holder crossing its threshold this hop, then
        cached per slot for the rest of the super-iteration (σ and S_v
        are constant within one).
        """
        high = self.mem_high[fwd]
        any_high = high.any()
        lo_m = ~high if any_high else slice(None)
        lo = fwd[lo_m]
        ins_dst = []
        ins_share = []
        touched = []
        if lo.size:
            v_lo = self.mem_vertex[lo]
            cnt = self.deg[v_lo]
            fidx = np.repeat(np.arange(len(lo), dtype=np.int64), cnt)
            idx = _segment_indices(self.region_start[lo], cnt)
            dst = self.row_dst[idx]
            inside = dst >= 0
            ins_dst.append(dst[inside])
            ins_share.append(shares[lo_m][fidx[inside]])
            fr = fresh[lo_m]
            if fr.any():
                out = fr[fidx] & ~inside
                if out.any():
                    base = self.offsets[v_lo] - self.region_start[lo]
                    fo = fidx[out]
                    touched.append(
                        fgame[lo_m][fo] * self.n
                        + self.targets[idx[out] + base[fo]]
                    )
        if any_high:
            hi_slots = fwd[high]
            missing = np.asarray(
                [s for s in hi_slots.tolist() if s not in fsets],
                dtype=np.int64,
            )
            if missing.size:
                if sigma_by_slot is None:
                    sigma_by_slot = self._sigma_by_slot()
                built_t, built_d = self._build_fsets(missing, sigma_by_slot)
                for i, slot in enumerate(missing.tolist()):
                    fsets[slot] = (built_t[i], built_d[i])
            rows = [fsets[s] for s in hi_slots.tolist()]
            dst_hi = np.concatenate([r[1] for r in rows])
            share_hi = np.repeat(shares[high], self.bp1)
            inside = dst_hi >= 0
            ins_dst.append(dst_hi[inside])
            ins_share.append(share_hi[inside])
            frh = np.repeat(fresh[high], self.bp1)
            out = frh & ~inside
            if out.any():
                tgt_hi = np.concatenate([r[0] for r in rows])
                touched.append(
                    np.repeat(fgame[high], self.bp1)[out] * self.n
                    + tgt_hi[out]
                )
        ds = ins_dst[0] if len(ins_dst) == 1 else np.concatenate(ins_dst)
        sh = ins_share[0] if len(ins_share) == 1 else np.concatenate(ins_share)
        tk = None
        if touched:
            tk = touched[0] if len(touched) == 1 else np.concatenate(touched)
        return ds, sh, tk, sigma_by_slot


def play_games_batched(
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
    arena_hint: list | None = None,
) -> BatchedGamesInfo:
    """Play every game rooted at ``roots`` in lockstep against one CSR.

    Provable layers are min-folded into ``out_layer``/``out_count``
    (float64/int64 arrays over the vertex universe) exactly as the
    scalar :func:`~repro.core.columnar_rounds.play_coin_game` (the
    :class:`~repro.lca.coin_game.CoinDroppingGame` oracle) would fold
    them one game at a time.  Games whose coin arithmetic cannot stay
    within the machine-word budget are listed in ``ejected`` with all
    their outputs zeroed, for the fleet player's interpreter — see the
    module docstring.
    ``want_records`` adds the flat per-game records described on
    :class:`BatchedGamesInfo`.  Callers play whole fleets through
    :func:`repro.core.columnar_rounds.play_fleet`, which blocks them
    into cohorts of this function.

    ``phases``, when given, accumulates wall-clock seconds per engine
    phase under the keys ``explore`` / ``forward`` / ``fold``.
    ``arena_hint`` is a mutable ``[slots, row entries]`` pair: the
    engine pre-sizes its arenas from it and writes its own final sizes
    back, so consecutive cohorts of one fleet skip the growth copies.
    """
    roots = np.asarray(roots, dtype=np.int64)
    if not len(roots):
        empty = np.empty(0, dtype=np.int64)
        return BatchedGamesInfo(
            empty, empty.copy(), empty_records(0) if want_records else None,
            empty.copy(), empty.copy(), empty.copy(),
        )
    engine = _Lockstep(
        offsets, targets, roots, x, beta, clip, horizon, scale,
        out_layer, out_count, want_records, transpose_pos,
        tuple(arena_hint) if arena_hint else None,
    )
    engine.run(phases)
    if arena_hint is not None:
        # Mutable hint: hand this cohort's final footprint to the next
        # (same fleet, similar ball sizes), skipping its growth chain.
        arena_hint[:] = [engine.arena, engine.row_len]
    return BatchedGamesInfo(
        reads=engine.reads,
        writes=engine.writes,
        records=engine.records,
        super_iterations=engine.super_iters,
        edges_seen=engine.edges_seen,
        ejected=np.asarray(sorted(engine.ejected), dtype=np.int64),
    )
