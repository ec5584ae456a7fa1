"""Message-passing shard fabric — owner-hashed partitions, bounded deltas.

Under the ``"shm"`` transport every coin game reads the *entire*
residual CSR, so the AMPC per-machine space budget S is fictional.
``transport="message"`` replaces that with a simulated distributed
fabric in which each shard holds only

- its **owned residual rows** — the hash partition
  ``owner(v) = splitmix64(v) mod p`` assigns every vertex (and the coin
  game rooted at it) to exactly one of ``p`` shards; a shard stores the
  residual adjacency rows of its owned vertices and nothing else;
- a **bounded ghost fringe** — rows of foreign vertices a shard's games
  explored this round, fetched on demand and evicted as soon as no
  still-unresolved game pins them (see *ghost-fringe invalidation*
  below), and dropped whole at the end of the round;
- **round-local scratch** — the engine arrays and fold accumulators of
  the games currently playing.

Owned rows and ghosts are one store: a single CSR per shard over the
round's global id range, the shm round's form, with rows the shard does
not hold empty (:class:`_Shard`).  Every id a shard sends, receives or
plays is a global id: fetched rows splice into the CSR and evicted rows
empty out in place, and the engines play it as it is.  The n-sized
address arrays this costs are simulator scaffolding: the guard charges
what a compact store of the same rows would hold (see :class:`_Shard`).

Every array a shard holds is accounted by tag against a configurable S
budget through :class:`MemoryGuard`, which raises :class:`MemoryGuardError`
the moment the shard's held words exceed the budget — the budget
*binds*: a graph whose full CSR exceeds one shard's budget still colors
correctly with enough shards, and an under-budgeted shard fails fast
instead of silently over-holding.

Message types
-------------

All communication is typed, owner-routed, and size-capped (payloads
larger than :data:`MESSAGE_CAP_WORDS` ship as multiple delivery
segments; row resolutions split at row boundaries, so one oversized row
still ships whole).  Word counts are payload words (int64 slots);
per-round totals are surfaced through the ``comm`` dict and
``BetaPartitionOutcome.round_comm``.

``placement``
    Driver → shard, once in the fabric's first round: the shard's owned
    slice of the residual CSR ``(ids, offsets, targets)``.
``assignment``
    Driver → shard, per round: the roots of the shard's owned games —
    the hubs (residual degree > β) only; every other root writes layer
    0 without a game.
``row-request``
    Shard → owner, per sub-round: the vertex ids of rows that games
    explored but the shard does not hold.
``row-resolution``
    Owner → shard: the requested residual rows as one packed columnar
    slab — three int64 arrays ``(ids, lens, targets)`` per
    (owner → requester, sub-round) pair, ``2 + len`` payload words per
    row exactly as the old per-row framing — split at row boundaries
    into ≤ :data:`MESSAGE_CAP_WORDS` delivery segments.
``layer-proposal fold``
    Shard → owner, end of round: the ``(u, layer)`` proof entries of
    its finished games, routed to ``owner(u)``; owners min/+-fold them
    and forward one folded ``(u, min, count)`` triple per vertex to the
    driver's DDS merge.
``result``
    Shard → driver, end of round: per-game ``(reads, writes)`` charges.
``retirement``
    Driver → shards, at the round boundary: the vertices assigned this
    round.  Each shard drops its retired owned rows and prunes retired
    ids out of its remaining rows, which leaves exactly its owner
    partition of the next round's residual CSR — so placement is paid
    only once, and each round's shard is rebuilt from that partition.

Ordering and commutativity of the folds
---------------------------------------

Shards finish games in arbitrary order, and fold messages arrive at
owners in arbitrary order.  The only cross-shard merges are the layer
min-fold and the proposal count: ``min`` and ``+`` are commutative and
associative with identity (``∞`` / ``0``), so the owner-side fold is
independent of arrival order, and the owner→driver triples scatter into
the same ``np.minimum.at`` / ``np.add.at`` accumulators the serial
kernel uses.  Per-game charges scatter by machine position
(position-disjoint across shards).  Hence every observable —
partitions, layers, probe counts, per-round stats, store words — is
bit-identical to the shared-memory path for any shard count, which the
differential tests assert.

Game execution and exactness
----------------------------

A coin game's transcript is a pure function of the residual rows of its
final explored set S_v — both engines read a row (content or degree)
only for vertices they have explored (outside coin holders are tracked
as a touched *set*; forwarding sets, σ-rankings, and proofs read
explored rows only).  The fabric exploits this: each shard runs its
games against its *partial* view with missing rows empty, then checks
each game's recorded explored set against the rows actually held.  A
game whose explored set is fully held produced the exact transcript —
commit it; otherwise the run is discarded, the missing rows are
requested from their owners, and the game re-runs next sub-round.
Every engine plays the shard's CSR in global ids, so every
order-dependent tie-break (``sorted(touched)``, the σ-rank key ending in
the vertex id) is the shm round's, and a committed transcript needs no
remap.  A shard plays its pending games, under every engine, through
the same fleet player as the shm round
(:func:`repro.core.columnar_rounds.play_fleet`), which finishes the
games it ejects itself, and checks the flat records against the held
mask in whole-fleet array ops.  (For the batched engine the fleet
player closes the fringe rows with synthetic reverse edges, which only
games that explored a fringe vertex read — games that are discarded.)
Whichever engine played it, a committed game keeps only its proof, as
``(vertex, layer)`` columns, for the layer fold.

Ghost-fringe invalidation rules
-------------------------------

1.  Ghosts live for one round: each round rebuilds every shard from
    its owned rows (:meth:`_Shard.place`) and the chain that played the
    last one releases its ghost fringe from its guard as it returns
    (:func:`run_shard_chain`), so a round starts with each shard holding
    exactly its owned rows, and retirement (between rounds) never has
    to prune a ghost row.
2.  A game *pins* every row it has ever requested; pins drop when the
    game commits.  Mid-round eviction is S-budget discipline, so only
    *budgeted* shards evict between exchanges — dropping the unpinned
    ghosts bounds the fringe by the unresolved games' balls.  An
    unbudgeted shard keeps its whole fringe until the round ends:
    evicting rows whose pins dropped only because their games committed
    forces the still-pending tail to re-request them a wave later
    (evict/refetch thrash), and with no budget there is nothing to
    protect.  Either way termination holds: a game's held set grows
    monotonically, and each re-run either commits or requests a row it
    never held, so sub-rounds are bounded by the largest ball.
3.  Owned rows are never ghosted (the owner serves its own reads), and
    a ghost is always a verbatim copy of the owner's current row —
    rows only change at retirement, which happens between rounds, after
    every ghost was dropped (rule 1).

One shard round: :func:`run_shard_chain`
----------------------------------------

A shard's whole BSP round is one function, :func:`run_shard_chain`,
and it is the only implementation of the sub-round loop.  It is a pure
function of ``(round's residual CSR, the shard's roots, shard count,
engine, budget)``: the shard's owned rows are its owner
partition of that CSR, and every row another shard would serve it is
a verbatim slice of the same CSR (ghosts are exact copies and rows
never change mid-round).  So the chain rebuilds its shard from the
CSR, serves its own row requests — the seeded first exchange and the
doubling speculative-prefetch balls (radius ``2^(k-1)`` capped at
:data:`PREFETCH_RADIUS_CAP`; budgeted shards never speculate) — and
returns its game results plus the trace of requests it made.
:meth:`MessageFabric.run_round` runs the chains one after another on
the driver (``workers=1``, or a round below the pool cutoff) or on the
game threads (:meth:`repro.ampc.pool.CoinGamePool.run_games`); both
feed one replay, so every observable and counter is the same either
way:

- **Communication is replayed, not simulated.**  A chain returns its
  per-sub-round ``(missing, speculative)`` id trace; the driver routes
  each entry through ``_send``, sizing each resolved row as
  ``2 + deg`` from the round's CSR, so messages, words, segment
  counts, row requests/served, and the global sub-round count (a
  cross-shard *any* per lockstep iteration) are what an interleaved
  lockstep run of the shards would count.  On the threads, replay
  runs in shard-completion order, overlapped with the still-running
  shards' play (``comm_overlap_s`` records the hidden portion);
  ``shard_wall_s`` is the slowest chain's own wall time either way.
- **Guard accounting is adopted, not recomputed.**  The driver keeps
  one persistent :class:`MemoryGuard` per shard and no rows: at round
  start it re-accounts each guard's ``owned_rows`` from the CSR's
  owner partition, and after a chain it adopts the chain guard's round
  peak and end-of-round holdings (:meth:`MemoryGuard.adopt`), so
  driver-side fold accounting stacks on the correct current and
  ``max_held_words`` is exact per round.  A chain's
  :class:`MemoryGuardError` is a protocol outcome, not a fault: it
  passes through verbatim and is never retried.
- **Folds stay commutative across shards.**  The driver-side merge
  of shard results is a min/+ fold — ``min`` and ``+`` are commutative
  and associative, and per-game charges are position-disjoint — so
  chain completion order (racy on the threads) cannot perturb any
  observable.

Retry safety
------------

The same purity argument makes a chain whose row slab arrives
corrupted *recoverable*: re-run from the same inputs, it produces the
same result bit for bit, so :meth:`repro.ampc.pool.CoinGamePool.run_games`
re-runs it on the driver without any observable noticing.  Two
properties carry the argument:

- **Replay is exactly-once, not idempotent.**  Replaying a chain's
  trace twice would double the message counters and re-adopt its
  guard, so each chain's result reaches the driver's replay exactly
  once, and a failed attempt delivers nothing: it dies before
  returning, so no driver state mutates.  ``adopt`` itself is a pure
  max/assign merge per tag.
- **Row payloads are integrity-checked.**  Row-resolution deliveries
  into :meth:`_Shard.install_ghosts` verify a
  :func:`repro.ampc.faults.rows_checksum` when one is supplied —
  corruption becomes a detected re-run, never a wrong partition.  The
  checksum parameter is the contract a real transport attaches to
  every row message; a chain hands ``install_ghosts`` the very arrays
  it served, so it stamps one only under an active fault plan
  (:func:`_rows_stamp`) — keeping the verify path exercised by the
  chaos tier without paying a double digest on every fault-free
  delivery.

The BSP sub-round loop plus the typed, size-capped messages above are
deliberately the narrow waist: a true multi-host backend (sockets,
MPI) replaces the chain dispatch and the driver's replay with real
transport, and must then bring its own loss detection; the slab
checksum and the re-run of a pure chain are the part of the failure
contract that carries over.
"""

from __future__ import annotations

import time
from typing import NamedTuple

import numpy as np

from repro.ampc import faults
from repro.core.batched_games import _segment_indices, _sorted_unique
from repro.util.rng import GAMMA, mix64_array

__all__ = [
    "MESSAGE_CAP_WORDS",
    "MemoryGuard",
    "MemoryGuardError",
    "MessageFabric",
    "owner_of",
]

# Payload cap of one delivery segment, in int64 words.  Purely a
# counting granularity (segments of one logical payload ship together);
# read by MessageFabric.__init__, so tests monkeypatch it.
MESSAGE_CAP_WORDS = 1 << 15

# Ceiling on the doubling speculative-service radius (see
# _expand_ball): by the time a game is this many fetch exchanges deep,
# one more doubling would ship most of the owner's slice.
PREFETCH_RADIUS_CAP = 16

_EMPTY = np.empty(0, dtype=np.int64)
_INF = float("inf")


def owner_of(vertices: np.ndarray, num_shards: int) -> np.ndarray:
    """Owner shard of each vertex: ``splitmix64(v) mod num_shards``.

    A fixed deterministic mix (not Python's randomized ``hash``) keeps
    the partition reproducible across processes and runs; splitmix64
    scatters consecutive vertex ids so contiguous graph regions spread
    over shards instead of landing on one.
    """
    z = mix64_array(
        np.asarray(vertices, dtype=np.int64).astype(np.uint64) + np.uint64(GAMMA)
    )
    return (z % np.uint64(num_shards)).astype(np.int64)


class MemoryGuardError(RuntimeError):
    """A shard's held words exceeded its configured S budget."""


class MemoryGuard:
    """Tag-based words accounting for everything one shard holds.

    Every array a shard keeps is registered under a tag
    (``owned_rows``, ``ghost_fringe``, ``game_scratch``, …);
    :meth:`account` replaces the tag's charge and raises
    :class:`MemoryGuardError` the moment the total exceeds the budget.
    ``budget_words=None`` accounts (for the peak counters) but never
    raises.
    """

    def __init__(
        self, budget_words: int | None = None, name: str = "shard"
    ) -> None:
        if budget_words is not None and budget_words < 1:
            raise ValueError("budget_words must be >= 1 (or None)")
        self.budget_words = budget_words
        self.name = name
        self.current = 0
        self.peak = 0
        self.round_peak = 0
        self._held: dict[str, int] = {}

    def begin_round(self) -> None:
        """Reset the per-round peak (lifetime ``peak`` keeps running)."""
        self.round_peak = self.current

    def account(self, tag: str, words: int) -> None:
        """Set ``tag``'s held words; raise loudly on budget violation.

        An over-budget charge is never committed: ``current``, ``peak``,
        and the tag's held words are untouched when this raises, so a
        caller that catches the error (the budget tests, a shard
        deciding to shed load) continues with accounting that still
        reflects what the shard actually holds.
        """
        words = int(words)
        if words < 0:
            raise ValueError(f"negative words for tag {tag!r}")
        attempted = self.current + words - self._held.get(tag, 0)
        if self.budget_words is not None and attempted > self.budget_words:
            held = ", ".join(
                f"{t}={w}"
                for t, w in sorted({**self._held, tag: words}.items())
                if w
            )
            raise MemoryGuardError(
                f"{self.name} holds {attempted} words, exceeding its "
                f"S budget of {self.budget_words} ({held})"
            )
        self.current = attempted
        self._held[tag] = words
        if self.current > self.peak:
            self.peak = self.current
        if self.current > self.round_peak:
            self.round_peak = self.current

    def release(self, tag: str) -> None:
        self.current -= self._held.pop(tag, 0)

    def adopt(self, round_peak: int, held: dict[str, int]) -> None:
        """Adopt a shard chain's guard outcome onto this guard.

        :func:`run_shard_chain` accounts the shard's round on its own
        guard (same budget, so a violation raises there first); the
        driver-side guard — which persists across rounds and still owes
        the round's fold accounting — takes over the chain's
        end-of-round holdings and folds its peak into the counters.
        """
        for tag, words in held.items():
            words = int(words)
            self.current += words - self._held.get(tag, 0)
            self._held[tag] = words
        self.peak = max(self.peak, round_peak, self.current)
        self.round_peak = max(self.round_peak, round_peak, self.current)

    def held_words(self) -> int:
        return self.current


def _row_owners(offsets: np.ndarray, num_shards: int) -> np.ndarray:
    """Owner shard of every vertex with a residual row (degree > 0), and
    -1 for the rest: the round's one :func:`owner_of` pass over its rows,
    which the guard counts (:func:`_owned_words`) and every chain's
    placement (:meth:`_Shard.place`) share."""
    deg = np.diff(offsets)
    sources = np.flatnonzero(deg > 0)
    owners = np.full(len(deg), -1, dtype=np.int64)
    owners[sources] = owner_of(sources, num_shards)
    return owners


def _owned_words(
    offsets: np.ndarray, owners: np.ndarray, num_shards: int
) -> np.ndarray:
    """Words of each shard's owner partition of the residual CSR (ids,
    offsets and targets of its rows, as :meth:`_Shard.place` holds
    them), counted without slicing any row; ``owners`` is
    :func:`_row_owners`' vector."""
    sources = np.flatnonzero(owners >= 0)
    rows = np.bincount(owners[sources], minlength=num_shards)
    targets = np.bincount(
        owners[sources], weights=np.diff(offsets)[sources],
        minlength=num_shards,
    )
    return 2 * rows + 1 + targets.astype(np.int64)


class _Shard:
    """One simulated machine: every row it holds, in one CSR by global id.

    The rows live in a single CSR over the round's whole id range
    ``0..n-1``, the shm round's form: row ``v`` belongs to vertex ``v``
    and targets are global ids, so the engines play the CSR as it is and
    their records come back in global ids.  Three masks over the range
    track the shard's view:

    - ``held`` — the ids whose row the shard holds: its owned rows and
      its current ghosts; every other id (a fringe target, an evicted
      ghost) reads as an empty row;
    - ``ghost`` — the current ghosts alone;
    - ``known`` — the ids the shard has heard of: its owned rows, their
      targets, its roots, and every installed slab's ids and targets.
      Within a round it only grows (an evicted ghost stays known).

    Memory model: the guard charges what a compact store of the same
    rows holds — ``owned_rows``, ``ghost_fringe`` — and ``game_scratch``
    is sized by ``known``'s count, the ids a compact machine would
    index.  The n-sized address arrays (``deg``, ``offsets`` and the
    masks) are simulator scaffolding, outside the S budget.
    ``splice_s`` is the wall time spent splicing rows in and out.
    """

    def __init__(
        self, sid: int, num_shards: int, budget_words: int | None, n: int
    ):
        self.sid = sid
        self.num_shards = num_shards
        self.guard = MemoryGuard(budget_words, name=f"shard[{sid}]")
        self.held = np.zeros(n, dtype=bool)
        self.ghost = np.zeros(n, dtype=bool)
        self.known = np.zeros(n, dtype=bool)
        self.deg = np.zeros(n, dtype=np.int64)
        self.offsets = np.zeros(n + 1, dtype=np.int64)
        self.targets = _EMPTY
        self._fringe_words = 0  # 1 + len per ghost
        self.splice_s = 0.0

    def place(
        self, offsets: np.ndarray, targets: np.ndarray, roots: np.ndarray,
        owners: np.ndarray,
    ) -> None:
        """Install this shard's owner partition of the residual CSR:
        the rows of its owned vertices with residual degree > 0 (an
        owned vertex without a stored row reads as empty), read off the
        round's :func:`_row_owners` vector ``owners``.  Guard words are
        :func:`_owned_words`' count for this shard."""
        ids = np.flatnonzero(owners == self.sid)
        counts = offsets[ids + 1] - offsets[ids]
        row_targets = targets[_segment_indices(offsets[ids], counts)]
        self.guard.account("owned_rows", 2 * len(ids) + 1 + len(row_targets))
        self.held[ids] = True
        self.known[ids] = True
        self.known[row_targets] = True
        self.known[roots] = True
        self.deg[ids] = counts
        np.cumsum(self.deg, out=self.offsets[1:])
        # The only rows are the owned ones, in id order.
        self.targets = row_targets

    def ghost_row(self, v: int) -> np.ndarray | None:
        """The ghost row of ``v``, or None when not ghosted."""
        if not self.ghost[v]:
            return None
        return self.targets[self.offsets[v]:self.offsets[v + 1]]

    def install_ghosts(
        self,
        ids: np.ndarray,
        lens: np.ndarray,
        targets: np.ndarray,
        checksum: int | None = None,
    ) -> None:
        """Splice one row-resolution slab into the CSR as ghosts.

        The slab is outside input, the receiving end of the transport
        contract: its checksum (computed by the serving side over the
        same slab), its shape and the guard charge are all checked
        *before* any row mutates, so a corrupted, malformed or
        over-budget slab is rejected with the store — and its
        accounting — exactly as it was, and the caller can convert the
        failure into a retry (or shed load) without rollback.
        """
        if checksum is not None:
            observed = faults.rows_checksum(ids, lens, targets)
            if observed != checksum:
                raise faults.ChecksumError(
                    f"row-resolution payload checksum mismatch on shard "
                    f"{self.sid}: expected {checksum:#x}, got "
                    f"{observed:#x}"
                )
        ids = np.asarray(ids, dtype=np.int64)
        lens = np.asarray(lens, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        n = len(self.deg)
        if (
            len(lens) != len(ids) or (lens < 0).any()
            or int(lens.sum()) != len(targets)
        ):
            raise ValueError(
                "malformed row-resolution slab: lens must be one "
                "non-negative row length per id, summing to its targets"
            )
        if ((ids < 0) | (ids >= n)).any() or (
            (targets < 0) | (targets >= n)
        ).any():
            raise ValueError(
                f"row-resolution slab id outside the shard's range "
                f"0..{n - 1}"
            )
        if (np.diff(ids) <= 0).any():
            raise ValueError("row-resolution slab ids must be increasing")
        if self.held[ids].any():
            # Cannot happen in-protocol (missing rows are unheld and
            # speculative cargo skips held rows); reject loudly instead
            # of silently double-holding a row.
            raise ValueError("row-resolution slab overlaps held rows")
        words = self._fringe_words + len(ids) + int(lens.sum())
        self.guard.account("ghost_fringe", words)  # raises pre-commit
        self._fringe_words = words
        t0 = time.perf_counter()
        self.known[ids] = True
        self.known[targets] = True
        self.held[ids] = True
        self.ghost[ids] = True
        self.deg[ids] = lens
        np.cumsum(self.deg, out=self.offsets[1:])
        # The new rows were empty, so the old targets keep their order
        # and fill every slot outside the new rows.
        slots = _segment_indices(self.offsets[ids], lens)
        merged = np.empty(int(self.offsets[-1]), dtype=np.int64)
        merged[slots] = targets
        rest = np.ones(len(merged), dtype=bool)
        rest[slots] = False
        merged[rest] = self.targets
        self.targets = merged
        self.splice_s += time.perf_counter() - t0

    def evict_ghosts(self, pinned: np.ndarray) -> None:
        """Evict every ghost no pending game pins (invalidation rule 2):
        its row empties and its id stays known as fringe."""
        if not self._fringe_words:  # no ghosts
            return
        drop = self.ghost.copy()
        drop[pinned] = False
        rows = np.flatnonzero(drop)
        if not rows.size:
            return
        t0 = time.perf_counter()
        self._fringe_words -= len(rows) + int(self.deg[rows].sum())
        if self._fringe_words:
            self.guard.account("ghost_fringe", self._fringe_words)
        else:
            self.guard.release("ghost_fringe")
        self.ghost[rows] = False
        self.held[rows] = False
        keep = np.ones(len(self.targets), dtype=bool)
        keep[_segment_indices(self.offsets[rows], self.deg[rows])] = False
        self.targets = self.targets[keep]
        self.deg[rows] = 0
        np.cumsum(self.deg, out=self.offsets[1:])
        self.splice_s += time.perf_counter() - t0


class _ShardRound:
    """Round-local game state of one shard (valid/invalid, pins, folds)."""

    def __init__(self, shard: _Shard, roots: np.ndarray, engine: str) -> None:
        self.shard = shard
        self.roots = roots
        self.engine = engine
        g = len(roots)
        self.valid = np.zeros(g, dtype=bool)
        self.reads = np.zeros(g, dtype=np.int64)
        self.writes = np.zeros(g, dtype=np.int64)
        self.ball_words = np.zeros(g, dtype=np.int64)
        # (proof_u, proof_l) columns of every committed game, whichever
        # engine played it; the layer fold concatenates them.
        self.proof_cols: list = [None] * g
        self.missing: list[np.ndarray] = [_EMPTY] * g
        self.fetched: list[list[np.ndarray]] = [[] for __ in range(g)]
        self.spec_pins: list[np.ndarray] = []
        self.ejected_games = 0
        self.play_s = 0.0
        shard.guard.account("game_assignments", 2 * g)

    def pending(self) -> np.ndarray:
        return np.flatnonzero(~self.valid)

    def seed_missing(self) -> None:
        """Pre-play missing sets: the wave-one fringe needs no wave.

        Every game's root row is owned by this shard, so the rows its
        first wave will miss — the root's unheld targets — are known
        before any play.  Seeding them lets the first exchange run
        *before* the first play, turning the fleet-wide all-miss
        discovery wave into a no-op.  A game whose fringe is entirely
        held seeds empty and simply commits on the first play; a game
        that would have committed on the bare root row fetches a few
        rows it will not read — ghost words it pins anyway until it
        retires on the very next wave.
        """
        shard = self.shard
        g = len(self.roots)
        lens = shard.deg[self.roots]
        flat = shard.targets[_segment_indices(shard.offsets[self.roots], lens)]
        if not flat.size:
            return
        want = ~shard.held[flat]
        kept = flat[want]
        kept_root = np.repeat(np.arange(g, dtype=np.int64), lens)[want]
        counts = np.bincount(kept_root, minlength=g)
        bounds = np.zeros(g + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        for i in np.flatnonzero(counts).tolist():
            self.missing[i] = kept[bounds[i]:bounds[i + 1]]

    def missing_union(self) -> np.ndarray:
        parts: list[np.ndarray] = []
        for i in self.pending().tolist():
            miss = self.missing[i]
            if len(miss):
                parts.append(miss)
                self.fetched[i].append(miss)
        if not parts:
            return _EMPTY
        return _sorted_unique(np.concatenate(parts))

    def pinned_ghosts(self) -> np.ndarray:
        pending = self.pending()
        parts: list[np.ndarray] = []
        for i in pending.tolist():
            parts.extend(self.fetched[i])
        if pending.size:
            parts.extend(self.spec_pins)
        if not parts:
            return _EMPTY
        return _sorted_unique(np.concatenate(parts))

    def attribute_expansions(self, extra: np.ndarray) -> None:
        """Pin speculatively served rows for as long as any game is
        pending — they were speculated precisely for the pending tail,
        and one shard-level list keeps the pin O(|extra|) instead of a
        per-game union over thousands of fetched sets.  Directly
        requested rows keep their exact per-game pins in ``fetched``;
        everything unpins together once the last game commits."""
        if extra.size:
            self.spec_pins.append(extra)

    def proof_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Locally folded layer proposals: ``(vertices, minima, counts)``.

        Every committed game holds its proof as (proof_u, proof_l)
        columns, so the pairs concatenate for free.  The game shard
        then combines its own pairs per vertex (min layer, proposal
        count) before they are routed to vertex owners — the standard
        combiner: the owner-side fold is min-of-mins and sum-of-counts,
        so the result is identical while each shard forwards one triple
        per distinct vertex instead of one pair per proposal.
        """
        cols = [c for c in self.proof_cols if c is not None]
        pu = np.concatenate([c[0] for c in cols]) if cols else _EMPTY
        if not pu.size:  # no game of this shard proved any layer
            return _EMPTY, _EMPTY, _EMPTY
        pl = np.concatenate([c[1] for c in cols])
        # Layers are tiny non-negative ints, so one encoded int64 key
        # sorts (vertex, layer) in a single in-place pass — same
        # grouping a two-key lexsort would give, at half the cost.
        assert int(pl.min()) >= 0
        span = int(pl.max()) + 1
        enc = pu * span + pl
        enc.sort()
        first = np.empty(len(enc), dtype=bool)
        first[0] = True
        keys = enc // span
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return (
            keys[starts], enc[starts] - keys[starts] * span,
            np.diff(np.append(starts, len(enc))),
        )

    # -- one sub-round of play --------------------------------------------

    def play(self, params: dict) -> None:
        """Play every pending game on the shard's CSR through the fleet
        player; a game commits iff its explored set is held."""
        from repro.core.columnar_rounds import play_fleet

        t0 = time.perf_counter()
        shard = self.shard
        need = self.pending()
        n = len(shard.deg)
        held = shard.held
        deg_held = shard.deg
        guard = shard.guard
        scratch = 0
        if self.engine != "scalar":
            # The engine's arrays over the ids a compact store would
            # index (see _Shard).  The batched engine plays the CSR
            # closed over its fringe rows (close_empty_rows): one more
            # entry per edge into an unheld row.
            known = int(np.count_nonzero(shard.known))
            entries = len(shard.targets)
            if self.engine == "batched":
                entries += int(np.count_nonzero(~held[shard.targets]))
            scratch = (known + 1) + 2 * entries + 3 * known
            guard.account("game_scratch", scratch)

        info = play_fleet(
            shard.offsets, shard.targets, self.roots[need],
            x=params["x"], beta=params["beta"], clip=params["clip"],
            horizon=params["horizon"], scale=params["scale"],
            out_layer=np.full(n, _INF),
            out_count=np.zeros(n, dtype=np.int64),
            engine=self.engine, want_records=True,
            # A chain may run on a game thread, which must never submit
            # to the pool it runs on.
            workers=1,
        )
        # Split valid from invalid games in whole-fleet array ops — an
        # optimistic wave discards most of its plays as invalid, and
        # marshalling their transcripts one list element at a time was
        # the fabric's single largest play-side cost.
        mem_f, pu_f, pl_f, mem_counts, proof_counts = info.records
        mem_ends = np.cumsum(mem_counts).tolist()
        proof_ends = np.cumsum(proof_counts).tolist()
        bad = ~held[mem_f]
        bad_cum = np.zeros(len(bad) + 1, dtype=np.int64)
        np.cumsum(bad, out=bad_cum[1:])
        ball_cum = np.zeros(len(mem_f) + 1, dtype=np.int64)
        np.cumsum(deg_held[mem_f], out=ball_cum[1:])
        mo = po = 0
        for j, i in enumerate(need.tolist()):
            me, pe = mem_ends[j], proof_ends[j]
            if bad_cum[me] != bad_cum[mo]:
                # Unsorted is fine: missing sets only ever feed
                # missing_union / pinned_ghosts, which sort-unique their
                # concatenation anyway.
                self.missing[i] = mem_f[mo:me][bad[mo:me]]
            else:
                self.valid[i] = True
                self.missing[i] = _EMPTY
                self.reads[i] = info.reads[j]
                self.writes[i] = info.writes[j]
                self.proof_cols[i] = (pu_f[po:pe], pl_f[po:pe])
                # Real words of the held ball: one degree word plus the
                # row targets per explored vertex — identically the
                # game's probe charge, so strict-budget parity is
                # checked against what a shard genuinely held.
                self.ball_words[i] = (me - mo) + int(
                    ball_cum[me] - ball_cum[mo]
                )
            mo, po = me, pe
        self.ejected_games += int(np.count_nonzero(
            self.valid[need[info.ejected]]
        ))

        # Games off the int64 path (every game under "scalar", the
        # int64 pass's ejections otherwise) are also charged the held
        # rows they read, one degree word plus the targets per row: the
        # interpreter's row lists.
        interpreted = np.full(len(need), self.engine == "scalar")
        interpreted[info.ejected] = True
        if interpreted.any():
            rows = _sorted_unique(mem_f[np.repeat(interpreted, mem_counts)])
            rows = rows[held[rows]]
            guard.account(
                "game_scratch", scratch + len(rows) + int(deg_held[rows].sum())
            )
        guard.release("game_scratch")
        self.play_s += time.perf_counter() - t0


def _expand_ball(
    offsets: np.ndarray,
    targets: np.ndarray,
    deg: np.ndarray,
    miss: np.ndarray,
    radius: int,
    shard: _Shard,
    max_words: int | None,
) -> np.ndarray:
    """Speculative fetch targets: the ``radius``-hop ball around the
    missing set, minus rows the requester already holds.

    Request forwarding is ownership-blind: each hop the fabric
    routes "ship row u to shard ``sid``" to u's owner, so the ball
    follows the row graph across shard boundaries (an owner-local
    expansion would die after one hop — the owner hash deliberately
    scatters adjacent vertices).  ``max_words`` bounds the ball's
    payload; served rows are verbatim CSR rows either way, so commit
    exactness is untouched.
    """
    if radius <= 0 or max_words == 0:
        return _EMPTY
    in_ball = np.zeros(len(deg), dtype=bool)
    in_ball[miss] = True
    frontier = miss
    out: list[np.ndarray] = []
    words = 0
    for __ in range(radius):
        live = frontier[deg[frontier] > 0]
        if not live.size:
            break
        nxt = _sorted_unique(
            targets[_segment_indices(offsets[live], deg[live])]
        )
        fresh = nxt[~in_ball[nxt]]
        if not fresh.size:
            break
        in_ball[fresh] = True
        # Rows the requester already holds are waypoints, not cargo:
        # they join the frontier (the true ball runs straight through
        # them — with p shards an owner-hash scatters 1/p of every
        # layer into the requester) but are never re-shipped.
        cargo = fresh[~shard.held[fresh]]
        if cargo.size:
            # Budget charge per speculative row: its ghost words
            # (2 + deg) plus the scratch the next play spends on it —
            # ~4 words per known id (the row itself and up to deg
            # fringe targets) and 2 per target — so a row costs
            # ~6 + 7*deg of headroom, not just its payload.
            w_cum = words + np.cumsum(6 + 7 * deg[cargo])
            if max_words is not None:
                cut = int(np.searchsorted(w_cum, max_words, side="right"))
                if cut < len(cargo):
                    out.append(cargo[:cut])
                    break
            words = int(w_cum[-1])
            out.append(cargo)
        frontier = fresh
    if not out:
        return _EMPTY
    return np.sort(np.concatenate(out))


def _rows_stamp(
    ids: np.ndarray, lens: np.ndarray, targets: np.ndarray
) -> int | None:
    """Checksum a row-resolution slab for in-process delivery.

    In-process, :meth:`_Shard.install_ghosts` receives the very arrays
    the serving side would digest, so a self-stamped checksum can never
    detect corruption — the parameter exists as the integrity contract
    a future socket/MPI transport attaches to each row slab.  Stamp
    (and thereby verify) only under an active fault plan, so the chaos
    tier keeps the verify path exercised while fault-free deliveries
    skip the double digest.
    """
    if faults.active_plan() is None:
        return None
    return faults.rows_checksum(ids, lens, targets)


def run_shard_chain(
    offsets: np.ndarray,
    targets: np.ndarray,
    sid: int,
    *,
    num_shards: int,
    roots: np.ndarray,
    owners: np.ndarray,
    x: int,
    beta: int,
    clip: int,
    horizon: int,
    scale: int | None,
    engine: str,
    budget_words: int | None = None,
    fault=None,
) -> dict:
    """One shard's complete BSP round, self-served from the round's CSR.

    The only implementation of a shard's sub-round loop:
    :meth:`MessageFabric.run_round` calls it inline on the driver or
    through :meth:`repro.ampc.pool.CoinGamePool.run_games` on a game
    thread.  It reads ``offsets``/``targets`` and writes nothing
    outside its own shard, so chains share the round's CSR in place.
    The shard is rebuilt as its owner partition of the
    CSR (:meth:`_Shard.place`, from the round's ``owners`` vector of
    :func:`_row_owners`), and every row another shard would serve it is
    a verbatim CSR slice, so the chain serves its own row requests and
    the result is a pure function of its arguments.  The chain's shard
    is discarded when it returns, so the round boundary (invalidation
    rule 1) only releases the ghost fringe from its guard.

    Besides its game results the chain returns the per-sub-round
    ``(missing, speculative)`` id trace of requests it sent and its
    guard's round peak and end-of-round holdings; the driver replays the
    trace through its word-counting helpers and adopts the guard
    numbers (:meth:`MemoryGuard.adopt`).

    ``fault`` is an optional injected
    :class:`repro.ampc.faults.FaultSpec`; one of kind ``"slab"``
    corrupts the first row slab *after* the serving side stamps its
    checksum, so :meth:`_Shard.install_ghosts` must reject it (a
    :class:`~repro.ampc.faults.ChecksumError` the caller re-runs)
    before any ghost mutates.  Other kinds are ignored here.
    """
    t0 = time.perf_counter()
    deg = np.diff(offsets)
    shard = _Shard(sid, num_shards, budget_words, len(deg))
    shard.place(offsets, targets, roots, owners)
    shard.guard.begin_round()
    run = _ShardRound(shard, roots, engine)
    # Exchange runs *before* play: the first missing sets are seeded
    # from the owned root rows, so the opening all-miss discovery wave
    # never happens.
    run.seed_missing()
    params = {
        "x": x, "beta": beta, "clip": clip, "horizon": horizon,
        "scale": scale,
    }
    trace: list[tuple[np.ndarray, np.ndarray]] = []
    serve_s = 0.0
    install_s = 0.0
    fault_armed = fault is not None and fault.kind == "slab"
    sub_round = 0
    played = False
    while True:
        miss = run.missing_union()
        if not miss.size and played:
            break
        sub_round += 1
        # Speculative service radius.  The seed exchange ships each
        # game's layer-two ball alongside its layer-one fringe — most
        # balls stop there, so most games commit on their first play.
        # Later exchanges double the radius per sub-round: the games
        # still pending are the deep tail, and chasing their balls one
        # fetched layer at a time costs one sub-round per layer, while
        # doubling makes the remaining chain O(log r).
        radius = min(1 << (sub_round - 1), PREFETCH_RADIUS_CAP)
        extra = _EMPTY
        if miss.size:
            # Speculation is a pure wall-clock optimization: a budgeted
            # shard never speculates.  The S budget bounds the shard's
            # *peak* held words — ghost payloads plus the play scratch
            # their ids add — and that peak depends on rows the shard
            # has not seen yet, so no request-time headroom check can
            # keep an optimistic ball safely under it.  Direct fetches
            # alone already color every graph the budget admits.
            spec_cap = None if budget_words is None else 0
            extra = _expand_ball(
                offsets, targets, deg, miss, radius, shard, spec_cap
            )
            wanted = (
                np.sort(np.concatenate([miss, extra]))
                if extra.size else miss
            )
            ts = time.perf_counter()
            lens = deg[wanted]
            slab = targets[_segment_indices(offsets[wanted], lens)]
            stamp = _rows_stamp(wanted, lens, slab)
            serve_s += time.perf_counter() - ts
            if fault_armed:
                fault_armed = False
                if stamp is None:
                    stamp = faults.rows_checksum(wanted, lens, slab)
                if slab.size:
                    slab = slab.copy()
                    slab[0] ^= 1
                else:
                    wanted = wanted.copy()
                    wanted[0] ^= 1
            ts = time.perf_counter()
            spliced = shard.splice_s
            shard.install_ghosts(wanted, lens, slab, checksum=stamp)
            # The splice into the shard CSR is reported as compact_s.
            install_s += (
                time.perf_counter() - ts - (shard.splice_s - spliced)
            )
            run.attribute_expansions(extra)
        # Mid-round eviction is S-budget discipline (invalidation rule
        # 2), so only a budgeted shard with pending games evicts.
        if budget_words is not None and run.pending().size:
            shard.evict_ghosts(run.pinned_ghosts())
        if run.pending().size:
            run.play(params)
        played = True
        trace.append((miss, extra))
    # Round boundary: every ghost drops with the discarded shard.
    shard.guard.release("ghost_fringe")
    proof_u, proof_l, proof_c = run.proof_columns()
    return {
        "reads": run.reads,
        "writes": run.writes,
        "ejected_games": run.ejected_games,
        "ball_max": int(run.ball_words.max()) if run.ball_words.size else 0,
        "proof_u": proof_u,
        "proof_l": proof_l,
        "proof_c": proof_c,
        "trace": trace,
        "guard_peak": shard.guard.round_peak,
        "guard_held": dict(shard.guard._held),
        "serve_s": serve_s,
        "install_s": install_s,
        "compact_s": shard.splice_s,
        "play_s": run.play_s,
        "wall_s": time.perf_counter() - t0,
    }


class ShardResult(NamedTuple):
    """One shard's share of a round, as the round kernel folds it."""

    reads: np.ndarray  # per-machine probe counts, shard order
    writes: np.ndarray  # per-machine write counts, shard order
    fold_vertices: np.ndarray  # vertices with layer proposals
    fold_minima: np.ndarray  # min proposed layer per vertex
    fold_counts: np.ndarray  # number of proposals per vertex


class MessageFabric:
    """The driver-side fabric: ``p`` owner-hashed shards + typed routing.

    The driver holds no shard rows: it keeps one persistent
    :class:`MemoryGuard` per shard plus the communication counters, and
    each round runs every shard's :func:`run_shard_chain` — inline, or
    on the game threads when a pool is given — then replays the chains'
    traces as if the shards were separate machines: every word a shard
    holds and every word that crosses a shard boundary is accounted.
    ``run_round`` plugs into
    :func:`repro.core.columnar_rounds.lca_round_kernel` in place of the
    in-process game loop and returns ``(positions, ShardResult)``
    pairs.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        budget_words: int | None = None,
    ) -> None:
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.budget_words = budget_words
        self.cap_words = MESSAGE_CAP_WORDS
        if self.cap_words < 4:
            raise ValueError(
                "MESSAGE_CAP_WORDS must be >= 4 (one row header)"
            )
        self.guards = [
            MemoryGuard(budget_words, name=f"shard[{sid}]")
            for sid in range(num_shards)
        ]
        self.placed = False
        self.peak_held_words = 0

    # -- counters ----------------------------------------------------------

    # shard_wall_s is the slowest shard chain's own wall time (inline or
    # on a game thread); comm_overlap_s the driver replay hidden behind
    # still-running threaded chains (always 0 inline).
    _COMM_KEYS = (
        "messages", "words", "subrounds", "row_requests", "rows_served",
        "placement_words", "retirement_words", "fold_words", "result_words",
        "max_shard_words", "max_game_ball_words", "max_held_words",
        "ejected_games", "shard_wall_s", "comm_overlap_s",
        "serve_s", "install_s", "compact_s", "play_s",
    )

    def _init_comm(self, comm: dict) -> dict:
        for key in self._COMM_KEYS:
            comm.setdefault(key, 0)
        comm["shards"] = self.num_shards
        return comm

    def _send(
        self, comm: dict, shard_words: list[int], words: int,
        src: int | None = None, dst: int | None = None,
        messages: int | None = None,
    ) -> None:
        """Count one logical payload (``src``/``dst`` None = the driver)."""
        words = int(words)
        if messages is None:
            messages = max(1, -(-words // self.cap_words))
        comm["messages"] += messages
        comm["words"] += words
        if src is not None:
            shard_words[src] += words
        if dst is not None:
            shard_words[dst] += words

    def _row_segments(self, row_words: np.ndarray) -> int:
        """Delivery segments for rows packed greedily at the cap.

        Same greedy as packing one row at a time — each segment is the
        maximal prefix of remaining rows whose words fit the cap, and an
        oversized row ships whole in its own segment — but computed per
        segment on the running cumulative sum instead of per row.
        """
        row_words = np.asarray(row_words, dtype=np.int64)
        if not row_words.size:
            return 1
        cum = np.cumsum(row_words)
        n = len(cum)
        cap = self.cap_words
        segments, idx, base = 0, 0, 0
        while idx < n:
            j = int(np.searchsorted(cum, base + cap, side="right"))
            if j <= idx:
                j = idx + 1  # oversized row: ships whole
            segments += 1
            base = int(cum[j - 1])
            idx = j
        return segments

    # -- lifecycle ---------------------------------------------------------

    def retire(self, assigned: np.ndarray, comm: dict | None = None) -> None:
        """Broadcast retirement notices for this round's assignments.

        Only the notices are counted: the next round's shards are
        rebuilt from the next residual CSR, which is exactly what each
        shard's pruned slice would be.
        """
        retired = len(assigned)
        if not self.placed or comm is None or not retired:
            return
        self._init_comm(comm)
        for sid in range(self.num_shards):
            comm["retirement_words"] += retired
            self._send(comm, [0] * self.num_shards, retired, dst=sid)

    def run_round(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        roots: np.ndarray,
        positions: np.ndarray,
        *,
        x: int,
        beta: int,
        clip: int,
        horizon: int,
        scale: int | None,
        engine: str = "batched",
        comm: dict | None = None,
        pool=None,
    ) -> list[tuple[np.ndarray, ShardResult]]:
        """Play one round's pending games through the shard fabric.

        Returns one ``(positions, ShardResult)`` pair per shard —
        reads/writes ride with the shard owning the *game*, layer folds
        with the shard owning the *vertex* (both scatter through
        commutative accumulators, so the split is invisible).

        Every shard with games runs one :func:`run_shard_chain`: inline
        on the driver when ``pool`` is None, else on the game threads
        through ``pool`` (a :class:`repro.ampc.pool.CoinGamePool`).
        Either way the driver replays each chain's communication for
        the counters and adopts its guard peak, so all observables and
        all comm/memory numbers are the same on both paths.
        """
        comm = self._init_comm({} if comm is None else comm)
        num = self.num_shards
        shard_words = [0] * num
        # Each round's shard is the owner partition of this round's CSR
        # (ghosts dropped at the end of the previous round), so every
        # guard starts the round holding exactly those words.
        row_owners = _row_owners(offsets, num)
        words = _owned_words(offsets, row_owners, num)
        for guard, held in zip(self.guards, words.tolist()):
            guard.account("owned_rows", held)
            guard.begin_round()
        if not self.placed:
            for sid, held in enumerate(words.tolist()):
                comm["placement_words"] += held
                self._send(comm, shard_words, held, dst=sid)
            self.placed = True

        owners = owner_of(roots, num)
        deg = np.diff(offsets)
        jobs = []
        per_shard: list[dict] = []
        for sid in range(num):
            sel = np.flatnonzero(owners == sid)
            per_shard.append({
                "positions": positions[sel], "roots": roots[sel],
                "reads": _EMPTY, "writes": _EMPTY,
                "ejected_games": 0, "ball_max": 0,
                "proof_u": _EMPTY, "proof_l": _EMPTY, "proof_c": _EMPTY,
            })
            if sel.size:
                self._send(comm, shard_words, 2 * sel.size, dst=sid)
                jobs.append((sid, roots[sel]))
        payload = {
            "x": x, "beta": beta, "clip": clip, "horizon": horizon,
            "scale": scale, "num_shards": num, "engine": engine,
            "budget_words": self.budget_words, "owners": row_owners,
        }
        delivered: set[int] = set()
        miss_sizes: list[list[int]] = [[] for __ in range(num)]
        state = {"overlap": 0.0, "wall": 0.0}

        def on_result(sid: int, res: dict, others_running: bool) -> None:
            t0 = time.perf_counter()
            delivered.add(sid)
            state["wall"] = max(state["wall"], res["wall_s"])
            self.guards[sid].adopt(res["guard_peak"], res["guard_held"])
            # Replay the chain's request trace slab-at-a-time for the
            # counters; each resolved row ships 2 + deg payload words.
            for miss, extra in res["trace"]:
                miss_sizes[sid].append(int(miss.size))
                if not miss.size:
                    continue
                wanted = (
                    np.concatenate([miss, extra]) if extra.size else miss
                )
                owners_w = owner_of(wanted, num)
                for dst in _sorted_unique(owners_w).tolist():
                    ids = np.sort(wanted[owners_w == dst])
                    self._send(comm, shard_words, len(ids), src=sid, dst=dst)
                    comm["row_requests"] += len(ids)
                    row_words = 2 + deg[ids]
                    self._send(
                        comm, shard_words, int(row_words.sum()),
                        src=dst, dst=sid,
                        messages=self._row_segments(row_words),
                    )
                    comm["rows_served"] += len(ids)
            for key in ("serve_s", "install_s", "compact_s", "play_s"):
                comm[key] += res[key]
            per_shard[sid].update(
                (key, res[key]) for key in (
                    "reads", "writes", "ejected_games", "ball_max",
                    "proof_u", "proof_l", "proof_c",
                )
            )
            if others_running:
                state["overlap"] += time.perf_counter() - t0

        if pool is None:
            for sid, shard_roots in jobs:
                on_result(sid, run_shard_chain(
                    offsets, targets, sid, roots=shard_roots, **payload
                ), False)
        else:
            pool.run_games(offsets, targets, jobs, payload, on_result)

        for sid, __ in jobs:
            if sid not in delivered:
                # The pool's contract is exactly-once delivery per
                # dispatched shard; an empty fill here would complete
                # the round with a wrong partition, so a missing result
                # is a loud driver bug, never a default.
                raise RuntimeError(
                    f"fabric shard {sid} was dispatched but never "
                    "delivered a result"
                )
        # Lockstep sub-round k spans every shard's k-th exchange; the
        # global counter ticks whenever any shard requested rows then.
        depth = max((len(sizes) for sizes in miss_sizes), default=0)
        for k in range(depth):
            if any(len(sizes) > k and sizes[k] for sizes in miss_sizes):
                comm["subrounds"] += 1
        comm["shard_wall_s"] = max(comm["shard_wall_s"], state["wall"])
        comm["comm_overlap_s"] += state["overlap"]
        return self._fold_and_results(comm, shard_words, per_shard)

    def _fold_and_results(
        self, comm, shard_words, per_shard,
    ) -> list[tuple[np.ndarray, ShardResult]]:
        """Layer-proposal folds (routed by vertex owner — owners
        min/+-fold and forward one (u, min, count) triple per vertex to
        the driver) and the per-shard result payloads, after every
        shard chain of the round was replayed.
        """
        fold_u: list[list[np.ndarray]] = [[] for __ in range(self.num_shards)]
        fold_l: list[list[np.ndarray]] = [[] for __ in range(self.num_shards)]
        fold_c: list[list[np.ndarray]] = [[] for __ in range(self.num_shards)]
        for sid, sh in enumerate(per_shard):
            pu = sh["proof_u"]
            pl = sh["proof_l"]
            pc = sh["proof_c"]
            if not pu.size:
                continue
            owners_p = owner_of(pu, self.num_shards)
            for dst in _sorted_unique(owners_p).tolist():
                sel = owners_p == dst
                self._send(
                    comm, shard_words, 3 * int(sel.sum()), src=sid, dst=dst
                )
                comm["fold_words"] += 3 * int(sel.sum())
                fold_u[dst].append(pu[sel])
                fold_l[dst].append(pl[sel])
                fold_c[dst].append(pc[sel])

        results: list[tuple[np.ndarray, ShardResult]] = []
        max_ball = 0
        for sid, sh in enumerate(per_shard):
            if fold_u[sid]:
                fu = np.concatenate(fold_u[sid])
                fl = np.concatenate(fold_l[sid])
                fc = np.concatenate(fold_c[sid])
                # Incoming triples are per-source pre-folded (see
                # _ShardRound.proof_columns); the owner-side fold is
                # min-of-mins and sum-of-counts per vertex, grouped by
                # one (vertex, layer) lexsort.
                order = np.lexsort((fl, fu))
                fu = fu[order]
                fl = fl[order]
                first = np.empty(len(fu), dtype=bool)
                first[0] = True
                np.not_equal(fu[1:], fu[:-1], out=first[1:])
                starts = np.flatnonzero(first)
                vertices = fu[starts]
                minima = fl[starts].astype(np.float64)
                counts = np.add.reduceat(fc[order], starts)
                self.guards[sid].account(
                    "fold_accumulators", 3 * len(vertices)
                )
            else:
                vertices = _EMPTY
                minima = np.empty(0)
                counts = _EMPTY
            self._send(
                comm, shard_words, 3 * len(vertices), src=sid
            )
            result_words = 2 * len(sh["roots"])
            if len(sh["roots"]):
                self._send(comm, shard_words, result_words, src=sid)
                comm["result_words"] += result_words
            max_ball = max(max_ball, sh["ball_max"])
            comm["ejected_games"] += sh["ejected_games"]
            results.append((
                sh["positions"],
                ShardResult(
                    sh["reads"], sh["writes"], vertices, minima, counts
                ),
            ))
            guard = self.guards[sid]
            guard.release("game_assignments")
            guard.release("game_scratch")
            guard.release("fold_accumulators")

        comm["max_shard_words"] = max(
            comm["max_shard_words"], max(shard_words)
        )
        comm["max_game_ball_words"] = max(
            comm["max_game_ball_words"], max_ball
        )
        round_peak = max(guard.round_peak for guard in self.guards)
        comm["max_held_words"] = max(comm["max_held_words"], round_peak)
        self.peak_held_words = max(self.peak_held_words, round_peak)
        return results
