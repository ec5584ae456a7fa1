"""Message-passing shard fabric — owner-hashed partitions, bounded deltas.

The process-pool path (:mod:`repro.ampc.pool`) parallelizes a round's
machine fleet but cheats the AMPC memory model: every worker attaches
the *entire* residual CSR through shared memory, so the per-machine
space budget S is fictional.  This module replaces that with a
simulated distributed fabric in which each shard holds only

- its **owned residual rows** — the hash partition
  ``owner(v) = splitmix64(v) mod p`` assigns every vertex (and the coin
  game rooted at it) to exactly one of ``p`` shards; a shard stores the
  residual adjacency rows of its owned vertices and nothing else;
- a **bounded ghost fringe** — rows of foreign vertices a shard's games
  explored this round, fetched on demand and evicted as soon as no
  still-unresolved game pins them (see *ghost-fringe invalidation*
  below), stored as one appendable compacted CSR rather than a per-row
  dict, and dropped whole at the end of the round;
- **round-local scratch** — the compacted local CSR and fold
  accumulators of the games currently replaying.

Every array a shard holds is accounted by tag against a configurable S
budget through :class:`MemoryGuard`, which raises :class:`MemoryGuardError`
the moment the shard's held words exceed the budget — the budget
*binds*: a graph whose full CSR exceeds one shard's budget still colors
correctly with enough shards, and an under-budgeted shard fails fast
instead of silently over-holding.

Message types
-------------

All communication is typed, owner-routed, and size-capped (payloads
larger than ``cap_words`` ship as multiple delivery segments; row
resolutions split at row boundaries, so one oversized row still ships
whole).  Word counts are payload words (int64 slots); per-round totals
are surfaced through the ``comm`` dict and
``BetaPartitionOutcome.round_comm``.

``placement``
    Driver → shard, once at fabric initialization: the shard's owned
    slice of the residual CSR ``(ids, offsets, targets)``.
``assignment``
    Driver → shard, per round: the roots of the shard's owned games.
``row-request``
    Shard → owner, per sub-round: the vertex ids of rows that games
    explored but the shard does not hold.
``row-resolution``
    Owner → shard: the requested residual rows as one packed columnar
    slab — three int64 arrays ``(ids, lens, targets)`` per
    (owner → requester, sub-round) pair, ``2 + len`` payload words per
    row exactly as the old per-row framing — split at row boundaries
    into ≤ ``cap_words`` delivery segments.
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
    ids out of its remaining rows — order-preserving, so the pruned
    slice stays exactly the owner partition of the next round's
    residual CSR and placement is paid only once.

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
requested from their owners, and the game re-runs next sub-round.  The
batched engine runs on an order-preserving compaction of the held rows
(global ids → ranks; every order-dependent tie-break is preserved under
a monotone remap, so committed transcripts map back exactly), closed
with synthetic reverse rows for fringe vertices so its transpose-based
row arena stays well-formed — synthetic rows are only ever read by
games that explored a fringe vertex, i.e. games that are discarded.

Ghost-fringe invalidation rules
-------------------------------

1.  Ghosts live for one round: :meth:`_Shard.finish_round` drops the
    whole fringe, so a round starts with each shard holding exactly its
    owned rows, and retirement (between rounds) never has to prune a
    ghost row.
2.  A game *pins* every row it has ever requested; pins drop when the
    game commits.  Mid-round eviction is S-budget discipline, so only
    *budgeted* shards evict between exchanges — dropping the unpinned
    ghosts bounds the fringe by the unresolved games' balls.  An
    unbudgeted shard keeps its whole fringe until ``finish_round``:
    evicting rows whose pins dropped only because their games committed
    forces the still-pending tail to re-request them a wave later
    (evict/refetch thrash), and with no budget there is nothing to
    protect.  Either way termination holds: a game's held set grows
    monotonically, and each re-run either commits or requests a row it
    never held, so sub-rounds are bounded by the largest ball.  The
    rule is a function of shard-local state only, so the serial loop
    and the pooled worker chains make identical decisions.
3.  Owned rows are never ghosted (the owner serves its own reads), and
    a ghost is always a verbatim copy of the owner's current row —
    rows only change at retirement, which happens between rounds, after
    every ghost was dropped (rule 1).

Parallel shard execution (the process-pool transport)
-----------------------------------------------------

With ``workers > 1`` the driver dispatches each shard's *whole* BSP
chain to the persistent worker pool
(:meth:`repro.ampc.pool.CoinGamePool.run_fabric_round` →
:func:`run_shard_chain`) instead of interleaving the shards in-process.
This is sound because a shard's chain is a pure function of
``(global residual CSR, its roots, shard count, engine, config,
budget)``: every row another shard would serve it is a verbatim slice
of that CSR (ghosts are exact copies and rows never change mid-round),
so a worker holding the round's shared CSR can serve its own row
requests — including the seeded first exchange and the
doubling speculative-prefetch balls (radius ``2^(k-1)`` capped at
:data:`PREFETCH_RADIUS_CAP`; budgeted shards never speculate) — and
replay exactly the sub-round chain the serial fabric would run.
Observable state stays honest on both sides of the process boundary:

- **Communication is replayed, not simulated.**  A worker returns its
  per-sub-round ``(missing, speculative)`` id trace; the driver routes
  each entry through the very same ``_send`` / row-serving helpers the
  serial fabric uses, so messages, words, segment counts, row
  requests/served, and the global sub-round count (a cross-shard
  *any* per lockstep iteration) are bit-identical to the serial
  transport.  Replay happens in shard-completion order, overlapped
  with the still-running shards' play — the only work that may
  overlap, since it touches no state another shard could observe
  (``comm_overlap_s`` records the hidden portion; ``shard_wall_s``
  the slowest worker's in-process chain).
- **Guard accounting is adopted, not recomputed.**  The worker's
  :class:`MemoryGuard` replays the exact op sequence (placement,
  round begin, assignments, exchanges, plays) against the same
  budget; the driver merges the returned round peak and end-of-round
  held words per tag onto its persistent shard guards
  (:meth:`MemoryGuard.adopt`), so driver-side fold accounting stacks
  on the correct current and ``max_held_words`` matches the serial
  fabric word for word.  A worker-side :class:`MemoryGuardError` is a
  protocol outcome, not a pool fault: it passes through verbatim and
  the pool stays healthy.
- **Folds stay commutative across workers.**  The driver-side merge
  of shard results is the same min/+ fold as ever — ``min`` and ``+``
  are commutative and associative, and per-game charges are
  position-disjoint — so worker completion
  order (racy by nature) cannot perturb any observable.

Retry safety (the supervisor's failure contract)
------------------------------------------------

The same purity argument makes shard loss *recoverable*, not just
parallelizable: a crashed, hung, or corrupted shard chain is re-run
from the same ``(CSR, roots, shard count, engine, config, budget)``
inputs and produces the same result bit for bit, so the pool's round
supervisor (:meth:`repro.ampc.pool.CoinGamePool._run_supervised`) may
retry, respawn, or fall back to inline driver execution without any
observable noticing.  Three properties carry the argument across this
module's state:

- **Comm replay is exactly-once, not idempotent.**  Replaying a
  shard's ``(missing, speculative)`` trace twice would double the
  message counters, so the supervisor delivers each shard's result to
  the driver exactly once, only after its checksum verifies; a lost or
  corrupted attempt is discarded *before* any driver state mutates.
- **Guard adoption is protected by the same ordering.**  A faulted
  attempt never reaches :meth:`MemoryGuard.adopt` — verification runs
  first — so a fault "mid-adopt" cannot exist on the driver: the
  guard either adopts one verified attempt's peaks or none, and
  ``adopt`` itself is a pure max/assign merge per tag.
- **Row payloads are integrity-checked.**  Every worker result carries
  a splitmix64-chained CRC over its arrays and trace
  (:func:`repro.ampc.faults.payload_checksum`), and row-resolution
  deliveries into :meth:`_Shard.install_ghosts` verify a
  :func:`repro.ampc.faults.rows_checksum` when one is supplied —
  corruption becomes a detected retry, never a wrong partition.  The
  checksum parameter is the contract a real transport attaches to
  every row message; the in-process paths hand ``install_ghosts`` the
  very objects the serving side would digest, so they stamp one only
  under an active fault plan (:func:`_rows_stamp`) — keeping the
  verify path exercised by the chaos tier without paying a double
  digest on every fault-free delivery.

A :class:`MemoryGuardError` stays a deterministic protocol outcome:
the serial fabric would raise it identically, so the supervisor never
retries it and passes it through with the pool intact.

The BSP sub-round loop plus the typed, size-capped messages above are
deliberately the narrow waist: a true multi-host backend (sockets,
MPI) replaces the pool dispatch and the driver's replay loop with real
transport, and the supervisor is the failure contract such a backend
plugs into — it supplies loss detection (deadlines), bounded
re-execution, and degradation; the transport only has to report
faults.
"""

from __future__ import annotations

import time

import numpy as np

from repro.ampc import faults

__all__ = [
    "MESSAGE_CAP_WORDS",
    "MemoryGuard",
    "MemoryGuardError",
    "MessageFabric",
    "owner_of",
]

# Default payload cap of one delivery segment, in int64 words.  Purely a
# counting granularity (segments of one logical payload ship together);
# EngineConfig.message_cap_words / $REPRO_MESSAGE_CAP_WORDS override it.
MESSAGE_CAP_WORDS = 1 << 15

# Ceiling on the doubling speculative-service radius (see
# _Shard.expand_requests): by the time a game is this many fetch
# exchanges deep, one more doubling would ship most of the owner's slice.
PREFETCH_RADIUS_CAP = 16
# Request-union size below which the exchange switches from direct
# serving to cap-radius speculative balls (the deep-tail regime).
PREFETCH_TAIL_IDS = 2048

_EMPTY = np.empty(0, dtype=np.int64)
_INF = float("inf")

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def owner_of(vertices: np.ndarray, num_shards: int) -> np.ndarray:
    """Owner shard of each vertex: ``splitmix64(v) mod num_shards``.

    A fixed deterministic mix (not Python's randomized ``hash``) keeps
    the partition reproducible across processes and runs; splitmix64
    scatters consecutive vertex ids so contiguous graph regions spread
    over shards instead of landing on one.
    """
    z = np.asarray(vertices, dtype=np.int64).astype(np.uint64) + _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    return (z % np.uint64(num_shards)).astype(np.int64)


_M64 = (1 << 64) - 1


def owner_of_one(v: int, num_shards: int) -> int:
    """Scalar :func:`owner_of` for single-vertex probes (same mix)."""
    z = (v + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z % num_shards


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
        """Adopt a worker-side guard's round outcome onto this guard.

        The pooled fabric runs a shard's round inside a worker process
        whose guard replays the exact op sequence the serial fabric
        would have run (same budget, so a violation raised there first);
        the driver-side guard — which persists across rounds and still
        owes the round's fold accounting — takes over the worker's
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


def _in_sorted(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Membership mask of ``values`` in the sorted id array ``keys``."""
    if not len(keys) or not len(values):
        return np.zeros(len(values), dtype=bool)
    pos = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[pos] == values


def _sorted_unique(values: np.ndarray) -> np.ndarray:
    if not values.size:
        return values
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def _segment_indices(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering rows ``[starts[i], starts[i]+counts[i])``."""
    total = int(counts.sum())
    if not total:
        return _EMPTY
    out = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    out += np.arange(total, dtype=np.int64)
    return out


class _Shard:
    """One simulated machine: owned rows + ghost fringe, all guarded."""

    def __init__(self, sid: int, num_shards: int, budget_words: int | None):
        self.sid = sid
        self.num_shards = num_shards
        self.guard = MemoryGuard(budget_words, name=f"shard[{sid}]")
        self.row_ids = _EMPTY  # sorted owned ids with a stored row
        self.row_offsets = np.zeros(1, dtype=np.int64)
        self.row_targets = _EMPTY
        # Ghost fringe: an appendable compacted CSR.  ghost_ids is
        # sorted; (ghost_starts, ghost_lens) slice rows out of the
        # append-only _arena (compacted when dead words dominate).
        self.ghost_ids = _EMPTY
        self.ghost_starts = _EMPTY
        self.ghost_lens = _EMPTY
        self._arena = _EMPTY
        self._arena_used = 0
        self._fringe_words = 0  # 1 + len per ghost
        self._owned_index: dict[int, int] | None = None
        # Per-round ghost delta log, consumed by _ShardRound's
        # incremental local CSR (cleared at build and at finish_round).
        self._log_added: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._log_removed: list[np.ndarray] = []

    # -- owned rows --------------------------------------------------------

    def install_owned(
        self, ids: np.ndarray, offsets: np.ndarray, targets: np.ndarray
    ) -> int:
        self.row_ids = ids
        self.row_offsets = offsets
        self.row_targets = targets
        self._owned_index = None
        words = len(ids) + len(offsets) + len(targets)
        self.guard.account("owned_rows", words)
        return words

    def owned_index(self) -> dict[int, int]:
        """id → slot of the owned slice (ids are static within a round,
        single-vertex probes are the replay hot path)."""
        if self._owned_index is None:
            self._owned_index = {
                v: i for i, v in enumerate(self.row_ids.tolist())
            }
        return self._owned_index

    def owned_row(self, v: int) -> np.ndarray:
        """The residual row of owned vertex ``v`` (implicitly empty rows
        — isolated alive vertices — are served as empty)."""
        i = int(np.searchsorted(self.row_ids, v))
        if i < len(self.row_ids) and self.row_ids[i] == v:
            return self.row_targets[
                self.row_offsets[i]:self.row_offsets[i + 1]
            ]
        return _EMPTY

    def row_extents(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(start, len)`` of each requested owned row — the single
        sizing rule :meth:`serve_rows` and :meth:`served_words` share,
        so word accounting can never drift from the payloads actually
        shipped.  A vertex without a stored row (missing, or implicitly
        empty) extends to length 0."""
        pos = np.searchsorted(self.row_ids, ids)
        inb = pos < len(self.row_ids)
        hit = np.zeros(len(ids), dtype=bool)
        hit[inb] = self.row_ids[pos[inb]] == ids[inb]
        starts = self.row_offsets[pos]
        ends = self.row_offsets[np.minimum(pos + 1, len(self.row_ids))]
        lens = np.where(hit, ends - starts, 0)
        return np.where(hit, starts, 0), lens

    def serve_rows(
        self, ids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One packed ``(ids, lens, targets)`` slab for a request batch
        — the columnar row-resolution wire format (one gather instead
        of a python tuple per row; serving is driver-hot).  Payload
        words are ``2 + len`` per row, identical to the old per-row
        framing, so comm accounting semantics are unchanged."""
        starts, lens = self.row_extents(ids)
        return ids, lens, self.row_targets[_segment_indices(starts, lens)]

    def served_words(self, ids: np.ndarray) -> np.ndarray:
        """Payload words :meth:`serve_rows` would ship per id, without
        materializing the rows (the pooled driver replays a worker's
        row exchanges for accounting only — the worker already served
        itself from the shared CSR)."""
        return 2 + self.row_extents(ids)[1]

    def retire(self, retired: np.ndarray) -> None:
        """Drop retired owned rows; prune retired ids from the rest.

        Filtering preserves target order, so the pruned slice equals the
        owner partition of the next round's residual CSR.  Ghosts were
        already dropped at ``finish_round`` (invalidation rule 1).
        """
        if not len(self.row_ids):
            return
        keep_rows = ~_in_sorted(self.row_ids, retired)
        keep_tgts = ~_in_sorted(self.row_targets, retired)
        row_index = np.repeat(
            np.arange(len(self.row_ids), dtype=np.int64),
            np.diff(self.row_offsets),
        )
        counts_all = np.bincount(
            row_index[keep_tgts], minlength=len(self.row_ids)
        )
        # Rows whose every target retired are dropped with the retired
        # rows: a source with no surviving targets has residual degree 0,
        # and the owner partition of the next round's CSR (what
        # _distribute builds) holds rows for deg>0 sources only.  Served
        # rows are unchanged either way (a missing owned row reads as
        # empty), but pooled execution reconstructs each shard from the
        # round's CSR, so the pruned slice must *equal* that partition —
        # guard words included — not merely serve the same rows.
        keep_rows &= counts_all > 0
        counts = counts_all[keep_rows]
        self.row_targets = self.row_targets[keep_tgts & keep_rows[row_index]]
        self.row_ids = self.row_ids[keep_rows]
        self.row_offsets = np.zeros(len(self.row_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.row_offsets[1:])
        self._owned_index = None
        self.guard.account(
            "owned_rows",
            len(self.row_ids) + len(self.row_offsets) + len(self.row_targets),
        )


    # -- ghost fringe ------------------------------------------------------

    def _reserve(self, count: int) -> int:
        """Arena space for ``count`` more words; returns the write start."""
        need = self._arena_used + count
        if need > len(self._arena):
            grown = np.empty(max(need, 2 * len(self._arena), 1024), np.int64)
            grown[: self._arena_used] = self._arena[: self._arena_used]
            self._arena = grown
        start = self._arena_used
        self._arena_used = need
        return start

    def _ghost_slab(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The whole ghost store as one compacted (ids, lens, targets)."""
        return (
            self.ghost_ids,
            self.ghost_lens,
            self._arena[_segment_indices(self.ghost_starts, self.ghost_lens)],
        )

    def ghost_row(self, v: int) -> np.ndarray | None:
        """The ghost row of ``v``, or None when not ghosted."""
        i = int(np.searchsorted(self.ghost_ids, v))
        if i < len(self.ghost_ids) and self.ghost_ids[i] == v:
            s = self.ghost_starts[i]
            return self._arena[s:s + self.ghost_lens[i]]
        return None

    def _account_ghosts(self) -> None:
        if self._fringe_words:
            self.guard.account("ghost_fringe", self._fringe_words)
        else:
            self.guard.release("ghost_fringe")

    def install_ghosts(
        self,
        ids: np.ndarray,
        lens: np.ndarray,
        targets: np.ndarray,
        checksum: int | None = None,
    ) -> None:
        """Install one row-resolution slab into the ghost fringe.

        The checksum (computed by the serving side over the same slab)
        and the guard charge both run *before* any ghost mutates: a
        corrupted or over-budget slab is rejected with the store — and
        its accounting — exactly as it was, so the caller can convert
        the failure into a retry (or shed load) without rollback.
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
        if len(self.ghost_ids) and _in_sorted(ids, self.ghost_ids).any():
            # Cannot happen in-protocol (missing rows are unheld and
            # speculative cargo skips held rows); reject loudly instead
            # of silently double-holding a row.
            raise ValueError("row-resolution slab overlaps held ghosts")
        words = self._fringe_words + len(ids) + int(lens.sum())
        self.guard.account("ghost_fringe", words)  # raises pre-commit
        self._fringe_words = words
        start = self._reserve(len(targets))
        self._arena[start:start + len(targets)] = targets
        starts = start + np.cumsum(lens) - lens
        ins = np.searchsorted(self.ghost_ids, ids)
        self.ghost_ids = np.insert(self.ghost_ids, ins, ids)
        self.ghost_starts = np.insert(self.ghost_starts, ins, starts)
        self.ghost_lens = np.insert(self.ghost_lens, ins, lens)
        self._log_added.append((ids, lens, targets))

    def evict_ghosts(self, pinned: np.ndarray) -> None:
        """Evict every ghost no pending game pins (invalidation rule 2)."""
        if not len(self.ghost_ids):
            return
        keep = _in_sorted(self.ghost_ids, pinned)
        if keep.all():
            return
        dropped = self.ghost_ids[~keep]
        self._fringe_words -= len(dropped) + int(self.ghost_lens[~keep].sum())
        self.ghost_ids = self.ghost_ids[keep]
        self.ghost_starts = self.ghost_starts[keep]
        self.ghost_lens = self.ghost_lens[keep]
        self._account_ghosts()
        self._log_removed.append(dropped)
        live = int(self.ghost_lens.sum())
        if self._arena_used > 2 * live + 1024:
            self._arena = self._ghost_slab()[2]
            self._arena_used = len(self._arena)
            self.ghost_starts = np.cumsum(self.ghost_lens) - self.ghost_lens

    def finish_round(self) -> None:
        """Round boundary: drop the whole ghost fringe (rule 1)."""
        self.ghost_ids = _EMPTY
        self.ghost_starts = _EMPTY
        self.ghost_lens = _EMPTY
        self._arena = _EMPTY
        self._arena_used = 0
        self._fringe_words = 0
        self.guard.release("ghost_fringe")
        self._log_added.clear()
        self._log_removed.clear()

    def held_mask(
        self, vertices: np.ndarray, ghost_ids: np.ndarray
    ) -> np.ndarray:
        """Which of ``vertices`` this shard holds the residual row of."""
        mask = owner_of(vertices, self.num_shards) == self.sid
        mask |= _in_sorted(vertices, ghost_ids)
        return mask

    def row_of(self, v: int) -> np.ndarray | None:
        """Held row of ``v`` (owned or ghost), or None when not held."""
        if int(owner_of(np.asarray([v]), self.num_shards)[0]) == self.sid:
            return self.owned_row(v)
        return self.ghost_row(v)


class _ShardRound:
    """Round-local game state of one shard (valid/invalid, pins, folds)."""

    def __init__(
        self, shard: _Shard, roots: np.ndarray, positions: np.ndarray,
        engine: str,
    ) -> None:
        self.shard = shard
        self.roots = roots
        self.positions = positions
        self.engine = engine
        g = len(roots)
        self.valid = np.zeros(g, dtype=bool)
        self.reads = np.zeros(g, dtype=np.int64)
        self.writes = np.zeros(g, dtype=np.int64)
        self.ball_words = np.zeros(g, dtype=np.int64)
        # Record tuples of games committed by the scalar interpreter,
        # and columnar (proof_u, proof_l) of those the array engines
        # committed: the layer fold consumes either.
        self.records: list = [None] * g
        self.proof_cols: list = [None] * g
        self.missing: list[np.ndarray] = [_EMPTY] * g
        self.fetched: list[list[np.ndarray]] = [[] for __ in range(g)]
        self.spec_pins: list[np.ndarray] = []
        self.ejected_games = 0
        # Incremental local CSR (built lazily on the first play; see
        # _build_local / _advance_local) and its phase timings.
        self._local: dict | None = None
        self.compact_s = 0.0
        self.play_s = 0.0
        shard.guard.account("game_assignments", 2 * g)

    def pending(self) -> np.ndarray:
        return np.flatnonzero(~self.valid)

    def seed_missing(self, num_shards: int) -> None:
        """Pre-play missing sets: the wave-one fringe needs no wave.

        Every game's root row is owned by this shard, so the rows its
        first wave will miss — the root's off-shard targets — are known
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
        starts, lens = shard.row_extents(self.roots)
        flat = shard.row_targets[_segment_indices(starts, lens)]
        if not flat.size:
            return
        want = owner_of(flat, num_shards) != shard.sid
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

    # -- one sub-round of play --------------------------------------------

    def play(self, params: dict, config) -> None:
        t0 = time.perf_counter()
        c0 = self.compact_s
        if self.engine in ("batched", "compiled"):
            self._play_batched(params, config)
        else:
            self._play_scalar(params)
        # Pure play wall: local-CSR maintenance is reported separately
        # (the compact_s phase), so the two never double-count.
        self.play_s += (time.perf_counter() - t0) - (self.compact_s - c0)

    def _commit(
        self, i: int, reads: int, writes: int, record: tuple | None,
        ball_words: int, ejected: bool, proof_cols: tuple | None = None,
    ) -> None:
        self.valid[i] = True
        self.missing[i] = _EMPTY
        self.reads[i] = reads
        self.writes[i] = writes
        self.records[i] = record
        self.proof_cols[i] = proof_cols
        self.ball_words[i] = ball_words
        if ejected:
            self.ejected_games += 1

    def proof_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Locally folded layer proposals: ``(vertices, minima, counts)``.

        Engine paths commit columnar (proof_u, proof_l) arrays and
        concatenate for free; scalar-path games (including ejected
        games) fall back to flattening their record tuples — the same
        pairs either way.  The game shard then combines its own pairs
        per vertex (min layer, proposal count) before they are routed
        to vertex owners — the standard combiner: the owner-side fold
        is min-of-mins and sum-of-counts, so the result is identical
        while each shard forwards one triple per distinct vertex
        instead of one pair per proposal.
        """
        parts_u: list[np.ndarray] = []
        parts_l: list[np.ndarray] = []
        for i, cols in enumerate(self.proof_cols):
            if cols is not None:
                parts_u.append(cols[0])
                parts_l.append(cols[1])
                continue
            record = self.records[i]
            if record is None:
                continue
            proof = record[1]
            parts_u.append(np.fromiter(
                (u for u, __ in proof), dtype=np.int64, count=len(proof)
            ))
            parts_l.append(np.fromiter(
                (lay for __, lay in proof), dtype=np.int64, count=len(proof)
            ))
        pu = np.concatenate(parts_u) if parts_u else _EMPTY
        if not pu.size:  # no game of this shard proved any layer
            return _EMPTY, _EMPTY, _EMPTY
        pl = np.concatenate(parts_l)
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

    def _build_local(self) -> dict:
        """First-play construction of the incremental local CSR.

        The universe (sorted global ids, compacted to ranks) starts as
        owned ids ∪ owned targets ∪ every root ∪ current ghosts and
        their targets, and afterwards only ever *grows*
        (:meth:`_advance_local` splices installed ghost rows in and
        zeroes evicted ones) — evicted ids linger as unheld fringe.
        That makes every play's universe a superset of the one the
        per-sub-round rebuild would produce, which is exact by the same
        argument as compaction itself: the remap global→local stays
        monotone, every engine tie-break is order-based, unheld rows
        read as empty, and unreachable empty rows are never read.  Only
        discarded games pay re-simulation; the held set never pays
        re-layout.
        """
        shard = self.shard
        g_ids, g_lens, g_targets = shard._ghost_slab()
        parts = [shard.row_ids, shard.row_targets, self.roots,
                 g_ids, g_targets]
        universe = _sorted_unique(
            np.concatenate([p for p in parts if len(p)])
        )
        u_count = len(universe)
        held = shard.held_mask(universe, g_ids)
        own_pos = np.searchsorted(universe, shard.row_ids)
        own_counts = np.diff(shard.row_offsets)
        ghost_pos = np.searchsorted(universe, g_ids)
        deg_held = np.zeros(u_count, dtype=np.int64)
        deg_held[own_pos] = own_counts
        deg_held[ghost_pos] = g_lens
        offsets_l = np.zeros(u_count + 1, dtype=np.int64)
        np.cumsum(deg_held, out=offsets_l[1:])
        targets_l = np.empty(int(offsets_l[-1]), dtype=np.int64)
        targets_l[_segment_indices(offsets_l[own_pos], own_counts)] = (
            np.searchsorted(universe, shard.row_targets)
        )
        targets_l[_segment_indices(offsets_l[ghost_pos], g_lens)] = (
            np.searchsorted(universe, g_targets)
        )
        shard._log_added.clear()
        shard._log_removed.clear()
        return {
            "universe": universe,
            "held": held,
            "deg": deg_held,
            "offsets": offsets_l,
            "targets": targets_l,
            "roots_l": np.searchsorted(universe, self.roots),
            "own_pos": own_pos,
        }

    def _advance_local(self) -> None:
        """Splice the ghost delta since the last play into the local
        CSR: newly installed rows are appended (their fresh ids merged
        into the universe under a monotone remap), evicted rows zeroed
        — instead of recompacting the whole held set every sub-round.
        """
        shard = self.shard
        loc = self._local
        added = shard._log_added
        removed = shard._log_removed
        shard._log_added = []
        shard._log_removed = []
        if not added and not removed:
            return
        t0 = time.perf_counter()
        universe = loc["universe"]
        held = loc["held"]
        deg = loc["deg"]
        targets_l = loc["targets"]
        if added:
            a_ids = np.concatenate([a[0] for a in added])
            a_lens = np.concatenate([a[1] for a in added])
            a_tgts = np.concatenate([a[2] for a in added])
            cand = _sorted_unique(np.concatenate([a_ids, a_tgts]))
            fresh = cand[~_in_sorted(cand, universe)]
        else:
            a_ids = a_lens = a_tgts = fresh = _EMPTY
        if fresh.size:
            old2new = (
                np.arange(len(universe), dtype=np.int64)
                + np.searchsorted(fresh, universe)
            )
            fresh_pos = (
                np.searchsorted(universe, fresh)
                + np.arange(len(fresh), dtype=np.int64)
            )
            u2 = np.empty(len(universe) + len(fresh), dtype=np.int64)
            u2[old2new] = universe
            u2[fresh_pos] = fresh
            held2 = np.empty(len(u2), dtype=bool)
            held2[old2new] = held
            held2[fresh_pos] = (
                owner_of(fresh, shard.num_shards) == shard.sid
            )
            deg2 = np.zeros(len(u2), dtype=np.int64)
            deg2[old2new] = deg
            targets_l = old2new[targets_l]
            loc["roots_l"] = old2new[loc["roots_l"]]
            loc["own_pos"] = old2new[loc["own_pos"]]
            universe, held, deg = u2, held2, deg2
        old_offsets = loc["offsets"]
        old_deg = loc["deg"]
        keep_old = old_deg > 0
        if removed:
            rm = _sorted_unique(np.concatenate(removed))
            if rm.size:
                pos_rm_old = np.searchsorted(loc["universe"], rm)
                keep_old[pos_rm_old] = False
                pos_rm = np.searchsorted(universe, rm)
                held[pos_rm] = False
                deg[pos_rm] = 0
        if a_ids.size:
            pos_a = np.searchsorted(universe, a_ids)
            held[pos_a] = True
            deg[pos_a] = a_lens
        offsets2 = np.zeros(len(universe) + 1, dtype=np.int64)
        np.cumsum(deg, out=offsets2[1:])
        targets2 = np.empty(int(offsets2[-1]), dtype=np.int64)
        src_rows = np.flatnonzero(keep_old)
        if src_rows.size:
            counts = old_deg[src_rows]
            dst_rows = (
                np.searchsorted(fresh, loc["universe"][src_rows]) + src_rows
                if fresh.size else src_rows
            )
            targets2[_segment_indices(offsets2[dst_rows], counts)] = (
                targets_l[_segment_indices(old_offsets[src_rows], counts)]
            )
        if a_ids.size:
            targets2[_segment_indices(offsets2[pos_a], a_lens)] = (
                np.searchsorted(universe, a_tgts)
            )
        loc["universe"] = universe
        loc["held"] = held
        loc["deg"] = deg
        loc["offsets"] = offsets2
        loc["targets"] = targets2
        self.compact_s += time.perf_counter() - t0

    def _play_batched(self, params: dict, config) -> None:
        from repro.core.batched_games import play_games_batched
        from repro.core.columnar_rounds import play_coin_game

        shard = self.shard
        need = self.pending()
        roots_g = self.roots[need]
        if self._local is None:
            t0 = time.perf_counter()
            self._local = self._build_local()
            self.compact_s += time.perf_counter() - t0
        else:
            self._advance_local()
        loc = self._local
        universe = loc["universe"]
        u_count = len(universe)
        held = loc["held"]
        deg_held = loc["deg"]

        # Fringe vertices (targets of held rows whose own rows are not
        # held) need local rows too.  The two engines want different
        # ones:
        #
        # * The python batched engine patches forwarding records through
        #   a transpose-position map that assumes every edge's reverse
        #   exists, so fringe rows must hold synthetic reverse edges.
        #   Only a game that explores a fringe vertex can read one — and
        #   that game is invalid and discarded — but the fake structure
        #   (cycles back into the ball) makes such games escalate their
        #   coin scale far past the genuine trajectory's, ejecting them
        #   to the slow bigint path in droves.
        #
        # * The compiled kernel re-evaluates membership per delivery
        #   through its stamp arrays and never consults a transpose map,
        #   so it has no symmetry assumption at all.  Fringe rows stay
        #   genuinely empty — the exact missing-rows-read-as-empty
        #   semantics of the scalar fabric protocol — and a game that
        #   walks off the held ball parks at the fringe instead of
        #   bouncing through fake cycles, so only genuinely deep games
        #   eject.  Either way the game is detected as invalid through
        #   the held mask over its explored set.
        if self.engine == "compiled":
            offsets_l = loc["offsets"]
            targets_l = loc["targets"]
        else:
            held_tgt = loc["targets"]
            held_src = np.repeat(
                np.arange(u_count, dtype=np.int64), deg_held
            )
            fringe_edge = ~held[held_tgt]
            syn_src = held_tgt[fringe_edge]
            syn_tgt = held_src[fringe_edge]
            deg = (
                deg_held + np.bincount(syn_src, minlength=u_count)
                if syn_src.size else deg_held
            )
            offsets_l = np.zeros(u_count + 1, dtype=np.int64)
            np.cumsum(deg, out=offsets_l[1:])
            targets_l = np.empty(int(offsets_l[-1]), dtype=np.int64)
            targets_l[
                _segment_indices(offsets_l[:-1], deg_held)
            ] = held_tgt
            if syn_src.size:
                order = np.lexsort((syn_tgt, syn_src))
                syn_rows = _sorted_unique(syn_src)
                targets_l[
                    _segment_indices(
                        offsets_l[syn_rows],
                        np.bincount(syn_src, minlength=u_count)[syn_rows],
                    )
                ] = syn_tgt[order]

        shard.guard.account(
            "game_scratch",
            (u_count + 1) + 2 * len(targets_l) + 3 * u_count,
        )

        from repro.core.batched_games import csr_transpose_positions

        if self.engine == "compiled":
            from repro.core.native import play_games_compiled

            play_cohort = play_games_compiled
            transpose = None
        else:
            play_cohort = play_games_batched
            transpose = csr_transpose_positions(offsets_l, targets_l)
        roots_l = loc["roots_l"][need]
        out_layer = np.full(u_count, _INF)
        out_count = np.zeros(u_count, dtype=np.int64)
        k = len(roots_l)
        reads = np.zeros(k, dtype=np.int64)
        writes = np.zeros(k, dtype=np.int64)
        records: list = [None] * k
        ejected_flags = np.zeros(k, dtype=bool)
        block = config.cohort_games
        arena_hint = [0, 0]
        ejected: list[int] = []
        need_list = need.tolist()
        raw = self.engine == "compiled"
        for start in range(0, k, block):
            stop = min(start + block, k)
            info = play_cohort(
                offsets_l, targets_l, roots_l[start:stop],
                x=params["x"], beta=params["beta"], clip=params["clip"],
                horizon=params["horizon"], scale=params["scale"],
                out_layer=out_layer, out_count=out_count,
                want_records=True, transpose_pos=transpose,
                arena_hint=arena_hint,
                **({"raw_records": True} if raw else {}),
            )
            reads[start:stop] = info.reads
            writes[start:stop] = info.writes
            ejected.extend((info.ejected + start).tolist())
            if not raw:
                records[start:stop] = info.records
                continue
            # Raw flat records: remap ids and split valid from invalid
            # games in whole-cohort array ops — an optimistic wave
            # discards most of its plays as invalid, and marshalling
            # their transcripts one list element at a time was the
            # fabric's single largest driver cost.
            mem_f, pu_f, pl_f, mem_counts, proof_counts = info.records
            mem_ends = np.cumsum(mem_counts)
            proof_ends = np.cumsum(proof_counts)
            mem_g = universe[mem_f]
            pu_g = universe[pu_f]
            pl_g = np.asarray(pl_f, dtype=np.int64)
            bad = ~held[mem_f]
            bad_cum = np.zeros(len(bad) + 1, dtype=np.int64)
            np.cumsum(bad, out=bad_cum[1:])
            ball_cum = np.zeros(len(mem_f) + 1, dtype=np.int64)
            np.cumsum(deg_held[mem_f], out=ball_cum[1:])
            cohort_ejected = np.zeros(stop - start, dtype=bool)
            cohort_ejected[info.ejected] = True
            mo = po = 0
            for jj in range(stop - start):
                me = int(mem_ends[jj])
                pe = int(proof_ends[jj])
                if cohort_ejected[jj]:
                    mo, po = me, pe
                    continue  # replayed exactly below, on real held rows
                i = need_list[start + jj]
                if bad_cum[me] != bad_cum[mo]:
                    # Unsorted is fine: missing sets only ever feed
                    # missing_union / pinned_ghosts, which sort-unique
                    # their concatenation anyway.
                    seg = mem_g[mo:me]
                    self.missing[i] = seg[bad[mo:me]]
                else:
                    # Real words of the held ball: one degree word plus
                    # the row targets per explored vertex — identically
                    # the game's probe charge, so strict-budget parity
                    # is checked against what a shard genuinely held.
                    ball = (me - mo) + int(ball_cum[me] - ball_cum[mo])
                    self._commit(
                        i, int(reads[start + jj]), int(writes[start + jj]),
                        None, ball, False,
                        proof_cols=(pu_g[po:pe], pl_g[po:pe]),
                    )
                mo, po = me, pe
        if ejected:
            ejected_flags[ejected] = True
        if not raw:
            for j, i in enumerate(need_list):
                if ejected_flags[j]:
                    continue  # replayed exactly below, on real held rows
                record = records[j]
                explored_l = np.asarray(record[0], dtype=np.int64)
                miss = explored_l[~held[explored_l]]
                if miss.size:
                    # Unsorted is fine (see the raw path above).
                    self.missing[i] = universe[miss]
                    continue
                proof = record[1]
                pu_arr = universe[np.fromiter(
                    (u for u, __ in proof), dtype=np.int64, count=len(proof)
                )]
                pl_arr = np.fromiter(
                    (lay for __, lay in proof), dtype=np.int64,
                    count=len(proof),
                )
                # Real words of the held ball (see the raw path above).
                ball = len(explored_l) + int(deg_held[explored_l].sum())
                self._commit(
                    i, int(reads[j]), int(writes[j]), None, ball, False,
                    proof_cols=(pu_arr, pl_arr),
                )

        # Ejected games replay through the scalar interpreter — but on
        # the shard's *real* held rows in global ids, not the compacted
        # local view.  The synthetic reverse rows above exist only to
        # satisfy the engine's transpose map; a game that wanders into
        # them sees fake structure whose scale escalation routinely
        # overflows the engine (mass ejection), and an exact bigint
        # replay of that fake trajectory is both the slowest path in the
        # fabric and useless — the transcript is discarded as invalid
        # anyway.  Replaying against held rows keeps the bigint path on
        # the true game: if every probe hits a held row the global
        # transcript is exact and commits; otherwise the logged probes
        # are the genuine rows the game's real trajectory needs next
        # sub-round.
        if ejected:
            adj = _GhostAdjacency(shard)
            scratch_layer = _MinScratch()
            scratch_count = _CountScratch()
            for gi in ejected:
                i = int(need[gi])
                adj.missing = set()
                r, w, record = play_coin_game(
                    adj, int(roots_g[gi]), params["x"], params["beta"],
                    params["clip"], params["horizon"], params["scale"],
                    scratch_layer, scratch_count, True,
                )
                if adj.missing:
                    self.missing[i] = _sorted_unique(np.fromiter(
                        adj.missing, dtype=np.int64, count=len(adj.missing)
                    ))
                    continue
                ball = len(record[0]) + sum(len(adj[u]) for u in record[0])
                self._commit(i, r, w, record, ball, True)
            shard.guard.account(
                "game_scratch",
                (u_count + 1) + 2 * len(targets_l) + 3 * u_count
                + adj.cached_words(),
            )
        shard.guard.release("game_scratch")

    def _play_scalar(self, params: dict) -> None:
        from repro.core.columnar_rounds import play_coin_game

        shard = self.shard
        adj = _GhostAdjacency(shard)
        out_layer = _MinScratch()
        out_count = _CountScratch()
        for i in self.pending().tolist():
            adj.missing = set()
            reads, writes, record = play_coin_game(
                adj, int(self.roots[i]), params["x"], params["beta"],
                params["clip"], params["horizon"], params["scale"],
                out_layer, out_count, True,
            )
            if adj.missing:
                self.missing[i] = _sorted_unique(np.fromiter(
                    adj.missing, dtype=np.int64, count=len(adj.missing)
                ))
                continue
            ball = len(record[0]) + sum(len(adj[u]) for u in record[0])
            self._commit(i, reads, writes, record, ball, False)
        shard.guard.account("game_scratch", adj.cached_words())
        shard.guard.release("game_scratch")


class _GhostAdjacency:
    """Global-id adjacency over one shard's held rows (missing → empty).

    The scalar engine probes ``adj[u]`` only for explored vertices; a
    probe of a row the shard does not hold returns an empty row and logs
    the id — the game is then invalid and the logged ids become the
    sub-round's row requests.
    """

    def __init__(self, shard: _Shard) -> None:
        self._shard = shard
        self._rows: dict[int, list[int]] = {}
        self.missing: set[int] = set()
        # Probes are single-vertex and row-cache misses are the hot
        # path of every replay, so look rows up through the shard's id
        # index instead of binary-searching and owner-hashing one numpy
        # scalar per miss.
        self._owned_index = shard.owned_index()

    def __getitem__(self, v: int) -> list[int]:
        row = self._rows.get(v)
        if row is None:
            shard = self._shard
            i = self._owned_index.get(v)
            if i is not None:
                row = shard.row_targets[
                    shard.row_offsets[i]:shard.row_offsets[i + 1]
                ].tolist()
            else:
                ghost = shard.ghost_row(v)
                if ghost is not None:
                    row = ghost.tolist()
                elif owner_of_one(v, shard.num_shards) == shard.sid:
                    row = []  # owned, implicitly empty (isolated vertex)
                else:
                    self.missing.add(v)
                    return []
            self._rows[v] = row
        return row

    def cached_words(self) -> int:
        return sum(1 + len(row) for row in self._rows.values())


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
    sid = shard.sid
    num_shards = shard.num_shards
    ball = miss
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
        fresh = nxt[~_in_sorted(nxt, ball)]
        if not fresh.size:
            break
        ball = _sorted_unique(np.concatenate([ball, fresh]))
        # Rows the requester already holds are waypoints, not cargo:
        # they join the frontier (the true ball runs straight through
        # them — with p shards an owner-hash scatters 1/p of every
        # layer into the requester) but are never re-shipped.
        cargo = fresh[
            (owner_of(fresh, num_shards) != sid)
            & ~_in_sorted(fresh, shard.ghost_ids)
        ]
        if cargo.size:
            # Budget charge per speculative row: its ghost words
            # (2 + deg) plus the scratch the next play's compacted
            # universe spends on it — ~4 words per universe slot
            # (the row itself and up to deg fringe targets) and 2
            # per target — so a row costs ~6 + 7*deg of headroom,
            # not just its payload.
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


class _MinScratch(dict):
    """Dense-accumulator stand-in: missing keys read as +∞."""

    def __missing__(self, key):
        return _INF


class _CountScratch(dict):
    """Dense-accumulator stand-in: missing keys read as 0."""

    def __missing__(self, key):
        return 0


def _rows_stamp(
    ids: np.ndarray, lens: np.ndarray, targets: np.ndarray
) -> int | None:
    """Checksum a row-resolution slab for in-process delivery.

    In-process, :meth:`_Shard.install_ghosts` receives the very arrays
    the serving side would digest, so a self-stamped checksum can never
    detect corruption — the parameter exists as the integrity contract
    a future socket/MPI transport attaches to each row slab.  Stamp
    (and thereby verify) only under an active fault plan, so the chaos
    tier keeps the verify path exercised while fault-free deliveries —
    including the serial path — skip the double digest.
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
    positions: np.ndarray,
    x: int,
    beta: int,
    clip: int,
    horizon: int,
    scale: int | None,
    engine: str,
    config,
    budget_words: int | None = None,
    fault=None,
) -> dict:
    """One shard's complete BSP round, self-served from the global CSR.

    This is the worker side of the pooled fabric
    (:meth:`repro.ampc.pool.CoinGamePool.run_fabric_round`).  A shard's
    sub-round chain is a pure function of (residual CSR, its roots,
    shard count, engine, config, budget): every row another shard would
    serve it is a verbatim slice of the round's CSR, so the worker
    reconstructs its owned partition from the shared CSR (exactly what
    :meth:`MessageFabric._distribute` built — retirement prunes the
    driver's slices down to the same shape), serves its own row requests
    straight from the CSR, and runs the identical guard/ghost/play
    sequence the serial fabric runs for that shard.

    Besides its game results the worker returns the per-sub-round
    ``(missing, speculative)`` id trace of requests it *would* have sent
    and its guard's round peak and end-of-round holdings; the driver
    replays the trace through the same ``_send``/word-counting helpers
    (overlapped with the other shards' play) and adopts the guard
    numbers, so comm counters and ``max_held_words`` are bit-identical
    to the serial fabric for every (engine, shards, workers) combination.

    ``fault`` is an optional injected :class:`repro.ampc.faults.Fault`
    of kind ``"slab"``: the first row slab is corrupted *after* the
    serving side stamps its checksum, so :meth:`_Shard.install_ghosts`
    must reject it (a retriable worker loss) before any ghost mutates.
    """
    t0 = time.perf_counter()
    shard = _Shard(sid, num_shards, budget_words)
    deg = np.diff(offsets)
    sources = np.flatnonzero(deg > 0)
    sources = sources[owner_of(sources, num_shards) == sid]
    counts = deg[sources]
    row_offsets = np.zeros(len(sources) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_offsets[1:])
    shard.install_owned(
        sources, row_offsets,
        targets[_segment_indices(offsets[sources], counts)],
    )
    shard.guard.begin_round()
    run = _ShardRound(shard, roots, positions, engine)
    run.seed_missing(num_shards)
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
        radius = min(1 << (sub_round - 1), PREFETCH_RADIUS_CAP)
        extra = _EMPTY
        if miss.size:
            # Same speculation policy as the serial loop: a budgeted
            # shard never speculates (see MessageFabric.run_round).
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
            shard.install_ghosts(wanted, lens, slab, checksum=stamp)
            install_s += time.perf_counter() - ts
            run.attribute_expansions(extra)
        # Same budget-only mid-round eviction rule as the serial loop
        # (see MessageFabric.run_round) — the schedules must match wave
        # for wave or the guard peaks would diverge.
        if budget_words is not None and run.pending().size:
            shard.evict_ghosts(run.pinned_ghosts())
        if run.pending().size:
            run.play(params, config)
        played = True
        trace.append((miss, extra))
    shard.finish_round()
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
        "compact_s": run.compact_s,
        "play_s": run.play_s,
        "wall_s": time.perf_counter() - t0,
    }


class MessageFabric:
    """The driver-side fabric: ``p`` owner-hashed shards + typed routing.

    Shards are simulated in-process (the fabric models the memory and
    communication discipline of a distributed run — throughput sharding
    is the process pool's job), but every byte a shard holds and every
    word that crosses a shard boundary is accounted as if they were
    separate machines.  ``run_round`` plugs into
    :func:`repro.core.columnar_rounds.lca_round_kernel` in place of the
    pool and returns the same ``(positions, ShardResult)`` pairs.
    """

    def __init__(
        self,
        num_shards: int,
        *,
        budget_words: int | None = None,
        cap_words: int | None = None,
    ) -> None:
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.num_shards = num_shards
        self.budget_words = budget_words
        self.cap_words = int(cap_words) if cap_words else MESSAGE_CAP_WORDS
        if self.cap_words < 4:
            raise ValueError("cap_words must be >= 4 (one row header)")
        self.shards = [
            _Shard(sid, num_shards, budget_words) for sid in range(num_shards)
        ]
        self.placed = False
        self.peak_held_words = 0
        self.total_messages = 0
        self.total_words = 0

    # -- counters ----------------------------------------------------------

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
        self.total_messages += messages
        self.total_words += words
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

    def _distribute(
        self, offsets: np.ndarray, targets: np.ndarray, comm: dict,
        shard_words: list[int],
    ) -> None:
        """Initial placement: slice the residual CSR by owner hash."""
        deg = np.diff(offsets)
        sources = np.flatnonzero(deg > 0)
        owners = owner_of(sources, self.num_shards)
        for sid, shard in enumerate(self.shards):
            ids = sources[owners == sid]
            counts = deg[ids]
            row_offsets = np.zeros(len(ids) + 1, dtype=np.int64)
            np.cumsum(counts, out=row_offsets[1:])
            row_targets = targets[_segment_indices(offsets[ids], counts)]
            words = shard.install_owned(ids, row_offsets, row_targets)
            comm["placement_words"] += words
            self._send(comm, shard_words, words, dst=sid)
        self.placed = True

    def retire(self, assigned: np.ndarray, comm: dict | None = None) -> None:
        """Broadcast retirement notices for this round's assignments."""
        if not self.placed:
            return
        retired = np.sort(np.asarray(assigned, dtype=np.int64))
        if not retired.size:
            return
        if comm is not None:
            self._init_comm(comm)
        for shard in self.shards:
            shard.retire(retired)
            if comm is not None:
                comm["retirement_words"] += len(retired)
                self._send(
                    comm, [0] * self.num_shards, len(retired),
                    dst=shard.sid,
                )

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
        config=None,
        comm: dict | None = None,
        pool=None,
    ) -> list[tuple[np.ndarray, "object"]]:
        """Play one round's pending games through the shard fabric.

        Returns ``(positions, ShardResult)`` pairs exactly like
        :meth:`repro.ampc.pool.CoinGamePool.run_games` — reads/writes
        ride with the shard owning the *game*, layer folds with
        the shard owning the *vertex* (both scatter through commutative
        accumulators, so the split is invisible).

        ``pool`` (a :class:`repro.ampc.pool.CoinGamePool`) runs each
        shard's BSP chain in a worker process instead of in-process (see
        :func:`run_shard_chain`) — a pure throughput knob: the driver
        replays every shard's communication for the counters and adopts
        its guard peaks, so all observables and all comm/memory numbers
        are bit-identical to the serial fabric.
        """
        if config is None:
            from repro.ampc.engine_config import EngineConfig

            config = EngineConfig.from_env()
        comm = self._init_comm({} if comm is None else comm)
        shard_words = [0] * self.num_shards
        # Ghosts are dropped at the *end* of a round (finish_round), so
        # a round starts with each shard holding exactly its owned rows.
        for shard in self.shards:
            shard.guard.begin_round()
        if not self.placed:
            self._distribute(offsets, targets, comm, shard_words)

        owners = owner_of(roots, self.num_shards)
        params = {
            "x": x, "beta": beta, "clip": clip, "horizon": horizon,
            "scale": scale,
        }
        if pool is not None and len(roots):
            return self._run_round_pooled(
                pool, offsets, targets, roots, positions, owners, params,
                engine, config, comm, shard_words,
            )
        runs: list[_ShardRound] = []
        for sid, shard in enumerate(self.shards):
            sel = np.flatnonzero(owners == sid)
            if sel.size:
                self._send(comm, shard_words, 2 * sel.size, dst=sid)
            runs.append(
                _ShardRound(shard, roots[sel], positions[sel], engine)
            )

        # BSP sub-rounds: exchange missing rows, play, validate, repeat.
        # Exchange runs *before* play: the first missing sets are seeded
        # from the owned root rows, so the opening fleet-wide all-miss
        # discovery wave never happens.
        deg_global = np.diff(offsets)
        for run in runs:
            run.seed_missing(self.num_shards)
        sub_round = 0
        played = False
        while True:
            src_missing: list[np.ndarray] = []
            total_missing = 0
            for run in runs:
                miss = run.missing_union()
                src_missing.append(miss)
                total_missing += int(miss.size)
            if not total_missing and played:
                break
            if total_missing:
                comm["subrounds"] += 1
            sub_round += 1
            # Speculative service radius.  The seed exchange ships each
            # game's layer-two ball alongside its layer-one fringe —
            # most balls stop there, so most games commit on their first
            # play.  Later exchanges double the radius per sub-round:
            # the games still pending are the deep tail, and chasing
            # their balls one fetched layer at a time costs one
            # sub-round per layer, while doubling makes the remaining
            # chain O(log r).
            radius = min(1 << (sub_round - 1), PREFETCH_RADIUS_CAP)
            for sid, miss in enumerate(src_missing):
                if not miss.size:
                    continue
                shard = self.shards[sid]
                # Speculation is a pure wall-clock optimization: a
                # budgeted shard never speculates.  The S budget bounds
                # the shard's *peak* held words — ghost payloads plus
                # the play scratch their compacted universe induces —
                # and that peak depends on rows the shard has not seen
                # yet, so no request-time headroom check can keep an
                # optimistic ball safely under it.  Direct fetches
                # alone already color every graph the budget admits.
                spec_cap = None if shard.guard.budget_words is None else 0
                extra = _expand_ball(
                    offsets, targets, deg_global, miss, radius, shard,
                    spec_cap,
                )
                wanted = (
                    np.concatenate([miss, extra]) if extra.size else miss
                )
                owners_w = owner_of(wanted, self.num_shards)
                for dst in _sorted_unique(owners_w).tolist():
                    ids = np.sort(wanted[owners_w == dst])
                    owner = self.shards[dst]
                    self._send(comm, shard_words, len(ids), src=sid, dst=dst)
                    comm["row_requests"] += len(ids)
                    ts = time.perf_counter()
                    s_ids, s_lens, s_tgts = owner.serve_rows(ids)
                    stamp = _rows_stamp(s_ids, s_lens, s_tgts)
                    comm["serve_s"] += time.perf_counter() - ts
                    self._send(
                        comm, shard_words, 2 * len(s_ids) + len(s_tgts),
                        src=dst, dst=sid,
                        messages=self._row_segments(2 + s_lens),
                    )
                    comm["rows_served"] += len(s_ids)
                    ts = time.perf_counter()
                    shard.install_ghosts(
                        s_ids, s_lens, s_tgts, checksum=stamp
                    )
                    comm["install_s"] += time.perf_counter() - ts
                runs[sid].attribute_expansions(extra)
            for run in runs:
                # Mid-round eviction is S-budget discipline, and only
                # budgeted shards need it: an unbudgeted shard keeps its
                # whole fringe until finish_round, because evicting rows
                # whose fetching games committed just makes the pending
                # tail re-request them a wave later (evict/refetch
                # thrash), and finish_round drops the fringe at the
                # round boundary anyway.  Per-shard pure,
                # like the worker chain: a shard whose games all
                # committed has left its BSP loop and evicts no further
                # — its last exchange rides to finish_round.
                if (run.shard.guard.budget_words is not None
                        and run.pending().size):
                    run.shard.evict_ghosts(run.pinned_ghosts())
            for run in runs:
                if run.pending().size:
                    run.play(params, config)
            played = True

        for run in runs:
            run.shard.finish_round()
            comm["compact_s"] += run.compact_s
            comm["play_s"] += run.play_s

        per_shard = []
        for run in runs:
            proof_u, proof_l, proof_c = run.proof_columns()
            per_shard.append({
                "positions": run.positions,
                "roots": run.roots,
                "reads": run.reads,
                "writes": run.writes,
                "ejected_games": run.ejected_games,
                "ball_max": (
                    int(run.ball_words.max()) if run.ball_words.size else 0
                ),
                "proof_u": proof_u,
                "proof_l": proof_l,
                "proof_c": proof_c,
            })
        return self._fold_and_results(comm, shard_words, per_shard)

    def _run_round_pooled(
        self, pool, offsets, targets, roots, positions, owners, params,
        engine, config, comm, shard_words,
    ) -> list[tuple[np.ndarray, "object"]]:
        """Dispatch each shard's BSP chain to a pool worker, replaying
        its communication for the counters as results stream back.

        Each worker runs :func:`run_shard_chain` — the full serial
        per-shard protocol, self-served from the shared CSR — so the
        games, the guard op sequence, and the request ids are exactly
        the serial fabric's.  The driver's only per-shard work is
        bookkeeping: replaying the returned request trace through
        ``_send``/:meth:`_Shard.served_words` (row payload words come
        from the driver's own identical slices) and adopting the
        worker's guard peak.  Replay happens in completion order while
        the remaining shards are still playing; ``comm_overlap_s``
        records how much accounting was hidden behind play, and
        ``shard_wall_s`` the slowest shard's in-worker wall time.
        """
        num = self.num_shards
        jobs = []
        roots_by: list[np.ndarray] = []
        pos_by: list[np.ndarray] = []
        for sid in range(num):
            sel = np.flatnonzero(owners == sid)
            roots_by.append(roots[sel])
            pos_by.append(positions[sel])
            if sel.size:
                self._send(comm, shard_words, 2 * sel.size, dst=sid)
                jobs.append((sid, roots[sel], positions[sel]))
        payload = dict(params)
        payload.update(
            num_shards=num, engine=engine, config=config,
            budget_words=self.budget_words,
        )
        shard_res: list[dict | None] = [None] * num
        miss_sizes: list[list[int]] = [[] for __ in range(num)]
        state = {"overlap": 0.0, "wall": 0.0}

        def on_result(sid: int, res: dict, others_running: bool) -> None:
            t0 = time.perf_counter()
            shard_res[sid] = res
            state["wall"] = max(state["wall"], res["wall_s"])
            self.shards[sid].guard.adopt(
                res["guard_peak"], res["guard_held"]
            )
            # Replay the worker's request trace slab-at-a-time for the
            # counters; row payload words come from the driver's own
            # identical CSR slices via served_words, never re-gathered.
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
                    row_words = self.shards[dst].served_words(ids)
                    self._send(
                        comm, shard_words, int(row_words.sum()),
                        src=dst, dst=sid,
                        messages=self._row_segments(row_words),
                    )
                    comm["rows_served"] += len(row_words)
            comm["serve_s"] += res["serve_s"]
            comm["install_s"] += res["install_s"]
            comm["compact_s"] += res["compact_s"]
            comm["play_s"] += res["play_s"]
            if others_running:
                state["overlap"] += time.perf_counter() - t0

        pool.run_fabric_round(offsets, targets, jobs, payload, on_result)

        # Lockstep sub-round k spans every shard's k-th exchange; the
        # global counter ticks whenever any shard requested rows then —
        # identically the serial loop's any-missing test.
        depth = max((len(sizes) for sizes in miss_sizes), default=0)
        for k in range(depth):
            if any(len(sizes) > k and sizes[k] for sizes in miss_sizes):
                comm["subrounds"] += 1
        comm["shard_wall_s"] = max(comm["shard_wall_s"], state["wall"])
        comm["comm_overlap_s"] += state["overlap"]

        per_shard = []
        dispatched = {job[0] for job in jobs}
        for sid in range(num):
            res = shard_res[sid]
            if res is None:
                if sid in dispatched:
                    # The supervisor contract is exactly-once delivery
                    # per dispatched shard; an empty fill here would
                    # complete the round with a wrong partition, so a
                    # missing result is a loud driver bug, never a
                    # default.
                    raise RuntimeError(
                        f"fabric shard {sid} was dispatched but never "
                        "delivered a result"
                    )
                per_shard.append({
                    "positions": pos_by[sid], "roots": roots_by[sid],
                    "reads": np.zeros(0, dtype=np.int64),
                    "writes": np.zeros(0, dtype=np.int64),
                    "ejected_games": 0, "ball_max": 0,
                    "proof_u": _EMPTY, "proof_l": _EMPTY,
                    "proof_c": _EMPTY,
                })
                continue
            per_shard.append({
                "positions": pos_by[sid], "roots": roots_by[sid],
                "reads": res["reads"], "writes": res["writes"],
                "ejected_games": res["ejected_games"],
                "ball_max": res["ball_max"],
                "proof_u": res["proof_u"], "proof_l": res["proof_l"],
                "proof_c": res["proof_c"],
            })
        return self._fold_and_results(comm, shard_words, per_shard)

    def _fold_and_results(
        self, comm, shard_words, per_shard,
    ) -> list[tuple[np.ndarray, "object"]]:
        """Layer-proposal folds (routed by vertex owner — owners
        min/+-fold and forward one (u, min, count) triple per vertex to
        the driver) and the per-shard result payloads.  Shared verbatim
        by the serial and pooled paths, so their counters cannot drift.
        """
        from repro.ampc.pool import ShardResult

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
                self.shards[sid].guard.account(
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
            guard = self.shards[sid].guard
            guard.release("game_assignments")
            guard.release("game_scratch")
            guard.release("fold_accumulators")

        comm["max_shard_words"] = max(
            comm["max_shard_words"], max(shard_words)
        )
        comm["max_game_ball_words"] = max(
            comm["max_game_ball_words"], max_ball
        )
        round_peak = max(shard.guard.round_peak for shard in self.shards)
        comm["max_held_words"] = max(comm["max_held_words"], round_peak)
        self.peak_held_words = max(self.peak_held_words, round_peak)
        return results

    def max_held_words(self) -> int:
        """Current held words, maximized over shards."""
        return max(shard.guard.current for shard in self.shards)
