"""Process-pool execution of the message fabric's shard chains.

Parallel execution model
------------------------

The AMPC model is round-synchronous: within round i every machine reads
only D_{i-1} and writes only D_i (Section 3.1), so machines of one round
share *no* state and can run in any order — or simultaneously.  The
simulator exploits exactly that freedom, nothing more:

- **Threads for the array engines.**  ``"compiled"`` and ``"batched"``
  shm rounds never reach the process pool: the fleet player
  (:func:`repro.core.columnar_rounds.play_fleet`) fans their game
  slices out over one persistent thread pool of :func:`usable_cpus`
  threads, created once and never replaced.  cffi drops the GIL for
  every fused-C cohort call and numpy drops it inside its array
  kernels, so threads share the round's CSR in place with no publish,
  pickle, or attach cost.  The fleet player finishes the games the
  int64 pass ejects on the calling thread, after the join.  The
  ``"scalar"`` oracle always plays in-process, serially.
- **Processes for the message fabric.**  A shard chain
  (:func:`repro.ampc.messaging.run_shard_chain`) is pure Python and
  holds the GIL, so :meth:`CoinGamePool.run_games` runs one chain per
  job on a persistent :class:`~concurrent.futures.ProcessPoolExecutor`.
  Rounds that play fewer than :data:`MIN_POOL_GAMES` games skip
  dispatch entirely — at that size the pool's fixed cost exceeds the
  games.  Only hubs (roots of residual degree > β) play games; the
  other machines of an lca round write layer 0 without one.  The executor
  never runs more processes than the CPUs this process may use
  (:func:`usable_cpus`): results are bit-identical at any process
  count, and oversubscribed CPU-bound workers only time-slice the same
  cores while multiplying kernel page-fault overhead.
- **Shared read-only round state.**  The round's residual CSR (offsets,
  targets) is published once per dispatch through
  :mod:`multiprocessing.shared_memory`; job payloads carry only the
  segment names, and workers attach, copy (cached until the next
  round's segments arrive), and close, so no worker re-derives the
  adjacency per shard.  Nothing is ever written to the shared segments,
  mirroring the model's read-only D_{i-1}.
- **Accounting fold.**  Each finished chain is handed to the caller's
  ``on_result`` in completion order; the fabric replays its
  communication and folds its games through commutative min/+
  accumulators, so every observable is bit-identical to the serial
  schedule no matter how the OS interleaves completions.

Because every observable — partitions, layer values, round counts, probe
counts, per-store word accounting — is reproduced exactly, ``workers``
is a pure throughput knob: the differential harness
(``tests/test_parallel_equivalence.py``) asserts equality against the
serial dict-backed oracle for every (store, workers) combination.

Fault tolerance: the round supervisor
--------------------------------------

Dispatch is supervised (:meth:`CoinGamePool._run_supervised`): every
shard future carries a ``(dispatch round, shard, attempt)`` identity,
and a shard that is *lost* — a worker exception, a dead process
(``BrokenProcessPool``), an unpicklable result, a checksum mismatch, or
a future that outlives its deadline — is re-dispatched up to
:data:`MAX_SHARD_RETRIES` times with seed-jittered exponential backoff
before the driver runs it inline as the last resort.  The whole scheme
rests on one invariant, proved by the pooled-fabric work: **a shard is
a pure function of its inputs** (the published round CSR, its roots
and the round's parameters), so re-executing lost work — in a fresh worker,
a respawned pool, or inline on the driver — produces bit-identical
results, and the commutative min/+ result folds make the retry
*schedule* (which attempt finally landed, in what order) invisible to
every observable.  Concretely:

- **Deadlines / hang detection.**  Each running future is held to
  :data:`POOL_DEADLINE_S`, tightened to :data:`POOL_DEADLINE_SCALE` × the
  slowest completed sibling once one lands.  Expiry kills the worker
  processes (a running future cannot be cancelled), counts a
  ``deadline_kill``, and re-queues every in-flight shard.
- **Self-healing.**  A broken or killed executor is torn down — workers
  terminated and reaped, so nothing is orphaned — and respawned with
  backoff on the next submission instead of poisoning subsequent
  rounds; the round's shared-memory segments stay owned by the driver
  (published before dispatch, unlinked in one ``finally``), so
  respawns and retries re-attach to the same segments and no fault
  schedule can leak a ``/dev/shm`` entry.
- **Integrity.**  Workers stamp an xxhash-style checksum
  (:func:`repro.ampc.faults.payload_checksum`) over every result array;
  the driver re-verifies before folding, so a corrupted result becomes
  a ``checksum_reject`` retry, never a wrong partition.
- **Graceful degradation.**  A shard still failing after
  :data:`MAX_SHARD_RETRIES` runs inline on the driver (serial execution of
  the same pure function — bit-identical, just not parallel);
  :class:`WorkerPoolError` is reserved for inline execution itself
  failing, or to fail-fast runs (:data:`POOL_DEGRADE` set to False).
  It then carries structured context (round, shard, attempts,
  per-attempt outcomes) with ``__cause__`` chained.
- **Protocol outcomes pass through.**  A deterministic outcome the
  serial path would raise identically —
  :class:`~repro.ampc.messaging.MemoryGuardError` — is never retried:
  replaying a pure function cannot change it.

Recovery is observable-invisible but not silent: the pool counts
retries, respawns, deadline kills, checksum rejects, worker faults,
degraded shards, and recovery wall time (:attr:`CoinGamePool.recovery`,
surfaced per run as ``BetaPartitionOutcome.round_recovery`` and in the
bench's ``recovery`` block).  Chaos schedules are injected
deterministically via :mod:`repro.ampc.faults` (``FaultPlan``; CI runs
the suite under ``REPRO_FAULT_PLAN``).  ``workers=1`` never creates
processes at all; it is the serial in-process path.
"""

from __future__ import annotations

import atexit
import contextlib
import gc
import multiprocessing
import operator
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.ampc import faults
from repro.ampc.faults import ChecksumError, payload_checksum
from repro.ampc.messaging import MemoryGuardError
from repro.util.rng import GAMMA, mix64

__all__ = [
    "CoinGamePool",
    "MIN_POOL_GAMES",
    "WorkerPoolError",
    "close_shared_pools",
    "defer_full_gc",
    "new_recovery_counters",
    "resolve_workers",
    "shared_pool",
    "usable_cpus",
]

# Rounds that play fewer games than this run in-process even when
# workers > 1.  It counts games, that is hub roots (residual degree
# > β), not machines: a low-degree root writes layer 0 and plays none.
# One cutoff gates both parallel paths: the array engines' thread
# fan-out (below ~256 games a compiled round costs about
# what waking the threads and folding their accumulators does) and the
# message fabric's shard chains on the process pool (publishing the
# CSR, pickling shards and collecting futures costs on the order of a
# millisecond).  Small rounds — the long tail of a multi-round
# partition — stay serial.  Read at call time by
# :func:`repro.core.columnar_rounds.lca_round_kernel`; tests monkeypatch
# it to 1 to force the parallel paths on tiny differential shapes.
MIN_POOL_GAMES = 256

# Round-supervisor constants, read at call time by
# :meth:`CoinGamePool._run_supervised` on the driver (see the module
# docstring's fault-tolerance section).  How many re-dispatches a lost
# shard gets before the driver degrades it to inline execution:
MAX_SHARD_RETRIES = 2
# Base of the seed-jittered exponential backoff between re-dispatches
# (and before an executor respawn):
RETRY_BACKOFF_S = 0.05
# Hard wall-clock deadline for one running shard future.  Generous by
# design — production rounds are seconds, so the hard cap only catches
# true hangs; the adaptive bound below does the fine-grained work:
POOL_DEADLINE_S = 300.0
# Once any sibling shard of the same dispatch has completed, a
# still-running shard is presumed hung after this multiple of the
# slowest completed sibling (floored at 1s so millisecond shards cannot
# trip it on scheduler noise):
POOL_DEADLINE_SCALE = 25.0
# Whether a shard that exhausts its retries degrades to inline driver
# execution (True: the round still completes bit-identically) or raises
# a structured WorkerPoolError (False: fail-fast semantics):
POOL_DEGRADE = True


def new_recovery_counters() -> dict:
    """A zeroed copy of the supervisor's recovery-counter schema."""
    return {
        "retries": 0,           # shard re-dispatches (any loss reason)
        "respawns": 0,          # executor teardown + recreate cycles
        "deadline_kills": 0,    # futures killed past their deadline
        "checksum_rejects": 0,  # results rejected by integrity check
        "worker_faults": 0,     # worker exceptions / broken-pool events
        "degraded_shards": 0,   # shards run inline after max retries
        "recovery_wall_s": 0.0,  # driver time spent recovering (+ checks)
    }


def usable_cpus() -> int:
    """CPUs this process may run on, not the CPUs installed.

    ``os.cpu_count()`` counts every CPU of the machine, so under an
    affinity mask or a cgroup cpuset (containers, ``taskset``) it
    over-counts and oversubscribes workers; the affinity set is what
    the scheduler will actually grant.  Falls back to ``cpu_count`` on
    platforms without ``sched_getaffinity``.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


class WorkerPoolError(RuntimeError):
    """A coin-game worker pool failed; the round could not complete.

    Carries the supervisor's structured context when one shard chain
    exhausted recovery: the pool dispatch sequence number (``round``),
    the failing ``shard`` index, how many ``attempts`` it got, the
    per-attempt loss ``outcomes`` (strings, oldest first), and the last
    underlying ``cause`` (also chained as ``__cause__``).  Errors from
    outside the per-shard loop (a closed pool, a failed CSR publish)
    leave the shard fields None.
    """

    def __init__(
        self,
        message: str,
        *,
        round: int | None = None,
        shard: int | None = None,
        attempts: int | None = None,
        outcomes: list[str] | None = None,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.round = round
        self.shard = shard
        self.attempts = attempts
        self.outcomes = list(outcomes or [])
        self.cause = cause


@contextlib.contextmanager
def defer_full_gc():
    """Suspend *full* (gen-2) garbage collections for a game loop.

    The coin games churn millions of short-lived dicts, lists, and
    tuples next to a large static object graph (the residual adjacency
    lists are n+1 containers).  Young-generation collection handles the
    churn — game garbage is unreachable within a few hops, so memory
    stays bounded — but every full collection also rescans the static
    heap, which measurably dominates GC time at bench scale (~6% of
    lca-round wall clock at n = 10⁵).  Thresholds are restored on exit,
    so callers resume normal full collections.
    """
    gen0, gen1, gen2 = gc.get_threshold()
    gc.set_threshold(gen0, gen1, 1_000_000_000)
    try:
        yield
    finally:
        gc.set_threshold(gen0, gen1, gen2)


def resolve_workers(workers: int | str | None) -> int:
    """Normalize a ``workers`` knob: None -> $REPRO_WORKERS -> "auto".

    ``"auto"`` (the default when neither the caller nor the environment
    says otherwise) resolves to :func:`usable_cpus`, so a host (or a
    container pinned) to one CPU never pays dispatch overhead while
    multi-core hosts fan out by default; combined with
    :data:`MIN_POOL_GAMES` this is what the pipelines run with.
    Integers and integer strings are taken as-is; anything else
    (``2.7``, ``"2.5"``, ``"two"``) raises ValueError naming
    ``$REPRO_WORKERS`` when the value came from the environment.
    """
    name = "workers"
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "").strip()
        workers, name = (env, "$REPRO_WORKERS") if env else ("auto", name)
    if workers == "auto":
        return usable_cpus()
    try:
        value = (
            int(workers) if isinstance(workers, str)
            else operator.index(workers)
        )
    except (TypeError, ValueError):
        raise ValueError(
            f'{name}={workers!r} is not an integer or "auto"'
        ) from None
    if value < 1:
        raise ValueError(f"{name}={workers!r} must be >= 1")
    return value


# -- worker side -----------------------------------------------------------

# One-slot cache of the current round's residual CSR, keyed by the
# shared-memory segment names (unique per round): the first shard a
# worker receives pays the copy, later shards of the same round reuse
# it.
_CSR_CACHE: dict[str, object] = {"key": None, "csr": None}


def _attached_array(name: str, count: int) -> tuple[SharedMemory, np.ndarray]:
    # Attaching registers the segment with the resource tracker a second
    # time, but pool workers share the driver's tracker process (its fd
    # is inherited through multiprocessing), whose cache is a set — the
    # re-register is idempotent and the driver's unlink clears it.
    shm = SharedMemory(name=name)
    return shm, np.frombuffer(shm.buf, dtype=np.int64, count=count)


def _load_csr(
    offsets_name: str, targets_name: str, num_offsets: int, num_targets: int
) -> tuple[np.ndarray, np.ndarray]:
    """This round's residual CSR as worker-private arrays (cached)."""
    key = (offsets_name, targets_name)
    if _CSR_CACHE["key"] == key:
        return _CSR_CACHE["csr"]
    off_shm, offsets = _attached_array(offsets_name, num_offsets)
    tgt_shm, targets = _attached_array(targets_name, num_targets)
    try:
        csr = (offsets.copy(), targets.copy())
    finally:
        del offsets, targets  # release the buffer views before closing
        off_shm.close()
        tgt_shm.close()
    _CSR_CACHE["key"] = key
    _CSR_CACHE["csr"] = csr
    return csr


def _fabric_checksum(res: dict) -> int:
    """Integrity digest of one fabric shard-chain result dict.

    Covers everything the driver adopts or replays: per-game charges,
    proof entries, the full request trace (whose ids drive comm-counter
    replay), the scalar counters, and the guard state merged into
    :meth:`~repro.ampc.messaging.MemoryGuard.adopt` — so a corrupted
    payload is rejected *before* any driver state mutates.
    """
    items = [res["reads"], res["writes"], res["proof_u"], res["proof_l"],
             res["proof_c"]]
    for miss, extra in res["trace"]:
        items.append(miss)
        items.append(extra)
    items.append(np.asarray(
        [res["ejected_games"], res["ball_max"], res["guard_peak"]],
        dtype=np.int64,
    ))
    items.append(repr(sorted(res["guard_held"].items())).encode())
    return payload_checksum(*items)


def _corrupted(spec, result):
    """Apply a fault's *post-play* effect to a worker's finished result.

    ``garbage`` flips one element of a checksummed array (after the
    checksum was stamped, so the driver's re-check must catch it);
    ``unpicklable`` poisons the pipe crossing.  Everything else already
    fired in :func:`repro.ampc.faults.apply_pre`.
    """
    if spec is None:
        return result
    if spec.kind == "unpicklable":
        return lambda: None  # poisoned result: cannot cross the pipe
    if spec.kind != "garbage":
        return result
    for name in ("reads", "writes", "proof_u", "proof_l"):
        if len(result[name]):
            bad = result[name].copy()
            bad[0] += 1
            result[name] = bad
            return result
    result["ball_max"] += 1
    return result


def _play_fabric_shard(
    csr_meta: tuple,
    sid: int,
    roots: np.ndarray,
    payload: dict,
    fault_key: tuple[int, int, int] | None = None,
    plan=None,
):
    """Run one message-fabric shard's BSP chain inside a worker process.

    The chain itself lives in :func:`repro.ampc.messaging.run_shard_chain`
    — the worker only attaches the round's shared CSR (cached across the
    round's shards), stamps the result's integrity checksum, and applies
    the chaos harness's fault hooks (:mod:`repro.ampc.faults`): inline
    degraded execution passes no ``fault_key``/``plan``, so the last
    resort never faults.  A ``"slab"`` fault is threaded into the chain
    itself: it corrupts the first served row slab post-stamp, so the
    in-chain checksum verify rejects it.
    """
    spec = (
        plan.lookup(*fault_key)
        if plan is not None and fault_key is not None else None
    )
    faults.apply_pre(spec)
    from repro.ampc.messaging import run_shard_chain

    offsets, targets = _load_csr(*csr_meta)
    with defer_full_gc():
        result = run_shard_chain(
            offsets, targets, sid, roots=roots,
            fault=spec if spec is not None and spec.kind == "slab" else None,
            **payload,
        )
    result["checksum"] = _fabric_checksum(result)
    return _corrupted(spec, result)


# -- driver side -----------------------------------------------------------

# Supervisor wait-loop granularity: how often deadline expiry and
# newly-running futures are checked while shards are in flight.  wait()
# returns immediately on any completion, so the zero-fault fast path
# only ever pays this while a shard is genuinely still computing.
_SUPERVISOR_POLL_S = 0.1


def _verify_fabric_result(result) -> None:
    """Driver-side integrity check of one fabric shard-chain result."""
    if not isinstance(result, dict) or result.get("checksum") is None:
        raise ChecksumError(
            f"worker returned {type(result).__name__} without a payload "
            "checksum"
        )
    if _fabric_checksum(result) != result["checksum"]:
        raise ChecksumError(
            "fabric shard result failed its integrity check"
        )


class CoinGamePool:
    """A persistent worker pool executing message-fabric shard chains.

    The executor is created lazily on first use and reused across rounds
    (and, via :func:`shared_pool`, across partition calls).  Any shard
    failure closes the pool — joining all workers — and raises
    :class:`WorkerPoolError`.
    """

    def __init__(self, workers: int) -> None:
        workers = int(workers)
        if workers < 2:
            raise ValueError(
                "CoinGamePool needs workers >= 2; workers=1 is the serial "
                "in-process path and never constructs a pool"
            )
        self.workers = workers
        # Requested parallelism and executor size are separate: the
        # executor never forks more processes than the CPUs this
        # process may use (an affinity mask or cgroup cpuset can grant
        # fewer than the host has; see usable_cpus).  Every observable
        # is bit-identical at any process count, so processes beyond the
        # cores can only add cost: each extra runnable CPU-bound worker
        # time-slices the same cores and roughly doubles its kernel
        # time in page-fault handling of freshly mapped kernel arenas
        # (the tracked 1-core sweep recorded 11.3/31.4/102.6 s at
        # workers 1/2/4 before this cap — a 9x blow-up where dispatch
        # cost predicts ~1x).
        self.procs = min(workers, usable_cpus())
        self.closed = False
        # Monotonic dispatch sequence number — the "round" coordinate of
        # the supervisor's (round, shard, attempt) fault/retry keys.
        self.dispatch_seq = 0
        # Lifetime recovery counters (see new_recovery_counters); callers
        # snapshot/delta them per run (BetaPartitionOutcome.round_recovery).
        self.recovery = new_recovery_counters()
        self._executor: ProcessPoolExecutor | None = None
        # Snapshot of the GC thresholds workers should run with.  The
        # executor forks lazily — possibly inside a driver's
        # defer_full_gc() window — so each worker explicitly restores
        # the construction-time thresholds instead of inheriting a
        # temporarily gen-2-disabled configuration for its lifetime.
        self._worker_gc_threshold = gc.get_threshold()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Pin the fork start method where the platform offers it: the
            # shared-memory cleanup story relies on workers inheriting the
            # driver's resource-tracker fd (see _attached_array), which
            # spawn/forkserver children do not.  Elsewhere fall back to
            # the default context — functional, at the cost of tracker
            # noise at worker exit.  The array engines' thread pool may
            # exist when this forks; its threads are idle then (every
            # fan-out joins before the round kernel returns), so no
            # child inherits a lock held mid-operation.
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                mp_context = None
            self._executor = ProcessPoolExecutor(
                max_workers=self.procs,
                mp_context=mp_context,
                initializer=gc.set_threshold,
                initargs=self._worker_gc_threshold,
            )
        return self._executor

    def _teardown_executor(self) -> None:
        """Kill and reap the executor's workers (the self-healing path).

        Used when workers must die *now* — a future past its deadline,
        a broken pool — rather than drain: terminate every worker
        process first (a running future cannot be cancelled), then let
        ``shutdown`` observe the broken pool and join its management
        thread, then reap the processes.  The pool stays open: the next
        submission lazily respawns a fresh executor.  Shared-memory
        segments are untouched — the driver owns them and unlinks in
        the dispatch's ``finally`` — so no fault schedule can orphan a
        ``/dev/shm`` entry or a worker process.
        """
        executor, self._executor = self._executor, None
        if executor is None:
            return
        procs = list(getattr(executor, "_processes", {}).values())
        for proc in procs:
            with contextlib.suppress(Exception):
                proc.terminate()
        with contextlib.suppress(Exception):
            executor.shutdown(wait=True, cancel_futures=True)
        for proc in procs:
            with contextlib.suppress(Exception):
                proc.join(5.0)

    # -- recovery accounting ---------------------------------------------

    def recovery_snapshot(self) -> dict:
        """A copy of the lifetime recovery counters (for later delta)."""
        return dict(self.recovery)

    def recovery_delta(self, snapshot: dict) -> dict:
        """Recovery counters accumulated since ``snapshot``."""
        return {
            key: self.recovery[key] - snapshot.get(key, 0)
            for key in self.recovery
        }

    @staticmethod
    def _backoff_delay(
        base: float, rnd: int, shard: int, attempt: int
    ) -> float:
        """Seed-jittered exponential backoff window before a re-dispatch.

        Deterministic in the (round, shard, attempt) key — same
        splitmix64 mix as the fault plans — so a replayed chaos
        schedule backs off identically; the jitter (±50% around the
        exponential base) keeps retried shards of one round from
        hammering the respawned executor in lockstep.
        """
        if base <= 0.0:
            return 0.0
        h = mix64(mix64(rnd + GAMMA) ^ (shard * 0x100000001B3 + attempt))
        frac = (h >> 11) / float(1 << 53)
        return base * (2.0 ** min(attempt - 1, 6)) * (0.5 + frac)

    def _run_supervised(
        self,
        num_jobs: int,
        submit,
        inline,
        deliver,
        verify,
        passthrough: tuple = (),
    ) -> None:
        """The fault-tolerant dispatch loop behind :meth:`run_games`.

        ``submit(executor, key, fault_key, plan)`` dispatches shard
        ``key``; ``verify(result)`` raises
        :class:`~repro.ampc.faults.ChecksumError` on a corrupted
        payload; ``deliver(key, result, others_running)`` hands one
        verified result to the caller (exactly once per shard);
        ``inline(key)`` is the degraded last resort, executed on the
        driver with no fault plan.  Exceptions whose type is in
        ``passthrough`` are deterministic protocol outcomes (the serial
        path would raise them identically), re-raised immediately
        without retry and without closing the pool.

        See the module docstring for the recovery semantics; the
        summary is that every loss — worker exception, broken pool,
        unpicklable result, checksum mismatch, deadline expiry — turns
        into a bounded, backoff-spaced, bit-identical re-execution, and
        the counters in :attr:`recovery` account each one.
        """
        plan = faults.active_plan()
        rnd = self.dispatch_seq
        self.dispatch_seq += 1
        rec = self.recovery
        attempts = [0] * num_jobs
        outcomes: list[list[str]] = [[] for _ in range(num_jobs)]
        last_cause: list[BaseException | None] = [None] * num_jobs
        pending = list(range(num_jobs))
        degraded: list[int] = []
        inflight: dict = {}  # future -> shard key
        started: dict = {}  # future -> perf_counter when seen running
        defer: dict[int, float] = {}  # key -> earliest re-submit time
        resume_at = 0.0  # pool-wide respawn backoff gate
        slowest_done: float | None = None
        respawns_here = 0

        def lose(key, label, cause, counter=None):
            outcomes[key].append(label)
            last_cause[key] = cause
            attempts[key] += 1
            pending.append(key)
            if counter is not None:
                rec[counter] += 1

        while pending or inflight:
            now = time.perf_counter()
            requeue, pending = pending, []
            for key in requeue:
                if attempts[key] > MAX_SHARD_RETRIES:
                    if not POOL_DEGRADE:
                        self.close(cancel=True)
                        raise WorkerPoolError(
                            f"shard {key} of pool dispatch {rnd} lost "
                            f"after {attempts[key]} attempts "
                            f"({'; '.join(outcomes[key])})",
                            round=rnd, shard=key, attempts=attempts[key],
                            outcomes=outcomes[key], cause=last_cause[key],
                        ) from last_cause[key]
                    degraded.append(key)
                    defer.pop(key, None)
                    continue
                if attempts[key] > 0 and key not in defer:
                    # Backoff is *scheduled*, never slept inline: the
                    # key waits out its window in ``pending`` while the
                    # loop keeps collecting sibling results and running
                    # deadline/hang detection.
                    delay = self._backoff_delay(
                        RETRY_BACKOFF_S, rnd, key, attempts[key]
                    )
                    defer[key] = now + delay
                    rec["retries"] += 1
                    rec["recovery_wall_s"] += delay
                if max(defer.get(key, 0.0), resume_at) > now:
                    pending.append(key)  # backoff window still open
                    continue
                defer.pop(key, None)
                try:
                    fut = submit(
                        self._ensure_executor(), key,
                        (rnd, key, attempts[key]), plan,
                    )
                except BrokenExecutor as exc:
                    # The executor can break *between* submissions of
                    # one dispatch (a worker died while this loop was
                    # still handing out siblings), in which case submit
                    # raises synchronously instead of returning a
                    # failed future.  Same recovery as an in-flight
                    # break: count the loss, reap, gate resubmission
                    # behind the respawn backoff, re-queue.
                    lose(key, f"broken pool at submit: {exc}", exc)
                    self._teardown_executor()
                    rec["worker_faults"] += 1
                    rec["respawns"] += 1
                    respawns_here += 1
                    delay = self._backoff_delay(
                        RETRY_BACKOFF_S, rnd, num_jobs, respawns_here
                    )
                    resume_at = time.perf_counter() + delay
                    rec["recovery_wall_s"] += delay
                    continue
                inflight[fut] = key
            if not inflight:
                # Nothing in flight: either every shard is delivered or
                # degraded (the ``while`` condition ends the loop), or
                # the still-pending shards are all waiting out backoff
                # windows — sleep until the earliest one opens, then
                # resubmit.  Never ``break`` here: dropping a non-empty
                # ``pending`` would silently lose shards and complete
                # the round with a wrong partition.
                if pending:
                    now = time.perf_counter()
                    wake = min(
                        max(defer.get(key, 0.0), resume_at)
                        for key in pending
                    )
                    if wake > now:
                        time.sleep(min(wake - now, _SUPERVISOR_POLL_S))
                continue
            limit = POOL_DEADLINE_S
            if slowest_done is not None:
                # Adaptive hang detection: once a sibling shard of this
                # dispatch has landed, the rest are bounded by a multiple
                # of the slowest observed success (floored so millisecond
                # shards cannot trip the bound on scheduler noise).
                limit = min(
                    limit, max(1.0, POOL_DEADLINE_SCALE * slowest_done)
                )
            done, not_done = wait(
                set(inflight), timeout=_SUPERVISOR_POLL_S,
                return_when=FIRST_COMPLETED,
            )
            now = time.perf_counter()
            for fut in not_done:
                # Deadlines run from when a future is first *seen*
                # running — queue wait behind a busy worker is not hang
                # evidence.
                if fut not in started and fut.running():
                    started[fut] = now
            broken: BaseException | None = None
            for fut in done:
                key = inflight.pop(fut)
                tstart = started.pop(fut, None)
                exc = fut.exception()
                if exc is None:
                    result = fut.result()
                    t0 = time.perf_counter()
                    try:
                        verify(result)
                    except ChecksumError as cerr:
                        rec["recovery_wall_s"] += time.perf_counter() - t0
                        lose(key, f"checksum: {cerr}", cerr,
                             "checksum_rejects")
                        continue
                    rec["recovery_wall_s"] += time.perf_counter() - t0
                    if tstart is not None:
                        span = now - tstart
                        slowest_done = (
                            span if slowest_done is None
                            else max(slowest_done, span)
                        )
                    deliver(key, result, bool(inflight or pending))
                elif isinstance(exc, passthrough):
                    # Deterministic protocol outcome: retrying a pure
                    # function cannot change it.  Cancel what can still
                    # be cancelled and surface it; the pool stays
                    # healthy.
                    for other in inflight:
                        other.cancel()
                    raise exc
                elif isinstance(exc, BrokenExecutor):
                    broken = exc
                    lose(key, f"broken pool: {exc}", exc)
                else:
                    lose(key, f"{type(exc).__name__}: {exc}", exc,
                         "worker_faults")
            if broken is not None:
                # A dead worker breaks the whole executor: every
                # in-flight future fails, so mark them all lost, reap
                # the wreckage, and gate resubmission behind the
                # respawn backoff.
                for fut, key in list(inflight.items()):
                    lose(key, "lost to broken pool", broken)
                inflight.clear()
                started.clear()
                self._teardown_executor()
                rec["worker_faults"] += 1
                rec["respawns"] += 1
                respawns_here += 1
                delay = self._backoff_delay(
                    RETRY_BACKOFF_S, rnd, num_jobs, respawns_here
                )
                resume_at = time.perf_counter() + delay
                rec["recovery_wall_s"] += delay
                continue
            expired = {
                fut for fut in inflight
                if fut in started and not fut.done()
                and now - started[fut] > limit
            }
            if expired:
                # Hang detected.  Running futures cannot be cancelled,
                # so the only kill is tearing the executor down; other
                # in-flight shards are collateral and simply re-queued
                # (their re-execution is bit-identical).
                t0 = time.perf_counter()
                for fut, key in list(inflight.items()):
                    if fut in expired:
                        rec["deadline_kills"] += 1
                        cause: BaseException = TimeoutError(
                            f"shard {key} of pool dispatch {rnd} "
                            f"exceeded its {limit:.3f}s deadline"
                        )
                        lose(key, f"deadline: exceeded {limit:.3f}s",
                             cause)
                    else:
                        lose(key, "lost to deadline teardown",
                             TimeoutError(
                                 "shard lost when a sibling's deadline "
                                 "expired"
                             ))
                inflight.clear()
                started.clear()
                self._teardown_executor()
                rec["respawns"] += 1
                respawns_here += 1
                rec["recovery_wall_s"] += time.perf_counter() - t0

        # Graceful degradation: whatever exhausted its retries runs
        # inline on the driver — the same pure function, serially, with
        # no fault plan — so the round completes bit-identically.  Only
        # inline execution itself failing raises.
        for idx, key in enumerate(degraded):
            rec["degraded_shards"] += 1
            t0 = time.perf_counter()
            try:
                result = inline(key)
            except passthrough:
                rec["recovery_wall_s"] += time.perf_counter() - t0
                raise
            except Exception as exc:
                rec["recovery_wall_s"] += time.perf_counter() - t0
                self.close(cancel=True)
                raise WorkerPoolError(
                    f"shard {key} of pool dispatch {rnd} failed inline "
                    f"after {attempts[key]} pool attempts "
                    f"({'; '.join(outcomes[key])})",
                    round=rnd, shard=key, attempts=attempts[key],
                    outcomes=outcomes[key], cause=exc,
                ) from exc
            rec["recovery_wall_s"] += time.perf_counter() - t0
            # ``others_running`` reflects the degraded shards still to
            # run inline, keeping the fabric's comm-overlap accounting
            # on its "exactly one per shard" semantics.
            deliver(key, result, idx + 1 < len(degraded))

    def run_games(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        jobs: list[tuple[int, np.ndarray]],
        payload: dict,
        on_result,
    ) -> None:
        """Run message-fabric shard chains across the worker fleet.

        ``jobs`` is ``[(sid, roots), …]``; each dispatches
        one :func:`repro.ampc.messaging.run_shard_chain` against the
        round's shared CSR.  ``on_result(sid, result, others_running)``
        fires in completion order, so the driver replays a finished
        shard's communication accounting while the remaining shards are
        still playing.

        :class:`~repro.ampc.messaging.MemoryGuardError` passes through
        verbatim — a budget violation is a protocol outcome the inline
        chain would have raised identically, not a pool fault, so it is
        never retried and the executor stays healthy for the next run.
        Any other fault goes through the supervisor's retry /
        degradation ladder; only an unrecoverable one closes the pool
        and raises :class:`WorkerPoolError`.
        """
        if self.closed:
            raise WorkerPoolError("coin-game worker pool is closed")
        if not jobs:
            return
        segments: list[SharedMemory] = []
        try:
            csr_meta, segments = self._publish_csr(offsets, targets)

            def submit(executor, key, fault_key, plan):
                sid, roots = jobs[key]
                return executor.submit(
                    _play_fabric_shard, csr_meta, sid, roots, payload,
                    fault_key, plan,
                )

            def inline(key):
                sid, roots = jobs[key]
                return _play_fabric_shard(csr_meta, sid, roots, payload)

            def deliver(key, result, others_running):
                on_result(jobs[key][0], result, others_running)

            self._run_supervised(
                len(jobs), submit, inline, deliver,
                _verify_fabric_result, passthrough=(MemoryGuardError,),
            )
        except (MemoryGuardError, WorkerPoolError):
            raise
        except Exception as exc:
            # A fault the supervisor cannot recover from — publishing
            # the CSR failed, say — poisons the round: close the pool
            # (joining every worker, so nothing is orphaned) and surface
            # one clear error.
            self.close(cancel=True)
            raise WorkerPoolError(
                f"coin-game worker pool failed mid-round: "
                f"{type(exc).__name__}: {exc}",
                cause=exc,
            ) from exc
        finally:
            for shm in segments:
                shm.close()
                shm.unlink()

    @staticmethod
    def _publish_csr(
        offsets: np.ndarray, targets: np.ndarray
    ) -> tuple[tuple, list[SharedMemory]]:
        """Copy the residual CSR into shared read-only segments.

        Either every segment is returned (the caller owns their
        cleanup) or none survive: a failure publishing the second array
        unlinks the first before re-raising, so a /dev/shm-full round
        cannot leak a named OS segment.
        """
        segments: list[SharedMemory] = []
        names = []
        try:
            for array in (offsets, targets):
                array = np.ascontiguousarray(array, dtype=np.int64)
                shm = SharedMemory(create=True, size=max(1, array.nbytes))
                segments.append(shm)
                if len(array):
                    np.frombuffer(
                        shm.buf, dtype=np.int64, count=len(array)
                    )[:] = array
                names.append(shm.name)
        except BaseException:
            for shm in segments:
                shm.close()
                shm.unlink()
            raise
        return (names[0], names[1], len(offsets), len(targets)), segments

    def close(self, cancel: bool = False) -> None:
        """Shut the executor down and join every worker process."""
        self.closed = True
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=cancel)

    def __enter__(self) -> "CoinGamePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


_SHARED_POOLS: dict[int, CoinGamePool] = {}


def shared_pool(workers: int) -> CoinGamePool:
    """The process-wide pool for ``workers`` (recreated if it broke).

    Sharing one executor across partition calls keeps the fork cost a
    one-time charge — exactly the "persistent pool" a long-running
    service would hold — while a pool poisoned by a worker fault is
    dropped and lazily replaced on the next request.
    """
    pool = _SHARED_POOLS.get(workers)
    if pool is None or pool.closed:
        pool = CoinGamePool(workers)
        _SHARED_POOLS[workers] = pool
    return pool


def close_shared_pools() -> None:
    """Close every shared pool (idempotent; also runs at interpreter exit)."""
    for pool in list(_SHARED_POOLS.values()):
        pool.close()
    _SHARED_POOLS.clear()


atexit.register(close_shared_pools)
