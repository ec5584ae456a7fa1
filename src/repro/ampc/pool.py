"""Thread execution of the message fabric's shard chains.

Parallel execution model
------------------------

The AMPC model is round-synchronous: within round i every machine reads
only D_{i-1} and writes only D_i (Section 3.1), so machines of one round
share *no* state and can run in any order — or simultaneously.  The
simulator exploits exactly that freedom, on one persistent thread pool
(:func:`repro.core.columnar_rounds._game_threads`, :func:`usable_cpus`
threads, created once and never replaced):

- **The array engines.**  ``"compiled"`` and ``"batched"`` shm rounds
  fan their game slices out over the pool through the fleet player
  (:func:`repro.core.columnar_rounds.play_fleet`), which finishes the
  games the int64 pass ejects on the calling thread, after the join.
  The ``"scalar"`` oracle always plays in-process, serially.
- **The message fabric.**  A shard chain
  (:func:`repro.ampc.messaging.run_shard_chain`) is a pure function of
  the round's CSR and its roots, so :meth:`CoinGamePool.run_games` runs
  one chain per job on the same threads, straight on the round's
  arrays: nothing is published, pickled or attached.  A chain spends
  its time in the compiled kernel and numpy, which drop the GIL, and it
  plays its own fleet with ``workers=1``, so a game thread never
  submits to the pool it runs on.

Rounds that play fewer than :data:`MIN_POOL_GAMES` games stay on the
calling thread.  Only hubs (roots of residual degree > β) play games;
the other machines of an lca round write layer 0 without one.  No
fan-out runs more threads than ``min(workers, usable_cpus())``:
results are bit-identical at any thread count, and more CPU-bound
threads than cores only time-slice the same cores.

Each finished chain is handed to the caller's ``on_result`` on the
calling thread, in completion order; the fabric replays its
communication and folds its games through commutative min/+
accumulators, so every observable is bit-identical to the serial
schedule however the threads interleave.  ``workers`` is a pure
throughput knob: the differential harness
(``tests/test_parallel_equivalence.py``) asserts equality against the
serial dict-backed oracle for every (store, workers) combination.

Faults
------

A chain's exceptions — :class:`~repro.ampc.messaging.MemoryGuardError`
included, a protocol outcome the serial chain raises identically —
propagate unchanged, after the round's other running chains finish.
One fault is retried: a row slab that fails its checksum in
:meth:`~repro.ampc.messaging._Shard.install_ghosts`
(:class:`~repro.ampc.faults.ChecksumError`, the ``slab`` kind of
:mod:`repro.ampc.faults`).  The chain is re-run on the calling thread
with the next attempt index, at most :data:`MAX_SHARD_RETRIES` times;
since it is a pure function of its inputs, the re-run is bit-identical.
Each re-run counts in :attr:`CoinGamePool.recovery`, surfaced per run
as ``BetaPartitionOutcome.round_recovery``.  Chaos schedules are
injected deterministically through :mod:`repro.ampc.faults`
(``FaultPlan``; CI runs the suite under ``REPRO_FAULT_PLAN``).
"""

from __future__ import annotations

import contextlib
import gc
import operator
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

from repro.ampc import faults
from repro.ampc.faults import ChecksumError
from repro.ampc.messaging import run_shard_chain

__all__ = [
    "CoinGamePool",
    "MIN_POOL_GAMES",
    "close_shared_pools",
    "defer_full_gc",
    "resolve_workers",
    "usable_cpus",
]

# Rounds that play fewer games than this run on the calling thread even
# when workers > 1.  It counts games, that is hub roots (residual
# degree > β), not machines: a low-degree root writes layer 0 and plays
# none.  One cutoff gates both parallel paths, the array engines' fleet
# fan-out and the message fabric's shard chains: below ~256 games a
# compiled round costs about what waking the threads and folding their
# results does.  Small rounds — the long tail of a multi-round
# partition — stay serial.  Read at call time by
# :func:`repro.core.columnar_rounds.lca_round_kernel`; tests monkeypatch
# it to 1 to force the parallel paths on tiny differential shapes.
MIN_POOL_GAMES = 256

# How many times a chain whose row slab failed its checksum is re-run
# on the calling thread before the ChecksumError propagates.
MAX_SHARD_RETRIES = 2


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


class CoinGamePool:
    """Runs one partition call's message-fabric shard chains on threads.

    Holds no threads of its own (the chains run on the fleet player's
    pool), only the call's parallelism, its fault-plan dispatch counter
    and its :attr:`recovery` counters.
    """

    def __init__(self, workers: int) -> None:
        workers = int(workers)
        if workers < 2:
            raise ValueError(
                "CoinGamePool needs workers >= 2; workers=1 is the serial "
                "in-process path and never constructs a pool"
            )
        self.workers = workers
        # Chains running at once: never more than the CPUs this process
        # may use (an affinity mask or cgroup cpuset can grant fewer
        # than the host has; see usable_cpus).
        self.threads = min(workers, usable_cpus())
        # The "round" coordinate of the fault plan's (round, shard,
        # attempt) keys: this call's run_games dispatches, counted.
        self.dispatch_seq = 0
        # Chains re-run after a row slab failed its checksum.
        self.recovery = {"retries": 0}

    def run_games(
        self,
        offsets: np.ndarray,
        targets: np.ndarray,
        jobs: list[tuple[int, np.ndarray]],
        payload: dict,
        on_result,
    ) -> None:
        """Run message-fabric shard chains on the game threads.

        ``jobs`` is ``[(sid, roots), …]``; each runs one
        :func:`repro.ampc.messaging.run_shard_chain` on the round's
        CSR, at most :attr:`threads` at a time.
        ``on_result(sid, result, others_running)`` fires on the calling
        thread in completion order, so the driver replays a finished
        shard's communication accounting while the remaining shards are
        still playing.  See the module docstring for faults.
        """
        # Imported here: repro.core.columnar_rounds imports this module.
        from repro.core.columnar_rounds import _game_threads

        plan = faults.active_plan()
        rnd = self.dispatch_seq
        self.dispatch_seq += 1

        def chain(key: int, attempt: int) -> dict:
            sid, roots = jobs[key]
            spec = None if plan is None else plan.lookup(rnd, key, attempt)
            if spec is not None and spec.kind == "slow":
                time.sleep(spec.seconds)
            return run_shard_chain(
                offsets, targets, sid, roots=roots, fault=spec, **payload
            )

        executor = _game_threads()
        waiting = list(range(len(jobs)))
        running: dict = {}  # future -> job index
        try:
            while waiting or running:
                while waiting and len(running) < self.threads:
                    key = waiting.pop(0)
                    running[executor.submit(chain, key, 0)] = key
                finished, __ = wait(running, return_when=FIRST_COMPLETED)
                for future in finished:
                    key = running.pop(future)
                    try:
                        result = future.result()
                    except ChecksumError as error:
                        result = self._rerun(chain, key, error)
                    on_result(jobs[key][0], result, bool(waiting or running))
        finally:
            # A chain that raised leaves its running siblings to finish
            # before the error surfaces, so no round outlives its call.
            wait(running)

    def _rerun(self, chain, key: int, error: ChecksumError) -> dict:
        """Re-run a chain whose row slab failed its checksum, on this
        thread, up to :data:`MAX_SHARD_RETRIES` times."""
        for attempt in range(1, MAX_SHARD_RETRIES + 1):
            self.recovery["retries"] += 1
            try:
                return chain(key, attempt)
            except ChecksumError as exc:
                error = exc
        raise error


def close_shared_pools() -> None:
    """Release pools shared across partition calls: there are none.

    The shard chains run on the fleet player's process-lifetime
    threads, so nothing outlives a call; harnesses that close pools
    between runs may keep calling this.
    """
