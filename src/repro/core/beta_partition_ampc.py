"""Theorem 1.2: deterministic β-partitioning in low-space AMPC.

The algorithm alternates AMPC rounds, each of which:

1. stores the current residual graph G_i (induced by still-unlayered
   vertices) in the data store D_i as ``("deg", v)`` / ``("adj", v, j)``
   key-value pairs — the exact encoding in the proof of Theorem 1.2;
2. assigns one machine M_v per unlayered vertex; M_v plays the
   (x, β, F)-coin dropping game *against the store* (its graph probes are
   adaptive DDS reads, the defining capability of AMPC) and writes the
   provable entries of its proof partition ℓ_v to D_{i+1};
3. lets the DDS-side sorting machines keep the per-vertex minimum
   (Remark 4.8 + Lemma 4.10), yielding a globally consistent partial
   β-partition of G_i;
4. appends the new layers above all previously assigned ones and recurses
   on the vertices that remain unlayered.

For huge arboricity (β comparable to the local space) the coin game is
useless and the algorithm switches to the Barenboim-Elkin peeling fallback:
one AMPC round per layer, each vertex machine reading only its residual
degree (the last paragraph of the proof of Theorem 1.2).

Two execution fabrics implement the loop:

- ``store="columnar"`` (the default) runs on array-backed
  :class:`~repro.ampc.columnar.ColumnStore` stores with batched round
  kernels (:mod:`repro.core.columnar_rounds`): the residual graph is one
  CSR gather, the peel round is a degree-mask kernel, and the coin games
  run against flat adjacency lists.  With ``workers > 1`` lca rounds
  shard their machine fleet over a persistent process pool
  (:mod:`repro.ampc.pool`) — machines within a round are independent,
  so sharding is invisible to every observable.
- ``store="dict"`` is the original dict-of-lists path, kept verbatim as
  the semantics oracle: the columnar path reproduces its partitions,
  round counts, and per-round statistics exactly (asserted by the
  equivalence tests on randomized inputs, for every ``workers`` value).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Literal

import numpy as np

from repro.ampc.engine_config import EngineConfig
from repro.ampc.machine import MachineContext
from repro.ampc.messaging import MessageFabric
from repro.ampc.pool import defer_full_gc, resolve_workers, shared_pool
from repro.ampc.simulator import AMPCSimulator
from repro.core import native
from repro.core.columnar_rounds import (
    lca_round_kernel,
    peel_round_kernel,
    residual_csr,
)
from repro.graphs.graph import Graph
from repro.lca.coin_game import CoinDroppingGame, max_provable_layer
from repro.lca.oracle import QueryStats
from repro.partition.beta_partition import PartialBetaPartition

__all__ = ["BetaPartitionOutcome", "beta_partition_ampc", "default_game_budget"]

Mode = Literal["auto", "lca", "peel"]
StoreKind = Literal["columnar", "dict"]


@dataclass
class BetaPartitionOutcome:
    """Result of the AMPC β-partitioning."""

    partition: PartialBetaPartition  # complete: every vertex finite
    beta: int
    rounds: int  # AMPC rounds consumed
    mode: str  # "lca" or "peel"
    x: int  # game budget used (0 in peel mode)
    simulator: AMPCSimulator | None = None
    unlayered_per_round: list[int] = field(default_factory=list)
    workers: int = 1  # worker processes the lca rounds sharded across
    engine: str = "scalar"  # execution: "batched", "compiled" or "scalar"
    transport: str = "shm"  # sharding fabric: "shm" (shared CSR) or "message"
    shards: int = 0  # message-fabric shard count (0 under transport="shm")
    # transport="message": one dict per lca round with the fabric's typed
    # communication counters (messages / words / subrounds / row_requests
    # / max_shard_words / max_held_words / …, see
    # repro.ampc.messaging.MessageFabric).
    round_comm: list[dict] = field(default_factory=list)
    # transport="message": lifetime peak of any shard's guarded held
    # words — what the configured S budget binds against.
    max_held_words: int = 0
    # workers > 1: the pool supervisor's recovery counters accumulated
    # over this run (retries / respawns / deadline_kills /
    # checksum_rejects / worker_faults / degraded_shards /
    # recovery_wall_s) — all zero on an undisturbed run, and accounting
    # every injected or real fault otherwise.  Empty dict when no pool
    # was used.
    round_recovery: dict = field(default_factory=dict)

    @property
    def num_layers(self) -> int:
        """Size of the produced β-partition."""
        return self.partition.size()

    # The end-to-end benchmark (e2ebench/metrics.py) reads these two
    # counters; every game is played afresh in every round, so they are
    # constant.
    @property
    def game_cache_hits(self) -> int:
        """Always 0: no game is replayed from an earlier round."""
        return 0

    @property
    def round_reuse(self) -> list[dict]:
        """Always empty: no round replays recorded wave state."""
        return []


class _StoreOracle:
    """Graph oracle whose probes are adaptive reads against a data store.

    Drop-in replacement for :class:`repro.lca.oracle.GraphOracle`: the coin
    game's exploration becomes a chain of dependent DDS reads, exactly the
    access pattern the AMPC model charges for.
    """

    def __init__(self, ctx: MachineContext, num_vertices: int) -> None:
        self._ctx = ctx
        self.num_vertices = num_vertices
        self.stats = QueryStats()

    def degree(self, v: int) -> int:
        self.stats.degree_probes += 1
        return self._ctx.read(("deg", v))

    def neighbor(self, v: int, i: int) -> int:
        self.stats.neighbor_probes += 1
        return self._ctx.read(("adj", v, i))

    def explore(self, v: int) -> list[int]:
        deg = self.degree(v)
        return [self.neighbor(v, i) for i in range(deg)]


def default_game_budget(beta: int) -> int:
    """Default x: deep enough to certify two layers per application.

    Theory uses x = n^{δ/c}; at bench scale that is tiny, so we anchor on
    the layer depth instead: x = (β+1)² certifies layers up to 2 per round.
    """
    return (beta + 1) ** 2


def _residual_store_pairs(graph: Graph, alive: list[int]):
    """Key-value pairs encoding G_i = G[alive] (Theorem 1.2's format)."""
    alive_set = set(alive)
    adjacency = {
        v: [int(w) for w in graph.neighbors(v) if int(w) in alive_set]
        for v in alive
    }
    for v in alive:
        nbrs = adjacency[v]
        yield ("deg", v), len(nbrs)
        for j, u in enumerate(nbrs):
            yield ("adj", v, j), u


def beta_partition_ampc(
    graph: Graph,
    beta: int,
    delta: float = 0.5,
    x: int | None = None,
    mode: Mode = "auto",
    strict_space: bool = False,
    max_rounds: int | None = None,
    store: StoreKind = "columnar",
    workers: int | str | None = None,
    engine: str | None = None,
    min_pool_games: int | None = None,
    phases: dict | None = None,
    transport: str = "shm",
    shards: int | None = None,
    shard_budget: int | None = None,
    config=None,
) -> BetaPartitionOutcome:
    """Compute a complete β-partition of ``graph`` in simulated AMPC.

    Parameters
    ----------
    graph, beta:
        Inputs; β >= (2+ε)α gives the Theorem 1.2 guarantees, but any β
        for which the natural β-partition is complete will terminate.
    delta:
        Local-space exponent of the simulated machines.
    x:
        Coin-game budget (default :func:`default_game_budget`).
    mode:
        "lca" (coin game), "peel" (BE fallback), or "auto" (peel only when
        the game could not certify even one layer within the space budget).
    max_rounds:
        Safety cap; raises RuntimeError when exceeded (indicates β below
        the graph's peeling threshold).
    store:
        Execution fabric: "columnar" (array-backed stores, batched round
        kernels) or "dict" (the original per-machine path — the oracle the
        columnar path is tested against).
    workers:
        Worker processes the columnar lca rounds shard their machine
        fleet across (:mod:`repro.ampc.pool`); None reads
        ``$REPRO_WORKERS``, defaulting to ``"auto"`` (the CPU count, so
        1-core hosts stay serial).  A pure throughput knob: results are
        bit-identical for every value.  The dict-backed oracle accepts
        the knob but always replays its machines serially — it exists to
        pin down the semantics the sharded path must reproduce.
    engine:
        Coin-game execution for the columnar lca rounds:
        ``"compiled"`` (the default — each cohort fused into one C
        pass, :mod:`repro.core.native`; downgraded with a one-time
        warning to ``"batched"`` when the kernel cannot load — the
        outcome's ``engine`` field reports what actually ran),
        ``"batched"`` (all of a round's games advance in lockstep as
        numpy array kernels, :mod:`repro.core.batched_games`; the
        kernel's fallback and differential oracle) or ``"scalar"``
        (one adaptive Python interpretation per game, the original
        engine kept verbatim as the oracle).  None reads ``$REPRO_ENGINE``
        before falling back to ``"compiled"``.  A pure throughput knob —
        every observable is bit-identical.  The dict-backed store
        ignores it (its machines always run the per-vertex
        :class:`~repro.lca.coin_game.CoinDroppingGame`).
    min_pool_games:
        Rounds with fewer pending games than this run in-process even
        when workers > 1 (None: the engine-aware
        :func:`repro.ampc.pool.min_pool_games_for` cutoff — the batched
        kernels amortize pool dispatch only on much larger rounds than
        the scalar interpreter).
    phases:
        Optional dict accumulating per-phase wall-clock seconds of the
        lca rounds (``explore`` / ``forward`` / ``fold`` for the batched
        engine, ``native`` / ``fold`` for the compiled one; all keys of
        the engine always present).  Worker shards are not
        instrumented, so pool-dispatched rounds leave them at zero —
        time phase breakdowns with ``workers=1``.
    transport:
        Sharding fabric for the columnar lca rounds: ``"shm"`` (each
        pool worker attaches the whole shared-memory CSR — the oracle
        path) or ``"message"`` (owner-hashed shards holding only their
        residual slice plus a bounded ghost fringe, exchanging typed
        size-capped delta messages — :mod:`repro.ampc.messaging`).  A
        pure memory/communication-discipline knob: every observable is
        bit-identical to ``"shm"`` for any shard count.  ``"message"``
        requires the columnar store and replaces the process pool.
    shards:
        Shard count under ``transport="message"`` (default: ``workers``,
        floored at 2).
    shard_budget:
        Per-shard S budget in words under ``transport="message"``; every
        array a shard holds is accounted against it and
        :class:`repro.ampc.messaging.MemoryGuardError` is raised loudly
        on violation.  None (default from
        ``$REPRO_SHARD_BUDGET_WORDS``): account but never raise.
    config:
        An :class:`repro.ampc.engine_config.EngineConfig` pinning every
        engine knob for this run; None snapshots the module-constant
        defaults with ``REPRO_*`` env overrides applied
        (:meth:`~repro.ampc.engine_config.EngineConfig.from_env`).
    """
    if beta < 1:
        raise ValueError("beta must be >= 1")
    if store not in ("columnar", "dict"):
        raise ValueError('store must be "columnar" or "dict"')
    if engine not in (None, "batched", "compiled", "scalar"):
        raise ValueError('engine must be "batched", "compiled" or "scalar"')
    if transport not in ("shm", "message"):
        raise ValueError('transport must be "shm" or "message"')
    if transport == "message" and store != "columnar":
        raise ValueError(
            'transport="message" requires store="columnar" (the dict store '
            "is the serial semantics oracle and never shards)"
        )
    workers = resolve_workers(workers)
    if config is None:
        config = EngineConfig.from_env()
    if engine is None and config.engine is not None:
        if config.engine not in ("batched", "compiled", "scalar"):
            raise ValueError(
                'REPRO_ENGINE must be "batched", "compiled" or "scalar"'
            )
        engine = config.engine
    engine = engine or "compiled"
    if engine == "compiled" and not native.available():
        # Graceful degradation: the numpy oracle is bit-identical, so
        # only throughput changes.  The outcome reports the engine that
        # actually ran.
        native.warn_fallback("beta_partition_ampc")
        engine = "batched"
    if shard_budget is None:
        shard_budget = config.shard_budget_words
    n = graph.num_vertices
    if n == 0:
        return BetaPartitionOutcome(
            partition=PartialBetaPartition({}), beta=beta, rounds=0, mode="lca", x=0,
            workers=workers, engine=engine if store == "columnar" else "scalar",
            transport=transport,
        )
    input_size = n + graph.num_edges
    sim = AMPCSimulator(
        input_size,
        delta=delta,
        strict_space=strict_space,
        store=store,
        num_vertices=n if store == "columnar" else None,
    )
    if x is None:
        x = default_game_budget(beta)
    if mode == "auto":
        # The game needs x >= β+1 to certify even layer 1; if that already
        # dwarfs the space budget the theory prescribes peeling.
        mode = "peel" if (beta + 1) ** 6 > sim.space_limit and beta > sim.space_limit else "lca"
    if max_rounds is None:
        max_rounds = 4 * (n.bit_length() + 2) + 8

    # Acquire the pool before suspending full GC: CoinGamePool snapshots
    # the gc thresholds its workers should restore at fork time.  The
    # message fabric models the memory/communication discipline; with
    # workers > 1 its shard chains run on the same persistent pool
    # (each worker plays one shard's BSP rounds, the driver replays the
    # communication), so transport and workers compose.
    fabric = None
    if transport == "message" and mode == "lca" and store == "columnar":
        fabric = MessageFabric(
            shards if shards is not None else max(2, workers),
            budget_words=shard_budget,
            cap_words=config.message_cap_words,
        )
    pool = (
        shared_pool(workers)
        if store == "columnar" and workers > 1 and mode == "lca"
        else None
    )
    with defer_full_gc():
        if store == "columnar":
            return _run_columnar(
                graph, sim, beta, x, mode, max_rounds, workers, pool,
                engine, min_pool_games, phases, fabric, transport, config,
            )
        return _run_dict(graph, sim, beta, x, mode, max_rounds, workers)


def _run_dict(
    graph: Graph,
    sim: AMPCSimulator,
    beta: int,
    x: int,
    mode: str,
    max_rounds: int,
    workers: int,
) -> BetaPartitionOutcome:
    """The original per-machine dict-store loop (the semantics oracle).

    Machines replay serially whatever ``workers`` says: this path defines
    the observable semantics the sharded columnar engine must reproduce,
    and staying single-process keeps it trivially trustworthy.
    """
    final_layers: dict[int, float] = {}
    alive = list(graph.vertices())
    layer_offset = 0
    unlayered_history: list[int] = []

    while alive:
        if len(sim.stats.rounds) >= max_rounds:
            raise RuntimeError(
                f"β-partition did not complete within {max_rounds} rounds "
                f"(β={beta} likely below the peeling threshold)"
            )
        unlayered_history.append(len(alive))
        # Round 0 reads the input from D_0; later rounds read the residual
        # graph the DDS machinery ported into the latest store.
        if len(sim.stores) == 1:
            sim.load_input(_residual_store_pairs(graph, alive))
        else:
            sim.port_to_current(_residual_store_pairs(graph, alive))

        if mode == "peel":
            assigned = _peel_round(sim, alive, beta)
        else:
            assigned = _lca_round(sim, graph, alive, beta, x)

        if not assigned:
            raise RuntimeError(
                f"no vertex became layered in a round (β={beta} too small "
                f"for graph with min residual degree > β)"
            )
        max_new = 0
        for v, lay in assigned.items():
            final_layers[v] = layer_offset + lay
            max_new = max(max_new, int(lay))
        layer_offset += max_new + 1
        assigned_set = set(assigned)
        alive = [v for v in alive if v not in assigned_set]

    partition = PartialBetaPartition(final_layers)
    return BetaPartitionOutcome(
        partition=partition,
        beta=beta,
        rounds=sim.stats.num_rounds,
        mode=mode,
        x=x if mode == "lca" else 0,
        simulator=sim,
        unlayered_per_round=unlayered_history,
        workers=workers,
    )


def _run_columnar(
    graph: Graph,
    sim: AMPCSimulator,
    beta: int,
    x: int,
    mode: str,
    max_rounds: int,
    workers: int,
    pool,
    engine: str,
    min_pool_games: int | None,
    phases: dict | None,
    fabric=None,
    transport: str = "shm",
    config=None,
) -> BetaPartitionOutcome:
    """The batched columnar loop — observationally identical to the dict
    path, with the residual re-encode, peel round, and DDS-side min-merge
    running as array kernels.  With workers > 1, lca rounds shard their
    fleet over the persistent process pool — transparent to every
    observable."""
    final_layers: dict[int, float] = {}
    alive = np.arange(graph.num_vertices, dtype=np.int64)
    layer_offset = 0
    unlayered_history: list[int] = []
    round_comm: list[dict] = []
    recovery_base = pool.recovery_snapshot() if pool is not None else None

    while alive.size:
        if len(sim.stats.rounds) >= max_rounds:
            raise RuntimeError(
                f"β-partition did not complete within {max_rounds} rounds "
                f"(β={beta} likely below the peeling threshold)"
            )
        unlayered_history.append(int(alive.size))
        offsets, targets = residual_csr(graph, alive)
        sim.port_residual_csr(alive, offsets, targets)

        comm = None
        if mode == "peel":
            kernel = partial(peel_round_kernel, beta=beta)
        else:
            if fabric is not None:
                comm = {}
                round_comm.append(comm)
            kernel = partial(
                lca_round_kernel, beta=beta, x=x, pool=pool, engine=engine,
                min_pool_games=min_pool_games, phases=phases, fabric=fabric,
                comm=comm, config=config,
            )
        target = sim.round_vectorized(alive, kernel, reducer=min)
        assigned_vs, assigned_layers = target.layer_assignments()

        if not assigned_vs.size:
            raise RuntimeError(
                f"no vertex became layered in a round (β={beta} too small "
                f"for graph with min residual degree > β)"
            )
        for v, lay in zip(assigned_vs.tolist(), assigned_layers.tolist()):
            final_layers[v] = layer_offset + int(lay)
        layer_offset += int(assigned_layers.max()) + 1
        keep = np.ones(graph.num_vertices, dtype=bool)
        keep[assigned_vs] = False
        alive = alive[keep[alive]]
        if fabric is not None:
            # Retirement notices ride the round boundary: every shard
            # prunes its owned slice down to the next residual graph.
            fabric.retire(assigned_vs, comm)

    partition = PartialBetaPartition(final_layers)
    return BetaPartitionOutcome(
        partition=partition,
        beta=beta,
        rounds=sim.stats.num_rounds,
        mode=mode,
        x=x if mode == "lca" else 0,
        simulator=sim,
        unlayered_per_round=unlayered_history,
        workers=workers,
        engine=engine,
        transport=transport,
        shards=fabric.num_shards if fabric is not None else 0,
        round_comm=round_comm,
        max_held_words=fabric.peak_held_words if fabric is not None else 0,
        round_recovery=(
            pool.recovery_delta(recovery_base) if pool is not None else {}
        ),
    )


def _lca_round(
    sim: AMPCSimulator, graph: Graph, alive: list[int], beta: int, x: int
) -> dict[int, float]:
    """One LCA round: every alive vertex plays the game against the store."""
    clip = max_provable_layer(x, beta)

    def make_task(v: int):
        def run(ctx: MachineContext) -> None:
            oracle = _StoreOracle(ctx, num_vertices=len(alive))
            game = CoinDroppingGame(oracle, v, x, beta)
            result = game.run()
            for u, lay in result.proof.layers.items():
                if lay <= clip:
                    ctx.write(("layer", u), lay)

        return v, run

    store = sim.round((make_task(v) for v in alive), reducer=min)
    assigned: dict[int, float] = {}
    for key, values in store.items():
        if isinstance(key, tuple) and key[0] == "layer":
            assigned[key[1]] = values[0]
    return assigned


def _peel_round(sim: AMPCSimulator, alive: list[int], beta: int) -> dict[int, float]:
    """One Barenboim-Elkin peel: vertices of residual degree <= β take
    layer 0 of this round (appended above earlier layers by the caller)."""

    def make_task(v: int):
        def run(ctx: MachineContext) -> None:
            if ctx.read(("deg", v)) <= beta:
                ctx.write(("layer", v), 0)

        return v, run

    store = sim.round((make_task(v) for v in alive), reducer=min)
    assigned: dict[int, float] = {}
    for key, values in store.items():
        if isinstance(key, tuple) and key[0] == "layer":
            assigned[key[1]] = values[0]
    return assigned
