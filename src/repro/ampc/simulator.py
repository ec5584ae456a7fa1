"""The AMPC execution engine — Section 3.1 made runnable.

An :class:`AMPCSimulator` owns the sequence of data stores D_0, D_1, ...
and the round loop.  The store backend is fixed at construction, and
each backend has its own round API:

- ``store="dict"`` keeps the dict-of-lists
  :class:`~repro.ampc.dds.DataStore`, the semantics oracle.  Input
  arrives through :meth:`~AMPCSimulator.load_input` and
  :meth:`~AMPCSimulator.port_to_current`, and :meth:`~AMPCSimulator.round`
  runs a list of ``(machine_id, run)`` tasks; each task's ``run(ctx)``
  reads adaptively from the previous store through the budgeted
  :class:`~repro.ampc.machine.MachineContext` and writes to the next
  store.
- ``store="columnar"`` uses the array-backed
  :class:`~repro.ampc.columnar.ColumnStore`.  The residual graph arrives
  through :meth:`~AMPCSimulator.port_residual_csr`, and
  :meth:`~AMPCSimulator.round_vectorized` runs a single *kernel* that
  executes the whole machine fleet as array operations and reports
  per-machine communication in bulk.  Its statistics and strict-budget
  failures are the ones the same machines would produce one at a time
  through :meth:`~AMPCSimulator.round` on the dict oracle.

Calling one backend's API on the other raises :class:`TypeError`.
Machines are simulated sequentially by default — the model is
synchronous, and within a round machines only read D_{i-1}, so sequential
execution is observationally identical to parallel execution.  That same
independence is what lets vectorized kernels split a round's fleet across
threads or message-fabric shards (:mod:`repro.ampc.messaging`, on the
same threads through :mod:`repro.ampc.pool`): slices report per-machine counts
through :meth:`~repro.ampc.machine.BatchMachineContext.account_at` in
completion order, and the deferred strict scan plus commutative store
folds keep the outcome bit-identical to the serial schedule.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable

from repro.ampc.columnar import ColumnStore
from repro.ampc.cost import ExecutionStats, RoundStats
from repro.ampc.dds import DataStore
from repro.ampc.machine import BatchMachineContext, MachineContext

__all__ = ["AMPCSimulator"]

Task = tuple[Any, Callable[[MachineContext], None]]


class AMPCSimulator:
    """Round-synchronous AMPC machine with explicit stores and budgets.

    Parameters
    ----------
    input_size:
        N = n + m, determines the space budget.
    delta:
        Local space exponent; S = ceil(N^delta).
    strict_space:
        Raise :class:`~repro.ampc.machine.SpaceExceeded` on budget
        violation instead of recording it.
    space_slack:
        Multiplier on S before enforcement (the model allows O(S)).
    store:
        Store backend: "dict" (the oracle, driven by :meth:`round`) or
        "columnar" (array-backed, driven by :meth:`round_vectorized`;
        requires ``num_vertices``).
    num_vertices:
        Vertex universe size for columnar stores.
    """

    def __init__(
        self,
        input_size: int,
        delta: float = 0.5,
        strict_space: bool = False,
        space_slack: float = 1.0,
        store: str = "dict",
        num_vertices: int | None = None,
    ) -> None:
        if input_size < 1:
            raise ValueError("input_size must be >= 1")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        if store not in ("dict", "columnar"):
            raise ValueError('store must be "dict" or "columnar"')
        if store == "columnar" and num_vertices is None:
            raise ValueError("columnar stores need num_vertices")
        self.input_size = input_size
        self.delta = delta
        self.space_limit = max(1, math.ceil(input_size**delta * space_slack))
        self.strict_space = strict_space
        self.store_kind = store
        self.num_vertices = num_vertices
        self.stores: list[DataStore | ColumnStore] = [self._new_store("D0")]
        self.stats = ExecutionStats(
            input_size=input_size, space_per_machine=self.space_limit
        )

    def _new_store(self, name: str) -> DataStore | ColumnStore:
        if self.store_kind == "columnar":
            return ColumnStore(self.num_vertices, name=name)
        return DataStore(name=name)

    @property
    def current_store(self) -> DataStore | ColumnStore:
        """The most recently completed store D_i."""
        return self.stores[-1]

    def _dict_store(self, index: int, api: str) -> DataStore:
        if self.store_kind != "dict":
            raise TypeError(f"{api} requires a dict-store simulator")
        return self.stores[index]

    def load_input(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Populate D_0 with the input (free: input placement is given)."""
        store = self._dict_store(0, "load_input")
        for key, value in pairs:
            store.write(key, value)

    def port_to_current(self, pairs: Iterable[tuple[Any, Any]]) -> None:
        """Write pairs into the *current* store (DDS-side porting).

        Models the bookkeeping machines of Theorem 1.2's proof that "can
        compute deg_{G_{i+1}}(u) ... and port the edges of G_{i+1} to
        D_{i+1}" within the same round; no extra round is charged.
        """
        store = self._dict_store(-1, "port_to_current")
        for key, value in pairs:
            store.write(key, value)

    def port_residual_csr(self, alive, offsets, targets) -> None:
        """Columnar porting: install the residual graph as CSR columns.

        The bulk counterpart of feeding :meth:`port_to_current` (or
        :meth:`load_input`, for D_0) the ``("deg", v)`` / ``("adj", v, j)``
        pair stream; charges no round, like the pair-based porting.
        """
        if self.store_kind != "columnar":
            raise TypeError("port_residual_csr requires a columnar simulator")
        self.stores[-1].load_residual_csr(alive, offsets, targets)

    def round(
        self,
        tasks: Iterable[Task],
        reducer: Callable[[list[Any]], Any] | None = None,
    ) -> DataStore:
        """Execute one AMPC round of per-machine tasks.

        Every task reads from the current store and writes to a fresh next
        store.  ``reducer``, if given, collapses multi-valued keys in the
        new store afterwards (DDS-side merge, e.g. min over layer proofs).
        Returns the new store.
        """
        previous = self._dict_store(-1, "round")
        target = self._new_store(f"D{len(self.stores)}")
        stats = RoundStats(round_index=len(self.stats.rounds))
        for machine_id, run in tasks:
            ctx = MachineContext(
                machine_id=machine_id,
                previous=previous,
                target=target,
                space_limit=self.space_limit,
                strict=self.strict_space,
            )
            run(ctx)
            stats.machines_active += 1
            stats.max_reads = max(stats.max_reads, ctx.reads)
            stats.max_writes = max(stats.max_writes, ctx.writes)
            stats.total_reads += ctx.reads
            stats.total_writes += ctx.writes
        if reducer is not None:
            target.reduce_per_key(reducer)
        stats.store_words = target.total_words()
        stats.dds_held_words = target.held_words()
        self.stats.rounds.append(stats)
        self.stores.append(target)
        return target

    def round_vectorized(
        self,
        machine_ids,
        kernel: Callable[[BatchMachineContext], None],
        reducer: Callable[[list[Any]], Any] | None = None,
    ) -> ColumnStore:
        """Execute one AMPC round as a single batched kernel.

        ``kernel(batch)`` runs every machine of ``machine_ids`` against the
        previous store's columns, writes the next store's columns, and
        reports per-machine communication through ``batch.account``.  The
        recorded :class:`~repro.ampc.cost.RoundStats` are identical to
        running the same machines one at a time through :meth:`round`.
        """
        if self.store_kind != "columnar":
            raise TypeError("round_vectorized requires a columnar simulator")
        previous = self.stores[-1]
        target = self._new_store(f"D{len(self.stores)}")
        batch = BatchMachineContext(
            machine_ids=machine_ids,
            previous=previous,
            target=target,
            space_limit=self.space_limit,
            strict=self.strict_space,
        )
        kernel(batch)
        # Deferred budget scan for kernels that account piecemeal via
        # account_at (pool and fabric shards); immediate account()
        # calls have already checked, so this is idempotent for them.
        batch.check_strict()
        if reducer is not None:
            target.reduce_per_key(reducer)
        stats = RoundStats.from_machine_counts(
            round_index=len(self.stats.rounds),
            reads=batch.reads,
            writes=batch.writes,
            store_words=target.total_words(),
            dds_held_words=target.held_words(),
        )
        self.stats.rounds.append(stats)
        self.stores.append(target)
        return target

    def charge_rounds(self, count: int, note: str = "") -> None:
        """Account for rounds executed by a closed-form simulation step.

        The coloring pipelines simulate LOCAL algorithms whose AMPC round
        cost is established analytically (Sections 6.1-6.3); this charges
        those rounds without materialising per-node machine tasks.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self.stats.rounds.append(
                RoundStats(round_index=len(self.stats.rounds))
            )
