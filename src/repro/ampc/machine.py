"""Per-round machine context: budgeted, adaptive access to the stores.

A machine executing round i reads from D_{i-1} and writes to D_i
(Section 3.1).  Reads within a round may depend on earlier reads — the
defining *adaptive* power of AMPC — which falls out naturally here because
the machine's code calls :meth:`read` imperatively.

Budget enforcement: each read/write counts one word of communication; a
machine exceeding ``space_limit`` words raises :class:`SpaceExceeded` when
``strict`` is on, otherwise the overrun is recorded in the round stats
(useful at bench scale, where constant factors dominate small n^δ).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.ampc.dds import DataStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ampc.columnar import ColumnStore

__all__ = ["BatchMachineContext", "MachineContext", "SpaceExceeded"]


class SpaceExceeded(RuntimeError):
    """A machine used more communication than its local space allows."""


class MachineContext:
    """Handle given to a machine's round function."""

    def __init__(
        self,
        machine_id: Any,
        previous: DataStore,
        target: DataStore,
        space_limit: int,
        strict: bool,
    ) -> None:
        self.machine_id = machine_id
        self._previous = previous
        self._target = target
        self._space_limit = space_limit
        self._strict = strict
        self.reads = 0
        self.writes = 0

    def _charge(self, kind: str) -> None:
        if kind == "read":
            self.reads += 1
        else:
            self.writes += 1
        if self._strict and self.reads + self.writes > self._space_limit:
            raise SpaceExceeded(
                f"machine {self.machine_id}: {self.reads} reads + "
                f"{self.writes} writes exceeds S={self._space_limit}"
            )

    def read(self, key: Any) -> Any:
        """Read a single-valued key from D_{i-1} (EMPTY if absent)."""
        self._charge("read")
        return self._previous.read(key)

    def read_indexed(self, key: Any, index: int) -> Any:
        """Read the index-th value of a multi-valued key from D_{i-1}."""
        self._charge("read")
        return self._previous.read_indexed(key, index)

    def count(self, key: Any) -> int:
        """Number of values under a key (one probe)."""
        self._charge("read")
        return self._previous.count(key)

    def write(self, key: Any, value: Any) -> None:
        """Write one key-value pair to D_i."""
        self._charge("write")
        self._target.write(key, value)

    @property
    def communication(self) -> int:
        """Words of communication used so far this round."""
        return self.reads + self.writes


class BatchMachineContext:
    """Handle given to a *vectorized* round kernel.

    One context stands in for the whole fleet of per-vertex machines: the
    kernel reads the previous store's columns in bulk, writes the next
    store's columns in bulk, and reports per-machine read/write counts as
    arrays via :meth:`account`.  Budget semantics match the scalar
    :class:`MachineContext` exactly — under ``strict`` the first machine
    (in task order) whose communication exceeds S raises
    :class:`SpaceExceeded`, before any round statistics are recorded.
    """

    def __init__(
        self,
        machine_ids: np.ndarray,
        previous: "ColumnStore",
        target: "ColumnStore",
        space_limit: int,
        strict: bool,
    ) -> None:
        self.machine_ids = machine_ids
        self.previous = previous
        self.target = target
        self._space_limit = space_limit
        self._strict = strict
        self.reads = np.zeros(len(machine_ids), dtype=np.int64)
        self.writes = np.zeros(len(machine_ids), dtype=np.int64)

    def account(self, reads: np.ndarray, writes: np.ndarray) -> None:
        """Record per-machine communication (one entry per machine id)."""
        if len(reads) != len(self.machine_ids) or len(writes) != len(self.machine_ids):
            raise ValueError("need one read/write count per machine")
        self.reads += np.asarray(reads, dtype=np.int64)
        self.writes += np.asarray(writes, dtype=np.int64)
        if self._strict:
            self.check_strict()

    def account_at(
        self, positions: np.ndarray, reads: np.ndarray, writes: np.ndarray
    ) -> None:
        """Scatter per-machine communication for a subset of the fleet.

        ``positions`` index into ``machine_ids``.  Pool and fabric
        shards report their machines piecemeal, in completion order; the
        budget scan is deferred to :meth:`check_strict` — which the
        vectorized round runs after the kernel, before any statistics
        are recorded — so the machine
        singled out under ``strict`` is the first *in fleet order*, same
        as a single full-fleet :meth:`account` call, regardless of how
        the counts arrived.
        """
        if len(positions) != len(reads) or len(positions) != len(writes):
            raise ValueError("need one read/write count per position")
        self.reads[positions] += np.asarray(reads, dtype=np.int64)
        self.writes[positions] += np.asarray(writes, dtype=np.int64)

    def check_strict(self) -> None:
        """Raise on the first over-budget machine (no-op unless strict)."""
        if not self._strict:
            return
        over = self.reads + self.writes > self._space_limit
        if over.any():
            first = int(np.argmax(over))
            raise SpaceExceeded(
                f"machine {self.machine_ids[first]}: "
                f"{int(self.reads[first])} reads + "
                f"{int(self.writes[first])} writes exceeds "
                f"S={self._space_limit}"
            )
