"""Distributed data stores (DDS) — the AMPC model's communication fabric.

Section 3.1: the computation uses a sequence of key-value stores
D_0, D_1, ...; in round i machines read (adaptively) from D_{i-1} and write
to D_i.  Keys map to one value, or to k values accessible as
(key, 1) ... (key, k); querying an absent key returns an empty response.

``reduce_per_key`` models the paper's "separate set of machines that
handles the DDS" (proof of Theorem 1.2): it collapses multi-valued keys
with an associative reducer (e.g. min over layer proposals).  That
machinery is part of the store's sorting layer, not of the per-node
machines, so it costs no extra AMPC round.

This dict-of-lists store is the *semantics oracle* and the only store
with a per-key API: :class:`~repro.ampc.machine.MachineContext` machines
read and write it one key at a time.  The array-backed
:class:`repro.ampc.columnar.ColumnStore` that the hot path runs on is
written in bulk by round kernels instead; the equivalence tests hold the
two paths' partitions, round statistics and per-store
:meth:`~DataStore.total_words` identical.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

__all__ = ["DataStore", "EMPTY"]


class _Empty:
    """Sentinel for 'key not present' (the model's empty response)."""

    def __repr__(self) -> str:
        return "EMPTY"

    def __bool__(self) -> bool:
        return False


EMPTY = _Empty()


class DataStore:
    """One D_i: multi-valued key-value store with deterministic iteration."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._data: dict[Any, list[Any]] = {}

    def __len__(self) -> int:
        return sum(len(vals) for vals in self._data.values())

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def write(self, key: Any, value: Any) -> None:
        """Append ``value`` under ``key`` (duplicates allowed)."""
        self._data.setdefault(key, []).append(value)

    def read(self, key: Any) -> Any:
        """Single-value read; EMPTY if absent; error if multi-valued."""
        values = self._data.get(key)
        if values is None:
            return EMPTY
        if len(values) != 1:
            raise KeyError(
                f"key {key!r} holds {len(values)} values; use read_indexed"
            )
        return values[0]

    def read_indexed(self, key: Any, index: int) -> Any:
        """The (key, index) access of the model, index in [0, k)."""
        values = self._data.get(key)
        if values is None or not 0 <= index < len(values):
            return EMPTY
        return values[index]

    def count(self, key: Any) -> int:
        """Number of values stored under ``key``."""
        return len(self._data.get(key, ()))

    def keys(self) -> Iterable[Any]:
        """All keys (deterministic order by insertion)."""
        return self._data.keys()

    def items(self) -> Iterable[tuple[Any, list[Any]]]:
        """All (key, values) pairs."""
        return self._data.items()

    def reduce_per_key(self, reducer: Callable[[list[Any]], Any]) -> None:
        """Collapse each multi-valued key via ``reducer`` (DDS-side merge)."""
        for key, values in self._data.items():
            if len(values) > 1:
                self._data[key] = [reducer(values)]

    def total_words(self) -> int:
        """Total stored key-value pairs (the model's space unit)."""
        return len(self)

    def held_words(self) -> int:
        """Real words held: for dict-of-lists, the logical pair count.

        The columnar store's :meth:`~repro.ampc.columnar.ColumnStore.held_words`
        counts its backing-array lengths instead; strict-budget parity
        audits compare both against the per-machine S budget.
        """
        return len(self)
