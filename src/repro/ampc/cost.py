"""Cost accounting for AMPC/MPC executions.

The paper's performance claims are entirely in terms of (a) rounds,
(b) per-machine communication (queries + writes, bounded by the local
space S = n^δ), and (c) total space.  These dataclasses collect exactly
those quantities; every experiment table prints them next to the
theoretical bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["RoundStats", "ExecutionStats"]


@dataclass
class RoundStats:
    """Per-round resource usage."""

    round_index: int
    machines_active: int = 0
    max_reads: int = 0
    max_writes: int = 0
    total_reads: int = 0
    total_writes: int = 0
    store_words: int = 0  # words in the store written this round
    # Real words the store's backing arrays hold (array lengths, not the
    # logical pair count) — what a machine would genuinely have resident.
    # Equal to store_words on the dict oracle; the columnar store counts
    # its dense layer/count columns (and any CSR arrays) at full length.
    dds_held_words: int = 0

    @property
    def max_communication(self) -> int:
        """Largest per-machine communication (the S-bounded quantity)."""
        return self.max_reads + self.max_writes

    @classmethod
    def from_machine_counts(
        cls, round_index: int, reads, writes, store_words: int,
        dds_held_words: int = 0,
    ) -> "RoundStats":
        """Aggregate per-machine count arrays into one round's stats.

        The batched counterpart of accumulating one machine at a time:
        identical maxima and totals, one reduction per array.
        """
        machines = len(reads)
        return cls(
            round_index=round_index,
            machines_active=machines,
            max_reads=int(reads.max()) if machines else 0,
            max_writes=int(writes.max()) if machines else 0,
            total_reads=int(reads.sum()),
            total_writes=int(writes.sum()),
            store_words=store_words,
            dds_held_words=dds_held_words,
        )


@dataclass
class ExecutionStats:
    """Whole-execution resource usage."""

    input_size: int
    space_per_machine: int  # the budget S
    rounds: list[RoundStats] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        """Number of AMPC rounds executed."""
        return len(self.rounds)

    @property
    def max_machine_communication(self) -> int:
        """Max over rounds and machines of per-machine communication."""
        return max((r.max_communication for r in self.rounds), default=0)

    @property
    def within_budget(self) -> bool:
        """True if every machine stayed within its space budget S."""
        return self.max_machine_communication <= self.space_per_machine

    def effective_delta(self) -> float:
        """The δ' such that max communication = N^δ' (measured locality).

        Lets small-n experiments quantify how close a run came to the
        n^δ regime without hard-failing on constant factors.
        """
        usage = self.max_machine_communication
        if usage <= 1 or self.input_size <= 1:
            return 0.0
        return math.log(usage) / math.log(self.input_size)
