"""AMPC and MPC model simulators with resource accounting (Section 3.1)."""

from repro.ampc.columnar import ColumnStore
from repro.ampc.cost import ExecutionStats, RoundStats
from repro.ampc.dds import EMPTY, DataStore
from repro.ampc.faults import (
    ChecksumError,
    FaultPlan,
    FaultSpec,
    inject,
)
from repro.ampc.machine import BatchMachineContext, MachineContext, SpaceExceeded
from repro.ampc.messaging import (
    MemoryGuard,
    MemoryGuardError,
    MessageFabric,
    owner_of,
)
from repro.ampc.mpc import MPCSimulator
from repro.ampc.pool import (
    CoinGamePool,
    close_shared_pools,
    resolve_workers,
)
from repro.ampc.simulator import AMPCSimulator

__all__ = [
    "AMPCSimulator",
    "BatchMachineContext",
    "ChecksumError",
    "CoinGamePool",
    "ColumnStore",
    "DataStore",
    "EMPTY",
    "ExecutionStats",
    "FaultPlan",
    "FaultSpec",
    "MPCSimulator",
    "MachineContext",
    "MemoryGuard",
    "MemoryGuardError",
    "MessageFabric",
    "RoundStats",
    "SpaceExceeded",
    "close_shared_pools",
    "inject",
    "owner_of",
    "resolve_workers",
]
