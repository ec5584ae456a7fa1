"""β-partitions: definitions 3.5/3.6/3.9/3.12 and the natural β-partition."""

from repro.partition.beta_partition import INFINITY, PartialBetaPartition, merge_min
from repro.partition.dependency import dependency_set, dependency_sizes
from repro.partition.induced import (
    induced_beta_partition,
    induced_partition_from_view,
    natural_beta_partition,
)

__all__ = [
    "INFINITY",
    "PartialBetaPartition",
    "dependency_set",
    "dependency_sizes",
    "induced_beta_partition",
    "induced_partition_from_view",
    "merge_min",
    "natural_beta_partition",
]
