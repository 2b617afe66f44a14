"""Out-of-core sharded SpMV/CG with durable checkpoints.

The layer that lets every in-core building block — SSS partition
kernels, local-vector reductions, executor backends, the CG/PCG
recurrences — run against a matrix that never fits in memory:

* :mod:`repro.ooc.shards` — streaming MatrixMarket ingest into
  CRC32C-checksummed row-range shard files under a fingerprinted
  manifest, and the fault-contained :class:`ShardStore` read path
  (bounded retry → re-ingest → typed :class:`ShardIOError`);
* :mod:`repro.ooc.operator` — :class:`ShardedOperator`, shard-at-a-
  time symmetric SpMV/SpMM under an explicit memory budget, evicting
  the resident shard just behind the ascending sweep;
* :mod:`repro.ooc.checkpoint` — :class:`CheckpointStore`, atomic
  multi-generation solver state with CRC-verified recovery;
* :mod:`repro.ooc.cg` — :func:`checkpointed_cg`, the crash-safe
  resumable solve gluing the three together.
"""

from .checkpoint import CheckpointStore
from .checksum import crc32c
from .cg import OOCSolveResult, checkpointed_cg
from .errors import (
    CheckpointError,
    ManifestError,
    MemoryBudgetError,
    ShardChecksumError,
    ShardIOError,
)
from .operator import ShardedOperator, parse_memory_budget
from .shards import ShardData, ShardInfo, ShardStore, ingest_matrix_market

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "ManifestError",
    "MemoryBudgetError",
    "OOCSolveResult",
    "ShardChecksumError",
    "ShardData",
    "ShardInfo",
    "ShardIOError",
    "ShardStore",
    "ShardedOperator",
    "checkpointed_cg",
    "crc32c",
    "ingest_matrix_market",
    "parse_memory_budget",
]
