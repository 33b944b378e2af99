"""The paper's primary contribution: log managers and their RAM structures.

Public surface:

* :class:`~repro.core.ephemeral.EphemeralLogManager` — ephemeral logging
  (the contribution): multi-generation log, forwarding, recirculation,
  continuous flushing, no checkpoints.
* :class:`~repro.core.firewall.FirewallLogManager` — the System-R-style
  firewall baseline (single queue, no recirculation).
* :class:`~repro.core.hybrid.HybridLogManager` — the EL–FW hybrid sketched
  in the paper's concluding remarks (EL with whole-transaction migration).
* :func:`~repro.core.factory.build_manager` — the one technique → manager
  switch shared by the simulator, the shards and the live server.
* :class:`~repro.core.sharded.ShardedLogManager` — N independent EL/FW
  shards on their own disks with range routing and cross-shard group
  commit (scale-out beyond one log disk's bandwidth).
* Supporting structures: cells and per-generation circular doubly-linked
  lists, the LOT and LTT, block buffers with group commit, generations and
  the locality-aware flush scheduler.
"""

from repro.core.buffers import BlockBuffer, BufferPool
from repro.core.cells import Cell, CellList
from repro.core.ephemeral import EphemeralLogManager
from repro.core.factory import build_manager
from repro.core.firewall import FirewallLogManager
from repro.core.flushqueue import FlushScheduler
from repro.core.generation import Generation
from repro.core.hybrid import HybridLogManager
from repro.core.interface import LogManager, UnflushedHeadPolicy
from repro.core.killpolicy import KillPolicy
from repro.core.lot import LoggedObjectTable, LotEntry
from repro.core.ltt import LoggedTransactionTable, LttEntry, TxStatus
from repro.core.memory import MemoryModel
from repro.core.placement import LifetimePlacementPolicy
from repro.core.sharded import ShardedLogManager
from repro.core.sizing import SizingAdvice, recommend_generation_sizes

__all__ = [
    "BlockBuffer",
    "BufferPool",
    "Cell",
    "CellList",
    "EphemeralLogManager",
    "FirewallLogManager",
    "FlushScheduler",
    "Generation",
    "HybridLogManager",
    "KillPolicy",
    "LifetimePlacementPolicy",
    "LogManager",
    "LoggedObjectTable",
    "LoggedTransactionTable",
    "LotEntry",
    "LttEntry",
    "MemoryModel",
    "ShardedLogManager",
    "SizingAdvice",
    "TxStatus",
    "UnflushedHeadPolicy",
    "build_manager",
    "recommend_generation_sizes",
]
