"""The one technique → log-manager switch.

The simulator, each shard of a :class:`~repro.core.sharded.ShardedLogManager`
and the live server all build their managers here, so a technique name
means the same configuration everywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.ephemeral import EphemeralLogManager
from repro.core.firewall import FirewallLogManager
from repro.core.hybrid import HybridLogManager
from repro.core.interface import UnflushedHeadPolicy
from repro.core.placement import LifetimePlacementPolicy
from repro.errors import ConfigurationError


def build_manager(
    sim,
    database,
    technique: str,
    *,
    generation_sizes: Sequence[int],
    recirculation: bool = True,
    unflushed_head_policy: UnflushedHeadPolicy = UnflushedHeadPolicy.KEEP_IN_LOG,
    placement_boundaries: Optional[Sequence[float]] = None,
    **common,
) -> EphemeralLogManager:
    """Build the ``"el"``, ``"fw"`` or ``"hybrid"`` log manager.

    FW takes the first size as its single queue and the hybrid always
    recirculates; recirculation, the unflushed-head policy and lifetime
    placement configure EL only.  ``common`` goes to every technique
    (flush drives, block geometry, kill policy, trace, metrics, faults...).
    """
    if technique == "fw":
        return FirewallLogManager(
            sim, database, log_blocks=generation_sizes[0], **common
        )
    if technique == "hybrid":
        return HybridLogManager(
            sim, database, generation_sizes=generation_sizes, **common
        )
    if technique != "el":
        raise ConfigurationError(f"unknown technique {technique!r}")
    placement = (
        LifetimePlacementPolicy(placement_boundaries)
        if placement_boundaries is not None
        else None
    )
    return EphemeralLogManager(
        sim,
        database,
        generation_sizes=generation_sizes,
        recirculation=recirculation,
        unflushed_head_policy=unflushed_head_policy,
        placement=placement,
        **common,
    )
