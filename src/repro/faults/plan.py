"""Fault plans: the declarative half of the fault-injection layer.

A :class:`FaultPlan` describes which failures a simulated run should
suffer.  It is a frozen dataclass carried on
:class:`~repro.harness.config.SimulationConfig`, which makes it part of
the run fingerprint: two runs with the same seed and the same plan draw
byte-identical fault schedules, and a config without a plan keeps the
fingerprint it had before the fault layer existed.

The fault taxonomy (see DESIGN.md for the full model):

``TRANSIENT_WRITE``
    A log-block write attempt fails outright; the controller reports the
    error and the block can be retried in place.

``TORN_WRITE``
    A log-block write attempt persists only a prefix of the block.  The
    manager detects this at write completion via read-back checksum
    verification and retries; at a whole-system crash, in-flight writes
    are torn for real and recovery skips them via the checksum.

``LATENT_ERROR``
    A block that was written successfully decays afterwards: the device
    reports an imminent sector failure (scrub model — content is still
    readable during the report), then the block becomes unreadable.

``FLUSH_WRITE``
    A stable-database drive write fails transiently; the flush scheduler
    re-queues the victim record.

``CRASH``
    A whole-system stop at a scheduled simulated instant; used by the
    crash-consistency checker, never surfaced inside a live run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigurationError


class FaultKind(enum.Enum):
    """Typed outcome of an injected fault."""

    TRANSIENT_WRITE = "transient_write"
    TORN_WRITE = "torn_write"
    LATENT_ERROR = "latent_error"
    FLUSH_WRITE = "flush_write"
    CRASH = "crash"


@dataclass(frozen=True)
class DiskFault:
    """A concrete fault surfaced by the disk layer to its caller."""

    kind: FaultKind
    time: float
    generation: Optional[int] = None
    slot: Optional[int] = None
    drive: Optional[int] = None
    attempts: int = 1

    def describe(self) -> str:
        where = []
        if self.generation is not None:
            where.append(f"gen={self.generation}")
        if self.slot is not None:
            where.append(f"slot={self.slot}")
        if self.drive is not None:
            where.append(f"drive={self.drive}")
        location = " ".join(where) or "system"
        return (
            f"{self.kind.value} at t={self.time:.6f} ({location}, "
            f"attempts={self.attempts})"
        )


def _check_rate(name: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1), got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """Seed-reproducible schedule of injected failures for one run.

    Rates are per-attempt probabilities drawn from dedicated RNG
    streams (``faults/log-write``, ``faults/latent``, ``faults/flush``)
    so that enabling one fault family never perturbs the draws of
    another, or of the workload itself.
    """

    #: P(a log-block write attempt fails outright).
    transient_write_rate: float = 0.0
    #: P(a log-block write attempt persists only a prefix; caught by
    #: read-back checksum verification and retried).
    torn_write_rate: float = 0.0
    #: P(a durably written log block later suffers a latent sector error).
    latent_error_rate: float = 0.0
    #: Latent errors fire uniformly within this many seconds of the write.
    latent_delay_seconds: float = 5.0
    #: P(a stable-database drive write fails transiently).
    flush_fault_rate: float = 0.0
    #: Simulated instants at which the crash-consistency checker stops
    #: the world, recovers from the surviving images, and verifies.
    crash_times: Tuple[float, ...] = field(default=())
    #: At a crash, in-flight log writes persist a random prefix (torn)
    #: instead of vanishing entirely.
    torn_on_crash: bool = True
    #: Bounded retry budget per log-block write before the block is
    #: declared failed and its slot considered for remapping.
    max_retries: int = 3
    #: Wait before re-issuing a failed write attempt.
    retry_backoff_seconds: float = 0.002

    def __post_init__(self):
        _check_rate("transient_write_rate", self.transient_write_rate)
        _check_rate("torn_write_rate", self.torn_write_rate)
        _check_rate("latent_error_rate", self.latent_error_rate)
        _check_rate("flush_fault_rate", self.flush_fault_rate)
        if self.transient_write_rate + self.torn_write_rate >= 1.0:
            raise ConfigurationError(
                "transient_write_rate + torn_write_rate must be < 1 so a "
                "write attempt can succeed"
            )
        if self.latent_delay_seconds <= 0:
            raise ConfigurationError(
                f"latent_delay_seconds must be positive, got "
                f"{self.latent_delay_seconds!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries!r}"
            )
        if self.retry_backoff_seconds < 0:
            raise ConfigurationError(
                f"retry_backoff_seconds must be >= 0, got "
                f"{self.retry_backoff_seconds!r}"
            )
        object.__setattr__(
            self, "crash_times", tuple(float(t) for t in self.crash_times)
        )
        for when in self.crash_times:
            if when <= 0:
                raise ConfigurationError(
                    f"crash_times must be positive instants, got {when!r}"
                )

    @classmethod
    def proportional(cls, rate: float, **options) -> "FaultPlan":
        """One knob, proportional pressure everywhere: transient write and
        flush faults at ``rate``, torn writes at ``rate/2`` and latent
        sector errors at ``rate/10``.  ``options`` sets the other fields
        (crash times, retry budget)."""
        return cls(
            transient_write_rate=rate,
            torn_write_rate=rate / 2.0,
            latent_error_rate=rate / 10.0,
            flush_fault_rate=rate,
            **options,
        )

    # ------------------------------------------------------------------
    @property
    def any_enabled(self) -> bool:
        """Whether this plan injects anything at all.

        An all-default plan is equivalent to no plan: the simulation
        builds no injector and stays byte-identical to a fault-free run.
        A crash-only plan counts as enabled because blocks must carry
        checksums for torn-write detection at the crash point.
        """
        return (
            self.transient_write_rate > 0
            or self.torn_write_rate > 0
            or self.latent_error_rate > 0
            or self.flush_fault_rate > 0
            or bool(self.crash_times)
        )

    @property
    def injects_log_writes(self) -> bool:
        return self.transient_write_rate > 0 or self.torn_write_rate > 0

    @property
    def injects_latent(self) -> bool:
        return self.latent_error_rate > 0

    @property
    def injects_flush(self) -> bool:
        return self.flush_fault_rate > 0
