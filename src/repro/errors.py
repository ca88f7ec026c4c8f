"""Exception hierarchy for the anemos reproduction library.

Every error raised on purpose by this package derives from
:class:`ReproError` so that callers can catch library failures with a
single ``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CalibrationError",
    "SaturationError",
    "ConvergenceError",
    "RegisterError",
    "SensorFault",
    "SessionError",
    "FrameError",
    "ServiceError",
    "CheckpointError",
]


class ReproError(Exception):
    """Base class for all errors raised by the library."""


class ConfigurationError(ReproError):
    """A component was configured with physically or logically invalid values.

    ``reason`` is a machine-readable slug for programmatic handling:
    ``"config"`` (the default catch-all) or a knob-specific tag such as
    ``"heterogeneous"`` when a structurally mixed fleet reaches a
    homogeneous-only surface (e.g. a raw
    :class:`~repro.runtime.BatchEngine` handed rigs from more than one
    config group — the message names the offending group keys; use
    :class:`~repro.runtime.MixedEngine` or a
    :class:`~repro.runtime.FleetSpec` surface instead), or ``"admit"``
    when a running engine cannot take rigs as a new lane (another drive
    phase, or a config group new to it past step 0).
    """

    def __init__(self, message: str, reason: str = "config") -> None:
        super().__init__(message)
        self.reason = reason


class CalibrationError(ReproError):
    """Calibration could not be performed or produced an unusable model."""


class SaturationError(ReproError):
    """A signal exceeded the range of an analog or digital block.

    Raised only when the block is configured with ``strict=True``;
    by default blocks clip and flag instead, as real silicon does.
    """


class ConvergenceError(ReproError):
    """An iterative solver failed to converge within its budget."""


class RegisterError(ReproError):
    """Invalid access to the ISIF register file (bad address, width, field)."""


class SensorFault(ReproError):
    """The simulated sensor entered a failed state (e.g. membrane rupture)."""


class SessionError(ReproError):
    """A :class:`repro.runtime.Session` was used outside its lifecycle.

    The session API enforces ``open() -> calibrate() -> run() -> close()``;
    calling a stage out of order (or after ``close()``) raises this.
    """


class ServiceError(ReproError):
    """A :class:`repro.service.FleetService` request could not be honored.

    ``reason`` is a machine-readable slug for programmatic handling:
    ``"detached"`` (the client already left or finished),
    ``"stopped"`` (the service shut down under the client),
    ``"backpressure"`` (a producer-side push would overrun the bounded
    snapshot queue — an internal invariant, surfaced for diagnostics) or
    the ``"service"`` catch-all.
    """

    def __init__(self, message: str, reason: str = "service") -> None:
        super().__init__(message)
        self.reason = reason


class CheckpointError(ReproError):
    """A checkpoint or store artifact could not be saved or restored.

    ``reason`` is a machine-readable slug for programmatic handling:
    ``"missing"`` (no checkpoint at the given path / key),
    ``"corrupt"`` (the artifact failed validation — bad magic, a torn
    or truncated payload), ``"version"`` (written by an incompatible
    format version), ``"kind"`` (the checkpoint holds a different
    engine kind than the caller expected), ``"mismatch"`` (the
    checkpoint was taken under a different configuration — profile,
    cadence, fleet — than the resuming run), or the ``"checkpoint"``
    catch-all.
    """

    def __init__(self, message: str, reason: str = "checkpoint") -> None:
        super().__init__(message)
        self.reason = reason


class FrameError(ReproError):
    """A received telemetry frame failed validation.

    ``reason`` is machine-readable for drop accounting:
    ``"length"`` (short/long input), ``"crc"`` (CRC-16 mismatch, the
    line-noise case) or ``"sync"`` (bad sync word).
    """

    def __init__(self, message: str, reason: str = "frame") -> None:
        super().__init__(message)
        self.reason = reason
