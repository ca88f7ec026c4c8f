"""Sensor drive schemes: continuous DC vs pulsed voltage.

§4: "The first problem [bubble generation] can be overcome adopting a
pulsed voltage driving technique instead of continuous sensor biasing in
conjunction with reduced overtemperature of the heating element."

A drive scheme sits between the PI controller and the DAC: it decides,
per tick, whether the heater is energised and whether the loop output is
a *valid measurement sample*.  During pulsed off-phases the heater cools
(bubbles detach), the PI is frozen, and the first ticks of each on-phase
are blanked while the wire re-heats.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["DriveDecision", "DriveScheme", "ContinuousDrive", "PulsedDrive"]


@dataclass(frozen=True)
class DriveDecision:
    """Outcome of the drive scheme for one tick.

    Attributes
    ----------
    energise:
        Apply the commanded supply (True) or 0 V (False).
    control_active:
        Run the PI update this tick (frozen during off-phases).
    sample_valid:
        The loop output is a usable flow sample (False while off and
        during the re-heat blanking window).
    """

    energise: bool
    control_active: bool
    sample_valid: bool


class DriveScheme:
    """Interface: call :meth:`tick` once per loop period."""

    def tick(self, dt: float) -> DriveDecision:
        """Advance scheme time by ``dt`` and return this tick's decision."""
        raise NotImplementedError

    def tick_block(self, dt: float, count: int
                   ) -> tuple[list, list, list]:
        """Advance ``count`` ticks at once; returns the three decision
        channels as lists (``energise``, ``control_active``,
        ``sample_valid``).

        The default delegates to :meth:`tick` so custom schemes stay
        correct; the built-in schemes override it with loops that skip
        the per-tick :class:`DriveDecision` allocation (bit-identical
        phase accounting, one validation per block since ``dt`` is
        shared).
        """
        energise, control, valid = [], [], []
        for _ in range(count):
            dec = self.tick(dt)
            energise.append(dec.energise)
            control.append(dec.control_active)
            valid.append(dec.sample_valid)
        return energise, control, valid

    def reset(self) -> None:
        """Restart the scheme's phase."""
        raise NotImplementedError

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the heater is energised (for fouling/power)."""
        raise NotImplementedError


class ContinuousDrive(DriveScheme):
    """Plain DC biasing — the naive scheme that grows bubbles (fig. 7)."""

    def tick(self, dt: float) -> DriveDecision:
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        return DriveDecision(energise=True, control_active=True, sample_valid=True)

    def tick_block(self, dt: float, count: int
                   ) -> tuple[list, list, list]:
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        on = [True] * count
        return on, on, on

    def reset(self) -> None:
        """Stateless — nothing to do."""

    @property
    def duty_cycle(self) -> float:
        return 1.0


class PulsedDrive(DriveScheme):
    """Periodic on/off modulation of the bridge supply.

    Parameters
    ----------
    period_s:
        Full on+off cycle length.
    duty:
        Fraction of the period the heater is on.
    blanking_s:
        Time after each turn-on during which samples are discarded while
        the wire re-heats and the loop re-converges.
    """

    STATE = ("_t",)

    def __init__(self, period_s: float = 1.0, duty: float = 0.30,
                 blanking_s: float = 0.050) -> None:
        if period_s <= 0.0:
            raise ConfigurationError("period must be positive")
        if not 0.0 < duty < 1.0:
            raise ConfigurationError("duty must be in (0, 1)")
        if blanking_s < 0.0 or blanking_s >= duty * period_s:
            raise ConfigurationError(
                "blanking must be non-negative and shorter than the on-phase")
        self.period_s = period_s
        self.duty = duty
        self.blanking_s = blanking_s
        self._t = 0.0

    def tick(self, dt: float) -> DriveDecision:
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        phase = self._t % self.period_s
        self._t += dt
        on = phase < self.duty * self.period_s
        valid = on and phase >= self.blanking_s
        return DriveDecision(energise=on, control_active=on, sample_valid=valid)

    def tick_block(self, dt: float, count: int
                   ) -> tuple[list, list, list]:
        # Same phase arithmetic as ``count`` calls to :meth:`tick`
        # (``duty * period_s`` is loop-invariant, so hoisting it keeps
        # the comparison bits), minus the per-tick DriveDecision.
        if dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        t = self._t
        period = self.period_s
        on_len = self.duty * period
        blank = self.blanking_s
        energise: list[bool] = []
        valid: list[bool] = []
        on_append = energise.append
        valid_append = valid.append
        for _ in range(count):
            phase = t % period
            t += dt
            on = phase < on_len
            on_append(on)
            valid_append(on and phase >= blank)
        self._t = t
        # ``control_active`` mirrors ``energise`` for this scheme; the
        # shared list is safe because callers treat the channels as
        # read-only.
        return energise, energise, valid

    def reset(self) -> None:
        self._t = 0.0

    @property
    def duty_cycle(self) -> float:
        return self.duty

    @property
    def effective_sample_fraction(self) -> float:
        """Fraction of wall-clock time yielding valid samples."""
        return self.duty - self.blanking_s / self.period_s
