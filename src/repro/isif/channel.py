"""One complete ISIF input channel (fig. 4): AFE → anti-alias → ΣΔ →
decimation/low-pass.

The channel is configured through its register file exactly as firmware
would configure the silicon: write ``CTRL``/``LPF`` fields, then pulse
``apply_registers``.  Its per-tick product is an *input-referred* digital
sample of the bridge differential — the quantity the closed loop's
reference subtraction consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.isif.afe import GAIN_STEPS, AFEConfig, AnalogFrontEnd, ReadoutMode
from repro.isif.filters_analog import AntiAliasFilter
from repro.isif.iir import OnePoleLowpass
from repro.isif.registers import Field, Register, RegisterFile
from repro.isif.sigma_delta import BehavioralAdc, SigmaDeltaAdc

__all__ = ["ChannelConfig", "InputChannel"]

_MODE_CODES = {0: ReadoutMode.INSTRUMENT, 1: ReadoutMode.CHARGE, 2: ReadoutMode.TRANSRESISTIVE}


@dataclass(frozen=True)
class ChannelConfig:
    """Static channel configuration.

    Attributes
    ----------
    sample_rate_hz:
        Conversion rate (the control-loop tick rate).
    afe:
        Front-end configuration.
    bit_true_adc:
        Select the bit-true ΣΔ + CIC instead of the behavioural ADC.
    adc_osr:
        Oversampling ratio of the bit-true modulator.
    digital_lpf_cutoff_hz:
        Post-decimation one-pole low-pass corner ("The digital section
        decimates the ΣΔ ADC output and low-pass filters", §4).
    vref_v:
        ADC reference (full scale ±vref at the AFE output).
    seed:
        Noise seed for this channel instance.
    """

    sample_rate_hz: float = 1000.0
    afe: AFEConfig = AFEConfig()
    bit_true_adc: bool = False
    adc_osr: int = 64
    digital_lpf_cutoff_hz: float = 50.0
    vref_v: float = 2.5
    seed: int = 7

    def __post_init__(self) -> None:
        if self.sample_rate_hz <= 0.0:
            raise ConfigurationError("sample rate must be positive")
        if not 0.0 < self.digital_lpf_cutoff_hz < self.sample_rate_hz / 2.0:
            raise ConfigurationError("digital LPF corner must be inside (0, Nyquist)")


class InputChannel:
    """Stateful signal chain for one analog input.

    Its state is the register image, the configuration last applied
    from it, and the chain stages that configuration built.
    """

    STATE = ("config", "register_values", "afe", "anti_alias", "adc",
             "digital_lpf")

    def __init__(self, config: ChannelConfig | None = None, name: str = "ch0") -> None:
        self.name = name
        self.config = config or ChannelConfig()
        self.registers = self._build_registers()
        self._rebuild()

    @property
    def register_values(self) -> dict[str, int]:
        """Every register's word, keyed by register name."""
        return self.registers.dump()

    @register_values.setter
    def register_values(self, values: dict[str, int]) -> None:
        for name, value in values.items():
            self.registers.reg(name).write(value)

    # -- register interface ------------------------------------------------------

    def _build_registers(self) -> RegisterFile:
        rf = RegisterFile(f"{self.name}_regs")
        rf.add(Register("CTRL", 0x00, reset=0, fields=(
            Field("MODE", 0, 2),
            Field("GAIN", 2, 3),
            Field("ADC_SEL", 5, 1),      # 0 = behavioural, 1 = bit-true
            Field("ENABLE", 6, 1),
        )))
        rf.add(Register("LPF", 0x04, reset=50, fields=(
            Field("CUTOFF_HZ", 0, 12),
        )))
        rf.add(Register("TRIM", 0x08, reset=2048, fields=(
            Field("OFFSET", 0, 12),      # offset trim, ±rail/2 span, mid = 0
        )))
        # Reflect the dataclass defaults into the reset image.
        ctrl = rf.reg("CTRL")
        ctrl.write_field("GAIN", self.config.afe.gain_index)
        ctrl.write_field("ADC_SEL", int(self.config.bit_true_adc))
        ctrl.write_field("ENABLE", 1)
        rf.reg("LPF").write_field("CUTOFF_HZ", int(self.config.digital_lpf_cutoff_hz))
        return rf

    def apply_registers(self) -> None:
        """Rebuild the signal chain from the current register image."""
        ctrl = self.registers.reg("CTRL")
        mode = _MODE_CODES.get(ctrl.read_field("MODE"))
        if mode is None:
            raise ConfigurationError(f"{self.name}: reserved MODE code")
        gain_index = ctrl.read_field("GAIN")
        if gain_index >= len(GAIN_STEPS):
            raise ConfigurationError(f"{self.name}: GAIN code {gain_index} unused")
        trim_code = self.registers.reg("TRIM").read_field("OFFSET")
        trim_v = (trim_code - 2048) / 2048.0 * self.config.afe.rail_v / 2.0
        cutoff = float(self.registers.reg("LPF").read_field("CUTOFF_HZ"))
        if not 0.0 < cutoff < self.config.sample_rate_hz / 2.0:
            raise ConfigurationError(f"{self.name}: LPF cutoff {cutoff} Hz out of range")
        self.config = replace(
            self.config,
            afe=replace(self.config.afe, mode=mode, gain_index=gain_index,
                        offset_trim_v=trim_v),
            bit_true_adc=bool(ctrl.read_field("ADC_SEL")),
            digital_lpf_cutoff_hz=cutoff,
        )
        self._rebuild()

    # -- processing ---------------------------------------------------------------

    def _rebuild(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        self.afe = AnalogFrontEnd(cfg.afe, rng=np.random.default_rng(cfg.seed + 1))
        anti_alias_corner = min(cfg.sample_rate_hz * 0.4, 4.0 * cfg.digital_lpf_cutoff_hz * 4)
        anti_alias_corner = min(max(anti_alias_corner, cfg.digital_lpf_cutoff_hz * 2),
                                cfg.sample_rate_hz * 0.45)
        self.anti_alias = AntiAliasFilter(anti_alias_corner, cfg.sample_rate_hz)
        if cfg.bit_true_adc:
            self.adc: BehavioralAdc | SigmaDeltaAdc = SigmaDeltaAdc(
                vref_v=cfg.vref_v, osr=cfg.adc_osr,
                rng=np.random.default_rng(cfg.seed + 2))
        else:
            self.adc = BehavioralAdc(vref_v=cfg.vref_v,
                                     rng=np.random.default_rng(cfg.seed + 2))
        self.digital_lpf = OnePoleLowpass(cfg.digital_lpf_cutoff_hz, cfg.sample_rate_hz)
        self._period_s = 1.0 / cfg.sample_rate_hz

    def acquire(self, analog_input: float) -> float:
        """One conversion tick: raw analog input → input-referred volts.

        The returned value is divided by the AFE gain so the firmware
        reasons in bridge-voltage units regardless of the PGA setting.
        """
        conditioned = self.afe.process(analog_input, self._period_s)
        band_limited = self.anti_alias.step(conditioned)
        code = self.adc.convert(band_limited)
        filtered = self.digital_lpf.step(self.adc.to_volts(code))
        return filtered / self.config.afe.gain

    def acquire_block(self, analog_inputs: np.ndarray) -> np.ndarray:
        """Convert a block of consecutive samples."""
        return np.array([self.acquire(float(v)) for v in analog_inputs])

    def input_referred_noise_vrms(self, samples: int = 2000) -> float:
        """Measure the chain's input-referred noise floor empirically.

        Feeds zero volts for ``samples`` ticks and returns the standard
        deviation of the output — the number that ultimately limits the
        flow resolution (experiment E2).
        """
        if samples < 10:
            raise ConfigurationError("need at least 10 samples")
        out = self.acquire_block(np.zeros(samples))
        settled = out[samples // 5:]
        return float(np.std(settled))
