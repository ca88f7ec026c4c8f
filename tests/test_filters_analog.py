"""Unit tests for the anti-alias filter."""

import numpy as np
import pytest
from scipy import signal

from repro.errors import ConfigurationError
from repro.isif.filters_analog import AntiAliasFilter


def test_validation():
    with pytest.raises(ConfigurationError):
        AntiAliasFilter(-1.0, 1000.0)
    with pytest.raises(ConfigurationError):
        AntiAliasFilter(600.0, 1000.0)  # above Nyquist


def test_dc_gain_unity():
    f = AntiAliasFilter(100.0, 1000.0)
    out = 0.0
    for _ in range(500):
        out = f.step(1.0)
    assert out == pytest.approx(1.0, abs=1e-6)


def test_step_matches_scipy_sosfilt():
    """The hand-rolled DF2T cascade must be bit-compatible with scipy."""
    f = AntiAliasFilter(80.0, 1000.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=300)
    mine = np.array([f.step(float(v)) for v in x])
    sos = signal.butter(2, 80.0, fs=1000.0, output="sos")
    ref = signal.sosfilt(sos, x)
    assert np.allclose(mine, ref, atol=1e-12)


def test_attenuation_at_stopband():
    fs, fc = 1000.0, 50.0
    f = AntiAliasFilter(fc, fs)
    n = 2000
    t = np.arange(n) / fs
    tone = np.sin(2 * np.pi * 400.0 * t)
    out = f.process(tone)[500:]
    # 2nd-order butterworth at 8x corner: ~36 dB down.
    assert np.std(out) < 0.03 * np.std(tone)


def test_passband_flat():
    fs, fc = 1000.0, 100.0
    f = AntiAliasFilter(fc, fs)
    t = np.arange(4000) / fs
    tone = np.sin(2 * np.pi * 10.0 * t)
    out = f.process(tone)[1000:]
    amp = np.sqrt(2.0) * np.std(out)
    assert amp == pytest.approx(1.0, abs=0.01)


def test_reset_to_dc_value():
    f = AntiAliasFilter(100.0, 1000.0)
    f.reset(2.0)
    assert f.step(2.0) == pytest.approx(2.0, abs=1e-3)


def test_state_carries_across_blocks():
    f1 = AntiAliasFilter(50.0, 1000.0)
    f2 = AntiAliasFilter(50.0, 1000.0)
    x = np.random.default_rng(1).normal(size=200)
    whole = f1.process(x)
    split = np.concatenate([f2.process(x[:100]), f2.process(x[100:])])
    assert np.allclose(whole, split)


def test_one_design_per_corner_and_rate(monkeypatch):
    """Every channel with the same corner and rate shares one design."""
    from repro.isif import filters_analog
    from repro.isif.platform import ISIFPlatform

    calls = []
    butter = signal.butter

    def counting_butter(*args, **kwargs):
        calls.append((args, kwargs))
        return butter(*args, **kwargs)

    filters_analog._butter_sos.cache_clear()
    monkeypatch.setattr(filters_analog.signal, "butter", counting_butter)
    platforms = [ISIFPlatform.for_anemometer(seed=seed) for seed in (3, 11)]
    filters = [ch.anti_alias for p in platforms for ch in p.channels]
    designs = {(f.cutoff_hz, f.sample_rate_hz) for f in filters}
    assert len(calls) == len(designs)
    monkeypatch.undo()

    for f in filters:
        sos = signal.butter(2, f.cutoff_hz, fs=f.sample_rate_hz, output="sos")
        assert f._coeffs == [tuple(float(c) for c in row) for row in sos]

    key = (filters[0].cutoff_hz, filters[0].sample_rate_hz)
    first, second = [f for f in filters
                     if (f.cutoff_hz, f.sample_rate_hz) == key][:2]
    for _ in range(50):
        first.step(1.0)
    assert second.step(1.0) == second._coeffs[0][0]
