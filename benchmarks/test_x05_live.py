"""X5 — live-plane overhead (snapshot sampler on vs off).

Times the same resident-service workload (one 16-rig client, 4 s
horizon, 8 streamed windows) with the live snapshot pipeline sampling
at its service-default 20 Hz test cadence and with it off, interleaved
best-of-3 so machine drift hits both arms equally.  The bars: the
sampler costs at most 3 % of streaming wall time at N=16, and the
streamed results are bit-identical in both modes (monitoring must
never perturb numerics).
"""

import asyncio
import time

import numpy as np
import pytest

from repro import observability as obs
from repro.observability import MetricsRegistry
from repro.runtime import FleetSpec, RunResult
from repro.service import FleetService
from repro.station.profiles import hold

pytestmark = [pytest.mark.slow, pytest.mark.service, pytest.mark.live]

N_MONITORS = 16
DURATION_S = 4.0
TICK_STEPS = 500  # 8 windows
SEED = 7500
CADENCE_S = 0.05  # 10x the service default: a worst-case sampling load


def _run_once(sample: bool):
    """One streamed service run; returns (stream wall s, result, ring)."""
    profile = hold(50.0, DURATION_S)

    async def drive():
        async with FleetService(
                tick_steps=TICK_STEPS,
                sample_every_s=CADENCE_S if sample else None) as service:
            client = await service.attach(profile, fleet=FleetSpec.homogeneous(
                    N_MONITORS, seed=SEED, fast_calibration=True))
            t0 = time.perf_counter()
            async for _ in client.snapshots():
                pass
            result = await client.result()
            stream_s = time.perf_counter() - t0
            ring = 0 if service.pipeline is None else len(service.pipeline)
        return stream_s, result, ring

    return asyncio.run(drive())


def test_x05_live_sampler_overhead_and_parity():
    """Sampler on vs off: <= 3 % overhead, bit-identical streams."""
    old_registry = obs.get_registry()
    obs.set_registry(MetricsRegistry(enabled=True))
    try:
        _run_once(False)  # warm the calibration cache outside the clocks

        off_s, on_s = [], []
        reference = None
        ring_total = 0
        for _ in range(3):
            t_off, result_off, _ = _run_once(False)
            t_on, result_on, ring = _run_once(True)
            off_s.append(t_off)
            on_s.append(t_on)
            ring_total += ring
            if reference is None:
                reference = result_off
            for result in (result_off, result_on):
                for name in ("time_s",) + RunResult.STACKED_FIELDS:
                    assert np.array_equal(
                        np.asarray(getattr(result, name)),
                        np.asarray(getattr(reference, name))), name
    finally:
        obs.set_registry(old_registry)

    assert ring_total > 0  # the sampler provably ran in the on arm
    samples = N_MONITORS * int(round(DURATION_S * 1000.0))
    overhead = min(on_s) / min(off_s) - 1.0
    stage = {
        "n_monitors": N_MONITORS,
        "samples": samples,
        "tick_steps": TICK_STEPS,
        "sampler_cadence_s": CADENCE_S,
        "rounds": 3,
        "off_s": min(off_s),
        "on_s": min(on_s),
        "off_samples_per_s": samples / min(off_s),
        "on_samples_per_s": samples / min(on_s),
        "sampler_overhead": overhead,
        "ring_samples": ring_total,
        "bit_identical": True,
    }
    print("\nX5 live-plane overhead (sampler on vs off, best of 3):")
    print(f"  off: {stage['off_samples_per_s']:.0f} samples/s "
          f"({stage['off_s'] * 1e3:.1f} ms)")
    print(f"  on:  {stage['on_samples_per_s']:.0f} samples/s "
          f"({stage['on_s'] * 1e3:.1f} ms), "
          f"{ring_total} ring samples")
    print(f"  overhead: {overhead:+.2%}")

    assert overhead <= 0.03, stage
