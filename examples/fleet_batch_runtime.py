"""Fleet-scale monitoring through the batched session runtime.

The §6 vision is a MAF monitoring point at both ends of every pipe of a
distribution network.  This example runs a 12-monitor fleet through
``repro.runtime.Session`` — the chunk-vectorized batch engine — then
re-runs one monitor through the scalar reference path to show the two
are bit-identical, and prints the per-monitor steady statistics the
fleet model consumes.

Run:  python examples/fleet_batch_runtime.py
"""

import time

import numpy as np

from repro import FleetSpec, Session, hold
from repro.analysis.report import format_table

N_MONITORS = 12
SPEED_CMPS = 120.0
DURATION_S = 10.0


def main() -> None:
    print(f"Calibrating a {N_MONITORS}-monitor fleet ...")
    # Continuous drive for clean steady statistics (the pulsed drive
    # gates the estimator to a 30 % duty and is studied elsewhere).
    fleet = FleetSpec.homogeneous(N_MONITORS, seed=2024,
                                  use_pulsed_drive=False,
                                  fast_calibration=True)
    with Session(fleet=fleet) as session:
        session.calibrate()

        profile = hold(SPEED_CMPS, DURATION_S)
        t0 = time.perf_counter()
        result = session.run(profile, engine="batch")
        batch_s = time.perf_counter() - t0
        print(f"Batched run: {N_MONITORS} monitors x "
              f"{int(DURATION_S * 1000)} samples in {batch_s:.2f} s")

        # The scalar path is the reference implementation; same seeds,
        # same traces, bit for bit.
        scalar = session.run(profile, engine="scalar")
        identical = all(
            np.array_equal(getattr(result, name), getattr(scalar, name))
            for name in result.STACKED_FIELDS)
        print(f"Batch vs scalar traces bit-identical: {identical}")

    rows = []
    for i in range(N_MONITORS):
        window = result.trace(i).steady_window(0.5 * DURATION_S, DURATION_S)
        stats = window.summary()["measured_mps"]
        rows.append((i, round(stats["mean"] * 100.0, 2),
                     round(stats["std"] * 100.0, 3)))
    print()
    print(format_table(
        ["monitor", "mean [cm/s]", "sigma [cm/s]"], rows,
        title=f"Fleet steady statistics at {SPEED_CMPS:.0f} cm/s"))


if __name__ == "__main__":
    main()
