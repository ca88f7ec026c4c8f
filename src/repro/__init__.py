"""anemos -- reproduction of "Hot Wire Anemometric MEMS Sensor for Water
Flow Monitoring" (DATE 2008).

Layers (bottom up):

* :mod:`repro.physics` -- water properties, convection/King's law,
  thermal RC networks, turbulence, carbonate chemistry;
* :mod:`repro.sensor` -- the MEMS MAF die: resistors, membrane, bridges,
  bubbles, fouling, housing;
* :mod:`repro.isif` -- the ISIF platform SoC: AFE, sigma-delta ADC,
  DACs, fixed-point DSP IPs, scheduler, power model;
* :mod:`repro.conditioning` -- the paper's contribution: constant-
  temperature loop, pulsed drive, calibration, flow/direction
  estimation, leak detection;
* :mod:`repro.baselines` -- Promag 50 and turbine-wheel comparators;
* :mod:`repro.station` -- the simulated Vinci test line and rig, plus
  scenario campaigns (demand generators + event injection) over
  ``FleetSpec``-described fleets;
* :mod:`repro.analysis` -- section-5 metrics and sweep/report helpers;
* :mod:`repro.runtime` -- fleet-scale sessions over the vectorized
  batch engine and the process-parallel sharded engine;
* :mod:`repro.service` -- the resident asyncio streaming service
  multiplexing concurrent client runs onto shared engine ticks;
* :mod:`repro.store` / :mod:`repro.runtime.checkpoint` -- the
  durability layer: a disk-backed artifact store under the calibration
  cache, and bit-exact engine checkpoints that let crashed runs,
  campaigns and service cohorts resume exactly where they died.

Quick start (one monitor)::

    from repro import build_calibrated_monitor, hold

    setup = build_calibrated_monitor(seed=1)
    record = setup.rig.run(hold(speed_cmps=120.0, duration_s=20.0))
    print(record.measured_mps[-1] * 100.0, "cm/s")

Quick start (a fleet, one call)::

    import repro

    result = repro.run(repro.staircase([0.0, 50.0, 120.0], dwell_s=10.0),
                       fleet=repro.FleetSpec.homogeneous(16, seed=1))
    print(result.summary(monitor=0))

Quick start (streaming)::

    async with repro.connect() as client:
        session = await client.attach(
            profile, fleet=repro.FleetSpec.homogeneous(4, seed=7))
        async for snap in session.snapshots():
            ...
        result = await session.result()  # bit-identical to repro.run
"""

# The exception hierarchy is re-exported wholesale: repro.errors.__all__
# is the single source of truth, so a class added there is automatically
# part of the top-level API (asserted by tests/test_api_quality.py).
from repro import errors as errors
from repro.errors import *  # noqa: F401,F403
from repro.physics.kings_law import KingsLaw, fit_kings_law
from repro.sensor.maf import MAFSensor, MAFConfig, FlowConditions
from repro.isif.platform import ISIFPlatform
from repro.conditioning.cta import CTAController, CTAConfig
from repro.conditioning.monitor import WaterFlowMonitor, FlowMeasurement, MonitorConfig
from repro.conditioning.calibration import FlowCalibration
from repro.conditioning.drive import ContinuousDrive, PulsedDrive
from repro.conditioning.leak_detect import LeakDetector, NetworkSegmentMonitor
from repro.baselines.promag import Promag50
from repro.baselines.turbine import TurbineMeter
from repro.station.scenarios import build_calibrated_monitor, CalibratedSetup, vinci_station
from repro.station.profiles import hold, staircase, ramp, step, bidirectional_staircase, pressure_peaks
from repro.station.rig import TestRig, run_calibration
from repro.runtime import (BatchEngine, Checkpoint, FleetSpec, MixedEngine,
                           MonitorHandle, RigSpec, RunResult, Session,
                           ShardedEngine, load_checkpoint, run_durable,
                           save_checkpoint)
from repro.station.campaign import (Event, ScenarioSpec, builtin_scenario,
                                    household_demand, run_campaign,
                                    station_demand)
from repro.service import (ClientSession, FleetService, RecoveredCohort,
                           ServiceClient, Snapshot, connect,
                           recover_cohorts, run)
from repro.store import (ArtifactStore, canonical_key, get_default_store,
                         set_default_store)

__version__ = "9.0.0"

__all__ = [
    *errors.__all__,
    "KingsLaw",
    "fit_kings_law",
    "MAFSensor",
    "MAFConfig",
    "FlowConditions",
    "ISIFPlatform",
    "CTAController",
    "CTAConfig",
    "WaterFlowMonitor",
    "FlowMeasurement",
    "MonitorConfig",
    "FlowCalibration",
    "ContinuousDrive",
    "PulsedDrive",
    "LeakDetector",
    "NetworkSegmentMonitor",
    "Promag50",
    "TurbineMeter",
    "build_calibrated_monitor",
    "CalibratedSetup",
    "vinci_station",
    "hold",
    "staircase",
    "ramp",
    "step",
    "bidirectional_staircase",
    "pressure_peaks",
    "TestRig",
    "run_calibration",
    "Session",
    "MonitorHandle",
    "BatchEngine",
    "ShardedEngine",
    "MixedEngine",
    "FleetSpec",
    "RigSpec",
    "RunResult",
    "Event",
    "ScenarioSpec",
    "builtin_scenario",
    "household_demand",
    "station_demand",
    "run_campaign",
    "FleetService",
    "ClientSession",
    "RecoveredCohort",
    "ServiceClient",
    "Snapshot",
    "connect",
    "recover_cohorts",
    "run",
    "ArtifactStore",
    "canonical_key",
    "get_default_store",
    "set_default_store",
    "Checkpoint",
    "save_checkpoint",
    "load_checkpoint",
    "run_durable",
    "__version__",
]
