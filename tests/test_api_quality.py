"""API quality gates: docstrings and export hygiene.

Deliverable-level checks enforced as tests: every public module, class,
function and method in the library carries a docstring, and every name
listed in a package's ``__all__`` actually resolves.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro.errors import ConfigurationError

PACKAGES = [
    "repro",
    "repro.physics",
    "repro.sensor",
    "repro.isif",
    "repro.conditioning",
    "repro.baselines",
    "repro.station",
    "repro.analysis",
    "repro.runtime",
    "repro.observability",
    "repro.service",
]


def iter_modules():
    seen = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        seen.append(pkg)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                if info.name == "__main__":
                    continue  # importing it would execute the CLI
                seen.append(importlib.import_module(f"{pkg_name}.{info.name}"))
    return seen


@pytest.mark.parametrize("module", iter_modules(),
                         ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


@pytest.mark.parametrize("module", iter_modules(),
                         ids=lambda m: m.__name__)
def test_public_api_documented(module):
    undocumented = []
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue  # re-exports are checked at their home module
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not inspect.getdoc(obj):
                undocumented.append(name)
            if inspect.isclass(obj):
                for m_name, member in vars(obj).items():
                    if m_name.startswith("_"):
                        continue
                    if inspect.isfunction(member) and not inspect.getdoc(member):
                        undocumented.append(f"{name}.{m_name}")
    assert not undocumented, (
        f"{module.__name__}: missing docstrings on {undocumented}")


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_all_exports_resolve(pkg_name):
    pkg = importlib.import_module(pkg_name)
    exported = getattr(pkg, "__all__", [])
    missing = [name for name in exported if not hasattr(pkg, name)]
    assert not missing, f"{pkg_name}.__all__ lists unknown names {missing}"


def test_version_string():
    assert repro.__version__ == "7.0.0"


def test_removed_in_5_0():
    """5.0 keeps only the run knobs callers vary.

    ``Session.run(engine=)``, ``run_batch``, ``resolve_workers`` and
    ``chunk_size`` on every layer above ``BatchEngine`` are gone; the
    engine itself keeps ``chunk_size``.
    """
    from repro.runtime import (BatchEngine, MixedEngine, Session,
                               ShardedEngine, run_durable)
    from repro.station import run_campaign

    def params(func):
        return inspect.signature(func).parameters

    for func in (Session.run, repro.run):
        assert "engine" not in params(func), func
    for func in (Session, repro.FleetService, repro.connect, run_campaign,
                 run_durable, MixedEngine, ShardedEngine):
        assert "chunk_size" not in params(func), func
    with pytest.raises(TypeError):
        repro.connect(chunk_size=256)  # not forwarded to the service
    runtime = importlib.import_module("repro.runtime")
    for name in ("run_batch", "resolve_workers"):
        for pkg in (repro, runtime):
            assert not hasattr(pkg, name), f"{pkg.__name__}.{name}"
            assert name not in pkg.__all__
    assert not hasattr(importlib.import_module("repro.runtime.batch"),
                       "run_batch")
    assert not hasattr(importlib.import_module("repro.runtime.parallel"),
                       "resolve_workers")
    assert params(BatchEngine)["chunk_size"].default == 1024
    assert params(ShardedEngine)["workers"].default is \
        inspect.Parameter.empty


def test_removed_in_6_0():
    """6.0 keeps one spelling per run knob.

    ``collect=`` (callers use ``.summary()``), the ``snapshot_s``
    loop-cadence alias (``record_every_n`` is the one cadence knob, in
    loop ticks), the ``n_monitors``/``seed`` fleet alias (a fleet is
    ``fleet=FleetSpec.homogeneous(n, seed=s)``), the ``Numerics``
    policy class (``numerics`` is a mode string) and the duplicate seed
    and ``exp`` helpers are gone.  ``MonitoredNetwork.run`` keeps its
    own ``snapshot_s``: the day-scale meter reporting cadence.
    """
    from repro.runtime import FleetSpec, Session, resolve_numerics
    from repro.station import MonitoredNetwork, TestRig, run_campaign
    from repro.station.profiles import hold

    def params(func):
        return inspect.signature(func).parameters

    profile = hold(50.0, 0.1)
    # Arguments bind before any body runs, so the stand-in ``self``
    # values below are never touched.
    with pytest.raises(TypeError):
        Session.run(None, profile, collect="summary")
    with pytest.raises(TypeError):
        Session.run(None, profile, snapshot_s=0.05)
    with pytest.raises(TypeError):
        TestRig.run(None, profile, collect="summary")
    with pytest.raises(TypeError):
        TestRig.run(None, profile, snapshot_s=0.05)
    with pytest.raises(TypeError):
        MonitoredNetwork.run(None, 1.0, collect="summary")
    with pytest.raises(TypeError):
        repro.run(profile, collect="summary")
    with pytest.raises(TypeError):
        repro.run(profile, snapshot_s=0.05)
    with pytest.raises(TypeError):
        repro.run(profile, n_monitors=2)
    with pytest.raises(TypeError):
        repro.run(profile, seed=7)
    with pytest.raises(TypeError):
        Session(2, 7)
    with pytest.raises(TypeError):
        Session(n_monitors=2)
    with pytest.raises(TypeError):
        Session(seed=7)
    with pytest.raises(TypeError):
        repro.FleetService.attach(None, profile, snapshot_s=0.05)
    with pytest.raises(TypeError):
        repro.FleetService.attach(None, profile, n_monitors=2)
    with pytest.raises(TypeError):
        repro.FleetService.attach(None, profile, seed=7)
    with pytest.raises(TypeError):
        run_campaign(FleetSpec.homogeneous(1), duration_s=1.0,
                     snapshot_s=0.05)
    assert "snapshot_s" in params(MonitoredNetwork.run)
    for func in (Session.run, TestRig.run, repro.run,
                 repro.FleetService.attach, run_campaign):
        assert params(func)["record_every_n"].default == 20, func
    assert list(params(Session)) == ["fleet", "checkpoint_dir"]

    runtime = importlib.import_module("repro.runtime")
    for pkg in (repro, runtime):
        assert not hasattr(pkg, "Numerics"), pkg.__name__
        assert "Numerics" not in pkg.__all__
    for module, name in (("repro.runtime.kernels", "Numerics"),
                         ("repro.runtime.session", "resolve_record_every_n"),
                         ("repro.runtime.parallel", "spawn_monitor_seeds"),
                         ("repro.runtime", "spawn_monitor_seeds"),
                         ("repro.runtime.batch", "_vexp")):
        assert not hasattr(importlib.import_module(module), name), name

    class Policy:
        mode = "fast"

    with pytest.raises(ConfigurationError) as excinfo:
        resolve_numerics(Policy())
    assert excinfo.value.reason == "numerics"


def test_removed_in_7_0():
    """7.0 runs config groups, not row shards, as parallel jobs.

    ``partition_monitors`` (the contiguous row split) is gone from
    ``repro``, ``repro.runtime`` and ``repro.runtime.parallel``;
    ``ShardedEngine`` keeps its name and knobs and is a
    :class:`MixedEngine` with a required worker count.
    """
    from repro.runtime import MixedEngine, ShardedEngine

    runtime = importlib.import_module("repro.runtime")
    parallel = importlib.import_module("repro.runtime.parallel")
    for pkg in (repro, runtime):
        assert not hasattr(pkg, "partition_monitors"), pkg.__name__
        assert "partition_monitors" not in pkg.__all__
    assert not hasattr(parallel, "partition_monitors")
    assert parallel.__all__ == ["ShardedEngine"]
    assert issubclass(ShardedEngine, MixedEngine)
    assert list(inspect.signature(ShardedEngine).parameters) == [
        "rigs", "workers", "max_retries", "timeout_s", "numerics"]


def test_error_hierarchy_single_source():
    """``repro.errors.__all__`` is the one list of library exceptions.

    Every ``ReproError`` subclass defined anywhere in the package must
    live in :mod:`repro.errors` and be listed in its ``__all__`` — no
    module may grow a private exception class on the side.
    """
    from repro.errors import ReproError

    errors = importlib.import_module("repro.errors")
    listed = set(errors.__all__)
    for module in iter_modules():
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and issubclass(obj, ReproError):
                assert obj.__module__ == "repro.errors", (
                    f"{module.__name__}.{name} defines an exception "
                    f"outside repro.errors")
                assert obj.__name__ in listed, (
                    f"{obj.__name__} missing from repro.errors.__all__")


def test_facade_single_source():
    """``repro.run`` / ``repro.connect`` are THE client entry points.

    Both live in :mod:`repro.service.facade` and are re-exported by
    identity from ``repro`` and ``repro.service`` — no module may grow
    a competing top-level run/connect spelling on the side.
    """
    facade = importlib.import_module("repro.service.facade")
    service_pkg = importlib.import_module("repro.service")
    for name in ("run", "connect"):
        obj = getattr(facade, name)
        assert obj.__module__ == "repro.service.facade"
        assert getattr(repro, name) is obj, f"repro.{name} is not the facade"
        assert getattr(service_pkg, name) is obj
        assert name in repro.__all__
    # the streamed handle types come from one home module too
    for name in ("FleetService", "ClientSession"):
        assert getattr(repro, name) is getattr(
            importlib.import_module("repro.service.service"), name)
    assert repro.Snapshot is importlib.import_module(
        "repro.service.streams").Snapshot


def test_concat_single_source():
    """``RunResult.concat`` is THE merge: one axis-aware classmethod.

    The 1.x ``concat_time`` alias is gone, so no second merge spelling
    can creep back in beside it.
    """
    from repro.runtime import RunResult
    public = [name for name in vars(RunResult)
              if "concat" in name and not name.startswith("_")]
    assert public == ["concat"], public


def test_errors_reexported_from_top_level():
    """The full exception hierarchy is importable from ``repro`` itself,
    by identity, and listed in ``repro.__all__``."""
    errors = importlib.import_module("repro.errors")
    for name in errors.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"
        assert getattr(repro, name) is getattr(errors, name), (
            f"repro.{name} is not the repro.errors class")
        assert name in repro.__all__, f"{name} not in repro.__all__"
    assert len(repro.__all__) == len(set(repro.__all__)), (
        "repro.__all__ contains duplicates")
