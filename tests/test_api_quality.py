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
    assert repro.__version__ == "3.0.0"


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
