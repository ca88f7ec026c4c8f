"""Lint: no module reads a signal-chain stage's private fields.

Every stage declares its fields once (``STATE``, see :mod:`repro.state`),
and everything outside the stage reads them through ``state_of``.  The
scan walks every module of ``src/repro`` and fails on any ``x._name``
read where ``x`` is not ``self``/``cls`` and ``_name`` is a private
field of a declared stage class.  Every other cross-object private read
must be listed in :data:`ALLOWED`, so a new one (say, of a stage class
that declares nothing yet) shows up in review.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Cross-object private reads of objects that are not signal-chain
#: stages: (module path under ``src/repro``, attribute name).
ALLOWED = {
    ("runtime/mixed.py", "_dt"),            # sub-engine tick
    ("runtime/mixed.py", "_line_time"),     # sub-engine line clock
    ("runtime/mixed.py", "_provenance"),    # RunResult provenance
    ("runtime/result.py", "_provenance"),
    ("station/campaign.py", "_provenance"),
    ("service/service.py", "_dt"),          # session tick
    ("service/service.py", "_member"),      # cohort membership
    ("service/service.py", "_detach"),
    ("observability/tracer.py", "_record"),
    ("observability/tracer.py", "_stack"),
    ("observability/tracer.py", "_new_id"),
    ("observability/tracer.py", "_parent_context"),
    ("runtime/faults.py", "_exit"),         # os._exit
}


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _stage_fields() -> set[str]:
    """Private attributes a class with a ``STATE`` declaration assigns."""
    fields = set()
    for _, tree in _modules():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "STATE" for t in node.targets)
                    for node in cls.body)):
                continue
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                        and node.attr.startswith("_")):
                    fields.add(node.attr)
    return fields


def _private_reads(tree: ast.AST):
    """``(line, attribute)`` of every ``x._name`` with ``x`` not self/cls."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            yield node.lineno, node.attr


def test_the_scan_sees_stage_fields():
    fields = _stage_fields()
    assert {"_t_a", "_rng", "_saturated_sign", "_levels_v", "_t"} <= fields
    tree = ast.parse("rig.monitor.sensor._t_a\nself._t_a\ncls._t_a\n")
    assert list(_private_reads(tree)) == [(1, "_t_a")]


def test_no_module_reads_a_stage_private_field():
    fields = _stage_fields()
    offenders = [f"{module}:{line} .{name}"
                 for module, tree in _modules()
                 for line, name in _private_reads(tree) if name in fields]
    assert offenders == []


def test_other_cross_object_private_reads_are_listed():
    fields = _stage_fields()
    assert not {name for _, name in ALLOWED} & fields
    found = {(module, name) for module, tree in _modules()
             for _, name in _private_reads(tree)}
    assert found - ALLOWED == set()
    assert ALLOWED - found == set(), "stale allowlist entries"
