"""Declared stage state: one ``state_of``/``load_state`` pair for the chain.

Every signal-chain stage names its fields once, in a class-level
``STATE`` tuple: realized per-die values, the derived constants the
batch engine hoists, and live state, generators included.  A field
holding another declared stage nests that stage's state under its key.
Nothing outside a stage reads its private attributes: the batch engine,
the rig signature and the calibration snapshot go through this pair.
"""

from __future__ import annotations

import copy
import functools

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["state_of", "load_state"]


def state_of(obj) -> dict:
    """The declared fields, keyed without the leading underscore.

    Values are the live ones (generators and arrays, not copies);
    :func:`load_state` copies, so one state can seed many stages.
    """
    state = {}
    for name, key in _fields(type(obj)):
        value = getattr(obj, name)
        state[key] = state_of(value) if _declared(type(value)) else value
    return state


def load_state(obj, state: dict) -> None:
    """Copy ``state`` (a :func:`state_of` of the same class) into ``obj``.

    Raises
    ------
    ConfigurationError
        (``reason="state"``) if the keys at any level differ from the
        declarations; nothing is written then.
    """
    writes: list[tuple] = []
    _plan(obj, state, writes)
    for target, name, value in writes:
        current = getattr(target, name)
        if isinstance(current, np.random.Generator):
            current.bit_generator.state = value.bit_generator.state
        else:
            setattr(target, name, copy.deepcopy(value))


# Both lookups are cached per class: ``state_of`` sits on every engine
# build, and a failed ``hasattr`` on a value's type costs more than the
# rest of the field's read.
@functools.cache
def _declared(cls) -> bool:
    return hasattr(cls, "STATE")


@functools.cache
def _fields(cls) -> tuple:
    """``(attribute, key)`` pairs of a declared class."""
    return tuple((name, name.lstrip("_")) for name in cls.STATE)


def _plan(obj, state, writes: list[tuple]) -> None:
    """Check ``state`` against the declarations; queue the leaf writes."""
    keys = {key: name for name, key in _fields(type(obj))}
    if not isinstance(state, dict) or state.keys() != keys.keys():
        raise ConfigurationError(f"{type(obj).__name__} state must hold "
                                 f"exactly {sorted(keys)}", reason="state")
    for key, name in keys.items():
        part, value = getattr(obj, name), state[key]
        if _declared(type(part)):
            _plan(part, value, writes)
        else:
            writes.append((obj, name, value))
