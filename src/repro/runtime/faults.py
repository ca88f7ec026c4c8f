"""The single fault-injection hook: the ``REPRO_FAULT`` environment variable.

Tests and CI set one variable to make a run fail at a chosen point.
The spec is parsed here and nowhere else, and two sites honour it:

- the shard worker entry of the parallel runtime
  (:func:`shard_site`): ``crash:<i>`` hard-exits, ``hang:<i>`` sleeps
  for an hour, ``raise:<i>`` raises, and ``crash-once:<i>:<marker-dir>``
  hard-exits the first time only (the marker directory persists the
  "already tripped" bit across retried worker processes) — each for
  shard ``i``;
- the checkpoint write of the windowed-run driver
  (:func:`checkpoint_site`, see
  :class:`repro.runtime.checkpoint.WindowedRun`): ``kill:<k>`` SIGKILLs
  the process right after its k-th checkpoint write, so durable runs,
  campaigns and service cohorts share one deterministic crash point.

A spec names one site; the other site ignores it.  An unknown mode is
refused with :class:`~repro.errors.ConfigurationError` rather than
silently injecting nothing.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

from repro.errors import ConfigurationError

__all__ = ["FAULT_ENV", "shard_site", "checkpoint_site"]

#: Environment variable holding the fault spec (``<mode>:<target>[:...]``).
FAULT_ENV = "REPRO_FAULT"

_SHARD_MODES = ("crash", "hang", "raise", "crash-once")
_CHECKPOINT_MODES = ("kill",)

#: Checkpoint writes this process has made through the driver.
_checkpoint_writes = 0


def _parse() -> tuple[str, int, list[str]] | None:
    """``(mode, target, extra)`` of the active spec, or None if unset."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return None
    mode, _, rest = spec.partition(":")
    if mode not in _SHARD_MODES + _CHECKPOINT_MODES:
        raise ConfigurationError(
            f"unknown {FAULT_ENV} mode {mode!r}; one of "
            f"{list(_SHARD_MODES + _CHECKPOINT_MODES)}")
    target, *extra = rest.split(":")
    return mode, int(target), extra


def shard_site(shard_index: int) -> None:
    """Inject the configured shard fault if it targets this shard."""
    parsed = _parse()
    if parsed is None:
        return
    mode, target, extra = parsed
    if mode not in _SHARD_MODES or target != shard_index:
        return
    if mode == "crash":
        os._exit(3)  # hard death: the parent sees a broken pool
    elif mode == "hang":
        time.sleep(3600.0)
    elif mode == "raise":
        raise RuntimeError(f"injected worker fault on shard {shard_index}")
    else:  # crash-once
        marker = Path(extra[0]) / f"shard{shard_index}.tripped"
        if not marker.exists():
            marker.touch()
            os._exit(3)


def checkpoint_site() -> None:
    """Count one driver checkpoint write; SIGKILL on ``kill:<k>``."""
    global _checkpoint_writes
    _checkpoint_writes += 1
    parsed = _parse()
    if parsed is not None and parsed[0] == "kill" \
            and parsed[1] == _checkpoint_writes:
        os.kill(os.getpid(), signal.SIGKILL)
