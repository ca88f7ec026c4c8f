"""Batched run results: the fleet-wide counterpart of ``RigRecord``.

A :class:`RunResult` holds the decimated traces of N monitors advanced
in lock-step by the batch engine (or assembled from N scalar rig runs).
Time is shared across the fleet — every monitor sees the same line
profile — while the per-monitor traces are stacked ``(N, M)`` arrays.
``trace(i)`` rehydrates a plain :class:`~repro.station.rig.RigRecord`
so all existing single-monitor analysis keeps working.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.station.rig import RigRecord

__all__ = ["RunResult"]

#: Namespace prefix aligning summary keys with the metrics registry
#: (``run.measured_mps`` matches the ``run.measured_mps.mean`` gauge the
#: session publishes after an instrumented run).
_SUMMARY_PREFIX = "run."


@dataclass
class RunResult:
    """Decimated traces for a fleet of N monitors over M record ticks.

    ``time_s`` is a shared ``(M,)`` vector; every other trace is an
    ``(N, M)`` array whose row ``i`` belongs to monitor ``i``.
    """

    time_s: np.ndarray
    true_speed_mps: np.ndarray
    reference_mps: np.ndarray
    measured_mps: np.ndarray
    direction: np.ndarray
    pressure_pa: np.ndarray
    temperature_k: np.ndarray
    bubble_coverage: np.ndarray

    #: Stacked per-monitor traces, in RigRecord field order.
    STACKED_FIELDS = ("true_speed_mps", "reference_mps", "measured_mps",
                      "direction", "pressure_pa", "temperature_k",
                      "bubble_coverage")

    def __post_init__(self) -> None:
        """Validate that the stacked traces agree in shape."""
        m = len(self.time_s)
        for name in self.STACKED_FIELDS:
            arr = getattr(self, name)
            if arr.ndim != 2 or arr.shape[1] != m:
                raise ConfigurationError(
                    f"trace {name!r} must be (N, {m}), got {arr.shape}")

    def __len__(self) -> int:
        return int(self.time_s.shape[0])

    @property
    def n_monitors(self) -> int:
        """Number of monitors (rows) in the result."""
        return int(self.measured_mps.shape[0])

    def trace(self, index: int) -> RigRecord:
        """Extract monitor ``index`` as a scalar-compatible RigRecord."""
        if not 0 <= index < self.n_monitors:
            raise ConfigurationError(
                f"monitor index {index} out of range [0, {self.n_monitors})")
        return RigRecord(
            time_s=self.time_s.copy(),
            **{name: getattr(self, name)[index].copy()
               for name in self.STACKED_FIELDS},
        )

    def records(self) -> list[RigRecord]:
        """All monitors as a list of RigRecords (convenience)."""
        return [self.trace(i) for i in range(self.n_monitors)]

    def attach_profile(self, stages: dict) -> "RunResult":
        """Attach a per-stage profiling report (returns self).

        ``stages`` maps stage name to ``{calls, wall_s, cpu_s}`` (see
        :mod:`repro.observability.profile`).  The report lives on the
        instance only — it pickles with the result (so worker blocks
        carry theirs home) but is *not* a trace field: ``save``/``load``
        archives and equality stay byte-identical with or without it.
        """
        self._profile = {name: dict(values)
                         for name, values in stages.items()}
        return self

    def profile(self) -> dict:
        """The attached per-stage report (``{}`` for unprofiled runs)."""
        return {name: dict(values)
                for name, values in getattr(self, "_profile", {}).items()}

    def summary(self, monitor: int | None = None) -> dict:
        """Per-trace mean/std/min/max statistics.

        Keys are registry metric names (``run.<field>``).  With
        ``monitor`` given, statistics for that monitor's traces (the
        values of ``trace(monitor).summary()``); otherwise the
        statistics are pooled across the whole fleet.
        """
        if monitor is not None:
            return {
                _SUMMARY_PREFIX + name: stats
                for name, stats in self.trace(monitor).summary().items()
            }
        out = {}
        for name in ("time_s",) + self.STACKED_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.size == 0:
                stats = {k: float("nan") for k in ("mean", "std", "min", "max")}
            else:
                stats = {
                    "mean": float(arr.mean()),
                    "std": float(arr.std()),
                    "min": float(arr.min()),
                    "max": float(arr.max()),
                }
            out[_SUMMARY_PREFIX + name] = stats
        return out

    def to_csv(self, path) -> None:
        """Export as CSV: ``time_s`` plus ``<field>_m<i>`` columns."""
        names = ["time_s"]
        cols = [np.asarray(self.time_s, dtype=float)]
        for name in self.STACKED_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=float)
            for i in range(self.n_monitors):
                names.append(f"{name}_m{i}")
                cols.append(arr[i])
        np.savetxt(path, np.column_stack(cols), delimiter=",",
                   header=",".join(names), comments="")

    def save(self, path) -> None:
        """Persist all traces to an ``.npz`` archive."""
        np.savez_compressed(path, **{
            name: getattr(self, name)
            for name in ("time_s",) + self.STACKED_FIELDS
        })

    @classmethod
    def load(cls, path) -> "RunResult":
        """Restore a result written by :meth:`save`.

        Raises
        ------
        ConfigurationError
            If the archive is missing any expected trace.
        """
        fields = ("time_s",) + cls.STACKED_FIELDS
        with np.load(path) as data:
            missing = [name for name in fields if name not in data]
            if missing:
                raise ConfigurationError(
                    f"run archive missing traces {missing}")
            return cls(**{name: data[name] for name in fields})

    def provenance(self) -> list[tuple]:
        """Per-row source labels attached by a permutation-aware merge.

        A :meth:`concat` over the fleet axis with explicit ``indices``
        records, for each destination row, the ``(part, row)`` pair it
        came from (the :class:`~repro.runtime.mixed.MixedEngine`
        relabels ``part`` with the group's config key).  Like the
        profile report this lives on the instance only: archives and
        equality stay byte-identical with or without it.  Returns
        ``[]`` when no provenance was attached.
        """
        return list(getattr(self, "_provenance", []))

    @staticmethod
    def _merge_profiles(merged: "RunResult",
                        parts: list["RunResult"]) -> "RunResult":
        """Sum the parts' per-stage profile reports onto ``merged``."""
        stages: dict[str, dict] = {}
        for part in parts:
            for name, values in part.profile().items():
                totals = stages.setdefault(
                    name, {"calls": 0, "wall_s": 0.0, "cpu_s": 0.0})
                totals["calls"] += int(values.get("calls", 0))
                totals["wall_s"] += float(values.get("wall_s", 0.0))
                totals["cpu_s"] += float(values.get("cpu_s", 0.0))
        if stages:
            merged.attach_profile(stages)
        return merged

    @classmethod
    def concat(cls, parts: list["RunResult"], axis: str = "fleet",
               indices: list[list[int]] | None = None) -> "RunResult":
        """The one merge entry point, over the fleet or the time axis.

        ``axis="fleet"`` stacks blocks row-wise (monitor axis 0) — the
        merge step of the sharded runtime, where each worker returns the
        ``(N_shard, M)`` block for its contiguous slice of the fleet and
        list order restores the serial layout.  With ``indices`` the
        merge is *permutation-aware*: ``indices[p][r]`` is the
        destination row of part ``p``'s row ``r``, the index lists must
        jointly be a permutation of ``range(total_rows)``, and the
        merged result carries per-row :meth:`provenance` — this is how
        the :class:`~repro.runtime.mixed.MixedEngine` interleaves
        config-group blocks back into caller order.

        ``axis="time"`` joins windows of one run end to end (time
        axis 1) — the stitch step of the streaming service, where each
        :meth:`BatchEngine.advance <repro.runtime.batch.BatchEngine.advance>`
        window hands back the ticks it recorded and joining them in
        advance order restores the uninterrupted run exactly.
        Zero-tick windows contribute nothing and are legal anywhere.

        Raises
        ------
        ConfigurationError
            If the list is empty or the axis is unknown; for
            ``"fleet"``, if the time bases are not bit-identical or
            ``indices`` is not a valid permutation cover; for
            ``"time"``, if the windows disagree on fleet size or time
            does not increase strictly across boundaries (``indices``
            is refused — rows never permute across windows).
        """
        if axis == "time":
            if indices is not None:
                raise ConfigurationError(
                    "indices apply to the fleet axis only")
            return cls._join_windows(parts)
        if axis != "fleet":
            raise ConfigurationError(
                f"unknown concat axis {axis!r}; use 'fleet' or 'time'")
        if not parts:
            raise ConfigurationError("need at least one block to concatenate")
        time_s = np.asarray(parts[0].time_s)
        for part in parts[1:]:
            if not np.array_equal(np.asarray(part.time_s), time_s):
                raise ConfigurationError(
                    "blocks must share an identical time base")
        if indices is None:
            merged = cls(
                time_s=time_s.copy(),
                **{name: np.concatenate(
                    [np.asarray(getattr(p, name)) for p in parts], axis=0)
                   for name in cls.STACKED_FIELDS},
            )
            return cls._merge_profiles(merged, parts)
        if len(indices) != len(parts):
            raise ConfigurationError(
                f"need one index list per block "
                f"({len(parts)} blocks, {len(indices)} lists)")
        total = sum(p.n_monitors for p in parts)
        seen: set[int] = set()
        for part, rows in zip(parts, indices):
            if len(rows) != part.n_monitors:
                raise ConfigurationError(
                    f"index list length {len(rows)} does not match the "
                    f"block's {part.n_monitors} monitors")
            for j in rows:
                j = int(j)
                if not 0 <= j < total:
                    raise ConfigurationError(
                        f"destination row {j} out of range [0, {total})")
                if j in seen:
                    raise ConfigurationError(
                        f"destination row {j} assigned twice")
                seen.add(j)
        fields = {}
        for name in cls.STACKED_FIELDS:
            first = np.asarray(getattr(parts[0], name))
            out = np.empty((total,) + first.shape[1:], dtype=first.dtype)
            for part, rows in zip(parts, indices):
                out[np.asarray(rows, dtype=int)] = \
                    np.asarray(getattr(part, name))
            fields[name] = out
        merged = cls(time_s=time_s.copy(), **fields)
        provenance: list[tuple] = [()] * total
        for p, rows in enumerate(indices):
            for r, j in enumerate(rows):
                provenance[int(j)] = (p, r)
        merged._provenance = provenance
        return cls._merge_profiles(merged, parts)

    @classmethod
    def _join_windows(cls, parts: list["RunResult"]) -> "RunResult":
        """The time-axis merge behind ``concat(axis="time")``."""
        if not parts:
            raise ConfigurationError("need at least one window to concatenate")
        n = parts[0].n_monitors
        last_t = None
        for part in parts:
            if part.n_monitors != n:
                raise ConfigurationError(
                    "windows must share one fleet size")
            if len(part) == 0:
                continue
            if last_t is not None and float(part.time_s[0]) <= last_t:
                raise ConfigurationError(
                    "windows must be in increasing time order")
            last_t = float(part.time_s[-1])
        merged = cls(
            time_s=np.concatenate([np.asarray(p.time_s) for p in parts]),
            **{name: np.concatenate(
                [np.asarray(getattr(p, name)) for p in parts], axis=1)
               for name in cls.STACKED_FIELDS},
        )
        return cls._merge_profiles(merged, parts)

    @classmethod
    def from_records(cls, records: list[RigRecord]) -> "RunResult":
        """Stack N scalar RigRecords (identical time bases) into a result.

        Raises
        ------
        ConfigurationError
            If the list is empty or the time vectors disagree.
        """
        if not records:
            raise ConfigurationError("need at least one record to stack")
        time_s = np.asarray(records[0].time_s)
        for rec in records[1:]:
            if len(rec) != len(records[0]) or not np.array_equal(
                    np.asarray(rec.time_s), time_s):
                raise ConfigurationError(
                    "records must share an identical time base")
        return cls(
            time_s=time_s.copy(),
            **{name: np.stack([np.asarray(getattr(r, name))
                               for r in records])
               for name in cls.STACKED_FIELDS},
        )

