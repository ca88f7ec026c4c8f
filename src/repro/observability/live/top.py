"""`repro top`: a terminal dashboard over the live HTTP plane.

Pure rendering over the ``/snapshot`` + ``/health`` payloads — the
layout function takes plain dicts and returns a string, so the
dashboard is unit-testable without sockets.  The CLI loop polls a
:class:`~repro.observability.live.http.LiveServer` URL with urllib and
redraws.

Throughput figures come from the ring buffer's *delta* samples (counter
increments over the sample interval), tick-latency percentiles from the
newest ``service.tick.wall_s`` reservoir window, and the worst-health
rigs from the service's fused health scores — the three things an
operator watches on a resident fleet.
"""

from __future__ import annotations

import json
import math
import urllib.request

__all__ = ["fetch_json", "fetch_frame", "render_top", "run_top"]


def fetch_json(base_url: str, path: str, timeout: float = 5.0):
    """GET ``base_url + path`` and decode the JSON body."""
    url = base_url.rstrip("/") + path
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read().decode("utf-8"))


def fetch_frame(base_url: str, *, last: int = 5, timeout: float = 5.0) -> dict:
    """One dashboard frame: the snapshot window plus the health report."""
    return {
        "snapshot": fetch_json(base_url, f"/snapshot?last={last}", timeout),
        "health": fetch_json(base_url, "/health", timeout),
    }


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile of a sequence; NaN when empty."""
    ordered = sorted(float(v) for v in values)
    if not ordered:
        return float("nan")
    rank = min(len(ordered) - 1, int(math.ceil(q * len(ordered))) - 1)
    return ordered[max(rank, 0)]

def _fmt_num(value: float) -> str:
    """Human-scale count formatting (1234567 -> '1.2M')."""
    if value != value:
        return "-"
    for scale, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= scale:
            return f"{value / scale:.1f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.2f}"


def _counter_rate(samples: list[dict], name: str) -> float:
    """Mean per-second increment of a counter over the delta window."""
    if len(samples) < 2:
        return float("nan")
    total = 0.0
    for entry in samples[1:]:
        state = entry.get("delta", {}).get(name)
        if state and state.get("type") == "counter":
            total += float(state["value"])
    span = float(samples[-1]["t_s"]) - float(samples[0]["t_s"])
    return total / span if span > 0 else float("nan")


def _tick_latency_ms(snapshot: dict) -> tuple[float, float]:
    """(p50, p99) tick wall time in ms from the freshest reservoir window."""
    reservoir: list[float] = []
    for entry in reversed(snapshot.get("samples", [])):
        state = entry.get("delta", {}).get("service.tick.wall_s")
        if state and state.get("type") == "histogram":
            reservoir = list(state.get("reservoir", []))
            break
    if not reservoir:
        cumulative = snapshot.get("metrics", {}).get("service.tick.wall_s")
        if cumulative and cumulative.get("type") == "histogram":
            reservoir = list(cumulative.get("reservoir", []))
    if not reservoir:
        return (float("nan"), float("nan"))
    return (_quantile(reservoir, 0.50) * 1e3, _quantile(reservoir, 0.99) * 1e3)


def _group_rows(samples: list[dict]) -> list[dict]:
    """Per-cohort table rows; rates from consecutive service stats."""
    frames = [entry.get("extra", {}).get("service")
              for entry in samples
              if isinstance(entry.get("extra", {}).get("service"), dict)]
    if not frames:
        return []
    latest = frames[-1]
    previous = frames[-2] if len(frames) >= 2 else None
    prev_groups = {g["group_id"]: g for g in (previous or {}).get("groups", [])}
    prev_t = None
    if previous is not None:
        for entry in samples:
            if entry.get("extra", {}).get("service") is previous:
                prev_t = float(entry["t_s"])
    latest_t = None
    for entry in samples:
        if entry.get("extra", {}).get("service") is latest:
            latest_t = float(entry["t_s"])
    rows = []
    for group in latest.get("groups", []):
        row = {
            "group_id": group.get("group_id"),
            "members": group.get("members"),
            "fleet_size": group.get("fleet_size"),
            "lanes": group.get("lanes"),
            "done_steps": group.get("done_steps"),
            "total_steps": group.get("total_steps"),
            "queue_depth": group.get("queue_depth"),
            "samples_per_s": float("nan"),
        }
        prev = prev_groups.get(group.get("group_id"))
        if (prev is not None and prev_t is not None and latest_t is not None
                and latest_t > prev_t):
            done = (float(group.get("done_steps", 0))
                    - float(prev.get("done_steps", 0)))
            row["samples_per_s"] = (done * float(group.get("fleet_size", 1))
                                    / (latest_t - prev_t))
        rows.append(row)
    return rows


def render_top(snapshot: dict, health: dict | None = None, *,
               url: str = "") -> str:
    """Render one dashboard frame as plain text.

    ``snapshot`` is a ``/snapshot`` payload; ``health`` a ``/health``
    payload (optional).  Pure function — no I/O.
    """
    health = health or {}
    lines = []
    status = str(health.get("status", "unknown"))
    title = "repro top"
    if url:
        title += f" - {url}"
    lines.append(title)
    lines.append(
        f"status: {status}   clients: {health.get('clients', '-')}   "
        f"groups: {health.get('groups', '-')}   "
        f"samples in ring: {snapshot.get('count', 0)}"
        f"/{snapshot.get('retention', '-')}")
    backpressure = health.get("backpressure") or {}
    if backpressure:
        lines.append(
            f"backpressure: stalls={backpressure.get('stalls', 0)} "
            f"saturation={float(backpressure.get('saturation', 0.0)):.1%}")
    samples = snapshot.get("samples", [])
    ticks_rate = _counter_rate(samples, "service.ticks")
    samples_rate = _counter_rate(samples, "service.samples")
    p50_ms, p99_ms = _tick_latency_ms(snapshot)
    lines.append(
        f"throughput: {_fmt_num(samples_rate)} samples/s   "
        f"{_fmt_num(ticks_rate)} ticks/s   "
        f"tick p50 {p50_ms:.2f} ms   p99 {p99_ms:.2f} ms"
        if p50_ms == p50_ms else
        f"throughput: {_fmt_num(samples_rate)} samples/s   "
        f"{_fmt_num(ticks_rate)} ticks/s   tick latency: warming up")
    rows = _group_rows(samples)
    if rows:
        lines.append("")
        lines.append(f"{'cohort':>8} {'members':>8} {'lanes':>6} "
                     f"{'fleet':>6} {'queue':>6} {'progress':>12} "
                     f"{'samples/s':>10}")
        for row in rows:
            done = row.get("done_steps") or 0
            total = row.get("total_steps") or 0
            progress = f"{done}/{total}" if total else str(done)
            queue = row.get("queue_depth")
            lanes = row.get("lanes")
            lines.append(
                f"{str(row['group_id']):>8} {str(row['members']):>8} "
                f"{'-' if lanes is None else lanes:>6} "
                f"{str(row['fleet_size']):>6} "
                f"{'-' if queue is None else queue:>6} {progress:>12} "
                f"{_fmt_num(row['samples_per_s']):>10}")
    else:
        lines.append("")
        lines.append("no active cohorts")
    worst = health.get("worst_rigs") or []
    if worst:
        lines.append("")
        lines.append("worst rigs (fused health score):")
        for rig in worst[:5]:
            lines.append(
                f"  client={rig.get('client', '?')} rig={rig.get('rig', '?')} "
                f"score={float(rig.get('score', 0.0)):.3f} "
                f"[{rig.get('status', '?')}]")
    return "\n".join(lines)


def run_top(url: str, *, interval: float = 1.0, frames: int = 0,
            once: bool = False, last: int = 5, out=None, clear=None) -> int:
    """Poll the live plane and redraw; returns a process exit code.

    ``frames=0`` polls until interrupted; ``once`` renders a single
    frame (CI-friendly).  ``out`` defaults to ``print``; ``clear``
    (ANSI home+wipe) defaults to on only for a TTY.
    """
    import sys
    import time

    if out is None:
        out = print
    if clear is None:
        clear = sys.stdout.isatty() and not once
    remaining = 1 if once else frames
    attempts = 0
    rendered = 0
    try:
        while True:
            attempts += 1
            try:
                frame = fetch_frame(url, last=last)
            except Exception as exc:  # noqa: BLE001 - report and keep polling
                out(f"repro top - {url}: fetch failed: {exc!r}")
                frame = None
            if frame is not None:
                text = render_top(frame["snapshot"], frame["health"], url=url)
                if clear:
                    text = "\x1b[2J\x1b[H" + text
                out(text)
                rendered += 1
            if remaining and attempts >= remaining:
                return 0 if rendered == attempts else 1
            time.sleep(interval)
    except KeyboardInterrupt:
        return 0
