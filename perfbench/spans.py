"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent, request)``: ``parent`` is the
index of the enclosing span (``-1`` at the top level) and ``request``
identifies the request or group the work belongs to.  Spans stay in
memory while the run executes and are written out once at the end, so
recording costs two ``perf_counter`` reads and one list append.

Spans may also track memory: the peak RSS watermark is reset when such
a span opens (``/proc/self/clear_refs``), and the span records how far
the peak rose above the RSS it started from, or ``None`` where the
watermark cannot be reset (a process-lifetime peak would not be the
span's).  Memory-tracking spans must not nest inside one another,
since each resets the watermark.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager
from pathlib import Path


def _status_kib(field: str) -> float | None:
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def _reset_peak() -> bool:
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mib() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects spans; ``span()`` is the only recording call."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        #: Set when a memory span could not reset the watermark; such a
        #: span records ``rss_growth_mib`` as ``None``.
        self.rss_unavailable = False

    @property
    def depth(self) -> int:
        """Number of spans open now."""
        return len(self._stack)

    @contextmanager
    def span(self, name: str, request: str, *, memory: bool = False):
        index = len(self.spans)
        record = {
            "name": name,
            "request": request,
            "parent": self._stack[-1] if self._stack else -1,
            "start": 0.0,
            "end": 0.0,
        }
        self.spans.append(record)
        base = None
        if memory:
            if _reset_peak():
                base = _status_kib("VmRSS")
            if base is None:
                self.rss_unavailable = True
                record["rss_growth_mib"] = None
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            if base is not None:
                peak = _status_kib("VmHWM")
                record["rss_growth_mib"] = (
                    None if peak is None else max(0.0, peak - base) / 1024.0
                )
                self.rss_unavailable |= peak is None

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans))


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cursor = float("-inf")
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    out = []
    for index, span in enumerate(spans):
        duration = span["end"] - span["start"]
        out.append(duration - _covered(children.get(index, [])))
    return out


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, call count, max RSS growth
    (``None`` spans, whose watermark could not be reset, count as 0;
    the child reports them as a failed check)."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(
            span["name"], {"self_s": 0.0, "calls": 0, "rss_growth_mib": 0.0}
        )
        entry["self_s"] += own
        entry["calls"] += 1
        entry["rss_growth_mib"] = max(
            entry["rss_growth_mib"], span.get("rss_growth_mib") or 0.0
        )
    return totals
