"""Plain-text reporting for experiment results.

Benchmarks print the same rows/series the paper reports; these helpers
keep the formatting consistent: fixed-width tables, series summaries
and simple sparkline-ish dumps for time series.
"""

from __future__ import annotations

import json
import pathlib
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from ..util.rate import Series

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .collector import MetricsCollector
    from .trace import EventTracer


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned fixed-width table with a title rule."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def summarize_series(series: Series, skip_warmup: int = 0) -> dict:
    """Mean/min/max summary of a series, optionally dropping warmup points."""
    points = series.points[skip_warmup:]
    values = [v for _t, v in points]
    if not values:
        return {"n": 0, "mean": 0.0, "min": 0.0, "max": 0.0}
    return {
        "n": len(values),
        "mean": sum(values) / len(values),
        "min": min(values),
        "max": max(values),
    }


def format_series(series: Series, every: int = 1, unit: str = "") -> str:
    """Dump a series as ``t=...s  value`` lines (downsampled)."""
    lines = [f"series {series.name}:"]
    for i, (t, v) in enumerate(series.points):
        if i % every == 0:
            lines.append(f"  t={t / 1000.0:9.1f}s  {v:12.1f} {unit}")
    return "\n".join(lines)


def export_json(
    collector: "MetricsCollector",
    path: Optional[Union[str, pathlib.Path]] = None,
    tracer: Optional["EventTracer"] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Structured JSON export of a collector (and optionally a tracer).

    The document is the machine-readable companion of the plain-text
    tables: every registered series (points + summary), every registered
    histogram snapshot, the tracer's span/e2e histograms when given, and
    an ``extra`` dict for experiment-specific headline numbers.  When
    ``path`` is given the document is also written there (pretty-printed
    with sorted keys, so exports diff cleanly); CI uploads the bench
    export as a workflow artifact.
    """
    doc: dict = {
        "series": {
            name: {
                "points": [[t, v] for t, v in series.points],
                "summary": summarize_series(series),
            }
            for name, series in sorted(collector.series.items())
        },
        "histograms": {
            name: hist.snapshot()
            for name, hist in sorted(collector.histograms.items())
        },
    }
    if tracer is not None:
        doc["trace"] = tracer.snapshot()
    if extra:
        doc["extra"] = dict(extra)
    if path is not None:
        pathlib.Path(path).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    return doc


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (pct in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if pct <= 0:
        return ordered[0]
    if pct >= 100:
        return ordered[-1]
    rank = max(1, int(round(pct / 100.0 * len(ordered))))
    return ordered[rank - 1]
