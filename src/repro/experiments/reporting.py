"""Plain-text and CSV reporting for experiment results.

The benchmarks print the same rows/series the paper's figures plot, so
a reader can eyeball the reproduction without a plotting stack.
"""

from __future__ import annotations

import io
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["ascii_table", "series_chart", "render_obs_summary"]


def ascii_table(rows: Sequence[Mapping[str, object]], columns: Sequence[str]) -> str:
    """Fixed-width table from dict rows."""
    if not rows:
        return "(no rows)"
    widths = {c: len(c) for c in columns}
    rendered: List[List[str]] = []
    for row in rows:
        cells = []
        for c in columns:
            v = row.get(c, "")
            text = f"{v:.3f}" if isinstance(v, float) else str(v)
            widths[c] = max(widths[c], len(text))
            cells.append(text)
        rendered.append(cells)
    header = "  ".join(c.ljust(widths[c]) for c in columns)
    rule = "  ".join("-" * widths[c] for c in columns)
    body = "\n".join(
        "  ".join(cell.ljust(widths[c]) for cell, c in zip(cells, columns))
        for cells in rendered
    )
    return f"{header}\n{rule}\n{body}"


def series_chart(
    series: Mapping[str, Sequence[tuple]],
    width: int = 48,
    y_max: float = None,
    title: str = "",
) -> str:
    """Minimal horizontal-bar chart: one block per (x, y) sample.

    Suits the figures' normalised metrics (0..~1.2); bars are scaled to
    ``y_max`` (auto when omitted).
    """
    if y_max is None:
        y_max = max(
            (y for points in series.values() for _, y in points), default=1.0
        )
        y_max = max(y_max, 1e-9)
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    for name, points in series.items():
        out.write(f"[{name}]\n")
        for x, y in points:
            bar = "#" * max(0, int(round(width * min(y, y_max) / y_max)))
            out.write(f"  x={x:<6g} {y:7.3f} |{bar}\n")
    return out.getvalue().rstrip("\n")


def render_obs_summary(metrics=None) -> str:
    """Human-readable summary of a :class:`repro.obs.MetricsRegistry`
    (or ``None``).  Sections: per-frequency CPU residency,
    decision/outcome counters, gauges and histogram percentiles.  Phase
    timings live in :meth:`repro.obs.PhaseReport.render`.
    """
    out = io.StringIO()

    if metrics is not None:
        residency = metrics.family("cpu_residency_seconds")
        if residency:
            total = sum(c.value for c in residency.values())
            rows = []
            for (_, labels), c in sorted(residency.items()):
                row: Dict[str, object] = dict(labels)
                row["seconds"] = c.value
                row["share"] = c.value / total if total > 0.0 else 0.0
                rows.append(row)
            out.write("per-frequency residency\n")
            out.write(ascii_table(rows, ["mhz", "state", "seconds", "share"]))
            out.write("\n\n")

        counters = [
            (name, labels, c.value)
            for (name, labels), c in sorted(metrics.counters().items())
            if name != "cpu_residency_seconds"
        ]
        if counters:
            rows = [
                {"counter": name,
                 "labels": ",".join(f"{k}={v}" for k, v in labels) or "-",
                 "value": value}
                for name, labels, value in counters
            ]
            out.write("counters\n")
            out.write(ascii_table(rows, ["counter", "labels", "value"]))
            out.write("\n\n")

        gauges = sorted(metrics.gauges().items())
        if gauges:
            rows = [
                {"gauge": name,
                 "labels": ",".join(f"{k}={v}" for k, v in labels) or "-",
                 "last": g.value, "mean": g.mean, "n": g.n}
                for (name, labels), g in gauges
            ]
            out.write("gauges\n")
            out.write(ascii_table(rows, ["gauge", "labels", "last", "mean", "n"]))
            out.write("\n\n")

        histograms = sorted(metrics.histograms().items())
        if histograms:
            rows = [
                {"histogram": name,
                 "labels": ",".join(f"{k}={v}" for k, v in labels) or "-",
                 "count": h.count, "mean": h.mean,
                 "p50": h.percentile(50.0), "p90": h.percentile(90.0),
                 "p99": h.percentile(99.0), "max": h.max}
                for (name, labels), h in histograms
            ]
            out.write("histograms\n")
            out.write(ascii_table(
                rows,
                ["histogram", "labels", "count", "mean", "p50", "p90", "p99", "max"],
            ))
            out.write("\n\n")

    text = out.getvalue().rstrip("\n")
    return text if text else "(no observability data captured)"
