"""Baseline diffing and trend reports.

Two consumers:

* the console — ``render_comparison`` prints the per-metric
  baseline-vs-current table, generically from metric metadata
  instead of one renderer per result kind;
* CI artifacts — ``render_markdown``/``build_report`` diff a unified
  results document against the committed baselines *and* the
  trajectory of prior runs (a history directory of unified documents,
  carried across CI runs via a cache), rendering the Markdown/JSON
  trend report that ``python -m repro.bench report`` emits.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.bench.registry import Metric
from repro.bench.schema import load_document, metrics_from_json

__all__ = ["render_comparison", "load_history", "append_history",
           "build_report", "render_markdown"]


def _fmt(metric: Metric | None) -> str:
    if metric is None:
        return "missing"
    if metric.unit == "bool":
        return "yes" if metric.value else "NO"
    if metric.unit == "fraction":
        return f"{metric.value:.1%}"
    if metric.unit == "x":
        return f"{metric.value:.2f}x"
    if metric.unit == "events/s":
        return f"{metric.value:,.0f}"
    return f"{metric.value:,.4g}"


def render_comparison(name: str, baseline: dict[str, Metric] | None,
                      current: dict[str, Metric]) -> str:
    """A per-metric table: baseline, current, current/baseline ratio."""
    lines = [f"{'metric':<28} {'baseline':>16} {'current':>16} "
             f"{'ratio':>7}"]
    names = list(current)
    if baseline:
        names += [n for n in baseline if n not in current]
    for metric_name in names:
        base = (baseline or {}).get(metric_name)
        cur = current.get(metric_name)
        if base is not None and cur is not None and base.value:
            ratio = f"{cur.value / base.value:>6.2f}x"
        else:
            ratio = f"{'-':>7}"
        lines.append(f"{metric_name:<28} {_fmt(base):>16} "
                     f"{_fmt(cur):>16} {ratio}")
    return "\n".join(lines)


def load_history(history_dir: str) -> list[dict]:
    """Prior unified result documents, oldest first."""
    path = Path(history_dir)
    if not path.is_dir():
        return []
    docs = []
    for file in sorted(path.glob("*.json")):
        try:
            docs.append(load_document(str(file)))
        except (SystemExit, ValueError, KeyError, json.JSONDecodeError):
            continue  # a foreign or truncated file never sinks the report
    docs.sort(key=lambda d: d.get("created_unix", 0.0))
    return docs


def append_history(history_dir: str, doc: dict, keep: int = 30) -> str:
    """Persist ``doc`` into the rolling history (pruned to ``keep``)."""
    path = Path(history_dir)
    path.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S",
                          time.gmtime(doc.get("created_unix",
                                              time.time())))
    out = path / f"bench-{stamp}-{os.getpid()}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    files = sorted(path.glob("bench-*.json"))
    for stale in files[:-keep]:
        stale.unlink()
    return str(out)


def _key_metrics(entry: dict) -> list[str]:
    """The metrics worth trending: gated ratios/overheads first, then
    banded throughput figures."""
    metrics = metrics_from_json(entry)
    derived = [n for n, m in metrics.items()
               if m.unit in ("x", "fraction")]
    banded = [n for n, m in metrics.items() if m.banded]
    return derived + banded


def build_report(current: dict, baselines: dict[str, dict],
                 history: list[dict],
                 gate_reports: list | None = None) -> dict:
    """The JSON trend report: per target, per metric — baseline value,
    current value, delta, and the trajectory across prior runs."""
    targets = {}
    for name, entry in current.get("results", {}).items():
        cur_metrics = metrics_from_json(entry)
        base_entry = (baselines.get(name, {})
                      .get("results", {}).get(name))
        base_metrics = (metrics_from_json(base_entry)
                        if base_entry else {})
        metric_rows = {}
        for metric_name in _key_metrics(entry):
            cur = cur_metrics.get(metric_name)
            if cur is None:
                continue
            base = base_metrics.get(metric_name)
            trend = []
            for old in history:
                old_entry = old.get("results", {}).get(name)
                if not old_entry:
                    continue
                old_metric = (metrics_from_json(old_entry)
                              .get(metric_name))
                if old_metric is not None:
                    trend.append(round(old_metric.value, 6))
            metric_rows[metric_name] = {
                "unit": cur.unit,
                "better": cur.better,
                "current": cur.value,
                "baseline": base.value if base else None,
                "vs_baseline": (cur.value / base.value
                                if base and base.value else None),
                "trend": trend,
            }
        targets[name] = {
            "status": entry.get("status", "ok"),
            "elapsed_s": entry.get("elapsed_s"),
            "metrics": metric_rows,
        }
    report = {
        "kind": "repro.bench.report",
        "schema_version": 1,
        "created_unix": time.time(),
        "suite": current.get("suite"),
        "smoke": current.get("smoke", False),
        "host": current.get("host"),
        "prior_runs": len(history),
        "targets": targets,
    }
    if gate_reports is not None:
        report["gates"] = {
            r.name: {"ok": r.ok, "checked": r.checked,
                     "failures": list(r.failures),
                     "notes": list(r.notes)}
            for r in gate_reports
        }
    return report


def _spark(values: list[float], current: float, better: str) -> str:
    """A textual trajectory: oldest -> newest -> current."""
    shown = values[-6:] + [current]
    cells = []
    for value in shown:
        if abs(value) >= 1000:
            cells.append(f"{value:,.0f}")
        else:
            cells.append(f"{value:.3g}")
    arrow = " → ".join(cells)
    if len(shown) >= 2 and shown[-2]:
        delta = current / shown[-2] - 1.0
        direction = ("▲" if (delta > 0) == (better == "higher")
                     else "▼") if abs(delta) > 0.001 else "·"
        return f"{arrow} ({direction} {delta:+.1%} vs prior)"
    return arrow


def render_markdown(report: dict) -> str:
    """Render the trend report as the Markdown artifact CI uploads."""
    host = report.get("host") or {}
    lines = [
        "# Bench trend report",
        "",
        f"- suite: `{report.get('suite')}`"
        + (" (smoke)" if report.get("smoke") else ""),
        f"- host: {host.get('cpus', '?')} cpu(s), "
        f"{host.get('platform') or 'unknown platform'}, "
        f"python {host.get('python') or '?'}",
        f"- prior runs in history: {report.get('prior_runs', 0)}",
        "",
    ]
    gates = report.get("gates")
    if gates:
        failed = [n for n, g in gates.items() if not g["ok"]]
        lines.append("## Gates — "
                     + ("**FAILED**" if failed else "all passing"))
        lines.append("")
        for name, gate in gates.items():
            status = "PASS" if gate["ok"] else "**FAIL**"
            lines.append(f"- `{name}`: {status} "
                         f"({gate['checked']} checks)")
            for failure in gate["failures"]:
                lines.append(f"  - FAIL: {failure}")
            for note in gate["notes"]:
                lines.append(f"  - note: {note}")
        lines.append("")
    lines.append("## Targets")
    lines.append("")
    for name, target in report.get("targets", {}).items():
        status = target.get("status", "ok")
        elapsed = target.get("elapsed_s")
        suffix = f", {elapsed:.1f}s" if elapsed else ""
        lines.append(f"### `{name}` — {status}{suffix}")
        lines.append("")
        rows = target.get("metrics", {})
        if not rows:
            lines.append("(no metrics)")
            lines.append("")
            continue
        lines.append("| metric | current | baseline | vs baseline "
                     "| trajectory |")
        lines.append("|---|---:|---:|---:|---|")
        for metric_name, row in rows.items():
            cur = Metric(row["current"], row["unit"], row["better"])
            base = (Metric(row["baseline"], row["unit"], row["better"])
                    if row.get("baseline") is not None else None)
            vs = (f"{row['vs_baseline']:.2f}x"
                  if row.get("vs_baseline") else "—")
            trend = row.get("trend", [])
            spark = (_spark(trend, row["current"], row["better"])
                     if trend else "first run")
            lines.append(f"| `{metric_name}` | {_fmt(cur)} | "
                         f"{_fmt(base)} | {vs} | {spark} |")
        lines.append("")
    return "\n".join(lines) + "\n"
