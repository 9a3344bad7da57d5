"""``repro.obs`` CLI — query metrics, traces, spans and health.

Usage::

    # against a live service started with --metrics-port 9100
    python -m repro.obs --url http://127.0.0.1:9100 tail -n 30
    python -m repro.obs --url http://127.0.0.1:9100 explain 0x4005d0
    python -m repro.obs --url http://127.0.0.1:9100 explain 1232 --tenant 7
    python -m repro.obs --url http://127.0.0.1:9100 spans -n 10
    python -m repro.obs --url http://127.0.0.1:9100 slowest -k 5
    python -m repro.obs --url http://127.0.0.1:9100 top --once
    python -m repro.obs --url http://127.0.0.1:9100 dump

    # against a --metrics-json dump from a finished run
    python -m repro.obs --file run-obs.json explain 0x4005d0

``tail`` prints the newest ring records; ``dump`` prints the full
metrics + trace document as JSON; ``explain PC`` narrates one branch's
transition history — the concrete answer to "why did PC X stop being
speculated".  ``spans`` / ``slowest`` print per-batch stage timings
from ``/spans.json``; ``top`` is a live misspeculation-health dashboard
over ``/health`` (``--once`` prints a single frame — the CI smoke
mode).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

from repro.obs.spans import STAGES
from repro.obs.tracing import TraceRecord, explain_records
from repro.tenant.keys import TENANT_SHIFT, key_pc, mix64

__all__ = ["main"]


def _branch_id(text: str) -> int:
    """A static branch id in any integer spelling (``1232``,
    ``0x4005d0``, ``0o777``, ``0b101``)."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer branch id (decimal or 0x-hex)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Query a running service's metrics endpoint or a "
                    "--metrics-json dump.")
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--url", metavar="URL",
                        help="base URL of a live metrics endpoint "
                             "(e.g. http://127.0.0.1:9100)")
    source.add_argument("--file", metavar="PATH",
                        help="a --metrics-json dump from a finished run")
    sub = parser.add_subparsers(dest="command", required=True)
    tail = sub.add_parser("tail", help="newest transition-ring records")
    tail.add_argument("-n", type=int, default=20,
                      help="records to show (default: 20)")
    sub.add_parser("dump", help="full metrics + trace document as JSON")
    explain = sub.add_parser(
        "explain", help="narrate one branch's transition history")
    explain.add_argument("pc", type=_branch_id,
                         help="static branch id (decimal or 0x-hex)")
    explain.add_argument("--tenant", type=_branch_id, default=None,
                         metavar="ID",
                         help="tenant id; the trace is queried for the "
                              "packed (tenant << 32) | pc key")
    spans = sub.add_parser(
        "spans", help="newest per-batch stage-timing spans")
    spans.add_argument("-n", type=int, default=20,
                       help="spans to show (default: 20)")
    slowest = sub.add_parser(
        "slowest", help="slowest completed spans by total latency")
    slowest.add_argument("-k", type=int, default=10,
                         help="spans to show (default: 10)")
    top = sub.add_parser(
        "top", help="live misspeculation-health dashboard (/health)")
    top.add_argument("--once", action="store_true",
                     help="print one frame and exit (CI smoke mode)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds (default: 2)")
    return parser


def _fetch(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=10) as response:
        return json.loads(response.read().decode("utf-8"))


def _load_file(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _load_trace_doc(args, pc: int | None = None) -> dict:
    """The trace document, from either source (normalized shape)."""
    if args.url is not None:
        base = args.url.rstrip("/")
        query = f"?pc={pc}" if pc is not None else ""
        return _fetch(f"{base}/trace.json{query}")
    doc = _load_file(args.file)
    if doc.get("kind") == "repro.obs.trace":
        return doc
    trace = doc.get("trace")
    if not isinstance(trace, dict) or "records" not in trace:
        raise ValueError(
            f"{args.file} holds no transition trace (expected a "
            "--metrics-json dump or a /trace.json document)")
    return trace


def _load_embedded_doc(args, path: str, key: str, kind: str,
                       what: str) -> dict:
    """A /spans.json or /health document, from either source."""
    if args.url is not None:
        base = args.url.rstrip("/")
        return _fetch(f"{base}{path}")
    doc = _load_file(args.file)
    if doc.get("kind") == kind:
        return doc
    embedded = doc.get(key)
    if not isinstance(embedded, dict):
        raise ValueError(
            f"{args.file} holds no {what} (expected a --metrics-json "
            f"dump with a {key!r} section or a {path} document)")
    return embedded


def _records(doc: dict) -> list[TraceRecord]:
    return [TraceRecord.from_dict(d) for d in doc.get("records", [])]


def _print_tail(records: list[TraceRecord], n: int) -> None:
    rows = records[-n:] if n < len(records) else records
    if not rows:
        print("transition ring is empty")
        return
    print(f"{'seq':>8}  {'pc':>10}  {'arc':<8} {'from':>8} -> "
          f"{'to':<8}  {'exec':>10}  {'instr':>14}")
    for r in rows:
        print(f"{r.seq:>8}  {r.pc:>10}  {r.arc:<8} {r.from_state:>8} -> "
              f"{r.to_state:<8}  {r.exec_index:>10,}  {r.instr:>14,}")


def _print_spans(doc: dict) -> None:
    spans = doc.get("spans", [])
    if not spans:
        print("span ring is empty")
        return
    head = f"{'seq':>8}  {'events':>7}  {'total':>9}  "
    head += "  ".join(f"{s:>10}" for s in STAGES)
    print(head)
    for span in spans:
        stages = span.get("stages", {})
        total = (f"{span['total_seconds']*1e3:8.3f}m"
                 if span.get("complete") else "  pending")
        row = f"{span['seq']:>8}  {span['events']:>7}  {total}  "
        row += "  ".join(
            f"{stages[s]*1e6:9.1f}u" if s in stages else f"{'-':>10}"
            for s in STAGES)
        print(row)
    quantiles = doc.get("stage_quantiles", {})
    if quantiles:
        print()
        print(f"{'stage':>10}  {'p50':>10}  {'p99':>10}")
        for stage in STAGES:
            q = quantiles.get(stage)
            if q is None:
                continue
            print(f"{stage:>10}  {q['p50']*1e6:9.1f}u  "
                  f"{q['p99']*1e6:9.1f}u")


def _print_health(doc: dict) -> None:
    window = doc.get("window", {})
    print(f"verdict {doc.get('verdict', '?')}")
    print(f"  peak {doc.get('peak_verdict', '?')}  "
          f"bursts {doc.get('bursts', 0)}  "
          f"events {doc.get('events_observed', 0):,}  "
          f"deployed {doc.get('deployed_pcs', 0)}")
    print(f"  window: {window.get('events', 0):,} events  "
          f"misspec {window.get('misspec_rate', 0.0):8.4%}  "
          f"mpki {window.get('mpki', 0.0):8.3f}  "
          f"evictions {window.get('evictions', 0)}")
    tte = doc.get("time_to_evict", {})
    if tte.get("count"):
        print(f"  time-to-evict: {tte['count']} eviction(s), "
              f"mean {tte['mean']:.1f} events")
        last = tte.get("last", {})
        for pc, events in list(last.items())[-5:]:
            print(f"    pc {pc}: {events} events "
                  "(first flip -> evict)")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "dump":
            if args.url is not None:
                base = args.url.rstrip("/")
                doc = {"kind": "repro.obs.snapshot",
                       "metrics": _fetch(f"{base}/metrics.json")["metrics"],
                       "trace": _fetch(f"{base}/trace.json")}
                for path, key in (("/spans.json", "spans"),
                                  ("/health", "health")):
                    try:
                        doc[key] = _fetch(f"{base}{path}")
                    except urllib.error.HTTPError:
                        pass  # endpoint disabled on this service
            else:
                doc = _load_file(args.file)
            print(json.dumps(doc, indent=2))
            return 0
        if args.command in ("spans", "slowest"):
            if args.url is not None:
                query = (f"?slowest={args.k}" if args.command == "slowest"
                         else f"?n={args.n}")
                doc = _fetch(f"{args.url.rstrip('/')}/spans.json{query}")
            else:
                doc = _load_embedded_doc(args, "/spans.json", "spans",
                                         "repro.obs.spans", "span ring")
                spans = doc.get("spans", [])
                if args.command == "slowest":
                    spans = sorted(
                        (s for s in spans if s.get("complete")),
                        key=lambda s: s["total_seconds"],
                        reverse=True)[:args.k]
                else:
                    spans = spans[-args.n:]
                doc = dict(doc, spans=spans)
            _print_spans(doc)
            return 0
        if args.command == "top":
            while True:
                doc = _load_embedded_doc(args, "/health", "health",
                                         "repro.obs.health",
                                         "health document")
                if not args.once:
                    print("\x1b[2J\x1b[H", end="")
                _print_health(doc)
                if args.once or args.file is not None:
                    verdict = doc.get("verdict", "ok")
                    return 0 if verdict != "misspec-burst" else 3
                time.sleep(args.interval)
        doc = _load_trace_doc(
            args, pc=args.pc if args.command == "explain" else None)
        records = _records(doc)
        if args.command == "tail":
            _print_tail(records, args.n)
            return 0
        # explain
        pc = args.pc
        if args.tenant is not None:
            pc = (args.tenant << TENANT_SHIFT) | key_pc(pc)
            if args.url is not None:   # re-query with the packed key
                doc = _load_trace_doc(args, pc=pc)
                records = _records(doc)
        matching = [r for r in records if r.pc == pc]
        sample = int(doc.get("sample", 1))
        traced = True
        if sample > 1:
            traced = mix64(pc) % sample == 0
        print(explain_records(matching, pc, traced=traced))
        return 0 if matching else 1
    except (OSError, ValueError, KeyError,
            urllib.error.URLError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
