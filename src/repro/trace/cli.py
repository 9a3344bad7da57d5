"""Trace tooling CLI.

Usage::

    python -m repro.trace list
    python -m repro.trace info gcc
    python -m repro.trace info path/to/trace.npz
    python -m repro.trace gen gzip -o gzip.npz --length 200000
    python -m repro.trace gen gzip -o mt.npz --tenants 64 --tenant-mix zipf
    python -m repro.trace gen -o adv.npz --pattern train-then-flip \\
        --flip-at 4096 --branches 8
    python -m repro.trace gen -o poison.npz --pattern slow-poison \\
        --flip-at 4096 --poison-margin 0.9
    python -m repro.trace bias gcc --bins 10
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Generate and inspect branch traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    info = sub.add_parser("info", help="characterize a trace")
    info.add_argument("target",
                      help="benchmark name or .npz trace file")
    info.add_argument("--input", dest="input_name", default=None,
                      help="input name (default: evaluation input)")
    info.add_argument("--length", type=int, default=None)

    gen = sub.add_parser("gen", help="generate a trace to a file")
    gen.add_argument("benchmark", nargs="?", default=None,
                     help="benchmark to model (omit with --pattern)")
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--input", dest="input_name", default=None)
    gen.add_argument("--length", type=int, default=None)
    gen.add_argument("--pattern",
                     choices=("train-then-flip", "slow-poison"),
                     default=None,
                     help="generate a synthetic adversarial pattern "
                          "instead of a benchmark model")
    gen.add_argument("--flip-at", type=int, default=4096,
                     help="per-branch training executions before the "
                          "bias flips (train-then-flip) or softens "
                          "(slow-poison) (default: 4096)")
    gen.add_argument("--branches", type=int, default=8,
                     help="number of simultaneously misbehaving "
                          "branches (default: 8)")
    gen.add_argument("--poison-margin", type=float, default=0.9,
                     help="slow-poison: post-train miss rate as a "
                          "fraction of the eviction walk's break-even "
                          "drift (default: 0.9 — slows eviction but "
                          "does not prevent it: half the branches of "
                          "slow_poison_trace(64, 4096) evict under "
                          "scaled_config)")
    gen.add_argument("--misspec-increment", type=int, default=50,
                     help="slow-poison: target controller's counter "
                          "increment per miss (default: 50)")
    gen.add_argument("--correct-decrement", type=int, default=1,
                     help="slow-poison: target controller's counter "
                          "decrement per hit (default: 1)")
    gen.add_argument("--seed", type=int, default=0,
                     help="synthetic pattern outcome seed (default: 0)")
    gen.add_argument("--tenants", type=int, default=None, metavar="N",
                     help="interleave N tenant streams "
                          "(events carry a tenant id column)")
    gen.add_argument("--tenant-mix", choices=("zipf", "uniform"),
                     default="zipf",
                     help="tenant traffic distribution (default: zipf)")
    gen.add_argument("--tenant-seed", type=int, default=0,
                     help="seed for the tenant assignment draw")

    bias = sub.add_parser("bias",
                          help="event-weighted bias histogram")
    bias.add_argument("target")
    bias.add_argument("--bins", type=int, default=10)
    bias.add_argument("--length", type=int, default=None)
    return parser


def _resolve_trace(target: str, input_name=None, length=None):
    from repro.trace.io import load_trace_file
    from repro.trace.spec2000 import load_trace

    if target.endswith(".npz") or Path(target).exists():
        return load_trace_file(target)
    return load_trace(target, input_name, length=length)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        from repro.trace.spec2000 import BENCHMARKS

        print(f"{'bmark':8s} {'static':>7s} {'length':>10s} "
              f"{'profile input':>20s} {'eval input':>22s}")
        for spec in BENCHMARKS.values():
            print(f"{spec.name:8s} {spec.n_static:7d} "
                  f"{spec.length:10,} {spec.profile_input:>20s} "
                  f"{spec.eval_input:>22s}")
        return 0

    if args.command == "info":
        from repro.analysis.workload import characterize

        trace = _resolve_trace(args.target, args.input_name, args.length)
        print(characterize(trace).summary())
        return 0

    if args.command == "gen":
        from repro.trace.io import save_trace
        from repro.trace.spec2000 import load_trace

        if args.pattern is None and args.benchmark is None:
            print("error: gen needs a benchmark name or --pattern",
                  file=sys.stderr)
            return 2
        if args.pattern == "slow-poison":
            from repro.trace.synthetic import slow_poison_trace

            trace = slow_poison_trace(
                n_branches=args.branches, train_for=args.flip_at,
                length=args.length,
                misspec_increment=args.misspec_increment,
                correct_decrement=args.correct_decrement,
                margin=args.poison_margin, seed=args.seed)
        elif args.pattern is not None:
            from repro.trace.synthetic import train_then_flip_trace

            trace = train_then_flip_trace(
                n_branches=args.branches, flip_at=args.flip_at,
                length=args.length, seed=args.seed)
        else:
            trace = load_trace(args.benchmark, args.input_name,
                               length=args.length)
        if args.tenants is not None:
            from repro.trace.synthetic import with_tenants

            trace = with_tenants(trace, args.tenants,
                                 args.tenant_mix, seed=args.tenant_seed)
        path = save_trace(trace, args.output)
        extra = (f" across {args.tenants:,} tenants ({args.tenant_mix})"
                 if args.tenants is not None else "")
        print(f"wrote {len(trace):,} events{extra} to {path}")
        return 0

    if args.command == "bias":
        from repro.analysis.workload import bias_histogram

        trace = _resolve_trace(args.target, length=args.length)
        edges, shares = bias_histogram(trace, bins=args.bins)
        print(f"event-weighted branch-bias distribution of {trace.name}:")
        for i, share in enumerate(shares):
            bar = "#" * round(share * 60)
            print(f"  {edges[i]:.2f}-{edges[i+1]:.2f}  {share:6.1%}  {bar}")
        return 0

    return 2  # pragma: no cover - argparse enforces the command set


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
