"""Finite-blocklength study: oracle gap of constructed codes versus k.

Optimizes the bound for one channel, builds relay codes at doubling
blocklengths, and evaluates each with the matrix-formula oracle, which
shares no arithmetic with the bound computation.  The printed relative gap
should shrink like 1/k; the ratio column (previous gap / current gap)
makes the rate visible and should hover near 2.

Usage:
    python3 scripts/finite_k_study.py --a 1.1 --b 2.0 --k-max 2048
    python3 scripts/finite_k_study.py --export code_2048.txt
"""
from __future__ import annotations

import argparse
import sys

from linrelay.bound import ChannelParams, optimize_bound
from linrelay.codes import build_code, evaluate_rank1, export_code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=float, default=1.1, help="source-to-relay gain")
    parser.add_argument("--b", type=float, default=2.0, help="relay-to-destination gain")
    parser.add_argument("--k-min", type=int, default=32, help="smallest blocklength")
    parser.add_argument("--k-max", type=int, default=2048, help="largest blocklength")
    parser.add_argument("--export", default=None, help="write the largest code here")
    args = parser.parse_args(argv)
    if args.k_min < 1 or args.k_max < args.k_min:
        parser.error("need 1 <= k-min <= k-max")

    channel = ChannelParams(a=args.a, b=args.b)
    evaluation = optimize_bound(channel)
    ep = evaluation.endpoint
    print(
        f"channel a={args.a:g} b={args.b:g}: optimized pair "
        f"A_f={ep.A_f:.6g} B_f={ep.B_f:.6g}, "
        f"bound {evaluation.energy_per_bit:.9f} "
        f"(normalized {evaluation.normalized:.9f})"
    )

    print()
    print(f"{'k':>6}  {'oracle E/bit':>14}  {'rel gap':>10}  {'ratio':>6}")
    print("-" * 42)
    prev_gap = None
    code = None
    k = args.k_min
    while k <= args.k_max:
        code = build_code(channel, ep, k)
        oracle = evaluate_rank1(channel, code.s, code.D)
        gap = abs(oracle.energy_per_bit - evaluation.energy_per_bit) / evaluation.energy_per_bit
        ratio = "" if prev_gap is None else f"{prev_gap / gap:6.2f}"
        print(f"{k:6d}  {oracle.energy_per_bit:14.9f}  {gap:10.3e}  {ratio:>6}")
        prev_gap = gap
        k *= 2

    if args.export is not None and code is not None:
        with open(args.export, "w") as fh:
            export_code(code, channel, fh)
        print()
        print(f"exported k={code.k} code to {args.export}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
