"""Command-line surface: point bounds, sweeps, code export, verification.

It decides nothing numerical: the a^2 rule is bound.check_pair, inside
solve_endpoint, and every verify check with its tolerance comes from
trajectory.check_identities.

Subcommands:
    bound   one channel point, JSON report with baselines
    sweep   CSV/JSON table over a range of b, optional SVG chart
    code    build a finite-k relay code, export it, report the oracle gap
    verify  run the identity and residual suites, one line per check

Exit codes: 0 success, 1 verification failure, 2 invalid input (an input
too large for memory too), 3 numerical collapse.
"""
from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
import warnings
from pathlib import Path

from .baselines import (
    block_markov_bound,
    bounds_records,
    cutset_bound,
    two_by_two_bound,
)
from .bound import (
    BoundaryPair,
    BoundEvaluation,
    ChannelParams,
    optimize_bound,
    solve_endpoint,
    theorem_bound,
)
from .codes import DEFAULT_K_CAP, build_code, evaluate_rank1, export_code
from .errors import EXIT_COLLAPSE, EXIT_INVALID_INPUT, DomainError, LinrelayError
from .trajectory import build_trajectory, check_identities

__all__ = ["main", "cmd_bound", "cmd_sweep", "cmd_code", "cmd_verify"]

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1

_MIN_B = 1e-3

# The failures a command reports with an exit code, not a traceback.
_EXPECTED_ERRORS = (LinrelayError, ArithmeticError, ValueError, OSError)

_CSV_COLUMNS = [
    "a",
    "b",
    "block_markov",
    "cutset",
    "two_by_two",
    "rank1",
    "A_f",
    "B_f",
    "A0",
    "psi",
    "lambda",
    "Q1",
    "Q2",
]

_SERIES_STYLE = [
    ("block_markov", "block-Markov", "#1f77b4"),
    ("cutset", "cut-set", "#2ca02c"),
    ("two_by_two", "2x2 linear", "#ff7f0e"),
    ("rank1", "rank-1 linear", "#d62728"),
]


def _fmt(x: float) -> str:
    """Shortest exact decimal; identical across runs by construction."""
    return repr(float(x))


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _check_out_dir(path: str) -> None:
    # Refused before any solve with the error that writing would raise.
    # Path("").parent is ".", so the empty path is refused by name.
    if not path or not Path(path).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _pair_args(args) -> BoundaryPair | None:
    if (args.Af is None) != (args.Bf is None):
        raise DomainError("provide both --Af and --Bf or neither")
    if args.Af is None:
        return None
    return BoundaryPair(A_f=args.Af, B_f=args.Bf)


def _bound_payload(channel: ChannelParams, ev: BoundEvaluation) -> dict:
    return {
        "a": channel.a,
        "b": channel.b,
        "A_f": ev.endpoint.A_f,
        "B_f": ev.endpoint.B_f,
        "lambda": ev.lam,
        "c1": ev.c1,
        "Q1": ev.Q1,
        "Q2": ev.Q2,
        "log_arg": ev.log_arg,
        "energy_per_bit": ev.energy_per_bit,
        "normalized": ev.normalized,
    }


def cmd_bound(args) -> int:
    """Evaluate the rank-1 bound at one channel point, plus all baselines."""
    channel = ChannelParams(a=args.a, b=args.b)
    pair = _pair_args(args)
    ev = optimize_bound(channel) if pair is None else theorem_bound(pair, channel)
    payload = _bound_payload(channel, ev)
    payload["baselines"] = {
        "block_markov": block_markov_bound(channel),
        "cutset": cutset_bound(channel),
        "two_by_two": two_by_two_bound(channel),
    }
    _print_json(payload)
    return EXIT_OK


def _sweep_b_values(b_min: float, b_max: float, n: int, grid: str) -> list[float]:
    if b_min < _MIN_B:
        warnings.warn(
            f"b_min={b_min:g} clamped to {_MIN_B:g}; zero gains remove the relay",
            RuntimeWarning,
            stacklevel=2,
        )
        b_min = _MIN_B
        b_max = max(b_max, b_min)
    if grid == "linear":
        step = (b_max - b_min) / (n - 1)
        values = [b_min + i * step for i in range(n)]
    else:
        llo, lhi = math.log(b_min), math.log(b_max)
        values = [math.exp(llo + i * (lhi - llo) / (n - 1)) for i in range(n)]
    values[0], values[-1] = b_min, b_max
    return values


def run_sweep(a: float, b_values: list[float]) -> tuple[list[dict], list[tuple[float, Exception]]]:
    """Bounds rows for the b values, in order; the rank-1 searches run in lockstep.

    Returns the rows of the b values that succeeded, and each b that failed
    with its error.
    """
    rows = []
    failed = []
    channels = [ChannelParams(a=a, b=b) for b in b_values]
    records = bounds_records(channels)
    for channel in channels:
        try:
            record = next(records)
        except _EXPECTED_ERRORS as exc:
            failed.append((channel.b, exc))
            continue
        ev = record.rank1_eval
        rows.append(
            {
                "a": record.a,
                "b": record.b,
                "block_markov": record.block_markov,
                "cutset": record.cutset,
                "two_by_two": record.two_by_two,
                "rank1": ev.normalized,
                "A_f": ev.endpoint.A_f,
                "B_f": ev.endpoint.B_f,
                "A0": ev.endpoint.A0,
                "psi": ev.endpoint.psi,
                "lambda": ev.lam,
                "Q1": ev.Q1,
                "Q2": ev.Q2,
            }
        )
    return rows, failed


def _write_rows(rows: list[dict], path: str, fmt: str) -> None:
    if fmt == "csv":
        lines = [",".join(_CSV_COLUMNS)]
        for row in rows:
            lines.append(",".join(_fmt(row[c]) for c in _CSV_COLUMNS))
        Path(path).write_text("\n".join(lines) + "\n")
    else:
        Path(path).write_text(json.dumps(rows, indent=2) + "\n")


def _write_svg(path: Path, rows: list[dict]) -> None:
    """Minimal standalone line chart of the four normalized series."""
    width, height = 800, 520
    ml, mr, mt, mb = 70, 30, 40, 50
    xs = [row["b"] for row in rows]
    ys = [row[key] for key, _, _ in _SERIES_STYLE for row in rows]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys) * 1.05
    span_x = (x_hi - x_lo) or 1.0
    span_y = (y_hi - y_lo) or 1.0

    def px(b: float) -> float:
        return ml + (b - x_lo) / span_x * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - (v - y_lo) / span_y * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{(ml + width - mr) // 2}" y="{height - 12}" '
        'text-anchor="middle" font-size="14">b</text>',
        f'<text x="18" y="{(mt + height - mb) // 2}" font-size="14" '
        f'transform="rotate(-90 18 {(mt + height - mb) // 2})" '
        'text-anchor="middle">normalized energy per bit</text>',
        f'<text x="{ml}" y="{height - mb + 18}" font-size="12" '
        f'text-anchor="middle">{x_lo:g}</text>',
        f'<text x="{width - mr}" y="{height - mb + 18}" font-size="12" '
        f'text-anchor="middle">{x_hi:g}</text>',
        f'<text x="{ml - 6}" y="{height - mb + 4}" font-size="12" '
        f'text-anchor="end">{y_lo:g}</text>',
        f'<text x="{ml - 6}" y="{mt + 4}" font-size="12" '
        f'text-anchor="end">{y_hi:.3f}</text>',
    ]
    for idx, (key, label, color) in enumerate(_SERIES_STYLE):
        points = " ".join(
            f"{px(row['b']):.2f},{py(row[key]):.2f}" for row in rows
        )
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        ly = mt + 18 * idx
        parts.append(
            f'<line x1="{width - mr - 150}" y1="{ly}" x2="{width - mr - 120}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - mr - 112}" y="{ly + 4}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def cmd_sweep(args) -> int:
    """Sweep b and write the bounds table; optionally render the SVG chart."""
    # argparse's choices already restrict --grid and --format.
    if args.n_points < 2:
        raise ValueError("n_points must be at least 2")
    if not args.b_max >= args.b_min:
        raise ValueError("b_max must not be below b_min")
    ChannelParams(a=args.a, b=max(args.b_max, _MIN_B))
    _check_out_dir(args.out)
    if args.svg:  # an empty --svg asks for no chart
        _check_out_dir(args.svg)
    b_values = _sweep_b_values(args.b_min, args.b_max, args.n_points, args.grid)
    rows, failed = run_sweep(args.a, b_values)
    if not rows:
        # No b succeeded: the sweep fails as a whole, with the first error.
        raise failed[0][1]
    _write_rows(rows, args.out, args.format)
    if args.svg:
        _write_svg(Path(args.svg), rows)
    for b, exc in failed:
        print(f"error: b={_fmt(b)}: {exc}", file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}")
    return _exit_code(failed[0][1]) if failed else EXIT_OK


def cmd_code(args) -> int:
    """Build a k-dimensional relay code, export it, report the oracle gap."""
    if args.k < 1:
        raise DomainError(f"k={args.k} must be at least 1")
    if args.k > DEFAULT_K_CAP and not args.force:
        raise DomainError(f"k={args.k} exceeds the cap {DEFAULT_K_CAP}; pass --force")
    channel = ChannelParams(a=args.a, b=args.b)
    pair = _pair_args(args)
    _check_out_dir(args.out)
    ev = optimize_bound(channel) if pair is None else theorem_bound(pair, channel)
    code = build_code(channel, ev.endpoint, args.k)
    with open(args.out, "w") as fh:
        export_code(code, channel, fh)
    oracle = evaluate_rank1(channel, code.s, code.D)
    gap = abs(oracle.energy_per_bit - ev.energy_per_bit) / ev.energy_per_bit
    _print_json(
        {
            "k": args.k,
            "A_f": ev.endpoint.A_f,
            "B_f": ev.endpoint.B_f,
            "oracle_energy_per_bit": oracle.energy_per_bit,
            "oracle_normalized": oracle.normalized,
            "theorem_energy_per_bit": ev.energy_per_bit,
            "relative_gap": gap,
            "out": args.out,
        }
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    """Print one line per check of check_identities; exit 1 if any fails."""
    if args.n_samples < 2:
        raise DomainError(f"n-samples={args.n_samples} must be at least 2")
    channel = ChannelParams(a=args.a, b=args.b)
    pair = _pair_args(args)
    if pair is None:
        endpoint = optimize_bound(channel).endpoint
    else:
        # Solved directly rather than through theorem_bound, whose
        # cancellation floors refuse near-boundary pairs verify still checks.
        endpoint = solve_endpoint(pair, channel)
    traj = build_trajectory(endpoint, channel, n_samples=args.n_samples)
    checks = check_identities(traj, endpoint, channel)
    for check in checks:
        print(
            f"{check.name}: worst={check.worst_residual:.3e} "
            f"tol={check.tolerance:.1e} {'PASS' if check.passed else 'FAIL'}"
        )
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linrelay",
        description="Energy-per-bit bounds for the Gaussian relay channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_channel(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=float, required=True, help="source-to-relay gain")
        p.add_argument("--b", type=float, required=True, help="relay-to-destination gain")

    def add_pair(p: argparse.ArgumentParser) -> None:
        p.add_argument("--Af", type=float, default=None, help="terminal A value")
        p.add_argument("--Bf", type=float, default=None, help="terminal B value")

    p_bound = sub.add_parser("bound", help="evaluate the bound at one channel point")
    add_channel(p_bound)
    add_pair(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_sweep = sub.add_parser("sweep", help="tabulate all bounds over a range of b")
    p_sweep.add_argument("--a", type=float, required=True)
    p_sweep.add_argument("--b-min", type=float, required=True)
    p_sweep.add_argument("--b-max", type=float, required=True)
    p_sweep.add_argument("--n-points", type=int, required=True)
    p_sweep.add_argument("--grid", choices=("linear", "log"), default="log")
    p_sweep.add_argument("--out", required=True, help="output table path")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--svg", default=None, help="optional chart path")
    p_sweep.set_defaults(func=cmd_sweep)

    p_code = sub.add_parser("code", help="construct and export a finite-k code")
    add_channel(p_code)
    add_pair(p_code)
    p_code.add_argument("--k", type=int, required=True, help="blocklength")
    p_code.add_argument("--out", required=True, help="export path")
    p_code.add_argument("--force", action="store_true", help="allow k beyond the cap")
    p_code.set_defaults(func=cmd_code)

    p_verify = sub.add_parser("verify", help="run identity and residual checks")
    add_channel(p_verify)
    add_pair(p_verify)
    p_verify.add_argument("--n-samples", type=int, default=512)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, LinrelayError):
        return exc.exit_code
    # Bare overflow and division by zero at extreme gains are collapse.
    return EXIT_COLLAPSE if isinstance(exc, ArithmeticError) else EXIT_INVALID_INPUT


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; map every expected failure to its exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _EXPECTED_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except MemoryError as exc:
        # A size too large to hold, as a forced k's k x k matrix or a huge
        # --n-samples; numpy's message names the allocation, a bare one is empty.
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
