"""Baseline bounds: block-Markov, cut-set, and the 2x2 linear scheme.

The first two are closed-form arithmetic.  The 2x2 scheme is a genuine
small optimization over (beta, P1, P2): a grid scan ranks its candidate
schemes by the matrix formula in closed form, which is short algebra for
this family since I + b^2 D D^T is diagonal, and a simplex refinement from
the best grid point evaluates each scheme through the dense oracle that
certifies the constructed codes.
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

# optimize_bound is not called here; perfbench/tracing.py wraps it under
# this module's name.
from .bound import TWO_LN2, BoundEvaluation, ChannelParams, optimize_bound, optimize_bounds
from .codes import evaluate_rank1
from .numerics import minimize_simplex

__all__ = [
    "BoundsRecord",
    "block_markov_bound",
    "cutset_bound",
    "two_by_two_bound",
    "bounds_records",
]

_PENALTY = 1e9

# Power grid for the 2x2 scan; the infimum is approached at small powers, and
# the low cap is validated by a cap-halving test.
_POWER_LO = 1e-6
_POWER_HI = 10.0
_POWER_POINTS = 31
_BETA_POINTS = 41


@dataclass(frozen=True)
class BoundsRecord:
    """All four normalized bounds for one channel.

    The rank-1 bound is rank1_eval.normalized, and rank1_eval.endpoint
    carries the optimal pair (A_f, B_f).
    """

    a: float
    b: float
    block_markov: float
    cutset: float
    two_by_two: float
    rank1_eval: BoundEvaluation


def block_markov_bound(channel: ChannelParams) -> float:
    """Normalized block-Markov upper bound min(1, (a^2+b^2)/(a^2 (1+b^2)))."""
    a2 = channel.a * channel.a
    b2 = channel.b * channel.b
    # Where a^2 underflows to 0 the bound takes its limit, min(1, inf).
    if a2 == 0.0:
        return 1.0
    return min(1.0, (a2 + b2) / (a2 * (1.0 + b2)))


def cutset_bound(channel: ChannelParams) -> float:
    """Normalized cut-set lower bound (1+a^2+b^2)/((1+a^2)(1+b^2))."""
    a2 = channel.a * channel.a
    b2 = channel.b * channel.b
    return (1.0 + a2 + b2) / ((1.0 + a2) * (1.0 + b2))


def _entries(a2: float, beta: float, P1, P2):
    """Relay gain d and source entries s1, s2 of the 2x2 scheme, elementwise
    in P1, P2; a2 is ChannelParams.a_squared."""
    d = np.sqrt(2.0 * P2 / (2.0 * a2 * beta * P1 + 1.0))
    root = np.sqrt(2.0 * P1)
    return d, root * math.sqrt(beta), root * math.sqrt(1.0 - beta)


def _scheme(channel: ChannelParams, beta: float, P1: float, P2: float):
    """Source vector s (2,) and relay matrix D (2, 2) of the 2x2 scheme."""
    d, s1, s2 = _entries(channel.a_squared(), beta, P1, P2)
    return np.array([s1, s2]), np.array([[0.0, 0.0], [d, 0.0]])


def _evaluate_scheme(channel: ChannelParams, beta: float, P1: float, P2: float) -> float:
    s, D = _scheme(channel, beta, P1, P2)
    return evaluate_rank1(channel, s, D).normalized


def _grid(channel: ChannelParams):
    """The 2x2 scan grid and the matrix formula's value at each of its schemes.

    With s = (s1, s2) and D = [[0, 0], [d, 0]] the formula is closed form:

        numerator = s1^2 + s2^2 + a^2 (d s1)^2 + d^2
        quad      = s1^2 + (s2 + a b d s1)^2 / (1 + b^2 d^2)

    Returns:
        betas (41,), powers (31,), and values (41, 31, 31), where
        values[i, j1, j2] is the scheme at (betas[i], powers[j1], powers[j2]).
    """
    a, b = channel.a, channel.b
    a2 = channel.a_squared()
    betas = np.linspace(0.0, 1.0, _BETA_POINTS)
    powers = np.geomspace(_POWER_LO, _POWER_HI, _POWER_POINTS)
    P1, P2 = powers[:, None], powers[None, :]
    values = np.empty((_BETA_POINTS, _POWER_POINTS, _POWER_POINTS))
    for row, beta in zip(values, betas.tolist()):
        d, s1, s2 = _entries(a2, beta, P1, P2)
        numerator = s1 * s1 + s2 * s2 + a * a * (d * s1) ** 2 + d * d
        quad = s1 * s1 + (s2 + a * b * d * s1) ** 2 / (1.0 + b * b * d * d)
        row[...] = numerator / (0.5 * np.log1p(quad) / math.log(2.0)) / TWO_LN2
    return betas, powers, values


def two_by_two_bound(channel: ChannelParams) -> float:
    """Minimize the 2x2 scheme's energy-per-bit over (beta, P1, P2).

    Grid: beta over 41 uniform points in [0, 1], P1 and P2 over 31
    log-spaced points in [1e-6, 10].  The grid is ranked by the matrix
    formula in closed form, one beta row of 31 x 31 (P1, P2) schemes at a
    time; the first grid minimum wins.  The dense oracle then evaluates the
    winner again and every probe of a Nelder-Mead refinement in
    (beta, ln P1, ln P2), constrained to the same box, so every value
    returned comes from the dense oracle.

    Args:
        channel: Channel gains.

    Returns:
        Normalized minimum; the refined value only if it is strictly below
        the grid winner's.
    """
    betas, powers, values = _grid(channel)
    # First minimum in (beta, P1, P2) order.  The dense oracle evaluates it
    # again, since closed-form values differ from dense ones by a few ulps.
    i, j1, j2 = np.unravel_index(np.argmin(values), values.shape)
    beta, P1, P2 = float(betas[i]), float(powers[j1]), float(powers[j2])
    best = _evaluate_scheme(channel, beta, P1, P2)

    log_lo, log_hi = math.log(_POWER_LO), math.log(_POWER_HI)

    def objective(x) -> float:
        beta, log_p1, log_p2 = float(x[0]), float(x[1]), float(x[2])
        # Refinement stays inside the same (beta, P1, P2) box the grid scans,
        # so the reported value is the minimum of one well-defined family.
        if not 0.0 <= beta <= 1.0:
            return _PENALTY
        if not (log_lo <= log_p1 <= log_hi and log_lo <= log_p2 <= log_hi):
            return _PENALTY
        return _evaluate_scheme(channel, beta, math.exp(log_p1), math.exp(log_p2))

    _, value = minimize_simplex(objective, [beta, math.log(P1), math.log(P2)])
    return value if value < best else best


def bounds_records(channels: Sequence[ChannelParams]) -> Iterator[BoundsRecord]:
    """All four normalized bounds for each channel point, in order.

    The rank-1 searches of all the channels run in lockstep
    (optimize_bounds).  Each channel's 2x2 baseline is computed in its turn,
    before its rank-1 result is taken, so warnings and errors come out in
    the order of a channel-by-channel loop.  Each next() gives the next
    channel's record or raises its error, and the next call goes on with the
    channel after it; a channel whose 2x2 baseline fails passes over its
    rank-1 result.
    """
    rank1 = optimize_bounds(channels)

    def record(channel: ChannelParams) -> BoundsRecord:
        try:
            two_by_two = two_by_two_bound(channel)
        except Exception:
            # So that the next channel takes its own rank-1 result.
            with contextlib.suppress(Exception):
                next(rank1)
            raise
        return BoundsRecord(
            a=channel.a,
            b=channel.b,
            block_markov=block_markov_bound(channel),
            cutset=cutset_bound(channel),
            two_by_two=two_by_two,
            rank1_eval=next(rank1),
        )

    # A map, not a generator, which a raise would end.
    return map(record, channels)
