"""Baseline bounds: block-Markov, cut-set, and the 2x2 linear scheme.

The first two are closed-form arithmetic.  The 2x2 scheme is a genuine
small optimization over (beta, P1, P2): a grid scan ranks its candidate
schemes through the stacked form of the matrix oracle, one beta row at a
time, and a simplex refinement from the best grid point evaluates each
scheme through the dense oracle that certifies the constructed codes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import BoundaryPair, BoundEvaluation, ChannelParams, optimize_bound
from .codes import evaluate_rank1, evaluate_rank1_stacked
from .numerics import minimize_simplex

__all__ = [
    "BoundsRecord",
    "TwoByTwoResult",
    "block_markov_bound",
    "cutset_bound",
    "two_by_two_bound",
    "bounds_record",
]

_PENALTY = 1e9

# Power grid for the 2x2 scan; the infimum is approached at small powers, and
# the low cap is validated by a cap-halving test.
_POWER_LO = 1e-6
_POWER_HI = 10.0
_POWER_POINTS = 31
_BETA_POINTS = 41


@dataclass(frozen=True)
class TwoByTwoResult:
    """Optimized 2x2 linear scheme: normalized value and its argmin."""

    value: float
    beta: float
    P1: float
    P2: float


@dataclass(frozen=True)
class BoundsRecord:
    """All four normalized bounds for one channel, with optimizer metadata."""

    a: float
    b: float
    block_markov: float
    cutset: float
    two_by_two: float
    rank1: float
    two_by_two_argmin: TwoByTwoResult
    rank1_pair: BoundaryPair
    rank1_eval: BoundEvaluation


def block_markov_bound(channel: ChannelParams) -> float:
    """Normalized block-Markov upper bound min(1, (a^2+b^2)/(a^2 (1+b^2)))."""
    a2 = channel.a * channel.a
    b2 = channel.b * channel.b
    return min(1.0, (a2 + b2) / (a2 * (1.0 + b2)))


def cutset_bound(channel: ChannelParams) -> float:
    """Normalized cut-set lower bound (1+a^2+b^2)/((1+a^2)(1+b^2))."""
    a2 = channel.a * channel.a
    b2 = channel.b * channel.b
    return (1.0 + a2 + b2) / ((1.0 + a2) * (1.0 + b2))


def _scheme(channel: ChannelParams, beta, P1, P2):
    """Source vectors and relay matrices of the 2x2 scheme at given powers.

    The arguments broadcast together.  Scalars give s with shape (2,) and D
    with shape (2, 2); a broadcast shape (n,) gives the stacks (n, 2) and
    (n, 2, 2).
    """
    beta, P1, P2 = np.broadcast_arrays(beta, P1, P2)
    d = np.sqrt(2.0 * P2 / (2.0 * channel.a**2 * beta * P1 + 1.0))
    root = np.sqrt(2.0 * P1)
    s = np.stack([root * np.sqrt(beta), root * np.sqrt(1.0 - beta)], axis=-1)
    D = np.zeros(d.shape + (2, 2))
    D[..., 1, 0] = d
    return s, D


def _evaluate_scheme(channel: ChannelParams, beta: float, P1: float, P2: float) -> float:
    s, D = _scheme(channel, beta, P1, P2)
    return evaluate_rank1(channel, s, D).normalized


def _grid(channel: ChannelParams):
    """The 2x2 scan grid and the stacked oracle's value at each of its schemes.

    Returns:
        betas (41,), then P1s and P2s (961,) holding the (P1, P2) pairs in
        row-major order, then values (41, 961), row i for betas[i].
    """
    betas = np.linspace(0.0, 1.0, _BETA_POINTS)
    powers = np.geomspace(_POWER_LO, _POWER_HI, _POWER_POINTS)
    P1s, P2s = (p.ravel() for p in np.meshgrid(powers, powers, indexing="ij"))
    # One stack per beta row: a single stack over the whole grid holds every
    # intermediate at once and raises peak memory by 9.7 MiB, not 1.3 MiB.
    values = np.array(
        [evaluate_rank1_stacked(channel, *_scheme(channel, beta, P1s, P2s)) for beta in betas]
    )
    return betas, P1s, P2s, values


def two_by_two_bound(channel: ChannelParams) -> TwoByTwoResult:
    """Minimize the 2x2 scheme's energy-per-bit over (beta, P1, P2).

    Grid: beta over 41 uniform points in [0, 1], P1 and P2 over 31
    log-spaced points in [1e-6, 10].  Each beta row of 961 (P1, P2)
    schemes goes through the stacked matrix oracle in one call; the first
    grid minimum wins.  The dense oracle then evaluates the winner again and
    every probe of a Nelder-Mead refinement in (beta, ln P1, ln P2),
    constrained to the same box, so every value returned comes from the
    dense oracle.

    Args:
        channel: Channel gains.

    Returns:
        Normalized minimum and its argmin.
    """
    betas, P1s, P2s, values = _grid(channel)
    # First minimum in (beta, P1, P2) order.  The dense oracle evaluates it
    # again, since stacked values differ from dense ones by a few ulps.
    i, j = np.unravel_index(np.argmin(values), values.shape)
    point = (float(betas[i]), float(P1s[j]), float(P2s[j]))
    best = (_evaluate_scheme(channel, *point), *point)

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

    start = [best[1], math.log(best[2]), math.log(best[3])]
    x, value = minimize_simplex(objective, start)
    if value < best[0]:
        return TwoByTwoResult(
            value=value,
            beta=float(x[0]),
            P1=math.exp(float(x[1])),
            P2=math.exp(float(x[2])),
        )
    return TwoByTwoResult(value=best[0], beta=best[1], P1=best[2], P2=best[3])


def bounds_record(channel: ChannelParams) -> BoundsRecord:
    """Compute all four normalized bounds for one channel point."""
    two = two_by_two_bound(channel)
    pair, ev = optimize_bound(channel)
    return BoundsRecord(
        a=channel.a,
        b=channel.b,
        block_markov=block_markov_bound(channel),
        cutset=cutset_bound(channel),
        two_by_two=two.value,
        rank1=ev.normalized,
        two_by_two_argmin=two,
        rank1_pair=pair,
        rank1_eval=ev,
    )
