"""Generic numerical kernels used by the rest of the package.

Three tools live here: adaptive Simpson quadrature, bracketed root-finding,
and a deterministic Nelder-Mead wrapper.

The quadrature is hand-rolled because callers need precise control over the
failure modes (a hard recursion cap and an explicit error when a tolerance is
unreachable).  Root-finding and simplex minimization wrap scipy; re-deriving
Brent or Nelder-Mead buys nothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import DepthExceededError, NoBracketError, NonFiniteError

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "integrate_adaptive",
    "find_root_bracketed",
    "minimize_simplex",
]

# brentq refuses relative tolerances below 4 ulp.
_BRENT_RTOL_FLOOR = 4.0 * np.finfo(float).eps

# Subintervals narrower than this multiple of their endpoints' ulp spacing
# are treated as converged.  Any variation on that scale is evaluation
# jitter, not structure a float64 integrand can express, and the abandoned
# contribution is bounded by jitter times width.  The multiplier is sized so
# that jitter-limited integrands (whose error estimate shrinks exactly as
# fast as the halving tolerance) stop in reasonable time instead of refining
# to single-ulp intervals.  Intervals adjacent to zero never trigger it, so
# endpoint singularities still refine normally.
_WIDTH_FLOOR = 4096.0 * np.finfo(float).eps

# Nelder-Mead settings suited to searches in log coordinates: the initial
# simplex edge, the iteration cap, and the stopping tolerances on f and x.
_SIMPLEX_SCALE = 0.25
_SIMPLEX_MAX_ITER = 2000
_SIMPLEX_F_TOL = 1e-10
_SIMPLEX_X_TOL = 1e-7


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and recursion cap for adaptive quadrature.

    Attributes:
        abs_tol: Absolute tolerance on the integral value.
        rel_tol: Relative tolerance on the integral value.
        max_depth: Maximum bisection depth before giving up.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 or self.rel_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _checked(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if not math.isfinite(fx):
        raise NonFiniteError(f"integrand returned {fx!r} at x={x!r}")
    return float(fx)


def _simpson(fa: float, fm: float, fb: float, h: float) -> float:
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _adapt(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    eps: float,
    depth: int,
    max_depth: int,
) -> float:
    mid = 0.5 * (lo + hi)
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    # Interval exhausted in floating point; the current estimate is final.
    # The width check matters for integrands whose rounding jitter tracks
    # the halving tolerance: without it they refine to single-ulp intervals.
    if (
        lmid <= lo
        or rmid <= mid
        or mid >= hi
        or hi - lo <= _WIDTH_FLOOR * max(abs(lo), abs(hi))
    ):
        return whole
    flm = _checked(f, lmid)
    frm = _checked(f, rmid)
    left = _simpson(fa, flm, fm, mid - lo)
    right = _simpson(fm, frm, fb, hi - mid)
    err = left + right - whole
    if abs(err) <= 15.0 * eps:
        # Richardson extrapolation: the halved rule plus its error estimate.
        return left + right + err / 15.0
    if depth >= max_depth:
        raise DepthExceededError(
            f"tolerance {eps:g} unreachable on [{lo!r}, {hi!r}] at depth {depth}"
        )
    half = 0.5 * eps
    return _adapt(f, lo, mid, fa, flm, fm, left, half, depth + 1, max_depth) + _adapt(
        f, mid, hi, fm, frm, fb, right, half, depth + 1, max_depth
    )


def integrate_adaptive(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> float:
    """Integrate f over [lo, hi] with adaptive Simpson refinement.

    The returned value I satisfies |I - integral| <= max(abs_tol, rel_tol*|I|)
    for integrands that are smooth on the interval.

    Args:
        f: Real function of one real variable, finite on [lo, hi].
        lo: Lower limit; must not exceed hi.
        hi: Upper limit.
        spec: Tolerances and recursion cap.

    Returns:
        The integral estimate; exactly 0.0 when lo == hi.

    Raises:
        ValueError: If lo > hi.
        NonFiniteError: If f returns NaN or infinity anywhere it is sampled.
        DepthExceededError: If the tolerance cannot be met within max_depth.
    """
    if lo > hi:
        raise ValueError(f"lo={lo!r} exceeds hi={hi!r}")
    if lo == hi:
        return 0.0
    fa = _checked(f, lo)
    mid = 0.5 * (lo + hi)
    fm = _checked(f, mid)
    fb = _checked(f, hi)
    whole = _simpson(fa, fm, fb, hi - lo)
    eps = max(spec.abs_tol, spec.rel_tol * abs(whole))
    return _adapt(f, lo, hi, fa, fm, fb, whole, eps, 0, spec.max_depth)


def find_root_bracketed(
    g: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-13,
) -> float:
    """Find a root of g inside [lo, hi] by Brent's method.

    Args:
        g: Continuous real function with g(lo)*g(hi) <= 0.
        lo: Left bracket end.
        hi: Right bracket end.
        tol: Relative tolerance on the final bracket width.

    Returns:
        A point x in [lo, hi] with the bracket shrunk to width tol*|x|.

    Raises:
        NoBracketError: If g has the same strict sign at both ends.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    glo = g(lo)
    ghi = g(hi)
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if glo * ghi > 0.0:
        raise NoBracketError(f"g({lo!r})={glo!r} and g({hi!r})={ghi!r} share a sign")
    rtol = max(tol, _BRENT_RTOL_FLOOR)
    return float(brentq(g, lo, hi, xtol=1e-300, rtol=rtol))


def minimize_simplex(
    f: Callable[[np.ndarray], float],
    start: Sequence[float],
) -> tuple[np.ndarray, float]:
    """Minimize f by deterministic Nelder-Mead from a fixed initial simplex.

    Constraints are the caller's problem: wrap f with a finite penalty before
    calling.  A non-finite f value anywhere is treated as a bug.

    Args:
        f: Objective; must return finite values at every probed point.
        start: Starting point, one coordinate per dimension.

    Returns:
        Pair (point, value) with value <= f(start).

    Raises:
        NonFiniteError: If f returns NaN or infinity at any probed point.
    """
    x0 = np.asarray(start, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("start must be a nonempty 1-D point")

    def checked(x: np.ndarray) -> float:
        fx = float(f(x))
        if not math.isfinite(fx):
            raise NonFiniteError(f"objective returned {fx!r} at {x.tolist()!r}")
        return fx

    simplex = np.vstack([x0] + [x0 + _SIMPLEX_SCALE * e for e in np.eye(x0.size)])
    res = minimize(
        checked,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "maxiter": _SIMPLEX_MAX_ITER,
            "fatol": _SIMPLEX_F_TOL,
            "xatol": _SIMPLEX_X_TOL,
        },
    )
    return np.asarray(res.x, dtype=float), float(res.fun)

