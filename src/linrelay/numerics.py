"""Generic numerical kernels used by the rest of the package.

Two tools live here, bracketed root-finding and a deterministic Nelder-Mead
wrapper.  Both wrap scipy; re-deriving Brent or Nelder-Mead buys nothing.
"""
from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq, minimize

from .errors import NoBracketError, NonFiniteError

__all__ = [
    "find_root_bracketed",
    "minimize_simplex",
]

# brentq refuses relative tolerances below 4 ulp.
_BRENT_RTOL_FLOOR = 4.0 * np.finfo(float).eps

# Nelder-Mead settings suited to searches in log coordinates: the initial
# simplex edge, the iteration cap, and the stopping tolerances on f and x.
_SIMPLEX_SCALE = 0.25
_SIMPLEX_MAX_ITER = 2000
_SIMPLEX_F_TOL = 1e-10
_SIMPLEX_X_TOL = 1e-7


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
        ValueError: If tol is not positive and finite.
        NoBracketError: If g has the same strict sign at both ends.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
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

