"""Generic numerical kernels used by the rest of the package.

Two tools live here, bracketed root-finding and a deterministic Nelder-Mead
wrapper.  The root finder is Brent's method (Brent 1973) ported step for
step from scipy's C brentq, written as a generator of probe points so that
many roots can be sought in lockstep; the simplex wraps scipy's
Nelder-Mead.
"""
from __future__ import annotations

import math
from typing import Callable, Generator, Sequence

import numpy as np
from scipy.optimize import minimize

from .errors import NoBracketError, NonFiniteError, RootNotConvergedError

__all__ = [
    "find_root_bracketed",
    "root_steps",
    "drive_steps",
    "minimize_simplex",
]

# Brent's absolute tolerance, and its relative tolerance floor of 4 ulp;
# scipy's brentq refuses anything below that floor.
_BRENT_XTOL = 1e-300
_BRENT_RTOL_FLOOR = 4.0 * np.finfo(float).eps

# Probes after the two bracket ends before Brent gives up (scipy's maxiter).
_BRENT_MAX_ITER = 100

# Nelder-Mead settings suited to searches in log coordinates: the initial
# simplex edge, the iteration cap, and the stopping tolerances on f and x.
_SIMPLEX_SCALE = 0.25
_SIMPLEX_MAX_ITER = 2000
_SIMPLEX_F_TOL = 1e-10
_SIMPLEX_X_TOL = 1e-7


def drive_steps(steps: Generator, answer: Callable):
    """Run a step generator to completion, answering each request with answer(request)."""
    try:
        request = next(steps)
        while True:
            request = steps.send(answer(request))
    except StopIteration as stop:
        return stop.value


def _probed(x: float, gx: float) -> float:
    if gx != gx:
        raise NonFiniteError(f"root function returned {gx!r} at x={x!r}")
    return gx


def root_steps(lo: float, hi: float, tol: float = 1e-13) -> Generator[float, float, float]:
    """Brent's method on [lo, hi] as a generator: yields each probe x, receives g(x).

    The probes, their order and the returned root are those of scipy's
    brentq(g, lo, hi, xtol=1e-300, rtol=max(tol, 4 ulp)), since every float
    operation is the C code's, in its order.  find_root_bracketed documents
    the contract.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    glo = _probed(lo, (yield lo))
    ghi = _probed(hi, (yield hi))
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    if (glo < 0.0) == (ghi < 0.0):
        raise NoBracketError(f"g({lo!r})={glo!r} and g({hi!r})={ghi!r} share a sign")
    rtol = max(tol, _BRENT_RTOL_FLOOR)
    # xcur is the best estimate, xblk the other end of the bracket, xpre
    # the previous estimate; scur and spre are the last two steps.
    xpre, fpre, xcur, fcur = lo, glo, hi, ghi
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAX_ITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # Secant (interpolation).
                num = -fcur * (xcur - xpre)
                den = fcur - fpre
            else:
                # Inverse quadratic (extrapolation).
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = -fcur * (fblk * dblk - fpre * dpre)
                den = dblk * dpre * (fblk - fpre)
            # A zero denominator gives C an inf or NaN step, which bisects.
            if den != 0.0:
                stry = num / den
                short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        if short:
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = _probed(xcur, (yield xcur))
    raise RootNotConvergedError(
        f"Brent's method did not converge in {_BRENT_MAX_ITER} iterations; last x={xcur!r}"
    )


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
        A point x in [lo, hi] with the bracket shrunk to width tol*|x|:
        lo or hi itself where g is 0 there, else the root scipy's brentq
        returns with xtol=1e-300 and rtol=max(tol, 4 ulp), from the same
        probes.

    Raises:
        ValueError: If tol is not positive and finite.
        NonFiniteError: If g returns NaN.
        NoBracketError: If g has the same strict sign at both ends.
        RootNotConvergedError: If 100 probes after the two ends do not
            shrink the bracket to tolerance.
    """
    return drive_steps(root_steps(lo, hi, tol), g)


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

