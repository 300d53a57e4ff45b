"""Generic numerical kernels used by the rest of the package.

Two tools live here, bracketed root-finding and a deterministic Nelder-Mead
simplex.  The root finder is Brent's method (Brent 1973) ported step for
step from scipy's C brentq, and the simplex is Nelder & Mead's method
(Comput. J. 7, 1965) ported step for step from scipy's Python
_minimize_neldermead (scipy 1.17).  Both are written as generators of probe
points, so that many roots or many minimizations can run in lockstep.
"""
from __future__ import annotations

import math
from typing import Callable, Generator, Sequence

import numpy as np

from .errors import NoBracketError, NonFiniteError, RootNotConvergedError

__all__ = [
    "find_root_bracketed",
    "root_steps",
    "drive_steps",
    "simplex_steps",
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


def simplex_steps(start: Sequence[float]) -> Generator[np.ndarray, float, tuple[np.ndarray, float]]:
    """Nelder-Mead as a generator: yields each probe, receives f(probe), returns (point, value).

    The probes, their order and the returned (point, value) are those of
    scipy's minimize(f, start, method="Nelder-Mead") with the initial simplex
    start + 0.25 e_i, maxiter=2000, fatol=1e-10 and xatol=1e-7, since every
    numpy operation is scipy's, in its order.  Each probe is a fresh copy, as
    scipy hands f; minimize_simplex documents the contract.
    """
    x0 = np.asarray(start, dtype=float)
    if x0.ndim != 1 or x0.size < 1:
        raise ValueError("start must be a nonempty 1-D point")
    # Reflection, expansion, contraction and shrink coefficients.
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    N = x0.size
    sim = np.vstack([x0] + [x0 + _SIMPLEX_SCALE * e for e in np.eye(N)])
    fsim = np.full((N + 1,), np.inf, dtype=float)

    def probed(x: np.ndarray, fx) -> float:
        fx = float(fx)
        if not math.isfinite(fx):
            raise NonFiniteError(f"objective returned {fx!r} at {x.tolist()!r}")
        return fx

    for k in range(N + 1):
        x = sim[k].copy()
        fsim[k] = probed(x, (yield x))
    # Sorted twice, as scipy sorts once after the first probes and once more.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    iterations = 1
    while iterations < _SIMPLEX_MAX_ITER:
        if (
            np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= _SIMPLEX_X_TOL
            and np.max(np.abs(fsim[0] - fsim[1:])) <= _SIMPLEX_F_TOL
        ):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = probed(xr, (yield xr.copy()))
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = probed(xe, (yield xe.copy()))
            if fxe < fxr:
                sim[-1] = xe
                fsim[-1] = fxe
            else:
                sim[-1] = xr
                fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        else:
            if fxr < fsim[-1]:
                # Outside contraction.
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = probed(xc, (yield xc.copy()))
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1] = xc
                    fsim[-1] = fxc
            else:
                # Inside contraction.
                xcc = (1 - psi) * xbar + psi * sim[-1]
                fxcc = probed(xcc, (yield xcc.copy()))
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
            if shrink:
                for j in range(1, N + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    x = sim[j].copy()
                    fsim[j] = probed(x, (yield x))
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], float(np.min(fsim))


def minimize_simplex(
    f: Callable[[np.ndarray], float],
    start: Sequence[float],
) -> tuple[np.ndarray, float]:
    """Minimize f by deterministic Nelder-Mead from a fixed initial simplex.

    The initial simplex is start and start + 0.25 e_i for each axis i; the
    search stops once every vertex lies within 1e-7 of the best one in each
    coordinate and within 1e-10 of its value, or after 2,000 iterations.
    Constraints are the caller's problem: wrap f with a finite penalty before
    calling.  A non-finite f value anywhere is treated as a bug.

    Args:
        f: Objective; must return finite values at every probed point.
        start: Starting point, one coordinate per dimension.

    Returns:
        Pair (point, value) with value <= f(start): simplex_steps driven
        with f, bit for bit scipy's Nelder-Mead with these settings.

    Raises:
        ValueError: If start is not a nonempty 1-D point.
        NonFiniteError: If f returns NaN or infinity at any probed point.
    """
    return drive_steps(simplex_steps(start), f)
