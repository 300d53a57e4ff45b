"""Rank-1 linear-relaying energy-per-bit bound for the Gaussian relay channel.

The channel has gain a from source to relay and gain b from relay to
destination.  For a terminal pair (A_f, B_f) with A_f/B_f <= a^2 there is a
unique endpoint (A0, psi) solving a coupled pair of integral equations; from
it, closed-form source and relay energies Q1, Q2 and a mutual-information
term yield an upper bound E(A_f, B_f) on the minimum energy-per-bit
achievable with rank-1 linear relaying.  The overall bound is the infimum of
E over valid pairs, realized here by a coarse log-grid scan followed by
Nelder-Mead refinement.

The two endpoint integrals are computed together by one adaptive Simpson
walk (integrate_adaptive) that evaluates f once per node, with one tolerance
and a recursion cap per integral from QuadratureSpec.  It is hand-rolled
because callers need precise control over the failure modes: a hard
recursion cap and an explicit error when a tolerance is unreachable.  The
walk raises the first failure it meets, of either integral.
integrate_batch walks many intervals at once in numpy with the same bits
and answers every one of them: the walks it cannot do itself it finishes
with integrate_adaptive, which gives each failure its exact error.

Each endpoint solve is a generator of walk requests (_endpoint_steps) that
solve_endpoint drives with integrate_adaptive.  The optimizer evaluates
every pair it touches by one objective, itself a generator of walk
requests (_objective_steps), which drops a pair on a feasibility error or
a non-finite value.  One driver (_lockstep) runs a list of such generators
to their ends in lockstep rounds and returns their outcomes: each round's
pending walks go to integrate_batch when there are enough of them and to
integrate_adaptive when there are few.  The scan runs its grid pairs
through it in waves at its looser tolerances.  The refinement runs its
Nelder-Mead starts (numerics.simplex_steps), of one channel or of many
(optimize_bounds), in steps: each start runs on until it asks for a pair
not yet solved, the pairs asked in a step are solved by one driver call,
and their outcomes go into a memo that the starts resume from.  The
optimum's evaluation is read from that memo, not solved again.
"""
from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import (
    BracketOverflowError,
    DegenerateBoundError,
    DepthExceededError,
    DomainError,
    NoBracketError,
    NoFeasiblePointError,
    NonFiniteError,
    RouteMismatchError,
)
# find_root_bracketed and minimize_simplex are not called here;
# perfbench/tracing.py wraps them under this module's name.
from .numerics import (
    drive_steps,
    find_root_bracketed,
    minimize_simplex,
    root_steps,
    simplex_steps,
)

__all__ = [
    "QuadratureSpec",
    "DEFAULT_QUADRATURE",
    "ChannelParams",
    "BoundaryPair",
    "EndpointSolution",
    "BoundEvaluation",
    "check_pair",
    "compute_phi",
    "f_eval",
    "integrate_adaptive",
    "integrate_batch",
    "solve_endpoint",
    "lambda_and_Q1",
    "theorem_bound",
    "optimize_bound",
    "optimize_bounds",
]

TWO_LN2 = 2.0 * math.log(2.0)

# The ratio A_f/B_f = a^2 is an exact degeneracy (Q1 = 0, log argument = 1);
# pairs this close to it are rejected rather than evaluated as 0/0 noise.
RATIO_MARGIN = 1e-9

# A computed difference smaller than this fraction of its largest term is
# below float cancellation noise and unusable; 1e-10 leaves a ~1e-6 relative
# accuracy margin over the ~1e-16 rounding of each term.
_CANCEL_FLOOR = 1e-10

# Bracket expansion cap when hunting for the endpoint A0.
_BRACKET_CAP = 1e30

# Subintervals narrower than this multiple of their endpoints' ulp spacing
# are treated as converged.  Any variation on that scale is evaluation
# jitter, not structure a float64 integrand can express, and the abandoned
# contribution is bounded by jitter times width.  The multiplier is sized so
# that jitter-limited integrands (whose error estimate shrinks exactly as
# fast as the halving tolerance) stop in reasonable time instead of refining
# to single-ulp intervals.  Intervals adjacent to zero never trigger it, so
# endpoint singularities still refine normally.
_WIDTH_FLOOR = 4096.0 * sys.float_info.epsilon

# Penalty value returned to the simplex for infeasible probe points.  Finite,
# so the minimizer backs off instead of aborting.
_PENALTY = 1e9


@dataclass(frozen=True)
class ChannelParams:
    """Amplitude gains of the relay channel: a source-to-relay, b relay-to-destination.

    b^2 enters every bound, code and baseline as b * b, so a gain b whose
    square overflows is refused here with NonFiniteError.  a^2 is checked
    where it is used (a_squared, and the scan's a^2*B_f grid check).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"gain a must be positive and finite, got {self.a!r}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"gain b must be positive and finite, got {self.b!r}")
        if self.b * self.b == math.inf:
            raise NonFiniteError(f"b^2 overflows at gain b={self.b!r}")

    def a_squared(self) -> float:
        """a**2; NonFiniteError naming the gain where it overflows."""
        try:
            return self.a**2
        except OverflowError:
            raise NonFiniteError(f"a^2 overflows at gain a={self.a!r}") from None


@dataclass(frozen=True)
class BoundaryPair:
    """Terminal values (A_f, B_f) of the 2-D system; the outer search variables."""

    A_f: float
    B_f: float

    def __post_init__(self) -> None:
        if not (self.A_f > 0.0 and math.isfinite(self.A_f)):
            raise ValueError(f"A_f must be positive and finite, got {self.A_f!r}")
        if not (self.B_f > 0.0 and math.isfinite(self.B_f)):
            raise ValueError(f"B_f must be positive and finite, got {self.B_f!r}")

    def ratio(self) -> float:
        return self.A_f / self.B_f


@dataclass(frozen=True)
class EndpointSolution:
    """Unique endpoint of the integral-equation system for one boundary pair.

    Attributes:
        phi: Conserved constant A*B + 1/A - 1/B along the trajectory.
        A0: Value of A at S = 0 (the trajectory start).
        psi: Positive constant recovered from the second integral equation.
        B0: f(A0), the B value at S = 0.
        A_f: Terminal A of the input pair.
        B_f: Terminal B of the input pair.  With A_f, the one place a
            result carries its pair.
        i2_value: Second cumulative integral of f^2/(1+w f^2) over [A_f, A0].
        residual_first: Scaled residual of the first integral equation.
        residual_second: Scaled residual of the second integral equation.
    """

    phi: float
    A0: float
    psi: float
    B0: float
    A_f: float
    B_f: float
    i2_value: float
    residual_first: float
    residual_second: float


@dataclass(frozen=True)
class BoundEvaluation:
    """Energy-per-bit bound at one boundary pair.

    Attributes:
        lam: The multiplier scale lambda = a^2 c1^2 / A0.
        c1: The conserved cube root b*psi.
        Q1: Source energy.
        Q2: Relay energy.
        log_arg: Argument of the log in the bound denominator (> 1 off
            the degenerate boundary).
        energy_per_bit: (Q1 + Q2) / (0.5 * log2(log_arg)).
        normalized: energy_per_bit / (2 ln 2); 1.0 is direct transmission.
        endpoint: The endpoint solution every other field is read off.
    """

    lam: float
    c1: float
    Q1: float
    Q2: float
    log_arg: float
    energy_per_bit: float
    normalized: float
    endpoint: EndpointSolution


class _ClosedForms(NamedTuple):
    lam: float
    c1: float
    Q1: float
    Q2: float
    q2_cubic: float
    q2_mixed: float
    log_arg: float
    arg_scale: float


def compute_phi(pair: BoundaryPair) -> float:
    """Conserved constant phi = A_f*B_f + 1/A_f - 1/B_f of the 2-D system."""
    return pair.A_f * pair.B_f + 1.0 / pair.A_f - 1.0 / pair.B_f


def _f_terms(w: float, phi: float) -> tuple[float, float, float]:
    # f(w) and the two endpoint integrands f/(1+w f^2) and f^2/(1+w f^2);
    # the one place the formula for f is written.
    t = phi * w - 1.0
    disc = math.sqrt(t * t + 4.0 * w * w * w)
    if t < 0.0:
        fw = 2.0 * w / (disc - t)
    else:
        fw = (t + disc) / (2.0 * w * w)
    den = 1.0 + w * fw * fw
    return fw, fw / den, fw * fw / den


def f_eval(w: float, phi: float) -> float:
    """Positive root B of w*B + 1/w - 1/B = phi, as a function of w.

    Equivalent closed form: (phi*w - 1 + sqrt((phi*w - 1)^2 + 4 w^3)) / (2 w^2).
    When phi*w - 1 < 0 the literal form subtracts nearly equal quantities, so
    the rationalized branch 2w / (sqrt(...) + 1 - phi*w) is used instead.

    Args:
        w: Evaluation point, strictly positive.
        phi: The conserved constant.

    Returns:
        f(w) > 0.

    Raises:
        DomainError: If w <= 0.
        NonFiniteError: If 2 w^2 underflows to 0 on the large-w branch.
    """
    if w <= 0.0:
        raise DomainError(f"f is defined for w > 0, got {w!r}")
    try:
        return _f_terms(w, phi)[0]
    except ZeroDivisionError:
        raise NonFiniteError(
            f"f is infinite at w={w!r}, phi={phi!r}: 2*w*w underflows to 0"
        ) from None


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerance and recursion cap of the endpoint walk, per integral.

    Attributes:
        tol: Tolerance on the integral value, absolute below magnitude 1
            and relative above it.
        max_depth: Maximum bisection depth before giving up.
    """

    tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self) -> None:
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


DEFAULT_QUADRATURE = QuadratureSpec()


def _non_finite(g: float, x: float) -> NonFiniteError:
    return NonFiniteError(f"integrand returned {g!r} at x={x!r}")


def _too_deep(eps: float, lo: float, hi: float, depth: int) -> DepthExceededError:
    return DepthExceededError(
        f"tolerance {eps:g} unreachable on [{lo!r}, {hi!r}] at depth {depth}"
    )


def _one(
    phi: float,
    lo: float,
    hi: float,
    fa: float,
    fm: float,
    fb: float,
    whole: float,
    eps: float,
    depth: int,
    max_depth: int,
    k: int,
) -> float:
    # Adaptive Simpson on [lo, hi] for integrand k alone (1 or 2).
    mid = 0.5 * (lo + hi)
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    # Interval exhausted in floating point; the current estimate is final.
    # The walk starts at lo > 0, so hi is the larger endpoint magnitude.
    if (
        lmid <= lo
        or rmid <= mid
        or mid >= hi
        or hi - lo <= _WIDTH_FLOOR * hi
    ):
        return whole
    flm = _f_terms(lmid, phi)[k]
    if not math.isfinite(flm):
        raise _non_finite(flm, lmid)
    frm = _f_terms(rmid, phi)[k]
    if not math.isfinite(frm):
        raise _non_finite(frm, rmid)
    left = ((mid - lo) / 6.0) * (fa + 4.0 * flm + fm)
    right = ((hi - mid) / 6.0) * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if abs(err) <= 15.0 * eps:
        # Richardson extrapolation: the halved rule plus its error estimate.
        return left + right + err / 15.0
    if depth >= max_depth:
        raise _too_deep(eps, lo, hi, depth)
    half = 0.5 * eps
    return _one(phi, lo, mid, fa, flm, fm, left, half, depth + 1, max_depth, k) + _one(
        phi, mid, hi, fm, frm, fb, right, half, depth + 1, max_depth, k
    )


def _two(
    phi: float,
    lo: float,
    hi: float,
    fa1: float,
    fm1: float,
    fb1: float,
    fa2: float,
    fm2: float,
    fb2: float,
    whole1: float,
    whole2: float,
    eps1: float,
    eps2: float,
    depth: int,
    max_depth: int,
) -> tuple[float, float]:
    # Adaptive Simpson on [lo, hi] for both integrands while both refine.
    # Each keeps its own error test, eps and summation order, so each value
    # is bit for bit what _one would return for it.
    mid = 0.5 * (lo + hi)
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    if (
        lmid <= lo
        or rmid <= mid
        or mid >= hi
        or hi - lo <= _WIDTH_FLOOR * hi
    ):
        return whole1, whole2
    _, flm1, flm2 = _f_terms(lmid, phi)
    _, frm1, frm2 = _f_terms(rmid, phi)
    if not math.isfinite(flm1):
        raise _non_finite(flm1, lmid)
    if not math.isfinite(frm1):
        raise _non_finite(frm1, rmid)
    if not math.isfinite(flm2):
        raise _non_finite(flm2, lmid)
    if not math.isfinite(frm2):
        raise _non_finite(frm2, rmid)
    left1 = ((mid - lo) / 6.0) * (fa1 + 4.0 * flm1 + fm1)
    right1 = ((hi - mid) / 6.0) * (fm1 + 4.0 * frm1 + fb1)
    left2 = ((mid - lo) / 6.0) * (fa2 + 4.0 * flm2 + fm2)
    right2 = ((hi - mid) / 6.0) * (fm2 + 4.0 * frm2 + fb2)
    err1 = left1 + right1 - whole1
    err2 = left2 + right2 - whole2
    if abs(err2) <= 15.0 * eps2:
        v2 = left2 + right2 + err2 / 15.0
        if abs(err1) <= 15.0 * eps1:
            return left1 + right1 + err1 / 15.0, v2
        if depth >= max_depth:
            raise _too_deep(eps1, lo, hi, depth)
        half = 0.5 * eps1
        return (
            _one(phi, lo, mid, fa1, flm1, fm1, left1, half, depth + 1, max_depth, 1)
            + _one(phi, mid, hi, fm1, frm1, fb1, right1, half, depth + 1, max_depth, 1),
            v2,
        )
    if abs(err1) <= 15.0 * eps1:
        if depth >= max_depth:
            raise _too_deep(eps2, lo, hi, depth)
        half = 0.5 * eps2
        return (
            left1 + right1 + err1 / 15.0,
            _one(phi, lo, mid, fa2, flm2, fm2, left2, half, depth + 1, max_depth, 2)
            + _one(phi, mid, hi, fm2, frm2, fb2, right2, half, depth + 1, max_depth, 2),
        )
    if depth >= max_depth:
        raise _too_deep(eps1, lo, hi, depth)
    half1 = 0.5 * eps1
    half2 = 0.5 * eps2
    l1, l2 = _two(
        phi, lo, mid, fa1, flm1, fm1, fa2, flm2, fm2,
        left1, left2, half1, half2, depth + 1, max_depth,
    )
    r1, r2 = _two(
        phi, mid, hi, fm1, frm1, fb1, fm2, frm2, fb2,
        right1, right2, half1, half2, depth + 1, max_depth,
    )
    return l1 + r1, l2 + r2


def integrate_adaptive(
    phi: float,
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Both endpoint integrals over [lo, hi] by one adaptive Simpson walk.

    The integrands are f/(1 + w f^2) and f^2/(1 + w f^2) with f = f_eval(., phi).
    The walk evaluates f once per node and refines each integral with its
    own error test, so each value I satisfies |I - integral| <=
    max(tol, tol*|I|) for integrands smooth on the interval, and is
    exactly what a separate adaptive Simpson run on that integrand returns.

    Args:
        phi: The conserved constant.
        lo: Lower limit; must not exceed hi.
        hi: Upper limit.
        spec: Tolerance and recursion cap, applied to each integral.

    Returns:
        Pair (I1, I2); exactly (0.0, 0.0) when lo == hi.

    Raises:
        ValueError: If lo > hi.
        DomainError: If lo <= 0 and lo < hi.
        NonFiniteError: If an integrand is NaN or infinite where it is
            sampled, as where 2 w^2 underflows to 0 in f.
        DepthExceededError: If a tolerance cannot be met within max_depth.
        The walk fails exactly when a separate run on either integrand
        would, and raises the first failure it meets.
    """
    if lo > hi:
        raise ValueError(f"lo={lo!r} exceeds hi={hi!r}")
    if lo == hi:
        return 0.0, 0.0
    if lo <= 0.0:
        f_eval(lo, phi)  # raises f's DomainError
    # Python floats: numpy scalars give the same bits, more slowly.
    phi, lo, hi = float(phi), float(lo), float(hi)
    # The try adds no frame under the walk, whose time depends on its depth.
    try:
        mid = 0.5 * (lo + hi)
        _, fa1, fa2 = _f_terms(lo, phi)
        _, fm1, fm2 = _f_terms(mid, phi)
        _, fb1, fb2 = _f_terms(hi, phi)
        for x, g in ((lo, fa1), (mid, fm1), (hi, fb1), (lo, fa2), (mid, fm2), (hi, fb2)):
            if not math.isfinite(g):
                raise _non_finite(g, x)
        whole1 = ((hi - lo) / 6.0) * (fa1 + 4.0 * fm1 + fb1)
        whole2 = ((hi - lo) / 6.0) * (fa2 + 4.0 * fm2 + fb2)
        return _two(
            phi, lo, hi, fa1, fm1, fb1, fa2, fm2, fb2,
            whole1, whole2,
            max(spec.tol, spec.tol * abs(whole1)),
            max(spec.tol, spec.tol * abs(whole2)),
            0, spec.max_depth,
        )
    except ZeroDivisionError:
        # 2 w^2 underflows to 0 where f's large-w branch meets a tiny w.
        raise NonFiniteError(
            f"integrand is infinite on [{lo!r}, {hi!r}] at phi={phi!r}: 2*w*w underflows to 0"
        ) from None


# The batch walk takes at most _BATCH_LEVEL nodes at a time.  A wider set
# is cut into slices, and each slice's subtrees are walked to the bottom
# before the next slice starts.  That bounds the memory held, and it reaches
# a failing node near the lower limit (where the jitter-limited integrands
# that fail at the depth cap fail) after a few hundred nodes, as the
# depth-first walk does, where a level-by-level walk would first fill out
# every level above the cap.  Every tree is walked to its end or its first
# failure, however many nodes it takes.
_BATCH_LEVEL = 512


def _f_terms_batch(w: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    # _f_terms' two integrands at many points into the rows of out, by the
    # same float operations in the same order (in place where the order
    # allows: + and * commute bit for bit).
    t = phi * w
    t -= 1.0
    disc = t * t
    cube = 4.0 * w
    cube *= w
    cube *= w
    disc += cube
    np.sqrt(disc, out=disc)
    neg = t < 0.0
    fw = t + disc
    np.multiply(2.0 * w, w, out=cube)
    fw /= cube
    np.subtract(disc, t, out=disc)
    np.multiply(2.0, w, out=cube)
    np.divide(cube, disc, out=fw, where=neg)
    den = w * fw
    den *= fw
    den += 1.0
    np.divide(fw, den, out=out[0])
    np.multiply(fw, fw, out=out[1])
    out[1] /= den


def _simpson_nodes(phi: np.ndarray, walk: np.ndarray, x: np.ndarray, active: np.ndarray) -> tuple:
    # Tree nodes from their intervals x = (lo, hi): rows fa, fm, fb (f at
    # both ends and the middle, two rows each) and the Simpson estimate,
    # by the recursive walk's float operations, so that a node rebuilt here
    # has the bits its parent gave it.
    lo, hi = x
    n = walk.size
    f = np.empty((2, 3 * n))
    pw = phi[walk]
    _f_terms_batch(np.concatenate((lo, 0.5 * (lo + hi), hi)), np.concatenate((pw, pw, pw)), f)
    f8 = np.empty((8, n))
    f8[:6] = f.reshape(2, 3, n).transpose(1, 0, 2).reshape(6, n)
    np.multiply((hi - lo) / 6.0, f8[0:2] + 4.0 * f8[2:4] + f8[4:6], out=f8[6:8])
    return walk, x, f8, active


class _Forest:
    """The trees of at most _BATCH_LEVEL walks, one tree per walk.

    A node set is (walk, x, f8, active) with one column per node: x holds
    lo and hi, f8 the rows fa, fm, fb and the Simpson estimate whole, each
    for both integrals (rows 0 and 1 of every pair), and active whether
    each integral still refines at the node (_two while both do, _one
    after).  A tree is gone once one of its nodes fails; integrate_batch
    then finishes it with integrate_adaptive.
    """

    def __init__(self, phi: np.ndarray, roots: tuple, spec: QuadratureSpec) -> None:
        f8 = roots[2]
        scaled = spec.tol * np.abs(f8[6:8])
        self.phi = phi
        self.eps15 = 15.0 * np.where(scaled > spec.tol, scaled, spec.tol)
        self.max_depth = spec.max_depth
        self.gone = ~np.isfinite(f8[:6]).all(axis=0)

    def values(self, depth: int, nodes: tuple) -> np.ndarray:
        """The (I1, I2) values of nodes at one depth, as _two and _one return them.

        Nodes of gone trees get zeros.  Node sets are passed inline
        (list.pop()), so that each call owns its nodes and can free them
        before it goes deeper.
        """
        m = nodes[0].size
        keep = (~self.gone[nodes[0]]).nonzero()[0]
        if not keep.size:
            return np.zeros((2, m))
        if keep.size < m or m > _BATCH_LEVEL:
            # Slices wait for their turn as intervals alone.
            parts = np.array_split(keep, -(-keep.size // _BATCH_LEVEL))
            walk, x, active = nodes[0], nodes[1], nodes[3]
            del nodes
            waiting = [(walk[p], x.take(p, axis=1), active.take(p, axis=1)) for p in parts]
            del walk, x, active
            out = np.zeros((2, m))
            for part in parts:
                out[:, part] = self.values(depth, _simpson_nodes(self.phi, *waiting.pop(0)))
            return out
        val, split, idx, children = self._level(depth, nodes)
        del nodes
        if idx.size:
            sub = self.values(depth + 1, children.pop())
            # A node that split is left + right of its children, as in the
            # recursive walk.
            sums = sub[:, : idx.size] + sub[:, idx.size :]
            for row in range(2):
                node = val[row]
                node[idx] = np.where(split[row], sums[row], node[idx])
        return val

    def _level(self, depth: int, nodes: tuple):
        # One level of _two/_one for every node: the node values where they
        # stop, the integrals that split, the nodes that have children, and
        # those children (in a one-element list).  Candidate child j is the
        # left half of node j, child m + j its right half.
        walk, x, f8, active = nodes
        m = walk.size
        lo, hi = x
        mid = 0.5 * (lo + hi)
        c_x = np.concatenate((lo, mid, mid, hi)).reshape(2, 2 * m)
        c_mid = 0.5 * (c_x[0] + c_x[1])
        c8 = np.empty((8, 2 * m))
        np.concatenate((f8[0:2], f8[2:4]), axis=1, out=c8[0:2])
        pw = self.phi[walk]
        _f_terms_batch(c_mid, np.concatenate((pw, pw)), c8[2:4])
        np.concatenate((f8[2:4], f8[4:6]), axis=1, out=c8[4:6])
        np.multiply((c_x[1] - c_x[0]) / 6.0, c8[0:2] + 4.0 * c8[2:4] + c8[4:6], out=c8[6:8])
        both = c8[6:8, :m] + c8[6:8, m:]
        err = both - f8[6:8]
        low = c_mid <= c_x[0]
        exhausted = low[:m] | low[m:] | (mid >= hi) | (hi - lo <= _WIDTH_FLOOR * hi)
        live = active & ~exhausted
        split = live & ~(np.abs(err) <= self.eps15.take(walk, axis=1) * 0.5**depth)
        finite = np.isfinite(c8[2:4])
        bad = live & ~(finite[:, :m] & finite[:, m:])
        if depth >= self.max_depth:
            bad |= split
        self.gone[walk[bad[0] | bad[1]]] = True
        parent = (split[0] | split[1]) & ~self.gone[walk]
        idx = parent.nonzero()[0]
        sel = np.concatenate((idx, idx + m))
        split = split.take(idx, axis=1)
        w = walk[idx]
        children = (
            np.concatenate((w, w)),
            c_x.take(sel, axis=1),
            c8.take(sel, axis=1),
            np.concatenate((split, split), axis=1),
        )
        return np.where(exhausted, f8[6:8], both + err / 15.0), split, idx, [children]


def integrate_batch(
    phi,
    lo,
    hi,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Both endpoint integrals over many intervals, walked level by level.

    Entry i is bit for bit integrate_adaptive(phi[i], lo[i], hi[i], spec):
    each level of many trees is processed at once, with the same float
    operations in the same order, the same exhaustion and error tests, the
    same eps halving and the same switch from both integrals to one, and
    each node's value is left + right of its children's, as in the
    recursive walk.  The intervals integrate_adaptive refuses and the
    trees that fail are finished by integrate_adaptive itself, in
    ascending index order, so each failure is its exact error.

    Args:
        phi: The conserved constant, one per interval or one for all.
        lo: 1-D array of lower limits.
        hi: 1-D array of upper limits, the same length.
        spec: Tolerance and recursion cap, applied to each integral.

    Returns:
        (I1, I2, failures): the two integrals per interval, and a dict from
        the index of each interval integrate_adaptive fails on to the
        exception it raises there, its traceback dropped.  Failed entries
        of I1 and I2 read NaN.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    phi = np.broadcast_to(np.asarray(phi, dtype=float), lo.shape)
    integrals = np.zeros((2, lo.size))
    handoff = ~(lo <= hi) | ((lo <= 0.0) & (lo < hi))
    walks = np.flatnonzero(~handoff & (lo < hi))
    with np.errstate(all="ignore"):
        for start in range(0, walks.size, _BATCH_LEVEL):
            chunk = walks[start : start + _BATCH_LEVEL]
            n, p = chunk.size, phi[chunk]
            x = np.stack((lo[chunk], hi[chunk]))
            roots = [_simpson_nodes(p, np.arange(n), x, np.ones((2, n), dtype=bool))]
            forest = _Forest(p, roots[0], spec)
            integrals[:, chunk] = forest.values(0, roots.pop())
            handoff[chunk[forest.gone]] = True
    failures: dict[int, Exception] = {}
    for i in np.flatnonzero(handoff).tolist():
        # Python floats, so that a refusal's message reads as a scalar call's.
        try:
            integrals[:, i] = integrate_adaptive(float(phi[i]), float(lo[i]), float(hi[i]), spec)
        except Exception as exc:  # noqa: BLE001 - returned as the walk's outcome
            failures[i] = exc.with_traceback(None)
            integrals[:, i] = math.nan
    return integrals[0], integrals[1], failures


class _CumulativeIntegrals:
    """Anchored cumulative values of the two endpoint integrals.

    Root-finding evaluates the zero function at many nearby A0 candidates.
    Rather than integrating from A_f every time, completed prefixes are kept
    as anchors and only the gap from the nearest anchor below is integrated.
    Anchor chains stay short, so the accumulated quadrature error is a small
    multiple of the per-call tolerance.
    """

    __slots__ = ("_phi", "_ws", "_i1", "_i2")

    def __init__(self, phi: float, A_f: float) -> None:
        self._phi = phi
        self._ws = [A_f]
        self._i1 = [0.0]
        self._i2 = [0.0]

    def upto(self, w: float):
        """Steps to (I1(w), I2(w)) for w >= the anchor origin A_f.

        Yields the one walk request (phi, anchor, w) and receives its
        (I1, I2) over that gap.
        """
        idx = bisect.bisect_right(self._ws, w) - 1
        base_w = self._ws[idx]
        d1, d2 = yield self._phi, base_w, w
        i1 = self._i1[idx] + d1
        i2 = self._i2[idx] + d2
        if w > base_w:
            at = idx + 1
            self._ws.insert(at, w)
            self._i1.insert(at, i1)
            self._i2.insert(at, i2)
        return i1, i2


def check_pair(pair: BoundaryPair, channel: ChannelParams) -> None:
    """The a^2 rule: DomainError beyond a^2, DegenerateBoundError within RATIO_MARGIN.

    No endpoint exists beyond a^2, and at a^2 the bound is 0/0.  a**2 raises
    NonFiniteError where it overflows; the margin keeps a * a, which can
    differ from a**2 by an ulp and decides which optimizer probes are
    feasible.
    """
    ratio = pair.ratio()
    a2 = channel.a_squared()
    if ratio > a2:
        raise DomainError(f"A_f/B_f={ratio:g} exceeds a^2={a2:g}")
    if ratio > channel.a * channel.a * (1.0 - RATIO_MARGIN):
        raise DegenerateBoundError(
            f"A_f/B_f={ratio!r} within {RATIO_MARGIN:g} of the a^2 boundary"
        )


def _endpoint_steps(pair: BoundaryPair, channel: ChannelParams, root_tol: float):
    """solve_endpoint as a generator of walk requests.

    Yields each endpoint walk it needs as (phi, lo, hi) and receives that
    walk's (I1, I2); returns the EndpointSolution.  Whoever answers the
    requests picks the quadrature, so one request at a time can go to
    integrate_adaptive (solve_endpoint) or many generators can be answered
    together by integrate_batch (the optimizer's scan).
    """
    check_pair(pair, channel)
    a = channel.a
    phi = compute_phi(pair)
    if not math.isfinite(phi):
        raise NonFiniteError(
            f"phi={phi!r} is not finite at A_f={pair.A_f!r}, B_f={pair.B_f!r}"
        )
    product = pair.A_f * pair.B_f
    if product == 0.0:
        raise NonFiniteError(
            f"A_f*B_f underflows to 0 at A_f={pair.A_f!r}, B_f={pair.B_f!r}"
        )
    cache = _CumulativeIntegrals(phi, pair.A_f)
    inv_Bf = 1.0 / pair.B_f
    log_Af = math.log(pair.A_f)
    scale = a / math.sqrt(product)

    def zero(A0: float, i1: float, i2: float) -> float:
        # The zero function at A0, from the cumulative integrals up to A0.
        exponent = -0.5 * (math.log(A0) - log_Af - i2)
        return inv_Bf + i1 - scale * math.exp(exponent)

    hi = max(2.0 * pair.A_f, 1.0)
    while zero(hi, *(yield from cache.upto(hi))) <= 0.0:
        hi *= 2.0
        if hi > _BRACKET_CAP:
            raise BracketOverflowError(
                f"no sign change of the zero function below {_BRACKET_CAP:g}"
            )
    roots = root_steps(pair.A_f, hi, root_tol)
    try:
        x = next(roots)
        while True:
            x = roots.send(zero(x, *(yield from cache.upto(x))))
    except StopIteration as stop:
        A0 = stop.value
    i1, i2 = yield from cache.upto(A0)
    # Second equation defines psi; evaluated in log space to dodge overflow
    # of A0^3 for extreme pairs.
    log_psi = 0.5 * (3.0 * math.log(A0) + math.log(pair.B_f) - 4.0 * math.log(a) - i2)
    psi = math.exp(log_psi)
    B0 = f_eval(A0, phi)

    rhs_first = A0 / (a * psi) - inv_Bf
    res_first = (i1 - rhs_first) / max(1.0, abs(i1), abs(rhs_first))
    rhs_second = 3.0 * math.log(A0) + math.log(pair.B_f) - 4.0 * math.log(a) - 2.0 * log_psi
    res_second = (i2 - rhs_second) / max(1.0, abs(i2))
    return EndpointSolution(
        phi=phi,
        A0=A0,
        psi=psi,
        B0=B0,
        A_f=pair.A_f,
        B_f=pair.B_f,
        i2_value=i2,
        residual_first=res_first,
        residual_second=res_second,
    )


def solve_endpoint(pair: BoundaryPair, channel: ChannelParams) -> EndpointSolution:
    """Solve the coupled integral equations for the endpoint (A0, psi).

    A0 is the unique root of the monotone zero function; the bracket starts
    at [A_f, max(2 A_f, 1)] and the upper end doubles until the sign flips.
    psi then follows from the second integral equation, and the first
    equation is evaluated as an independent residual check.  Each walk is
    one integrate_adaptive call at DEFAULT_QUADRATURE, and the root is
    bracketed to a relative 1e-13.

    Args:
        pair: Terminal pair strictly inside the a^2 boundary.
        channel: Channel gains.

    Returns:
        The endpoint solution with both residuals populated.

    Raises:
        DomainError: Beyond the a^2 boundary (check_pair, the one a^2 rule).
        DegenerateBoundError: Within RATIO_MARGIN of it (check_pair).
        NonFiniteError: If phi overflows, as when A_f*B_f does, or A_f*B_f
            underflows to 0.
        BracketOverflowError: If no sign change appears below the growth cap.
    """
    return drive_steps(
        _endpoint_steps(pair, channel, 1e-13),
        lambda request: integrate_adaptive(*request),
    )


def _closed_forms(ep: EndpointSolution, channel: ChannelParams) -> _ClosedForms:
    """lambda, c1, Q1, Q2 and the log argument read off one endpoint.

    Writing J for the second cumulative integral, the source energy is
    Q1 = (exp(J) - 1)/a^2, algebraically identical to the closed form
    -1/a^2 + A0^3 B_f/(a^6 psi^2) but free of its catastrophic cancellation
    near the degenerate boundary.  Q2 is -1/b^2 plus a cubic and a mixed
    term; arg_scale is the largest of the three terms summed inside the log
    argument.  The terms and the scale set theorem_bound's cancellation
    floors.
    """
    a, b = channel.a, channel.b
    A0, psi, B0, A_f, B_f = ep.A0, ep.psi, ep.B0, ep.A_f, ep.B_f
    c1 = b * psi
    q2_cubic = A0**3 / (a**5 * b * b * psi**3)
    q2_mixed = A0 * A0 * (A_f * B_f**2 - 1.0) / (a**4 * b * b * psi * psi * B_f)
    return _ClosedForms(
        lam=a * a * c1 * c1 / A0,
        c1=c1,
        Q1=math.expm1(ep.i2_value) / (a * a),
        Q2=-1.0 / (b * b) + q2_cubic + q2_mixed,
        q2_cubic=q2_cubic,
        q2_mixed=q2_mixed,
        log_arg=(A0 / (a * a)) * (1.0 / B_f + A0 * B0 - A_f * B_f),
        arg_scale=max(1.0 / B_f, A0 * B0, A_f * B_f),
    )


def lambda_and_Q1(
    endpoint: EndpointSolution, channel: ChannelParams
) -> tuple[float, float]:
    """Multiplier scale lambda and source energy Q1 fixed by the boundary data.

    lambda = a^2 c1^2 / A0 with c1 = b*psi, and Q1 solves the terminal
    condition on Zbar.  Q1 is also (exp(J) - 1)/a^2 for J the second
    cumulative integral; both routes must agree to within the cancellation
    floor of the literal closed form.

    Raises:
        RouteMismatchError: If the two Q1 routes disagree.
        DegenerateBoundError: If Q1 <= 0 (boundary pair).
    """
    a, b = channel.a, channel.b
    cf = _closed_forms(endpoint, channel)
    lam, Q1, c1 = cf.lam, cf.Q1, cf.c1
    literal = -1.0 / (a * a) + b * b * endpoint.A0**3 * endpoint.B_f / (a**6 * c1 * c1)
    # The literal form subtracts terms of size 1/a^2, so its accuracy floor
    # is ulp(1/a^2); the agreement check is relative to that scale.
    floor = 1e-12 * max(abs(Q1), 1.0 / (a * a))
    if abs(Q1 - literal) > floor:
        raise RouteMismatchError(
            f"Q1 routes disagree: {Q1!r} vs {literal!r} beyond {floor:g}"
        )
    if Q1 <= 0.0:
        raise DegenerateBoundError(f"Q1={Q1!r} is not positive; boundary pair")
    return lam, Q1


def theorem_bound(pair: BoundaryPair, channel: ChannelParams) -> BoundEvaluation:
    """Energy-per-bit bound E(A_f, B_f) at one strictly interior pair.

    Solves the endpoint once and reads every energy term off it in closed
    form; the endpoint travels with the returned evaluation.

    Args:
        pair: Terminal pair with A_f/B_f strictly inside the a^2 boundary.
        channel: Channel gains.

    Returns:
        The bound evaluation with all intermediate constants.

    Raises:
        DomainError: Beyond the a^2 boundary (check_pair, via solve_endpoint).
        DegenerateBoundError: At or numerically too close to the boundary
            (check_pair, Q1 <= 0, log_arg <= 1, or nonpositive total energy).
    """
    return _bound_at(solve_endpoint(pair, channel), channel)


def _bound_at(ep: EndpointSolution, channel: ChannelParams) -> BoundEvaluation:
    # theorem_bound's closed forms and cancellation floors at a solved endpoint.
    a, b = channel.a, channel.b
    cf = _closed_forms(ep, channel)
    if not (math.isfinite(cf.Q2) and math.isfinite(cf.log_arg)):
        raise DegenerateBoundError("non-finite energy terms; pair outside float range")
    if cf.Q1 <= 0.0:
        raise DegenerateBoundError(f"Q1={cf.Q1!r} is not positive")
    total = cf.Q1 + cf.Q2
    # Both Q2 and log_arg are differences of like-sized terms that cancel to
    # zero at the a^2 boundary.  Once the surviving value drops below the
    # rounding scale of those terms, the quotient is pure noise (it can land
    # anywhere, including far below the true limit), so treat it as
    # degenerate rather than return a fabricated bound.
    q2_noise = _CANCEL_FLOOR * max(1.0 / (b * b), abs(cf.q2_cubic), abs(cf.q2_mixed))
    if total <= q2_noise:
        raise DegenerateBoundError(
            f"total energy {total!r} below the cancellation floor {q2_noise!r}"
        )
    arg_noise = _CANCEL_FLOOR * (ep.A0 / (a * a)) * cf.arg_scale
    if cf.log_arg - 1.0 <= arg_noise:
        raise DegenerateBoundError(
            f"log argument {cf.log_arg!r} within the cancellation floor of 1"
        )
    energy = total / (0.5 * math.log2(cf.log_arg))
    return BoundEvaluation(
        lam=cf.lam,
        c1=cf.c1,
        Q1=cf.Q1,
        Q2=cf.Q2,
        log_arg=cf.log_arg,
        energy_per_bit=energy,
        normalized=energy / TWO_LN2,
        endpoint=ep,
    )


_FEASIBILITY_ERRORS = (
    DegenerateBoundError,
    BracketOverflowError,
    NoBracketError,
    DepthExceededError,
    NonFiniteError,
    OverflowError,
)

# Coarse scan settles for shallower quadrature and root accuracy; the winners
# are re-evaluated at full precision during refinement.  The depth budget is
# deliberately tight: smooth integrands meet 1e-9 well under depth 20, while
# extreme scan pairs (rho -> 1, large B_f) produce jitter-limited integrands
# that refine to the width floor at great cost.  Capping the depth turns those
# points into fast infeasibility skips instead of multi-second grinds.
_SCAN_QUADRATURE = QuadratureSpec(tol=1e-9, max_depth=30)
_SCAN_ROOT_TOL = 1e-9

# Grid pairs whose endpoint solves run in lockstep at once (six rows of the
# grid).  Each suspended solve holds about 3 kB of state, anchors included,
# and the memory a scan takes stays resident after it; a quarter of the grid
# per wave keeps batches wide enough that the scan is no slower.
_SCAN_WAVE = 150

# Pending walks at or above which a lockstep round (_lockstep) walks them
# through integrate_batch; narrower rounds take the scalar walk, which is
# faster there.  Measured in CHANGES.md.
_LOCKSTEP_WIDTH = 6


def _rho_grid() -> list[float]:
    # 24 points on [1e-3, 1 - 1e-6]: 12 log-spaced in rho up to 1/2, then 12
    # log-spaced in 1 - rho down to 1e-6.
    first = [
        10.0 ** (-3.0 + i * (math.log10(0.5) + 3.0) / 12.0) for i in range(12)
    ]
    second = [
        1.0 - 10.0 ** (math.log10(0.5) + i * (-6.0 - math.log10(0.5)) / 11.0)
        for i in range(12)
    ]
    return first + second


def _bf_grid(lo: float, hi: float, n: int) -> list[float]:
    llo, lhi = math.log10(lo), math.log10(hi)
    return [10.0 ** (llo + i * (lhi - llo) / (n - 1)) for i in range(n)]


def optimize_bound(channel: ChannelParams) -> BoundEvaluation:
    """Infimum of the bound over valid pairs (A_f, B_f) for one channel.

    Strategy: scan a 24 x 25 log grid in (rho, B_f) with A_f = rho a^2 B_f,
    rho in [1e-3, 1 - 1e-6] and B_f in [1e-3, 1e3], then refine from the
    best three grid points with Nelder-Mead (numerics.simplex_steps) in
    (logit rho, ln B_f) coordinates, penalizing constraint violations.  The
    scan's solves and each refinement step's probe pairs run in lockstep
    through one driver (_lockstep); the refinement solves each distinct
    probe pair once per pass and keeps its evaluation, and the optimum's
    evaluation is the one kept for its pair.  If the refined optimum lands
    on the B_f cap the search is rerun once with the cap widened tenfold
    and a warning is emitted.

    Args:
        channel: Channel gains.

    Returns:
        The full-precision evaluation at the optimum, exactly what
        theorem_bound returns for that pair; its endpoint carries the pair.

    Raises:
        NoFeasiblePointError: If every grid point is degenerate.
        NonFiniteError: If A_f = rho a^2 B_f overflows on the grid.
        DomainError: If A_f = rho a^2 B_f underflows to 0 on the grid.
    """
    (optimum,) = _optimize([channel])
    return optimum.result()


def optimize_bounds(channels: Sequence[ChannelParams]) -> Iterator[BoundEvaluation]:
    """optimize_bound for each channel in order, every channel's refinement in lockstep.

    The searches of all channels run together at the first next(): the
    scans one channel after another, then every start of every channel in
    lockstep, and the channels whose optimum lands on the B_f cap take the
    widened pass together.  Each evaluation is bit for bit optimize_bound's,
    and each channel's warnings and error come out in its turn, as they
    would from a loop of optimize_bound calls.
    """
    for optimum in _optimize(list(channels)):
        yield optimum.result()


class _Optimum:
    """One channel's search: the cap warnings it emits, then its evaluation or error."""

    def __init__(self) -> None:
        self.notes: list[str] = []
        self.outcome: BoundEvaluation | Exception | None = None

    def result(self) -> BoundEvaluation:
        # The warnings point at the caller of the public function that asks.
        for note in self.notes:
            warnings.warn(note, RuntimeWarning, stacklevel=3)
        if isinstance(self.outcome, Exception):
            raise self.outcome
        return self.outcome


def _optimize(channels: list[ChannelParams]) -> list[_Optimum]:
    # Every channel's first pass, then the widened pass of those whose
    # optimum lands on the cap.  A pass scans its channels one after
    # another, then refines every channel the scan left candidates for
    # together (_refine).  Per channel, the first error in the order of a
    # pass run alone wins: the scan's, then the lowest start's (_closing).
    optima = [_Optimum() for _ in channels]
    pending = list(range(len(channels)))
    for bf_lo, bf_hi, note in (
        (1e-3, 1e3, "landed on the search cap; widening tenfold"),
        (1e-4, 1e4, "still on the widened cap; result suspect"),
    ):
        scanned = []
        for i in pending:
            channel = channels[i]
            try:
                candidates = _scan(channel, bf_lo, bf_hi)
                if not candidates:
                    raise NoFeasiblePointError(
                        f"every grid point degenerate for a={channel.a!r}, b={channel.b!r}"
                    )
            except Exception as exc:  # noqa: BLE001 - raised in the channel's turn
                optima[i].outcome = exc
                continue
            starts = [[math.log(rho / (1.0 - rho)), math.log(bf)] for _, rho, bf in candidates[:3]]
            scanned.append((i, starts))
        ends, memos = _refine([(channels[i], starts) for i, starts in scanned])
        pending = []
        for (i, _), ended, memo in zip(scanned, ends, memos):
            try:
                optima[i].outcome = ev = _closing(channels[i], ended, memo)
            except Exception as exc:  # noqa: BLE001 - raised in the channel's turn
                optima[i].outcome = exc
                continue
            bf = ev.endpoint.B_f
            if bf <= bf_lo * 1.01 or bf >= bf_hi * 0.99:
                optima[i].notes.append(f"optimum B_f={bf:g} {note}")
                pending.append(i)
    return optima


def _lockstep(solves: list, spec: QuadratureSpec) -> list:
    """Run generators of walk requests in lockstep rounds; return their outcomes.

    solves holds fresh generators of walk requests (phi, lo, hi).  Every
    round answers each pending request at spec: with one integrate_batch
    call where at least _LOCKSTEP_WIDTH are pending, else with
    integrate_adaptive one by one, which is faster there; both give the
    same bits.  A failed walk is thrown into its generator.  Returns, in
    the order of solves, each generator's return value or the exception
    it raised.
    """
    outcomes: list = [None] * len(solves)
    answered = [(i, steps, None) for i, steps in enumerate(solves)]
    while answered:
        live = []
        for i, steps, answer in answered:
            try:
                if isinstance(answer, Exception):
                    live.append((i, steps, steps.throw(answer)))
                else:
                    live.append((i, steps, steps.send(answer)))
            except StopIteration as stop:
                outcomes[i] = stop.value
            except Exception as exc:  # noqa: BLE001 - the generator's outcome
                outcomes[i] = exc
        requests = [request for _, _, request in live]
        if len(requests) >= _LOCKSTEP_WIDTH:
            phi, lo, hi = (np.array(column) for column in zip(*requests))
            i1, i2, failures = integrate_batch(phi, lo, hi, spec)
            answers: list = list(zip(i1.tolist(), i2.tolist()))
            for j, exc in failures.items():
                answers[j] = exc
        else:
            answers = []
            for request in requests:
                try:
                    answers.append(integrate_adaptive(*request, spec))
                except Exception as exc:  # noqa: BLE001 - thrown in next round
                    answers.append(exc)
        answered = [(i, steps, answer) for (i, steps, _), answer in zip(live, answers)]
    return outcomes


def _scan(
    channel: ChannelParams, bf_lo: float, bf_hi: float
) -> list[tuple[float, float, float]]:
    """The scan's sorted candidates (normalized, rho, B_f) on the 24 x 25 grid.

    Each grid pair is evaluated by the search objective (_objective_steps)
    with _SCAN_ROOT_TOL and walks at _SCAN_QUADRATURE, _SCAN_WAVE pairs at
    a time through the lockstep driver (_lockstep), and dropped where the
    objective gives _PENALTY.  Any other error is raised after the waves,
    the first in grid order, as a pair-by-pair loop would raise it.
    """
    a2 = channel.a * channel.a
    rhos, bfs = _rho_grid(), _bf_grid(bf_lo, bf_hi, 25)
    # Rounding is monotone, so the grid's corners decide whether every
    # A_f = rho * a2 * bf is a positive finite float.
    if max(rhos) * a2 * max(bfs) == math.inf:
        raise NonFiniteError(
            f"a^2*B_f overflows at gain a={channel.a!r} on the scan's B_f up to {bf_hi:g}"
        )
    if min(rhos) * a2 * min(bfs) == 0.0:
        raise DomainError(
            f"gain a={channel.a!r} too small: a^2*B_f underflows to 0 on the scan's "
            f"B_f down to {bf_lo:g}"
        )
    grid = [(rho, bf) for rho in rhos for bf in bfs]
    # Each pair's normalized value or error; None where the pair is dropped.
    values: list = []
    for wave in range(0, len(grid), _SCAN_WAVE):
        outcomes = _lockstep(
            [
                _objective_steps((rho * a2 * bf, bf), channel, _SCAN_ROOT_TOL)
                for rho, bf in grid[wave : wave + _SCAN_WAVE]
            ],
            _SCAN_QUADRATURE,
        )
        for outcome in outcomes:
            if outcome.__class__ is BoundEvaluation:
                values.append(outcome.normalized)
            else:
                values.append(outcome if isinstance(outcome, Exception) else None)
    for value in values:
        if isinstance(value, Exception):
            raise value
    return sorted((value, rho, bf) for (rho, bf), value in zip(grid, values) if value is not None)


def _probe(x: np.ndarray, a2: float):
    # The refinement objective's cheap part at x = (logit rho, ln B_f):
    # _PENALTY outside the search box, else the exact pair (A_f, B_f) to solve.
    logit_rho, log_bf = float(x[0]), float(x[1])
    if abs(logit_rho) > 60.0 or abs(log_bf) > 60.0:
        return _PENALTY
    rho = 1.0 / (1.0 + math.exp(-logit_rho))
    bf = math.exp(log_bf)
    if rho >= 1.0 - RATIO_MARGIN:
        return _PENALTY
    return rho * a2 * bf, bf


def _objective_steps(key: tuple[float, float], channel: ChannelParams, root_tol: float):
    """The search objective at the pair key as a generator of walk requests.

    Returns the evaluation theorem_bound's closed forms and floors
    (_bound_at) give at the endpoint solved with root_tol, or _PENALTY
    where they refuse the pair with a feasibility error or the value is
    not finite: the one rule for the pairs the scan and the refinement
    keep.  A failed walk is thrown in at its request, where it propagates
    as it would out of solve_endpoint.
    """
    try:
        ep = yield from _endpoint_steps(BoundaryPair(*key), channel, root_tol)
        ev = _bound_at(ep, channel)
    except _FEASIBILITY_ERRORS:
        return _PENALTY
    return ev if math.isfinite(ev.normalized) else _PENALTY


def _refine(problems: list[tuple[ChannelParams, list[list[float]]]]) -> tuple[list, list]:
    """Nelder-Mead from every start of every (channel, starts) problem, in steps.

    Returns (ends, memos).  ends holds, per problem and start, the (point,
    value) minimize_simplex returns with the refinement objective, or the
    exception it raises.  memos holds, per problem, each pair solved, keyed
    by the exact pair (_probe), with the objective's outcome there: the
    BoundEvaluation, _PENALTY or the exception.

    In each step every live start runs on through penalties and memo hits
    until it asks for a pair its problem's memo lacks, or ends.  The pairs
    asked, each once however many starts ask for it, are solved together
    by one lockstep driver call (_lockstep) at DEFAULT_QUADRATURE, whose
    batch and scalar rounds give the same bits, so each start probes what
    it probes alone.  Their outcomes go into the memos, and the starts
    that asked resume from them in the next step.  The optimum's
    evaluation is read from the memo.
    """
    ends: list[list] = [[None] * len(starts) for _, starts in problems]
    memos: list[dict] = [{} for _ in problems]
    # Each live start as (problem, start, steps, the objective's outcome at
    # its last probe), None before the first.
    live = [
        (p, s, simplex_steps(start), None)
        for p, (_, starts) in enumerate(problems)
        for s, start in enumerate(starts)
    ]
    while live:
        # (problem, pair) -> the starts that ask for it in this step.
        asked: dict[tuple, list] = {}
        for p, s, steps, known in live:
            memo = memos[p]
            a2 = problems[p][0].a * problems[p][0].a
            try:
                while not isinstance(known, Exception):
                    if known.__class__ is BoundEvaluation:
                        known = known.normalized
                    x = steps.send(known)
                    key = _probe(x, a2)
                    if key.__class__ is tuple and key not in memo:
                        asked.setdefault((p, key), []).append((s, steps))
                        break
                    known = memo[key] if key.__class__ is tuple else key
                else:
                    # The objective raised at the start's last probe.
                    ends[p][s] = known
            except StopIteration as stop:
                ends[p][s] = stop.value
            except Exception as exc:  # noqa: BLE001 - the start's outcome
                ends[p][s] = exc
        pairs = list(asked)
        outcomes = _lockstep(
            [_objective_steps(key, problems[p][0], 1e-13) for p, key in pairs],
            DEFAULT_QUADRATURE,
        )
        live = []
        for (p, key), outcome in zip(pairs, outcomes):
            memos[p][key] = outcome
            live += [(p, s, steps, outcome) for s, steps in asked[p, key]]
    return ends, memos


def _closing(channel: ChannelParams, ends: list, memo: dict) -> BoundEvaluation:
    # The best start's optimum, read from the memo with no new solve.  Its
    # value is the memo entry's normalized value, so the entry is that
    # pair's evaluation.
    best_x = None
    best_val = math.inf
    for end in ends:
        if isinstance(end, Exception):
            raise end
        x, val = end
        if val < best_val:
            best_val = val
            best_x = x
    if best_x is None or best_val >= _PENALTY:
        raise NoFeasiblePointError("refinement found no feasible point")
    return memo[_probe(best_x, channel.a * channel.a)]
