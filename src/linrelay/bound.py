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
walk recurses over the integrals still refining, both and then the one left,
and raises the first failure it meets, of either integral.
integrate_batch answers many intervals at once with the same bits and the
same errors, and is the one place that picks the walk: a few narrow
intervals each take integrate_adaptive, wide intervals and wider sets are
walked together in numpy, which gets each failure's exact error by running
the scalar walk on the failing node.

Each endpoint solve is a generator of walk requests (_endpoint_steps) that
asks for no empty walk: the integrals up to a point already solved are read
from its anchors.  One driver (_lockstep) runs every solve, one pair's
(solve_endpoint) or the search's many, to its end in lockstep rounds: each
round's pending walks go to one integrate_batch call.  The optimizer keeps
or drops every pair it touches by one rule (_kept) on its solve's outcome:
a feasibility error or a non-finite value drops it.  The scan's grid and
the endpoints on it depend on the gain a alone, so a search pass solves
them once per distinct a among its channels, in waves through the driver
at the scan's looser tolerances, and values every channel of that a from
them.  The refinement runs its Nelder-Mead starts (numerics.simplex_steps),
of one channel or of many (optimize_bounds), in steps: each start runs on
until it asks for a pair not yet solved, the pairs asked in a step are
solved by one driver call, and their outcomes go into a memo that the
starts resume from.  The optimum's evaluation is read from that memo, not
solved again.
"""
from __future__ import annotations

import bisect
import copy
import functools
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

# Relative root tolerance of solve_endpoint and of the refinement's solves.
_ROOT_TOL = 1e-13

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

    b^2 enters every bound, code and baseline as b * b, and the bound
    divides by it, so a gain b whose square overflows or underflows to 0 is
    refused here with NonFiniteError.  a^2 is checked where it is used
    (a_squared, and the scan's a^2*B_f grid check).
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
        if self.b * self.b == 0.0:
            raise NonFiniteError(f"b^2 underflows to 0 at gain b={self.b!r}")

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


def _underflow(phi: float, lo: float, hi: float) -> NonFiniteError:
    # 2 w^2 underflows to 0 where f's large-w branch meets a tiny w.
    return NonFiniteError(
        f"integrand is infinite on [{lo!r}, {hi!r}] at phi={phi!r}: 2*w*w underflows to 0"
    )


def _too_deep(eps: float, lo: float, hi: float, depth: int) -> DepthExceededError:
    return DepthExceededError(
        f"tolerance {eps:g} unreachable on [{lo!r}, {hi!r}] at depth {depth}"
    )


def _walk(
    phi: float, lo: float, hi: float, ks: tuple[int, ...], fa: tuple, fm: tuple, fb: tuple,
    whole: Sequence[float], eps: Sequence[float], depth: int, max_depth: int,
) -> Sequence[float]:
    # Adaptive Simpson on [lo, hi] for the integrals ks that still refine:
    # (1, 2) while both do, then (1,) or (2,).  fa, fm and fb are _f_terms
    # at lo, mid and hi, indexed by integral; whole, eps and the values
    # returned hold one entry per integral of ks.  Each integral keeps its
    # own error test, eps halving and summation order, so each value is bit
    # for bit what a walk of that integral alone returns.
    mid = 0.5 * (lo + hi)
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    # Interval exhausted in floating point; the current estimates are final.
    # The walk starts at lo > 0, so hi is the larger endpoint magnitude.
    if lmid <= lo or rmid <= mid or mid >= hi or hi - lo <= _WIDTH_FLOOR * hi:
        return whole
    # While both refine: f at both points, then flm1, frm1, flm2, frm2.
    # With one left: f and its value at lmid, then at rmid.
    flm = _f_terms(lmid, phi)
    if len(ks) == 1 and not math.isfinite(flm[ks[0]]):
        raise _non_finite(flm[ks[0]], lmid)
    frm = _f_terms(rmid, phi)
    for k in ks:
        if not math.isfinite(flm[k]):
            raise _non_finite(flm[k], lmid)
        if not math.isfinite(frm[k]):
            raise _non_finite(frm[k], rmid)
    values = []
    sub = lefts = rights = half = ()
    for k, s, e in zip(ks, whole, eps):
        left = ((mid - lo) / 6.0) * (fa[k] + 4.0 * flm[k] + fm[k])
        right = ((hi - mid) / 6.0) * (fm[k] + 4.0 * frm[k] + fb[k])
        err = left + right - s
        if abs(err) <= 15.0 * e:
            # Richardson extrapolation: the halved rule plus its error estimate.
            values.append(left + right + err / 15.0)
        elif depth >= max_depth:
            # The first integral that splits names its eps.
            raise _too_deep(e, lo, hi, depth)
        else:
            values.append(None)
            sub += (k,)
            lefts += (left,)
            rights += (right,)
            half += (0.5 * e,)
    if sub:
        # Each integral that split is left + right of its halves.
        sums = map(
            float.__add__,
            _walk(phi, lo, mid, sub, fa, flm, fm, lefts, half, depth + 1, max_depth),
            _walk(phi, mid, hi, sub, fm, frm, fb, rights, half, depth + 1, max_depth),
        )
        values = [next(sums) if v is None else v for v in values]
    return values


def integrate_adaptive(
    phi: float,
    lo: float,
    hi: float,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[float, float]:
    """Both endpoint integrals over [lo, hi] by one adaptive Simpson walk.

    The integrands are f/(1 + w f^2) and f^2/(1 + w f^2) with f = f_eval(., phi).
    The walk evaluates f once per node and refines both integrals while both
    refine, then the one left, each with its own error test, so each value
    is exactly what a separate adaptive Simpson run on that integrand
    returns.  The test, Simpson's error estimate against max(tol, tol*|S|)
    for S the first Simpson value, is no bound: on the smooth
    [0.5412430767871772, 0.6637519887785263] at phi = 0.02753541891296596
    and tol 1e-12, I1 is 2.94e-12 above the integral.

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
        fa, fm, fb = _f_terms(lo, phi), _f_terms(mid, phi), _f_terms(hi, phi)
        for k in (1, 2):
            for x, g in ((lo, fa[k]), (mid, fm[k]), (hi, fb[k])):
                if not math.isfinite(g):
                    raise _non_finite(g, x)
        whole = [((hi - lo) / 6.0) * (fa[k] + 4.0 * fm[k] + fb[k]) for k in (1, 2)]
        eps = [max(spec.tol, spec.tol * abs(s)) for s in whole]
        i1, i2 = _walk(phi, lo, hi, (1, 2), fa, fm, fb, whole, eps, 0, spec.max_depth)
        return i1, i2
    except ZeroDivisionError:
        raise _underflow(phi, lo, hi) from None


# integrate_batch walks every interval of a set at least _BATCH_WIDTH wide
# in numpy.  In a narrower set an interval takes the scalar walk, faster on
# a small tree, unless its span exceeds _WIDE_SPAN times its lower limit:
# adaptive Simpson's tree grows with the span it resolves, and a lone tree
# of about 1,000 f evaluations or more is faster in numpy.  Measured in
# CHANGES.md; spans from 0.1 to 1.0 times lo measured about the same.
_BATCH_WIDTH = 6
_WIDE_SPAN = 0.5

# The batch walk takes at most _BATCH_LEVEL nodes at a time.  A wider set
# is cut into slices that keep their computed columns, and each slice's
# subtrees are walked to the bottom before the next slice starts.  That
# bounds the memory held, and it reaches a failing node near the lower
# limit (where the jitter-limited integrands that fail at the depth cap
# fail) after a few hundred nodes, as the depth-first walk does, where a
# level-by-level walk would first fill out every level above the cap.
# Every tree is walked to its end or its first failure, however many nodes
# it takes.  integrate_batch also starts its roots _BATCH_LEVEL at a time:
# one forest for all of them holds more waiting slices at once.
_BATCH_LEVEL = 512

# A forest of fewer than _BATCH_WIDTH trees computes the top of every tree
# down to depth _TOP_DEPTH in one pass, since adaptive Simpson splits every
# node of a wide interval near its root: the wide trees of the refinement
# first stop a node at depth 6 or 7.  A wider forest (the scan's) has a
# tree that stops near its root, and starts at depth 0.
_TOP_DEPTH = 6


@functools.cache
def _top_nodes(top: int) -> tuple[np.ndarray, np.ndarray]:
    # The nodes of a tree down to depth top, breadth first (the children of
    # node i are 2i + 1 and 2i + 2): the indices of their lo, then of their
    # mid, then of their hi among the tree's 2**(top + 1) + 1 dyadic points,
    # and a column of 0.5**depth for each node above depth top.
    end = 2 << top
    lo = np.concatenate([np.arange(0, end, end >> d) for d in range(top + 1)])
    span = np.concatenate([np.full(1 << d, end >> d) for d in range(top + 1)])
    scale = np.array([[0.5**d] for d in range(top) for _ in range(1 << d)])
    return np.concatenate((lo, lo + span // 2, lo + span)), scale


def _f_terms_batch(w: np.ndarray, phi: np.ndarray, out: np.ndarray) -> None:
    # _f_terms' two integrands at the points w, of any shape, into out[0]
    # and out[1], by the same float operations in the same order (in place
    # where the order allows: + and * commute bit for bit).
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
    two_w = 2.0 * w
    np.multiply(two_w, w, out=cube)
    fw /= cube
    np.subtract(disc, t, out=disc)
    np.divide(two_w, disc, out=fw, where=neg)
    den = w * fw
    den *= fw
    den += 1.0
    np.divide(fw, den, out=out[0])
    np.multiply(fw, fw, out=out[1])
    out[1] /= den


# The rows of a node set, one column per node: lo, hi, f at lo, mid and hi
# for integral 1 and then for integral 2, the Simpson estimate whole of each
# integral, 15 eps of each at depth 0, phi and the node's tree (walk).
_LO, _HI, _F, _WHOLE, _TOL, _PHI, _WALK = 0, 1, slice(2, 8), slice(8, 10), slice(10, 12), 12, 13
_ROWS = 14


class _Forest:
    """The trees of at most _BATCH_LEVEL walks, one tree per walk.

    A node set is (rows, active): rows holds the _ROWS floats of each node
    in a column, and active whether each integral still refines at the
    node (the scalar walk's ks: both, then the one left).  A node at depth
    d tests its error against its 15 eps row times 0.5**d, the bits of the
    scalar walk's halved eps.  The top of every tree is computed in one
    pass, every deeper node by its parent's level, and a slice of a node
    set is one take of its columns, so no node is walked twice.

    The top pass takes f at every dyadic point of each tree down to depth
    top (_TOP_DEPTH in a forest of fewer than _BATCH_WIDTH trees, else 0),
    made by the walk's midpoint recursion, and every Simpson estimate and
    error test above that depth at once.  The level walk starts at the
    first depth where a node of any tree does not split both integrals, is
    not wide, or has a non-finite f at a child's mid, or at depth top: down
    to there every node of every tree splits both, as the scalar walk does,
    so the nodes at that depth, all 2**depth of each tree, are its node set.
    Their values are folded back up as left + right.  At depth 0 the pass
    is the roots' set-up alone.

    A tree fails as the scalar walk does, at its first failing node in
    depth-first order.  Failing nodes have no children, so none contains
    another, and the first is the one with the smallest lo.  fail_lo holds,
    per tree, the lo of its leftmost failing node found so far (inf while
    none is), and failures the error the scalar walk raises there.  Only
    the nodes left of it are walked on, and the tree's values are dropped.
    A tree whose root fails has fail_lo -inf and no failure, and the walk
    starts at depth 0: integrate_batch hands the tree to integrate_adaptive,
    which fails at once.  Until a failure is recorded only the roots can lie
    right of one, so fail_lo is read at the roots and, once failures is not
    empty, at every level; a level looks for failing nodes only where a
    child's f is not finite or at the depth cap.
    """

    def __init__(self, phi: np.ndarray, lo: np.ndarray, hi: np.ndarray, spec: QuadratureSpec) -> None:
        n = phi.size
        top = min(_TOP_DEPTH, spec.max_depth) if n < _BATCH_WIDTH else 0
        end = 2 << top
        # The dyadic points of the trees as (point, tree) in g[2], each the
        # mid of its neighbours a level up, and f at them in g[:2].
        g = np.empty((3, end + 1, n))
        x = g[2]
        x[0], x[end] = lo, hi
        step = end
        while step > 1:
            mids = np.add(x[:end:step], x[step::step], out=x[step // 2 :: step])
            mids *= 0.5
            step //= 2
        _f_terms_batch(x, phi, g[:2])
        # Every node down to depth top as (row of g, lo mid hi, node, tree),
        # its Simpson estimates by integrate_adaptive's float operations, and
        # eps from the roots'.
        at, scale = _top_nodes(top)
        # (At depth 0 the nodes are the points themselves.)
        node = g[:, at].reshape(3, 3, -1, n) if top else g[:, :, None]
        width = node[2, 2] - node[2, 0]
        whole = width / 6.0 * (node[:2, 0] + 4.0 * node[:2, 1] + node[:2, 2])
        scaled = spec.tol * np.abs(whole[:, 0])
        self.eps = np.where(scaled > spec.tol, scaled, spec.tol)
        tol = 15.0 * self.eps
        finite = np.isfinite(g[:2]).all(axis=0)
        all_finite = finite.all()
        self.fail_lo = np.full(n, np.inf)
        depth = top
        if not all_finite:
            root_fails = ~finite[:: end // 2].all(axis=0)
            self.fail_lo[root_fails] = -np.inf
            if root_fails.any():
                depth = 0
        if depth:
            inner = scale.size
            err = whole[:, 1::2] + whole[:, 2::2] - whole[:, :inner]
            stop = (np.abs(err) <= tol[:, None] * scale).any(axis=0)
            stop |= width[:inner] <= _WIDTH_FLOOR * node[2, 2, :inner]
            if not all_finite:
                # The mids of nodes 1 to 2 inner, the children of the inner ones.
                child_mid = finite[at[2 * inner + 2 : 4 * inner + 2]]
                stop |= ~(child_mid[0::2] & child_mid[1::2])
            stops = stop.any(axis=1).nonzero()[0]
            if stops.size:
                depth = (int(stops[0]) + 1).bit_length() - 1
        # The node set at that depth, node by node and tree by tree within.
        m = 1 << depth
        level = node[:, :, m - 1 : 2 * m - 1]
        rows = np.empty((_ROWS, m, n))
        rows[_LO], rows[_HI] = level[2, 0], level[2, 2]
        rows[_F].reshape(2, 3, m, n)[...] = level[:2]
        rows[_WHOLE] = whole[:, m - 1 : 2 * m - 1]
        rows[_TOL] = tol[:, None]
        rows[_PHI], rows[_WALK] = phi, np.arange(n)
        self.phi, self.lo, self.hi = phi, lo, hi
        self.max_depth = spec.max_depth
        self.failures: dict[int, Exception] = {}
        self.start_depth = depth
        self.start = [(rows.reshape(_ROWS, m * n), np.ones((2, m * n), dtype=bool))]

    def integrals(self) -> np.ndarray:
        """The (I1, I2) values of every tree: its top node set walked, then folded up."""
        val = self.values(self.start_depth, self.start.pop()).reshape(2, -1, self.phi.size)
        for _ in range(self.start_depth):
            val = val[:, 0::2] + val[:, 1::2]
        return val[:, 0]

    def values(self, depth: int, nodes: tuple) -> np.ndarray:
        """The (I1, I2) values of nodes at one depth, as the scalar walk returns them.

        Nodes at or right of their tree's leftmost failure get zeros.  Node
        sets are passed inline (list.pop()), so that each call owns its
        nodes and can free them before it goes deeper.
        """
        m = nodes[0].shape[1]
        keep = range(m)
        if depth == 0 or self.failures:
            keep = (nodes[0][_LO] < self.fail_lo[nodes[0][_WALK].astype(np.intp)]).nonzero()[0]
            if not keep.size:
                return np.zeros((2, m))
        if len(keep) < m or m > _BATCH_LEVEL:
            parts = np.array_split(keep, -(-len(keep) // _BATCH_LEVEL))
            waiting = [tuple(column.take(p, axis=-1) for column in nodes) for p in parts]
            del nodes
            out = np.zeros((2, m))
            for part in parts:
                out[:, part] = self.values(depth, waiting.pop(0))
            return out
        val, split, idx, children = self._level(depth, nodes)
        del nodes
        if idx.size:
            sub = self.values(depth + 1, children.pop())
            # A node that split is left + right of its children, as in the
            # recursive walk.
            sums = sub[:, : idx.size] + sub[:, idx.size :]
            val[:, idx] = np.where(split, sums, val[:, idx])
        return val

    def _level(self, depth: int, nodes: tuple):
        # One level of the scalar walk for every node: the node values where
        # they stop, the integrals that split, the nodes that have children,
        # and those children (a list of their one node set, empty if none).
        # c holds the rows of every candidate child: c[:, 0, j] is the left
        # half of node j, c[:, 1, j] its right half.
        rows, active = nodes
        m = rows.shape[1]
        lo, hi = rows[_LO], rows[_HI]
        c = np.empty((_ROWS, 2, m))
        x = c[_LO : _HI + 1]
        mid = np.add(lo, hi, out=x[0, 1])
        mid *= 0.5
        x[0, 0], x[1, 0], x[1, 1] = lo, mid, hi
        c_mid = x[0] + x[1]
        c_mid *= 0.5
        # f of child rows (integral, point, half): fa and fb are the
        # parent's, fm is new.
        f = rows[_F].reshape(2, 3, m)
        cf = c[_F].reshape(2, 3, 2, m)
        _f_terms_batch(c_mid, rows[_PHI], cf[:, 1])
        cf[:, 0], cf[:, 2] = f[:, 0:2], f[:, 1:3]
        width = x[1] - x[0]
        width /= 6.0
        simpson = 4.0 * cf[:, 1]
        simpson += cf[:, 0]
        simpson += cf[:, 2]
        halves = np.multiply(width, simpson, out=c[_WHOLE])
        both = halves[:, 0] + halves[:, 1]
        err = both - rows[_WHOLE]
        # The scalar walk stops a node when lmid <= lo, rmid <= mid,
        # mid >= hi or hi - lo <= _WIDTH_FLOOR * hi.  The width test decides
        # alone.  Where hi is normal, a node wider than the floor spans over
        # 4,000 ulps of hi, so the other three fail.  Where they fire below
        # that, the node is at most three subnormal steps wide: its Simpson
        # estimates and its halves' are +0.0 (width / 6 underflows) and f is
        # finite at its points, so walking on gives the same bits.  (lo + hi
        # does not overflow at a walked node: f was finite at its mid, and f
        # is NaN at inf.)
        wide = hi - lo > _WIDTH_FLOOR * hi
        live = active & wide
        split = live & ~(np.abs(err) <= rows[_TOL] * 0.5**depth)
        finite = np.isfinite(cf[:, 1])
        if depth >= self.max_depth or not finite.all():
            self._record_failures(depth, rows, live, split, finite)
        idx = (split[0] | split[1]).nonzero()[0]
        split = split.take(idx, axis=1)
        children = []
        if idx.size:
            c[_TOL.start :] = rows[_TOL.start :, None]
            children.append(
                (c.take(idx, axis=2).reshape(_ROWS, 2 * idx.size), np.concatenate((split, split), axis=1))
            )
        return np.where(wide, both + err / 15.0, rows[_WHOLE]), split, idx, children

    def _record_failures(self, depth: int, rows: np.ndarray, live, split, finite) -> None:
        # Records each tree's leftmost failing node at this level: a live
        # integral with a non-finite f at either child, or one that splits
        # at the depth cap.  Every node here is left of the tree's earlier
        # failures.
        bad = live & ~(finite[:, 0] & finite[:, 1])
        if depth >= self.max_depth:
            bad |= split
        failed = (bad[0] | bad[1]).nonzero()[0]
        if not failed.size:
            return
        lo, walk = rows[_LO], rows[_WALK]
        failed = failed[np.lexsort((lo[failed], walk[failed]))]
        for j in failed[np.unique(walk[failed], return_index=True)[1]].tolist():
            w = int(walk[j])
            self.fail_lo[w] = lo[j]
            self.failures[w] = self._failure(w, depth, rows[:, j], live[:, j])

    def _failure(self, w: int, depth: int, node: np.ndarray, live) -> Exception:
        # The error the scalar walk raises at a failing node of tree w: the
        # walk run on the node, with its f values, its Simpson estimates and
        # the root eps halved depth times, fails there.
        phi, lo, hi = float(self.phi[w]), float(node[_LO]), float(node[_HI])
        ks = tuple(k for k in (1, 2) if live[k - 1])
        # _f_terms' layout at lo, mid and hi; the walk does not read f itself.
        fa, fm, fb = ((0.0, f1, f2) for f1, f2 in zip(*node[_F].reshape(2, 3).tolist()))
        whole = [float(node[_WHOLE][k - 1]) for k in ks]
        eps = [float(self.eps[k - 1, w]) * 0.5**depth for k in ks]
        try:
            _walk(phi, lo, hi, ks, fa, fm, fb, whole, eps, depth, self.max_depth)
        except ZeroDivisionError:
            return _underflow(phi, float(self.lo[w]), float(self.hi[w]))
        except (NonFiniteError, DepthExceededError) as exc:
            return exc.with_traceback(None)
        raise AssertionError(f"no failure at the failing node of walk {w}")


def integrate_batch(
    phi,
    lo,
    hi,
    spec: QuadratureSpec = DEFAULT_QUADRATURE,
) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Both endpoint integrals over many intervals; the one place that picks the walk.

    Entry i is bit for bit integrate_adaptive(phi[i], lo[i], hi[i], spec),
    or fails with its exact error.  In a set of fewer than _BATCH_WIDTH
    intervals, those no wider than _WIDE_SPAN times their lower limit are
    each walked by integrate_adaptive; when every interval of such a set is
    one of them, no numpy array is set up.  The others, and every interval
    of a wider set, are walked level by level in numpy: each level of many
    trees is processed at once, with the same float operations in the same
    order, the same exhaustion and error tests, the same eps halving and
    the same switch from both integrals to one, and each node's value is
    left + right of its children's, as in the recursive walk.  A tree that
    fails below its root gets the error the scalar walk raises at its first
    failing node.  The intervals integrate_adaptive refuses and the trees
    whose roots fail are handed to integrate_adaptive, in ascending index
    order, which fails at once.

    Args:
        phi: The conserved constant, one per interval or one for all.
        lo: 1-D array of lower limits.
        hi: 1-D array of upper limits, the same length.
        spec: Tolerance and recursion cap, applied to each integral.

    Returns:
        (I1, I2, failures): the two integrals per interval, and a dict from
        the index of each interval integrate_adaptive fails on to the
        exception it raises there, with no traceback.  Failed entries of I1
        and I2 read NaN.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if phi.shape != lo.shape:
        phi = np.broadcast_to(phi, lo.shape)
    failures: dict[int, Exception] = {}
    if lo.size < _BATCH_WIDTH:
        intervals = list(zip(phi.tolist(), lo.tolist(), hi.tolist()))
        if all(0.0 < a < b and not b - a > _WIDE_SPAN * a for _, a, b in intervals):
            # Narrow walks only: each takes the scalar walk on Python floats,
            # with none of the level walk's set-up.
            values = []
            for i, interval in enumerate(intervals):
                try:
                    values.append(integrate_adaptive(*interval, spec))
                except Exception as exc:  # noqa: BLE001 - returned as the walk's outcome
                    failures[i] = exc.with_traceback(None)
                    values.append((math.nan, math.nan))
            i1, i2 = np.array(values).T
            return i1, i2, failures
    integrals = np.zeros((2, lo.size))
    scalar = ~(lo <= hi) | ((lo <= 0.0) & (lo < hi))
    walks = ~scalar & (lo < hi)
    if lo.size < _BATCH_WIDTH:
        narrow = walks & ~(hi - lo > _WIDE_SPAN * lo)
        scalar |= narrow
        walks &= ~narrow
    walks = np.flatnonzero(walks)
    with np.errstate(all="ignore"):
        for start in range(0, walks.size, _BATCH_LEVEL):
            chunk = walks[start : start + _BATCH_LEVEL]
            forest = _Forest(phi[chunk], lo[chunk], hi[chunk], spec)
            integrals[:, chunk] = forest.integrals()
            scalar[chunk[forest.fail_lo == -np.inf]] = True
            for j, exc in forest.failures.items():
                failures[int(chunk[j])] = exc
                integrals[:, chunk[j]] = math.nan
    for i in np.flatnonzero(scalar).tolist():
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

        At an anchor, returns its integrals without a request.  Otherwise
        yields the one walk request (phi, anchor, w) from the nearest
        anchor below, receives its (I1, I2) over that gap, and keeps w as
        an anchor.
        """
        idx = bisect.bisect_right(self._ws, w) - 1
        base_w = self._ws[idx]
        if w == base_w:
            return self._i1[idx], self._i2[idx]
        d1, d2 = yield self._phi, base_w, w
        i1 = self._i1[idx] + d1
        i2 = self._i2[idx] + d2
        self._ws.insert(idx + 1, w)
        self._i1.insert(idx + 1, i1)
        self._i2.insert(idx + 1, i2)
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


def _endpoint_steps(key: tuple[float, float], channel: ChannelParams, root_tol: float):
    """The endpoint solve at the exact pair key = (A_f, B_f) as a generator of walk requests.

    Yields each walk for the driver (_lockstep) as (phi, lo, hi), never an
    empty one, and receives its (I1, I2) or its error; returns the
    EndpointSolution.  It builds the BoundaryPair itself, so a refused pair
    is an outcome like any other.
    """
    pair = BoundaryPair(*key)
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
    equation is evaluated as an independent residual check.  The search's
    driver (_lockstep) runs the solve, so integrate_batch picks each walk at
    DEFAULT_QUADRATURE; the root is bracketed to a relative 1e-13.

    Args:
        pair: Terminal pair strictly inside the a^2 boundary.
        channel: Channel gains.

    Returns:
        The endpoint solution with both residuals populated.

    Raises:
        DomainError: Beyond the a^2 boundary (check_pair, the one a^2 rule).
        DegenerateBoundError: Within RATIO_MARGIN of it (check_pair).
        NonFiniteError: If phi overflows, as when A_f*B_f does, or A_f*B_f
            underflows to 0, or a walk's integrand is NaN or infinite or
            its interval underflows.
        DepthExceededError: If a walk cannot meet its tolerance within the
            depth cap, as at BoundaryPair(1e-8, 1e8) for gains (1.1, 2).
        BracketOverflowError: If no sign change appears below the growth cap.
        RootNotConvergedError: If the root search (root_steps) runs out of
            iterations before its tolerance.
    """
    steps = _endpoint_steps((pair.A_f, pair.B_f), channel, _ROOT_TOL)
    outcome = _lockstep([steps], DEFAULT_QUADRATURE)
    if isinstance(outcome[0], Exception):
        # Popped: the error's traceback holds this frame, which must not hold it.
        raise outcome.pop()
    return outcome[0]


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
        NonFiniteError, DepthExceededError, BracketOverflowError,
            RootNotConvergedError: From the endpoint solve, as solve_endpoint
            raises them.
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

    The searches of all channels run together at the first next(): the scan
    solves its grid endpoints once per distinct gain a and values each
    channel of that a from them, then every start of every channel runs in
    lockstep, and the channels whose optimum lands on the B_f cap take the
    widened pass together.  Each evaluation is bit for bit optimize_bound's,
    and each channel's warnings and error come out in its turn.  As a loop
    of optimize_bound calls can, it goes on after a channel that raises:
    the next next() gives the channel after it.
    """

    def optima():
        yield from _optimize(list(channels))

    # A map, not a generator, which a raise would end.  The lambda is the
    # frame that result()'s warnings step over, as optimize_bound is.
    return map(lambda optimum: optimum.result(), optima())


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
    # optimum lands on the cap.  A pass scans its channels together, the
    # grid endpoints solved once per distinct a (_scan), then refines every
    # channel the scan left candidates for together (_refine).  Per channel,
    # the first error in the order of a pass run alone wins: the scan's,
    # then the lowest start's (_closing).
    optima = [_Optimum() for _ in channels]
    pending = list(range(len(channels)))
    for bf_lo, bf_hi, note in (
        (1e-3, 1e3, "landed on the search cap; widening tenfold"),
        (1e-4, 1e4, "still on the widened cap; result suspect"),
    ):
        if not pending:
            break
        scanned = []
        for i, found in zip(pending, _scan([channels[i] for i in pending], bf_lo, bf_hi)):
            if found == []:
                found = NoFeasiblePointError(
                    f"every grid point degenerate for a={channels[i].a!r}, b={channels[i].b!r}"
                )
            if isinstance(found, Exception):
                optima[i].outcome = found
                continue
            starts = [[math.log(rho / (1.0 - rho)), math.log(bf)] for _, rho, bf in found[:3]]
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
    round answers all pending requests at spec with one integrate_batch
    call, which picks the walk for each.  A failed walk is thrown into its
    generator.  The rounds end when no request is pending.  Returns, in the
    order of solves, each generator's return value or the exception it
    raised.
    """
    outcomes: list = [None] * len(solves)
    answered = [(i, steps, None) for i, steps in enumerate(solves)]
    while True:
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
                # Kept without this frame, which holds outcomes: an error
                # and the solve it ended are then freed with the list, not
                # left to the cycle collector.
                outcomes[i] = exc.with_traceback(exc.__traceback__.tb_next)
        if not live:
            return outcomes
        phi, lo, hi = np.array([request for _, _, request in live]).T
        i1, i2, failures = integrate_batch(phi, lo, hi, spec)
        answers: list = list(zip(i1.tolist(), i2.tolist()))
        for j, exc in failures.items():
            answers[j] = exc
        answered = [(i, steps, answer) for (i, steps, _), answer in zip(live, answers)]


def _scan(
    channels: list[ChannelParams], bf_lo: float, bf_hi: float
) -> list:
    """Each channel's sorted scan candidates (normalized, rho, B_f), or its error.

    The 24 x 25 grid and the endpoint at each grid pair depend on the gain a
    alone, so the endpoints are solved once per distinct a among channels
    (compared as exact floats) and shared by every channel of that a: by
    _endpoint_steps at _SCAN_ROOT_TOL with walks at _SCAN_QUADRATURE,
    _SCAN_WAVE pairs at a time through the lockstep driver (_lockstep).
    After each wave every channel of that a values the wave's pairs by the
    search's keep-or-drop rule (_kept).  A channel's error is its first in
    grid order, as a pair-by-pair loop would raise it; each further channel
    an error reaches gets a copy of it, so that no channel's raise adds to
    another's traceback.
    """
    groups: dict[float, list[int]] = {}
    for i, channel in enumerate(channels):
        groups.setdefault(channel.a, []).append(i)
    found: list = [None] * len(channels)
    for group in groups.values():
        first = channels[group[0]]
        try:
            grid = _scan_grid(first, bf_lo, bf_hi)
        except (NonFiniteError, DomainError) as exc:
            for i in group:
                found[i] = exc
            continue
        a2 = first.a * first.a
        # Per channel, each pair's normalized value or error; None where the
        # pair is dropped.
        values: list[list] = [[] for _ in group]
        for wave in range(0, len(grid), _SCAN_WAVE):
            endpoints = _lockstep(
                [
                    _endpoint_steps((rho * a2 * bf, bf), first, _SCAN_ROOT_TOL)
                    for rho, bf in grid[wave : wave + _SCAN_WAVE]
                ],
                _SCAN_QUADRATURE,
            )
            for i, kept in zip(group, values):
                for endpoint in endpoints:
                    outcome = _kept(endpoint, channels[i])
                    if outcome.__class__ is BoundEvaluation:
                        kept.append(outcome.normalized)
                    else:
                        kept.append(outcome if isinstance(outcome, Exception) else None)
        for i, kept in zip(group, values):
            error = next((v for v in kept if isinstance(v, Exception)), None)
            found[i] = error if error is not None else sorted(
                (v, rho, bf) for (rho, bf), v in zip(grid, kept) if v is not None
            )
    seen = set()
    for i, outcome in enumerate(found):
        if isinstance(outcome, Exception):
            if id(outcome) in seen:
                found[i] = _copied(outcome)
            seen.add(id(outcome))
    return found


def _scan_grid(channel: ChannelParams, bf_lo: float, bf_hi: float) -> list[tuple[float, float]]:
    # The scan's (rho, B_f) grid, refused where some A_f = rho * a^2 * B_f
    # would not be a positive finite float.
    a2 = channel.a * channel.a
    rhos, bfs = _rho_grid(), _bf_grid(bf_lo, bf_hi, 25)
    # Rounding is monotone, so the grid's corners decide.
    if max(rhos) * a2 * max(bfs) == math.inf:
        raise NonFiniteError(
            f"a^2*B_f overflows at gain a={channel.a!r} on the scan's B_f up to {bf_hi:g}"
        )
    if min(rhos) * a2 * min(bfs) == 0.0:
        raise DomainError(
            f"gain a={channel.a!r} too small: a^2*B_f underflows to 0 on the scan's "
            f"B_f down to {bf_lo:g}"
        )
    return [(rho, bf) for rho in rhos for bf in bfs]


def _copied(exc: Exception) -> Exception:
    # A copy of an error that more than one channel raises: its type, args,
    # chaining and the traceback it left the solve with.
    dup = copy.copy(exc)
    dup.__cause__, dup.__context__ = exc.__cause__, exc.__context__
    dup.__suppress_context__ = exc.__suppress_context__
    return dup.with_traceback(exc.__traceback__)


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


def _kept(outcome, channel: ChannelParams):
    """The search's one keep-or-drop rule for a pair, from its endpoint solve's outcome.

    Returns the evaluation theorem_bound's closed forms and floors
    (_bound_at) give at the solved endpoint, or _PENALTY where the solve or
    _bound_at refuses the pair with a feasibility error or the value is not
    finite.  Any other error, of the solve or of _bound_at, is returned for
    the caller to raise in its turn.  The scan and the refinement keep the
    pairs this rule keeps.
    """
    if isinstance(outcome, Exception):
        return _PENALTY if isinstance(outcome, _FEASIBILITY_ERRORS) else outcome
    try:
        ev = _bound_at(outcome, channel)
    except _FEASIBILITY_ERRORS:
        return _PENALTY
    except Exception as exc:  # noqa: BLE001 - the pair's outcome
        return exc
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
    rounds give integrate_adaptive's bits however wide they are, so each
    start probes what it probes alone.  Their outcomes go into the memos,
    and the starts that asked resume from them in the next step.  The
    optimum's evaluation is read from the memo.
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
            [_endpoint_steps(key, problems[p][0], _ROOT_TOL) for p, key in pairs],
            DEFAULT_QUADRATURE,
        )
        live = []
        for (p, key), outcome in zip(pairs, outcomes):
            memos[p][key] = outcome = _kept(outcome, problems[p][0])
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
