"""Tests for the stable branch, the endpoint quadrature and its settings, the
batch walk, the lockstep scan and the lockstep refinement (each tied bit for
bit to its scalar loop), the endpoint solve, and the bound itself.

The heavyweight check re-derives the bound at a fixed pair through an
entirely independent path: QUADPACK quadrature, scipy's brentq on the raw
integral equation, and the literal closed form of the source energy (no
expm1 rewrite).  Agreement to 1e-9 pins every formula at once.
"""
from __future__ import annotations

import dataclasses
import gc
import math
import traceback
import re
import sys
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from linrelay import bound
from linrelay.bound import (
    _FEASIBILITY_ERRORS,
    _SCAN_QUADRATURE,
    _SCAN_ROOT_TOL,
    _bound_at,
    _endpoint_steps,
    DEFAULT_QUADRATURE,
    TWO_LN2,
    BoundaryPair,
    ChannelParams,
    QuadratureSpec,
    compute_phi,
    f_eval,
    integrate_adaptive,
    integrate_batch,
    lambda_and_Q1,
    optimize_bound,
    optimize_bounds,
    solve_endpoint,
    theorem_bound,
)
from linrelay.cli import run_sweep
from linrelay.errors import (
    EXIT_COLLAPSE,
    BracketOverflowError,
    DegenerateBoundError,
    DepthExceededError,
    DomainError,
    NoFeasiblePointError,
    NonFiniteError,
    RouteMismatchError,
)
from linrelay.numerics import drive_steps, minimize_simplex

A11 = ChannelParams(a=1.1, b=2.0)

# Frozen outputs at the optimizer's argmin for (a, b) = (1.1, 2); regression
# pins against silent drift in the solve or the energy formulas.
PINNED_PAIR = BoundaryPair(A_f=0.47745726861858833, B_f=0.7594024699528037)
PINNED_NORMALIZED = 0.8870089461194643
PINNED_Q1 = 0.18382326979694708
PINNED_Q2 = 0.026731153379076555
PINNED_LOG_ARG = 1.2679174616028703


def _independent_bound(pair: BoundaryPair, channel: ChannelParams) -> float:
    """Normalized bound via QUADPACK + brentq + literal closed forms."""
    a, b = channel.a, channel.b
    A_f, B_f = pair.A_f, pair.B_f
    phi = A_f * B_f + 1.0 / A_f - 1.0 / B_f

    def f(w: float) -> float:
        t = phi * w - 1.0
        return (t + math.sqrt(t * t + 4.0 * w**3)) / (2.0 * w * w)

    def i1(A0: float) -> float:
        return quad(
            lambda w: f(w) / (1.0 + w * f(w) ** 2), A_f, A0,
            epsabs=1e-13, epsrel=1e-13,
        )[0]

    def i2(A0: float) -> float:
        return quad(
            lambda w: f(w) ** 2 / (1.0 + w * f(w) ** 2), A_f, A0,
            epsabs=1e-13, epsrel=1e-13,
        )[0]

    def g(A0: float) -> float:
        return 1.0 / B_f + i1(A0) - a / math.sqrt(A0 * B_f) * math.exp(i2(A0) / 2.0)

    hi = max(2.0 * A_f, 1.0)
    while g(hi) < 0.0:
        hi *= 2.0
    A0 = brentq(g, A_f, hi, xtol=1e-15, rtol=8.9e-16)
    psi = math.sqrt(A0**3 * B_f / (a**4 * math.exp(i2(A0))))
    B0 = f(A0)
    Q1 = -1.0 / a**2 + A0**3 * B_f / (a**6 * psi**2)
    Q2 = (
        -1.0 / b**2
        + A0**3 / (a**5 * b**2 * psi**3)
        + A0**2 * (A_f * B_f**2 - 1.0) / (a**4 * b**2 * psi**2 * B_f)
    )
    log_arg = (A0 / a**2) * (1.0 / B_f + A0 * B0 - A_f * B_f)
    return (Q1 + Q2) / (0.5 * math.log2(log_arg)) / TWO_LN2


# Reference for the endpoint walk: the generic adaptive Simpson rule that
# integrated each endpoint integrand in its own call before the two were
# fused.  The walk must reproduce each call's value bit for bit, and fail
# exactly when one of the calls fails, with the class and message of a
# failing call.
_REF_WIDTH_FLOOR = 4096.0 * np.finfo(float).eps


def _ref_checked(f, x):
    fx = f(x)
    if not math.isfinite(fx):
        raise NonFiniteError(f"integrand returned {fx!r} at x={x!r}")
    return float(fx)


def _ref_simpson(fa, fm, fb, h):
    return (h / 6.0) * (fa + 4.0 * fm + fb)


def _ref_adapt(f, lo, hi, fa, fm, fb, whole, eps, depth, max_depth):
    mid = 0.5 * (lo + hi)
    lmid = 0.5 * (lo + mid)
    rmid = 0.5 * (mid + hi)
    if (
        lmid <= lo
        or rmid <= mid
        or mid >= hi
        or hi - lo <= _REF_WIDTH_FLOOR * max(abs(lo), abs(hi))
    ):
        return whole
    flm = _ref_checked(f, lmid)
    frm = _ref_checked(f, rmid)
    left = _ref_simpson(fa, flm, fm, mid - lo)
    right = _ref_simpson(fm, frm, fb, hi - mid)
    err = left + right - whole
    if abs(err) <= 15.0 * eps:
        return left + right + err / 15.0
    if depth >= max_depth:
        raise DepthExceededError(
            f"tolerance {eps:g} unreachable on [{lo!r}, {hi!r}] at depth {depth}"
        )
    half = 0.5 * eps
    return _ref_adapt(f, lo, mid, fa, flm, fm, left, half, depth + 1, max_depth) + _ref_adapt(
        f, mid, hi, fm, frm, fb, right, half, depth + 1, max_depth
    )


def _ref_integrate(f, lo, hi, spec):
    if lo > hi:
        raise ValueError(f"lo={lo!r} exceeds hi={hi!r}")
    if lo == hi:
        return 0.0
    fa = _ref_checked(f, lo)
    mid = 0.5 * (lo + hi)
    fm = _ref_checked(f, mid)
    fb = _ref_checked(f, hi)
    whole = _ref_simpson(fa, fm, fb, hi - lo)
    eps = max(spec.tol, spec.tol * abs(whole))
    return _ref_adapt(f, lo, hi, fa, fm, fb, whole, eps, 0, spec.max_depth)


def _first(w, phi):
    fw = f_eval(w, phi)
    return fw / (1.0 + w * fw * fw)


def _second(w, phi):
    fw = f_eval(w, phi)
    return fw * fw / (1.0 + w * fw * fw)


def _outcome(call):
    """Hex bits of both values, or the class and message of the failure."""
    try:
        values = call()
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome
        return type(exc), str(exc)
    return tuple(float(v).hex() for v in values)


def _separate(phi, lo, hi, spec):
    """Outcomes of the two reference calls, each run on its own."""
    return tuple(
        _outcome(lambda: [_ref_integrate(lambda w: g(w, phi), lo, hi, spec)])
        for g in (_first, _second)
    )


def _random_cases(n, seed):
    # (phi, lo, hi, spec) around endpoint-like intervals: phi from a pair
    # (A_f, B_f), lo near A_f, hi up to about 30 lo.  Every fourth case takes a
    # depth cap of 3, so the failure paths of both integrals are exercised.
    rng = np.random.default_rng(seed)
    specs = (DEFAULT_QUADRATURE, _SCAN_QUADRATURE, QuadratureSpec(max_depth=3))
    cases = []
    for i in range(n):
        A_f, B_f = 10.0 ** rng.uniform(-2.0, 2.0, size=2)
        phi = compute_phi(BoundaryPair(A_f=float(A_f), B_f=float(B_f)))
        lo = float(A_f * 10.0 ** rng.uniform(-0.5, 0.3))
        hi = float(lo * 10.0 ** rng.uniform(0.0, 1.5))
        spec = specs[2] if i % 4 == 3 else specs[i % 2]
        cases.append((phi, lo, hi, spec))
    return cases


def _log_uniform_intervals(n, seed):
    # (phi, lo, hi) over about 12 decades: phi from a log-uniform pair, lo
    # near its A_f and hi up to half a decade above lo; then intervals that
    # integrate_adaptive refuses or fails on at any tolerance (empty,
    # reversed, at 0, NaN, non-finite integrand).
    rng = np.random.default_rng(seed)
    A_f, B_f = 10.0 ** rng.uniform(-6.0, 6.0, size=(2, n))
    phi = [compute_phi(BoundaryPair(A_f=float(a), B_f=float(b))) for a, b in zip(A_f, B_f)]
    lo = A_f * 10.0 ** rng.uniform(-0.5, 0.5, n)
    hi = lo * 10.0 ** rng.uniform(0.0, 0.5, n)
    extra = [(1.0, 2.0, 2.0), (1.0, 2.0, 1.0), (1.0, 0.0, 1.0), (1.0, math.nan, 1.0),
             (1e308, 10.0, 20.0), (1e150, 1e-10, 2e-10)]
    phi = np.array(phi + [e[0] for e in extra])
    lo = np.concatenate((lo, [e[1] for e in extra]))
    hi = np.concatenate((hi, [e[2] for e in extra]))
    return phi, lo, hi


def _scalar_only(monkeypatch):
    # Every walk takes integrate_adaptive: no set is wide enough for the
    # level walk, and no interval either.
    def no_level_walk(*args):
        raise AssertionError("the level walk ran")

    monkeypatch.setattr(bound, "_BATCH_WIDTH", sys.maxsize)
    monkeypatch.setattr(bound, "_WIDE_SPAN", math.inf)
    monkeypatch.setattr(bound, "_Forest", no_level_walk)


def _count_scalar_walks(monkeypatch):
    # The intervals of the integrate_adaptive calls integrate_batch makes,
    # under bound's name, by repr (NaN limits included).
    real = bound.integrate_adaptive
    calls = []

    def counted(*args):
        calls.append(repr(args[:3]))
        return real(*args)

    monkeypatch.setattr(bound, "integrate_adaptive", counted)
    return real, calls


def _root_fails(phi, lo, hi):
    # Whether an integrand is non-finite at a root point of the walk.
    points = (lo, 0.5 * (lo + hi), hi)
    return not all(math.isfinite(g) for w in points for g in bound._f_terms(w, phi)[1:])


def _stand_in_failures(monkeypatch, nan_at=(), underflow_at=()):
    # f's integrands with failures put where a test needs them, the same in
    # both walks: NaN in the integrands listed (1, 2) at the points nan_at
    # holds as (w, integrands), and 2 w^2 underflowing to 0 at the points
    # in underflow_at (the scalar walk's ZeroDivisionError, NaN in numpy).
    # With f itself, the points where 2 w^2 underflows lie just left of a far
    # wider span where the integrands overflow, so a tree whose root is
    # finite fails in that span first.
    real, real_batch = bound._f_terms, bound._f_terms_batch

    def f_terms(w, phi):
        if w in underflow_at:
            raise ZeroDivisionError
        terms = list(real(w, phi))
        for point, integrands in nan_at:
            if w == point:
                for k in integrands:
                    terms[k] = math.nan
        return tuple(terms)

    def f_terms_batch(w, phi, out):
        real_batch(w, phi, out)
        for point in underflow_at:
            out[:, w == point] = math.nan
        for point, integrands in nan_at:
            for k in integrands:
                out[k - 1, w == point] = math.nan

    monkeypatch.setattr(bound, "_f_terms", f_terms)
    monkeypatch.setattr(bound, "_f_terms_batch", f_terms_batch)


def _failure_sites(monkeypatch):
    # Where the walk builds its errors: (function, integrand k of _one) per
    # _too_deep or _non_finite call.
    sites = []
    for name in ("_too_deep", "_non_finite"):
        def spy(*args, real=getattr(bound, name)):
            frame = sys._getframe(1)
            sites.append((frame.f_code.co_name, frame.f_locals.get("k")))
            return real(*args)

        monkeypatch.setattr(bound, name, spy)
    return sites


# Trees that fail by the depth cap below the root, as (phi, lo, hi, tol,
# max_depth), each in the phase named: _two with both integrals splitting
# (eps1 in the error), _two with only integral 2 splitting (eps2), and _one
# on integrand 1 and on integrand 2.  The two integrals' eps differ in each,
# and each first failing node is the leftmost at its depth.
_DEPTH_CASES = {
    "two": (4760.607040556698, 72.5552202095499, 2296.0085176820016, 1e-12, 7),
    "two-2": (102.77568039321623, 929.1666159545941, 4893.126425717823, 1e-12, 7),
    "one-1": (191.1556429831941, 0.0006462099305101077, 0.02296671390943897, 1e-12, 7),
    "one-2": (184819.73231430372, 452.00996052045576, 2439.592337541307, 1e-12, 6),
}


def _first_failing_node(case):
    # The node a _DEPTH_CASES tree fails at, read off the scalar walk's error.
    phi, lo, hi, tol, max_depth = case
    with pytest.raises(DepthExceededError) as caught:
        integrate_adaptive(phi, lo, hi, QuadratureSpec(tol=tol, max_depth=max_depth))
    a, b = (float(v) for v in re.search(r"\[(.*), (.*)\]", str(caught.value)).groups())
    return a, b


class TestParams:
    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_channel_rejects_bad_gains(self, a, b):
        with pytest.raises(ValueError):
            ChannelParams(a=a, b=b)

    def test_channel_refuses_a_gain_b_whose_square_overflows(self):
        # b^2 = inf would read as lambda = inf and Q2 = 0 in the bound.
        largest = math.sqrt(sys.float_info.max)
        assert ChannelParams(a=1.1, b=largest).b == largest
        with pytest.raises(NonFiniteError, match=r"b\^2 overflows at gain b=1e\+200"):
            ChannelParams(a=1.1, b=1e200)

    @pytest.mark.parametrize("Af,Bf", [(0.0, 1.0), (1.0, -2.0), (math.inf, 1.0)])
    def test_pair_rejects_bad_values(self, Af, Bf):
        with pytest.raises(ValueError):
            BoundaryPair(A_f=Af, B_f=Bf)

    def test_ratio(self):
        assert BoundaryPair(A_f=3.0, B_f=2.0).ratio() == 1.5

    def test_compute_phi(self):
        # 2*3 + 1/2 - 1/3 = 6 + 1/6
        pair = BoundaryPair(A_f=2.0, B_f=3.0)
        assert compute_phi(pair) == pytest.approx(6.0 + 1.0 / 6.0, rel=1e-15)


class TestStableBranch:
    def test_unit_point(self):
        # At w = phi = 1 the defining quadratic reads B^2 - 1 = 0, so B = 1.
        assert f_eval(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_nonpositive_w(self):
        with pytest.raises(DomainError):
            f_eval(0.0, 1.0)
        with pytest.raises(DomainError):
            f_eval(-2.0, 1.0)

    def test_underflowing_square_is_non_finite(self):
        # On the large-w branch 2 w^2 underflows to 0, as in the walk.
        with pytest.raises(NonFiniteError, match=r"2\*w\*w underflows to 0"):
            f_eval(1e-200, 1e300)

    def test_branch_switch_is_continuous(self):
        # The two algebraic forms meet at phi*w = 1; values must agree
        # across the switch.
        w = 2.0
        below = f_eval(w, (1.0 - 1e-12) / w)
        above = f_eval(w, (1.0 + 1e-12) / w)
        assert below == pytest.approx(above, rel=1e-10)

    @given(
        logw=st.floats(math.log(1e-8), math.log(1e6)),
        phi=st.floats(-100.0, 100.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_satisfies_defining_quadratic(self, logw, phi):
        w = math.exp(logw)
        B = f_eval(w, phi)
        assert B > 0.0
        residual = w * w * B * B + (1.0 - phi * w) * B - w
        scale = max(w * w * B * B, abs(1.0 - phi * w) * B, w)
        assert abs(residual) <= 1e-10 * scale


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.tol == 1e-12
        assert spec.max_depth == 60

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": -1e-9},
            {"max_depth": 0},
            {"tol": math.nan},
            {"tol": math.inf},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestIntegrateAdaptive:
    def test_matches_two_separate_walks_bit_for_bit(self):
        cases = _random_cases(320, seed=20261018)
        failed = both_failed = 0
        for phi, lo, hi, spec in cases:
            first, second = _separate(phi, lo, hi, spec)
            got = _outcome(lambda: integrate_adaptive(phi, lo, hi, spec))
            failures = [o for o in (first, second) if isinstance(o[0], type)]
            if failures:
                assert got in failures, (phi, lo, hi, spec)
            else:
                assert got == first + second, (phi, lo, hi, spec)
            failed += bool(failures)
            both_failed += len(failures) == 2
        # The cases must reach both values and the failure paths, including
        # failures of both integrals.
        assert 30 <= failed <= len(cases) - 200
        assert both_failed >= 20

    @pytest.mark.parametrize(
        "phi,lo,hi,max_depth,first_fails,raised",
        [
            # f^2 overflows, so the first integrand is 0 and the second NaN.
            (1e150, 1e-10, 2e-10, 60, False, "second"),
            # Only the second integral misses its tolerance.
            (501.93215503576994, 146.32007499555917, 165.28277205838668, 3, False, "second"),
            # Both miss, the second at an earlier node than the first.
            (5.21957865840629, 0.07686600681226329, 0.09742031807355596, 3, True, "second"),
            # Both miss, the first at an earlier node than the second.
            (72.8184051122198, 0.005377774945970034, 0.009886878122795716, 3, True, "first"),
        ],
    )
    def test_first_failure_in_walk_order(self, phi, lo, hi, max_depth, first_fails, raised):
        spec = QuadratureSpec(max_depth=max_depth)
        first, second = _separate(phi, lo, hi, spec)
        assert isinstance(second[0], type)
        assert isinstance(first[0], type) == first_fails
        got = _outcome(lambda: integrate_adaptive(phi, lo, hi, spec))
        assert got == {"first": first, "second": second}[raised]

    @pytest.mark.parametrize(
        "phi,lo,hi",
        [(1.0, 1.0, 3.0), (-2.5, 0.1, 4.0), (40.0, 0.02, 0.7), (0.3, 2.0, 50.0)],
    )
    def test_agrees_with_quadpack(self, phi, lo, hi):
        i1, i2 = integrate_adaptive(phi, lo, hi)
        opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
        assert i1 == pytest.approx(quad(_first, lo, hi, args=(phi,), **opts)[0], rel=1e-10)
        assert i2 == pytest.approx(quad(_second, lo, hi, args=(phi,), **opts)[0], rel=1e-10)

    def test_empty_interval_is_zero(self):
        assert integrate_adaptive(1.0, 1.5, 1.5) == (0.0, 0.0)

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(1.0, 2.0, 1.0)

    @pytest.mark.parametrize("lo", [0.0, -1.0])
    def test_nonpositive_lower_limit_is_outside_domain(self, lo):
        with pytest.raises(DomainError):
            integrate_adaptive(1.0, lo, 1.0)

    def test_non_finite_integrand(self):
        # phi*w overflows at w = 10, so f and both integrands are NaN there.
        with pytest.raises(NonFiniteError):
            integrate_adaptive(1e308, 10.0, 20.0)

    def test_depth_cap_raises(self):
        with pytest.raises(DepthExceededError):
            integrate_adaptive(1.0, 0.01, 100.0, QuadratureSpec(max_depth=1))

    @given(
        log_af=st.floats(-1.0, 1.0),
        log_bf=st.floats(-1.0, 1.0),
        split=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_interval_additivity(self, log_af, log_bf, split):
        phi = compute_phi(BoundaryPair(A_f=10.0**log_af, B_f=10.0**log_bf))
        lo = 10.0**log_af
        hi = 4.0 * lo
        mid = lo + split * (hi - lo)
        whole = integrate_adaptive(phi, lo, hi)
        left = integrate_adaptive(phi, lo, mid)
        right = integrate_adaptive(phi, mid, hi)
        for k in range(2):
            assert whole[k] == pytest.approx(left[k] + right[k], rel=1e-11, abs=1e-12)


class TestIntegrateBatch:
    @pytest.mark.parametrize("spec", [DEFAULT_QUADRATURE, _SCAN_QUADRATURE], ids=["default", "scan"])
    def test_matches_the_scalar_walk_bit_for_bit(self, spec, monkeypatch):
        phi, lo, hi = _log_uniform_intervals(400, seed=20261019)
        i1, i2, failures = integrate_batch(phi, lo, hi, spec)
        # f evaluations of each scalar walk: a tree of n nodes takes at
        # most 2n + 1 of them.
        evals = [0]
        real = bound._f_terms

        def counted(w, p):
            evals[0] += 1
            return real(w, p)

        monkeypatch.setattr(bound, "_f_terms", counted)
        large = 0
        for i, interval in enumerate(zip(phi.tolist(), lo.tolist(), hi.tolist())):
            evals[0] = 0
            scalar = _outcome(lambda: integrate_adaptive(*interval, spec))
            if i in failures:
                exc = failures[i]
                assert (type(exc), str(exc)) == scalar, interval
                assert exc.__traceback__ is None
                assert math.isnan(i1[i]) and math.isnan(i2[i])
            else:
                assert (float(i1[i]).hex(), float(i2[i]).hex()) == scalar, interval
                large += evals[0] > 2 * 4096 + 1
        # The set reaches failures and, at the default tolerance, trees of
        # more than 4,096 nodes, which the batch walks to the end.
        assert len(failures) >= 5
        assert large >= (5 if spec is DEFAULT_QUADRATURE else 0)

    def test_memory_bound(self):
        # The walk's slices bound its memory, trees of more than 4,096
        # nodes and the failing walks included.
        phi, lo, hi = _log_uniform_intervals(400, seed=20261019)
        integrate_batch(phi, lo, hi)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            integrate_batch(phi, lo, hi)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6

    @pytest.mark.parametrize("spec", [DEFAULT_QUADRATURE, _SCAN_QUADRATURE], ids=["default", "scan"])
    def test_narrow_sets_pick_the_walk_by_span(self, spec, monkeypatch):
        # Sets of five, the last two with an empty, a reversed, a zero-based
        # and a NaN interval and two non-finite integrands.  An interval no
        # wider than _WIDE_SPAN times its lower limit is one integrate_adaptive
        # call under bound's name, the one the tracer wraps; a wider one takes
        # the level walk, and calls it only where its root fails.  Either way
        # each entry has the scalar walk's bits or failure.
        phi, lo, hi = _log_uniform_intervals(400, seed=20261019)
        real, calls = _count_scalar_walks(monkeypatch)
        failed = set()
        sides = set()
        for start in range(0, lo.size, 5):
            part = slice(start, start + 5)
            calls.clear()
            i1, i2, failures = integrate_batch(phi[part], lo[part], hi[part], spec)
            intervals = list(zip(phi[part].tolist(), lo[part].tolist(), hi[part].tolist()))
            scalar_walks = []
            for k, interval in enumerate(intervals):
                p, a, b = interval
                refused = not a <= b or (a <= 0.0 and a < b)
                wide = not refused and b - a > bound._WIDE_SPAN * a
                if refused or (wide and _root_fails(p, a, b)) or (a < b and not wide):
                    scalar_walks.append(repr(interval))
                sides.add(wide)
                scalar = _outcome(lambda: real(*interval, spec))
                if k in failures:
                    exc = failures[k]
                    assert (type(exc), str(exc)) == scalar, interval
                    assert exc.__traceback__ is None
                    assert math.isnan(i1[k]) and math.isnan(i2[k])
                else:
                    assert (float(i1[k]).hex(), float(i2[k]).hex()) == scalar, interval
            assert calls == scalar_walks
            failed.update(start + k for k in failures)
        assert sides == {False, True}
        assert failed >= {401, 402, 403, 404, 405}

    @pytest.mark.parametrize("size", [1, 2, 5])
    def test_wide_intervals_take_the_level_walk_in_any_set(self, size, monkeypatch):
        # Sets narrower than _BATCH_WIDTH of wide intervals, failing ones
        # included, and of refused ones: only the refused intervals reach
        # integrate_adaptive.
        cases = _random_cases(320, seed=20261018)
        phi, lo, hi = (
            np.array([case[k] for case in cases if case[3] is DEFAULT_QUADRATURE]) for k in range(3)
        )
        wide = hi - lo > bound._WIDE_SPAN * lo
        phi = np.concatenate((phi[wide], [1.0, 1.0, 1.0]))
        lo = np.concatenate((lo[wide], [2.0, 0.0, math.nan]))
        hi = np.concatenate((hi[wide], [1.0, 1.0, 1.0]))
        real, calls = _count_scalar_walks(monkeypatch)
        walked = 0
        for start in range(0, lo.size, size):
            part = slice(start, start + size)
            calls.clear()
            i1, i2, failures = integrate_batch(phi[part], lo[part], hi[part])
            intervals = list(zip(phi[part].tolist(), lo[part].tolist(), hi[part].tolist()))
            assert calls == [repr(i) for i in intervals if not i[1] <= i[2] or i[1] <= 0.0]
            for k, interval in enumerate(intervals):
                scalar = _outcome(lambda: real(*interval))
                if k in failures:
                    assert (type(failures[k]), str(failures[k])) == scalar, interval
                else:
                    assert (float(i1[k]).hex(), float(i2[k]).hex()) == scalar, interval
            walked += len(intervals) - len(calls)
        assert walked >= 100

    def test_trees_failing_below_the_root_are_not_walked_again(self, monkeypatch):
        # Every case of _random_cases, one integrate_batch call per spec: the
        # failures below the root, about one case in four, come from the level
        # walk with the scalar walk's class and message, and no interval
        # reaches integrate_adaptive.
        cases = _random_cases(320, seed=20261018)
        real, calls = _count_scalar_walks(monkeypatch)
        failed = 0
        for spec in {case[3] for case in cases}:
            phi, lo, hi = (np.array([c[k] for c in cases if c[3] == spec]) for k in range(3))
            i1, i2, failures = integrate_batch(phi, lo, hi, spec)
            for k, interval in enumerate(zip(phi.tolist(), lo.tolist(), hi.tolist())):
                scalar = _outcome(lambda: real(*interval, spec))
                if k in failures:
                    assert (type(failures[k]), str(failures[k])) == scalar, interval
                    assert failures[k].__traceback__ is None
                else:
                    assert (float(i1[k]).hex(), float(i2[k]).hex()) == scalar, interval
            failed += len(failures)
        assert calls == []
        assert failed >= 30

    @pytest.mark.parametrize(
        "case,site",
        [
            (_DEPTH_CASES["two"], ("_two", None)),
            (_DEPTH_CASES["two-2"], ("_two", None)),
            (_DEPTH_CASES["one-1"], ("_one", 1)),
            (_DEPTH_CASES["one-2"], ("_one", 2)),
            # Integrand 2 overflows left of about 1e-72, where the walk
            # arrives at depth 36 refining integrand 2 alone.
            ((1.60015102630338e82, 2.8047039270688645e-98, 1.688939465603267e-61, 1e-12, 60),
             ("_one", 2)),
        ],
        ids=["depth-two", "depth-two-2", "depth-one-1", "depth-one-2", "non-finite-child"],
    )
    def test_failure_below_the_root_is_the_scalar_error(self, case, site, monkeypatch):
        # One wide tree that fails below its root, where the scalar walk's
        # error is built as the id says, gets that error from the level walk.
        phi, lo, hi, tol, max_depth = case
        spec = QuadratureSpec(tol=tol, max_depth=max_depth)
        sites = _failure_sites(monkeypatch)
        scalar = _outcome(lambda: integrate_adaptive(phi, lo, hi, spec))
        assert sites == [site]
        assert not _root_fails(phi, lo, hi)
        _, calls = _count_scalar_walks(monkeypatch)
        _, _, failures = integrate_batch([phi], [lo], [hi], spec)
        assert calls == []
        assert (type(failures[0]), str(failures[0])) == scalar

    @pytest.mark.parametrize(
        "case,failures_at,raised",
        [
            # While both integrals refine (_two): f at both points, then
            # flm1, frm1, flm2, frm2.
            ("two", {"underflow": "l"}, ("_two", "underflow")),
            ("two", {"nan": [("l", (1, 2))], "underflow": "r"}, ("_two", "underflow")),
            ("two", {"nan": [("l", (2,)), ("r", (1,))]}, ("_two", "r")),
            ("two", {"nan": [("l", (2,))]}, ("_two", "l")),
            # Refining integral k alone (_one): f and flm_k at lmid, then f
            # and frm_k at rmid; the other integral is not read.
            ("one-1", {"nan": [("l", (1,))], "underflow": "r"}, ("_one", "l")),
            ("one-1", {"underflow": "r"}, ("_one", "underflow")),
            ("one-1", {"nan": [("l", (2,)), ("r", (1,))]}, ("_one", "r")),
            ("one-2", {"nan": [("r", (2,))]}, ("_one", "r")),
            ("one-2", {"nan": [("l", (1,)), ("r", (1,))]}, (None, None)),
        ],
        ids=[
            "two-underflow-l", "two-nan-l-underflow-r", "two-nan2-l-nan1-r", "two-nan2-l",
            "one-1-nan1-l-underflow-r", "one-1-underflow-r", "one-1-nan2-l-nan1-r",
            "one-2-nan2-r", "one-2-nan1-not-read",
        ],
    )
    def test_check_order_at_a_failing_node(self, case, failures_at, raised, monkeypatch):
        # A _DEPTH_CASES tree, with no depth cap, given stand-in failures at
        # the two points of the node it failed at: the level walk fails
        # where the scalar walk does, in _two's or _one's check order, with
        # its class and message and no integrate_adaptive call; a tree that
        # the stand-ins do not fail keeps the scalar walk's bits.
        phi, lo, hi, tol, _ = _DEPTH_CASES[case]
        spec = QuadratureSpec(tol=tol, max_depth=60)
        a, b = _first_failing_node(_DEPTH_CASES[case])
        mid = 0.5 * (a + b)
        points = {"l": 0.5 * (a + mid), "r": 0.5 * (mid + b)}
        _stand_in_failures(
            monkeypatch,
            nan_at=[(points[at], integrands) for at, integrands in failures_at.get("nan", [])],
            underflow_at=tuple(points[at] for at in failures_at.get("underflow", "")),
        )
        sites = _failure_sites(monkeypatch)
        scalar = _outcome(lambda: integrate_adaptive(phi, lo, hi, spec))
        function, at = raised
        if function is None:
            assert not isinstance(scalar[0], type)
        elif at == "underflow":
            assert scalar == (
                NonFiniteError,
                f"integrand is infinite on [{lo!r}, {hi!r}] at phi={phi!r}: 2*w*w underflows to 0",
            )
        else:
            assert scalar[0] is NonFiniteError and f"at x={points[at]!r}" in scalar[1]
            assert sites[-1][0] == function
        _, calls = _count_scalar_walks(monkeypatch)
        i1, i2, failures = integrate_batch([phi], [lo], [hi], spec)
        assert calls == []
        if function is None:
            assert failures == {}
            assert (float(i1[0]).hex(), float(i2[0]).hex()) == scalar
        else:
            assert (type(failures[0]), str(failures[0])) == scalar

    def test_right_failure_shallower_than_the_first(self, monkeypatch):
        # The "two" tree fails at the depth cap at its lower limit.  A
        # stand-in failure at depth 1 right of it is found first by the level
        # walk, which must still raise the deeper error, the scalar walk's
        # first.
        phi, lo, hi, tol, max_depth = _DEPTH_CASES["two"]
        spec = QuadratureSpec(tol=tol, max_depth=max_depth)
        a, b = _first_failing_node(_DEPTH_CASES["two"])
        mid = 0.5 * (lo + hi)
        assert b <= mid
        right_rmid = 0.5 * (0.5 * (mid + hi) + hi)
        _stand_in_failures(monkeypatch, nan_at=[(right_rmid, (1, 2))])
        scalar = _outcome(lambda: integrate_adaptive(phi, lo, hi, spec))
        assert scalar[0] is DepthExceededError
        assert f"[{a!r}, {b!r}] at depth {max_depth}" in scalar[1]
        found = []
        real_failure = bound._Forest._failure

        def spy(forest, w, lo, hi, depth, live, split):
            found.append(depth)
            return real_failure(forest, w, lo, hi, depth, live, split)

        monkeypatch.setattr(bound._Forest, "_failure", spy)
        _, calls = _count_scalar_walks(monkeypatch)
        _, _, failures = integrate_batch([phi], [lo], [hi], spec)
        assert calls == []
        assert found == [1, max_depth]
        assert (type(failures[0]), str(failures[0])) == scalar

    def test_one_phi_for_all_intervals(self):
        lo = np.geomspace(0.3, 3.0, 9)
        i1, i2, failures = integrate_batch(1.25, lo[:-1], lo[1:])
        assert failures == {}
        for k in range(8):
            assert (i1[k], i2[k]) == integrate_adaptive(1.25, lo[k], lo[k + 1])

    def test_ulp_wide_intervals_stop_where_the_scalar_walk_does(self):
        # Sets of intervals 1 to 6 ulps wide, exactly at the width floor and
        # one ulp either side of it, and one 3 lo wide, at lower limits from
        # the subnormal range up.  The level walk stops a node by the width
        # test alone, the scalar walk by four tests; each entry has the
        # scalar walk's bits or its error (f overflows near the subnormal
        # range at phi = 1e300).
        tiny = sys.float_info.min
        for base in (5e-324, 1e-320, math.nextafter(tiny, 0.0), tiny, math.nextafter(tiny, 1.0),
                     1e-300, 0.75, 1.0, 3.0, 1e300):
            lo, hi = [3.0 * base], [base]
            for _ in range(6):
                lo.append(base)
                hi.append(math.nextafter(hi[-1], math.inf))
            top = 2.0 ** math.floor(math.log2(base))
            floor = top - bound._WIDTH_FLOOR * top
            for low in (math.nextafter(floor, 0.0), floor, math.nextafter(floor, math.inf)):
                lo.append(low)
                hi.append(top)
            lo[0], hi[0] = base, 4.0 * base
            for phi in (1.25, 1e-3, 1e300):
                i1, i2, failures = integrate_batch(phi, lo, hi)
                for k, interval in enumerate(zip(lo, hi)):
                    scalar = _outcome(lambda: integrate_adaptive(phi, *interval))
                    if k in failures:
                        assert (type(failures[k]), str(failures[k])) == scalar, interval
                    else:
                        assert (float(i1[k]).hex(), float(i2[k]).hex()) == scalar, interval

    @pytest.mark.parametrize(
        "spec,failing",
        [
            # Integrand 2 overflows left of about 1e-72, reached at depth 36
            # and about 20.
            (DEFAULT_QUADRATURE, (1.60015102630338e82, 2.8047039270688645e-98, 1.688939465603267e-61)),
            (_SCAN_QUADRATURE, (1.60015102630338e82, 2.8047039270688645e-98, 1e-66)),
        ],
        ids=["default", "scan"],
    )
    def test_failure_bookkeeping_switches_on_mid_forest(self, spec, failing, monkeypatch):
        # One forest: a tree that fails below its root between two deeper
        # trees that do not fail.  Levels read fail_lo only once a failure is
        # recorded; the trees either side are walked on after that, and every
        # entry has the scalar walk's bits or its error.
        intervals = [
            (150053.23555373156, 4.988512363522082e-06, 1.268248558981375e-05),
            failing,
            (183402.48423570153, 4.5359990027679944e-06, 1.1607975269892108e-05),
        ]
        phi, lo, hi = (np.array(column) for column in zip(*intervals))
        levels = []
        real_level = bound._Forest._level

        def level(forest, depth, nodes):
            levels.append((bool(forest.failures), set(nodes[0][bound._WALK].tolist())))
            return real_level(forest, depth, nodes)

        monkeypatch.setattr(bound._Forest, "_level", level)
        _, calls = _count_scalar_walks(monkeypatch)
        i1, i2, failures = integrate_batch(phi, lo, hi, spec)
        assert calls == []
        assert list(failures) == [1]
        after = set().union(*(walks for failed, walks in levels if failed))
        assert {0.0, 2.0} <= after
        for k, interval in enumerate(intervals):
            scalar = _outcome(lambda: integrate_adaptive(*interval, spec))
            if k in failures:
                assert (type(failures[k]), str(failures[k])) == scalar
            else:
                assert (float(i1[k]).hex(), float(i2[k]).hex()) == scalar


def _pair_by_pair_candidates(channel):
    # The scan as a loop of scalar bound evaluations at the scan's
    # tolerances, one per grid pair.
    a2 = channel.a * channel.a
    candidates = []
    for rho in bound._rho_grid():
        for bf in bound._bf_grid(1e-3, 1e3, 25):
            steps = _endpoint_steps((rho * a2 * bf, bf), channel, _SCAN_ROOT_TOL)
            try:
                ev = _bound_at(
                    drive_steps(steps, lambda r: integrate_adaptive(*r, _SCAN_QUADRATURE)),
                    channel,
                )
            except _FEASIBILITY_ERRORS:
                continue
            if math.isfinite(ev.normalized):
                candidates.append((ev.normalized, rho, bf))
    return sorted(candidates)


def _scanned(channel, bf_lo=1e-3, bf_hi=1e3):
    # The scan of one channel alone: its candidates, or its error raised.
    (found,) = bound._scan([channel], bf_lo, bf_hi)
    if isinstance(found, Exception):
        raise found
    return found


class TestScan:
    # The benchmark's and the README's channels (2.2360679774997902 is the
    # middle b of the benchmark's three-point sweep from 0.5 to 10), and a
    # weak relay at a = 0.01.
    @pytest.mark.parametrize(
        "a,b",
        [(1.1, 2.0), (1.1, 0.5), (1.1, 2.2360679774997902), (1.1, 10.0), (0.5, 0.5),
         (0.01, 1.0)],
    )
    def test_lockstep_candidates_equal_pair_by_pair(self, a, b):
        channel = ChannelParams(a=a, b=b)
        assert _scanned(channel) == _pair_by_pair_candidates(channel)

    @pytest.mark.parametrize("a,b", [(1.1, 2.0), (0.5, 0.5)])
    def test_batch_and_scalar_rounds_agree_bit_for_bit(self, a, b, monkeypatch):
        # Every round batched, then every round walked one request at a time.
        channel = ChannelParams(a=a, b=b)
        monkeypatch.setattr(bound, "_BATCH_WIDTH", 1)
        batch = _scanned(channel)
        _scalar_only(monkeypatch)
        scalar = _scanned(channel)
        assert batch
        assert [value.hex() for c in batch for value in c] == [
            value.hex() for c in scalar for value in c
        ]

    def test_feasibility_errors_drop_pairs_and_the_first_other_error_in_grid_order_raises(
        self, monkeypatch
    ):
        a2 = A11.a * A11.a
        grid = [
            (rho * a2 * bf, bf) for rho in bound._rho_grid() for bf in bound._bf_grid(1e-3, 1e3, 25)
        ]
        real_steps, real_bound_at = bound._endpoint_steps, bound._bound_at
        full = _scanned(A11)
        # The best pair is refused with a feasibility error: it is dropped.
        best = grid.index((full[0][1] * a2 * full[0][2], full[0][2]))

        def refuse(ep, channel):
            if grid.index((ep.A_f, ep.B_f)) == best:
                raise DegenerateBoundError("refused")
            return real_bound_at(ep, channel)

        monkeypatch.setattr(bound, "_bound_at", refuse)
        assert _scanned(A11) == full[1:]
        monkeypatch.undo()
        # The solves settle in lockstep order, not in grid order.
        settled = []

        def record(key, channel, root_tol):
            ep = yield from real_steps(key, channel, root_tol)
            settled.append(grid.index(key))
            return ep

        monkeypatch.setattr(bound, "_endpoint_steps", record)
        _scanned(A11)
        first_settled = settled[0]
        earlier = next(i for i in settled if i < first_settled)
        # Two pairs fail otherwise, one in its solve and one in its
        # valuation, each way round: the first to settle, and one before it
        # in the grid that settles later.  The scan raises the latter's.
        for in_solve, in_value in ((first_settled, earlier), (earlier, first_settled)):

            def solve(key, channel, root_tol, in_solve=in_solve):
                ep = yield from real_steps(key, channel, root_tol)
                at = grid.index(key)
                if at == in_solve:
                    raise LookupError(f"pair {at}")
                return ep

            def value(ep, channel, in_value=in_value):
                at = grid.index((ep.A_f, ep.B_f))
                if at == in_value:
                    raise LookupError(f"pair {at}")
                return real_bound_at(ep, channel)

            monkeypatch.setattr(bound, "_endpoint_steps", solve)
            monkeypatch.setattr(bound, "_bound_at", value)
            with pytest.raises(LookupError, match=f"pair {earlier}$"):
                _scanned(A11)

    def test_refusals_leave_no_reference_cycle(self):
        # A refused pair's error is kept as its solve's outcome without the
        # driver's frame, so it is freed when dropped.  Left to the cycle
        # collector, such errors and the frames they hold let the peak memory
        # of a process that repeats `code` at k = 4096 grow by about 137 MB
        # a round.
        gc.collect()
        gc.disable()
        try:
            _scanned(A11)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_memory_bound(self):
        # A wave of suspended endpoint solves and the batch walk's slices.
        channel = ChannelParams(a=0.5, b=0.5)
        _scanned(channel)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            _scanned(channel)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


# Explicit pairs (a, b, A_f, B_f) that solve in a few ms: rows of 120
# log-uniform draws in [1e-6, 1e6]^4 (values, DomainErrors and
# DegenerateBoundErrors), a walk that fails below its root in the level walk
# (DepthExceededError), a walk whose root fails (NonFiniteError), a pair
# whose first bracket walk [0.01, 1] takes the level walk, and the optimum
# at (1.1, 2).
_LOG_UNIFORM = 10.0 ** np.random.default_rng(0).uniform(-6.0, 6.0, (120, 4))
EXPLICIT_PAIRS = [
    tuple(_LOG_UNIFORM[i].tolist())
    for i in (3, 7, 17, 26, 56, 57, 89, 108, 111, 116, 2, 5, 21, 29, 39, 78)
] + [
    (1e-6, 1e6, 1e-13, 1.0),
    (1.1, 2.0, 1e-300, 1e300),
    (1.1, 2.0, 0.01, 0.5),
    (1.1, 2.0, PINNED_PAIR.A_f, PINNED_PAIR.B_f),
]


def _solved(call):
    """_hex_fields of what call returns, or the class and message of its error."""
    try:
        result = call()
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome
        return type(exc), str(exc)
    return _hex_fields(result)


class TestSolveEndpoint:
    @pytest.mark.parametrize("a,b,A_f,B_f", EXPLICIT_PAIRS)
    def test_one_driver_is_the_scalar_solve_bit_for_bit(self, a, b, A_f, B_f):
        # The lockstep driver against the endpoint solve with every walk one
        # integrate_adaptive call, for solve_endpoint and theorem_bound.
        channel, pair = ChannelParams(a, b), BoundaryPair(A_f, B_f)

        def scalar():
            steps = _endpoint_steps((A_f, B_f), channel, bound._ROOT_TOL)
            return drive_steps(steps, lambda request: integrate_adaptive(*request))

        assert _solved(lambda: solve_endpoint(pair, channel)) == _solved(scalar)
        assert _solved(lambda: theorem_bound(pair, channel)) == _solved(
            lambda: _bound_at(scalar(), channel)
        )

    def test_every_walk_is_picked_by_integrate_batch(self, monkeypatch):
        # Each integrate_adaptive call of an explicit-pair solve comes from
        # integrate_batch, the one place that picks the walk.  The explicit
        # pairs take both walks and end in every kind of outcome.
        real_adaptive, real_forest = bound.integrate_adaptive, bound._Forest
        callers, forests, outcomes = [], [], set()

        def adaptive(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return real_adaptive(*args)

        def forest(*args):
            forests.append(args)
            return real_forest(*args)

        monkeypatch.setattr(bound, "integrate_adaptive", adaptive)
        monkeypatch.setattr(bound, "_Forest", forest)
        for a, b, A_f, B_f in EXPLICIT_PAIRS:
            outcome = _solved(lambda: theorem_bound(BoundaryPair(A_f, B_f), ChannelParams(a, b)))
            outcomes.add(outcome[0] if isinstance(outcome, tuple) else "value")
        assert callers and set(callers) == {"integrate_batch"}
        assert forests
        assert outcomes == {
            "value", DomainError, DegenerateBoundError, DepthExceededError, NonFiniteError
        }

    def test_refusals_leave_no_reference_cycle(self):
        # A refused pair's error, of the pair rule or of a walk, is freed
        # once the caller drops it, not left to the cycle collector.
        gc.collect()
        gc.disable()
        try:
            for pair in (BoundaryPair(2.0, 1.0), BoundaryPair(1e-8, 1e8)):
                with pytest.raises((DomainError, DepthExceededError)):
                    solve_endpoint(pair, A11)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_interior_solution_pins(self):
        # Frozen endpoint at the all-ones pair for (a, b) = (1.1, 2).
        ep = solve_endpoint(BoundaryPair(A_f=1.0, B_f=1.0), A11)
        assert ep.A0 == pytest.approx(1.1369950758311351, rel=1e-12)
        assert ep.psi == pytest.approx(0.9693980683771525, rel=1e-12)
        assert ep.B0 == pytest.approx(0.992303833318266, rel=1e-12)
        assert ep.phi == 1.0

    def test_residuals_are_tiny(self):
        ep = solve_endpoint(PINNED_PAIR, A11)
        assert abs(ep.residual_first) < 1e-12
        assert abs(ep.residual_second) < 1e-12

    def test_interior_A0_exceeds_terminal(self):
        ep = solve_endpoint(PINNED_PAIR, A11)
        assert ep.A0 > ep.A_f

    def test_overflowing_pair_refused(self):
        # Inside the cone, but A_f B_f overflows, so phi is inf: the solve
        # refuses the pair by name before any integral is taken.
        channel = ChannelParams(a=1e3, b=1.0)
        pair = BoundaryPair(A_f=1e150, B_f=1e160)
        for solve in (solve_endpoint, theorem_bound):
            with pytest.raises(NonFiniteError, match=r"phi=inf .*A_f=1e\+150, B_f=1e\+160"):
                solve(pair, channel)

    @pytest.mark.parametrize(
        "key,root_tol,spec",
        [
            ((PINNED_PAIR.A_f, PINNED_PAIR.B_f), bound._ROOT_TOL, DEFAULT_QUADRATURE),
            # The scan's grid pair at rho = 1/2, B_f = 1.
            ((0.5 * 1.1 * 1.1, 1.0), _SCAN_ROOT_TOL, _SCAN_QUADRATURE),
        ],
        ids=["optimum", "scan"],
    )
    def test_asks_for_no_empty_walk(self, key, root_tol, spec):
        # The bracket's ends and A0 are read from the anchors, with the
        # bits of the solve that answers them.
        requests = []

        def walk(request):
            requests.append(request)
            return integrate_adaptive(*request, spec)

        ep = drive_steps(_endpoint_steps(key, A11, root_tol), walk)
        assert requests and all(lo < hi for _, lo, hi in requests)
        (reference,) = bound._lockstep([_endpoint_steps(key, A11, root_tol)], spec)
        assert {k: v.hex() for k, v in dataclasses.asdict(ep).items()} == {
            k: v.hex() for k, v in dataclasses.asdict(reference).items()
        }

    def test_ratio_above_boundary_rejected(self):
        with pytest.raises(DomainError):
            solve_endpoint(BoundaryPair(A_f=2.0, B_f=1.0), A11)

    def test_bracket_past_its_cap_is_typed(self, monkeypatch):
        # The root of this pair lies near A0 = 1026, past a cap of 100.
        monkeypatch.setattr(bound, "_BRACKET_CAP", 100.0)
        with pytest.raises(BracketOverflowError, match="no sign change") as info:
            solve_endpoint(BoundaryPair(A_f=0.01, B_f=1.0), A11)
        assert info.value.exit_code == EXIT_COLLAPSE


class TestLambdaAndQ1:
    def test_disagreeing_routes_are_typed(self):
        # J perturbed by one part in 1e6 moves the expm1 route only.
        ep = solve_endpoint(PINNED_PAIR, A11)
        bent = dataclasses.replace(ep, i2_value=ep.i2_value * (1.0 + 1e-6))
        with pytest.raises(RouteMismatchError, match="Q1 routes disagree") as info:
            lambda_and_Q1(bent, A11)
        assert info.value.exit_code == EXIT_COLLAPSE


class TestTheoremBound:
    def test_pinned_point(self):
        ev = theorem_bound(PINNED_PAIR, A11)
        assert ev.normalized == pytest.approx(PINNED_NORMALIZED, rel=1e-12)
        assert ev.Q1 == pytest.approx(PINNED_Q1, rel=1e-12)
        assert ev.Q2 == pytest.approx(PINNED_Q2, rel=1e-12)
        assert ev.log_arg == pytest.approx(PINNED_LOG_ARG, rel=1e-12)

    @pytest.mark.parametrize(
        "pair",
        [
            PINNED_PAIR,
            BoundaryPair(A_f=1.0, B_f=1.0),
            BoundaryPair(A_f=0.3, B_f=2.0),
        ],
    )
    def test_matches_independent_derivation(self, pair):
        expected = _independent_bound(pair, A11)
        ev = theorem_bound(pair, A11)
        assert ev.normalized == pytest.approx(expected, rel=1e-9)

    def test_carries_its_endpoint(self):
        # The evaluation's endpoint is the one a fresh solve returns, so no
        # caller needs to solve it again.
        assert theorem_bound(PINNED_PAIR, A11).endpoint == solve_endpoint(PINNED_PAIR, A11)

    def test_energy_decomposition_consistent(self):
        ev = theorem_bound(PINNED_PAIR, A11)
        rate = 0.5 * math.log2(ev.log_arg)
        assert ev.energy_per_bit == pytest.approx((ev.Q1 + ev.Q2) / rate, rel=1e-15)
        assert ev.normalized == pytest.approx(ev.energy_per_bit / TWO_LN2, rel=1e-15)

    def test_boundary_margin_rejected(self):
        B_f = 0.7
        pair = BoundaryPair(A_f=A11.a**2 * B_f * (1.0 - 1e-12), B_f=B_f)
        with pytest.raises(DegenerateBoundError):
            theorem_bound(pair, A11)

    def test_cancellation_floor_rejected(self):
        # Near the boundary at small B_f the energy terms cancel to noise;
        # the evaluation must refuse rather than report a fabricated value.
        ch = ChannelParams(a=1.1, b=0.5)
        B_f = 0.088
        pair = BoundaryPair(A_f=ch.a**2 * B_f * (1.0 - 1e-8), B_f=B_f)
        with pytest.raises(DegenerateBoundError):
            theorem_bound(pair, ch)


class TestOptimizeBound:
    def test_known_argmin(self, optimized_cache):
        ev = optimized_cache(1.1, 2.0)
        assert ev.normalized == pytest.approx(PINNED_NORMALIZED, abs=1e-6)
        assert ev.endpoint.A_f == pytest.approx(PINNED_PAIR.A_f, abs=1e-3)
        assert ev.endpoint.B_f == pytest.approx(PINNED_PAIR.B_f, abs=1e-3)
        # Both entry points return the same record, endpoint included.
        assert theorem_bound(BoundaryPair(ev.endpoint.A_f, ev.endpoint.B_f), A11) == ev

    def test_optimum_beats_coarse_probes(self, optimized_cache):
        ev = optimized_cache(1.1, 2.0)
        a2 = A11.a**2
        for rho in (0.2, 0.5, 0.8):
            for B_f in (0.3, 0.8, 2.0):
                probe = theorem_bound(BoundaryPair(A_f=rho * a2 * B_f, B_f=B_f), A11)
                assert ev.normalized <= probe.normalized + 1e-12

    @pytest.mark.parametrize("sweep", [False, True], ids=["optimize_bound", "sweep_refine"])
    def test_refinement_solves_each_pair_once(self, sweep, monkeypatch):
        # Every full-precision endpoint solve is a distinct pair of its
        # channel, and each optimum is read from them, not solved again.  The
        # scan's solves use their own root tolerance.  The second input
        # refines the sweep's three channels together.
        solved = []
        real = bound._endpoint_steps

        def spy(key, channel, root_tol):
            if root_tol != _SCAN_ROOT_TOL:
                solved.append((channel, *key))
            return real(key, channel, root_tol)

        if sweep:
            problems = [(channel, _starts(channel)) for channel in SWEEP_CHANNELS]
            monkeypatch.setattr(bound, "_endpoint_steps", spy)
            ends, memos = bound._refine(problems)
            monkeypatch.undo()
            assert len(set(solved)) == len(solved)
            assert {channel for channel, _, _ in solved} == set(SWEEP_CHANNELS)
            for (channel, _), ended, memo in zip(problems, ends, memos):
                ev = bound._closing(channel, ended, memo)
                assert (channel, ev.endpoint.A_f, ev.endpoint.B_f) in solved
            return
        monkeypatch.setattr(bound, "_endpoint_steps", spy)
        ev = optimize_bound(A11)
        monkeypatch.undo()
        assert len(set(solved)) == len(solved)
        assert (A11, ev.endpoint.A_f, ev.endpoint.B_f) in solved
        assert ev == theorem_bound(BoundaryPair(ev.endpoint.A_f, ev.endpoint.B_f), A11)
        assert ev.normalized == pytest.approx(PINNED_NORMALIZED, abs=1e-6)
        assert ev.endpoint.A_f == pytest.approx(PINNED_PAIR.A_f, abs=1e-3)
        assert ev.endpoint.B_f == pytest.approx(PINNED_PAIR.B_f, abs=1e-3)

    def test_argmin_strictly_inside_ratio_cone(self, optimized_cache):
        ep = optimized_cache(1.1, 2.0).endpoint
        assert ep.A_f / ep.B_f < A11.a**2


# The benchmark's three sweep channels: b = 0.5, 2.2360679774997902 and 10
# at a = 1.1.
SWEEP_CHANNELS = [ChannelParams(a=1.1, b=b) for b in (0.5, 2.2360679774997902, 10.0)]


def _starts(channel):
    # The refinement's starts: the scan's best three points.
    candidates = _scanned(channel)
    return [[math.log(rho / (1.0 - rho)), math.log(bf)] for _, rho, bf in candidates[:3]]


def _hexed(ends):
    return [[([v.hex() for v in x.tolist()], value.hex()) for x, value in starts] for starts in ends]


class TestLockstepRefinement:
    @pytest.fixture(scope="class")
    def sweep_problems(self):
        return [(channel, _starts(channel)) for channel in SWEEP_CHANNELS]

    def test_batch_and_scalar_rounds_agree_bit_for_bit(self, sweep_problems, monkeypatch):
        monkeypatch.setattr(bound, "_BATCH_WIDTH", 1)
        batch, _ = bound._refine(sweep_problems)
        _scalar_only(monkeypatch)
        scalar, _ = bound._refine(sweep_problems)
        assert _hexed(batch) == _hexed(scalar)

    def test_no_round_without_a_walk(self, sweep_problems, monkeypatch):
        # The driver ends when nothing is pending: neither the scan's waves
        # nor the refinement's steps answer an empty round.
        real = bound.integrate_batch
        sizes = []

        def spy(phi, lo, hi, spec):
            sizes.append(len(lo))
            return real(phi, lo, hi, spec)

        monkeypatch.setattr(bound, "integrate_batch", spy)
        _scanned(A11)
        scanned = len(sizes)
        bound._refine(sweep_problems[1:2])
        assert scanned and len(sizes) > scanned
        assert 0 not in sizes

    def test_start_is_minimize_simplex_over_theorem_bound(self, monkeypatch):
        # The refinement objective written out with theorem_bound, as one
        # start runs alone.
        start = _starts(A11)[0]
        a2 = A11.a * A11.a

        def objective(x):
            key = bound._probe(x, a2)
            if key.__class__ is not tuple:
                return key
            try:
                ev = theorem_bound(BoundaryPair(*key), A11)
            except _FEASIBILITY_ERRORS:
                return bound._PENALTY
            return ev.normalized if math.isfinite(ev.normalized) else bound._PENALTY

        monkeypatch.setattr(bound, "_BATCH_WIDTH", 1)
        ((ours,),), _ = bound._refine([(A11, [start])])
        assert _hexed([[ours]]) == _hexed([[minimize_simplex(objective, start)]])

    def test_sweep_rows_equal_per_channel_optimize_bound(self, optimized_cache):
        rows = run_sweep(1.1, [channel.b for channel in SWEEP_CHANNELS])
        for row, channel in zip(rows, SWEEP_CHANNELS):
            ev = optimized_cache(channel.a, channel.b)
            alone = {
                "rank1": ev.normalized, "A_f": ev.endpoint.A_f, "B_f": ev.endpoint.B_f,
                "A0": ev.endpoint.A0, "psi": ev.endpoint.psi, "lambda": ev.lam,
                "Q1": ev.Q1, "Q2": ev.Q2,
            }
            assert {k: row[k].hex() for k in alone} == {k: v.hex() for k, v in alone.items()}

    def test_pair_in_flight_for_two_starts_is_solved_once(self, monkeypatch):
        # Two equal starts ask for every pair in the same round; each pair is
        # solved once, and both starts end where one start alone ends.
        solved = []
        real = bound._endpoint_steps

        def spy(key, channel, root_tol):
            solved.append(key)
            return real(key, channel, root_tol)

        start = _starts(A11)[0]
        monkeypatch.setattr(bound, "_endpoint_steps", spy)
        alone, _ = bound._refine([(A11, [start])])
        once = list(solved)
        solved.clear()
        twice, _ = bound._refine([(A11, [start, start])])
        assert solved == once
        assert len(set(once)) == len(once)
        assert _hexed(twice) == _hexed([alone[0] * 2])

    def test_lowest_start_error_is_raised(self, monkeypatch):
        # Start 1 fails at its first pair at once, start 0 at its first pair
        # two walks later; the sequential order raises start 0's error.
        candidates = _scanned(A11)
        a2 = A11.a * A11.a
        first = [bound._probe(np.array(start), a2) for start in _starts(A11)]
        raised = []

        def failing(key, channel, root_tol):
            start = first.index(key)
            if start == 1:
                raised.append(start)
                raise LookupError("start 1")
            yield 1.0, 1.0, 2.0
            yield 1.0, 1.0, 2.0
            raised.append(start)
            raise LookupError(f"start {start}")

        monkeypatch.setattr(bound, "_scan", lambda channels, lo, hi: [candidates for _ in channels])
        monkeypatch.setattr(bound, "_endpoint_steps", failing)
        with pytest.raises(LookupError, match="start 0"):
            optimize_bound(A11)
        assert raised == [1, 0, 2]

    def test_channel_errors_come_in_their_turn(self, optimized_cache, monkeypatch):
        # A channel whose scan finds nothing raises when its turn comes, after
        # the channels before it have given their results.
        weak = ChannelParams(a=1.1, b=3.0)
        real = bound._scan

        def weak_finds_nothing(channels, lo, hi):
            return [[] if ch == weak else found for ch, found in zip(channels, real(channels, lo, hi))]

        monkeypatch.setattr(bound, "_scan", weak_finds_nothing)
        evs = optimize_bounds([A11, weak, A11])
        assert next(evs) == optimized_cache(1.1, 2.0)
        with pytest.raises(NoFeasiblePointError, match="every grid point degenerate"):
            next(evs)

    def test_cap_warnings_in_channel_order_after_one_widened_pass(self, monkeypatch):
        # Both channels are made to land on the cap of the first pass (their
        # first-pass optima are moved onto it); they take the widened pass
        # together, and each warning names its own first-pass optimum and
        # points at the line that takes the result.  They share the gain a,
        # so each pass solves the scan's grid endpoints once.
        scans, refined, capped = [], [], []
        real_scan, real_refine, real_closing = bound._scan, bound._refine, bound._closing
        real_steps = bound._endpoint_steps

        def spy_scan(channels, bf_lo, bf_hi):
            scans.append(([channel.b for channel in channels], bf_hi, Counter()))
            return real_scan(channels, bf_lo, bf_hi)

        def spy_steps(key, channel, root_tol):
            if root_tol == _SCAN_ROOT_TOL:
                scans[-1][2][channel.a] += 1
            return real_steps(key, channel, root_tol)

        def spy_refine(problems):
            refined.append([channel.b for channel, _ in problems])
            return real_refine(problems)

        def on_cap(channel, ends, memo):
            ev = real_closing(channel, ends, memo)
            if scans[-1][1] == 1e3:
                B_f = 1e3 + ev.endpoint.B_f
                ev = dataclasses.replace(ev, endpoint=dataclasses.replace(ev.endpoint, B_f=B_f))
                capped.append(ev)
            return ev

        monkeypatch.setattr(bound, "_endpoint_steps", spy_steps)
        monkeypatch.setattr(bound, "_scan", spy_scan)
        monkeypatch.setattr(bound, "_refine", spy_refine)
        monkeypatch.setattr(bound, "_closing", on_cap)
        channels = [ChannelParams(a=1.1, b=3.0), A11]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evs = list(optimize_bounds(channels))
        assert scans == [([3.0, 2.0], 1e3, {1.1: 600}), ([3.0, 2.0], 1e4, {1.1: 600})]
        assert refined == [[3.0, 2.0], [3.0, 2.0]]
        assert len(capped) == len(channels)
        assert [str(w.message) for w in caught] == [
            f"optimum B_f={ev.endpoint.B_f:g} landed on the search cap; widening tenfold"
            for ev in capped
        ]
        assert {w.filename for w in caught} == {__file__}
        # optimize_bound's warning points at its caller.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            line = sys._getframe().f_lineno + 1
            ev = optimize_bound(A11)
        assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]
        assert ev == evs[1]


# Two gains a, interleaved.
MIXED_CHANNELS = [ChannelParams(a=1.1, b=2.0), ChannelParams(a=0.7, b=3.0), ChannelParams(a=1.1, b=10.0)]


def _hex_fields(ev):
    # Every float of an evaluation and of its endpoint, or of an endpoint
    # alone, as float.hex.
    fields = dataclasses.asdict(ev)
    fields.update(fields.pop("endpoint", {}))
    return {name: value.hex() for name, value in fields.items()}


class TestSharedScan:
    def test_each_a_is_scanned_once_per_pass_and_each_channel_is_optimize_bound(
        self, optimized_cache, monkeypatch
    ):
        # Per pass, the channels it searches and each scan endpoint solved,
        # counted by (a, A_f, B_f).
        passes = []
        real_scan, real_steps = bound._scan, bound._endpoint_steps

        def spy_scan(channels, bf_lo, bf_hi):
            passes.append(([channel.a for channel in channels], Counter()))
            return real_scan(channels, bf_lo, bf_hi)

        def spy_steps(key, channel, root_tol):
            if root_tol == _SCAN_ROOT_TOL:
                passes[-1][1][(channel.a, *key)] += 1
            return real_steps(key, channel, root_tol)

        monkeypatch.setattr(bound, "_scan", spy_scan)
        monkeypatch.setattr(bound, "_endpoint_steps", spy_steps)
        evs = list(optimize_bounds(MIXED_CHANNELS))
        monkeypatch.undo()
        assert passes and passes[0][0] == [1.1, 0.7, 1.1]
        for gains, solves in passes:
            assert set(solves.values()) == {1}
            assert Counter(a for a, _, _ in solves) == {a: 24 * 25 for a in gains}
        for ev, channel in zip(evs, MIXED_CHANNELS):
            assert _hex_fields(ev) == _hex_fields(optimized_cache(channel.a, channel.b))

    def test_a_shared_error_is_raised_by_each_channel_of_its_a_in_its_turn(
        self, optimized_cache, monkeypatch
    ):
        # One scan endpoint at a = 1.1 fails with an error that is not a
        # feasibility error.  Both channels of that a raise it, each in its
        # turn and each with the traceback the solve gave it; the channel
        # between them is unaffected.  optimize_bounds ends at the first
        # error, so the channels' turns are taken from their searches.
        a2 = 1.1 * 1.1
        rho, bf = bound._rho_grid()[12], bound._bf_grid(1e-3, 1e3, 25)[12]
        real = bound._endpoint_steps

        def failing(key, channel, root_tol):
            ep = yield from real(key, channel, root_tol)
            if channel.a == 1.1 and key == (rho * a2 * bf, bf):
                raise LookupError("shared")
            return ep

        monkeypatch.setattr(bound, "_endpoint_steps", failing)
        first, middle, third = bound._optimize(MIXED_CHANNELS)
        with pytest.raises(LookupError, match="shared") as raised_first:
            first.result()
        assert _hex_fields(middle.result()) == _hex_fields(optimized_cache(0.7, 3.0))
        with pytest.raises(LookupError, match="shared") as raised_third:
            third.result()
        assert raised_third.value is not raised_first.value
        frames = [
            [(frame.filename, frame.name) for frame in traceback.extract_tb(info.value.__traceback__)]
            for info in (raised_first, raised_third)
        ]
        assert frames[0] == frames[1]
        assert frames[0][-1][1] == "failing"
        with pytest.raises(LookupError, match="shared"):
            next(optimize_bounds(MIXED_CHANNELS))
