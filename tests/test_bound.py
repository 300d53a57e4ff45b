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
import math
import sys
import tracemalloc
import warnings

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

    def test_one_phi_for_all_intervals(self):
        lo = np.geomspace(0.3, 3.0, 9)
        i1, i2, failures = integrate_batch(1.25, lo[:-1], lo[1:])
        assert failures == {}
        for k in range(8):
            assert (i1[k], i2[k]) == integrate_adaptive(1.25, lo[k], lo[k + 1])


def _pair_by_pair_candidates(channel):
    # The scan as a loop of scalar bound evaluations at the scan's
    # tolerances, one per grid pair.
    a2 = channel.a * channel.a
    candidates = []
    for rho in bound._rho_grid():
        for bf in bound._bf_grid(1e-3, 1e3, 25):
            steps = _endpoint_steps(BoundaryPair(rho * a2 * bf, bf), channel, _SCAN_ROOT_TOL)
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
        assert bound._scan(channel, 1e-3, 1e3) == _pair_by_pair_candidates(channel)

    @pytest.mark.parametrize("a,b", [(1.1, 2.0), (0.5, 0.5)])
    def test_batch_and_scalar_rounds_agree_bit_for_bit(self, a, b, monkeypatch):
        # Every round batched, then every round walked one request at a time.
        channel = ChannelParams(a=a, b=b)
        monkeypatch.setattr(bound, "_LOCKSTEP_WIDTH", 1)
        batch = bound._scan(channel, 1e-3, 1e3)
        monkeypatch.setattr(bound, "_LOCKSTEP_WIDTH", sys.maxsize)
        scalar = bound._scan(channel, 1e-3, 1e3)
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
        real = bound._bound_at
        settled = []

        def record(ep, channel):
            settled.append(grid.index((ep.A_f, ep.B_f)))
            return real(ep, channel)

        monkeypatch.setattr(bound, "_bound_at", record)
        full = bound._scan(A11, 1e-3, 1e3)
        # The best pair is refused with a feasibility error: it is dropped.
        best = grid.index((full[0][1] * a2 * full[0][2], full[0][2]))

        def refuse(ep, channel):
            if grid.index((ep.A_f, ep.B_f)) == best:
                raise DegenerateBoundError("refused")
            return real(ep, channel)

        monkeypatch.setattr(bound, "_bound_at", refuse)
        assert bound._scan(A11, 1e-3, 1e3) == full[1:]
        # Two pairs fail otherwise: the first to settle, and one before it
        # in the grid that settles later.  The scan raises the latter's.
        first_settled = settled[0]
        earlier = next(i for i in settled if i < first_settled)
        raised = []

        def fail(ep, channel):
            at = grid.index((ep.A_f, ep.B_f))
            if at in (first_settled, earlier):
                raised.append(at)
                raise LookupError(f"pair {at}")
            return real(ep, channel)

        monkeypatch.setattr(bound, "_bound_at", fail)
        with pytest.raises(LookupError, match=f"pair {earlier}$"):
            bound._scan(A11, 1e-3, 1e3)
        assert raised == [first_settled, earlier]

    def test_memory_bound(self):
        # A wave of suspended endpoint solves and the batch walk's slices.
        channel = ChannelParams(a=0.5, b=0.5)
        bound._scan(channel, 1e-3, 1e3)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            bound._scan(channel, 1e-3, 1e3)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6


class TestSolveEndpoint:
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

        def spy(pair, channel, root_tol):
            if root_tol != _SCAN_ROOT_TOL:
                solved.append((channel, pair.A_f, pair.B_f))
            return real(pair, channel, root_tol)

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
    candidates = bound._scan(channel, 1e-3, 1e3)
    return [[math.log(rho / (1.0 - rho)), math.log(bf)] for _, rho, bf in candidates[:3]]


def _hexed(ends):
    return [[([v.hex() for v in x.tolist()], value.hex()) for x, value in starts] for starts in ends]


class TestLockstepRefinement:
    @pytest.fixture(scope="class")
    def sweep_problems(self):
        return [(channel, _starts(channel)) for channel in SWEEP_CHANNELS]

    def test_batch_and_scalar_rounds_agree_bit_for_bit(self, sweep_problems, monkeypatch):
        monkeypatch.setattr(bound, "_LOCKSTEP_WIDTH", 1)
        batch, _ = bound._refine(sweep_problems)
        monkeypatch.setattr(bound, "_LOCKSTEP_WIDTH", sys.maxsize)
        scalar, _ = bound._refine(sweep_problems)
        assert _hexed(batch) == _hexed(scalar)

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

        monkeypatch.setattr(bound, "_LOCKSTEP_WIDTH", 1)
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

        def spy(pair, channel, root_tol):
            solved.append((pair.A_f, pair.B_f))
            return real(pair, channel, root_tol)

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
        candidates = bound._scan(A11, 1e-3, 1e3)
        a2 = A11.a * A11.a
        first = [bound._probe(np.array(start), a2) for start in _starts(A11)]
        raised = []

        def failing(pair, channel, root_tol):
            start = first.index((pair.A_f, pair.B_f))
            if start == 1:
                raised.append(start)
                raise LookupError("start 1")
            yield 1.0, 1.0, 2.0
            yield 1.0, 1.0, 2.0
            raised.append(start)
            raise LookupError(f"start {start}")

        monkeypatch.setattr(bound, "_scan", lambda channel, lo, hi: candidates)
        monkeypatch.setattr(bound, "_endpoint_steps", failing)
        with pytest.raises(LookupError, match="start 0"):
            optimize_bound(A11)
        assert raised == [1, 0, 2]

    def test_channel_errors_come_in_their_turn(self, optimized_cache, monkeypatch):
        # A channel whose scan finds nothing raises when its turn comes, after
        # the channels before it have given their results.
        weak = ChannelParams(a=1.1, b=3.0)
        real = bound._scan
        monkeypatch.setattr(
            bound, "_scan", lambda channel, lo, hi: [] if channel == weak else real(channel, lo, hi)
        )
        evs = optimize_bounds([A11, weak, A11])
        assert next(evs) == optimized_cache(1.1, 2.0)
        with pytest.raises(NoFeasiblePointError, match="every grid point degenerate"):
            next(evs)

    def test_cap_warnings_in_channel_order_after_one_widened_pass(self, monkeypatch):
        # Both channels are made to land on the cap of the first pass (their
        # first-pass optima are moved onto it); they take the widened pass
        # together, and each warning names its own first-pass optimum and
        # points at the line that takes the result.
        scans, refined, capped = [], [], []
        real_scan, real_refine, real_closing = bound._scan, bound._refine, bound._closing

        def spy_scan(channel, bf_lo, bf_hi):
            scans.append((channel.b, bf_hi))
            return real_scan(channel, bf_lo, bf_hi)

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

        monkeypatch.setattr(bound, "_scan", spy_scan)
        monkeypatch.setattr(bound, "_refine", spy_refine)
        monkeypatch.setattr(bound, "_closing", on_cap)
        channels = [ChannelParams(a=1.1, b=3.0), A11]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            evs = list(optimize_bounds(channels))
        assert scans == [(3.0, 1e3), (2.0, 1e3), (3.0, 1e4), (2.0, 1e4)]
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
