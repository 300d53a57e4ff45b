"""Tests for profile inversion, the barred transform, and identity checks."""
from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from linrelay.bound import (
    BoundaryPair,
    ChannelParams,
    EndpointSolution,
    f_eval,
    lambda_and_Q1,
    solve_endpoint,
    theorem_bound,
)
from linrelay.bound import integrate_adaptive, integrate_batch
from linrelay.errors import DegenerateBoundError, ProfileMismatchError
from linrelay.trajectory import (
    build_trajectory,
    check_identities,
    invert_A_profile,
    reconstruct_barred,
    unbar,
)

A11 = ChannelParams(a=1.1, b=2.0)
PAIR = BoundaryPair(A_f=0.47745726861858833, B_f=0.7594024699528037)


@pytest.fixture(scope="module")
def endpoint():
    return solve_endpoint(PAIR, A11)


@pytest.fixture(scope="module")
def traj(endpoint):
    return build_trajectory(endpoint, A11, n_samples=256)


class TestLambdaAndQ1:
    def test_pinned_values(self, endpoint):
        lam, Q1 = lambda_and_Q1(endpoint, A11)
        assert lam == pytest.approx(1.4294336719912322, rel=1e-12)
        assert Q1 == pytest.approx(0.18382326979694708, rel=1e-12)

    def test_boundary_endpoint_rejected(self):
        # A boundary pair never yields an endpoint, so Q1 = 0 cannot reach
        # lambda_and_Q1 from a solve.
        pair = BoundaryPair(A_f=A11.a**2 * 0.7, B_f=0.7)
        with pytest.raises(DegenerateBoundError):
            solve_endpoint(pair, A11)


class TestInvertAProfile:
    def test_profile_shape(self, endpoint):
        lam, Q1 = lambda_and_Q1(endpoint, A11)
        S, A = invert_A_profile(endpoint, A11, Q1, 64)
        assert S[0] == 0.0
        assert S[-1] == Q1
        assert A[0] == endpoint.A0
        assert A[-1] == endpoint.A_f
        assert np.all(np.diff(A) < 0.0)

    def test_samples_satisfy_defining_integral(self, endpoint):
        # Check one interior sample against the defining relation by QUADPACK
        # quadrature of f^2/(1+w f^2), apart from the package's own walk.
        lam, Q1 = lambda_and_Q1(endpoint, A11)
        S, A = invert_A_profile(endpoint, A11, Q1, 16)
        a2 = A11.a**2
        j = 7

        def integrand(w: float) -> float:
            fw = f_eval(w, endpoint.phi)
            return fw * fw / (1.0 + w * fw * fw)

        lhs = quad(integrand, endpoint.A_f, A[j], epsabs=1e-13, epsrel=1e-13, limit=200)[0]
        rhs = math.log((1.0 + a2 * Q1) / (1.0 + a2 * S[j]))
        assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_inconsistent_Q1_rejected(self, endpoint):
        lam, Q1 = lambda_and_Q1(endpoint, A11)
        with pytest.raises(ProfileMismatchError):
            invert_A_profile(endpoint, A11, 2.0 * Q1, 16)

    def test_input_validation(self, endpoint):
        with pytest.raises(ValueError):
            invert_A_profile(endpoint, A11, -1.0, 16)
        with pytest.raises(ValueError):
            invert_A_profile(endpoint, A11, 0.1, 1)


def _first_failure(call):
    try:
        call()
    except Exception as exc:  # noqa: BLE001 - the failure is the outcome
        return type(exc), str(exc)
    return None


def _loop(phi, lo, hi):
    # The first failure of a loop of scalar walks over the intervals.
    return _first_failure(
        lambda: [integrate_adaptive(phi, l, h) for l, h in zip(lo.tolist(), hi.tolist())]
    )


class TestBatchedWalks:
    # At phi = 1e150 f^2 overflows, and the second integrand is NaN, from
    # about w = 1e-150 to 1e-4; near 1e-160 and above 1 both integrate.
    @pytest.mark.parametrize("order", [[0, 1, 2], [0, 2, 1]], ids=["3e-10 first", "1e-10 first"])
    def test_first_failure_in_index_order(self, order):
        # The batch's lowest failing index holds what a loop of
        # integrate_adaptive calls over the same order raises first.
        phi = 1e150
        lo = np.array([1e-160, 3e-10, 1e-10])[order]
        hi = np.array([2e-160, 5e-10, 2e-10])[order]
        loop = _loop(phi, lo, hi)
        assert loop is not None
        failures = integrate_batch(phi, lo, hi)[2]
        assert sorted(failures) == [1, 2]
        first = failures[min(failures)]
        assert (type(first), str(first)) == loop

    @pytest.mark.parametrize(
        "A", [[5e-10, 3e-10, 1e-10, 1e-160], [2.0, 1.0, 3e-10, 1e-10]],
        ids=["first cell fails", "first cell integrates"],
    )
    # B = f(A) at the samples overflows in numpy scalars on the way.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rebuild_raises_the_first_failing_cell(self, A):
        # reconstruct_barred walks cell j from A[j + 1] up to A[j], so its
        # cells run down in w; both arrays have two or more failing cells.
        endpoint = EndpointSolution(
            phi=1e150, A0=A[0], psi=1.0, B0=f_eval(A[0], 1e150), A_f=A[-1], B_f=1.0,
            i2_value=0.0, residual_first=0.0, residual_second=0.0,
        )
        A = np.array(A)
        loop = _loop(1e150, A[1:], A[:-1])
        assert loop is not None
        assert _first_failure(lambda: reconstruct_barred(1.0 + A, A, endpoint, A11)) == loop

    def test_rebuild_memory_bound(self, endpoint):
        # The benchmark's 4096 samples: the grid itself is about 0.4 MB.
        build_trajectory(endpoint, A11, n_samples=4096)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            build_trajectory(endpoint, A11, n_samples=4096)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


class TestUnbar:
    def test_scalar_transform(self):
        # Hand-computed inverse transform at lam = 2, a = 1.1, b = 2.
        T, R, Z, V = unbar(
            np.array([3.0]), np.array([5.0]), np.array([7.0]), np.array([11.0]),
            2.0, A11,
        )
        assert T[0] == pytest.approx(6.0, rel=1e-15)
        assert R[0] == pytest.approx(22.0, rel=1e-15)
        assert Z[0] == pytest.approx(7.0 / 4.0 - 0.5, rel=1e-15)
        assert V[0] == pytest.approx(11.0 / (1.21 * 4.0) - 1.0 / 2.2, rel=1e-15)

    def test_rejects_nonpositive_lambda(self):
        one = np.array([1.0])
        with pytest.raises(ValueError):
            unbar(one, one, one, one, 0.0, A11)


class TestBuildTrajectory:
    def test_initial_values_match_closed_forms(self, endpoint, traj):
        lam, _ = lambda_and_Q1(endpoint, A11)
        c1 = A11.b * endpoint.psi
        a, b = A11.a, A11.b
        V0 = c1**3 / lam**2 - 1.0 / (a * b)
        Z0 = endpoint.A0**2 * endpoint.B0 / a**2 - a**2 * c1**2 / (b**2 * endpoint.A0)
        assert traj.V[0] == pytest.approx(V0, rel=1e-10)
        assert traj.Z[0] == pytest.approx(Z0, rel=1e-10)

    def test_start_and_terminal_states(self, traj):
        assert abs(traj.T[0]) < 1e-12
        assert abs(traj.R[0]) < 1e-12
        assert abs(traj.Z[-1]) < 1e-10
        assert abs(traj.V[-1]) < 1e-10

    def test_conservation_direct(self, endpoint, traj):
        # Sbar*Vbar - Tbar*Zbar is constant and equals c1^3; recomputed here
        # without going through check_identities.
        c1 = A11.b * endpoint.psi
        invariant = traj.Sbar * traj.Vbar - traj.Tbar * traj.Zbar
        assert np.max(np.abs(invariant - c1**3)) < 1e-10 * c1**3

    def test_relay_energy_identity_direct(self, endpoint, traj):
        # a T(Q1)/(b lam) - R(Q1)/(b^2 lam) equals the relay energy from the
        # closed-form bound.
        lam, _ = lambda_and_Q1(endpoint, A11)
        ev = theorem_bound(PAIR, A11)
        a, b = A11.a, A11.b
        lhs = a * traj.T[-1] / (b * lam) - traj.R[-1] / (b * b * lam)
        assert lhs == pytest.approx(ev.Q2, rel=1e-10)

    def test_log_argument_identity_direct(self, endpoint, traj):
        _, Q1 = lambda_and_Q1(endpoint, A11)
        ev = theorem_bound(PAIR, A11)
        a, b = A11.a, A11.b
        lhs = (
            1.0
            + traj.Z[0]
            + a * a * Q1
            - 2.0 * a * traj.T[-1] / b
            + traj.R[-1] / (b * b)
        )
        assert lhs == pytest.approx(ev.log_arg, rel=1e-10)


class TestCheckIdentities:
    def test_clean_trajectory_passes(self, endpoint, traj):
        checks = check_identities(traj, endpoint, A11)
        # Every check verify prints, in its order.
        assert [c.name for c in checks] == [
            "endpoint_residuals", "conservation", "ab_invariant", "q2_identity",
            "log_identity", "start_zero", "terminal_zero", "z_sign",
        ]
        for check in checks:
            assert check.passed, check.name
        assert checks[1].worst_residual < 1e-10

    def test_corrupted_lambda_is_flagged(self, endpoint, traj):
        lam, _ = lambda_and_Q1(endpoint, A11)
        bad = lam * 1.01
        T, R, Z, V = unbar(traj.Tbar, traj.Rbar, traj.Zbar, traj.Vbar, bad, A11)
        corrupted = dataclasses.replace(traj, T=T, R=R, Z=Z, V=V)
        checks = {c.name: c for c in check_identities(corrupted, endpoint, A11)}
        assert not checks["q2_identity"].passed
        assert not checks["log_identity"].passed
        # Barred-only checks and the endpoint are untouched by the corruption.
        assert checks["conservation"].passed
        assert checks["ab_invariant"].passed
        assert checks["endpoint_residuals"].passed

    def test_endpoint_residual_is_flagged(self, endpoint, traj):
        bad = dataclasses.replace(endpoint, residual_second=-2e-8)
        checks = check_identities(traj, bad, A11)
        assert checks[0].name == "endpoint_residuals"
        assert checks[0].worst_residual == 2e-8
        assert not checks[0].passed
        assert all(c.passed for c in checks[1:])
