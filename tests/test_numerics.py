"""Unit tests for the quadrature, root, and simplex kernels."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrelay.errors import DepthExceededError, NoBracketError, NonFiniteError
from linrelay.numerics import (
    DEFAULT_QUADRATURE,
    QuadratureSpec,
    find_root_bracketed,
    integrate_adaptive,
    minimize_simplex,
)


class TestQuadratureSpec:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.abs_tol == 1e-12
        assert spec.rel_tol == 1e-12
        assert spec.max_depth == 60

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abs_tol": 0.0},
            {"rel_tol": -1e-9},
            {"max_depth": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)


class TestIntegrateAdaptive:
    def test_cubic_is_exact(self):
        # Simpson integrates cubics exactly; no refinement needed.
        value = integrate_adaptive(lambda x: x**3 - 2.0 * x, 0.0, 2.0)
        assert value == pytest.approx(0.0, abs=1e-14)

    def test_sine_over_half_period(self):
        value = integrate_adaptive(math.sin, 0.0, math.pi)
        assert value == pytest.approx(2.0, abs=1e-12)

    def test_exponential(self):
        value = integrate_adaptive(math.exp, 0.0, 1.0)
        assert value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_empty_interval_is_zero(self):
        assert integrate_adaptive(math.exp, 1.5, 1.5) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(ValueError):
            integrate_adaptive(math.exp, 1.0, 0.0)

    def test_non_finite_integrand(self):
        f = lambda x: 1.0 / x if x != 0.0 else math.inf
        with pytest.raises(NonFiniteError):
            integrate_adaptive(f, -1.0, 1.0)

    def test_depth_cap_raises(self):
        # An interior near-singularity cannot meet 1e-12 in three splits.
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12, max_depth=3)
        with pytest.raises(DepthExceededError):
            integrate_adaptive(lambda x: abs(x - 0.3) ** -0.5, 0.0, 1.0, spec)

    @given(
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(-2.0, 2.0),
        hi=st.floats(0.1, 3.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_quadratics_match_antiderivative(self, a, b, c, hi):
        value = integrate_adaptive(lambda x: a * x * x + b * x + c, 0.0, hi)
        exact = a * hi**3 / 3.0 + b * hi**2 / 2.0 + c * hi
        assert value == pytest.approx(exact, abs=1e-10)

    @given(split=st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_interval_additivity(self, split):
        f = lambda x: math.exp(-x) * math.cos(3.0 * x)
        whole = integrate_adaptive(f, 0.0, 1.0)
        parts = integrate_adaptive(f, 0.0, split) + integrate_adaptive(f, split, 1.0)
        assert whole == pytest.approx(parts, abs=1e-11)


class TestFindRootBracketed:
    def test_cosine_root(self):
        root = find_root_bracketed(math.cos, 1.0, 2.0)
        assert root == pytest.approx(math.pi / 2.0, rel=1e-13)

    def test_exact_endpoint_zero(self):
        assert find_root_bracketed(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert find_root_bracketed(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_no_bracket(self):
        with pytest.raises(NoBracketError):
            find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            find_root_bracketed(math.cos, 1.0, 2.0, tol=0.0)

    @given(root=st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_recovers_planted_cubic_root(self, root):
        g = lambda x: (x - root) * (1.0 + (x - root) ** 2)
        found = find_root_bracketed(g, 0.0, 1.0)
        assert found == pytest.approx(root, abs=1e-12)


class TestMinimizeSimplex:
    def test_quadratic_bowl(self):
        point, value = minimize_simplex(
            lambda x: (x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2, [0.0, 0.0]
        )
        assert point[0] == pytest.approx(2.0, abs=1e-5)
        assert point[1] == pytest.approx(-1.0, abs=1e-5)
        assert value < 1e-9

    def test_never_worse_than_start(self):
        f = lambda x: math.cos(x[0]) + 0.1 * x[0] ** 2
        _, value = minimize_simplex(f, [0.3])
        assert value <= f(np.array([0.3]))

    def test_non_finite_objective(self):
        with pytest.raises(NonFiniteError):
            minimize_simplex(lambda x: math.inf, [0.0])

    def test_bad_start(self):
        with pytest.raises(ValueError):
            minimize_simplex(lambda x: 0.0, [])
