"""Unit tests for the root and simplex kernels.

scipy's brentq is the oracle of the Brent port: the port must probe the
same points in the same order and return the same root, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from linrelay.bound import _FEASIBILITY_ERRORS
from linrelay.errors import (
    EXIT_COLLAPSE,
    NoBracketError,
    NonFiniteError,
    RootNotConvergedError,
)
from linrelay.numerics import find_root_bracketed, minimize_simplex

# Families of bracketed functions, each with its root parameter c in (0, 1):
# smooth, flat, steep, nearly discontinuous and underflowing (where the
# product of the end values is 0 but their signs differ).
_FAMILIES = {
    "cubic": lambda c: lambda x: x**3 - c**3,
    "cosine": lambda c: lambda x: math.cos(x) - math.cos(c),
    "exp": lambda c: lambda x: math.expm1(x) - math.expm1(c),
    "atan": lambda c: lambda x: math.atan(50.0 * (x - c)) + 1e-3 * (x - c) ** 3,
    "tanh": lambda c: lambda x: math.tanh(1e3 * (x - c)),
    "tiny": lambda c: lambda x: 1e-200 * (x - c) * (1.0 + (x - c) ** 2),
}
_RTOLS = {"1e-13": 1e-13, "1e-9": 1e-9, "4ulp": 4.0 * np.finfo(float).eps}


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

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_bad_tol(self, tol):
        with pytest.raises(ValueError):
            find_root_bracketed(math.cos, 1.0, 2.0, tol=tol)

    @given(root=st.floats(0.1, 0.9))
    @settings(max_examples=25, deadline=None)
    def test_recovers_planted_cubic_root(self, root):
        g = lambda x: (x - root) * (1.0 + (x - root) ** 2)
        found = find_root_bracketed(g, 0.0, 1.0)
        assert found == pytest.approx(root, abs=1e-12)


class TestBrentPort:
    @pytest.mark.parametrize("rtol", list(_RTOLS.values()), ids=list(_RTOLS))
    @pytest.mark.parametrize("family", list(_FAMILIES.values()), ids=list(_FAMILIES))
    def test_same_probes_and_root_as_scipy(self, family, rtol):
        rng = np.random.default_rng(7)
        for c, hi in zip(rng.uniform(0.05, 0.95, 12), rng.uniform(1.0, 3.0, 12)):
            g = family(float(c))
            probes = {"port": [], "scipy": []}

            def recorded(side):
                def call(x):
                    probes[side].append(x)
                    return g(x)

                return call

            ours = find_root_bracketed(recorded("port"), 0.0, float(hi), tol=rtol)
            theirs = brentq(recorded("scipy"), 0.0, float(hi), xtol=1e-300, rtol=rtol)
            assert float(ours).hex() == float(theirs).hex()
            assert [float(x).hex() for x in probes["port"]] == [
                float(x).hex() for x in probes["scipy"]
            ]

    def test_iteration_cap_is_a_typed_collapse(self):
        # A sign jump at 0 with xtol=1e-300: bisection would need about a
        # thousand halvings, more than the 100 iterations allowed.
        with pytest.raises(RootNotConvergedError):
            find_root_bracketed(lambda x: 1.0 if x > 0 else -1.0, -1.0, 1.0)
        assert RootNotConvergedError.exit_code == EXIT_COLLAPSE
        # A pair whose root search runs out is a fault, not an infeasible
        # scan point.
        assert not issubclass(RootNotConvergedError, _FEASIBILITY_ERRORS)

    @pytest.mark.parametrize("nan_call", [0, 1, 2], ids=["lo", "hi", "interior"])
    def test_nan_value_is_non_finite(self, nan_call):
        calls = []

        def g(x):
            calls.append(x)
            return math.nan if len(calls) == nan_call + 1 else x - 0.3

        with pytest.raises(NonFiniteError):
            find_root_bracketed(g, -1.0, 1.0)


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
