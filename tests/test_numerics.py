"""Unit tests for the root and simplex kernels."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linrelay.errors import NoBracketError, NonFiniteError
from linrelay.numerics import find_root_bracketed, minimize_simplex


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
