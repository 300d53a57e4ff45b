"""Unit tests for the root and simplex kernels.

scipy's brentq is the oracle of the Brent port, and scipy's Nelder-Mead
(minimize with method="Nelder-Mead") the oracle of the simplex port: each
port must probe the same points in the same order and return the same
result, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq, minimize

from linrelay.bound import _FEASIBILITY_ERRORS, _PENALTY
from linrelay.errors import (
    EXIT_COLLAPSE,
    NoBracketError,
    NonFiniteError,
    RootNotConvergedError,
)
from linrelay.numerics import drive_steps, find_root_bracketed, minimize_simplex, simplex_steps

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

    def test_nan_objective(self):
        # NaN after a few finite probes, as at the start.
        probes = []

        def f(x):
            probes.append(x)
            return math.nan if len(probes) > 4 else float(x @ x)

        with pytest.raises(NonFiniteError, match="nan"):
            minimize_simplex(f, [0.3, 0.2])
        with pytest.raises(NonFiniteError, match="nan"):
            minimize_simplex(lambda x: math.nan, [0.3, 0.2])

    def test_bad_start(self):
        with pytest.raises(ValueError):
            minimize_simplex(lambda x: 0.0, [])


def _scipy_simplex(f, start):
    # scipy's Nelder-Mead with the package's settings: probes and result.
    x0 = np.asarray(start, dtype=float)
    probes = []

    def recorded(x):
        probes.append(x.copy())
        return f(x)

    res = minimize(
        recorded,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": np.vstack([x0] + [x0 + 0.25 * e for e in np.eye(x0.size)]),
            "maxiter": 2000,
            "fatol": 1e-10,
            "xatol": 1e-7,
        },
    )
    return probes, res


def _hexed(points):
    return [[v.hex() for v in np.asarray(p, dtype=float).tolist()] for p in points]


def _boxed(x):
    # A bowl inside a box, _PENALTY outside it: the refinement's plateau.
    if x[0] > 0.3 or x[1] > 0.2:
        return _PENALTY
    return (x[0] - 0.1) ** 2 + (x[1] - 0.05) ** 2


def _pinhole(x):
    # 0 at the start alone, 1 elsewhere: every reflection and contraction
    # ties the worst vertex, so the simplex shrinks again and again.
    return 0.0 if x[0] == 0.0 and x[1] == 0.0 else 1.0


# (objective, start) pairs in 2-D and 3-D.
_SIMPLEX_FAMILIES = {
    "bowl-2d": (lambda x: (x[0] - 2.0) ** 2 + (x[1] + 1.0) ** 2, [0.0, 0.0]),
    "rosenbrock-2d": (lambda x: 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2, [-1.2, 1.0]),
    "rosenbrock-3d": (
        lambda x: sum(100.0 * (x[i + 1] - x[i] ** 2) ** 2 + (1.0 - x[i]) ** 2 for i in range(2)),
        [-1.0, 0.5, 0.3],
    ),
    "bowl-3d": (lambda x: float(np.sum((x - np.array([0.3, -0.7, 1.9])) ** 2)), [0.0, 0.0, 0.0]),
    "penalty-plateau": (_boxed, [0.2, 0.0]),
    "shrink": (_pinhole, [0.0, 0.0]),
    # Flattens toward x0 -> -inf: the simplex runs on to the iteration cap.
    "iteration-cap": (lambda x: math.atan(x[0]) + x[1] ** 2, [0.0, 0.3]),
}


def _random_objective(seed):
    # A seeded 2-D or 3-D objective and start: a bowl, a bowl rounded to
    # plateaus of 0.1, or a bowl in a box with _PENALTY outside it, the last
    # two full of tied vertices.
    rng = np.random.default_rng(seed)
    n = 2 + seed % 2
    center = rng.uniform(-1.0, 1.0, n)
    weight = 10.0 ** rng.uniform(-1.0, 1.0, n)
    half = rng.uniform(0.1, 0.6, n)
    start = rng.uniform(-1.0, 1.0, n).tolist()

    def bowl(x):
        return float(np.sum(weight * (x - center) ** 2))

    kind = seed // 2 % 3
    if kind == 0:
        return bowl, start
    if kind == 1:
        return (lambda x: round(bowl(x), 1)), start
    return (lambda x: _PENALTY if np.any(np.abs(x - center) > half) else bowl(x)), start


class TestSimplexSteps:
    def test_random_objectives_probe_as_scipy(self):
        # 100 seeded bowls, rounded plateaus and penalty boxes in 2-D and
        # 3-D: every probe and the result are scipy's, bit for bit, ties
        # among three and four vertices included.
        tied = {2: 0, 3: 0}
        for seed in range(100):
            f, start = _random_objective(seed)
            theirs, res = _scipy_simplex(f, start)
            ours = []

            def recorded(x):
                ours.append(x.copy())
                return f(x)

            x, value = drive_steps(simplex_steps(start), recorded)
            assert _hexed(ours) == _hexed(theirs), seed
            assert _hexed([x]) == _hexed([res.x]), seed
            assert value.hex() == float(res.fun).hex(), seed
            values = [f(p) for p in ours]
            tied[len(start)] += len(set(values)) < len(values)
        assert min(tied.values()) >= 20

    @pytest.mark.parametrize("family", sorted(_SIMPLEX_FAMILIES))
    def test_same_probes_and_result_as_scipy(self, family):
        f, start = _SIMPLEX_FAMILIES[family]
        theirs, res = _scipy_simplex(f, start)
        ours = []

        def recorded(x):
            ours.append(x.copy())
            return f(x)

        x, value = drive_steps(simplex_steps(start), recorded)
        assert _hexed(ours) == _hexed(theirs)
        assert _hexed([x]) == _hexed([res.x])
        assert value.hex() == float(res.fun).hex()
        assert minimize_simplex(f, start)[1].hex() == value.hex()

    def test_families_reach_the_edge_cases(self):
        # The scipy runs above include ties on the penalty plateau, a
        # shrink, and a run to the 2,000-iteration cap.
        probes, res = _scipy_simplex(*_SIMPLEX_FAMILIES["penalty-plateau"])
        assert [_boxed(p) for p in probes[:3]].count(_PENALTY) == 2
        _, res = _scipy_simplex(*_SIMPLEX_FAMILIES["shrink"])
        # Iterations without a shrink probe once or twice.
        assert res.nfev > 3 + 2 * (res.nit - 1)
        _, res = _scipy_simplex(*_SIMPLEX_FAMILIES["iteration-cap"])
        assert (res.status, res.nit) == (2, 2000)

    def test_probes_are_fresh_arrays(self):
        steps = simplex_steps([0.0, 0.0])
        first = next(steps)
        first[:] = 99.0
        second = steps.send(1.0)
        assert second.tolist() == [0.25, 0.0]
