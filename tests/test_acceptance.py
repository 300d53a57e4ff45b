"""Ten release acceptance criteria with pinned tolerances.

Each test verifies one released guarantee end to end, records a single
verdict line through the shared criterion recorder (replayed in the terminal
summary), and then asserts the verdict so the suite fails loudly whenever a
guarantee is missed.  The tolerances here are contractual, not exploratory:
loosening one is a release decision, not a test fix.

Criteria 1-3 share one channel grid (a = 1.1, seven relay gains) through the
session caches, so the expensive optimizations are paid once for the whole
suite.  Criteria 4 and 9 are randomized with fixed seeds; their draws are
therefore part of the pinned contract.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from linrelay import cli
from linrelay.baselines import block_markov_bound, cutset_bound
from linrelay.bound import (
    BoundaryPair,
    ChannelParams,
    compute_phi,
    f_eval,
    solve_endpoint,
)
from linrelay.codes import build_code, evaluate_rank1
from linrelay.trajectory import build_trajectory, check_identities

GRID_A = 1.1
GRID_B = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 10.0)


def test_criterion_01_rank1_at_or_below_two_by_two(
    optimized_cache, two_by_two_cache, criterion_recorder
):
    """Optimized rank-1 bound never exceeds the 2x2 bound on the grid."""
    tol = 1e-6
    worst = -math.inf
    for b in GRID_B:
        rank1 = optimized_cache(GRID_A, b).normalized
        two = two_by_two_cache(GRID_A, b)
        worst = max(worst, rank1 - two)
    ok = worst <= tol
    criterion_recorder(
        1,
        "rank-1 <= 2x2 across b grid",
        ok,
        f"worst rank1 - 2x2 = {worst:.3e}, tol {tol:g}",
    )
    assert ok


def test_criterion_02_cutset_under_every_achievable(
    optimized_cache, two_by_two_cache, criterion_recorder
):
    """Cut-set lower bound sits below all three achievable bounds."""
    tol = 1e-9
    worst = -math.inf
    for b in GRID_B:
        channel = ChannelParams(a=GRID_A, b=b)
        cut = cutset_bound(channel)
        achievable = (
            block_markov_bound(channel),
            two_by_two_cache(GRID_A, b),
            optimized_cache(GRID_A, b).normalized,
        )
        worst = max(worst, max(cut - v for v in achievable))
    ok = worst <= tol
    criterion_recorder(
        2,
        "cut-set below achievable bounds",
        ok,
        f"worst cutset - achievable = {worst:.3e}, tol {tol:g}",
    )
    assert ok


def test_criterion_03_linear_relaying_beats_block_markov(
    two_by_two_cache, criterion_recorder
):
    """Some grid point has the 2x2 bound strictly under block-Markov."""
    margin = 1e-4
    best = -math.inf
    for b in GRID_B:
        channel = ChannelParams(a=GRID_A, b=b)
        best = max(best, block_markov_bound(channel) - two_by_two_cache(GRID_A, b))
    ok = best > margin
    criterion_recorder(
        3,
        "2x2 beats block-Markov somewhere",
        ok,
        f"best block-Markov - 2x2 = {best:.3e}, needs > {margin:g}",
    )
    assert ok


def test_criterion_04_endpoint_residuals_on_random_pairs(criterion_recorder):
    """Both integral equations hold at the solved endpoint, 50 random triples.

    The two cumulative integrals are re-evaluated here with QUADPACK, not the
    in-package quadrature, so the residuals probe the solved (A0, psi) rather
    than echoing the solver's own arithmetic.
    """
    tol = 1e-8
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        a = float(np.exp(rng.uniform(np.log(0.4), np.log(2.5))))
        rho = float(rng.uniform(0.05, 0.95))
        B_f = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        pair = BoundaryPair(A_f=rho * a * a * B_f, B_f=B_f)
        channel = ChannelParams(a=a, b=1.0)
        ep = solve_endpoint(pair, channel)
        phi = compute_phi(pair)

        def first(w: float) -> float:
            fw = f_eval(w, phi)
            return fw / (1.0 + w * fw * fw)

        def second(w: float) -> float:
            fw = f_eval(w, phi)
            return fw * fw / (1.0 + w * fw * fw)

        i1, _ = integrate.quad(first, pair.A_f, ep.A0, epsabs=1e-13, epsrel=1e-13, limit=200)
        i2, _ = integrate.quad(second, pair.A_f, ep.A0, epsabs=1e-13, epsrel=1e-13, limit=200)
        rhs1 = ep.A0 / (a * ep.psi) - 1.0 / B_f
        res1 = abs(i1 - rhs1) / max(1.0, abs(i1), abs(rhs1))
        rhs2 = 3.0 * math.log(ep.A0) + math.log(B_f) - 4.0 * math.log(a) - 2.0 * math.log(ep.psi)
        res2 = abs(i2 - rhs2) / max(1.0, abs(i2))
        worst = max(worst, res1, res2)
    ok = worst <= tol
    criterion_recorder(
        4,
        "endpoint integral-equation residuals",
        ok,
        f"worst residual = {worst:.3e}, tol {tol:g}",
    )
    assert ok


def test_criterion_05_trajectory_identities_at_optima(
    optimized_cache, criterion_recorder
):
    """Endpoint residuals, conservation and both energy identities hold at optima."""
    all_pass = True
    worst_ratio = 0.0
    for b in (1.0, 2.0, 5.0):
        channel = ChannelParams(a=GRID_A, b=b)
        ep = optimized_cache(GRID_A, b).endpoint
        traj = build_trajectory(ep, channel, n_samples=512)
        checks = check_identities(traj, ep, channel)
        all_pass = all_pass and all(c.passed for c in checks)
        for check in checks:
            worst_ratio = max(worst_ratio, check.worst_residual / check.tolerance)
    criterion_recorder(
        5,
        "trajectory identities at optima",
        all_pass,
        f"worst residual/tolerance = {worst_ratio:.3e} over b in (1, 2, 5)",
    )
    assert all_pass


def test_criterion_06_finite_code_gap_shrinks(optimized_cache, criterion_recorder):
    """Matrix-formula evaluation of built codes converges to the bound.

    The evaluator only sees (s, D) and the channel; it shares no arithmetic
    with the bound computation, so a shrinking gap certifies both sides.
    The gap must fall at first order, halving with each doubling of k.
    """
    channel = ChannelParams(a=GRID_A, b=2.0)
    evaluation = optimized_cache(GRID_A, 2.0)
    ks = (128, 256, 512, 1024, 2048)
    gaps = []
    for k in ks:
        code = build_code(channel, evaluation.endpoint, k)
        oracle = evaluate_rank1(channel, code.s, code.D)
        gaps.append(
            abs(oracle.energy_per_bit - evaluation.energy_per_bit)
            / evaluation.energy_per_bit
        )
    ratios = [hi / lo for hi, lo in zip(gaps, gaps[1:])]
    ok = all(1.5 <= ratio <= 2.5 for ratio in ratios) and gaps[-1] < 1e-3
    criterion_recorder(
        6,
        "finite-k oracle gap shrinks",
        ok,
        f"gaps {['%.2e' % g for g in gaps]} over k {list(ks)}, "
        f"ratios {['%.4f' % r for r in ratios]} need [1.5, 2.5], final < 1e-3",
    )
    assert ok


def test_criterion_07_euler_first_order(criterion_recorder):
    """The code builder's sequential Euler sweep is first order.

    The exact trajectory ends at Z(Q1) = V(Q1) = 0.  The sweep's terminal
    state Z0 - sum z_i^2 and V0 - sum u_i z_i misses it by its
    discretization error, which must fall like 1/k.  Z0 and V0 are read off
    the reconstructed trajectory, not the builder's closed-form start.
    """
    channel = ChannelParams(a=GRID_A, b=2.0)
    pair = BoundaryPair(A_f=0.47745726861858833, B_f=0.7594024699528037)
    endpoint = solve_endpoint(pair, channel)
    traj = build_trajectory(endpoint, channel, n_samples=512)
    Z0, V0 = float(traj.Z[0]), float(traj.V[0])
    steps = (256, 512, 1024, 2048)
    z_res, v_res = [], []
    for k in steps:
        code = build_code(channel, endpoint, k)
        z_res.append(abs(Z0 - float(np.sum(code.z * code.z))))
        v_res.append(abs(V0 - float(np.sum(code.u * code.z))))
    log_k = np.log(np.array(steps, float))
    slopes = [-float(np.polyfit(log_k, np.log(res), 1)[0]) for res in (z_res, v_res)]
    ok = all(0.8 <= slope <= 1.2 for slope in slopes)
    criterion_recorder(
        7,
        "code builder's Euler sweep is first order",
        ok,
        f"log-log slopes Z(Q1) = {slopes[0]:.4f}, V(Q1) = {slopes[1]:.4f}, "
        "need [0.8, 1.2]",
    )
    assert ok


def test_criterion_08_closed_form_baselines(criterion_recorder):
    """Baseline closed forms match direct arithmetic to 1e-12."""
    tol = 1e-12
    bm = block_markov_bound(ChannelParams(a=1.1, b=1.0))
    bm_expected = (1.1**2 + 1.0) / (1.1**2 * 2.0)
    cut = cutset_bound(ChannelParams(a=1.0, b=1.0))
    cut_expected = 3.0 / 4.0
    worst = max(abs(bm - bm_expected), abs(cut - cut_expected))
    ok = worst <= tol
    criterion_recorder(
        8,
        "closed-form baselines exact",
        ok,
        f"worst deviation = {worst:.3e}, tol {tol:g}",
    )
    assert ok


def test_criterion_09_f_satisfies_conserved_relation(criterion_recorder):
    """f(w) satisfies w*B + 1/w - 1/B = phi across 12 decades of w."""
    tol = 1e-10
    rng = np.random.default_rng(1000)
    worst = 0.0
    for _ in range(1000):
        w = float(np.exp(rng.uniform(np.log(1e-8), np.log(1e6))))
        phi = float(rng.uniform(-100.0, 100.0))
        B = f_eval(w, phi)
        residual = w * B + 1.0 / w - 1.0 / B - phi
        scale = max(1.0, w * B, 1.0 / w, 1.0 / B, abs(phi))
        worst = max(worst, abs(residual) / scale)
    ok = worst <= tol
    criterion_recorder(
        9,
        "f root identity over (w, phi)",
        ok,
        f"worst scaled residual = {worst:.3e}, tol {tol:g}",
    )
    assert ok


def test_criterion_10_sweep_is_deterministic(tmp_path, criterion_recorder):
    """Two identical sweep invocations produce byte-identical files."""
    outputs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        rc = cli.main(
            [
                "sweep",
                "--a", "1.1",
                "--b-min", "2.0",
                "--b-max", "5.0",
                "--n-points", "2",
                "--out", str(out),
            ]
        )
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    criterion_recorder(
        10,
        "sweep output is deterministic",
        ok,
        f"{len(outputs[0])} bytes, byte-identical = {ok}",
    )
    assert ok
