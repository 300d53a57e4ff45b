"""Tests for code construction, the matrix oracle, and the exchange format."""
from __future__ import annotations

import io
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from linrelay.bound import (
    BoundaryPair,
    ChannelParams,
    lambda_and_Q1,
    solve_endpoint,
    theorem_bound,
)
from linrelay._g17 import G17Lines
from linrelay.codes import (
    DEFAULT_K_CAP,
    RelayCode,
    _sum_squares,
    build_code,
    evaluate_rank1,
    export_code,
    parse_code,
)
from linrelay.errors import EXIT_COLLAPSE, DenominatorCollapseError, FactorizationFailureError
from linrelay.trajectory import build_trajectory

A11 = ChannelParams(a=1.1, b=2.0)
PAIR = BoundaryPair(A_f=0.47745726861858833, B_f=0.7594024699528037)


@pytest.fixture(scope="module")
def endpoint():
    return solve_endpoint(PAIR, A11)


def _export(code, channel) -> str:
    buf = io.StringIO()
    export_code(code, channel, buf)
    return buf.getvalue()


def _export_reference(code, channel) -> str:
    # export_code as it was written with Python's "%" operator, one row at a
    # time; the numpy text must reproduce it byte for byte.
    fmt = "%.17g"
    q1 = code.k * code.delta
    out = [f"{code.k} {fmt % channel.a} {fmt % channel.b} {fmt % code.lam} {fmt % q1}\n"]
    row_fmt = " ".join([fmt] * code.k)
    out.append(row_fmt % tuple(code.s.tolist()) + "\n")
    for i in range(1, code.k):
        out.append(row_fmt[: 6 * i - 1] % tuple(code.D[i, :i].tolist()) + "\n")
    return "".join(out)


def _g17_lines(lines, size) -> str:
    """The text G17Lines writes for the given lines, in chunks of size."""
    buf = io.StringIO()
    writer = G17Lines(buf, size)
    for line in lines:
        writer.write(np.asarray(line, dtype=float))
    writer.flush()
    return buf.getvalue()


def _g17_reference(lines) -> str:
    return "".join(" ".join("%.17g" % x for x in line) + "\n" for line in lines)


def _assert_same_text(got: str, want: str) -> None:
    # Names the first differing fields; pytest's diff of megabytes of text
    # would take minutes.
    if got != want:
        fields = [(g, w) for g, w in zip(got.split(), want.split()) if g != w]
        pytest.fail(f"{len(got)} vs {len(want)} characters, first differences {fields[:5]}")


def _energy_longhand(channel, s, D) -> float:
    # evaluate_rank1's formula with M assembled out of place and copied
    # into LAPACK's layout; the in-place oracle must reproduce its bits.
    k = s.shape[0]
    a, b = channel.a, channel.b
    Ds = D @ s
    numerator = float(s @ s) + a * a * float(Ds @ Ds) + float(np.sum(D * D))
    M = np.eye(k) + (b * b) * (D @ D.T)
    v = s + a * b * Ds
    quad = float(v @ cho_solve(cho_factor(M, lower=True), v))
    return numerator / (0.5 * math.log1p(quad) / math.log(2.0))


def _traced_peak(fn) -> int:
    """Bytes allocated by fn at its peak, as numpy reports them to tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestEvaluateRank1:
    def test_relay_off_closed_form(self):
        # With D = 0 and unit s: numerator 1, rate 0.5 log2(2) = 0.5,
        # energy 2, normalized 1/ln 2.
        out = evaluate_rank1(A11, np.array([1.0]), np.zeros((1, 1)))
        numerator = 1.0
        bits = 0.5 * math.log2(2.0)
        assert out.energy_per_bit == pytest.approx(numerator / bits, rel=1e-14)
        assert out.normalized == pytest.approx(1.0 / math.log(2.0), rel=1e-14)

    def test_two_dim_longhand(self):
        # Full expansion of the 2x2 case: M is diagonal, so every quantity
        # has a short closed form to compare against.
        a, b = A11.a, A11.b
        s1, s2, d = 0.8, 0.6, 0.3
        s = np.array([s1, s2])
        D = np.array([[0.0, 0.0], [d, 0.0]])
        out = evaluate_rank1(A11, s, D)
        numerator = s1 * s1 + s2 * s2 + a * a * d * d * s1 * s1 + d * d
        quad = s1 * s1 + (s2 + a * b * d * s1) ** 2 / (1.0 + b * b * d * d)
        bits = 0.5 * math.log2(1.0 + quad)
        assert out.energy_per_bit == pytest.approx(numerator / bits, rel=1e-13)

    def test_matches_dense_solve(self):
        # The Cholesky path must agree with a plain dense solve.
        rng = np.random.default_rng(7)
        k = 6
        D = np.tril(rng.normal(size=(k, k)), k=-1)
        s = rng.normal(size=k)
        a, b = A11.a, A11.b
        v = s + a * b * (D @ s)
        M = np.eye(k) + b * b * (D @ D.T)
        quad = float(v @ np.linalg.solve(M, v))
        bits = 0.5 * math.log1p(quad) / math.log(2.0)
        numerator = float(s @ s) + a * a * float((D @ s) @ (D @ s)) + float(np.sum(D * D))
        out = evaluate_rank1(A11, s, D)
        assert out.energy_per_bit == pytest.approx(numerator / bits, rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3, 64, 257])
    def test_bits_match_out_of_place_formula(self, k):
        # b^2 is not a power of two, so a reordered scaling of M changes
        # bits; a small s keeps log1p(quad) near quad, so a last-bit change
        # of quad reaches the energy instead of rounding away.
        channel = ChannelParams(a=0.9, b=1.7)
        rng = np.random.default_rng(k)
        D = np.tril(rng.normal(size=(k, k)), k=-1)
        s = 1e-8 * rng.normal(size=k)
        out = evaluate_rank1(channel, s, D)
        assert out.energy_per_bit.hex() == _energy_longhand(channel, s, D).hex()

    def test_bits_match_out_of_place_formula_on_built_code(self, endpoint):
        code = build_code(A11, endpoint, 257)
        out = evaluate_rank1(A11, code.s, code.D)
        assert out.energy_per_bit.hex() == _energy_longhand(A11, code.s, code.D).hex()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            evaluate_rank1(A11, np.ones(3), np.zeros((2, 2)))

    @pytest.mark.parametrize(
        "D",
        [
            pytest.param(np.array([[0.0, 0.5], [0.0, 0.0]]), id="upper"),
            pytest.param(np.array([[0.5, 0.0], [0.0, 0.0]]), id="diagonal"),
            pytest.param(np.array([[0.0, 0.0], [0.0, -0.5]]), id="last-diagonal"),
        ],
    )
    def test_non_lower_triangular_rejected(self, D):
        with pytest.raises(ValueError):
            evaluate_rank1(A11, np.ones(2), D)

    def test_zero_source_rejected(self):
        with pytest.raises(ValueError):
            evaluate_rank1(A11, np.zeros(2), np.zeros((2, 2)))

    def test_singular_matrix_is_factorization_failure(self):
        # Rows 1 and 2 of b^2 D D^T are both 4e18 throughout, whose ulp is
        # 512, so adding I changes nothing there and M is singular in floats.
        D = np.zeros((3, 3))
        D[1, 0] = D[2, 0] = 1e9
        with pytest.raises(FactorizationFailureError, match="not positive definite"):
            evaluate_rank1(A11, np.ones(3), D)

    @pytest.mark.parametrize("k", [1, 2, 7, 256, 257, 1000, 1536, 3000])
    def test_chunked_sum_of_squares_matches_np_sum(self, k):
        # Entries spread over twelve decades, so any other summation order
        # shows in the last bits.
        rng = np.random.default_rng(k)
        D = np.tril(rng.normal(size=(k, k)) * 10.0 ** rng.uniform(-6, 6, (k, k)), k=-1)
        assert _sum_squares(D.ravel()).hex() == float(np.sum(D * D)).hex()

    @pytest.mark.parametrize("k", [513, 1100, 1600])
    def test_blocked_gram_ties_out_of_place_formula(self, k):
        # Beyond one block of 512 rows the sums of D D^T split differently,
        # so only the last bits may differ from the out-of-place M.
        channel = ChannelParams(a=0.9, b=1.7)
        rng = np.random.default_rng(k)
        D = np.tril(rng.normal(size=(k, k)), k=-1)
        s = 1e-8 * rng.normal(size=k)
        out = evaluate_rank1(channel, s, D)
        assert out.energy_per_bit == pytest.approx(_energy_longhand(channel, s, D), rel=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        ("value", "match"),
        [
            pytest.param(np.inf, "entries of D must be finite", id="inf"),
            pytest.param(np.nan, "entries of D must be finite", id="nan"),
            pytest.param(1e200, "numerator .* overflows", id="1e200"),
        ],
    )
    def test_non_finite_or_overflowing_D_rejected_without_warnings(self, value, match):
        D = np.zeros((4, 4))
        D[2, 1] = value
        with pytest.raises(ValueError, match=match):
            evaluate_rank1(A11, np.ones(4), D)

    @pytest.mark.filterwarnings("error")
    def test_non_finite_source_rejected_without_warnings(self):
        with pytest.raises(ValueError, match="entries of s must be finite"):
            evaluate_rank1(A11, np.array([1.0, np.nan]), np.zeros((2, 2)))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gram_rejected_without_warnings(self):
        # ||D||^2 = 1e300 is finite, b^2 times it is not.
        D = np.zeros((3, 3))
        D[2, 0] = 1e150
        with pytest.raises(ValueError, match=r"I \+ b\^2 D D\^T overflows"):
            evaluate_rank1(ChannelParams(a=1.1, b=1e10), np.full(3, 1e-160), D)


def _assert_restored(D, before):
    """D equals its copy taken before the call, with +0.0 on and above the diagonal."""
    assert np.array_equal(D, before)
    assert not np.triu(D).view(np.int64).any()


class TestWorkspace:
    # evaluate_rank1 builds M in the caller's D and restores it; k = 600
    # spans two row blocks.
    @pytest.mark.parametrize("k", [3, 600])
    def test_D_restored_after_success(self, k):
        rng = np.random.default_rng(k)
        D = np.tril(rng.normal(size=(k, k)), k=-1)
        before = D.copy()
        evaluate_rank1(A11, rng.normal(size=k), D)
        _assert_restored(D, before)

    @pytest.mark.parametrize("k", [3, 600])
    def test_D_restored_after_factorization_failure(self, k):
        # As in test_singular_matrix_is_factorization_failure: M's rows 1
        # and 2 are equal in floats.
        D = np.zeros((k, k))
        D[1, 0] = D[2, 0] = 1e9
        before = D.copy()
        with pytest.raises(FactorizationFailureError):
            evaluate_rank1(A11, np.ones(k), D)
        _assert_restored(D, before)

    @pytest.mark.parametrize("k", [3, 600])
    def test_D_restored_after_gram_overflow(self, k):
        D = np.zeros((k, k))
        D[k - 1, 0] = 1e150
        before = D.copy()
        with pytest.raises(ValueError, match="overflows"):
            evaluate_rank1(ChannelParams(a=1.1, b=1e10), np.full(k, 1e-160), D)
        _assert_restored(D, before)

    @pytest.mark.parametrize(
        ("value", "s"),
        [
            pytest.param(np.inf, 1.0, id="inf"),
            pytest.param(np.nan, 1.0, id="nan"),
            pytest.param(1e200, 1.0, id="1e200"),
            pytest.param(0.5, np.nan, id="nan-source"),
        ],
    )
    def test_D_unchanged_after_value_errors(self, value, s):
        D = np.zeros((4, 4))
        D[2, 1] = value
        before = D.copy()
        with pytest.raises(ValueError):
            evaluate_rank1(A11, np.full(4, s), D)
        assert np.array_equal(D, before, equal_nan=True)
        assert not np.triu(D).view(np.int64).any()

    @pytest.mark.parametrize("k", [5, 600])
    def test_read_only_D_evaluates_unwritten(self, k):
        rng = np.random.default_rng(k)
        D = np.tril(rng.normal(size=(k, k)), k=-1)
        s = rng.normal(size=k)
        want = evaluate_rank1(A11, s, D).energy_per_bit
        before = D.copy()
        D.flags.writeable = False
        assert evaluate_rank1(A11, s, D).energy_per_bit.hex() == want.hex()
        _assert_restored(D, before)

    @pytest.mark.parametrize("k", [5, 600])
    def test_fortran_D_evaluates_unwritten(self, k):
        rng = np.random.default_rng(k)
        D = np.tril(rng.normal(size=(k, k)), k=-1)
        s = rng.normal(size=k)
        want = evaluate_rank1(A11, s, D).energy_per_bit
        F = np.asfortranarray(D)
        before = F.copy(order="F")
        assert evaluate_rank1(A11, s, F).energy_per_bit.hex() == want.hex()
        assert F.flags.f_contiguous
        _assert_restored(F, before)


class TestBuildCode:
    def test_shapes_and_step(self, endpoint):
        _, Q1 = lambda_and_Q1(endpoint, A11)
        code = build_code(A11, endpoint, 48)
        assert code.k == 48
        assert code.delta == pytest.approx(Q1 / 48.0, rel=1e-15)
        assert code.s.shape == (48,)
        assert np.all(code.s == math.sqrt(code.delta))
        assert code.D.shape == (48, 48)
        assert np.all(np.triu(code.D) == 0.0)

    def test_aux_sequence_identities(self, endpoint):
        # D s recovers u and D r recovers z - s exactly (the defining
        # algebra of the matrix entries), up to summation roundoff.
        code = build_code(A11, endpoint, 48)
        assert np.allclose(code.D @ code.s, code.u, rtol=0.0, atol=1e-12)
        assert np.allclose(code.D @ code.r, code.z - code.s, rtol=0.0, atol=1e-12)

    def test_collapsed_denominator_is_typed(self, endpoint):
        # lambda = a^2 b^2 psi^2 / A0 scales with b^2 while both Q1 routes
        # do not: at b = 1e-6 the same endpoint gives lambda = 3.6e-13, and
        # the first step's denominator, lambda itself, is below tolerance.
        weak = ChannelParams(a=1.1, b=1e-6)
        with pytest.raises(DenominatorCollapseError, match="at step 1 of 16") as info:
            build_code(weak, endpoint, 16)
        assert info.value.exit_code == EXIT_COLLAPSE

    def test_first_step_has_no_feedback(self, endpoint):
        # T starts at zero, so u_0 = 0 and row 1 of D is empty anyway.
        code = build_code(A11, endpoint, 8)
        assert code.u[0] == 0.0

    def test_oracle_gap_shrinks_with_k(self, endpoint):
        target = theorem_bound(PAIR, A11).energy_per_bit
        gaps = []
        for k in (32, 64, 128):
            code = build_code(A11, endpoint, k)
            out = evaluate_rank1(A11, code.s, code.D)
            gaps.append(abs(out.energy_per_bit - target) / target)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 2e-3

    def test_deterministic(self, endpoint):
        c1 = build_code(A11, endpoint, 16)
        c2 = build_code(A11, endpoint, 16)
        assert np.array_equal(c1.D, c2.D)
        assert np.array_equal(c1.r, c2.r)

    @pytest.mark.parametrize("optimized_b", [None, 2.0, 5.0], ids=["pinned", "b2", "b5"])
    def test_start_state_matches_trajectory(self, optimized_b, endpoint, optimized_cache):
        # The builder reads V(0) and Z(0) off the endpoint in closed form.
        # Its first step, recomputed here from a rebuilt trajectory's first
        # sample, must agree bit for bit.
        if optimized_b is None:
            channel, ep = A11, endpoint
        else:
            channel = ChannelParams(a=1.1, b=optimized_b)
            ep = optimized_cache(1.1, optimized_b).endpoint
        traj = build_trajectory(ep, channel, n_samples=64)
        lam, Q1 = lambda_and_Q1(ep, channel)
        a, b = channel.a, channel.b
        s_0 = math.sqrt(Q1 / 32)
        # At S = 0, T = R = 0: u_0 = 0 and the denominator is lam.
        z_0 = lam * s_0 / lam
        V = float(traj.V[0])
        Z = float(traj.Z[0]) - z_0 * z_0
        r_0 = lam * (a * b + a * a * b * b * V) * s_0 / (lam + b * b * Z)
        code = build_code(channel, ep, 32)
        assert code.lam == lam
        assert code.z[0] == z_0
        assert code.r[0] == r_0

    @pytest.mark.parametrize("k", [1, 2, 48, 257])
    def test_matrix_matches_outer_product_formula(self, endpoint, k):
        code = build_code(A11, endpoint, k)
        a2 = A11.a * A11.a
        expected = np.tril(
            -a2 * np.outer(code.u, code.s) + np.outer(code.z, code.r) / code.lam, k=-1
        )
        assert np.array_equal(code.D, expected)
        assert np.array_equal(np.signbit(code.D), np.signbit(expected))

    def test_k_validation(self, endpoint):
        with pytest.raises(ValueError):
            build_code(A11, endpoint, 0)

    def test_cap_constant_reasonable(self):
        assert DEFAULT_K_CAP == 4096


class TestExchangeFormat:
    def test_round_trip_is_exact(self, endpoint, tmp_path):
        code = build_code(A11, endpoint, 12)
        path = tmp_path / "code.txt"
        path.write_text(_export(code, A11))
        channel, parsed = parse_code(path)
        assert channel == A11
        assert parsed.k == 12
        assert parsed.lam == code.lam
        assert np.array_equal(parsed.s, code.s)
        assert np.array_equal(parsed.D, code.D)

    def test_round_trip_evaluation_matches(self, endpoint, tmp_path):
        code = build_code(A11, endpoint, 12)
        path = tmp_path / "code.txt"
        path.write_text(_export(code, A11))
        channel, parsed = parse_code(str(path))
        direct = evaluate_rank1(A11, code.s, code.D)
        reparsed = evaluate_rank1(channel, parsed.s, parsed.D)
        assert reparsed.energy_per_bit == direct.energy_per_bit

    def test_header_layout(self, endpoint):
        code = build_code(A11, endpoint, 5)
        lines = _export(code, A11).splitlines()
        assert lines[0].split()[0] == "5"
        assert len(lines) == 1 + 1 + 4  # header, s, rows 2..5
        assert len(lines[2].split()) == 1
        assert len(lines[-1].split()) == 4

    @pytest.mark.parametrize(
        "text",
        [
            "3 1.1\n",
            "2 1.1 2 1.0 0.5\n0.1\n",
            "2 1.1 2 1.0 0.5\n0.1 0.2\n0.3 0.4\n",
            "2 1.1 2 1.0 0.5\n0.1 nope\n",
            "0 1.1 2 1 1\n\n",
            "2 1.1 2 nan -1\n0.5 0.5\n0.1\n",
            "2 1.1 2 1.0 inf\n0.5 0.5\n0.1\n",
            "2 1.1 2 0 0.5\n0.5 0.5\n0.1\n",
            "2 1.1 2 1.0 0.5\nnan 0.5\n0.1\n",
            "2 1.1 2 1.0 0.5\n0.5 0.5\ninf\n",
        ],
    )
    def test_malformed_content_rejected(self, text, tmp_path):
        path = tmp_path / "code.txt"
        path.write_text(text)
        with pytest.raises(ValueError):
            parse_code(path)


class TestG17Text:
    """The numpy "%.17g" of the exchange format against Python's own."""

    @given(
        lines=st.lists(st.lists(st.floats(), min_size=1, max_size=40), min_size=1, max_size=4),
        size=st.integers(1, 50),
    )
    @settings(max_examples=300, deadline=None)
    def test_any_float(self, lines, size):
        # Subnormals, signed zeros, infinities and nan included, with
        # chunks shorter and longer than the lines.
        _assert_same_text(_g17_lines(lines, size), _g17_reference(lines))

    def test_powers_of_ten_and_neighbours(self):
        # log10 is exact or one off here, and p moves by one across each.
        values = []
        for e in range(-323, 309):
            x = float(f"1e{e}")
            values += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
        values += [-x for x in values]
        _assert_same_text(_g17_lines([values], 997), _g17_reference([values]))

    @pytest.mark.parametrize(
        "x",
        [
            pytest.param(2.0**-25, id="tie"),
            pytest.param(-(2.0**-25), id="negative-tie"),
            pytest.param(3 * 2.0**-26, id="nineteen-digits"),
            pytest.param(3 * 2.0**-25, id="tie-rounding-up"),
            pytest.param(1e-14, id="carry-negative-exponent"),
            pytest.param(1e98, id="carry-positive-exponent"),
            pytest.param(9.9999999999999999e-05, id="fixed-power-of-ten"),
            pytest.param(99999999999999999.0, id="exponent-power-of-ten"),
            pytest.param(0.5, id="one-digit"),
            pytest.param(1e16, id="seventeen-digits"),
            pytest.param(123.0, id="integer"),
            pytest.param(1e-290, id="smallest-fast"),
            pytest.param(1e290, id="largest-fast"),
        ],
    )
    def test_ties_and_carries(self, x):
        # Exact 18-digit ties round half to even.  The doubles nearest 1e-14
        # and 1e98 lie below them, and their 17 digits round up to 1.
        _assert_same_text(_g17_lines([[x, -x]], 2), _g17_reference([[x, -x]]))

    def test_exact_ties(self):
        # Every odd m 2^-e (e in 20..39, m < 64) with exactly 18 significant
        # digits: the 18th is a 5, so both parities of the 17th occur.
        ties = [
            m * 2.0**-e
            for e in range(20, 40)
            for m in range(1, 64, 2)
            if len(Decimal(m * 2.0**-e).as_tuple().digits) == 18
        ]
        assert len(ties) > 40
        lines = [ties, [-x for x in ties]]
        _assert_same_text(_g17_lines(lines, 64), _g17_reference(lines))

    def test_log_uniform(self):
        rng = np.random.default_rng(18)
        x = np.exp(rng.uniform(math.log(1e-300), math.log(1e300), 200_000))
        x *= rng.choice([-1.0, 1.0], x.size)
        lines = np.split(x, [1, 2, 1000, 5000, 123_456])
        _assert_same_text(_g17_lines(lines, 4096), _g17_reference(lines))

    def test_export_matches_percent_format(self):
        # Fixed notation below one and from ten up, exponent notation with
        # two and three exponent digits, integers, both signs and a zero;
        # the chunks of k entries split rows of D across them.
        k = 9
        rng = np.random.default_rng(9)
        pool = np.array([
            1.5e-7, -2.5e-5, 4.2635761288437517e-05, 1e-123, -7e200, 0.000123,
            -0.0066991612427665893, 0.5, 12345.678, -98765432109876543.0, 3.0, 0.0,
        ])
        D = np.tril(rng.choice(pool, (k, k)) * rng.uniform(0.5, 2.0, (k, k)), k=-1)
        s = rng.choice(pool, k)
        empty = np.empty(0)
        code = RelayCode(k=k, delta=0.01, s=s, u=empty, z=empty, r=empty, D=D, lam=1.25)
        _assert_same_text(_export(code, A11), _export_reference(code, A11))


class TestMemory:
    # At k = 512 a k x k float matrix is one unit.  The builder holds only D
    # and the export one chunk of k entries.
    K = 512
    UNIT = 8 * K * K

    def test_build_holds_only_D(self, endpoint):
        assert _traced_peak(lambda: build_code(A11, endpoint, self.K)) < 1.5 * self.UNIT

    def test_oracle_holds_no_second_matrix(self, endpoint):
        # At k = 1536 (three row blocks) a k x k matrix is one unit; the
        # oracle builds M in the caller's D, and its largest temporary is
        # one 512 x 512 diagonal block, a ninth of a unit.
        k = 1536
        code = build_code(A11, endpoint, k)
        peak = _traced_peak(lambda: evaluate_rank1(A11, code.s, code.D))
        assert peak < 0.2 * 8 * k * k

    def test_export_streams_rows(self, endpoint, tmp_path):
        code = build_code(A11, endpoint, self.K)
        path = tmp_path / "code.txt"
        with path.open("w") as fh:
            peak = _traced_peak(lambda: export_code(code, A11, fh))
        assert peak < 0.1 * path.stat().st_size
