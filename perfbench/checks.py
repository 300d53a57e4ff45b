"""Checks of linrelay's outputs against computations made apart from it.

Nothing here imports linrelay or its tests.  The independent computations:

- `quadpack_bound`: the rank-1 bound at any (A_f, B_f) from QUADPACK
  integrals (scipy.integrate.quad), a brentq endpoint solve and the closed
  forms of Q1, Q2 and the log argument; it also returns the conditioning
  factor that sets the tolerance of a comparison with it.
- `block_markov` and `cutset`: the closed forms.
- `two_by_two_coarse_min`: a vectorised longhand evaluation of the 2x2
  scheme's energy on a coarse grid inside the baseline's (beta, P1, P2) box.
- `read_code`: a reader of the exchange format.
- `lu_energy`: the energy per bit of any (s, D) through an LU solve.

Each check returns a list of failure names; an empty list is a pass.
"""
from __future__ import annotations

import csv
import io
import math
import re

import numpy as np
from scipy import integrate, optimize

TWO_LN2 = 2.0 * math.log(2.0)

# Relative disagreement allowed between (A0, psi, I1, I2) computed by the
# program (quadrature tolerance 1e-12, root tolerance 1e-13) and here
# (QUADPACK at 1e-13, brentq at 4 ulp), with a tenfold margin; the energy
# terms are cubic in A0 and psi, which the factor 10 in bound_tolerance covers.
_INPUT_AGREEMENT = 1e-11

# Allowance for reassociated floating-point arithmetic in closed forms.
ULP_TOL = 1e-14

# rank1 may exceed two_by_two by this much (the acceptance tolerance).
_ORDER_TOL = 1e-6

# The baseline's box: beta in [0, 1], powers in [1e-6, 10].  The coarse grid
# takes every fourth beta and every third power of the baseline's own scan
# (41 and 31 points), so a correct scan-plus-refine never ends above it.
_COARSE_BETAS = np.linspace(0.0, 1.0, 11)
_COARSE_POWERS = np.geomspace(1e-6, 10.0, 11)

_VERIFY_LINE = re.compile(r"^(\w+): worst=(\S+) tol=(\S+) (PASS|FAIL)$")
_VERIFY_NAMES = (
    "endpoint_residuals", "conservation", "ab_invariant", "q2_identity",
    "log_identity", "start_zero", "terminal_zero", "z_sign",
)


def block_markov(a: float, b: float) -> float:
    return min(1.0, (a * a + b * b) / (a * a * (1.0 + b * b)))


def cutset(a: float, b: float) -> float:
    return (1.0 + a * a + b * b) / ((1.0 + a * a) * (1.0 + b * b))


def _f(w: float, phi: float) -> float:
    # Positive root B of w B^2 + (1/w - phi) B - 1 = 0, the conserved
    # relation w B + 1/w - 1/B = phi times B; the branch avoids cancellation.
    p = 1.0 / w - phi
    root = math.sqrt(p * p + 4.0 * w)
    return 2.0 / (p + root) if p > 0.0 else (root - p) / (2.0 * w)


def _integrals(phi: float, lo: float, hi: float) -> tuple[float, float]:
    def first(w):
        fw = _f(w, phi)
        return fw / (1.0 + w * fw * fw)

    def second(w):
        fw = _f(w, phi)
        return fw * fw / (1.0 + w * fw * fw)

    opts = dict(epsabs=1e-14, epsrel=1e-13, limit=200)
    return integrate.quad(first, lo, hi, **opts)[0], integrate.quad(second, lo, hi, **opts)[0]


def quadpack_bound(a: float, b: float, A_f: float, B_f: float) -> dict:
    """Normalized rank-1 bound at (A_f, B_f), its parts and its conditioning."""
    phi = A_f * B_f + 1.0 / A_f - 1.0 / B_f
    scale = a / math.sqrt(A_f * B_f)

    def zero(A0: float) -> float:
        i1, i2 = _integrals(phi, A_f, A0)
        return 1.0 / B_f + i1 - scale * math.exp(-0.5 * (math.log(A0 / A_f) - i2))

    hi = max(2.0 * A_f, 1.0)
    while zero(hi) <= 0.0:
        hi *= 2.0
    A0 = A_f if zero(A_f) >= 0.0 else optimize.brentq(zero, A_f, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    _, i2 = _integrals(phi, A_f, A0)
    psi = math.exp(0.5 * (3.0 * math.log(A0) + math.log(B_f) - 4.0 * math.log(a) - i2))
    B0 = _f(A0, phi)
    Q1 = math.expm1(i2) / (a * a)
    cubic = A0**3 / (a**5 * b * b * psi**3)
    mixed = A0 * A0 * (A_f * B_f * B_f - 1.0) / (a**4 * b * b * psi * psi * B_f)
    Q2 = -1.0 / (b * b) + cubic + mixed
    arg_terms = (1.0 / B_f, A0 * B0, A_f * B_f)
    log_arg = (A0 / (a * a)) * (arg_terms[0] + arg_terms[1] - arg_terms[2])
    energy = (Q1 + Q2) / (0.5 * math.log2(log_arg))
    # Relative error of the energy per relative error of the inputs: the
    # largest term each difference cancels, over what survives.
    kappa_q = max(Q1, 1.0 / (b * b), abs(cubic), abs(mixed)) / abs(Q1 + Q2)
    kappa_l = (A0 / (a * a)) * max(arg_terms) / abs(log_arg * math.log(log_arg))
    return {
        "A0": A0, "psi": psi, "Q1": Q1, "Q2": Q2, "log_arg": log_arg,
        "energy_per_bit": energy, "normalized": energy / TWO_LN2,
        "kappa": kappa_q + kappa_l,
    }


def bound_tolerance(kappa: float) -> float:
    """Relative tolerance of a comparison with quadpack_bound."""
    return 10.0 * _INPUT_AGREEMENT * kappa


def two_by_two_coarse_min(a: float, b: float) -> float:
    """Minimum of the 2x2 scheme's normalized energy over the coarse grid.

    The scheme sends s = sqrt(2 P1) (sqrt(beta), sqrt(1 - beta)) and relays
    D = [[0, 0], [d, 0]] with d^2 = 2 P2 / (2 a^2 beta P1 + 1).  Longhand:
    energy ||s||^2 + a^2 ||D s||^2 + tr(D D^T) = 2 P1 + d^2 (a^2 s1^2 + 1), and
    since I + b^2 D D^T = diag(1, 1 + b^2 d^2), the rate's quadratic form is
    s1^2 + (s2 + a b d s1)^2 / (1 + b^2 d^2).
    """
    beta, P1, P2 = np.meshgrid(_COARSE_BETAS, _COARSE_POWERS, _COARSE_POWERS, indexing="ij")
    d2 = 2.0 * P2 / (2.0 * a * a * beta * P1 + 1.0)
    s1 = np.sqrt(2.0 * P1 * beta)
    s2 = np.sqrt(2.0 * P1 * (1.0 - beta))
    energy = 2.0 * P1 + d2 * (a * a * s1 * s1 + 1.0)
    quad = s1 * s1 + (s2 + a * b * np.sqrt(d2) * s1) ** 2 / (1.0 + b * b * d2)
    bits = 0.5 * np.log1p(quad) / math.log(2.0)
    return float(np.min(energy / bits)) / TWO_LN2


def rel(x: float, y: float) -> float:
    return abs(x - y) / max(abs(y), 1e-300)


# ---------------------------------------------------------------- sweep

def sweep_rows(csv_text: str) -> list[dict]:
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(csv_text))]


def check_sweep_row(row: dict, detail: dict | None = None) -> list[str]:
    """Failure names of one sweep row.  q2_nonnegative is the known Q2 fault."""
    a, b = row["a"], row["b"]
    fails = []
    if not (row["cutset"] <= row["rank1"] <= 1.0):
        fails.append("cutset_le_rank1_le_1")
    if not row["rank1"] <= row["two_by_two"] + _ORDER_TOL:
        fails.append("rank1_le_two_by_two")
    if not row["A_f"] / row["B_f"] <= a * a:
        fails.append("ratio_le_a2")
    if not row["Q1"] > 0.0:
        fails.append("q1_positive")
    if not row["Q2"] >= 0.0:
        fails.append("q2_nonnegative")
    if rel(row["block_markov"], block_markov(a, b)) > ULP_TOL:
        fails.append("block_markov_closed_form")
    if rel(row["cutset"], cutset(a, b)) > ULP_TOL:
        fails.append("cutset_closed_form")
    ref = quadpack_bound(a, b, row["A_f"], row["B_f"])
    err, tol = rel(row["rank1"], ref["normalized"]), bound_tolerance(ref["kappa"])
    if not err <= tol:
        fails.append("rank1_quadpack")
    coarse = two_by_two_coarse_min(a, b)
    if not row["two_by_two"] <= coarse * (1.0 + ULP_TOL):
        fails.append("two_by_two_le_coarse_grid")
    if detail is not None:
        detail.update(b=b, rank1_rel_err=err, rank1_tol=tol, kappa=ref["kappa"],
                      coarse_min=coarse, fails=fails)
    return fails


# ---------------------------------------------------------------- code

def read_code(path) -> tuple[dict, np.ndarray, np.ndarray]:
    """Read the exchange format: header `k a b lambda Q1`, s, then row i of D
    (i = 2..k) with its i-1 entries below the diagonal.  Raises ValueError on
    any deviation from that layout."""
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")
    header = lines[0].split()
    if len(header) != 5:
        raise ValueError("header must have 5 fields")
    k = int(header[0])
    a, b, lam, q1 = (float(x) for x in header[1:])
    if len(lines) != k + 2 or lines[-1] != b"":
        raise ValueError(f"expected {k + 1} newline-terminated lines after the header")
    s = np.array(lines[1].split(), dtype=float)
    if s.shape != (k,):
        raise ValueError("source line has the wrong length")
    D = np.zeros((k, k))
    for i in range(1, k):
        row = lines[i + 1]
        if row.count(b" ") != i - 1:
            raise ValueError(f"row {i + 1} must carry {i} entries")
        D[i, :i] = np.fromstring(row.decode(), sep=" ")
    return {"k": k, "a": a, "b": b, "lambda": lam, "Q1": q1}, s, D


def lu_energy(a: float, b: float, s: np.ndarray, D: np.ndarray) -> float:
    """Energy per bit of (s, D): (||s||^2 + a^2 ||Ds||^2 + ||D||_F^2) over
    0.5 log2(1 + v^T (I + b^2 D D^T)^{-1} v), v = s + a b D s, by an LU solve."""
    Ds = D @ s
    numerator = float(s @ s) + a * a * float(Ds @ Ds) + float(np.einsum("ij,ij->", D, D))
    M = D @ D.T
    M *= b * b
    M[np.diag_indices_from(M)] += 1.0
    v = s + a * b * Ds
    quad = float(v @ np.linalg.solve(M, v))
    return numerator / (0.5 * math.log1p(quad) / math.log(2.0))


def check_code(report: dict, path, k: int, a: float, b: float, detail: dict | None = None):
    """Failure names of one code command, and the independent (oracle, bound) energies."""
    fails = []
    try:
        head, s, D = read_code(path)
    except (OSError, ValueError):
        return ["exchange_format"], None
    if head["k"] != k or head["a"] != a or head["b"] != b:
        fails.append("header")
    if np.any(np.triu(D) != 0.0):
        fails.append("strictly_lower")
    oracle = lu_energy(a, b, s, D)
    oracle_err = rel(report["oracle_energy_per_bit"], oracle)
    if not oracle_err <= 1e-10:
        fails.append("oracle_lu")
    ref = quadpack_bound(a, b, report["A_f"], report["B_f"])
    bound_err = rel(report["theorem_energy_per_bit"], ref["energy_per_bit"])
    bound_tol = bound_tolerance(ref["kappa"])
    if not bound_err <= bound_tol:
        fails.append("theorem_quadpack")
    if detail is not None:
        detail.update(k=k, oracle_rel_err=oracle_err, bound_rel_err=bound_err,
                      bound_tol=bound_tol, fails=fails)
    return fails, (oracle, ref["energy_per_bit"])


def first_order(k_lo: int, gap_lo: float, k_hi: int, gap_hi: float) -> bool:
    """gap(k_lo)/gap(k_hi) inside (k_hi/k_lo)^[0.8, 1.2], the slope window of
    the package's first-order acceptance criterion."""
    ratio, step = gap_lo / gap_hi, k_hi / k_lo
    return step**0.8 <= ratio <= step**1.2


# ---------------------------------------------------------------- verify

def check_verify(rc: int, stdout: str, detail: dict | None = None) -> list[str]:
    """Failure names of one verify command: the exit code, then each line
    that is missing, malformed, FAIL, or PASS with worst above tol."""
    fails = [] if rc == 0 else ["exit_code"]
    lines = stdout.strip().splitlines()
    seen = []
    for line in lines:
        m = _VERIFY_LINE.match(line)
        if not m:
            fails.append("malformed_line")
            continue
        name, worst, tol, verdict = m.group(1), float(m.group(2)), float(m.group(3)), m.group(4)
        seen.append(name)
        if verdict != "PASS" or not worst <= tol:
            fails.append(name)
    if tuple(seen) != _VERIFY_NAMES:
        fails.append("line_set")
    if detail is not None:
        detail.update(rc=rc, fails=fails)
    return fails
