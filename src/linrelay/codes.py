"""Explicit finite-k relay codes and their matrix-formula evaluation.

build_code discretizes the trajectory ODE with the component-sequential
Euler recursion, extracting the auxiliary sequences u, z, r and the strictly
lower-triangular relay matrix D they induce.  The recursion starts from the
state at S = 0, which follows in closed form from the endpoint solution, so
no sampled trajectory is needed.  evaluate_rank1 computes the
energy-per-bit of any (s, D) scheme directly from the defining matrix
formula; it shares no arithmetic with the builder, so agreement between the
two is a genuine cross-check of the whole pipeline.  It is the package's one
matrix oracle: the 2x2 baseline ranks its grid by the same formula in
closed form, tied to this oracle by a test, and reports values from it.

Beyond k = 512 the code path holds one k x k matrix, D: the builder fills
D in place, export_code streams it in chunks of k entries, and the oracle
builds and factors M in D's zero upper triangle and diagonal, 512 rows at
a time, and zeroes them again before it returns.

export_code writes every entry as the exact text of Python's "%.17g", but
formats a chunk at a time in numpy (_g17.G17Lines): the 17 digits come
from a double-double product with a power of ten, exact to 1e-13 units,
and the few entries where that cannot decide the last digit (within 1e-6
of a half), where log10 misjudges the exponent, and zeros, subnormals,
infinities and nan are formatted by "%.17g" itself.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .bound import TWO_LN2, ChannelParams, EndpointSolution, lambda_and_Q1
from .errors import DenominatorCollapseError, FactorizationFailureError

__all__ = [
    "RelayCode",
    "CodeEvaluation",
    "DEFAULT_K_CAP",
    "build_code",
    "evaluate_rank1",
    "export_code",
    "parse_code",
]

# Dense k x k storage and a cubic factorization keep desk-scale runtimes only
# up to a few thousand; larger k needs an explicit override.
DEFAULT_K_CAP = 4096

_COLLAPSE_TOL = 1e-12

# Row blocks of the oracle's D D^T: the diagonal block's syrk temporary,
# 2 MB, is the largest array evaluate_rank1 allocates beyond k = 512.
_GRAM_BLOCK = 512

# Leaves of the oracle's chunked ||D||^2, 128 kB of squares each.
_SUM_LEAF = 1 << 14


@dataclass(frozen=True)
class RelayCode:
    """A finite-k rank-1 linear relay code.

    Attributes:
        k: Blocklength.
        delta: Step size Q1/k; every source entry is sqrt(delta).
        s: Source direction, length k.
        u, z, r: Auxiliary sequences of the optimality conditions.
        D: Strictly lower-triangular relay matrix, k x k.
        lam: The multiplier scale used in the D entries.
    """

    k: int
    delta: float
    s: np.ndarray
    u: np.ndarray
    z: np.ndarray
    r: np.ndarray
    D: np.ndarray
    lam: float


@dataclass(frozen=True)
class CodeEvaluation:
    """Energy-per-bit of one (s, D) scheme via the matrix formula.

    Attributes:
        energy_per_bit: (||s||^2 + a^2 ||D s||^2 + trace(D D^T)) divided by
            0.5 log2(1 + s^T (I+abD^T)(I+b^2 D D^T)^{-1} (I+abD) s).
        normalized: energy_per_bit / (2 ln 2).
    """

    energy_per_bit: float
    normalized: float


def build_code(channel: ChannelParams, endpoint: EndpointSolution, k: int) -> RelayCode:
    """Construct the k-dimensional relay code from one endpoint solution.

    lambda and Q1 come from lambda_and_Q1.  The state (V, Z, T, R) starts
    at (V(0), Z(0), 0, 0), which the bar transform gives in closed form at
    S = 0, where Sbar = 1/a^2 and Tbar = 0:

        V(0) = (c1^3/Sbar)/(a^2 lam^2) - 1/(ab)
        Z(0) = (c1^4 B0/Sbar)/lam^2 - lam/b^2,   c1 = b*psi

    in the operation order of reconstruct_barred and unbar, so the start is
    bit-identical to a rebuilt trajectory's first sample.

    The state advances with step delta = Q1/k.  Per step, in order: u_i and
    z_i from the previous T, R, S; then V and Z absorb -u_i z_i and -z_i^2;
    then r_i from the fresh V, Z; then T and R absorb r_i s_i and r_i^2.
    This is the component-sequential Euler sweep, since every increment
    equals delta times the matching derivative component.  Finally
    D_ij = -a^2 u_i s_j + z_i r_j / lam on the strict lower triangle,
    filled row by row into one zeroed k x k array, so D is the only k x k
    allocation.

    Args:
        channel: Channel gains.
        endpoint: Endpoint solution; fixes lambda, Q1 and the start state.
        k: Blocklength, at least 1.

    Returns:
        The assembled relay code.

    Raises:
        RouteMismatchError, DegenerateBoundError: From lambda_and_Q1.
        DenominatorCollapseError: If the positivity condition
            (1 + a^2 S)(lam - R) + a^2 T^2 > 0 fails numerically at any step.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    lam, Q1 = lambda_and_Q1(endpoint, channel)
    a, b = channel.a, channel.b
    a2 = a * a
    sbar0 = 1.0 / (a * a)
    c1 = b * endpoint.psi
    V = (c1**3 / sbar0) / (a * a * lam * lam) - 1.0 / (a * b)
    Z = (c1**4 * endpoint.B0 / sbar0) / (lam * lam) - lam / (b * b)
    T = 0.0
    R = 0.0
    delta = Q1 / k
    s_i = math.sqrt(delta)
    u = np.empty(k)
    z = np.empty(k)
    r = np.empty(k)
    for i in range(k):
        S_prev = i * delta
        den = (1.0 + a2 * S_prev) * (lam - R) + a2 * T * T
        if den < _COLLAPSE_TOL:
            raise DenominatorCollapseError(
                f"denominator {den!r} below {_COLLAPSE_TOL:g} at step {i + 1} of {k}"
            )
        u_i = T * s_i / den
        z_i = lam * (1.0 + a2 * S_prev) * s_i / den
        V -= u_i * z_i
        Z -= z_i * z_i
        r_i = lam * (a * b + a2 * b * b * V) * s_i / (lam + b * b * Z)
        T += r_i * s_i
        R += r_i * r_i
        u[i] = u_i
        z[i] = z_i
        r[i] = r_i
    s = np.full(k, s_i)
    D = np.zeros((k, k))
    for i in range(1, k):
        D[i, :i] = -a2 * (u[i] * s[:i]) + (z[i] * r[:i]) / lam
    return RelayCode(k=k, delta=delta, s=s, u=u, z=z, r=r, D=D, lam=lam)


def _sum_squares(flat: np.ndarray) -> float:
    """float(np.sum(flat * flat)) bit for bit, squaring _SUM_LEAF entries at a time.

    numpy sums a contiguous array pairwise: a range longer than 128 splits
    at half its length rounded down to a multiple of 8.  This recursion
    splits the same way down to leaves of at most _SUM_LEAF entries, and
    np.sum of a leaf is that leaf's node of numpy's tree, so the sum has
    np.sum's bits without a temporary the size of flat.
    """
    n = flat.shape[0]
    if n <= _SUM_LEAF:
        return float(np.sum(flat * flat))
    half = n // 2
    half -= half % 8
    return _sum_squares(flat[:half]) + _sum_squares(flat[half:])


def _write_m(W: np.ndarray, bb: float) -> None:
    """Write M = I + bb D D^T into W's zero upper triangle and diagonal.

    D is W's strict lower part, which stays untouched.  Row block I of
    _GRAM_BLOCK rows writes its blocks right of the diagonal in place as
    D[I, :I_end] D[J, :I_end]^T, over the only columns where row block I
    is nonzero, then its diagonal block from an nb x nb syrk temporary;
    the block's products read its upper part while it is still zero.  For
    k <= _GRAM_BLOCK the one block is the whole D D^T, scaled and shifted
    in the same order as an out-of-place M, so M keeps those bits; for
    larger k the sums split differently and M's last bits may move.

    Raises:
        ValueError: If an entry of M overflows.
    """
    k = W.shape[0]
    for i0 in range(0, k, _GRAM_BLOCK):
        i1 = min(i0 + _GRAM_BLOCK, k)
        rows = W[i0:i1, :i1]
        for j0 in range(i1, k, _GRAM_BLOCK):
            block = W[i0:i1, j0 : j0 + _GRAM_BLOCK]
            np.matmul(rows, W[j0 : j0 + _GRAM_BLOCK, :i1].T, out=block)
            block *= bb
            _check_finite_m(block)
        G = rows @ rows.T
        G *= bb
        G.ravel()[:: i1 - i0 + 1] += 1.0
        _check_finite_m(G)
        for r in range(i1 - i0):
            W[i0 + r, i0 + r : i1] = G[r, r:]
        # Freed now, so it never coexists with the next block's G.
        del G


def _check_finite_m(block: np.ndarray) -> None:
    if not np.isfinite(block).all():
        raise ValueError("I + b^2 D D^T overflows")


def evaluate_rank1(channel: ChannelParams, s: np.ndarray, D: np.ndarray) -> CodeEvaluation:
    """Energy-per-bit of an (s, D) scheme straight from the matrix formula.

    The denominator quadratic form is computed by assembling
    M = I + b^2 D D^T and solving M x = (I + a b D) s through a Cholesky
    factorization; no builder sequences are consulted.

    For k > 512, D is the only k x k array.  The numerator comes first,
    with ||D||^2 as np.sum's pairwise sum taken in chunks.  Then _write_m
    builds M in D's zero upper triangle and diagonal, the part of M that
    LAPACK's potrf reads and overwrites when it factors D's transpose as a
    Fortran matrix, and the solve reads that factor alone.

    Workspace contract: the upper triangle and diagonal of the caller's D
    are borrowed and set back to +0.0 on every path, success or error, so
    the caller's D compares equal afterwards (a -0.0 there comes back as
    +0.0), but one D must not be shared by concurrent calls.  A D that is
    read-only, not C-contiguous or not float64 is evaluated on a private
    copy and never written.

    Args:
        channel: Channel gains.
        s: Source vector, nonzero, length k, finite.
        D: Relay matrix, k x k, strictly lower-triangular, finite.

    Returns:
        The evaluation record.

    Raises:
        ValueError: If D is not strictly lower-triangular, s is zero, s or
            D holds a non-finite entry, or the numerator, (I + a b D) s or
            M overflows; all before the factorization.
        FactorizationFailureError: If M fails the positive-definite
            factorization (corrupted D).
    """
    # The package's one scipy use, imported here so that processes which
    # never run the oracle (verify, the bound as a library) load numpy
    # alone; importing scipy.linalg takes about 0.13 s.  It comes before the
    # oracle's arrays: imported after k x k temporaries at k = 1024, it
    # raised the peak RSS of a later k = 4096 call by 7 MB.  scipy raises
    # numpy's LinAlgError.
    from scipy.linalg import cho_factor, cho_solve

    s = np.asarray(s, dtype=float)
    W = np.require(np.asarray(D, dtype=float), requirements="CAW")
    k = s.shape[0]
    if W.shape != (k, k):
        raise ValueError(f"D must be {k} x {k}, got {W.shape}")
    if not np.isfinite(s).all():
        raise ValueError("entries of s must be finite")
    # Row by row, so no k x k temporary is made to look at D.
    for i in range(k):
        if W[i, i:].any():
            raise ValueError("D must be strictly lower-triangular")
        if not np.isfinite(W[i, :i]).all():
            raise ValueError("entries of D must be finite")
    a, b = channel.a, channel.b
    # Every result that can overflow is tested and refused as a ValueError.
    with np.errstate(over="ignore", invalid="ignore"):
        norm_s2 = float(s @ s)
        if norm_s2 == 0.0:
            raise ValueError("s must be nonzero")
        Ds = W @ s
        numerator = norm_s2 + a * a * float(Ds @ Ds) + _sum_squares(W.ravel())
        if not math.isfinite(numerator):
            raise ValueError("the numerator ||s||^2 + a^2 ||Ds||^2 + ||D||^2 overflows")
        v = s + a * b * Ds
        if not np.isfinite(v).all():
            raise ValueError("(I + a b D) s overflows")
        try:
            _write_m(W, b * b)
            factor = cho_factor(W.T, lower=True, overwrite_a=True, check_finite=False)
            x = cho_solve(factor, v, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailureError(f"I + b^2 D D^T not positive definite: {exc}")
        finally:
            for i in range(k):
                W[i, i:] = 0.0
    quad = float(v @ x)
    # log1p keeps the rate accurate for near-zero-power inputs, where
    # 1 + quad would round away most of quad.
    bits = 0.5 * math.log1p(quad) / math.log(2.0)
    energy = numerator / bits
    return CodeEvaluation(energy_per_bit=energy, normalized=energy / TWO_LN2)


def export_code(code: RelayCode, channel: ChannelParams, fh: TextIO) -> None:
    """Write a relay code to the text stream fh in the exchange format.

    Layout: a header line `k a b lambda Q1`, one line with the k entries of
    s, then the strict lower triangle of D row by row starting at row 2
    (row i carries i-1 entries).  All floats use 17 significant digits, so
    parsing reproduces them bit for bit.

    Every field is exactly the text of "%.17g" % x.  The four header fields
    are formatted by Python; the entries of s and D go through G17Lines,
    which writes the same bytes with numpy in chunks of k entries, so the
    file is written a chunk at a time and no string of the whole file is
    ever held.  G17Lines takes the 17 digits of |x| 10^(16-p), p the
    decimal exponent, from a double-double product exact to 1e-13 units,
    and formats with "%.17g" itself the entries where that cannot decide:
    within 1e-6 of a half (exact ties among them), a log10 one off or a
    carry to 10^17, and |x| outside [1e-290, 1e290] (zeros, subnormals,
    infinities, nan).
    """
    # Loaded at the first export, so importing the package does not
    # compile the formatter.
    from ._g17 import G17Lines

    fmt = "%.17g"
    q1 = code.k * code.delta
    fh.write(f"{code.k} {fmt % channel.a} {fmt % channel.b} {fmt % code.lam} {fmt % q1}\n")
    lines = G17Lines(fh, code.k)
    lines.write(code.s)
    for i in range(1, code.k):
        lines.write(code.D[i, :i])
    lines.flush()


def parse_code(path: str | Path) -> tuple[ChannelParams, RelayCode]:
    """Parse the textual exchange format back into a channel and code.

    Reads the file at path line by line, never whole.  The u, z, r
    sequences are not part of the format; they are restored as empty
    arrays since only (s, D, lambda) matter for evaluation.

    Raises:
        ValueError: On malformed content (wrong counts, non-numeric fields,
            k below 1, lambda or Q1 not positive and finite, s or D not finite).
    """
    with open(path) as stream:
        header = stream.readline().split()
        if len(header) != 5:
            raise ValueError(f"header must have 5 fields, got {len(header)}")
        k = int(header[0])
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        a, b, lam, q1 = (float(x) for x in header[1:])
        if not (lam > 0.0 and math.isfinite(lam) and q1 > 0.0 and math.isfinite(q1)):
            raise ValueError(f"lambda and Q1 must be positive and finite, got {lam!r}, {q1!r}")
        s = np.array([float(x) for x in stream.readline().split()])
        if s.shape != (k,):
            raise ValueError(f"expected {k} source entries, got {s.shape[0]}")
        D = np.zeros((k, k))
        for i in range(1, k):
            row = [float(x) for x in stream.readline().split()]
            if len(row) != i:
                raise ValueError(f"row {i + 1} must carry {i} entries, got {len(row)}")
            D[i, :i] = row
    if not (np.isfinite(s).all() and np.isfinite(D).all()):
        raise ValueError("entries of s and D must be finite")
    channel = ChannelParams(a=a, b=b)
    empty = np.empty(0)
    code = RelayCode(
        k=k, delta=q1 / k, s=s, u=empty, z=empty, r=empty, D=D, lam=lam
    )
    return channel, code
