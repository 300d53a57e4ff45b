"""Closed-form reconstruction of the relay trajectory on [0, Q1].

The boundary-value ODE system behind the bound never needs forward
integration: once the endpoint (A0, psi) is known, A(S) is defined
implicitly by a cumulative integral, and every remaining variable follows
from A by algebra.  This module builds that sampled trajectory, recovers the
unbarred variables, and runs every check of `linrelay verify`: the endpoint
residuals, the conserved quantities and the two final trajectory identities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bound import (
    ChannelParams,
    EndpointSolution,
    f_eval,
    integrate_adaptive,
    integrate_batch,
    lambda_and_Q1,
    _closed_forms,
)
from .errors import ProfileMismatchError

__all__ = [
    "TrajectoryGrid",
    "IdentityCheck",
    "invert_A_profile",
    "reconstruct_barred",
    "unbar",
    "check_identities",
    "build_trajectory",
]

# Fine grid resolution for the cumulative integral used to invert A(S).
_PROFILE_NODES = 4096

# Agreement required between the cumulative integral at A0 and ln(1+a^2 Q1).
_PROFILE_TOL = 1e-6

# Bisection bracket width, relative to A0, when inverting the profile.
_INVERT_TOL = 1e-12


@dataclass(frozen=True)
class TrajectoryGrid:
    """Sampled trajectory of the 4-D system and its barred transform.

    All arrays share one length and are indexed by increasing S.  Barred
    variables carry an overline in the derivation; Sbar = 1/a^2 + S.
    """

    S: np.ndarray
    Sbar: np.ndarray
    A: np.ndarray
    B: np.ndarray
    Tbar: np.ndarray
    Rbar: np.ndarray
    Zbar: np.ndarray
    Vbar: np.ndarray
    T: np.ndarray
    R: np.ndarray
    Z: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class IdentityCheck:
    """One verified identity: its worst residual against a tolerance."""

    name: str
    worst_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst_residual <= self.tolerance


def _walks(phi: float, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both endpoint integrals over each [lo[i], hi[i]], as integrate_adaptive gives them.

    integrate_batch walks them all at once; the walks it hands off are
    finished here in index order by integrate_adaptive, which raises the
    failure the first failing walk of a loop over i would raise.
    """
    i1, i2, handoff = integrate_batch(phi, lo, hi)
    for i in handoff.tolist():
        i1[i], i2[i] = integrate_adaptive(phi, lo[i], hi[i])
    return i1, i2


def _profile_tables(endpoint: EndpointSolution) -> tuple[np.ndarray, np.ndarray]:
    """Fine monotone grid in w on [A_f, A0] and cumulative second integral."""
    A_f, A0 = endpoint.A_f, endpoint.A0
    phi = endpoint.phi
    nodes = np.geomspace(A_f, A0, _PROFILE_NODES)
    nodes[0], nodes[-1] = A_f, A0
    pieces = np.empty(_PROFILE_NODES)
    pieces[0] = 0.0
    pieces[1:] = _walks(phi, nodes[:-1], nodes[1:])[1]
    return nodes, np.cumsum(pieces)


def invert_A_profile(
    endpoint: EndpointSolution,
    channel: ChannelParams,
    Q1: float,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample S uniformly on [0, Q1] and invert the implicit profile for A(S).

    A(S) satisfies: integral of f^2/(1+w f^2) over [A_f, A(S)] equals
    ln((1+a^2 Q1)/(1+a^2 S)).  The cumulative integral is precomputed on a
    fine log-spaced grid (each cell refined adaptively), and each sample is
    inverted by bisection: first over grid cells, then inside the bracketing
    cell with local quadrature, all samples in lockstep.

    Args:
        endpoint: Endpoint solution fixing phi, A_f, A0.
        channel: Supplies the gain a.
        Q1: Source energy; must be positive.
        n_samples: Number of S samples, at least 2.

    Returns:
        Arrays (S, A) of length n_samples, with A[0] = A0 and A[-1] = A_f.

    Raises:
        ProfileMismatchError: If the table total at A0 disagrees with
            ln(1 + a^2 Q1) beyond tolerance.
    """
    if Q1 <= 0.0:
        raise ValueError(f"Q1 must be positive, got {Q1!r}")
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    a2 = channel.a * channel.a
    nodes, cum = _profile_tables(endpoint)
    total = cum[-1]
    expected = math.log1p(a2 * Q1)
    if abs(total - expected) > _PROFILE_TOL:
        raise ProfileMismatchError(
            f"cumulative integral {total!r} vs ln(1+a^2 Q1)={expected!r}"
        )
    phi = endpoint.phi

    S = np.linspace(0.0, Q1, n_samples)
    A = np.empty(n_samples)
    A[0] = endpoint.A0
    A[-1] = endpoint.A_f
    # Target cumulative values measured from A_f: ln((1+a^2 Q1)/(1+a^2 S)).
    target = np.array([expected - math.log1p(a2 * s) for s in S[1:-1]])
    idx = np.clip(np.searchsorted(cum, target), 1, len(nodes) - 1)
    start, base = nodes[idx - 1], cum[idx - 1]
    lo, hi = start.copy(), nodes[idx].copy()
    # All samples bisect in lockstep, one batch of walks per step.  A
    # sample whose walk fails stops; the lowest such sample's failure is
    # the one a sample-by-sample loop would raise.
    failures: dict[int, Exception] = {}
    width_floor = _INVERT_TOL * endpoint.A0
    live = np.flatnonzero(hi - lo > width_floor)
    while live.size:
        mid = 0.5 * (lo[live] + hi[live])
        seg, handoff = integrate_batch(phi, start[live], mid)[1:]
        ok = np.ones(live.size, dtype=bool)
        for k in handoff.tolist():
            try:
                seg[k] = integrate_adaptive(phi, start[live[k]], mid[k])[1]
            except Exception as exc:  # noqa: BLE001 - raised below, lowest sample first
                failures[int(live[k])] = exc
                ok[k] = False
        below = base[live] + seg < target[live]
        lo[live[ok & below]] = mid[ok & below]
        hi[live[ok & ~below]] = mid[ok & ~below]
        live = live[ok]
        live = live[hi[live] - lo[live] > width_floor]
    if failures:
        raise failures[min(failures)]
    A[1:-1] = 0.5 * (lo + hi)
    return S, A


def reconstruct_barred(
    Sbar: np.ndarray,
    A: np.ndarray,
    endpoint: EndpointSolution,
    channel: ChannelParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form barred variables along a sampled A profile.

    Sbar = 1/a^2 + S holds the samples of A.  U(S) integrates f/(1+w f^2)
    from A(S) up to A0 (accumulated between consecutive samples, so each
    segment is integrated once) and is divided by c1 = b*psi; then
    Tbar = Sbar*U, Rbar = Tbar^2/Sbar - Sbar*A/c1^2, Zbar = c1^4 B/Sbar and
    Vbar = (c1^3 + Tbar*Zbar)/Sbar.

    Returns:
        Arrays (B, Tbar, Rbar, Zbar, Vbar), each aligned with Sbar, where
        B = f(A).
    """
    c1 = channel.b * endpoint.psi
    phi = endpoint.phi
    n = len(Sbar)
    A = np.asarray(A, dtype=float)
    B = np.array([f_eval(w, phi) for w in A])

    # Integral of f/(1+w f^2) from A[j] to A0, accumulated right to left.
    upper = np.empty(n)
    upper[0] = 0.0
    upper[1:] = _walks(phi, A[1:], A[:-1])[0]
    U = np.cumsum(upper) / c1
    Tbar = Sbar * U
    Rbar = Tbar * Tbar / Sbar - Sbar * A / (c1 * c1)
    Zbar = c1**4 * B / Sbar
    Vbar = (c1**3 + Tbar * Zbar) / Sbar
    return B, Tbar, Rbar, Zbar, Vbar


def unbar(
    Tbar: np.ndarray,
    Rbar: np.ndarray,
    Zbar: np.ndarray,
    Vbar: np.ndarray,
    lam: float,
    channel: ChannelParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Invert the linear bar transform back to the original variables."""
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive, got {lam!r}")
    a, b = channel.a, channel.b
    T = lam * Tbar
    R = lam * lam * Rbar + lam
    Z = Zbar / (lam * lam) - lam / (b * b)
    V = Vbar / (a * a * lam * lam) - 1.0 / (a * b)
    return T, R, Z, V


def build_trajectory(
    endpoint: EndpointSolution,
    channel: ChannelParams,
    n_samples: int = 512,
) -> TrajectoryGrid:
    """Assemble the full sampled trajectory for one endpoint solution.

    lambda and Q1 come from lambda_and_Q1, whose refusal of Q1 <= 0 also
    guarantees A0 > A_f for the profile tables.
    """
    lam, Q1 = lambda_and_Q1(endpoint, channel)
    S, A = invert_A_profile(endpoint, channel, Q1, n_samples)
    Sbar = 1.0 / (channel.a * channel.a) + S
    B, Tbar, Rbar, Zbar, Vbar = reconstruct_barred(Sbar, A, endpoint, channel)
    T, R, Z, V = unbar(Tbar, Rbar, Zbar, Vbar, lam, channel)
    grid = TrajectoryGrid(
        S=S,
        Sbar=Sbar,
        A=A,
        B=B,
        Tbar=Tbar,
        Rbar=Rbar,
        Zbar=Zbar,
        Vbar=Vbar,
        T=T,
        R=R,
        Z=Z,
        V=V,
    )
    return grid


def check_identities(
    traj: TrajectoryGrid,
    endpoint: EndpointSolution,
    channel: ChannelParams,
) -> tuple[IdentityCheck, ...]:
    """Verify the endpoint, the conservation laws and the two final identities.

    These are every check `linrelay verify` runs, in the order it prints
    them, with their tolerances:
      endpoint_residuals  both integral equations' residuals within 1e-8
      conservation   |Sbar Vbar - Tbar Zbar - c1^3| <= 1e-6 |c1^3| at all samples
      ab_invariant   |A B + 1/A - 1/B - phi| <= 1e-8 at all samples
      q2_identity    a T(Q1)/(b lam) - R(Q1)/(b^2 lam) = Q2, 1e-8 relative
      log_identity   1 + Z(0) + a^2 Q1 - 2a T(Q1)/b + R(Q1)/b^2 equals the
                     bound's log argument, 1e-8 relative
      start_zero     T(0) and R(0) within 1e-10 of 0
      terminal_zero  Z(Q1) and V(Q1) within 1e-8 of 0
      z_sign         Z >= -1e-10 at all samples

    lambda, Q1, Q2 and the log argument come from the closed forms
    theorem_bound reports at this endpoint; the trajectory side of each
    identity is computed independently from the sampled terminal state.

    Returns:
        One IdentityCheck per check, in the order above; never raises on
        failure.
    """
    a, b = channel.a, channel.b
    cf = _closed_forms(endpoint, channel)
    c1, lam, Q1 = cf.c1, cf.lam, cf.Q1
    phi = endpoint.phi

    cons = np.max(np.abs(traj.Sbar * traj.Vbar - traj.Tbar * traj.Zbar - c1**3))
    cons_tol = 1e-6 * abs(c1**3)

    ab_res = np.max(np.abs(traj.A * traj.B + 1.0 / traj.A - 1.0 / traj.B - phi))

    T_end, R_end = float(traj.T[-1]), float(traj.R[-1])
    Z_start = float(traj.Z[0])
    q2_lhs = a * T_end / (b * lam) - R_end / (b * b * lam)
    q2_res = abs(q2_lhs - cf.Q2) / max(abs(cf.Q2), 1e-30)

    log_lhs = 1.0 + Z_start + a * a * Q1 - 2.0 * a * T_end / b + R_end / (b * b)
    log_res = abs(log_lhs - cf.log_arg) / max(abs(cf.log_arg), 1e-30)

    start_zero = max(abs(float(traj.T[0])), abs(float(traj.R[0])))
    terminal_zero = max(abs(float(traj.Z[-1])), abs(float(traj.V[-1])))

    z_sign = float(max(0.0, -np.min(traj.Z)))

    residuals = max(abs(endpoint.residual_first), abs(endpoint.residual_second))

    return (
        IdentityCheck("endpoint_residuals", residuals, 1e-8),
        IdentityCheck("conservation", float(cons), cons_tol),
        IdentityCheck("ab_invariant", float(ab_res), 1e-8),
        IdentityCheck("q2_identity", float(q2_res), 1e-8),
        IdentityCheck("log_identity", float(log_res), 1e-8),
        IdentityCheck("start_zero", start_zero, 1e-10),
        IdentityCheck("terminal_zero", terminal_zero, 1e-8),
        IdentityCheck("z_sign", z_sign, 1e-10),
    )
