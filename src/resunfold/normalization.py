"""Diagonalizing transformations along trajectories and the
connection-matrix calculus.

The off-diagonal entries p of the diagonalizer solve

    dp/ds = 4 s^2/((s^2-mu)^2 - eps) p + (1 - p^2)/(2 s) + (1 + p)^2 r,

whose bounded solution with p(s_i) = 0 is the fixed point of a contracting
integral operator along trajectories of omega*chi.  The determinant-type
connection coefficients kappa_I, kappa_O, kappa have Gamma-function closed
forms evaluated here with branch-tracked logarithms.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import CSeries, PoleAtNonPositiveInteger, log_gamma
from .geometry import (
    REGION_OUTER,
    DomainConfig,
    RamifiedPoint,
    TrajectoryRecord,
    _rk4_step,
    _trace,
    chi,
    classify_regions,
)


class ContractionViolated(RuntimeError):
    """A Picard sweep contracted slower than the certified bound allows."""


class NoOverlap(ValueError):
    """The two trajectory solutions do not live on one common arc."""


class GammaPole(ArithmeticError):
    """A Gamma-function argument in the kappa formulas hit a pole."""


# ---------------------------------------------------------------------------
# Picard solver for the bounded off-diagonal entries


PICARD_MAX_SWEEPS = 80     # solve_p stops after this many sweeps
PICARD_RATIO_BOUND = 0.75  # ... and raises ContractionViolated on a slower sweep


@dataclass(frozen=True)
class PSolution:
    """Fixed point of the integral operator on one trajectory grid, for the
    series ``r`` (None for r = 0) it was solved with.

    ``contraction_history`` records the sup-norm update of every sweep;
    consecutive ratios certify the contraction.  The solution is bounded
    by 1 and vanishes at the terminal equilibrium.
    """

    trajectory: TrajectoryRecord
    r: CSeries | None
    p: np.ndarray
    contraction_history: list

    @property
    def contraction_ratios(self) -> np.ndarray:
        h = np.asarray(self.contraction_history)
        return h[1:] / h[:-1] if len(h) > 1 else np.array([])

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.p)))

    def terminal_value(self) -> complex:
        return complex(self.p[-1])


def _eval_r(r: CSeries | None, x):
    """r(x), or zeros when there is no r."""
    return np.zeros_like(x) if r is None else r.eval(x)


def _backward_recurrence(log_E: complex, n: int):
    """Solver for H_j = c_j + E H_{j+1} (j < n, H_n = 0) with E = exp(log_E).

    Each block of B samples is one E^k-weighted reverse cumulative sum,
    rescaled by E^-k; B keeps |E|^-B <= e^200 so nothing overflows for
    |E| < 1.  The factors depend on E only, so they are computed once here
    and shared by every call of the returned function.
    """
    decay = -log_E.real
    B = n if decay * n <= 200.0 else max(1, int(200.0 / decay))
    k = np.arange(B + 1)
    pw = np.exp(k * log_E)
    pw_inv = np.exp(-k * log_E)

    def solve(c: np.ndarray) -> np.ndarray:
        H = np.empty_like(c)
        carry = 0.0
        for lo in range(((n - 1) // B) * B, -1, -B):
            m = min(B, n - lo)
            acc = np.cumsum((pw[:m] * c[lo:lo + m])[::-1])[::-1]
            H[lo:lo + m] = pw_inv[:m] * (acc + pw[m] * carry)
            carry = H[lo]
        return H

    return solve


def solve_p(traj: TrajectoryRecord, r: CSeries | None, tol: float = 1e-12) -> PSolution:
    """Picard iteration for the bounded solution with p(s_i) = 0.

    The operator is evaluated on the trajectory's uniform xi grid by
    exponentially weighted quadrature of

        K p = -omega * int_0^inf e^{-omega xi} chi(sigma)
                [(1 - p^2)/(2 sigma) + (1 + p)^2 r(sigma^2 - mu)] dxi,

    using the semigroup property of the flow, so one trajectory serves all
    of its points.  The integral needs Re omega > 0 (ValueError otherwise).
    Raises ContractionViolated when a sweep contracts slower than
    PICARD_RATIO_BOUND.
    """
    if traj.terminal != "converged":
        raise ValueError("trajectory must converge to an equilibrium")
    if not traj.omega.real > 0.0:
        raise ValueError(f"the integral needs Re omega > 0, got omega = {traj.omega}")
    mu, eps = traj.rp.mu, traj.rp.eps
    w = traj.omega
    s = traj.s
    dxi = traj.dxi
    chi_vals = chi(s, mu, eps)
    r_vals = _eval_r(r, s * s - mu)
    inv2s = 1.0 / (2.0 * s)

    E = cmath.exp(-w * dxi)
    backward = _backward_recurrence(-w * dxi, len(s))
    # exponentially weighted trapezoid weights on one step
    if abs(w * dxi) > 1e-8:
        J0 = (1.0 - E) / w
        J1 = (1.0 - E * (1.0 + w * dxi)) / (w * w)
    else:
        J0 = dxi * (1.0 - w * dxi / 2.0)
        J1 = dxi * dxi * (0.5 - w * dxi / 3.0)
    w_here = J0 - J1 / dxi
    w_next = J1 / dxi

    p = np.zeros_like(s)
    history: list[float] = []
    for sweep in range(PICARD_MAX_SWEEPS):
        G = chi_vals * ((1.0 - p * p) * inv2s + (1.0 + p) ** 2 * r_vals)
        # H_j = e^{-w dxi} H_{j+1} + (w_here G_j + w_next G_{j+1})
        c = w_here * G
        c[:-1] += w_next * G[1:]
        c[-1] += G[-1] / w  # analytic tail beyond the last sample
        p_new = -w * backward(c)
        delta = float(np.max(np.abs(p_new - p)))
        history.append(delta)
        if sweep >= 1 and history[-2] > 1e-14:
            ratio = delta / history[-2]
            if ratio > PICARD_RATIO_BOUND:
                raise ContractionViolated(
                    f"Picard sweep contracted by {ratio:.3f} > {PICARD_RATIO_BOUND}")
        p = p_new
        if delta < tol:
            break
    return PSolution(traj, r, p, history)


def p_equation_residual(sol: PSolution) -> float:
    """Max finite-difference residual of the p ODE (r of the solve) over the
    middle 80 % of the samples.

    Central differences on the uniform xi grid; dp/ds = (dp/dxi)/(omega chi).
    """
    traj = sol.trajectory
    s, p = traj.s, sol.p
    mu, eps = traj.rp.mu, traj.rp.eps
    w = traj.omega
    n = len(s)
    lo, hi = int(n * 0.1), int(n * 0.9)
    if hi - lo < 3:
        raise ValueError("trajectory too short for residual estimation")
    sl = slice(lo + 1, hi - 1)
    dp_dxi = (p[lo + 2:hi] - p[lo:hi - 2]) / (2.0 * traj.dxi)
    sm, pm = s[sl], p[sl]
    chi_m = chi(sm, mu, eps)
    dp_ds = dp_dxi / (w * chi_m)
    hom = 4.0 * sm * sm / ((sm * sm - mu) ** 2 - eps)
    rhs = hom * pm + (1.0 - pm * pm) / (2.0 * sm) \
        + (1.0 + pm) ** 2 * _eval_r(sol.r, sm * sm - mu)
    return float(np.max(np.abs(dp_ds - rhs)))


# ---------------------------------------------------------------------------
# heteroclinic arcs and the assembled transformation


def _rk4_arc_step(s: complex, omega: complex, rp: RamifiedPoint, h: float) -> complex:
    return _rk4_step(s, omega, rp.mu, rp.eps, h)


def connecting_arc(rp: RamifiedPoint, omega: complex, cfg: DomainConfig,
                   start: complex) -> TrajectoryRecord:
    """Heteroclinic trajectory arc through the point ``start`` of the wanted
    region.

    Traces -omega from ``start`` until it locks onto the repelling end and
    omega until it converges, and splices both halves into one record of
    omega, on the step of the two traces, starting at the repelling end.
    The traces keep the stop rules of ``trace_trajectory`` but step by RK4:
    solve_p needs every sample at cfg.trace_step, and at that step an RK4
    step costs less than a Newton solve of theta.
    """
    fwd = _trace(start, omega, rp, cfg, _rk4_arc_step)
    if fwd.terminal != "converged":
        raise NoOverlap(f"forward trace ended with '{fwd.terminal}'")
    bwd = _trace(start, -omega, rp, cfg, _rk4_arc_step)
    if bwd.terminal != "converged":
        raise NoOverlap(f"backward trace ended with '{bwd.terminal}'")
    s_all = np.concatenate([bwd.s[::-1], fwd.s[1:]])
    return TrajectoryRecord(omega, rp, fwd.dxi, s_all, "converged", fwd.target)


def _running_simpson(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative integral of uniform samples f (spacing h), starting at 0.

    Every interval uses the 3-point rule h/12 (5, 8, -1), anchored on its
    left and right end in turn; the last interval is right-anchored.
    """
    left = h / 12.0 * (5.0 * f[:-2] + 8.0 * f[1:-1] - f[2:])    # [i, i+1]
    right = h / 12.0 * (-f[:-2] + 8.0 * f[1:-1] + 5.0 * f[2:])  # [i+1, i+2]
    parts = np.empty(len(f) - 1, dtype=np.result_type(f, h))
    parts[:-1:2] = left[::2]
    parts[1::2] = right[::2]
    parts[-1] = right[-1]
    return np.concatenate(([0.0], np.cumsum(parts)))


@dataclass(frozen=True)
class FAssembly:
    """Sampled diagonalizing transformation along one arc.

    F = [[1, p_i], [p_j^P, 1]] * diag(e^{I_jP}, e^{-I_i}) with the beta
    integrals accumulated along the arc.  By Liouville, det F is constant
    in s; its mean is the kappa estimate for the domain.
    """

    arc: TrajectoryRecord
    r: CSeries | None
    F: np.ndarray
    det: np.ndarray
    kappa_estimate: complex
    det_rel_std: float
    interior: slice


def assemble_F(p_i_sol: PSolution, p_j_sol: PSolution, interior: float = 0.05) -> FAssembly:
    """Assemble F along the common arc of the two Picard solutions.

    ``p_i_sol`` lives on the arc itself (forward to s_i); ``p_j_sol`` on
    the reversed-negated arc (forward to -s_j).  The two must share r and
    aligned grids; the determinant statistics are taken over the
    interior of the arc, away from the truncated equilibrium ends.
    """
    arc = p_i_sol.trajectory
    other = p_j_sol.trajectory
    r, r_j = p_i_sol.r, p_j_sol.r
    if r is not r_j and (r is None or r_j is None or not np.array_equal(r.coeffs, r_j.coeffs)):
        raise NoOverlap("the two Picard solutions were solved with different r")
    if len(arc.s) != len(other.s) or \
            float(np.max(np.abs(other.s - (-arc.s[::-1])))) > 1e-9:
        raise NoOverlap("p_j solution is not on the reversed-negated arc")
    s = arc.s
    mu, eps = arc.rp.mu, arc.rp.eps
    p_i = p_i_sol.p
    p_jP = p_j_sol.p[::-1]  # p_j(-s) sample-aligned with the arc

    r_vals = _eval_r(r, s * s - mu)
    beta_i = -p_i / (4.0 * s) + 0.5 * r_vals * (1.0 + p_i)
    beta_jP = p_jP / (4.0 * s) + 0.5 * r_vals * (1.0 + p_jP)

    # ds = omega chi dxi: integrate in xi on the uniform grid
    w = arc.omega
    ds_dxi = w * chi(s, mu, eps)

    I_jP = _running_simpson(2.0 * beta_jP * ds_dxi, arc.dxi)   # from the -s_j end
    I_i_rev = _running_simpson(2.0 * beta_i * ds_dxi, arc.dxi)
    I_i = I_i_rev - I_i_rev[-1]                     # from the s_i end

    e_plus = np.exp(I_jP)
    e_minus = np.exp(-I_i)
    F = np.empty((len(s), 2, 2), dtype=complex)
    F[:, 0, 0] = e_plus
    F[:, 0, 1] = p_i * e_minus
    F[:, 1, 0] = p_jP * e_plus
    F[:, 1, 1] = e_minus
    det = e_plus * e_minus * (1.0 - p_i * p_jP)

    n = len(s)
    lo, hi = int(n * interior), int(n * (1.0 - interior))
    win = slice(lo, hi)
    mean = complex(np.mean(det[win]))
    rel_std = float(np.std(det[win]) / max(1e-300, abs(mean)))
    return FAssembly(arc, r, F, det, mean, rel_std, win)


def diagonalization_residual(asm: FAssembly) -> float:
    """Sup-norm defect of F as a diagonalizer of the s-coordinate system (r of asm).

    Checks (2/omega) dF/dxi = M(s) F - F D(s) with M the transformed
    system matrix and D its diagonal target; five-point differences on
    the uniform xi grid.
    """
    arc = asm.arc
    s, F = arc.s, asm.F
    mu, eps, w = arc.rp.mu, arc.rp.eps, arc.omega
    n = len(s)
    if n < 9:
        raise ValueError("arc too short")
    dxi = arc.dxi
    k = np.arange(2, n - 2)
    dF = (-F[k + 2] + 8.0 * F[k + 1] - 8.0 * F[k - 1] + F[k - 2]) / (12.0 * dxi)
    sm = s[k]
    X = (sm * sm - mu) ** 2 - eps
    r_vals = _eval_r(asm.r, sm * sm - mu)
    M = np.zeros((len(k), 2, 2), dtype=complex)
    M[:, 0, 0] = 1.0 - X / (4.0 * sm ** 3) + X * r_vals / (2.0 * sm * sm)
    M[:, 0, 1] = X / (4.0 * sm ** 3) + X * r_vals / (2.0 * sm * sm)
    M[:, 1, 0] = X / (4.0 * sm ** 3) - X * r_vals / (2.0 * sm * sm)
    M[:, 1, 1] = -1.0 - X / (4.0 * sm ** 3) - X * r_vals / (2.0 * sm * sm)
    D = np.zeros_like(M)
    D[:, 0, 0] = 1.0 - X / (4.0 * sm ** 3)
    D[:, 1, 1] = -1.0 - X / (4.0 * sm ** 3)
    resid = (2.0 / w) * dF - (np.einsum("kab,kbc->kac", M, F[k])
                              - np.einsum("kab,kbc->kac", F[k], D))
    lo = max(asm.interior.start, 2) - 2
    hi = min(asm.interior.stop, n - 2) - 2
    return float(np.max(np.abs(resid[lo:hi])))


def inner_arc_solutions(rp: RamifiedPoint, omega: complex, cfg: DomainConfig,
                        r=None, tol: float = 1e-12):
    """Trace one connecting arc, seeded from s1 towards s2 (towards i s1 at
    eps = 0, where they coincide), and solve for both Picard solutions.

    Returns (p_i_sol on the arc, p_j_sol on the reversed-negated arc).
    Raises NoOverlap at mu = eps = 0, where no seed direction exists.
    """
    if rp.case == "origin":
        raise NoOverlap("no seed direction at mu = eps = 0")
    d = 1j * rp.s1 if rp.case == "confluent" else rp.s2 - rp.s1
    return _picard_pair(connecting_arc(rp, omega, cfg, rp.s1 + 1e-4 * (d / abs(d))), r, tol)


def outer_arc_solutions(rp: RamifiedPoint, omega: complex, cfg: DomainConfig,
                        r=None, tol: float = 1e-12):
    """Picard solutions on an outer arc (connection s1 -> -s1), seeded at an
    interior point of the outer region from a coarse region classification.
    """
    pts, labels = classify_regions(rp, omega, cfg, grid=(41, 41))
    outer = pts[labels == REGION_OUTER]
    if len(outer) == 0:
        raise NoOverlap("no outer-region points found on the seed grid")
    return _picard_pair(connecting_arc(rp, omega, cfg, complex(outer[len(outer) // 2])),
                        r, tol)


def _picard_pair(arc: TrajectoryRecord, r: CSeries | None, tol: float):
    """The Picard solutions on an arc and on its reversed-negated arc."""
    return solve_p(arc, r, tol=tol), solve_p(arc.reversed_negated(), r, tol=tol)


# ---------------------------------------------------------------------------
# Gamma-function connection coefficients


def _lg(z: complex) -> complex:
    try:
        return log_gamma(z)
    except PoleAtNonPositiveInteger as exc:
        raise GammaPole(str(exc)) from exc


def kappa_formulas(rp: RamifiedPoint, Q: complex):
    """The canonical (free germ set to zero) connection coefficients.

    With n_i = s_i/sqrt(eps), a = (n1-n2)/2, b = (n1+n2)/2 and the
    branch-tracked logarithms carried by ``rp``:

        kappa_I = sqrt(n1 n2) Gamma(n1) Gamma(n2)
                  / (Gamma(1+b-Q) Gamma(b+Q)) * exp(2b log b - n1 log n1 - n2 log n2)
        kappa_O = 2 pi Gamma(n1) Gamma(1+n1)
                  / (Gamma(1+a-Q) Gamma(1+b-Q) Gamma(a+Q) Gamma(b+Q))
                  * exp(2a log a + 2b log b - 2 n1 log n1)
        kappa   = kappa_O / kappa_I (evaluated directly from its own form).

    Everything is accumulated in log space before a single exponential, so
    moderate parameter ranges stay far from overflow.  Only a generic point
    has the tracked logs: eps = 0, mu^2 = eps and the origin raise
    GammaPole, since some n_i, a or b is infinite or zero there.
    """
    if rp.case != "generic":
        raise GammaPole(f"kappa formulas need a generic point, not the {rp.case} case")
    l1, l2, la, lb = rp.log_n1, rp.log_n2, rp.log_a, rp.log_b
    n1, n2, a, b = rp.n1, rp.n2, rp.a, rp.b
    log_2pi = math.log(2.0 * math.pi)
    # the seven distinct Gamma arguments, each evaluated once
    g_n1, g_n2, g_1n1 = _lg(n1), _lg(n2), _lg(1.0 + n1)
    g_1bQ, g_bQ = _lg(1.0 + b - Q), _lg(b + Q)
    g_1aQ, g_aQ = _lg(1.0 + a - Q), _lg(a + Q)
    log_kI = (0.5 * (l1 + l2) + g_n1 + g_n2 - g_1bQ - g_bQ
              + 2.0 * b * lb - n1 * l1 - n2 * l2)
    log_kO = (log_2pi + g_n1 + g_1n1 - g_1aQ - g_1bQ - g_aQ - g_bQ
              + 2.0 * a * la + 2.0 * b * lb - 2.0 * n1 * l1)
    log_k = (log_2pi + 0.5 * (l1 - l2) + g_n1 - g_n2 - g_1aQ - g_aQ
             + 2.0 * a * la - n1 * l1 + n2 * l2)
    return cmath.exp(log_kI), cmath.exp(log_kO), cmath.exp(log_k)


# ---------------------------------------------------------------------------
# connection matrices


@dataclass(frozen=True)
class ConnectionData:
    """Connection matrices and coefficients at one ramified parameter point."""

    rp: RamifiedPoint
    Q: complex
    gamma: complex
    kappa_I: complex
    kappa_O: complex
    kappa: complex
    C0: np.ndarray
    C1: np.ndarray
    C2: np.ndarray
    C3: np.ndarray
    C4: np.ndarray
    N: np.ndarray
    N1: np.ndarray
    N2: np.ndarray

    def monodromy(self) -> np.ndarray:
        """M = C3 C1 N C2 C3^{-1}, the monodromy around both finite points."""
        return self.C3 @ self.C1 @ self.N @ self.C2 @ np.linalg.inv(self.C3)

    def residuals(self) -> dict:
        """Identity defects, each scaled by the magnitude the identity has
        to cancel (the honest measure when terms like e^{2 a pi i} are
        exponentially large)."""
        mono = self.monodromy()
        tr = mono[0, 0] + mono[1, 1]
        tr_scale = max(1.0, float(np.max(np.abs(self.C1))) * float(np.max(np.abs(self.N)))
                       * float(np.max(np.abs(self.C2))))
        c2, c3 = self.C2[1, 0], self.C3[0, 1]
        lhs = self.C3 @ self.C1
        rhs = self.C0 @ self.C4
        mat_scale = max(1.0,
                        float(np.max(np.abs(self.C3))) * float(np.max(np.abs(self.C1))),
                        float(np.max(np.abs(self.C0))) * float(np.max(np.abs(self.C4))))
        return {
            "trace_identity": abs(tr - self.gamma) / tr_scale,
            "c2c3": abs(c2 * c3 - 1.0) / max(1.0, abs(c2), abs(c3)),
            "c3c1_c0c4": float(np.max(np.abs(lhs - rhs))) / mat_scale,
            "N_product": float(np.max(np.abs(self.N - self.N1 @ self.N2)))
            / max(1.0, float(np.max(np.abs(self.N)))),
            "kappa_ratio": abs(self.kappa - self.kappa_O / self.kappa_I)
            / max(1.0, abs(self.kappa)),
        }


def connection_data(rp: RamifiedPoint, Q: complex) -> ConnectionData:
    """The connection bundle at a ramified point for gamma = 2 cos 2 pi Q:
    kappa_formulas(rp, Q), the matrices C0..C4 in (a, kappa, gamma) and the
    formal monodromies N = N1 N2."""
    gamma = 2.0 * cmath.cos(2.0 * math.pi * Q)
    kI, kO, k = kappa_formulas(rp, Q)
    a = rp.a
    ea = cmath.exp(2j * math.pi * a)
    ea_inv = cmath.exp(-2j * math.pi * a)
    kinv = 1.0 / k
    C0 = np.array([[1.0, 1j * gamma], [0.0, 1.0]])
    C1 = np.array([[1.0, 1j * kinv * (gamma - ea - ea_inv)], [0.0, 1.0]])
    C2 = np.array([[1.0, 0.0], [-1j * k * ea, 1.0]])
    C3 = np.array([[1.0, 1j * kinv * ea_inv], [0.0, kinv]])
    C4 = np.array([[1.0, -1j * kinv * ea], [0.0, kinv]])
    n1, n2 = rp.n1, rp.n2
    N1 = np.diag([cmath.exp(1j * math.pi * n1), cmath.exp(-1j * math.pi * n1)])
    N2 = np.diag([cmath.exp(-1j * math.pi * n2), cmath.exp(1j * math.pi * n2)])
    N = np.diag([ea, ea_inv])
    return ConnectionData(rp, Q, gamma, kI, kO, k, C0, C1, C2, C3, C4, N, N1, N2)


# ---------------------------------------------------------------------------
# cocycle verification


def _rel(x: complex, y: complex) -> float:
    return abs(x - y) / max(1.0, abs(x), abs(y))


def verify_cocycles(rp_bar: RamifiedPoint, Q: complex) -> dict:
    """Residuals of the continuation identities at one ramified point.

    Builds the sigma image (one turn of mu around sqrt(eps)) and the rho
    image (simultaneous turn of mu and eps) by exact sign flips and
    +-i pi shifts of the tracked data, and evaluates:

      * the kappa_O cocycle over sigma,
      * invariance of kappa_I under rho,
      * the gamma relation 2 cos 2 pi a - kappa_bar kappa_tilde e^{-2 a pi i}
        = gamma (the rho cocycle),
      * the internal connection-matrix identities.
    """
    rp_sigma = rp_bar.sigma_image()
    rp_rho = rp_bar.rho_image()

    data = connection_data(rp_bar, Q)
    gamma, kI_b, kO_b, k_b = data.gamma, data.kappa_I, data.kappa_O, data.kappa
    kI_s, kO_s, k_s = kappa_formulas(rp_sigma, Q)
    kI_r, kO_r, k_r = kappa_formulas(rp_rho, Q)

    e2 = cmath.exp(1j * math.pi * rp_bar.n2)
    eq11_rhs = k_s * k_b * e2 / (e2 - 1.0 / e2)
    a_bar = rp_bar.a
    e_a = cmath.exp(-2j * math.pi * a_bar)
    cos_term = cmath.exp(2j * math.pi * a_bar) + e_a
    kk_term = k_b * k_r * e_a
    eq12_scale = max(1.0, abs(cos_term), abs(kk_term))

    res = data.residuals()
    res.update({
        "eq11": _rel(kO_b, eq11_rhs),
        "eq11_sigma_invariance": _rel(kO_b, kO_s),
        "eq11b": _rel(kI_b, kI_r),
        "eq12": abs(cos_term - kk_term - gamma) / eq12_scale,
        "sigma_fixes_s1": abs(rp_sigma.s1 - rp_bar.s1),
        "sigma_flips_s2": abs(rp_sigma.s2 + rp_bar.s2),
        "rho_flips_a": abs(rp_rho.a + a_bar),
    })
    return res


KAPPA_Q_ABS = 0.3     # batch_verify draws Q from the square |Re Q|, |Im Q| <= KAPPA_Q_ABS,
KAPPA_MU_ABS = 0.1    # ... mu with |mu| <= KAPPA_MU_ABS,
KAPPA_EPS_ABS = (1e-4, 1e-2)  # ... eps with |eps| log-uniform in this range,
KAPPA_MIN_SEP = 0.15  # ... and (mu, eps) with |mu^2 - eps| >= KAPPA_MIN_SEP max(|mu|^2, |eps|)


def batch_verify(n_samples: int, seed: int = 0) -> dict:
    """Cocycle residuals over random ramified samples.

    Samples stay away from the ramification locus (|mu^2 - eps| bounded
    below relative to scale) and from Gamma poles; the report carries the
    per-key max and mean plus the pole-skip fraction.
    """
    rng = np.random.default_rng(seed)
    rows: list[dict] = []
    poles = 0
    attempts = 0
    while len(rows) < n_samples and attempts < 50 * n_samples:
        attempts += 1
        mu = (KAPPA_MU_ABS * math.sqrt(rng.uniform(0.01, 1.0))
              * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        eps_mod = math.exp(rng.uniform(math.log(KAPPA_EPS_ABS[0]), math.log(KAPPA_EPS_ABS[1])))
        eps = eps_mod * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if abs(mu * mu - eps) < KAPPA_MIN_SEP * max(abs(mu) ** 2, abs(eps)):
            continue
        Q = KAPPA_Q_ABS * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        rp = RamifiedPoint.from_values(mu, eps)
        try:
            rows.append(verify_cocycles(rp, Q))
        except GammaPole:
            poles += 1
    keys = [k for k in rows[0] if not k.startswith("sigma") and not k.startswith("rho")] \
        if rows else []
    summary = {k: {"max": max(r[k] for r in rows), "mean": sum(r[k] for r in rows) / len(rows)}
               for k in keys} if rows else {}
    return {
        "samples": len(rows),
        "pole_fraction": poles / max(1, attempts),
        "residuals": summary,
        "rows": rows,
    }
