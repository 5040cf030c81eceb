import cmath
import math
import warnings

import numpy as np
import pytest

from resunfold import normalization
from resunfold.algebra import CSeries
from resunfold.geometry import DomainConfig, RamifiedPoint, trace_trajectory
from resunfold.normalization import (
    ContractionViolated,
    GammaPole,
    NoOverlap,
    assemble_F,
    batch_verify,
    connecting_arc,
    connection_data,
    diagonalization_residual,
    inner_arc_solutions,
    kappa_formulas,
    outer_arc_solutions,
    _backward_recurrence,
    _running_simpson,
    p_equation_residual,
    solve_p,
    verify_cocycles,
)
from resunfold.normal_forms import q_from_gamma

GENERIC_MU, GENERIC_EPS = 0.05, 0.0016


@pytest.fixture(scope="module")
def generic_arc_solutions():
    rp = RamifiedPoint.from_values(GENERIC_MU, GENERIC_EPS)
    cfg = DomainConfig(trace_step=5e-3)
    sol_i, sol_j = inner_arc_solutions(rp, 1.0, cfg, r=None)
    return rp, sol_i, sol_j


@pytest.fixture(scope="module")
def parabolic_arc_solutions():
    rp = RamifiedPoint.from_values(0.0, 0.0)
    cfg = DomainConfig(trace_step=0.01, parabolic_capture=0.02, xi_max=450.0)
    arc = connecting_arc(rp, 1.0, cfg, 0.3j)
    sol_i = solve_p(arc, None)
    sol_j = solve_p(arc.reversed_negated(), None)
    return rp, sol_i, sol_j


# ---------------------------------------------------------------------------
# Picard solver


def test_picard_contraction_and_bounds(generic_arc_solutions):
    _, sol_i, _ = generic_arc_solutions
    ratios = sol_i.contraction_ratios
    assert len(ratios) >= 1
    assert float(np.max(ratios)) <= 0.55
    assert sol_i.sup_norm() <= 1.0
    assert abs(sol_i.terminal_value()) < 1e-8


def test_picard_ode_residual(generic_arc_solutions):
    _, sol_i, sol_j = generic_arc_solutions
    assert p_equation_residual(sol_i) < 1e-4
    assert p_equation_residual(sol_j) < 1e-4


def test_reversed_arc_keeps_the_exact_step(generic_arc_solutions):
    """The p_j solve runs on the reversed-negated arc with the trace step
    itself, not a difference of two xi samples, and xi is its grid."""
    _, sol_i, sol_j = generic_arc_solutions
    for rec in (sol_i.trajectory, sol_j.trajectory):
        assert rec.dxi == 5e-3
        assert np.array_equal(rec.xi, np.arange(len(rec.s)) * rec.dxi)
    assert sol_j.trajectory.rp is sol_i.trajectory.rp


def test_picard_against_ode_shooting(parabolic_arc_solutions):
    """Independent oracle: integrate the p ODE backward from the
    equilibrium end with RK4 and compare to the fixed point."""
    rp, sol_i, _ = parabolic_arc_solutions
    traj = sol_i.trajectory
    s, xi = traj.s, traj.xi
    h = traj.dxi
    n = len(s)
    p_ode = np.zeros(n, dtype=complex)

    def rhs(p, sv):
        chi_v = sv * sv / 4.0
        return chi_v * (4.0 / (sv * sv) * p + (1.0 - p * p) / (2.0 * sv))

    # backward sweep (stable direction for the bounded solution)
    for k in range(n - 1, 0, -1):
        sv1, sv0 = s[k], s[k - 1]
        p = p_ode[k]
        k1 = rhs(p, sv1)
        k2 = rhs(p - 0.5 * h * k1, 0.5 * (sv0 + sv1))
        k3 = rhs(p - 0.5 * h * k2, 0.5 * (sv0 + sv1))
        k4 = rhs(p - h * k3, sv0)
        p_ode[k - 1] = p - (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    lo, hi = int(0.2 * n), int(0.8 * n)
    assert np.max(np.abs(p_ode[lo:hi] - sol_i.p[lo:hi])) < 1e-5


CRIT6_R = CSeries([0.1, 0.05, -0.02j], 24)


@pytest.fixture(scope="module")
def r_arc_solutions():
    rp = RamifiedPoint.from_values(GENERIC_MU, GENERIC_EPS)
    return inner_arc_solutions(rp, 1.0, DomainConfig(trace_step=5e-3), r=CRIT6_R)


def test_picard_with_nonzero_r(r_arc_solutions):
    sol_i, sol_j = r_arc_solutions
    assert float(np.max(sol_i.contraction_ratios)) <= 0.55
    assert sol_i.sup_norm() <= 1.0
    assert p_equation_residual(sol_i) < 1e-4
    asm = assemble_F(sol_i, sol_j)
    assert asm.det_rel_std < 1e-6
    assert diagonalization_residual(asm) < 1e-6


def test_residual_checks_read_r_from_the_solve(r_arc_solutions):
    """The r of the solve reaches both residual checks without being passed
    again: checked with r = 0 instead, they read about 0.1 and 2e-3."""
    sol_i, sol_j = r_arc_solutions
    assert sol_i.r is CRIT6_R and sol_j.r is CRIT6_R
    asm = assemble_F(sol_i, sol_j)
    assert asm.r is CRIT6_R
    assert p_equation_residual(sol_i) < 1e-4 and p_equation_residual(sol_j) < 1e-4
    assert diagonalization_residual(asm) < 1e-6


def test_assembly_rejects_solutions_with_different_r(generic_arc_solutions, r_arc_solutions):
    """Two solutions on one arc pair, solved with different r, have no common F."""
    _, sol_i, sol_j = generic_arc_solutions
    sol_j_r = solve_p(sol_i.trajectory.reversed_negated(), CRIT6_R)
    with pytest.raises(NoOverlap, match="different r"):
        assemble_F(sol_i, sol_j_r)
    with pytest.raises(NoOverlap, match="different r"):
        assemble_F(r_arc_solutions[0], sol_j)
    other_r = CSeries([0.1, 0.05, 0.02j], 24)
    with pytest.raises(NoOverlap, match="different r"):
        assemble_F(r_arc_solutions[0], solve_p(sol_j_r.trajectory, other_r))


@pytest.mark.parametrize("n", [9, 10])
def test_running_simpson_exact_on_quadratics(n):
    """The 3-point rule is exact for quadratics on odd and even sample counts."""
    h = 0.37
    xi = np.arange(n) * h
    f = (0.5 - 2.0j) + (1.5 + 0.25j) * xi - (0.75 - 1.0j) * xi ** 2
    exact = (0.5 - 2.0j) * xi + (1.5 + 0.25j) * xi ** 2 / 2 - (0.75 - 1.0j) * xi ** 3 / 3
    assert float(np.max(np.abs(_running_simpson(f, h) - exact))) < 1e-12


def test_backward_recurrence_matches_loop(rng):
    """Blocked E^-k weighted sums against the plain recurrence H_j = c_j + E H_{j+1};
    |E| = e^-0.5 gives blocks of 400 samples, so 2,000 samples need five."""
    log_E = -0.5 + 0.3j
    n = 2000
    c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    E = cmath.exp(log_E)
    ref = np.empty(n, dtype=complex)
    acc = 0.0
    for j in range(n - 1, -1, -1):
        acc = c[j] + E * acc
        ref[j] = acc
    H = _backward_recurrence(log_E, n)(c)
    assert float(np.max(np.abs(H - ref))) <= 1e-13 * float(np.max(np.abs(ref)))


def test_solve_p_requires_convergent_trajectory():
    rp = RamifiedPoint.from_values(GENERIC_MU, GENERIC_EPS)
    rec = trace_trajectory(0.2, 1.0, rp, DomainConfig(xi_max=0.5))
    assert rec.terminal == "max-length"
    with pytest.raises(ValueError):
        solve_p(rec, None)


def test_solve_p_requires_re_omega_positive():
    """A backward trace is the trace of -omega; its integral operator
    diverges, so solve_p refuses the record even though it converged."""
    rp = RamifiedPoint.from_values(GENERIC_MU, GENERIC_EPS)
    rec = trace_trajectory(0.2, -1.0, rp, DomainConfig())
    assert rec.terminal == "converged" and rec.target == rp.s1
    with pytest.raises(ValueError, match="Re omega > 0"):
        solve_p(rec, None)


def test_solve_p_contraction_violation():
    """An r far outside the feasibility inequality breaks the contraction."""
    rp = RamifiedPoint.from_values(GENERIC_MU, GENERIC_EPS)
    rec = trace_trajectory(0.2, 1.0, rp, DomainConfig())
    big_r = CSeries([40.0], 8)
    with pytest.raises(ContractionViolated):
        solve_p(rec, big_r)


# ---------------------------------------------------------------------------
# assembled transformation


def test_assembly_generic(generic_arc_solutions):
    _, sol_i, sol_j = generic_arc_solutions
    asm = assemble_F(sol_i, sol_j)
    assert asm.det_rel_std < 1e-6
    assert diagonalization_residual(asm) < 1e-6
    assert np.max(np.abs(sol_i.p)) <= 1.0 and np.max(np.abs(sol_j.p)) <= 1.0


def test_assembly_parabolic(parabolic_arc_solutions):
    _, sol_i, sol_j = parabolic_arc_solutions
    asm = assemble_F(sol_i, sol_j, interior=0.1)
    assert asm.det_rel_std < 1e-6
    assert diagonalization_residual(asm) < 1e-6


def test_assembly_rejects_mismatched_arcs(generic_arc_solutions):
    _, sol_i, _ = generic_arc_solutions
    with pytest.raises(NoOverlap):
        assemble_F(sol_i, sol_i)


def test_assembly_endpoint_normalization(generic_arc_solutions):
    """F tends to diag(1, kappa) at the repelling end and diag(kappa, 1)
    at the attracting end: the off-diagonal entries vanish there because
    the field vanishes at both equilibria and the tail weight damps the
    mid-arc contribution."""
    _, sol_i, sol_j = generic_arc_solutions
    asm = assemble_F(sol_i, sol_j)
    k = asm.kappa_estimate
    F0, F1 = asm.F[0], asm.F[-1]
    assert abs(F0[0, 1]) < 1e-8 and abs(F0[1, 0]) < 1e-8
    assert abs(F1[0, 1]) < 1e-8 and abs(F1[1, 0]) < 1e-8
    assert abs(F0[0, 0] - 1.0) < 1e-10 and abs(F0[1, 1] - k) < 1e-8
    assert abs(F1[1, 1] - 1.0) < 1e-10 and abs(F1[0, 0] - k) < 1e-8


@pytest.fixture(scope="module")
def outer_arc_assembly():
    rp = RamifiedPoint.from_values(GENERIC_MU, GENERIC_EPS)
    cfg = DomainConfig(trace_step=5e-3)
    sol_i, sol_j = outer_arc_solutions(rp, 1.0, cfg)
    return rp, assemble_F(sol_i, sol_j)


def test_outer_arc_assembly(outer_arc_assembly):
    rp, asm = outer_arc_assembly
    assert abs(asm.arc.s[0] - rp.s1) < 1e-6
    assert abs(asm.arc.s[-1] + rp.s1) < 1e-6
    assert asm.det_rel_std < 1e-6
    assert diagonalization_residual(asm) < 1e-6


def test_assembled_kappas_match_gamma_formulas(outer_arc_assembly):
    """Cross-method oracle: the base model has gamma = 2 (Q = 0) and its
    connection coefficients realize the canonical Gamma-function closed
    forms, so the determinants of the assembled diagonalizers must equal
    the formula values through a completely independent route."""
    rp, asm_outer = outer_arc_assembly
    cfg = DomainConfig(trace_step=5e-3)
    sol_i, sol_j = inner_arc_solutions(rp, 1.0, cfg)
    asm_inner = assemble_F(sol_i, sol_j)
    kI_f, kO_f, k_f = kappa_formulas(rp, 0.0)
    assert abs(asm_inner.kappa_estimate - kI_f) < 1e-7
    assert abs(asm_outer.kappa_estimate - kO_f) < 1e-7
    assert abs(asm_outer.kappa_estimate / asm_inner.kappa_estimate - k_f) < 1e-7


def test_kappa_inner_continuation_identity():
    """kappa_I is invariant under the simultaneous parameter turn: the
    arcs at the continued point are traced and solved independently and
    the assembled determinants agree."""
    rp = RamifiedPoint.from_values(0.06, 0.001)
    cfg = DomainConfig(trace_step=5e-3)
    si, sj = inner_arc_solutions(rp, 1.0, cfg)
    k_base = assemble_F(si, sj).kappa_estimate
    rho = rp.rho_image()
    si_r, sj_r = inner_arc_solutions(rho, 1.0, cfg)
    k_rho = assemble_F(si_r, sj_r).kappa_estimate
    assert abs(k_base - k_rho) < 1e-9 * max(1.0, abs(k_base))


# ---------------------------------------------------------------------------
# kappa formulas and connection matrices


def test_kappa_ratio_identity(rng):
    for _ in range(100):
        mu = 0.1 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eps = 0.005 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(eps) < 1e-4 or abs(mu * mu - eps) < 0.2 * max(abs(mu) ** 2, abs(eps)):
            continue
        rp = RamifiedPoint.from_values(mu, eps)
        Q = 0.2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        try:
            kI, kO, k = kappa_formulas(rp, Q)
        except GammaPole:
            continue
        assert abs(k - kO / kI) < 1e-10 * max(1.0, abs(k))


@pytest.mark.parametrize("mu, eps, Q", [
    (0.09, 0.0049, 0.1),
    (0.05 + 0.02j, 0.0016 + 0.0005j, 0.2 - 0.1j),
    (0.1j, 0.003 - 0.001j, -0.15 + 0.05j),
    (-0.07 + 0.03j, 0.002j, 0.25),
    (0.03 - 0.05j, 0.0003 + 0.004j, -0.2j),
])
def test_kappa_formulas_mpmath_oracle(mu, eps, Q):
    """The three kappa closed forms against the same Gamma products in
    mpmath (30 digits), n_i, a, b and their principal logarithms rebuilt
    from (mu, eps) on the base sheet."""
    mpmath = pytest.importorskip("mpmath")
    mp, G = mpmath.mp, mpmath.gamma
    with mp.workdps(30):
        mu_, eps_, Q_ = mp.mpc(mu), mp.mpc(eps), mp.mpc(Q)
        se = mp.sqrt(eps_)
        n1, n2 = mp.sqrt(mu_ + se) / se, mp.sqrt(mu_ - se) / se
        a, b = (n1 - n2) / 2, (n1 + n2) / 2
        l1, l2, la, lb = mp.log(n1), mp.log(n2), mp.log(a), mp.log(b)
        kI = (mp.exp((l1 + l2) / 2) * G(n1) * G(n2) / (G(1 + b - Q_) * G(b + Q_))
              * mp.exp(2 * b * lb - n1 * l1 - n2 * l2))
        kO = (2 * mp.pi * G(n1) * G(1 + n1)
              / (G(1 + a - Q_) * G(1 + b - Q_) * G(a + Q_) * G(b + Q_))
              * mp.exp(2 * a * la + 2 * b * lb - 2 * n1 * l1))
        k = (2 * mp.pi * mp.exp((l1 - l2) / 2) * G(n1) / (G(n2) * G(1 + a - Q_) * G(a + Q_))
             * mp.exp(2 * a * la - n1 * l1 + n2 * l2))
        refs = [complex(x) for x in (kI, kO, k)]
    got = kappa_formulas(RamifiedPoint.from_values(mu, eps), Q)
    for value, ref in zip(got, refs):
        assert abs(value - ref) <= 1e-12 * abs(ref)


def test_kappa_stirling_limit_inner():
    rp = RamifiedPoint.from_values(0.09, 1e-6)
    kI, _, _ = kappa_formulas(rp, 0.1)
    assert abs(kI - 1.0) < 1e-3


def test_kappa_stirling_limit_outer():
    rp = RamifiedPoint.from_values(1e-3 * cmath.exp(0.7j), 1e-6)
    _, kO, _ = kappa_formulas(rp, 0.03)
    assert abs(kO - 1.0) < 1e-2


def test_kappa_pole_raises():
    rp = RamifiedPoint.from_values(0.05, 0.0016)
    # b + Q a non-positive integer triggers the pole
    Q = -rp.b
    with pytest.raises(GammaPole):
        kappa_formulas(rp, Q)


@pytest.mark.parametrize("mu, eps", [
    (0.1, 0.01),            # mu = +sqrt(eps)
    (-0.1, 0.01),           # mu = -sqrt(eps)
    (0.05 + 0.02j, (0.05 + 0.02j) ** 2),
    (0.05, 0.0),
    (0.0, 0.0),
])
def test_kappa_formulas_refuse_degenerate_points(mu, eps):
    """Off the generic case some n_i, a or b is zero or infinite: a
    GammaPole, not NaN and a RuntimeWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GammaPole):
            kappa_formulas(RamifiedPoint.from_values(mu, eps), 0.1)


def test_connection_matrix_shapes(rng):
    rp = RamifiedPoint.from_values(0.03 + 0.02j, 0.002 - 0.001j)
    data = connection_data(rp, 0.1 - 0.05j)
    for C in (data.C0, data.C1):
        assert C[1, 0] == 0.0 and C[0, 0] == 1.0 and C[1, 1] == 1.0
    assert data.C2[0, 1] == 0.0
    res = data.residuals()
    assert res["trace_identity"] < 1e-10
    assert res["c2c3"] < 1e-12
    assert res["c3c1_c0c4"] < 1e-10
    assert res["N_product"] < 1e-10


def test_n1_p_conjugation_is_inverse():
    rp = RamifiedPoint.from_values(0.03, 0.001)
    data = connection_data(rp, 1.0 / 6.0)  # gamma = 1
    P = np.array([[0.0, 1.0], [1.0, 0.0]])
    for N in (data.N1, data.N2):
        assert np.max(np.abs(P @ N @ P - np.linalg.inv(N))) < 1e-12 * \
            float(np.max(np.abs(N)))


def test_connection_data_carries_kappa_formulas():
    rp = RamifiedPoint.from_values(0.03 + 0.02j, 0.002 - 0.001j)
    Q = 0.12 - 0.07j
    data = connection_data(rp, Q)
    assert (data.kappa_I, data.kappa_O, data.kappa) == kappa_formulas(rp, Q)
    assert data.Q == Q and data.gamma == 2.0 * cmath.cos(2.0 * math.pi * Q)
    assert data.rp is rp


def _counting(monkeypatch, name):
    """Replace normalization.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(normalization, name)
    monkeypatch.setattr(normalization, name, lambda *a: calls.append(a) or inner(*a))
    return calls


def test_kappa_formulas_evaluates_each_gamma_argument_once(monkeypatch):
    """kappa_I, kappa_O and kappa share seven distinct Gamma arguments."""
    calls = _counting(monkeypatch, "log_gamma")
    kappa_formulas(RamifiedPoint.from_values(0.03 + 0.02j, 0.002 - 0.001j), 0.12 - 0.07j)
    assert len(calls) == 7
    assert len(set(calls)) == 7


def test_verify_cocycles_evaluates_kappa_once_per_point(monkeypatch):
    """One kappa_formulas call each at the base point and its sigma and rho images."""
    calls = _counting(monkeypatch, "kappa_formulas")
    verify_cocycles(RamifiedPoint.from_values(0.03 + 0.02j, 0.002 - 0.001j), 0.12 - 0.07j)
    assert len(calls) == 3


def test_verify_cocycles_single_point():
    rp = RamifiedPoint.from_values(0.03 + 0.02j, 0.002 - 0.001j)
    res = verify_cocycles(rp, 0.12 - 0.07j)
    for key in ("eq11", "eq11b", "eq12", "trace_identity", "c2c3",
                "c3c1_c0c4", "kappa_ratio"):
        assert res[key] < 1e-10, (key, res[key])
    assert res["sigma_fixes_s1"] == 0.0
    assert res["sigma_flips_s2"] == 0.0
    assert res["rho_flips_a"] < 1e-14


def test_batch_cocycles(rng):
    rep = batch_verify(50, seed=7)
    assert rep["samples"] == 50
    assert rep["pole_fraction"] < 0.10
    for key, stats in rep["residuals"].items():
        assert stats["max"] < 1e-8, (key, stats)


def test_batch_verify_skips_gamma_poles(monkeypatch):
    """A sample that hits a Gamma pole is skipped: the report still holds
    n samples, and its pole fraction is poles over attempts."""
    calls = []

    def verify(rp, Q):
        calls.append(Q)
        if len(calls) % 3 == 0:
            raise GammaPole("pole")
        return {"eq11": float(len(calls))}
    monkeypatch.setattr(normalization, "verify_cocycles", verify)
    # every attempt reaches verify_cocycles, so attempts == len(calls)
    monkeypatch.setattr(normalization, "KAPPA_MIN_SEP", 0.0)
    rep = batch_verify(10, seed=3)
    assert rep["samples"] == len(rep["rows"]) == 10
    assert len(calls) == 14  # poles at calls 3, 6, 9 and 12
    assert rep["pole_fraction"] == 4 / 14
    assert rep["residuals"]["eq11"]["max"] == 14.0


def test_q_from_gamma_branches():
    g = 1.2 - 0.4j
    Q = q_from_gamma(g)
    assert abs(2.0 * cmath.cos(2 * math.pi * Q) - g) < 1e-12
    Q2 = q_from_gamma(g, sign=-1, sheet=1)
    assert abs(2.0 * cmath.cos(2 * math.pi * Q2) - g) < 1e-12
