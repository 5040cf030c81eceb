"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are pinned here and
nowhere else.
"""

import cmath
import math
import time

import numpy as np

from conftest import model_system, random_gauge, random_series, random_system, stability_sweep
from resunfold.algebra import CSeries, CSeriesMat2
from resunfold.cli import main as cli_main
from resunfold.geometry import (
    REGION_INNER,
    REGION_INNER_P,
    DomainConfig,
    OnCut,
    RamifiedPoint,
    bifurcation_sets,
    classify_regions,
    count_components,
    theta,
    theta_deriv,
)
from resunfold.invariants import (
    ReducedSystem,
    extract_formal,
    prenormalize,
    step2_growth_data,
)
from resunfold.monodromy import gamma_closed_form, gamma_numeric
from resunfold.normal_forms import (
    build_b_form,
    build_q_form,
    gamma_of_b,
    gamma_of_q,
)
from resunfold.normalization import (
    assemble_F,
    batch_verify,
    connecting_arc,
    diagonalization_residual,
    inner_arc_solutions,
    kappa_formulas,
    p_equation_residual,
    solve_p,
)
from resunfold.system import ParametricSystem, gauge_apply


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def small_invariants(rng):
    from resunfold.invariants import FormalInvariants
    return FormalInvariants(
        0.02 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        0.02 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        1.0 + 0.2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


def test_criterion_01_closed_form_cross_validation():
    """50 random linear systems: numeric vs closed-form gamma, < 30 s."""
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        A0 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        A1 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        roots = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        rows = [[[A0[i, j], A1[i, j]] for j in range(2)] for i in range(2)]
        s = ParametricSystem(roots[0] * roots[1], -(roots[0] + roots[1]),
                             CSeriesMat2.from_rows(rows, 8))
        res = gamma_numeric(s, tol=1e-9)
        worst = max(worst, abs(res.gamma - gamma_closed_form(A0, A1)))
    elapsed = time.time() - t0
    report("criterion 1 (closed-form cross-validation)",
           worst < 1e-6 and elapsed < 30.0,
           f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_gauge_invariance():
    """25 random (system, degree-3 gauge) pairs preserve all invariants."""
    rng = np.random.default_rng(102)
    worst_formal = 0.0
    worst_gamma = 0.0
    for _ in range(25):
        s = random_system(rng, coeff_scale=0.25, root_scale=0.12)
        T = random_gauge(rng, scale=0.03)
        g = gauge_apply(T, s)
        Fa, Fb = extract_formal(s), extract_formal(g)
        worst_formal = max(
            worst_formal,
            abs(Fa.h0 - Fb.h0), abs(Fa.h1 - Fb.h1),
            abs(Fa.lambda0 - Fb.lambda0), abs(Fa.lambda1 - Fb.lambda1),
            abs(Fa.alpha0 - Fb.alpha0), abs(Fa.alpha1 - Fb.alpha1))
        ga = gamma_numeric(s, Fa, tol=1e-9, validity_radius=1.0)
        gb = gamma_numeric(g, Fb, tol=1e-9, validity_radius=1.0)
        worst_gamma = max(worst_gamma, abs(ga.gamma - gb.gamma))
    report("criterion 2 (gauge invariance of h, lambda, alpha, gamma)",
           worst_formal < 1e-12 and worst_gamma < 1e-6,
           f"formal {worst_formal:.2e}, gamma {worst_gamma:.2e}")


def test_criterion_03_universal_unfolding_realization():
    """q-form gammas match -2 cos(pi sqrt(1+4q)); b-form cross-check."""
    rng = np.random.default_rng(103)
    worst_q = 0.0
    for q in (-0.25, 0.0, -3.0 / 16.0, 0.75):
        for _ in range(5):
            F = small_invariants(rng)
            res = gamma_numeric(build_q_form(F, q), tol=1e-9)
            worst_q = max(worst_q, abs(res.gamma - gamma_of_q(q)))
    worst_b = 0.0
    for _ in range(5):
        F = small_invariants(rng)
        b = 0.25 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        target = gamma_of_b(F, b)
        if abs(target + 2.0) < 1e-3:
            continue
        res = gamma_numeric(build_b_form(F, b), tol=1e-9)
        worst_b = max(worst_b, abs(res.gamma - target))
    report("criterion 3 (universal unfolding realization)",
           worst_q < 1e-6 and worst_b < 1e-6,
           f"q-form {worst_q:.2e}, b-form {worst_b:.2e}")


def test_criterion_04_theta_suite():
    rng = np.random.default_rng(104)
    worst_odd = 0.0
    worst_deriv = 0.0
    checked = 0
    while checked < 200:
        mu = 0.1 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eps = 0.01 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(eps) < 1e-3 * 0.01 or abs(mu * mu - eps) < 1e-3 * 0.01:
            continue
        rp = RamifiedPoint.from_values(mu, eps)
        s = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        if abs(s) < 0.15 or min(abs(s - r) for r in rp.roots()) < 0.1:
            continue
        try:
            t_pos = theta(s, rp)
            t_neg = theta(-s, rp)
            h = 1e-6
            fd = (theta(s + h, rp) - theta(s - h, rp)) / (2 * h)
        except OnCut:
            continue
        checked += 1
        worst_odd = max(worst_odd, abs(t_pos + t_neg))
        ref = theta_deriv(s, mu, eps)
        worst_deriv = max(worst_deriv, abs(fd - ref) / max(1.0, abs(ref)))

    mu = 0.07 + 0.02j
    s = 0.31 + 0.12j
    lim_eps = abs(theta(s, RamifiedPoint.from_values(mu, 1e-10))
                  - theta(s, RamifiedPoint.from_values(mu, 0.0)))
    eps_r = mu * mu * (1 + 1e-8)
    lim_ram = abs(theta(s, RamifiedPoint.from_values(mu, eps_r))
                  - theta(s, RamifiedPoint.from_values(mu, mu * mu)))
    report("criterion 4 (theta suite)",
           worst_odd < 1e-12 and worst_deriv < 1e-6
           and lim_eps < 1e-4 and lim_ram < 1e-4,
           f"odd {worst_odd:.2e}, d/ds {worst_deriv:.2e}, "
           f"limits {lim_eps:.2e}/{lim_ram:.2e}")


def test_criterion_05_prenormal_pipeline():
    rng = np.random.default_rng(105)
    # idempotence on prenormal inputs
    worst_idem = 0.0
    for _ in range(5):
        r0 = random_series(rng, 0.1, 5)
        rs = ReducedSystem(0.02, 0.05, r0)
        out = prenormalize(rs.to_system())
        worst_idem = max(worst_idem, float(np.max(np.abs(out.r.coeffs - r0.coeffs))))
    # recovery of r = 0 for gauge-perturbed models (perturbations drawn from
    # the lower-triangular subgroup the pipeline inverts; see README)
    m = model_system(0.05, 0.02, order=24)
    worst_rec = 0.0
    growth_ok = True
    for _ in range(10):
        T = random_gauge(rng, scale=0.03, lower_triangular=True)
        pert = gauge_apply(T, m)
        out = prenormalize(pert)
        worst_rec = max(worst_rec, float(np.max(np.abs(out.r.coeffs))),
                        abs(out.mu - 0.05), abs(out.epsilon - 0.02))
        ka, tnorm = step2_growth_data(pert)
        growth_ok &= all(tnorm[l] <= (2.0 * ka) ** l * (1 + 1e-12) + 1e-300
                         for l in range(1, 24))
    report("criterion 5 (prenormal pipeline)",
           worst_idem < 1e-12 and worst_rec < 1e-8 and growth_ok,
           f"idempotence {worst_idem:.2e}, recovery {worst_rec:.2e}, "
           f"growth bound {'ok' if growth_ok else 'violated'}")


def test_criterion_06_picard_solver():
    cfg = DomainConfig(trace_step=5e-3)
    worst_ratio = 0.0
    worst_residual = 0.0
    worst_end = 0.0
    worst_sup = 0.0
    for r in (None, CSeries([0.1, 0.05, -0.02j], 24)):
        rp = RamifiedPoint.from_values(0.05, 0.0016)
        sol_i, sol_j = inner_arc_solutions(rp, 1.0, cfg, r=r)
        for sol in (sol_i, sol_j):
            ratios = sol.contraction_ratios
            worst_ratio = max(worst_ratio, float(np.max(ratios)))
            worst_residual = max(worst_residual, p_equation_residual(sol))
            worst_end = max(worst_end, abs(sol.terminal_value()))
            worst_sup = max(worst_sup, sol.sup_norm())
    report("criterion 6 (integral-equation solver)",
           worst_ratio <= 0.55 and worst_residual < 1e-4
           and worst_end < 1e-6 and worst_sup <= 1.0,
           f"ratio {worst_ratio:.3f}, residual {worst_residual:.2e}, "
           f"p(s_i) {worst_end:.2e}, sup {worst_sup:.3f}")


def test_criterion_07_diagonalizer_assembly():
    # confluent case mu = eps = 0
    rp0 = RamifiedPoint.from_values(0.0, 0.0)
    cfg0 = DomainConfig(trace_step=0.01, parabolic_capture=0.02, xi_max=450.0)
    arc = connecting_arc(rp0, 1.0, cfg0, 0.3j)
    sol_i = solve_p(arc, None)
    sol_j = solve_p(arc.reversed_negated(), None)
    asm0 = assemble_F(sol_i, sol_j, interior=0.1)
    res0 = diagonalization_residual(asm0)
    # generic small (mu, eps)
    rp1 = RamifiedPoint.from_values(0.05, 0.0016)
    sol_i1, sol_j1 = inner_arc_solutions(rp1, 1.0, DomainConfig(trace_step=5e-3))
    asm1 = assemble_F(sol_i1, sol_j1)
    res1 = diagonalization_residual(asm1)
    report("criterion 7 (diagonalizer assembly)",
           asm0.det_rel_std < 1e-6 and asm1.det_rel_std < 1e-6
           and res0 < 1e-6 and res1 < 1e-6,
           f"det std {asm0.det_rel_std:.2e}/{asm1.det_rel_std:.2e}, "
           f"residual {res0:.2e}/{res1:.2e}")


def test_criterion_08_connection_calculus():
    rep = batch_verify(100, seed=108)
    worst = max(v["max"] for v in rep["residuals"].values())
    rp_i = RamifiedPoint.from_values(0.09, 1e-6)
    kI, _, _ = kappa_formulas(rp_i, 0.1)
    rp_o = RamifiedPoint.from_values(1e-3 * cmath.exp(0.7j), 1e-6)
    _, kO, _ = kappa_formulas(rp_o, 0.03)
    report("criterion 8 (connection calculus)",
           rep["samples"] == 100 and worst < 1e-8
           and abs(kI - 1.0) < 1e-3 and abs(kO - 1.0) < 1e-2,
           f"worst residual {worst:.2e}, kI limit {abs(kI - 1):.2e}, "
           f"kO limit {abs(kO - 1):.2e}")


def test_criterion_09_geometry_bifurcations():
    cfg = DomainConfig()
    # inner emptiness at the ramification locus
    _, lab_ram = classify_regions(RamifiedPoint.from_values(0.1, 0.01), 1.0,
                                  cfg, grid=(41, 41))
    inner_empty = int(np.sum(lab_ram == REGION_INNER)) == 0 and \
        int(np.sum(lab_ram == REGION_INNER_P)) == 0
    # two inner components at eps = 0
    rp3 = RamifiedPoint.from_values(0.04, 0.0)
    pts3, lab3 = classify_regions(rp3, 1.0, cfg, grid=(61, 61))
    comps = count_components(pts3, lab3, REGION_INNER, 61, 61,
                             exclude=[rp3.s1, -rp3.s1], exclude_radius=0.045)
    # hyperbola vertex
    so = bifurcation_sets(1.0, 801)["sigma_O"]
    vertex = so[np.argmin(np.abs(so))]
    # stability flip across sigma_I on a 100-point sweep
    eps = 0.01
    mu_star = -cmath.sqrt(eps) - eps * 0.5
    vals = stability_sweep([mu_star + 1j * u * eps
                            for u in np.linspace(-1e-2, 1e-2, 100)], eps)
    flips = int(np.sum(np.abs(np.diff(np.sign(vals))) > 0))
    report("criterion 9 (geometry and bifurcations)",
           inner_empty and comps == 2 and abs(vertex + 1.0) < 1e-3 and flips == 1,
           f"inner empty {inner_empty}, components {comps}, "
           f"vertex {vertex:.4f}, flips {flips}")


def test_criterion_10_equivalence_decision(tmp_path):
    rng = np.random.default_rng(110)
    m = model_system(0.05, 0.01)
    F = extract_formal(m)
    base_path = tmp_path / "base.json"
    m.save(base_path)

    ok_equiv = True
    for k in range(10):
        g = gauge_apply(random_gauge(rng, scale=0.03), m)
        p = tmp_path / f"equiv_{k}.json"
        g.save(p)
        rc = cli_main(["--out", str(tmp_path / f"oe{k}"), "--gamma-tol", "1e-8",
                       "equiv", str(base_path), str(p)])
        ok_equiv &= (rc == 0)

    # pairs with gamma perturbed by 1e-3 must be rejected
    from resunfold.normal_forms import gamma_of_q, q_from_gamma
    ok_not = True
    for k in range(10):
        q = 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        g_target = gamma_of_q(q) + 1e-3
        # q2 = Q (Q + 1) on the branch nearest q
        Qs = [q_from_gamma(g_target, sign, sheet) for sign in (1, -1) for sheet in (-1, 0, 1)]
        q2 = min((Q * (Q + 1) for Q in Qs), key=lambda v: abs(v - q))
        a = build_q_form(F, q)
        b = build_q_form(F, q2)
        pa, pb = tmp_path / f"na{k}.json", tmp_path / f"nb{k}.json"
        a.save(pa)
        b.save(pb)
        rc = cli_main(["--out", str(tmp_path / f"on{k}"), "--gamma-tol", "1e-8",
                       "equiv", str(pa), str(pb)])
        ok_not &= (rc == 1)

    # indeterminate zone: gamma gap inside the integration error band
    q = 0.05
    base = build_q_form(F, q)
    res = gamma_numeric(base, tol=1e-6)
    err = 2 * res.est_error + 1e-15
    u = cmath.sqrt(1 + 4 * q)
    dq = 4.0 * err / abs(4 * math.pi * cmath.sin(math.pi * u) / u)
    other = build_q_form(F, q + dq)
    pa, pb = tmp_path / "ia.json", tmp_path / "ib.json"
    base.save(pa)
    other.save(pb)
    rc = cli_main(["--out", str(tmp_path / "oi"), "--tol", "1e-12",
                   "--gamma-tol", "1e-6", "equiv", str(pa), str(pb)])
    ok_ind = (rc == 4)
    report("criterion 10 (equivalence decision)",
           ok_equiv and ok_not and ok_ind,
           f"equivalent {ok_equiv}, rejected {ok_not}, indeterminate {ok_ind}")
