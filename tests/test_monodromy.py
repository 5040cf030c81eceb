import cmath
import math

import numpy as np
import pytest

from conftest import model_system, random_gauge, random_system
from resunfold.algebra import CSeriesMat2
from resunfold.monodromy import (
    Contour,
    SingularityTooClose,
    StepUnderflow,
    auto_contour,
    gamma_closed_form,
    gamma_numeric,
    propagate,
)
from resunfold.invariants import extract_formal
from resunfold.system import ParametricSystem, gauge_apply


def linear_system(A0, A1, h0, h1, order=8):
    A0 = np.asarray(A0, dtype=complex)
    A1 = np.asarray(A1, dtype=complex)
    rows = [[[A0[i, j], A1[i, j]] for j in range(2)] for i in range(2)]
    return ParametricSystem(h0, h1, CSeriesMat2.from_rows(rows, order))


def test_zero_field_identity_transport():
    s = linear_system(np.zeros((2, 2)), np.zeros((2, 2)), -1.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 2.0), tol=1e-10).M
    assert np.max(np.abs(M - np.eye(2))) < 1e-9


def test_scalar_residues_cancel():
    # A = c I, h = z^2 - 1: contour integral of dz/h over |z|=2 vanishes
    c = 0.7 - 0.3j
    s = linear_system(c * np.eye(2), np.zeros((2, 2)), -1.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 2.0), tol=1e-10).M
    assert np.max(np.abs(M - np.eye(2))) < 1e-8


def test_diagonal_quadrature_oracle():
    # A = diag(z, -z), h = z^2: A/h = diag(1/z, -1/z), winding number one
    s = linear_system(np.zeros((2, 2)), np.diag([1.0, -1.0]), 0.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 1.0), tol=1e-10).M
    assert np.max(np.abs(M - np.eye(2))) < 1e-8


def test_propagate_rejects_bad_tolerance():
    s = linear_system(np.eye(2), np.zeros((2, 2)), -1.0, 0.0)
    with pytest.raises(ValueError):
        propagate(s, Contour.circle(0.0, 2.0), tol=1e-3)


def test_propagate_rejects_contour_through_singularity():
    s = linear_system(np.eye(2), np.zeros((2, 2)), -1.0, 0.0)
    with pytest.raises(SingularityTooClose):
        propagate(s, Contour.circle(1.0, 1e-4), tol=1e-8)


def test_gamma_closed_form_examples():
    # nilpotent A1 -> D = 0 -> gamma = 2
    assert abs(gamma_closed_form(np.zeros((2, 2)), [[0, 0], [1, 0]]) - 2.0) < 1e-14
    # diagonal A1 = diag(1/2, -1/2) -> D = 1/4 -> gamma = -2
    assert abs(gamma_closed_form(np.zeros((2, 2)), np.diag([0.5, -0.5])) + 2.0) < 1e-12


def test_gamma_closed_form_conjugation_invariance(rng):
    for _ in range(20):
        A0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C += 2 * np.eye(2)
        Ci = np.linalg.inv(C)
        g1 = gamma_closed_form(A0, A1)
        g2 = gamma_closed_form(Ci @ A0 @ C, Ci @ A1 @ C)
        assert abs(g1 - g2) < 1e-10 * max(1.0, abs(g1))


def test_gamma_model_is_two():
    res = gamma_numeric(model_system(0.1, 0.01), tol=1e-9)
    assert abs(res.gamma - 2.0) < 1e-8


def test_gamma_cross_method(rng):
    for _ in range(8):
        A0 = 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        A1 = 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        roots = 0.3 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        s = linear_system(A0, A1, roots[0] * roots[1], -(roots[0] + roots[1]))
        res = gamma_numeric(s, tol=1e-9)
        assert abs(res.gamma - gamma_closed_form(A0, A1)) < 1e-6


def test_gamma_basepoint_and_radius_independence():
    s = model_system(0.1, 0.01)
    base = gamma_numeric(s, tol=1e-9)
    contour = auto_contour(s)
    bigger = Contour.circle(contour.center, contour.radius * 1.17)
    res2 = gamma_numeric(s, tol=1e-9, contour=bigger)
    assert abs(base.gamma - res2.gamma) < 10 * 1e-8
    # different basepoint: start the circle elsewhere via a rotated polyline
    ts = np.linspace(0, 2 * math.pi, 481)
    pts = contour.center + contour.radius * np.exp(1j * (ts + 1.1))
    poly = Contour.polyline(list(pts[:-1]) + [pts[0]])
    res3 = gamma_numeric(s, tol=1e-9, contour=poly)
    assert abs(base.gamma - res3.gamma) < 1e-7


def test_gamma_gauge_invariance(rng):
    # the truncated gauge series must converge on the contour, so the
    # integration radius is capped by a validity radius
    for _ in range(4):
        s = random_system(rng, coeff_scale=0.3, root_scale=0.12)
        T = random_gauge(rng, scale=0.03)
        g1 = gamma_numeric(s, tol=1e-10, validity_radius=1.0)
        g2 = gamma_numeric(gauge_apply(T, s), tol=1e-10, validity_radius=1.0)
        assert abs(g1.gamma - g2.gamma) < 1e-6


def test_liouville_determinant(rng):
    for _ in range(5):
        s = random_system(rng, coeff_scale=0.4, root_scale=0.2)
        contour = auto_contour(s)
        M = propagate(s, contour, tol=1e-10).M
        # det M = exp(contour integral of tr A / h) = exp(4 pi i lambda1)
        lam1 = extract_formal(s).lambda1
        assert abs(np.linalg.det(M) - cmath.exp(4j * math.pi * lam1)) < 1e-8

    # traceless reduced systems have det M == 1
    s = model_system(0.1, 0.01)
    M = propagate(s, auto_contour(s), tol=1e-10).M
    assert abs(np.linalg.det(M) - 1.0) < 1e-8


def test_transport_error_bounds_exact_transport():
    # A = diag(z, -z), h = z^2 around |z| = 1: M = I exactly
    s = linear_system(np.zeros((2, 2)), np.diag([1.0, -1.0]), 0.0, 0.0)
    tr = propagate(s, Contour.circle(0.0, 1.0), tol=1e-10)
    assert np.abs(tr.M - np.eye(2)).sum(axis=1).max() <= tr.error
    assert abs(np.trace(tr.M) - 2.0) <= tr.trace_error
    assert tr.error < 1e-12


def test_est_error_bounds_closed_forms():
    """est_error bounds the gap to the closed form on the criterion-1
    corpus and the criterion-3 q- and b-forms, and stays below 1e-9."""
    from test_acceptance import small_invariants
    from resunfold.normal_forms import build_b_form, build_q_form, gamma_of_b, gamma_of_q

    cases = []
    rng = np.random.default_rng(101)
    for _ in range(50):
        A0 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        A1 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        roots = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        s = linear_system(A0, A1, roots[0] * roots[1], -(roots[0] + roots[1]))
        cases.append((s, gamma_closed_form(A0, A1)))
    rng = np.random.default_rng(103)
    for q in (-0.25, 0.0, -3.0 / 16.0, 0.75):
        for _ in range(5):
            cases.append((build_q_form(small_invariants(rng), q), gamma_of_q(q)))
    for _ in range(5):
        F = small_invariants(rng)
        b = 0.25 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        cases.append((build_b_form(F, b), gamma_of_b(F, b)))
    for s, exact in cases:
        res = gamma_numeric(s, tol=1e-9)
        assert abs(res.gamma - exact) <= res.est_error < 1e-9


def test_gamma_mpmath_oracle():
    """A degree-4 K=24 system with no closed form against mpmath.odefun."""
    mpmath = pytest.importorskip("mpmath")
    s = random_system(np.random.default_rng(7))
    res = gamma_numeric(s, tol=1e-9)
    contour = auto_contour(s)
    # the trimmed polynomial A: random_system draws degree 4 into K = 24
    coef = [[[mpmath.mpc(c) for c in s.A.coeffs[4::-1, i, j]] for j in range(2)]
            for i in range(2)]
    assert not np.any(s.A.coeffs[5:])
    c, R = mpmath.mpc(contour.center), mpmath.mpf(contour.radius)
    h0, h1 = mpmath.mpc(s.h0), mpmath.mpc(s.h1)

    def rhs(t, y):
        e = mpmath.expj(t)
        z = c + R * e
        w = 1j * R * e / ((z + h1) * z + h0)
        a, b, cc, d = (mpmath.polyval(coef[i][j], z) * w for i in range(2) for j in range(2))
        return [a * y[0] + b * y[2], a * y[1] + b * y[3],
                cc * y[0] + d * y[2], cc * y[1] + d * y[3]]

    with mpmath.workdps(15):
        y = mpmath.odefun(rhs, 0, [1, 0, 0, 1], tol=mpmath.mpf(1e-12), degree=24)(2 * mpmath.pi)
        lam1 = mpmath.mpc(extract_formal(s).lambda1)
        oracle = complex(mpmath.exp(-2j * mpmath.pi * lam1) * (y[0] + y[3]))
    assert abs(res.gamma - oracle) < 1e-10


def test_result_reports_steps_and_det_defect():
    s = model_system(0.1, 0.01)
    res = gamma_numeric(s, tol=1e-9)
    lam1 = extract_formal(s).lambda1
    assert res.det_defect == abs(np.linalg.det(res.M) - cmath.exp(4j * math.pi * lam1))
    assert res.det_defect < 1e-12
    # each step covers at most half the distance to the nearer zero of h
    contour = auto_contour(s)
    assert 4 * math.pi * contour.radius / (contour.radius + 0.1) <= res.steps <= 40
    # a polyline takes at least one step per segment
    ts = np.linspace(0, 2 * math.pi, 97)
    poly = Contour.polyline(list(contour.center + contour.radius * np.exp(1j * ts)))
    assert gamma_numeric(s, tol=1e-9, contour=poly).steps >= 96


def test_step_underflow_on_term_cap(monkeypatch):
    import resunfold.monodromy as monodromy
    monkeypatch.setattr(monodromy, "_MAX_TERMS", 8)
    with pytest.raises(StepUnderflow):
        propagate(model_system(0.1, 0.01), Contour.circle(0.0, 1.0), tol=1e-9)


def test_propagate_rejects_non_finite_h():
    for h0, h1 in ((float("nan"), 0.0), (-1.0, complex(float("inf"), 0.0))):
        s = linear_system(np.eye(2), np.zeros((2, 2)), h0, h1)
        with pytest.raises(ValueError):
            propagate(s, Contour.circle(0.0, 2.0), tol=1e-9)


def test_steps_shrink_when_local_growth_is_large(monkeypatch):
    import resunfold.monodromy as monodromy
    s = model_system(0.1, 0.01)
    base = gamma_numeric(s, tol=1e-9)
    monkeypatch.setattr(monodromy, "_MAX_LOG_GROWTH", 0.05)
    res = gamma_numeric(s, tol=1e-9)
    assert res.steps > 2 * base.steps
    assert abs(res.gamma - 2.0) <= res.est_error < 1e-9
