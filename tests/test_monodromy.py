import cmath
import math

import numpy as np
import pytest

from conftest import model_system, random_gauge, random_system
from resunfold.algebra import CSeriesMat2
from resunfold.monodromy import (
    Contour,
    SingularityTooClose,
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
    M = propagate(s, Contour.circle(0.0, 2.0), tol=1e-10)
    assert np.max(np.abs(M - np.eye(2))) < 1e-9


def test_scalar_residues_cancel():
    # A = c I, h = z^2 - 1: contour integral of dz/h over |z|=2 vanishes
    c = 0.7 - 0.3j
    s = linear_system(c * np.eye(2), np.zeros((2, 2)), -1.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 2.0), tol=1e-10)
    assert np.max(np.abs(M - np.eye(2))) < 1e-8


def test_diagonal_quadrature_oracle():
    # A = diag(z, -z), h = z^2: A/h = diag(1/z, -1/z), winding number one
    s = linear_system(np.zeros((2, 2)), np.diag([1.0, -1.0]), 0.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 1.0), tol=1e-10)
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
        M = propagate(s, contour, tol=1e-10)
        # det M = exp(contour integral of tr A / h) = exp(4 pi i lambda1)
        lam1 = extract_formal(s).lambda1
        assert abs(np.linalg.det(M) - cmath.exp(4j * math.pi * lam1)) < 1e-8

    # traceless reduced systems have det M == 1
    s = model_system(0.1, 0.01)
    M = propagate(s, auto_contour(s), tol=1e-10)
    assert abs(np.linalg.det(M) - 1.0) < 1e-8
