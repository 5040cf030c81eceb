import cmath
import math

import numpy as np
import pytest

from conftest import model_system, random_gauge
from resunfold.invariants import FormalInvariants, extract_formal
from resunfold.monodromy import gamma_numeric
from resunfold.normal_forms import (
    DegenerateDenominator,
    build_b_form,
    build_q_form,
    decide_equivalence,
    gamma_of_b,
    gamma_of_q,
    q_from_gamma,
)
from resunfold.system import gauge_apply


def q_closed_form(gamma):
    """q = Q (Q + 1) with gamma = 2 cos(2 pi Q), on the CLI's default branch."""
    Q = q_from_gamma(gamma, sign=-1)
    return Q * (Q + 1)


def random_invariants(rng, lam_scale=0.05):
    return FormalInvariants(
        0.02 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        lam_scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        lam_scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        0.02 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
        1.0 + 0.2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
    )


def test_q_form_zero_q_is_formal_model(rng):
    F = random_invariants(rng)
    s = build_q_form(F, 0.0)
    assert abs(s.A.coeffs[0, 1, 0] - F.alpha0) < 1e-15
    assert abs(s.A.coeffs[1, 1, 0] - F.alpha1) < 1e-15
    assert s.A.coeffs[2, 1, 0] == 0.0


def test_q_form_direct_substitution():
    F = FormalInvariants(0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    s = build_q_form(F, 1.0)  # A21 = z + z^2
    assert np.allclose(s.A.coeffs[:3, 1, 0], [0.0, 1.0, 1.0])


def test_q_form_reproduces_invariants(rng):
    for _ in range(10):
        F = random_invariants(rng)
        q = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert extract_formal(build_q_form(F, q)).close_to(F, 1e-13)


def test_q_form_gamma_matches(rng):
    for q in (-0.25, 0.0, -3.0 / 16.0, 0.75):
        F = random_invariants(rng)
        res = gamma_numeric(build_q_form(F, q), tol=1e-9)
        assert abs(res.gamma - gamma_of_q(q)) < 1e-6


def test_b_form_zero_b_is_formal_model(rng):
    F = random_invariants(rng)
    s = build_b_form(F, 0.0)
    assert abs(s.A.coeffs[0, 1, 0] - F.alpha0) < 1e-15
    assert abs(s.A.coeffs[1, 1, 0] - F.alpha1) < 1e-15


def test_b_form_reproduces_invariants(rng):
    for _ in range(10):
        F = random_invariants(rng)
        b = 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert extract_formal(build_b_form(F, b)).close_to(F, 1e-9)


def test_b_form_gamma_matches(rng):
    for _ in range(4):
        F = random_invariants(rng)
        b = 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        res = gamma_numeric(build_b_form(F, b), tol=1e-9)
        assert abs(res.gamma - gamma_of_b(F, b)) < 1e-6


def test_b_form_degenerate_denominator():
    F = FormalInvariants(0.25, -1.0, 0.0, 0.0, 0.0, 1.0)
    # 1 - b h1 + b^2 h0 = (1 + b/2)^2 vanishes at b = -2
    with pytest.raises(DegenerateDenominator):
        build_b_form(F, -2.0)


def test_solve_q_trivial_values():
    assert abs(q_closed_form(2.0) - 0.0) < 1e-12
    assert abs(q_closed_form(-2.0) + 0.25) < 1e-12
    assert abs(q_closed_form(0.0) + 3.0 / 16.0) < 1e-12


def test_solve_q_round_trip(rng):
    """Some sign/sheet choice of q_from_gamma recovers any given q."""
    for scale in (0.4, 3.0):
        for _ in range(20):
            q = scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            g = gamma_of_q(q)
            Qs = [q_from_gamma(g, sign, sheet) for sign in (1, -1) for sheet in (-2, -1, 0, 1, 2)]
            assert min(abs(Q * (Q + 1) - q) for Q in Qs) < 1e-10


def test_solve_q_seed_helper(rng):
    """gamma_of_q inverts the closed-form q on the default branch."""
    for _ in range(10):
        g = 2.0 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert abs(gamma_of_q(q_closed_form(g)) - g) < 1e-12


def test_equivalence_gauge_pair(rng):
    s = model_system(0.05, 0.01)
    T = random_gauge(rng, scale=0.04)
    verdict, _ = decide_equivalence(s, gauge_apply(T, s), tol=1e-6)
    assert verdict == "Equivalent"


def test_equivalence_distinct_q(rng):
    F = random_invariants(rng, lam_scale=0.0)
    a = build_q_form(F, 0.1)
    b = build_q_form(F, 0.2)
    verdict, report = decide_equivalence(a, b, tol=1e-6)
    assert verdict == "NotEquivalent"
    assert report["gamma_gap"] > 1e-3


def test_equivalence_cross_normal_form(rng):
    """q-form vs b-form with matched gamma decide Equivalent."""
    F = random_invariants(rng, lam_scale=0.0)
    b = 0.2
    g = gamma_of_b(F, b)
    q = q_closed_form(g)
    verdict, report = decide_equivalence(build_q_form(F, q), build_b_form(F, b),
                                         tol=1e-6)
    assert verdict == "Equivalent", report


def test_equivalence_indeterminate_zone(rng):
    """With tol below the integration error band the verdict degrades to
    Indeterminate for gamma gaps inside (err, 10 err)."""
    F = random_invariants(rng, lam_scale=0.0)
    q = 0.05
    base = build_q_form(F, q)
    res = gamma_numeric(base, tol=1e-6)
    err = 2 * res.est_error + 1e-15
    # pick dq so the gamma gap sits near 4*err
    u = cmath.sqrt(1 + 4 * q)
    dgamma_dq = 4 * math.pi * cmath.sin(math.pi * u) / u
    dq = 4.0 * err / abs(dgamma_dq)
    other = build_q_form(F, q + dq)
    verdict, report = decide_equivalence(base, other, tol=1e-12, gamma_tol=1e-6)
    assert verdict == "Indeterminate", report


def test_realizability(rng):
    """50 random admissible invariant tuples are realized by the q-form;
    the formal part is checked on all of them, the monodromy invariant on
    every fifth (the integration dominates the cost)."""
    for k in range(50):
        F = random_invariants(rng)
        gamma_target = 2.0 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        q = q_closed_form(gamma_target)
        s = build_q_form(F, q)
        assert extract_formal(s).close_to(F, 1e-12)
        if k % 5 == 0:
            res = gamma_numeric(s, tol=1e-8)
            assert abs(res.gamma - gamma_target) < 1e-6


def test_normal_form_params_gamma(rng):
    F = random_invariants(rng, lam_scale=0.0)
    q = 0.12 - 0.03j
    res = gamma_numeric(build_q_form(F, q), tol=1e-9)
    assert abs(gamma_of_q(q) - res.gamma) < 1e-8
    res_b = gamma_numeric(build_b_form(F, 0.15), tol=1e-9)
    assert abs(gamma_of_b(F, 0.15) - res_b.gamma) < 1e-8
