import numpy as np
import pytest

from conftest import model_system, random_gauge, random_series, random_system
from resunfold.algebra import CSeries, CSeriesMat2
from resunfold.invariants import (
    FormalInvariants,
    InvariantMismatch,
    NonGeneric,
    ReducedSystem,
    Step1Failure,
    extract_formal,
    prenormalize,
    reduce,
    step2_growth_data,
)
from resunfold.system import GaugeTransform, ParametricSystem, gauge_apply


def test_extract_model():
    s = model_system(0.05, 0.02)
    F = extract_formal(s)
    assert abs(F.lambda0) < 1e-14 and abs(F.lambda1) < 1e-14
    assert abs(F.alpha0 - 0.05) < 1e-14 and abs(F.alpha1 - 1.0) < 1e-14


def test_extract_q_form_kills_qh_term():
    # A21 = alpha + q h: the q h part must vanish under reduction mod h
    K = 16
    F = FormalInvariants(0.01, -0.03, 0.2, 0.1j, 0.004, 0.9)
    h = CSeries([F.h0, F.h1, 1.0], K)
    lam = CSeries([F.lambda0, F.lambda1], K)
    a21 = CSeries([F.alpha0, F.alpha1], K) + h * (0.7 - 0.2j)
    s = ParametricSystem(F.h0, F.h1,
                         CSeriesMat2(lam, CSeries.one(K), a21, lam))
    G = extract_formal(s)
    assert G.close_to(F, 1e-13)


def test_extract_cubic_entry_reduces_to_zero():
    # A = [[z^3, 1], [0, -z^3]], h = z^2: z^3 = z * h is 0 mod h
    K = 16
    A = CSeriesMat2(CSeries([0, 0, 0, 1], K), CSeries.one(K),
                    CSeries.zero(K), CSeries([0, 0, 0, -1], K))
    F = extract_formal(ParametricSystem(0.0, 0.0, A))
    assert max(abs(F.lambda0), abs(F.lambda1)) < 1e-14
    assert max(abs(F.alpha0), abs(F.alpha1)) < 1e-14


def test_extract_gauge_invariance(rng):
    for _ in range(10):
        s = random_system(rng, coeff_scale=0.25)
        T = random_gauge(rng, scale=0.05)
        Fa = extract_formal(s)
        Fb = extract_formal(gauge_apply(T, s))
        assert Fa.close_to(Fb, 1e-9)


def test_reduce_trivial():
    # h = z^2, alpha = z: eps = 0, mu = 0, x = z
    K = 16
    A = CSeriesMat2(CSeries.zero(K), CSeries.one(K),
                    CSeries([0.0, 1.0], K), CSeries.zero(K))
    F, red = reduce(ParametricSystem(0.0, 0.0, A))
    assert abs(F.epsilon) < 1e-14 and abs(F.mu) < 1e-14


def test_reduce_shifted_h():
    # h = z^2 - 1, alpha = z: eps = 1, mu = 0
    K = 16
    A = CSeriesMat2(CSeries.zero(K), CSeries.one(K),
                    CSeries([0.0, 1.0], K), CSeries.zero(K))
    F, _ = reduce(ParametricSystem(-1.0, 0.0, A))
    assert abs(F.epsilon - 1.0) < 1e-14 and abs(F.mu) < 1e-14


def test_reduce_h_identity(rng):
    """h(z) == alpha1^2 (x^2 - eps) under the substitution, coefficientwise."""
    for _ in range(10):
        F, _ = reduce(random_system(rng))
        # h(z) = alpha1^2 (x^2 - eps), x = (z + h1/2)/alpha1: compare coefficients
        a1 = F.alpha1
        c2 = a1 * a1 / a1 ** 2
        c1 = F.h1
        c0 = (F.h1 / 2.0) ** 2 - a1 * a1 * F.epsilon
        assert abs(c0 - F.h0) < 1e-12 * max(1.0, abs(F.h0))


def test_reduce_recomputation_oracle(rng):
    for _ in range(10):
        F, red = reduce(random_system(rng))
        G = extract_formal(red)
        assert abs(-red.h0 - F.epsilon) < 1e-12
        assert abs(red.h1) < 1e-14
        assert max(abs(G.lambda0), abs(G.lambda1)) < 1e-9
        assert abs(G.alpha0 - F.mu) < 1e-9
        assert abs(G.alpha1 - 1.0) < 1e-9


def test_reduce_returns_the_invariants_it_used(rng):
    s = random_system(rng)
    F, _ = reduce(s)
    assert F == extract_formal(s)
    assert reduce(s, F)[0] is F


def test_require_generic_threshold():
    """|alpha1| <= 1e-8 is non-generic, the one test reduce,
    decide_equivalence and the invariants command share."""
    for alpha1, generic in ((0.0, False), (1e-8, False), (-1e-8j, False), (1.01e-8, True)):
        F = FormalInvariants(0.01, 0.0, 0.0, 0.0, 0.3, alpha1)
        if generic:
            F.require_generic()
        else:
            with pytest.raises(NonGeneric):
                F.require_generic()


def test_reduce_nongeneric(rng):
    K = 16
    A = CSeriesMat2(CSeries.zero(K), CSeries.one(K),
                    CSeries([0.3], K), CSeries.zero(K))  # alpha1 = 0
    with pytest.raises(NonGeneric):
        reduce(ParametricSystem(0.0, 0.0, A))


# ---------------------------------------------------------------------------
# prenormal pipeline


def test_prenormalize_idempotent(rng):
    r0 = random_series(rng, 0.1, 5)
    rs = ReducedSystem(0.02, 0.05, r0)
    out = prenormalize(rs.to_system())
    assert np.max(np.abs(out.r.coeffs - r0.coeffs)) < 1e-12
    assert abs(out.epsilon - 0.02) < 1e-14
    assert abs(out.mu - 0.05) < 1e-14


def test_prenormalize_model_gives_zero_r():
    out = prenormalize(model_system(0.07, 0.01))
    assert np.max(np.abs(out.r.coeffs)) < 1e-14


def test_prenormalize_lower_triangular_gauge_recovery(rng):
    """Perturbations in the lower-triangular gauge subgroup are retracted
    exactly; r is recovered as 0 up to the truncation boundary."""
    m = model_system(0.05, 0.02)
    for _ in range(8):
        T = random_gauge(rng, scale=0.03, lower_triangular=True)
        out = prenormalize(gauge_apply(T, m))
        assert np.max(np.abs(out.r.coeffs)) < 1e-8
        assert abs(out.mu - 0.05) < 1e-10
        assert abs(out.epsilon - 0.02) < 1e-12


def test_prenormalize_upper_gauge_moves_representative():
    """An upper-right constant gauge shifts r at first order: r is a
    representative choice, not a class invariant."""
    m = model_system(0.05, 0.02)
    d = 1e-3
    T = GaugeTransform.from_rows([[[1.0], [d]], [[0.0], [1.0]]], m.order)
    out = prenormalize(gauge_apply(T, m))
    assert abs(out.r.coeffs[0] + d) < 10 * d * d


def test_prenormalize_structure_exact(rng):
    r0 = random_series(rng, 0.2, 4)
    rs = ReducedSystem(0.01, -0.03 + 0.01j, r0)
    sys_in = gauge_apply(random_gauge(rng, scale=0.04, lower_triangular=True),
                         rs.to_system())
    out = prenormalize(sys_in)
    rebuilt = out.to_system()
    # entries (1,1), (2,2) zero and (1,2) one by construction
    assert not np.any(rebuilt.A.coeffs[:, 0, 0])
    assert not np.any(rebuilt.A.coeffs[:, 1, 1])
    assert abs(rebuilt.A.coeffs[0, 0, 1] - 1.0) == 0.0
    # A21 - (mu + x) divisible by x^2 - eps: quotient reproduces r
    numer = CSeries(rebuilt.A.coeffs[:, 1, 0]) - CSeries([out.mu, 1.0], out.order)
    q, (r0_, r1_) = numer.divmod_quadratic(-out.epsilon, 0.0)
    assert max(abs(r0_), abs(r1_)) < 1e-10


def test_prenormalize_rejects_wrong_invariants():
    K = 16
    A = CSeriesMat2(CSeries([0.3], K), CSeries.one(K),
                    CSeries([0.05, 1.0], K), CSeries([0.3], K))  # lambda != 0
    with pytest.raises(InvariantMismatch, match="lambda = 0"):
        prenormalize(ParametricSystem(-0.01, 0.0, A))
    model = model_system(0.05, 0.01, order=K)
    with pytest.raises(InvariantMismatch, match="h = x\\^2 - eps"):
        prenormalize(ParametricSystem(-0.01, 0.1, model.A))
    A = CSeriesMat2(CSeries.zero(K), CSeries.one(K),
                    CSeries([0.05, 2.0], K), CSeries.zero(K))  # alpha = 0.05 + 2x
    with pytest.raises(InvariantMismatch, match="alpha = mu \\+ x"):
        prenormalize(ParametricSystem(-0.01, 0.0, A))


def test_prenormalize_scalar_constant_term_fails():
    # lambda = 0 and alpha = -det A mod (x^2 - 0.01) = 100 x^3 mod h = x pass
    # the invariant checks; A(0) = 0 has no cyclic covector
    K = 16
    A = CSeriesMat2(CSeries.zero(K), CSeries([0.0, 10.0], K),
                    CSeries([0.0, 0.0, 10.0], K), CSeries.zero(K))
    with pytest.raises(Step1Failure, match="constant term of A is scalar"):
        prenormalize(ParametricSystem(-0.01, 0.0, A))


def test_prenormalize_refuses_a_top_row_residue(monkeypatch):
    """Step 2's corrections must clear the top row of B beyond order 0;
    corrections off by 10 % leave a residue that is refused."""
    import resunfold.invariants as inv
    cyclic = inv._cyclic_steps

    def off_by_ten_percent(system):
        a, T = cyclic(system)
        return a, 1.1 * T
    monkeypatch.setattr(inv, "_cyclic_steps", off_by_ten_percent)
    pert = gauge_apply(GaugeTransform.from_rows([[1.0, 0.0], [[0.0, 0.3], 1.0]], 24),
                       model_system(0.05, 0.02))
    with pytest.raises(InvariantMismatch, match="top-row residue"):
        prenormalize(pert)


def test_step2_growth_bound(rng):
    m = model_system(0.05, 0.02)
    for _ in range(5):
        T = random_gauge(rng, scale=0.05, lower_triangular=True)
        pert = gauge_apply(T, m)
        ka, tnorm = step2_growth_data(pert)
        for l in range(1, pert.order):
            assert tnorm[l] <= (2.0 * ka) ** l * (1.0 + 1e-12) + 1e-300
