import cmath
import math

import numpy as np
import pytest

from resunfold.algebra import (
    CSeries,
    CSeriesMat2,
    DivisionByNonUnit,
    PoleAtNonPositiveInteger,
    log_gamma,
)


def gamma_fn(z: complex) -> complex:
    """Gamma(z) via exp(log_gamma), for the identity tests."""
    return cmath.exp(log_gamma(z))


# independent arbitrary-precision oracle value (mpmath.loggamma, 30 digits)
LOG_GAMMA_3_4I = complex(-1.7566267846037842, 4.742664438034658)


def test_polynomial_product():
    a = CSeries([1, 1], 6)
    b = CSeries([1, -1], 6)
    assert np.allclose((a * b).coeffs[:3], [1, 0, -1])
    assert np.allclose((a * b).coeffs[3:], 0)


def test_geometric_series_division():
    q = CSeries.one(4) / CSeries([1, -1], 4)
    assert np.allclose(q.coeffs, [1, 1, 1, 1])


def test_division_requires_unit():
    with pytest.raises(DivisionByNonUnit):
        CSeries.one(4) / CSeries([0, 1], 4)


def test_ring_axioms_randomized(rng):
    """Associativity and distributivity modulo z^K on random triples."""
    K = 12
    for _ in range(120):
        a, b, c = (CSeries(rng.standard_normal(K) + 1j * rng.standard_normal(K))
                   for _ in range(3))
        assoc = ((a * b) * c - a * (b * c)).max_abs()
        dist = (a * (b + c) - (a * b + a * c)).max_abs()
        scale = max(1.0, a.max_abs() * b.max_abs() * c.max_abs())
        assert assoc < 1e-12 * scale
        assert dist < 1e-12 * scale


def test_reciprocal_roundtrip(rng):
    for _ in range(25):
        c = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        c[0] += 3.0
        s = CSeries(c)
        back = s * s.reciprocal()
        assert abs(back.coeffs[0] - 1) < 1e-13
        assert np.max(np.abs(back.coeffs[1:])) < 1e-12


def test_affine_substitute_polynomial_exact():
    p = CSeries([1, 2, 3], 8)  # 1 + 2z + 3z^2
    q = p.affine_substitute(0.5, 2.0)  # z -> 0.5 + 2x
    xs = np.linspace(-1, 1, 7)
    assert np.allclose(q.eval(xs), p.eval(0.5 + 2.0 * xs))


def test_divmod_quadratic():
    # z^3 = (z^2 + h1 z + h0) q + r with known remainder
    p = CSeries([0, 0, 0, 1], 8)
    q, (r0, r1) = p.divmod_quadratic(0.25, -0.5)
    zs = np.array([0.3, -0.2 + 0.1j])
    recon = q.eval(zs) * (zs * zs - 0.5 * zs + 0.25) + r0 + r1 * zs
    assert np.allclose(recon, zs ** 3)


# ---------------------------------------------------------------------------
# series matrices against entry-by-entry CSeries arithmetic


def entries(m):
    return [[CSeries(m.coeffs[:, i, j]) for j in range(2)] for i in range(2)]


def stack(rows):
    return np.array([[e.coeffs for e in row] for row in rows]).transpose(2, 0, 1)


def horner_substitute(s, shift, scale):
    """f(shift + scale*x) by Horner's rule in series arithmetic."""
    n = s.order
    acc = CSeries.constant(s.coeffs[n - 1], n)
    lin = CSeries([shift, scale], n)
    for l in range(n - 2, -1, -1):
        acc = acc * lin + s.coeffs[l]
    return acc


def close(got, want, rel=1e-13):
    return np.max(np.abs(got - want)) <= rel * max(1.0, np.max(np.abs(want)))


def random_mats(rng):
    """Pairs of random K=24 matrices and of K=8 ones whose top 4 coefficients
    are zero; constant terms near the identity so inverses exist."""
    for K, nonzero in ((24, 24), (8, 4)):
        for _ in range(5):
            c = np.zeros((2, K, 2, 2), dtype=complex)
            c[:, :nonzero] = (rng.standard_normal((2, nonzero, 2, 2))
                              + 1j * rng.standard_normal((2, nonzero, 2, 2)))
            c[:, 0] += 3.0 * np.eye(2)
            yield CSeriesMat2.from_coeffs(c[0]), CSeriesMat2.from_coeffs(c[1])


def test_series_matrix_kernels_match_entrywise(rng):
    for a, b in random_mats(rng):
        A, B = entries(a), entries(b)
        prod = [[A[i][0] * B[0][j] + A[i][1] * B[1][j] for j in range(2)] for i in range(2)]
        assert np.array_equal((a @ b).coeffs, stack(prod))
        det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
        assert close(a.det().coeffs, det.coeffs)
        assert close(a.trace().coeffs, (A[0][0] + A[1][1]).coeffs)
        r = det.reciprocal()
        inv = [[A[1][1] * r, -A[0][1] * r], [-A[1][0] * r, A[0][0] * r]]
        assert close(a.inverse().coeffs, stack(inv))
        assert close(a.deriv().coeffs, stack([[e.deriv() for e in row] for row in A]))
        zs = np.array([0.3, -0.2 + 0.4j, 0.7j])
        want = np.array([[e.eval(zs) for e in row] for row in A]).transpose(2, 0, 1)
        assert close(a.eval(zs), want)
        assert close(a.eval(zs[1]), want[1])


def test_affine_substitute_matches_horner(rng):
    for a, _ in random_mats(rng):
        shift = 0.5 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        scale = complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
        want = stack([[horner_substitute(e, shift, scale) for e in row] for row in entries(a)])
        assert close(a.affine_substitute(shift, scale).coeffs, want)
        s = CSeries(a.coeffs[:, 1, 0])
        assert close(s.affine_substitute(shift, scale).coeffs,
                     horner_substitute(s, shift, scale).coeffs)
    # a low-degree polynomial at an order past the double range of the
    # binomials of the full order
    c, u, v = 3.0 - 1.0j, 0.3, 1.2 + 0.5j
    want = np.zeros(1500, dtype=complex)
    want[:3] = [1.0 + 2.0 * u + c * u * u, 2.0 * v + 2.0 * c * u * v, c * v * v]
    assert close(CSeries([1.0, 2.0, c], 1500).affine_substitute(u, v).coeffs, want)


# ---------------------------------------------------------------------------
# log-gamma


def test_log_gamma_trivial_values():
    assert abs(log_gamma(1.0)) < 1e-14
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-13


def test_log_gamma_oracle_value():
    assert abs(log_gamma(3 + 4j) - LOG_GAMMA_3_4I) < 1e-12 * abs(LOG_GAMMA_3_4I)


def test_log_gamma_mpmath_oracle(rng):
    """1e-12 relative against mpmath.loggamma on |z| <= 100, away from the
    poles and from the zeros z = 1, 2 where relative error is undefined."""
    mpmath = pytest.importorskip("mpmath")
    n = 0
    while n < 300:
        z = 100.0 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        if min(abs(z - round(z.real)), abs(z - 1.0), abs(z - 2.0)) < 0.05:
            continue
        n += 1
        ref = complex(mpmath.loggamma(mpmath.mpc(z.real, z.imag)))
        assert abs(log_gamma(z) - ref) <= 1e-12 * abs(ref), z


def test_log_gamma_poles():
    for z in (0.0, -1.0, -7.0):
        with pytest.raises(PoleAtNonPositiveInteger):
            log_gamma(z)


def test_reflection_identity(rng):
    """Gamma(z) Gamma(1-z) = pi / sin(pi z) away from integers."""
    n = 0
    while n < 100:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z - round(z.real)) < 0.1 or abs(z.imag) < 0.05:
            continue
        n += 1
        lhs = gamma_fn(z) * gamma_fn(1 - z)
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_recurrence_identity(rng):
    n = 0
    while n < 100:
        z = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        if abs(z - round(z.real)) < 0.1 or abs(z.imag) < 0.05:
            continue
        n += 1
        lhs = gamma_fn(z + 1)
        rhs = z * gamma_fn(z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
