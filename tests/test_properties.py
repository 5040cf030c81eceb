"""Property tests over random systems and gauges, the sheet maps of a
ramified point and the gamma <-> q inversion (hypothesis)."""

import cmath
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from resunfold.algebra import CSeries, CSeriesMat2  # noqa: E402
from resunfold.geometry import RamifiedPoint  # noqa: E402
from resunfold.invariants import extract_formal  # noqa: E402
from resunfold.monodromy import gamma_numeric  # noqa: E402
from resunfold.normal_forms import gamma_of_q, q_from_gamma  # noqa: E402
from resunfold.system import GaugeTransform, ParametricSystem, gauge_apply  # noqa: E402

K = 24


def unit_disc(radius):
    return st.complex_numbers(max_magnitude=radius, allow_nan=False, allow_infinity=False)


def polys(count, degree, radius):
    """``count`` coefficient lists of length degree + 1 in |c| <= radius."""
    poly = st.lists(unit_disc(radius), min_size=degree + 1, max_size=degree + 1)
    return st.lists(poly, min_size=count, max_size=count)


@settings(max_examples=25, deadline=None, database=None)
@given(a=polys(4, 4, 0.25), roots=st.lists(unit_disc(0.1), min_size=2, max_size=2),
       t=polys(4, 3, 0.03))
def test_gauge_invariance_of_invariants(a, roots, t):
    """(h, lambda, alpha, gamma) of a degree-4 system and of its image under
    a degree-3 gauge near the identity agree."""
    r1, r2 = roots
    system = ParametricSystem(r1 * r2, -(r1 + r2), CSeriesMat2(*(CSeries(c, K) for c in a)))
    one = CSeries.one(K)
    t11, t12, t21, t22 = (CSeries(c, K) for c in t)
    T = GaugeTransform.from_rows([[one + t11, t12], [t21, one + t22]], K)
    image = gauge_apply(T, system)

    Fa, Fb = extract_formal(system), extract_formal(image)
    assert max(Fa.gaps(Fb).values()) < 1e-12
    ga = gamma_numeric(system, Fa, tol=1e-9, validity_radius=1.0)
    gb = gamma_numeric(image, Fb, tol=1e-9, validity_radius=1.0)
    assert abs(ga.gamma - gb.gamma) <= ga.est_error + gb.est_error + 1e-12 * max(1.0, abs(ga.gamma))


def assert_consistent(p: RamifiedPoint, mu: complex, eps: complex):
    """The tracked data of a sheet image still describes (mu, eps):
    s1^2 = mu + sqrt(eps), s2^2 = mu - sqrt(eps), n_i = s_i / sqrt(eps),
    a = (n1 - n2)/2 and b = (n1 + n2)/2 through their tracked logs."""
    tol = 1e-12
    assert abs(p.mu_value - mu) < tol and abs(p.eps_value - eps) < tol
    assert abs(p.sqrt_eps ** 2 - eps) < tol
    assert abs(p.s1 ** 2 - (mu + p.sqrt_eps)) < tol
    assert abs(p.s2 ** 2 - (mu - p.sqrt_eps)) < tol
    n1, n2 = p.s1 / p.sqrt_eps, p.s2 / p.sqrt_eps
    scale = max(1.0, abs(n1), abs(n2))
    assert abs(p.n1 - n1) < tol * scale and abs(p.n2 - n2) < tol * scale
    assert abs(p.a - (n1 - n2) / 2) < tol * scale and abs(p.b - (n1 + n2) / 2) < tol * scale


@settings(max_examples=60, deadline=None, database=None)
@given(mu=unit_disc(0.3), eps=unit_disc(0.05),
       word=st.lists(st.sampled_from("sr"), min_size=1, max_size=8))
def test_sheet_map_orbit_laws(mu, eps, word):
    """Any word in sigma and rho keeps the tracked data consistent with the
    projected point.  sigma^2 and rho^2 return every projection: sigma^2
    shifts only log n2 by 2 pi i; rho^2 shifts only log a by -2 pi i and
    turns both parameter arguments by 4 pi."""
    # away from eps = 0 and the ramification locus mu^2 = eps
    assume(abs(eps) > 1e-3 and abs(mu * mu - eps) > 1e-3)
    p0 = RamifiedPoint.from_values(mu, eps)
    p = p0
    for letter in word:
        p = p.sigma_image() if letter == "s" else p.rho_image()
        assert_consistent(p, mu, eps)

    two_pi_i = 2j * math.pi
    sig2 = p0.sigma_image().sigma_image()
    assert (sig2.s1, sig2.s2, sig2.sqrt_eps) == (p0.s1, p0.s2, p0.sqrt_eps)
    assert (sig2.log_n1, sig2.log_a, sig2.log_b) == (p0.log_n1, p0.log_a, p0.log_b)
    assert abs(sig2.log_n2 - p0.log_n2 - two_pi_i) < 1e-12
    rho2 = p0.rho_image().rho_image()
    assert (rho2.s1, rho2.s2, rho2.sqrt_eps) == (p0.s1, p0.s2, p0.sqrt_eps)
    assert (rho2.log_n1, rho2.log_n2, rho2.log_b) == (p0.log_n1, p0.log_n2, p0.log_b)
    assert abs(rho2.log_a - p0.log_a + two_pi_i) < 1e-12
    assert abs(rho2.mu.arg - p0.mu.arg - 4 * math.pi) < 1e-12
    assert abs(rho2.eps.arg - p0.eps.arg - 4 * math.pi) < 1e-12


@settings(max_examples=100, deadline=None, database=None)
@given(gamma=unit_disc(6.0), sign=st.sampled_from((1, -1)),
       sheet=st.integers(min_value=-3, max_value=3))
def test_q_from_gamma_inverts_on_every_sign_and_sheet(gamma, sign, sheet):
    """Every sign and sheet of Q = q_from_gamma(gamma) solves
    gamma = 2 cos 2 pi Q, and q = Q (Q + 1) maps back through gamma_of_q."""
    Q = q_from_gamma(gamma, sign, sheet)
    tol = 1e-11 * max(1.0, abs(gamma)) * (1 + abs(sheet))
    assert abs(2.0 * cmath.cos(2.0 * math.pi * Q) - gamma) < tol
    assert abs(gamma_of_q(Q * (Q + 1.0)) - gamma) < tol


@settings(max_examples=100, deadline=None, database=None)
@given(q=unit_disc(2.0))
def test_q_round_trip_through_gamma(q):
    """Some sign/sheet choice of q_from_gamma(gamma_of_q(q)) recovers q, to
    the conditioning |dq/dgamma| = |2Q + 1| / |4 pi sin 2 pi Q| of the
    inversion."""
    gamma = gamma_of_q(q)
    Qs = [q_from_gamma(gamma, sign, sheet) for sign in (1, -1) for sheet in (-2, -1, 0, 1, 2)]
    Q = min(Qs, key=lambda v: abs(v * (v + 1.0) - q))
    cond = abs(2.0 * Q + 1.0) / max(abs(4.0 * math.pi * cmath.sin(2.0 * math.pi * Q)), 1e-300)
    assert abs(Q * (Q + 1.0) - q) < 1e-12 * (1.0 + cond * max(1.0, abs(gamma)))
