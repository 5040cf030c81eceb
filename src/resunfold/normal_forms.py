"""Universal normal forms (q-form and b-form), the closed-form gamma <-> q
parameterization, and the analytic-equivalence decision on invariants.
"""

from __future__ import annotations

import cmath
import math

from .algebra import CSeries, CSeriesMat2
from .invariants import FormalInvariants, NonGeneric, extract_formal
from .monodromy import gamma_numeric
from .system import ParametricSystem


class DegenerateDenominator(ArithmeticError):
    """b-form beta algebra breaks down: 1 - b h1 + b^2 h0 == 0."""


def gamma_of_q(q: complex) -> complex:
    """-2 cos(pi sqrt(1 + 4 q)); entire in q."""
    return -2.0 * cmath.cos(math.pi * cmath.sqrt(1.0 + 4.0 * q))


def q_from_gamma(gamma: complex, sign: int = 1, sheet: int = 0) -> complex:
    """Q with gamma = 2 cos(2 pi Q); principal arccos, optional other branch.

    q = Q (Q + 1) inverts gamma_of_q, since 1 + 4q = (2Q + 1)^2.
    """
    return sign * cmath.acos(gamma / 2.0) / (2.0 * math.pi) + sheet


def gamma_of_b(F: FormalInvariants, b: complex) -> complex:
    """2 cos(2 pi sqrt(b beta1)) for the b-form built on F."""
    beta1 = _beta_coeffs(F, b)[1]
    return 2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(b * beta1))


def build_q_form(F: FormalInvariants, q: complex, order: int = 24) -> ParametricSystem:
    """h d/dz - [[lambda, 1], [alpha + q h, lambda]].

    extract_formal of the result returns F exactly: the q h term dies under
    reduction mod h.
    """
    lam = CSeries([F.lambda0, F.lambda1], order)
    h = CSeries([F.h0, F.h1, 1.0], order)
    a21 = CSeries([F.alpha0, F.alpha1], order) + h * q
    A = CSeriesMat2(lam, CSeries.one(order), a21, lam)
    return ParametricSystem(F.h0, F.h1, A)


def _beta_coeffs(F: FormalInvariants, b: complex) -> tuple[complex, complex]:
    """Coefficients of beta(z) making the b-form carry the invariants F.

    Derived from alpha = (1 + b z) beta(z) mod h:
        beta1 = (alpha1 - b alpha0) / (1 - b h1 + b^2 h0),
        beta0 = alpha0 + b h0 beta1.
    """
    den = 1.0 - b * F.h1 + b * b * F.h0
    if abs(den) < 1e-12:
        raise DegenerateDenominator("1 - b h1 + b^2 h0 vanishes")
    beta1 = (F.alpha1 - b * F.alpha0) / den
    beta0 = F.alpha0 + b * F.h0 * beta1
    return beta0, beta1


def build_b_form(F: FormalInvariants, b: complex, order: int = 24) -> ParametricSystem:
    """h d/dz - [[lambda, 1 + b z], [beta(z), lambda]] with beta chosen so
    that extract_formal returns F."""
    beta0, beta1 = _beta_coeffs(F, b)
    lam = CSeries([F.lambda0, F.lambda1], order)
    a12 = CSeries([1.0, b], order)
    a21 = CSeries([beta0, beta1], order)
    A = CSeriesMat2(lam, a12, a21, lam)
    return ParametricSystem(F.h0, F.h1, A)


def decide_equivalence(system_a: ParametricSystem, system_b: ParametricSystem,
                       tol: float = 1e-6, gamma_tol: float = 1e-9,
                       validity_radius: float = math.inf):
    """Three-valued equivalence decision on the invariants (h, lambda, alpha, gamma).

    Equivalent when the formal invariants match coefficientwise within tol
    and the gamma gap is below max(tol, combined est_error); Indeterminate
    when the gamma gap falls inside the integration error band
    (err, 10*err); NotEquivalent otherwise.  Returns (verdict, report).
    """
    Fa = extract_formal(system_a)
    Fb = extract_formal(system_b)
    for F in (Fa, Fb):
        if abs(F.alpha1) <= 1e-8:
            raise NonGeneric("system fails the genericity condition alpha1 != 0")
    formal_gaps = Fa.gaps(Fb)
    report = {"formal_gaps": formal_gaps}
    if max(formal_gaps.values()) >= tol:
        report["reason"] = "formal invariants differ"
        return "NotEquivalent", report

    ga = gamma_numeric(system_a, Fa, tol=gamma_tol, validity_radius=validity_radius)
    gb = gamma_numeric(system_b, Fb, tol=gamma_tol, validity_radius=validity_radius)
    gap = abs(ga.gamma - gb.gamma)
    err = ga.est_error + gb.est_error + 1e-15
    report.update({
        "gamma_a": ga.gamma, "gamma_b": gb.gamma,
        "gamma_gap": gap, "est_error": err,
    })
    if gap < max(tol, err):
        return "Equivalent", report
    if gap < max(tol, 10.0 * err):
        return "Indeterminate", report
    return "NotEquivalent", report
