"""Formal invariants (h, lambda, alpha), the reduction to
(x^2 - eps) d/dx with invariants (0, mu + x), and the four-step prenormal
form algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .algebra import CSeries, CSeriesMat2
from .system import GaugeTransform, ParametricSystem, gauge_apply


class NonGeneric(ValueError):
    """alpha^(1) vanishes (or is below tolerance): reduction undefined."""


class Step1Failure(ValueError):
    """No cyclic covector: constant term of A is scalar."""


class InvariantMismatch(ValueError):
    """A series that should be divisible by h fails the divisibility check."""


class RootOutsideUnitDisc(ValueError):
    """A zero of h lies outside the closed unit disc, where the top-down
    division of extract_formal amplifies rounding by up to |root|^(K-1)."""


ALPHA1_MIN = 1e-8      # the genericity condition alpha1 != 0 asks |alpha1| > ALPHA1_MIN
_PRENORMAL_TOL = 1e-8  # relative tolerance of the prenormal form's invariant checks


@dataclass(frozen=True)
class FormalInvariants:
    """h, lambda, alpha as coefficient pairs; lambda(z) = l1 z + l0 etc."""

    h0: complex
    h1: complex
    lambda0: complex
    lambda1: complex
    alpha0: complex
    alpha1: complex

    @property
    def epsilon(self) -> complex:
        """(1/alpha1)^2 ((h1/2)^2 - h0), the reduced quadratic parameter."""
        return ((self.h1 / 2.0) ** 2 - self.h0) / self.alpha1**2

    @property
    def mu(self) -> complex:
        """alpha0/alpha1^2 - h1/(2 alpha1), the reduced linear parameter."""
        return self.alpha0 / self.alpha1**2 - self.h1 / (2.0 * self.alpha1)

    def require_generic(self) -> None:
        """Raise NonGeneric unless |alpha1| > ALPHA1_MIN, the one genericity
        test behind reduce, decide_equivalence and the CLI."""
        if abs(self.alpha1) <= ALPHA1_MIN:
            raise NonGeneric(f"|alpha1| = {abs(self.alpha1):.3e} below tolerance")

    def gaps(self, other: "FormalInvariants") -> dict:
        """|self - other| per coefficient, keyed h0, h1, lambda0, lambda1, alpha0, alpha1."""
        return {f.name: abs(getattr(self, f.name) - getattr(other, f.name))
                for f in fields(self)}

    def close_to(self, other: "FormalInvariants", tol: float) -> bool:
        return all(gap < tol for gap in self.gaps(other).values())


@dataclass(frozen=True)
class ReducedSystem:
    """Prenormal data: (x^2 - eps) d/dx - [[0, 1], [mu + x + (x^2 - eps) r, 0]]."""

    epsilon: complex
    mu: complex
    r: CSeries

    @property
    def order(self) -> int:
        return self.r.order

    def to_system(self) -> ParametricSystem:
        n = self.order
        x = CSeries.variable(n)
        h = CSeries([-self.epsilon, 0.0, 1.0], n)
        a21 = self.mu + x + h * self.r
        A = CSeriesMat2(CSeries.zero(n), CSeries.one(n), a21, CSeries.zero(n))
        return ParametricSystem(-self.epsilon, 0.0, A)


def extract_formal(system: ParametricSystem) -> FormalInvariants:
    """Invariant polynomials: lambda = (tr A)/2 mod h, alpha = -det(A - lambda I) mod h.

    Both remainders have degree <= 1.  The polynomial reduction runs from
    the top coefficient down, which is stable for h-roots inside the unit
    disc (the germ setting; check_unit_disc guards it).
    """
    tr_half = system.A.trace() * 0.5
    _, (l0, l1) = tr_half.divmod_quadratic(system.h0, system.h1)
    neg_det = -(system.A - CSeries([l0, l1], system.order)).det()
    _, (a0, a1) = neg_det.divmod_quadratic(system.h0, system.h1)
    return FormalInvariants(system.h0, system.h1, l0, l1, a0, a1)


def check_unit_disc(system: ParametricSystem) -> None:
    """Raise RootOutsideUnitDisc if a zero of h lies outside the closed unit
    disc.  The coordinate x = z / c, with c the largest root modulus, moves
    both zeros onto the disc."""
    root = max(system.h_roots(), key=abs)
    if abs(root) > 1.0:
        raise RootOutsideUnitDisc(f"h has a zero at {root:.6g}, outside the unit disc "
                                  f"where the division by h is stable")


def reduce(system: ParametricSystem, F: FormalInvariants | None = None):
    """Reduction to the centered x coordinate.

    Substitutes x = (z + h1/2)/alpha1 and removes the trace part, giving a
    system (x^2 - eps) d/dx - (A - lambda I)/alpha1 with formal invariants
    (x^2 - eps, 0, mu + x).  Returns (F, reduced system), F being the
    invariants used (extracted when not given); eps and mu are F.epsilon
    and F.mu.
    """
    if F is None:
        F = extract_formal(system)
    F.require_generic()
    shifted = system.A - CSeries([F.lambda0, F.lambda1], system.order)
    # z = alpha1 * x - h1/2
    a_red = shifted.affine_substitute(-F.h1 / 2.0, F.alpha1).scale(1.0 / F.alpha1)
    return F, ParametricSystem(-F.epsilon, 0.0, a_red)


def _divide_by_h(series: CSeries, eps: complex, what: str) -> CSeries:
    """Exact series division by x^2 - eps after checking divisibility."""
    q, (r0, r1) = series.divmod_quadratic(-eps, 0.0)
    scale = max(1.0, series.max_abs())
    if max(abs(r0), abs(r1)) > _PRENORMAL_TOL * scale:
        raise InvariantMismatch(
            f"{what} is not divisible by x^2 - eps "
            f"(remainder {max(abs(r0), abs(r1)):.3e})")
    return q


def _cyclic_steps(system: ParametricSystem):
    """Steps 1 and 2 of the prenormal form.

    Step 1 conjugates A by the constant C with C^{-1} = [[w], [w A0]] for
    the best-conditioned cyclic covector w; step 2 solves the triangular
    recursion for the lower-row corrections t^(l) = (t21[l], t22[l]).
    Returns the (K, 2, 2) coefficients a of the conjugated A and the
    (K, 2, 2) stack T of the matrices [[0, 0], t^(l)], zero at l = 0.
    """
    n = system.order

    # step 1: cyclic covector w, C^{-1} = [[w], [w A0]]
    a0 = system.A.coeffs[0]
    lam0 = (a0[0, 0] + a0[1, 1]) / 2.0
    if float(np.max(np.abs(a0 - lam0 * np.eye(2)))) <= 1e-12 * max(1.0, abs(lam0)):
        raise Step1Failure("constant term of A is scalar")
    # pick the covector giving the best-conditioned conjugation: both
    # M = [[w], [w A0]] and its inverse should stay O(1)
    best, best_quality = None, -1.0
    for w in (np.array([1.0, 0.0]), np.array([0.0, 1.0]),
              np.array([1.0, 1.0]) / np.sqrt(2.0)):
        m = np.array([w, w @ a0])
        sv = np.linalg.svd(m, compute_uv=False)
        quality = sv[-1] / max(1.0, sv[0])
        if quality > best_quality:
            best, best_quality = m, quality
    if best_quality < 1e-8:
        raise Step1Failure("no well-conditioned cyclic covector")
    cinv = best
    a = cinv @ system.A.coeffs @ np.linalg.inv(cinv)

    # step 2: triangular recursion for the lower-row corrections,
    # t^(l) = -(a^(l)_top + sum_{0<j<l} a^(j)_12 t^(l-j))
    T = np.zeros((n, 2, 2), dtype=complex)
    for l in range(1, n):
        T[l, 1] = -(a[l, 0] + a[1:l, 0, 1] @ T[l - 1:0:-1, 1])
    return a, T


def prenormalize(system: ParametricSystem) -> ReducedSystem:
    """Four-step prenormal form of a reduced system.

    Input must already have h = x^2 - eps and formal invariants
    (lambda, alpha) = (0, mu + x); this is verified first.  The steps:

    1. constant conjugation to make A^(0) = [[0, 1], [*, *]];
    2. lower-row series corrections T^(l) killing the top row beyond order 0;
    3. the shear S = [[1, 0], [b22/2, 1]];
    4. a scalar exponential factor removing the residual diagonal.

    Returns the (eps, mu, r) data with
    A = [[0, 1], [mu + x + (x^2 - eps) r, 0]] exact modulo x^K.
    """
    if abs(system.h1) > 1e-10:
        raise InvariantMismatch("reduced system must have h = x^2 - eps")
    eps = -system.h0
    F = extract_formal(system)
    scale = max(1.0, system.A.max_abs())
    if max(abs(F.lambda0), abs(F.lambda1)) > _PRENORMAL_TOL * scale:
        raise InvariantMismatch("reduced system must have lambda = 0")
    if abs(F.alpha1 - 1.0) > _PRENORMAL_TOL * scale:
        raise InvariantMismatch("reduced system must have alpha = mu + x")
    mu = F.alpha0
    n = system.order

    a, T = _cyclic_steps(system)
    # B = G^{-1} A G - h G^{-1} G' with G = I + sum T^(l) x^l has a zero
    # top row beyond order 0.  G stops at x^(K-1), so the eps K T^(K)
    # x^(K-1) term of h G' is missing: an O(x^(K-1)) defect in B
    G = T.copy()
    G[0] = np.eye(2)
    b = gauge_apply(GaugeTransform(CSeriesMat2.from_coeffs(G)),
                    ParametricSystem(system.h0, 0.0, CSeriesMat2.from_coeffs(a))).A.coeffs
    top = float(np.abs(b[1:, 0]).max())
    if top > 1e-6 * max(1.0, scale):
        raise InvariantMismatch(f"step 2 left a top-row residue {top:.3e}")

    b21 = CSeries(b[:, 1, 0])
    b22 = CSeries(b[:, 1, 1])

    # step 3 shear + step 4 scalar: c(x) = b21 + (b22/2)^2 - (x^2-eps)(b22/2)'
    beta = b22 * 0.5
    h = CSeries([-eps, 0.0, 1.0], n)
    c_series = b21 + beta * beta - h * beta.deriv()
    # the step-4 factor exp(int g/2) only removes the diagonal; it does not
    # touch c.  g = b22/(x^2-eps) must exist by the invariant hypothesis.
    _divide_by_h(b22, eps, "b22")
    numer = c_series - CSeries([mu, 1.0], n)
    r = _divide_by_h(numer, eps, "A_21 - (mu + x)")
    return ReducedSystem(eps, mu, r)


def step2_growth_data(system: ParametricSystem):
    """(K_A, [|t^(l)|]) for the step-2 bound |t^(l)| <= (2 K_A)^l.

    K_A is the empirical coefficient-growth base max |a^(l)|^(1/l) of the
    step-1 conjugated matrix, the constant in the convergence estimate of
    the lower-row recursion; the bound follows by induction for any
    constant conjugation.
    """
    a, T = _cyclic_steps(system)
    n = system.order
    ka = 0.0
    for l in range(1, n):
        m = float(np.max(np.abs(a[l])))
        if m > 0:
            ka = max(ka, m ** (1.0 / l))
    return ka, np.abs(T[:, 1]).max(axis=1).tolist()
