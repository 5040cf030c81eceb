"""Independent oracles for the benchmark's gate.

Every closed form here is written from the formulas in the paper, not
imported from ``resunfold``, so a bug in the package cannot make its own
output look right.  Tolerances are the release tolerances of
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

GAMMA_TOL = 1e-6          # criteria 1-3: gamma against a closed form or its gauge twin
FORMAL_TOL = 1e-12        # criterion 2: formal invariants of a gauge pair
DET_STD_TOL = 1e-6        # criterion 7: Liouville constancy of det F
DIAG_RESIDUAL_TOL = 1e-6  # criterion 7: diagonalizer defect
CONTRACTION_MAX = 0.55    # criterion 6: Picard contraction ratio
KAPPA_RESIDUAL_TOL = 1e-8  # criterion 8: connection-calculus identities
STIRLING_I_TOL = 1e-3     # criterion 8: |kappa_I - 1| at eps = 1e-6
STIRLING_O_TOL = 1e-2     # criterion 8: |kappa_O - 1| near the origin
THETA_ABS_TOL = 1e-6      # RK4 (h = 5e-3) drift over one CSV row stride
CSV_REL_DIGITS = 5e-12    # CSV values carry 12 significant digits


# ---------------------------------------------------------------------------
# gamma closed forms


def gamma_linear(A1) -> complex:
    """gamma = 2 cos(2 pi sqrt(D)) of a system linear in z, D from A1 alone."""
    a = np.asarray(A1, dtype=complex)
    D = ((a[0, 0] - a[1, 1]) / 2.0) ** 2 + a[0, 1] * a[1, 0]
    return 2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(D))


def gamma_q(q: complex) -> complex:
    """gamma of the q-form: -2 cos(pi sqrt(1 + 4 q))."""
    return -2.0 * cmath.cos(math.pi * cmath.sqrt(1.0 + 4.0 * q))


def gamma_b(h0, h1, alpha0, alpha1, b) -> complex:
    """gamma of the b-form: 2 cos(2 pi sqrt(b beta1)),
    beta1 = (alpha1 - b alpha0) / (1 - b h1 + b^2 h0)."""
    beta1 = (alpha1 - b * alpha0) / (1.0 - b * h1 + b * b * h0)
    return 2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(b * beta1))


def q_for_gamma(target: complex, near: complex) -> complex:
    """The q with gamma_q(q) = target closest to ``near``.

    gamma_q(q) = target  <=>  sqrt(1 + 4q) = +-u + 2k with
    u = arccos(-target/2)/pi, and q = (v^2 - 1)/4 for each such v.
    """
    u = cmath.acos(-target / 2.0) / math.pi
    candidates = [((sgn * u + 2 * k) ** 2 - 1.0) / 4.0
                  for sgn in (1, -1) for k in range(-3, 4)]
    return min(candidates, key=lambda q: abs(q - near))


# ---------------------------------------------------------------------------
# theta: antiderivative of 2 s^2 / ((s^2 - mu)^2 - eps) vanishing at infinity


def theta_branches(mu: complex, eps: complex):
    """Return (theta(s) on an ndarray, [jumps of 2 theta across its cuts]).

    The four closed-form cases of the paper.  Any consistent choice of
    square roots gives an antiderivative; principal logarithms put the
    cuts on segments through the origin, and crossing one changes
    2 theta by one of the returned jump constants.
    """
    mu, eps = complex(mu), complex(eps)
    scale = max(abs(mu) ** 2, abs(eps), 1e-300)
    if abs(eps) <= 1e-13 * scale and abs(mu) <= 1e-13 * math.sqrt(scale):
        return (lambda s: -2.0 / s), []
    if abs(eps) <= 1e-13 * scale:
        sm = cmath.sqrt(mu)

        def th_eps0(s):
            return -s / (s * s - mu) - np.log((s + sm) / (s - sm)) / (2.0 * sm)
        return th_eps0, [2j * math.pi / sm]
    if abs(mu * mu - eps) <= 1e-13 * scale:
        sr = cmath.sqrt(2.0 * mu)
        return (lambda s: np.log((s - sr) / (s + sr)) / sr), [4j * math.pi / sr]
    se = cmath.sqrt(eps)
    s1 = cmath.sqrt(mu + se)
    s2 = cmath.sqrt(mu - se)

    def th_generic(s):
        return ((s1 / (2.0 * se)) * np.log((s - s1) / (s + s1))
                - (s2 / (2.0 * se)) * np.log((s - s2) / (s + s2)))
    return th_generic, [2j * math.pi * s1 / se, 2j * math.pi * s2 / se]


def theta_deriv(s, mu: complex, eps: complex):
    return 2.0 * s * s / ((s * s - mu) ** 2 - eps)


def theta_identity(traj: np.ndarray, xi: np.ndarray, s: np.ndarray,
                   omega: complex, mu: complex, eps: complex):
    """Check omega * dxi = 2 dtheta between consecutive CSV rows.

    ``traj``, ``xi`` and ``s`` are the columns of trajectories.csv.  A
    step whose residual is explained by a branch jump of the principal
    logarithm crossed a cut and is excluded.  Returns
    (worst residual, worst residual / allowed, steps checked, steps excluded);
    a non-finite residual makes the ratio infinite.
    The allowed residual per step is the RK4 drift bound plus the error
    that 12-digit rounding of s and xi induces through theta' and omega.
    """
    th, jumps = theta_branches(mu, eps)
    same = traj[1:] == traj[:-1]
    a, b = s[:-1][same], s[1:][same]
    dxi = (xi[1:] - xi[:-1])[same]
    with np.errstate(divide="ignore", invalid="ignore"):
        res = omega * dxi - 2.0 * (th(b) - th(a))
        best = np.abs(res)
        crossed = np.zeros(best.shape, dtype=bool)
        combos = [k * j for j in jumps for k in (-1, 1)]
        if len(jumps) == 2:
            combos += [k1 * jumps[0] + k2 * jumps[1] for k1 in (-1, 1) for k2 in (-1, 1)]
        for c in combos:
            alt = np.abs(res - c)
            better = alt < best
            best = np.where(better, alt, best)
            crossed |= better
        dth = np.abs(theta_deriv(a, mu, eps)) * np.abs(a) + \
            np.abs(theta_deriv(b, mu, eps)) * np.abs(b)
        allowed = THETA_ABS_TOL + 4.0 * CSV_REL_DIGITS * (dth + abs(omega) * np.abs(xi[1:][same]))
    if not np.all(np.isfinite(best)):
        return math.inf, math.inf, int(best.size), int(crossed.sum())
    keep = ~crossed
    if not keep.any():
        return 0.0, 0.0, 0, int(crossed.sum())
    worst = float(np.max(best[keep]))
    ratio = float(np.max(best[keep] / allowed[keep]))
    return worst, ratio, int(keep.sum()), int(crossed.sum())
