"""Monodromy of y' = (A/h) y along contours and the trace invariant gamma.

gamma = exp(-2 pi i lambda1) * tr M where M is the transport around both
zeros of h in the positive direction.  The trace makes the result
independent of the fundamental solution and of the basepoint.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .invariants import FormalInvariants, extract_formal
from .system import ParametricSystem


class SingularityTooClose(ValueError):
    """Contour passes too close to a zero of h for the requested tolerance."""


class StepUnderflow(RuntimeError):
    """Adaptive integrator step fell below the resolvable size."""


@dataclass(frozen=True)
class Contour:
    """Arclength-parameterized integration path.

    Either a circle (center, radius) or a polyline through ``points``.
    ``orientation`` +1 is counterclockwise for circles and forward for
    polylines.
    """

    kind: str
    orientation: int = 1
    center: complex = 0.0
    radius: float = 0.0
    points: tuple = field(default_factory=tuple)

    @classmethod
    def circle(cls, center: complex, radius: float, orientation: int = 1) -> "Contour":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("circle", orientation, complex(center), float(radius))

    @classmethod
    def polyline(cls, points, orientation: int = 1) -> "Contour":
        pts = tuple(complex(p) for p in points)
        if len(pts) < 2:
            raise ValueError("polyline needs at least two points")
        if orientation < 0:
            pts = pts[::-1]
        return cls("polyline", 1, points=pts)

    def segments(self):
        """Yield (z(t), dz(t), length) callables per arclength segment."""
        if self.kind == "circle":
            c, R, sgn = self.center, self.radius, self.orientation
            L = 2.0 * math.pi * R

            def z(t):
                return c + R * cmath.exp(1j * sgn * t / R)

            def dz(t):
                return 1j * sgn * cmath.exp(1j * sgn * t / R)

            yield z, dz, L
        else:
            for a, b in zip(self.points[:-1], self.points[1:]):
                L = abs(b - a)
                if L == 0.0:
                    continue
                u = (b - a) / L
                yield (lambda t, a=a, u=u: a + u * t), (lambda t, u=u: u), L

    def sample(self, n: int = 256) -> np.ndarray:
        out = []
        for z, _dz, L in self.segments():
            ts = np.linspace(0.0, L, n)
            out.extend(z(t) for t in ts)
        return np.asarray(out)

    def start(self) -> complex:
        for z, _dz, _L in self.segments():
            return z(0.0)
        raise ValueError("empty contour")

    def min_distance(self, pts) -> float:
        samples = self.sample(512)
        return float(min(abs(samples - complex(p)).min() for p in pts))

    def scale(self) -> float:
        if self.kind == "circle":
            return self.radius
        pts = np.asarray(self.points)
        return float(max(np.abs(pts - pts.mean()).max(), 1e-12))


@dataclass(frozen=True)
class MonodromyResult:
    M: np.ndarray
    gamma: complex
    est_error: float


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _rk45_segment(f, y0: np.ndarray, L: float, tol: float) -> np.ndarray:
    """Integrate y' = f(t, y) over t in [0, L], local error <= tol per unit t."""
    t, y = 0.0, y0
    h = min(L, max(L * 1e-3, 10.0 * tol ** 0.2 * L * 1e-2))
    while t < L:
        h = min(h, L - t)
        ks = []
        for i in range(7):
            yi = y
            for j, aij in enumerate(_DP_A[i]):
                if aij != 0.0:
                    yi = yi + (h * aij) * ks[j]
            ks.append(f(t + _DP_C[i] * h, yi))
        y5 = y
        y4 = y
        for i in range(7):
            if _DP_B5[i] != 0.0:
                y5 = y5 + (h * _DP_B5[i]) * ks[i]
            if _DP_B4[i] != 0.0:
                y4 = y4 + (h * _DP_B4[i]) * ks[i]
        err = float(np.max(np.abs(y5 - y4)))
        scale = max(1.0, float(np.max(np.abs(y5))))
        # never demand less than the roundoff floor of the state itself
        tol_step = max(tol * h * scale, 30.0 * 2.3e-16 * scale)
        if err <= tol_step or h <= 1e-13 * L:
            if h <= 1e-13 * L and err > 100.0 * tol_step:
                raise StepUnderflow("step size underflow in contour transport")
            t += h
            y = y5
        factor = 0.9 * (tol_step / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return y


def propagate(system: ParametricSystem, contour: Contour, tol: float = 1e-9) -> np.ndarray:
    """Fundamental-matrix transport Phi(end) Phi(start)^{-1} along the contour.

    Adaptive embedded Runge-Kutta 5(4) with local error <= tol per unit
    arclength.  The contour must keep a tolerance-dependent clearance from
    the zeros of h, measured relative to the root-spread scale.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    roots = system.h_roots()
    spread = max(abs(roots[0] - roots[1]) / 2.0, 0.05)
    clearance = contour.min_distance(roots)
    if clearance < 10.0 * tol ** 0.2 * spread * 1e-2:
        raise SingularityTooClose(
            f"contour clearance {clearance:.3e} below the safe distance for tol={tol}")

    A = system.A
    Y = np.eye(2, dtype=complex)
    for z, dz, L in contour.segments():

        def rhs(t, y):
            zt = z(t)
            return (dz(t) / system.h_at(zt)) * (A.eval(zt) @ y)

        Y = _rk45_segment(rhs, Y, L, tol)
    return Y


def auto_contour(system: ParametricSystem, validity_radius: float = math.inf) -> Contour:
    """Circle around both zeros of h: center -h1/2, radius 3x the root spread
    (floored at 0.05), capped by 0.8x the caller's validity radius.

    When the validity radius allows, the loop is widened to radius >= 1:
    tight root pairs have huge local exponents, and a narrow loop makes the
    transport entries so large that the trace cancellation hits the
    double-precision floor.
    """
    r1, r2 = system.h_roots()
    c = -system.h1 / 2.0
    spread = max(abs(r1 - c), abs(r2 - c))
    radius = 3.0 * max(spread, 0.05)
    cap = 0.8 * validity_radius
    if cap < 1.5 * max(spread, 1e-12):
        raise SingularityTooClose(
            "validity radius too small for a contour enclosing both zeros of h")
    if cap > radius:
        radius = min(max(radius, 1.0), cap)
    else:
        radius = min(radius, cap)
    return Contour.circle(c, radius)


def gamma_numeric(system: ParametricSystem, F: FormalInvariants | None = None,
                  tol: float = 1e-9, validity_radius: float = math.inf,
                  contour: Contour | None = None) -> MonodromyResult:
    """Monodromy invariant gamma = exp(-2 pi i lambda1) tr M.

    M is the transport around both zeros of h, positively oriented.  The
    returned estimate is computed twice (at tol and tol/10); est_error is
    the difference of the two gamma values and the tighter run is reported.
    """
    if F is None:
        F = extract_formal(system)
    if contour is None:
        contour = auto_contour(system, validity_radius)
    phase = cmath.exp(-2j * math.pi * F.lambda1)
    M_lo = propagate(system, contour, tol)
    M_hi = propagate(system, contour, tol / 10.0)
    g_lo = phase * (M_lo[0, 0] + M_lo[1, 1])
    g_hi = phase * (M_hi[0, 0] + M_hi[1, 1])
    return MonodromyResult(M_hi, g_hi, abs(g_hi - g_lo))


def gamma_closed_form(A0, A1) -> complex:
    """gamma of a system linear in z, from the z-coefficient matrix alone.

    gamma = 2 cos 2 pi sqrt(D) with
    D = ((a11 - a22)/2)^2 + a12 a21 of A1; the square-root branch is
    irrelevant because cosine is even.
    """
    A1 = np.asarray(A1, dtype=complex)
    D = ((A1[0, 0] - A1[1, 1]) / 2.0) ** 2 + A1[0, 1] * A1[1, 0]
    return 2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(D))
