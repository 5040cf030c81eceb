"""Monodromy of y' = (A/h) y along contours and the trace invariant gamma.

gamma = exp(-2 pi i lambda1) * tr M where M is the transport around both
zeros of h in the positive direction.  The trace makes the result
independent of the fundamental solution and of the basepoint.  The
transport is Taylor-series analytic continuation with an error bound.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import binomials, pascal_shift, trim
from .invariants import FormalInvariants, extract_formal
from .system import ParametricSystem


class SingularityTooClose(ValueError):
    """Contour passes too close to a zero of h for the requested tolerance."""


class StepUnderflow(RuntimeError):
    """The transport failed: a local Taylor series did not converge within
    the fixed term cap, a contour needed more than the fixed step cap, or
    the transport or its error bound overflowed."""


class UnreliableGamma(ArithmeticError):
    """The transport's error bound on gamma is not small against gamma."""


# a gamma counts as computed when est_error <= GAMMA_ERROR_MAX * max(1, |gamma|)
GAMMA_ERROR_MAX = 1e-3


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
        """Yield (z(t), length) per segment, t the arclength (|dz/dt| = 1)."""
        if self.kind == "circle":
            c, R, sgn = self.center, self.radius, self.orientation

            def z(t):
                return c + R * cmath.exp(1j * sgn * t / R)

            yield z, 2.0 * math.pi * R
        else:
            for a, b in zip(self.points[:-1], self.points[1:]):
                L = abs(b - a)
                if L == 0.0:
                    continue
                yield (lambda t, a=a, u=(b - a) / L: a + u * t), L

    def sample(self, n: int = 256) -> np.ndarray:
        """n points per segment, uniform in arclength, ends included."""
        u = np.linspace(0.0, 1.0, n)
        if self.kind == "circle":
            return self.center + self.radius * np.exp(2j * math.pi * self.orientation * u)
        pieces = [a + (b - a) * u for a, b in zip(self.points[:-1], self.points[1:]) if b != a]
        return np.concatenate(pieces) if pieces else np.empty(0, dtype=complex)

    def min_distance(self, pts) -> float:
        samples = self.sample(512)
        return float(min(abs(samples - complex(p)).min() for p in pts))


@dataclass(frozen=True)
class MonodromyResult:
    """gamma and its error bound, the transport M, the number of Taylor
    steps, and the Liouville self-check |det M - exp(4 pi i lambda1)|."""

    M: np.ndarray
    gamma: complex
    est_error: float
    steps: int
    det_defect: float

    def require_reliable(self) -> None:
        """Raise UnreliableGamma unless est_error <= GAMMA_ERROR_MAX * max(1, |gamma|),
        the one acceptance rule of the invariants and equiv commands."""
        if not self.est_error <= GAMMA_ERROR_MAX * max(1.0, abs(self.gamma)):
            raise UnreliableGamma(f"gamma = {self.gamma:.6g} has est_error = "
                                  f"{self.est_error:.3g}, above {GAMMA_ERROR_MAX:g} "
                                  f"* max(1, |gamma|)")


@dataclass(frozen=True)
class Transport:
    """Transport matrix M with first-order bounds on the infinity norm of
    its error (``error``) and on the error of its trace (``trace_error``)."""

    M: np.ndarray
    error: float
    trace_error: float
    steps: int


_U = 2.0 ** -53     # unit roundoff
_TAIL = 1e-5        # a local series stops once its tail bound is below _TAIL * tol
_MAX_TERMS = 600    # ... or fails with StepUnderflow after this many terms
_MAX_STEPS = 1000   # a contour fails with StepUnderflow after this many steps
_BATCH = 4          # terms generated between two convergence checks
_PANELS = 8         # Riemann panels bounding the integral of |A| / |h| on a step
# a step shorter than half the root distance keeps that integral, the log of
# the local Gronwall factor, below this (and exp from overflowing)
_MAX_LOG_GROWTH = 20.0


def _norm(m):
    """Infinity norm (max row sum) of a 2x2 matrix or of each in a stack."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def _log_growth(beta: np.ndarray, r: float, ra: float, rb: float) -> float:
    """Upper Riemann sum of int_0^r |A(c+s)| / |h(c+s)| d|s| on a segment
    from c: ``beta`` holds the norms of the coefficients of A(c+s) and the
    integrand increases with |s|."""
    taus = r * np.arange(1, _PANELS + 1) / _PANELS
    g = np.polyval(beta[::-1], taus) / ((ra - taus) * (rb - taus))
    return r / _PANELS * float(g.sum())


def _taylor_step(B: np.ndarray, H0: complex, H1: complex, delta: complex,
                 ra: float, rb: float, tail: float):
    """Y(delta) for h(c+s) Y' = A(c+s) Y, Y(0) = I, from its Taylor series.

    ``B`` holds the coefficients of A(c+s), ``H0 = h(c)``, ``H1 = h'(c)``,
    and ``ra <= rb`` are the distances from c to the zeros of h, with
    ``|delta| <= ra / 2``.  The coefficients follow the recurrence
    ``H0 (n+1) Y_{n+1} = sum_k B_k Y_{n-k} - H1 n Y_n - (n-1) Y_{n-1}``.

    The truncation bound is Gronwall's.  On the segment [0, delta],
    ``|h(c+s)| >= (ra - |s|)(rb - |s|)`` and ``|A(c+s)| <= sum |B_k| |s|^k``;
    the series P truncated after n terms has the polynomial defect
    ``R = h P' - A P``, so ``|Y - P| <= exp(int |A|/|h|) int |R|/|h|``.
    Terms are added until that bound is below ``tail`` times the largest
    term.  Returns (Y(delta), bound), where the bound adds a rounding
    floor of 8 units in the last place of the summed terms.
    """
    d = len(B) - 1
    pad = max(d, 1)
    r = abs(delta)
    beta = _norm(B)
    growth = math.exp(_log_growth(beta, r, ra, rb))
    den = (ra - r) * (rb - r)
    # [B_p .. B_1 - (n-1), B_0 - n H1] / (H0 (n+1)) times [Y_{n-p}; ..; Y_n]
    # is Y_{n+1} (B_k = 0 for k > d); built for a chunk of n at a time
    Bcat = np.zeros((2, pad + 1, 2), dtype=complex)
    Bcat[:, pad - d:] = B[::-1].transpose(1, 0, 2)
    Bcat = Bcat.reshape(2, 2 * (pad + 1))
    Jn = np.zeros_like(Bcat)
    Jn[:, -4:-2] = np.eye(2)
    Jn[:, -2:] = H1 * np.eye(2)
    Bcat[:, -4:-2] += np.eye(2)
    Y = np.zeros((pad + _MAX_TERMS + _BATCH + 1, 2, 2), dtype=complex)
    Y[pad] = np.eye(2)
    rpow = r ** np.arange(_MAX_TERMS + _BATCH + d + 2)
    n = 0
    largest = 1.0
    while True:
        for _ in range(_BATCH):
            if n % 64 == 0:
                ns = np.arange(n, n + 64)[:, None, None]
                chunk = (Bcat - ns * Jn) / (H0 * (ns + 1))
            np.matmul(chunk[n % 64], Y[n: pad + n + 1].reshape(-1, 2),
                      out=Y[pad + n + 1])
            n += 1
        last = float(np.abs(Y[pad + n]).max()) * rpow[n]
        largest = max(largest, last)
        if last > 1e-2 * tail * largest and n < _MAX_TERMS:
            continue
        # defect of P = sum_{m<n} Y_m s^m: its s^(n-1) coefficient is
        # -H0 n Y_n; its s^(n+j) coefficient, j >= 0, is
        # (n-1) Y_{n-1} [j = 0] - sum_{k>j} B_k Y_{n+j-k}
        nu = _norm(Y[pad: pad + n + 1])
        terms = nu[:n] * rpow[:n]
        w = nu[n - 1::-1][:d]                    # |Y_{n-1}|, |Y_{n-2}|, ..
        lag = np.correlate(beta[1:], w, "full")[len(w) - 1:] if d else np.zeros(1)
        lag[0] += (n - 1) * nu[n - 1]
        m = n + 1 + np.arange(len(lag))
        defect = abs(H0) * nu[n] * rpow[n] + float(np.sum(lag * rpow[m] / m))
        bound = growth * defect / den
        if bound <= tail * float(terms.max()):
            break
        if n >= _MAX_TERMS:
            raise StepUnderflow(f"local series did not converge within {_MAX_TERMS} "
                                f"terms (tail bound {bound:.3e})")
    T = np.tensordot(delta ** np.arange(n), Y[pad:pad + n], axes=1)
    return T, bound + 8.0 * _U * float(terms.sum())


# an overflow, in a step or in the product of the steps, leaves a non-finite
# entry in M or in its bounds, which propagate refuses
@np.errstate(over="ignore", invalid="ignore")
def propagate(system: ParametricSystem, contour: Contour, tol: float = 1e-9) -> Transport:
    """Fundamental-matrix transport Phi(end) Phi(start)^{-1} along the contour.

    Taylor-series analytic continuation.  From a contour point c, a step
    covers at most half the distance from c to the nearer zero of h in
    arclength (so its chord is as short), halved further while the local
    Gronwall factor exceeds e^20, and the local series of the
    solution, generated by the exact recurrence of h Y' = A Y, is summed
    until its tail bound falls below 1e-5 * tol relative to its largest
    term.  ``Transport.error`` bounds the infinity norm of the error of
    M: the tail bound and rounding floor of every step, plus the gap
    between the full series A at the step's end and the recentred
    polynomial the step used, carried through the products of the step
    transports.  The contour must keep a tolerance-dependent clearance
    from the zeros of h, measured relative to the root-spread scale.

    Raises ValueError for a tol outside [1e-13, 1e-6] or a non-finite h,
    SingularityTooClose when the contour comes too near a zero of h, and
    StepUnderflow when a local series does not converge within a fixed
    number of terms, the contour needs more than a fixed number of steps,
    or the transport or its error bound overflows.
    """
    if not (1e-13 <= tol <= 1e-6):
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    if not (cmath.isfinite(system.h0) and cmath.isfinite(system.h1)):
        raise ValueError("h coefficients must be finite")
    roots = system.h_roots()
    spread = max(abs(roots[0] - roots[1]) / 2.0, 0.05)
    clearance = contour.min_distance(roots)
    if clearance < 10.0 * tol ** 0.2 * spread * 1e-2:
        raise SingularityTooClose(
            f"contour clearance {clearance:.3e} below the safe distance for tol={tol}")

    # A(c + s) at each step from a Pascal shift of A's polynomial part
    stack = trim(system.A.coeffs)
    binom = binomials(len(stack))
    Ts, bounds, Bs, ends, dist = [], [], [], [], []
    for z, L in contour.segments():
        t = 0.0
        while t < L:
            if len(Ts) == _MAX_STEPS:
                raise StepUnderflow(f"contour needs more than {_MAX_STEPS} Taylor steps")
            c = z(t)
            ra, rb = sorted(abs(c - root) for root in roots)
            if ra <= 1e-12 * spread:
                raise SingularityTooClose(f"contour passes through a zero of h at {c}")
            B = pascal_shift(stack, c, binom=binom)
            dt = 0.5 * ra
            while _log_growth(_norm(B), dt, ra, rb) > _MAX_LOG_GROWTH:
                dt *= 0.5
            t = L if dt >= L - t else t + dt
            z1 = z(t)
            T, bound = _taylor_step(B, system.h_at(c), 2.0 * c + system.h1,
                                    z1 - c, ra, rb, _TAIL * tol)
            Ts.append(T)
            bounds.append(bound)
            Bs.append(B)
            ends.append((c, z1))
            dist.append((ra, rb))
    if not Ts:
        return Transport(np.eye(2, dtype=complex), 0.0, 0.0, 0)
    # a posteriori: the full series A at each step's end against the
    # recentred polynomial the step used, a data defect acting over the step
    c, z1 = np.array(ends).T
    delta = z1 - c
    recentred = np.einsum("nk,nkij->nij", delta[:, None] ** np.arange(len(stack)), np.array(Bs))
    gap = _norm(system.A.eval(z1) - recentred)
    ra, rb = np.array(dist).T
    r = np.abs(delta)
    Ts = np.array(Ts)
    local = np.array(bounds) + _norm(Ts) * r * gap / ((ra - r) * (rb - r))
    tr = _carry(Ts, local)
    if not (np.isfinite(tr.M).all() and math.isfinite(tr.error)
            and math.isfinite(tr.trace_error)):
        raise StepUnderflow("the transport or its error bound overflowed")
    return tr


def _carry(Ts: np.ndarray, local: np.ndarray) -> Transport:
    """Multiply the step transports T_j and carry their error bounds E_j.

    To first order the error of M = T_{N-1} .. T_0 is
    sum_j Q_j (E_j P_j + F_j), with P_j = T_{j-1} .. T_0, Q_j =
    T_{N-1} .. T_{j+1} and F_j the rounding of the product T_j P_j.  The
    trace error is bounded cyclically: |tr(Q E P)| <= |E| sum|P Q|.
    """
    N = len(Ts)
    P = np.empty_like(Ts)
    Q = np.empty_like(Ts)
    P[0] = Q[-1] = np.eye(2)
    for j in range(1, N):
        P[j] = Ts[j - 1] @ P[j - 1]
        Q[N - 1 - j] = Q[N - j] @ Ts[N - j]
    M = Ts[-1] @ P[-1]
    nT, nP, nQ = _norm(Ts), _norm(P), _norm(Q)
    rounding = 4.0 * _U * nT * nP                 # |F_j|
    error = float(np.sum(nQ * (local * nP + rounding)))
    loop = np.abs(P @ Q).sum(axis=(1, 2))
    trace_error = float(np.sum(local * loop + rounding * np.abs(Q).sum(axis=(1, 2))))
    return Transport(M, error, trace_error, N)


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

    M is the transport around both zeros of h, positively oriented, from
    one ``propagate`` pass.  est_error bounds |gamma - exact|: the
    transport's trace error bound plus rounding, or, when larger, the
    Liouville defect |det M - exp(4 pi i lambda1)| scaled by 2 / |M| (a
    perturbation dM moves det M by about |M| |dM|, tr M by up to 2 |dM|).
    """
    if F is None:
        F = extract_formal(system)
    if contour is None:
        contour = auto_contour(system, validity_radius)
    tr = propagate(system, contour, tol)
    M = tr.M
    phase = cmath.exp(-2j * math.pi * F.lambda1)
    gamma = phase * (M[0, 0] + M[1, 1])
    bound = abs(phase) * (tr.trace_error + 2.0 * _U * (abs(M[0, 0]) + abs(M[1, 1])))
    # an overflowed M reads inf or NaN here, which require_reliable refuses
    with np.errstate(over="ignore", invalid="ignore"):
        det_defect = abs(np.linalg.det(M) - cmath.exp(4j * math.pi * F.lambda1))
    liouville = 2.0 * abs(phase) * det_defect / max(1.0, float(_norm(M)))
    return MonodromyResult(M, gamma, max(bound, liouville), tr.steps, det_defect)


def gamma_closed_form(A0, A1) -> complex:
    """gamma of a system linear in z, from the z-coefficient matrix alone.

    gamma = 2 cos 2 pi sqrt(D) with
    D = ((a11 - a22)/2)^2 + a12 a21 of A1; the square-root branch is
    irrelevant because cosine is even.
    """
    A1 = np.asarray(A1, dtype=complex)
    D = ((A1[0, 0] - A1[1, 1]) / 2.0) ** 2 + A1[0, 1] * A1[1, 0]
    return 2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(D))
