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

from .algebra import binomials, horner, pascal_shift, trim
from .geometry import _dist_to_segment
from .invariants import FormalInvariants, extract_formal
from .system import ParametricSystem


class SingularityTooClose(ValueError):
    """Contour passes too close to a zero of h for the requested tolerance."""


class StepUnderflow(RuntimeError):
    """The transport failed: a local Taylor series overflowed or did not
    converge within the fixed term cap, a contour needed more than the fixed
    step cap, or the transport or its error bound overflowed."""


class UnreliableGamma(ArithmeticError):
    """The transport's error bound on gamma is not small against gamma."""


# a gamma counts as computed when est_error <= GAMMA_ERROR_MAX * max(1, |gamma|)
GAMMA_ERROR_MAX = 1e-3


@dataclass(frozen=True)
class Contour:
    """Arclength-parameterized integration path.

    Either a counterclockwise circle (center, radius) or a polyline through
    ``points``, traversed in order.
    """

    kind: str
    center: complex = 0.0
    radius: float = 0.0
    points: tuple = field(default_factory=tuple)

    @classmethod
    def circle(cls, center: complex, radius: float) -> "Contour":
        if radius <= 0:
            raise ValueError("radius must be positive")
        return cls("circle", complex(center), float(radius))

    @classmethod
    def polyline(cls, points) -> "Contour":
        pts = tuple(complex(p) for p in points)
        if len(pts) < 2:
            raise ValueError("polyline needs at least two points")
        return cls("polyline", points=pts)

    def segments(self):
        """Yield (z(t), length) per segment, t the arclength (|dz/dt| = 1)."""
        if self.kind == "circle":
            c, R = self.center, self.radius

            def z(t):
                return c + R * cmath.exp(1j * t / R)

            yield z, 2.0 * math.pi * R
        else:
            for a, b in zip(self.points[:-1], self.points[1:]):
                L = abs(b - a)
                if L == 0.0:
                    continue
                yield (lambda t, a=a, u=(b - a) / L: a + u * t), L

    def min_distance(self, pts) -> float:
        """Exact distance from the contour to the nearest of ``pts``: to a
        circle ||p - c| - R|, to a polyline the distance to its nearest
        segment (a point, for a segment of length 0)."""
        if self.kind == "circle":
            return min(abs(abs(complex(p) - self.center) - self.radius) for p in pts)
        return min(_dist_to_segment(complex(p) - a, b - a)
                   for p in pts for a, b in zip(self.points[:-1], self.points[1:]))


@dataclass(frozen=True)
class MonodromyResult:
    """gamma and its error bound, the transport M, the number of Taylor
    steps, the Liouville self-check |det M - exp(4 pi i lambda1)|, and the
    number of series terms of each step."""

    M: np.ndarray
    gamma: complex
    est_error: float
    steps: int
    det_defect: float
    terms: tuple

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
    its error (``error``) and on the error of its trace (``trace_error``),
    the number of Taylor steps and the number of series terms of each."""

    M: np.ndarray
    error: float
    trace_error: float
    steps: int
    terms: tuple


_U = 2.0 ** -53     # unit roundoff
_TAIL = 1e-5        # a local series stops once its tail bound is below _TAIL * tol
_MAX_TERMS = 600    # ... or fails with StepUnderflow after this many terms
_MAX_STEPS = 1000   # a contour fails with StepUnderflow after this many steps
_BATCH = 4          # terms generated between two convergence checks
_CHUNK = 16         # terms per block of recurrence coefficients (and of growth of Y)
_LANES = 32         # steps planned, then summed together, as one block
_PANELS = 8         # Riemann panels bounding the integral of |A| / |h| on a step
# a step shorter than half the root distance keeps that integral, the log of
# the local Gronwall factor, below this (and exp from overflowing)
_MAX_LOG_GROWTH = 20.0


def _norm(m):
    """Infinity norm (max row sum) of a 2x2 matrix or of each in a stack."""
    return np.abs(m).sum(axis=-1).max(axis=-1)


def _log_growth(beta: np.ndarray, r: np.ndarray, ra: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Upper Riemann sums of int_0^r |A(c+s)| / |h(c+s)| d|s| on segments
    from centres c, one per row: ``beta[j]`` holds the norms of the
    coefficients of A(c_j+s), ``r``, ``ra``, ``rb`` hold the segment length
    and the root distances of each row, and the integrand increases with |s|."""
    taus = r[:, None] * np.arange(1, _PANELS + 1) / _PANELS
    g = horner(beta.T[:, :, None], taus) / ((ra[:, None] - taus) * (rb[:, None] - taus))
    return r / _PANELS * g.sum(axis=1)


def _taylor_steps(B: np.ndarray, H0: list, H1: list, delta: list,
                  ra: np.ndarray, rb: np.ndarray, tail: float):
    """Y_j(delta_j) for h(c_j+s) Y' = A(c_j+s) Y, Y(0) = I, for each step j
    of a block, from the Taylor series of the steps run together.

    ``B[j]`` holds the coefficients of A(c_j+s), ``H0[j] = h(c_j)`` and
    ``H1[j] = h'(c_j)`` (Python numbers, as are the ``delta[j]``: the bound
    takes their moduli by Python's abs), and ``ra[j] <= rb[j]`` are the
    distances from c_j to the zeros of h, with ``|delta_j| <= ra[j] / 2``.
    The coefficients follow the recurrence
    ``H0 (n+1) Y_{n+1} = sum_k B_k Y_{n-k} - H1 n Y_n - (n-1) Y_{n-1}``;
    one matrix product per term advances every step of the block on a
    leading lane axis, with the coefficients built ``_CHUNK`` terms at a
    time and Y grown by as many rows.

    The truncation bound is Gronwall's.  On the segment [0, delta],
    ``|h(c+s)| >= (ra - |s|)(rb - |s|)`` and ``|A(c+s)| <= sum |B_k| |s|^k``;
    the series P truncated after n terms has the polynomial defect
    ``R = h P' - A P``, so ``|Y - P| <= exp(int |A|/|h|) int |R|/|h|``.
    Every ``_BATCH`` terms each lane is checked on its own, and it leaves
    the block at the first check where that bound is below ``tail`` times
    its largest term: it sums the same n terms as a block of one, and its
    sums are taken lane by lane in the same order.  Returns (T, bound,
    terms): T[j] = Y_j(delta_j), its bound plus a rounding floor of 8
    units in the last place of the summed terms, and the number of terms.
    Raises StepUnderflow when a series reaches ``_MAX_TERMS`` terms
    without converging, for the first such step.  A lane whose bound is
    not finite (its terms overflowed) fails at once with its own term count,
    and the error is raised as soon as no earlier step is still running.
    """
    N, K = B.shape[:2]
    d = K - 1
    pad = max(d, 1)
    r = [abs(x) for x in delta]
    beta = _norm(B)
    growth = [math.exp(g) for g in _log_growth(beta, np.array(r), ra, rb)]
    den = (ra - r) * (rb - r)
    absH0 = np.array([abs(x) for x in H0])
    # [B_p .. B_1 - (n-1), B_0 - n H1] / (H0 (n+1)) times [Y_{n-p}; ..; Y_n]
    # is Y_{n+1} (B_k = 0 for k > d); Bcat holds it at n = 0 and J the
    # columns that change with n, [I, H1 I]
    Bcat = np.zeros((N, 2, pad + 1, 2), dtype=complex)
    Bcat[:, :, pad - d:] = B[:, ::-1].transpose(0, 2, 1, 3)
    Bcat = Bcat.reshape(N, 2, 2 * (pad + 1))
    Bcat[:, :, -4:-2] += np.eye(2)
    J = np.zeros((N, 2, 4), dtype=complex)
    J[:, :, :2] = np.eye(2)
    J[:, :, 2:] = np.array(H1, dtype=complex)[:, None, None] * np.eye(2)
    H0a = np.array(H0, dtype=complex)[:, None, None, None]
    chunk = np.empty((N, _CHUNK) + Bcat.shape[1:], dtype=complex)
    Y = np.zeros((N, pad + 1, 2, 2), dtype=complex)
    Y[:, pad] = np.eye(2)
    rr = np.array(r)[:, None]
    rpow = np.empty((N, 0))
    T = np.empty((N, 2, 2), dtype=complex)
    bound = np.empty(N)
    terms = np.zeros(N, dtype=int)
    lane = np.arange(N)                 # the step of each row still running
    largest = np.ones(N)
    failed = None                       # (step, bound, terms) of the first failed step
    n = 0
    while lane.size:
        for _ in range(_BATCH):
            if n % _CHUNK == 0:
                ns = np.arange(n, n + _CHUNK, dtype=complex)[:, None, None]
                chunk[:] = Bcat[:, None]
                chunk[..., -4:] -= ns * J[:, None]
                chunk /= H0a * (ns + 1)
                Y = np.concatenate([Y, np.zeros((lane.size, _CHUNK, 2, 2), dtype=complex)], axis=1)
                rpow = np.concatenate([rpow, rr ** np.arange(rpow.shape[1], n + _CHUNK + pad + 1)],
                                      axis=1)
            np.matmul(chunk[:, n % _CHUNK], Y[:, n: pad + n + 1].reshape(lane.size, -1, 2),
                      out=Y[:, pad + n + 1])
            n += 1
        last = np.abs(Y[:, pad + n]).max(axis=(1, 2)) * rpow[:, n]
        largest = np.where(last > largest, last, largest)    # max(), blind to NaN
        ready = np.flatnonzero(~(last > 1e-2 * tail * largest) | (n >= _MAX_TERMS))
        if not ready.size:
            continue
        # defect of P = sum_{m<n} Y_m s^m: its s^(n-1) coefficient is
        # -H0 n Y_n; its s^(n+j) coefficient, j >= 0, is
        # (n-1) Y_{n-1} [j = 0] - sum_{k>j} B_k Y_{n+j-k}
        nu = _norm(Y[ready, pad: pad + n + 1])
        rp = rpow[ready]
        sizes = nu[:, :n] * rp[:, :n]
        head = absH0[lane[ready]] * nu[:, n] * rp[:, n]
        m = n + 1 + np.arange(pad)
        for k, i in enumerate(ready):
            j = lane[i]
            w = nu[k, n - 1::-1][:d]                  # |Y_{n-1}|, |Y_{n-2}|, ..
            lag = np.correlate(beta[j, 1:], w, "full")[len(w) - 1:] if d else np.zeros(1)
            lag[0] += (n - 1) * nu[k, n - 1]
            b = growth[j] * (head[k] + float(np.sum(lag * rp[k, m] / m))) / den[j]
            if b <= tail * float(sizes[k].max()):
                # sum_{m<n} Y_m delta^m as one (1, n) x (n, 4) product
                T[j] = np.dot((delta[j] ** np.arange(n))[None],
                              Y[i, pad:pad + n].reshape(n, 4)).reshape(2, 2)
                bound[j] = b + 8.0 * _U * float(sizes[k].sum())
                terms[j] = n
            elif n >= _MAX_TERMS or not math.isfinite(b):
                terms[j] = n
                if failed is None or j < failed[0]:
                    failed = (j, b, n)
        keep = terms[lane] == 0
        if not keep.all():
            # the two large arrays are compacted in place, without a second copy
            for to, row in enumerate(np.flatnonzero(keep)):
                chunk[to], Y[to] = chunk[row], Y[row]
            chunk, Y = chunk[:keep.sum()], Y[:keep.sum()]
            lane, largest, rpow, rr = lane[keep], largest[keep], rpow[keep], rr[keep]
            Bcat, J, H0a = Bcat[keep], J[keep], H0a[keep]
        if failed is not None and not (lane.size and lane[0] < failed[0]):
            _, b_fail, n_fail = failed
            cause = (f"did not converge within {_MAX_TERMS}" if math.isfinite(b_fail)
                     else f"overflowed after {n_fail}")
            raise StepUnderflow(f"local series {cause} terms (tail bound {b_fail:.3e})")
    return T, bound, terms


def _halvings(beta: np.ndarray, ra: np.ndarray, rb: np.ndarray, levels: int) -> np.ndarray:
    """How often the step rule halves the step ra/2 from a centre whose
    shifted A has the coefficient norms ``beta``: the first k with a log
    growth at ra/2^(k+1) of at most _MAX_LOG_GROWTH, one per row, or
    ``levels`` when no k below ``levels`` passes.  The lengths ra/2^(k+1)
    are exact, so every row sees the values of the halving loop."""
    dts = np.ldexp(0.5 * ra[:, None], -np.arange(levels))
    lg = _log_growth(np.repeat(beta, levels, axis=0), dts.ravel(),
                     np.repeat(ra, levels), np.repeat(rb, levels))
    passes = ~(lg.reshape(-1, levels) > _MAX_LOG_GROWTH)
    return np.where(passes.any(axis=1), passes.argmax(axis=1), levels)


def _plan_block(segments: list, seg: int, t: float, roots, spread: float,
                stack: np.ndarray, binom: np.ndarray, room: int):
    """The next at most ``room`` steps of a contour, from arclength t on
    segment ``seg``, by the step rule of ``propagate``.

    The steps are planned optimistically, each halved as often as the
    step before it (not at all at first), and checked together with one
    batched Pascal shift and one growth evaluation.  At the first step
    whose count of halvings differs the plan is cut: that step gets its
    own count, and planning resumes from its end.  A step that lies on a
    zero of h ends the block, and raises SingularityTooClose when it would
    be the first.  Returns the centres, ends, root distances and shifted
    coefficients of the steps, and the position after the last.
    """
    cs, z1s, ras, rbs, Bs = [], [], [], [], []
    halved = 0
    while len(cs) < room and seg < len(segments):
        plan = []                                   # (c, ra, rb, seg, t) per step
        s, u = seg, t
        while len(cs) + len(plan) < room and s < len(segments):
            z, L = segments[s]
            c = z(u)
            ra, rb = sorted(abs(c - root) for root in roots)
            if ra <= 1e-12 * spread:
                if cs or plan:
                    break
                raise SingularityTooClose(f"contour passes through a zero of h at {c}")
            plan.append((c, ra, rb, s, u))
            dt = math.ldexp(0.5 * ra, -halved)
            u = L if dt >= L - u else u + dt
            s, u = (s + 1, 0.0) if u >= L else (s, u)
        if not plan:
            break
        B = pascal_shift(stack, [p[0] for p in plan], binom=binom)
        beta = _norm(B)
        ra, rb = np.array([p[1:3] for p in plan]).T
        counts = [halved] * len(plan)
        wrong = np.flatnonzero(_halvings(beta, ra, rb, halved + 1) != halved)
        if wrong.size:
            i, levels = wrong[0], 64
            while (halved := int(_halvings(beta[i:i + 1], ra[i:i + 1], rb[i:i + 1],
                                           levels)[0])) == levels:
                levels *= 2
            counts[i] = halved
            plan = plan[:i + 1]
        for (c, a, b, s, u), k in zip(plan, counts):
            z, L = segments[s]
            dt = math.ldexp(0.5 * a, -k)
            u = L if dt >= L - u else u + dt
            cs.append(c)
            z1s.append(z(u))
            ras.append(a)
            rbs.append(b)
            seg, t = (s + 1, 0.0) if u >= L else (s, u)
        Bs.append(B[:len(plan)])
    return cs, z1s, np.array(ras), np.array(rbs), np.concatenate(Bs), seg, t


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
    term.  Every step starts from Y(0) = I, so the steps are planned
    first, up to ``_LANES`` at a time, and the series of a block then run
    together on one lane axis (``_taylor_steps``); the steps and their sums
    are those of one step at a time.  ``Transport.error`` bounds the
    infinity norm of the error of M: the tail bound and rounding floor of
    every step, plus the gap between the full series A at the step's end
    and the recentred polynomial the step used, carried through the
    products of the step transports.  The contour must keep a
    tolerance-dependent clearance from the zeros of h, measured relative
    to the root-spread scale.

    Raises ValueError for a tol outside [1e-13, 1e-6] or a non-finite h,
    SingularityTooClose when the contour comes too near a zero of h, and
    StepUnderflow when a local series does not converge within a fixed
    number of terms, the contour needs more than a fixed number of steps,
    or the transport or its error bound overflows.  The errors keep the
    order of the steps: a block's series run before the next block is
    planned.
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
    segments = list(contour.segments())
    seg, t = 0, 0.0
    Ts, bounds, terms, Bs, ends, dist = [], [], [], [], [], []
    while seg < len(segments):
        if len(ends) == _MAX_STEPS:
            raise StepUnderflow(f"contour needs more than {_MAX_STEPS} Taylor steps")
        cs, z1s, ra, rb, B, seg, t = _plan_block(segments, seg, t, roots, spread, stack,
                                                 binom, min(_LANES, _MAX_STEPS - len(ends)))
        T, bound, n = _taylor_steps(B, [system.h_at(c) for c in cs],
                                    [2.0 * c + system.h1 for c in cs],
                                    [z1 - c for c, z1 in zip(cs, z1s)], ra, rb, _TAIL * tol)
        Ts.append(T)
        bounds.append(bound)
        terms.extend(n.tolist())
        Bs.append(B)
        ends.extend(zip(cs, z1s))
        dist.extend(zip(ra, rb))
    if not ends:
        return Transport(np.eye(2, dtype=complex), 0.0, 0.0, 0, ())
    # a posteriori: the full series A at each step's end against the
    # recentred polynomial the step used, a data defect acting over the step
    c, z1 = np.array(ends).T
    delta = z1 - c
    recentred = np.einsum("nk,nkij->nij", delta[:, None] ** np.arange(len(stack)),
                          np.concatenate(Bs))
    gap = _norm(system.A.eval(z1) - recentred)
    ra, rb = np.array(dist).T
    r = np.abs(delta)
    Ts = np.concatenate(Ts)
    local = np.concatenate(bounds) + _norm(Ts) * r * gap / ((ra - r) * (rb - r))
    tr = _carry(Ts, local, tuple(terms))
    if not (np.isfinite(tr.M).all() and math.isfinite(tr.error)
            and math.isfinite(tr.trace_error)):
        raise StepUnderflow("the transport or its error bound overflowed")
    return tr


def _carry(Ts: np.ndarray, local: np.ndarray, terms: tuple) -> Transport:
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
    return Transport(M, error, trace_error, N, terms)


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
    return MonodromyResult(M, gamma, max(bound, liouville), tr.steps, det_defect, tr.terms)


def gamma_closed_form(A0, A1) -> complex:
    """gamma of a system linear in z, from the z-coefficient matrix alone.

    gamma = 2 cos 2 pi sqrt(D) with
    D = ((a11 - a22)/2)^2 + a12 a21 of A1; the square-root branch is
    irrelevant because cosine is even.
    """
    A1 = np.asarray(A1, dtype=complex)
    D = ((A1[0, 0] - A1[1, 1]) / 2.0) ** 2 + A1[0, 1] * A1[1, 0]
    return 2.0 * cmath.cos(2.0 * math.pi * cmath.sqrt(D))
