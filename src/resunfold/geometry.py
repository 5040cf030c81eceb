"""Phase-portrait machinery in the ramified s coordinate: the theta
function, the quotient vector field chi, trajectory tracing, region
classification and the bifurcation curves.

The field chi(s) = ((s^2 - mu)^2 - eps) / (4 s^2) is even in s; its real
trajectories for rotated times omega (|arg omega| < ETA) carve the s plane
into inner regions (connections s1 -> s2) and outer regions (connections
s1 -> -s1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np


class OnCut(ValueError):
    """theta evaluated within tolerance of one of its cut segments [0, s_i]."""


class PoleAtZero(ZeroDivisionError):
    """chi evaluated at its pole s = 0."""


# ---------------------------------------------------------------------------
# ramified parameter points

DEGENERATE_TOL = 1e-13   # relative distance at which a point is put on a degenerate set


@dataclass(frozen=True)
class RamifiedPoint:
    """A parameter point (mu, eps) with its sheet of the ramified covering.

    mu and eps are plain numbers; the sheet lives in what reads it:
    sqrt(eps), the two roots s1, s2 with s1^2 = mu + sqrt(eps),
    s2^2 = mu - sqrt(eps), and tracked logarithms of n_i = s_i/sqrt(eps),
    a = (n1 - n2)/2, b = (n1 + n2)/2 used by the connection-coefficient
    formulas.  The continuation maps sigma (one turn of mu around
    sqrt(eps)) and rho (simultaneous turn of mu and eps) move these by
    exact sign flips and +-i pi shifts.  A point on a degenerate set
    (eps = 0, mu^2 = eps, or both) carries the exact zeros of that set,
    which ``case`` reads, and NaN tracked logs.
    """

    mu: complex
    eps: complex
    sqrt_eps: complex
    s1: complex
    s2: complex
    log_n1: complex = complex(math.nan, math.nan)
    log_n2: complex = complex(math.nan, math.nan)
    log_a: complex = complex(math.nan, math.nan)
    log_b: complex = complex(math.nan, math.nan)

    @classmethod
    def from_values(cls, mu: complex, eps: complex) -> "RamifiedPoint":
        """Base-sheet construction (principal branches throughout).

        For mu, eps real positive with mu^2 > eps this gives the standard
        square roots.  Other sheets are reached by sigma_image and rho_image.

        With scale = max(|mu|^2, |eps|), |eps| <= DEGENERATE_TOL * scale puts
        the point on eps = 0 (sqrt(eps) = 0, s1 = s2 = sqrt(mu)), and
        |mu^2 - eps| <= DEGENERATE_TOL * scale on mu^2 = eps (the root of the
        pair at the origin becomes exactly 0).  Only a generic point gets
        tracked logs; the others keep NaN.
        """
        mu, eps = complex(mu), complex(eps)
        scale = max(abs(mu) ** 2, abs(eps))
        if abs(eps) <= DEGENERATE_TOL * scale:
            se = 0j
            s1 = s2 = cmath.sqrt(mu)
        else:
            se = cmath.sqrt(eps)
            s1, s2 = cmath.sqrt(mu + se), cmath.sqrt(mu - se)
            if abs(mu * mu - eps) <= DEGENERATE_TOL * scale:
                s1, s2 = (0j, s2) if abs(s1) < abs(s2) else (s1, 0j)
        point = cls(mu, eps, se, s1, s2)
        if point.case != "generic":
            return point
        n1, n2 = s1 / se, s2 / se
        return cls(mu, eps, se, s1, s2, cmath.log(n1), cmath.log(n2),
                   cmath.log((n1 - n2) / 2.0), cmath.log((n1 + n2) / 2.0))

    @property
    def case(self) -> str:
        """The closed form the point takes: "generic", "confluent" (eps = 0),
        "ramified" (mu^2 = eps) or "origin" (mu = eps = 0).  Read from the
        exact zeros in sqrt(eps), s1 and s2, so sigma_image and rho_image keep it."""
        if self.sqrt_eps == 0:
            return "confluent" if self.s1 else "origin"
        return "ramified" if self.s1 == 0 or self.s2 == 0 else "generic"

    # -- projections ---------------------------------------------------------

    @property
    def n1(self) -> complex:
        return cmath.exp(self.log_n1)

    @property
    def n2(self) -> complex:
        return cmath.exp(self.log_n2)

    @property
    def a(self) -> complex:
        """(s1 - s2)/(2 sqrt(eps)); for eps = 0 the limit 1/(2 sqrt(mu))."""
        if self.case == "confluent":
            return 1.0 / (2.0 * cmath.sqrt(self.mu))
        return cmath.exp(self.log_a)

    @property
    def b(self) -> complex:
        return cmath.exp(self.log_b)

    def roots(self) -> tuple[complex, complex, complex, complex]:
        return (self.s1, -self.s1, self.s2, -self.s2)

    # -- continuation maps ----------------------------------------------------

    def sigma_image(self) -> "RamifiedPoint":
        """One positive turn of mu around sqrt(eps): s2 -> -s2, s1 fixed.

        The tracked data obeys n2 -> e^{i pi} n2 and swaps a <-> b.
        """
        return replace(
            self,
            s2=-self.s2,
            log_n2=self.log_n2 + 1j * math.pi,
            log_a=self.log_b,
            log_b=self.log_a,
        )

    def rho_image(self) -> "RamifiedPoint":
        """Simultaneous positive turn of (mu, eps): swaps s1 <-> e^{i pi} s2.

        mu and eps return to their values; sqrt(eps) flips sign, n1 and n2
        exchange their tracked logs, a continues along e^{-i pi} a and b is
        fixed.
        """
        return replace(
            self,
            sqrt_eps=-self.sqrt_eps,
            s1=-self.s2,
            s2=-self.s1,
            log_n1=self.log_n2,
            log_n2=self.log_n1,
            log_a=self.log_a - 1j * math.pi,
        )


# ---------------------------------------------------------------------------
# domain configuration


CLASSIFY_STEP = 5e-2    # RK4 step of the region-classification flow
CAPTURE_RADIUS = 1e-9   # capture distance of a hyperbolic equilibrium (x 1e3 on grids)
ETA = math.pi / 6.0     # rotations omega lie in the sector |arg omega| < ETA
DELTA_S = 0.5           # the annulus is |s| < DELTA_S ...
ANNULUS_L = 2.0         # ... and |(s^2 - mu)^2 - eps| < ANNULUS_L |s|^4


@dataclass(frozen=True)
class DomainConfig:
    """The xi budget and tracing constants of a flow in the annulus.

    The annulus itself is fixed by DELTA_S and ANNULUS_L.  Their product
    with 1 + 4 sup|s r| must stay <= 2 cos(ETA) for the Picard contraction
    of the integral-equation solver.
    """

    xi_max: float = 200.0 / math.cos(ETA)
    trace_step: float = 5e-3
    parabolic_capture: float = 1e-2


# ---------------------------------------------------------------------------
# theta


CUT_TOL = 1e-9   # theta raises OnCut within this distance of a cut segment


def _dist_to_segment(s: complex, end: complex) -> float:
    """Distance from s to the straight segment [0, end]."""
    L2 = (end.real ** 2 + end.imag ** 2)
    if L2 == 0.0:
        return abs(s)
    t = (s.real * end.real + s.imag * end.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(s - t * end)


def theta(s: complex, rp: RamifiedPoint) -> complex:
    """Antiderivative of 2 s^2 / ((s^2 - mu)^2 - eps) vanishing at infinity,
    at the point (mu, eps) of ``rp``, with s1, s2 and sqrt(eps) of its sheet.

    Closed form by ``rp.case``: -2/s at the origin, the double-root form at
    eps = 0, and otherwise the two Moebius-ratio logarithms, whose term of
    the zero root vanishes on mu^2 = eps.  Principal logarithms put the
    cuts exactly on the segments [0, s_i].  Odd in s.  At eps = 0 the
    logarithm log((s + r)/(s - r)) is written 2 atanh(r/s), the same branch,
    which keeps its r/s term when |r| is below the rounding of |s|.
    """
    s, case = complex(s), rp.case
    if any(_dist_to_segment(s, end) < CUT_TOL for end in rp.roots()):
        raise OnCut(f"s = {s} lies on a cut segment")
    if case == "origin":
        return -2.0 / s
    if case == "confluent":
        r = rp.s1
        return -s / (s * s - rp.mu) - cmath.atanh(r / s) / r
    s1, s2, se = rp.s1, rp.s2, rp.sqrt_eps
    t1 = (s1 / (2.0 * se)) * cmath.log((s - s1) / (s + s1))
    t2 = (s2 / (2.0 * se)) * cmath.log((s - s2) / (s + s2))
    return t1 - t2


def theta_deriv(s: complex, mu: complex, eps: complex) -> complex:
    """d theta/ds = 2 s^2 / ((s^2 - mu)^2 - eps)."""
    return 2.0 * s * s / ((s * s - mu) ** 2 - eps)


# ---------------------------------------------------------------------------
# chi and its equilibria


def chi(s, mu: complex, eps: complex):
    """((s^2 - mu)^2 - eps) / (4 s^2); accepts scalars or ndarrays."""
    if isinstance(s, np.ndarray):
        return ((s * s - mu) ** 2 - eps) / (4.0 * s * s)
    if s == 0:
        raise PoleAtZero("chi has a double pole at s = 0")
    return ((s * s - mu) ** 2 - eps) / (4.0 * s * s)


def chi_multiplier(s_i: complex, mu: complex) -> complex:
    """Linearization multiplier of chi at a simple zero: (s_i^2 - mu)/s_i."""
    return (s_i * s_i - mu) / s_i


@dataclass(frozen=True)
class Equilibrium:
    s: complex
    multiplier: complex
    parabolic: bool


def equilibria(rp: RamifiedPoint) -> list[Equilibrium]:
    """Actual singular points of chi among the roots of (s^2-mu)^2 - eps.

    Dispatches on ``rp.case``: the origin is the one parabolic point at
    mu = eps = 0, the double roots +-s1 are parabolic at eps = 0, and
    otherwise the nonzero roots are hyperbolic.  A zero root on mu^2 = eps
    is excluded: the pole of chi cancels it and the point is regular.
    """
    if rp.case == "origin":
        return [Equilibrium(0.0, 0.0, True)]
    if rp.case == "confluent":
        return [Equilibrium(rp.s1, 0.0, True), Equilibrium(-rp.s1, 0.0, True)]
    return [Equilibrium(s_i, chi_multiplier(s_i, rp.mu), False)
            for s_i in rp.roots() if s_i != 0]


# ---------------------------------------------------------------------------
# trajectory tracing


@dataclass(frozen=True)
class TrajectoryRecord:
    """Uniform-in-xi samples of one real trajectory of omega*chi.

    ``rp`` and ``dxi`` are the ramified point and the step it was traced with.
    ``terminal`` is one of converged / left-annulus / max-length; for a
    converged run ``target`` holds the limiting equilibrium.  A backward
    trajectory of omega*chi is the record of -omega.
    """

    omega: complex
    rp: RamifiedPoint
    dxi: float
    s: np.ndarray
    terminal: str
    target: complex | None

    @property
    def xi(self) -> np.ndarray:
        return np.arange(len(self.s)) * self.dxi

    def reversed_negated(self) -> "TrajectoryRecord":
        """The arc -s traversed the other way: again a forward trajectory.

        Maps a connection s_a -> s_b of omega*chi onto the connection
        -s_b -> -s_a, which is what the P-symmetric Picard solve needs.
        """
        return replace(self, s=-self.s[::-1],
                       target=None if self.target is None else -self.s[0])


def _in_annulus(s, mu: complex, eps: complex):
    """|s| < DELTA_S and |(s^2 - mu)^2 - eps| < ANNULUS_L |s|^4, for a complex
    or elementwise for an ndarray; NaN fails both."""
    s2 = s * s
    return (abs(s) < DELTA_S) & (abs((s2 - mu) ** 2 - eps) < ANNULUS_L * abs(s2 * s2))


def _field(v, w: complex, mu: complex, eps: complex):
    """w * chi(v), multiplied out as (w * numerator) / denominator: the traced
    samples, and so the CSV and JSON outputs, depend on that rounding."""
    return w * ((v * v - mu) ** 2 - eps) / (4.0 * v * v)


def _rk4_step(s, w: complex, mu: complex, eps: complex, h: float):
    """One classical RK4 step of ds/dxi = w chi(s) from a complex or from an
    ndarray of them.  A numpy step costs ~30 us however few lanes it has, a
    Python complex step ~3 us, so the arcs of ``normalization.connecting_arc``
    are stepped as a complex and the grid of ``classify_regions`` as lanes."""
    k1 = _field(s, w, mu, eps)
    k2 = _field(s + 0.5 * h * k1, w, mu, eps)
    k3 = _field(s + 0.5 * h * k2, w, mu, eps)
    k4 = _field(s + h * k3, w, mu, eps)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


NEWTON_MAX = 30   # Newton iterations of one theta step before its sample is refused


class ThetaStepStalled(ArithmeticError):
    """A theta step whose Newton solve reached NEWTON_MAX iterations."""


def _theta_increment(x: complex, s: complex, rp: RamifiedPoint) -> complex:
    """theta(x) - theta(s) continued along the short path from s to x, so no
    cut of theta lies in its way.

    Each Moebius logarithm enters through its increment
    log(R_i(x)/R_i(s)) = -2 atanh(s_i (s - x)/(x s - s_i^2)),
    R_i(s) = (s - s_i)/(s + s_i), which drops out for a zero root
    (mu^2 = eps).  At eps = 0, atanh(r/x) - atanh(r/s) =
    atanh(r (s - x)/(x s - mu)) keeps its 1/x - 1/s limit for tiny mu.
    Not for the origin, whose trace is closed form.
    """
    d = s - x
    if rp.case == "confluent":
        r, mu = rp.s1, rp.mu
        return (-d * (x * s + mu) / ((x * x - mu) * (s * s - mu))
                - cmath.atanh(r * d / (x * s - mu)) / r)
    s1, s2 = rp.s1, rp.s2
    return (s2 * cmath.atanh(s2 * d / (x * s - s2 * s2))
            - s1 * cmath.atanh(s1 * d / (x * s - s1 * s1))) / rp.sqrt_eps


def _theta_step(s: complex, omega: complex, rp: RamifiedPoint, dxi: float) -> complex:
    """The sample dxi after s on the trajectory of omega * chi: the root x of
    F(x) = 2 (theta(x) - theta(s)) - omega dxi, by Newton with
    F'(x) = 4 x^2 / ((x^2 - mu)^2 - eps), started from one midpoint step.

    Stops at |dx| <= 1e-15 |x|, or once |dx| no longer halves: that is the
    rounding floor of the increment, which lies above 1e-15 near eps = 0,
    where the coefficients s_i / (2 sqrt(eps)) of its logarithms are large.
    A start that moves s by no more than 1e-15 |x| is the sample: there s
    is within rounding of an equilibrium (a seed on one stays in place),
    where the increment is 0/0.  Raises ThetaStepStalled after NEWTON_MAX
    iterations.
    """
    mu, eps = rp.mu, rp.eps
    x = s + dxi * _field(s + 0.5 * dxi * _field(s, omega, mu, eps), omega, mu, eps)
    if abs(x - s) <= 1e-15 * abs(x):
        return x
    half = 0.5 * omega * dxi
    last = math.inf
    for _ in range(NEWTON_MAX):
        dx = (half - _theta_increment(x, s, rp)) / theta_deriv(x, mu, eps)
        x += dx
        size = abs(dx)
        if size <= 1e-15 * abs(x) or size > 0.5 * last:
            return x
        last = size
    raise ThetaStepStalled(f"the theta step from s = {s} did not converge "
                           f"in {NEWTON_MAX} Newton iterations")


def _attractors(eqs: list[Equilibrium], w: complex) -> list[Equilibrium]:
    """The equilibria a forward trajectory of w * chi can converge to."""
    return [e for e in eqs if e.parabolic or (w * e.multiplier).real < 0.0]


def _trace(s0: complex, omega: complex, rp: RamifiedPoint, cfg: DomainConfig,
           step) -> TrajectoryRecord:
    """Samples of the trajectory of omega * chi through s0, every
    h = cfg.trace_step in xi, each from the last by step(s, omega, rp, h).

    Stops on convergence to an equilibrium (within CAPTURE_RADIUS of a
    hyperbolic attractor; for a parabolic one, five consecutive approaching
    samples inside parabolic_capture, a rule counted in samples, not in xi),
    on a sample outside the annulus, or at cfg.xi_max.  The stopping sample
    is kept.  At mu = eps = 0 the closed form of _confluent_trajectory
    replaces the stepper.
    """
    mu, eps = rp.mu, rp.eps
    h = cfg.trace_step
    n_max = int(cfg.xi_max / h) + 1
    if rp.case == "origin":
        return _confluent_trajectory(complex(s0), omega, rp, cfg, n_max)
    attracting = _attractors(equilibria(rp), omega)
    samples = [complex(s0)]
    s = complex(s0)
    terminal, target = "max-length", None
    approach = 0

    for _ in range(n_max):
        s_new = step(s, omega, rp, h)
        samples.append(s_new)
        stop = False
        for e in attracting:
            d = abs(s_new - e.s)
            if not e.parabolic and d < CAPTURE_RADIUS:
                terminal, target, stop = "converged", e.s, True
                break
            if e.parabolic and d < cfg.parabolic_capture:
                if d < abs(s - e.s):
                    approach += 1
                else:
                    approach = 0
                if approach >= 5:
                    terminal, target, stop = "converged", e.s, True
                    break
        if stop:
            break
        if not _in_annulus(s_new, mu, eps):
            terminal = "left-annulus"
            break
        s = s_new
    return TrajectoryRecord(omega, rp, h, np.asarray(samples), terminal, target)


def trace_trajectory(s0: complex, omega: complex, rp: RamifiedPoint,
                     cfg: DomainConfig) -> TrajectoryRecord:
    """The trajectory of ds/dxi = omega * chi(s) through s0, sampled every
    cfg.trace_step in xi from the closed-form theta: each sample solves
    theta(s(xi + dxi)) = theta(s(xi)) + omega dxi / 2 (``_theta_step``).
    Trace with -omega for the backward trajectory.

    Stops on convergence to an equilibrium (within CAPTURE_RADIUS of a
    hyperbolic one; five consecutive approaching samples inside
    parabolic_capture of a parabolic one, a rule kept per sample, so it
    spans 5 trace_step in xi), on a sample outside the annulus, or at
    cfg.xi_max.  At mu = eps = 0 the samples are the closed form
    1/s = 1/s0 - omega xi / 4.  Raises ThetaStepStalled on a sample whose
    Newton solve does not converge.  A sample costs a little more than one
    RK4 step, so this pays off at a wide spacing such as the portrait's
    0.05, where one sample replaces ten RK4 steps of 5e-3.
    """
    return _trace(s0, omega, rp, cfg, _theta_step)


def _confluent_trajectory(s0: complex, omega: complex, rp: RamifiedPoint,
                          cfg: DomainConfig, n_max: int) -> TrajectoryRecord:
    """The trace at mu = eps = 0, where theta = -2/s solves the flow:
    1/s = 1/s0 - omega xi / 4.  Samples that closed form on the xi grid of
    the trace and stops by its rules: five consecutive approaching samples
    inside the parabolic capture disc (samples outside it neither count nor
    reset), or a sample outside the annulus."""
    xi = np.arange(n_max + 1) * cfg.trace_step
    with np.errstate(divide="ignore", invalid="ignore"):
        s = s0 / (1.0 - (omega * s0 / 4.0) * xi)
    d = np.abs(s)
    in_cap = np.flatnonzero(d[1:] < cfg.parabolic_capture)
    pos = np.arange(len(in_cap))
    # approach count after each in-cap step: approaching steps since the last
    # in-cap step that did not approach
    run = pos - np.maximum.accumulate(np.where(d[1:][in_cap] < d[:-1][in_cap], -1, pos))
    k_conv = in_cap[run >= 5][:1] + 1
    k_left = np.flatnonzero(~_in_annulus(s[1:], 0.0, 0.0))[:1] + 1
    terminal, target, n = "max-length", None, n_max
    if k_conv.size and (not k_left.size or k_conv[0] <= k_left[0]):
        terminal, target, n = "converged", 0.0, int(k_conv[0])
    elif k_left.size:
        terminal, n = "left-annulus", int(k_left[0])
    return TrajectoryRecord(omega, rp, cfg.trace_step, s[:n + 1], terminal, target)


# ---------------------------------------------------------------------------
# region classification


REGION_NONE = 0
REGION_INNER = 1
REGION_INNER_P = 2
REGION_OUTER = 3
REGION_OUTER_P = 4

REGION_NAMES = {
    REGION_NONE: "none",
    REGION_INNER: "R_I",
    REGION_INNER_P: "R_I_P",
    REGION_OUTER: "R_O",
    REGION_OUTER_P: "R_O_P",
}


def _disc_radius(s_i: complex, k: int, g_i: complex, bound, margin: float) -> float:
    """Largest r (by bisection) with bound(r) <= margin whose closed disc
    |s - s_i| <= r lies in the annulus, where chi(s) = (s - s_i)^k g(s) and
    bound(r) >= sup |g(s) - g_i| on that disc; 0 if none.

    The disc lies in the annulus when |s_i| + r < DELTA_S and
    4 r^k (|g_i| + bound(r)) < ANNULUS_L (|s_i| - r)^2, since
    |(s^2 - mu)^2 - eps| = 4 |s|^2 |s - s_i|^k |g(s)| and |s| >= |s_i| - r.
    Both tests and bound(r) grow with r, so bisection finds the edge.
    """
    a = abs(s_i)
    lo, hi = 0.0, min(a, DELTA_S - a)
    if hi <= 0.0:
        return 0.0
    for _ in range(50):
        r = 0.5 * (lo + hi)
        b = bound(r)
        if b <= margin and 4.0 * r ** k * (abs(g_i) + b) < ANNULUS_L * (a - r) ** 2:
            lo = r
        else:
            hi = r
    return lo


def _capture_discs(targets: list[Equilibrium], w: complex, mu: complex,
                   cfg: DomainConfig):
    """Open discs, as arrays (centres, radii, ends), every point of which
    flows to the attractor ends[j] of its disc without leaving the annulus.

    Hyperbolic s_i: chi = (s - s_i) g with g = (s + s_i)(s^2 - t^2)/(4 s^2),
    t^2 = 2 mu - s_i^2 and g(s_i) = lambda_i.  Where
    |g - lambda_i| <= |Re(w lambda_i)| / (2 |w|), d|s - s_i|^2/dxi
    <= Re(w lambda_i) |s - s_i|^2 < 0, so the disc of the largest such
    radius (or of 1e3 CAPTURE_RADIUS if larger) is captured.

    Parabolic s_m (eps = 0): chi = d^2 q with d = s - s_m,
    q = (s + s_m)^2/(4 s^2) and |q - 1| <= y + y^2/4, y = r/(|s_m| - r),
    on |d| <= r.  In u = 1/d the flow is du/dxi = -w q, so where
    |q - 1| <= 1/2 the half-plane Re(-u conj(w))/|w| > 1/r is forward
    invariant and runs to u = oo.  That half-plane is the petal disc
    |d + (r/2) conj(w)/|w|| < r/2; it is captured beside the disc
    |d| < parabolic_capture.
    """
    discs = []
    for e in targets:
        a = abs(e.s)
        if e.parabolic:
            discs.append((e.s, cfg.parabolic_capture, e.s))
            if a > 0.0:
                r = _disc_radius(e.s, 2, 1.0, lambda r: r / (a - r) + (r / (a - r)) ** 2 / 4.0,
                                 0.5)
                discs.append((e.s - 0.5 * r * w.conjugate() / abs(w), 0.5 * r, e.s))
            continue
        t2 = abs(2.0 * mu - e.s * e.s)

        def bound(r):
            return 0.25 * r * (1.0 + t2 / (a - r) ** 2
                               + 2.0 * a * t2 * (2.0 * a + r) / (a * a * (a - r) ** 2))

        margin = abs((w * e.multiplier).real) / (2.0 * abs(w))
        r = _disc_radius(e.s, 1, e.multiplier, bound, margin)
        discs.append((e.s, max(1e3 * CAPTURE_RADIUS, r), e.s))
    centres, radii, ends = zip(*discs)
    return np.array(centres, dtype=complex), np.array(radii), np.array(ends, dtype=complex)


def _flow_endpoints(points: np.ndarray, w: complex, mu: complex, eps: complex,
                    cfg: DomainConfig, eq_list: list[Equilibrium]) -> np.ndarray:
    """Vectorized RK4 flow of all grid points; returns the reached
    equilibrium per point (NaN: left the annulus or never captured).  A lane
    stops once it enters a capture disc of _capture_discs.  A lane that its
    step returns unchanged (a grid point within rounding of a repeller)
    would stay put for the whole budget, so it stops at once with NaN."""
    h = CLASSIFY_STEP
    n_steps = int(cfg.xi_max / h) + 1
    s = points.astype(complex).copy()
    out = np.full(s.shape, np.nan, dtype=complex)
    active = np.ones(s.shape, dtype=bool)
    targets = _attractors(eq_list, w)
    if not targets:
        return out
    centres, radii, ends = _capture_discs(targets, w, mu, cfg)

    for _ in range(n_steps):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        v_new = _rk4_step(s[idx], w, mu, eps, h)
        stuck = v_new == s[idx]
        s[idx] = v_new
        hit = np.abs(v_new[:, None] - centres[None, :]) < radii[None, :]
        captured = hit.any(axis=1)
        if captured.any():
            out[idx[captured]] = ends[np.argmax(hit[captured], axis=1)]
            active[idx[captured]] = False
        left = ~_in_annulus(v_new[~captured], mu, eps) | stuck[~captured]
        if left.any():
            active[idx[~captured][left]] = False
    return out


def classify_regions(rp: RamifiedPoint, omega: complex, cfg: DomainConfig,
                     grid: tuple[int, int] | np.ndarray = (41, 41)):
    """Label grid points by the forward/backward limits of their trajectory.

    R_I: runs from s1 (backward) to s2 (forward); R_I^P is its negation.
    Both outer regions run from s1 to -s1; the pair is split by the sign of
    Im(s/s1) (the upper one is R_O).  Returns (points, labels).

    At mu = eps = 0 the labels come from the closed form theta = -2/s: the
    trajectory through s0 is the line 1/s0 + R omega in the 1/s plane, so it
    runs from 0 back to 0 inside the annulus exactly when that line misses
    the disc |1/s| <= 1/DELTA_S.  Such a loop is R_I when
    Im(conj(omega)/s0) < 0 (for omega = 1, the loops in the upper half
    plane) and R_I^P, its negation, when Im(conj(omega)/s0) > 0.
    """
    mu, eps = rp.mu, rp.eps
    if isinstance(grid, tuple):
        nx, ny = grid
        xs = np.linspace(-DELTA_S, DELTA_S, nx)
        ys = np.linspace(-DELTA_S, DELTA_S, ny)
        pts = (xs[None, :] + 1j * ys[:, None]).ravel()
    else:
        pts = np.asarray(grid, dtype=complex).ravel()
    inside = _in_annulus(pts, mu, eps)
    labels = np.full(pts.shape, REGION_NONE, dtype=int)
    if rp.case == "origin":
        side = (np.conj(omega) / pts[inside]).imag / abs(omega)
        labels[inside] = np.where(side < -1.0 / DELTA_S, REGION_INNER,
                                  np.where(side > 1.0 / DELTA_S, REGION_INNER_P,
                                           REGION_NONE))
        return pts, labels
    eq_list = equilibria(rp)
    fwd = _flow_endpoints(pts[inside], omega, mu, eps, cfg, eq_list)
    bwd = _flow_endpoints(pts[inside], -omega, mu, eps, cfg, eq_list)

    s1, s2 = rp.s1, rp.s2
    sub = np.full(fwd.shape, REGION_NONE, dtype=int)

    def near(arr, target):
        return np.isfinite(arr) & (np.abs(arr - target) < 1e-6 + 2.0 * cfg.parabolic_capture)

    inner = near(bwd, s1) & near(fwd, s2)
    inner_p = near(bwd, -s2) & near(fwd, -s1)
    outer_pair = near(bwd, s1) & near(fwd, -s1) & ~inner & ~inner_p
    axis = s1 or 1.0
    upper = (pts[inside] / axis).imag > 0.0
    sub[inner] = REGION_INNER
    sub[inner_p] = REGION_INNER_P
    sub[outer_pair & upper] = REGION_OUTER
    sub[outer_pair & ~upper] = REGION_OUTER_P
    # eps = 0 collapses s1 = s2: connections from s1 to s1 are inner
    if rp.case == "confluent":
        both = near(bwd, s1) & near(fwd, s1)
        sub[both] = REGION_INNER
        both_p = near(bwd, -s1) & near(fwd, -s1)
        sub[both_p] = REGION_INNER_P
    labels[inside] = sub
    return pts, labels


def count_components(points: np.ndarray, labels: np.ndarray, label: int,
                     nx: int, ny: int, exclude=(), exclude_radius: float = 0.0) -> int:
    """4-neighbour connected components of one label on an (ny, nx) grid.

    Points within ``exclude_radius`` of any point in ``exclude`` are
    ignored: regions that merely touch at an equilibrium (parabolic
    petals) count as separate components once the capture disc is removed.
    """
    lab = labels.copy()
    if exclude_radius > 0.0:
        for e in exclude:
            lab[np.abs(points - e) < exclude_radius] = -1
    mask = (lab.reshape(ny, nx) == label)
    seen = np.zeros_like(mask, dtype=bool)
    comps = 0
    for i in range(ny):
        for j in range(nx):
            if mask[i, j] and not seen[i, j]:
                comps += 1
                stack = [(i, j)]
                seen[i, j] = True
                while stack:
                    a, b = stack.pop()
                    for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        na, nb = a + da, b + db
                        if 0 <= na < ny and 0 <= nb < nx and mask[na, nb] \
                                and not seen[na, nb]:
                            seen[na, nb] = True
                            stack.append((na, nb))
    return comps


# ---------------------------------------------------------------------------
# bifurcation curves


def bifurcation_sets(eps: complex, resolution: int = 200):
    """Sampled bifurcation loci in the mu plane.

    sigma_O: the hyperbola branch mu = -(1/a + eps a)/2, a > 0 (trajectory
    through infinity changes endpoints); sigma_I: the two rays
    mu = -+sqrt(eps) - eps t, t >= 0 (an equilibrium turns into a center).
    """
    a_vals = np.exp(np.linspace(-4.0, 4.0, resolution))
    sigma_o = -(1.0 / a_vals + eps * a_vals) / 2.0
    se = cmath.sqrt(eps)
    t_vals = np.linspace(0.0, 10.0, resolution)
    return {
        "sigma_O": sigma_o.astype(complex),
        "sigma_I_minus": (-se - eps * t_vals).astype(complex),
        "sigma_I_plus": (se - eps * t_vals).astype(complex),
    }
