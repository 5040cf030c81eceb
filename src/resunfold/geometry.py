"""Phase-portrait machinery in the ramified s coordinate: the theta
function, the quotient vector field chi, trajectory tracing, region
classification and the bifurcation curves.

The field chi(s) = ((s^2 - mu)^2 - eps) / (4 s^2) is even in s; its real
trajectories for rotated times omega (|arg omega| < eta) carve the s plane
into inner regions (connections s1 -> s2) and outer regions (connections
s1 -> -s1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra import BranchedLog, ramified_sqrt


class OnCut(ValueError):
    """theta evaluated within tolerance of one of its cut segments [0, s_i]."""


class PoleAtZero(ZeroDivisionError):
    """chi evaluated at its pole s = 0."""


# ---------------------------------------------------------------------------
# ramified parameter points


@dataclass(frozen=True)
class RamifiedPoint:
    """A parameter point (mu, eps) with tracked branch data.

    Carries sqrt(eps) on its sheet, the two roots s1, s2 with
    s1^2 = mu + sqrt(eps), s2^2 = mu - sqrt(eps), and branch-tracked
    logarithms of n_i = s_i/sqrt(eps), a = (n1 - n2)/2, b = (n1 + n2)/2
    used by the connection-coefficient formulas.  The continuation maps
    sigma (one turn of mu around sqrt(eps)) and rho (simultaneous turn of
    mu and eps) act by exact argument arithmetic.
    """

    mu: BranchedLog
    eps: BranchedLog
    sqrt_eps: complex
    s1: complex
    s2: complex
    log_n1: complex = 0.0
    log_n2: complex = 0.0
    log_a: complex = 0.0
    log_b: complex = 0.0

    @classmethod
    def from_values(cls, mu: complex, eps: complex,
                    mu_turns: int = 0, eps_turns: int = 0) -> "RamifiedPoint":
        """Base-sheet construction (principal branches throughout).

        For mu, eps real positive with mu^2 > eps this gives the standard
        square roots.  Extra ``turns`` rotate the starting sheet of the
        respective parameter before anything is derived.
        """
        mu_b = BranchedLog.from_complex(mu, mu_turns)
        eps_b = BranchedLog.from_complex(eps, eps_turns)
        if eps_b.modulus == 0.0:
            se = 0.0 + 0.0j
            s1 = cmath.sqrt(mu)
            return cls(mu_b, eps_b, se, s1, s1)
        se = ramified_sqrt(eps_b).project()
        s1 = cmath.sqrt(complex(mu) + se)
        s2 = cmath.sqrt(complex(mu) - se)
        point = cls(mu_b, eps_b, se, s1, s2)
        if abs(s1) == 0.0 or abs(s2) == 0.0:
            # ramification locus mu^2 = eps (or mu = -sqrt(eps)): the
            # tracked logs are undefined there
            nan = complex(math.nan, math.nan)
            return replace(point, log_n1=nan, log_n2=nan, log_a=nan, log_b=nan)
        return replace(point, **point._fresh_logs())

    def _fresh_logs(self) -> dict:
        n1 = self.s1 / self.sqrt_eps
        n2 = self.s2 / self.sqrt_eps
        return {
            "log_n1": cmath.log(n1),
            "log_n2": cmath.log(n2),
            "log_a": cmath.log((n1 - n2) / 2.0),
            "log_b": cmath.log((n1 + n2) / 2.0),
        }

    # -- projections ---------------------------------------------------------

    @property
    def mu_value(self) -> complex:
        return self.mu.project()

    @property
    def eps_value(self) -> complex:
        return self.eps.project()

    @property
    def n1(self) -> complex:
        return cmath.exp(self.log_n1)

    @property
    def n2(self) -> complex:
        return cmath.exp(self.log_n2)

    @property
    def a(self) -> complex:
        """(s1 - s2)/(2 sqrt(eps)); for eps = 0 the limit 1/(2 sqrt(mu))."""
        if self.eps.modulus == 0.0:
            return 1.0 / (2.0 * cmath.sqrt(self.mu_value))
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

        sqrt(eps) flips sign, n1 and n2 exchange their tracked logs, a
        continues along e^{-i pi} a and b is fixed.
        """
        return replace(
            self,
            mu=self.mu.shifted(2.0 * math.pi),
            eps=self.eps.shifted(2.0 * math.pi),
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


@dataclass(frozen=True)
class DomainConfig:
    """Annulus and tracing constants.

    The feasibility inequality L * delta_s * (1 + 4 sup|s r|) <= 2 cos(eta)
    guarantees the Picard contraction of the integral-equation solver.
    """

    eta: float = math.pi / 6.0
    delta_s: float = 0.5
    L: float = 2.0
    xi_max: float | None = None
    trace_step: float = 5e-3
    parabolic_capture: float = 1e-2

    @property
    def xi_limit(self) -> float:
        return self.xi_max if self.xi_max is not None else 200.0 / math.cos(self.eta)

    def feasible(self, sup_sr: float = 0.0) -> bool:
        return self.L * self.delta_s * (1.0 + 4.0 * sup_sr) <= 2.0 * math.cos(self.eta)


# ---------------------------------------------------------------------------
# theta


def _dist_to_segment(s: complex, end: complex) -> float:
    """Distance from s to the straight segment [0, end]."""
    L2 = (end.real ** 2 + end.imag ** 2)
    if L2 == 0.0:
        return abs(s)
    t = (s.real * end.real + s.imag * end.imag) / L2
    t = min(1.0, max(0.0, t))
    return abs(s - t * end)


def theta(s: complex, mu: complex, eps: complex,
          branch: RamifiedPoint | None = None, cut_tol: float = 1e-9) -> complex:
    """Antiderivative of 2 s^2 / ((s^2 - mu)^2 - eps) vanishing at infinity.

    Closed-form case split (generic / eps = 0 / mu^2 = eps / both zero)
    with principal logarithms of the Moebius ratios, which puts the cuts
    exactly on the four segments [0, s_i].  Odd in s.
    """
    s = complex(s)
    mu = complex(mu)
    eps = complex(eps)
    if branch is None:
        branch = RamifiedPoint.from_values(mu, eps)
    scale = max(abs(mu) ** 2, abs(eps), 1e-300)
    generic = abs(eps) > 1e-13 * scale and abs(mu * mu - eps) > 1e-13 * scale

    if generic:
        s1, s2, se = branch.s1, branch.s2, branch.sqrt_eps
        for root in (s1, -s1, s2, -s2):
            if _dist_to_segment(s, root) < cut_tol:
                raise OnCut(f"s = {s} lies on a cut segment")
        t1 = (s1 / (2.0 * se)) * cmath.log((s - s1) / (s + s1))
        t2 = (s2 / (2.0 * se)) * cmath.log((s - s2) / (s + s2))
        return t1 - t2
    if abs(eps) <= 1e-13 * scale and abs(mu) <= 1e-13 * math.sqrt(scale):
        if abs(s) < cut_tol:
            raise OnCut("s = 0 is the degenerate cut")
        return -2.0 / s
    if abs(eps) <= 1e-13 * scale:
        sm = cmath.sqrt(mu)
        for root in (sm, -sm):
            if _dist_to_segment(s, root) < cut_tol:
                raise OnCut(f"s = {s} lies on a cut segment")
        return -s / (s * s - mu) - cmath.log((s + sm) / (s - sm)) / (2.0 * sm)
    # mu^2 = eps: the double-root case; sign fixed by the generic limit
    sr = cmath.sqrt(2.0 * mu)
    for root in (sr, -sr):
        if _dist_to_segment(s, root) < cut_tol:
            raise OnCut(f"s = {s} lies on a cut segment")
    return cmath.log((s - sr) / (s + sr)) / sr


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

    Roots at the origin are excluded when (mu, eps) != 0: the pole of chi
    cancels them and the point is regular.  For eps = 0 the double roots
    +-sqrt(mu) are flagged parabolic.
    """
    mu, eps = rp.mu_value, rp.eps_value
    out: list[Equilibrium] = []
    if abs(eps) == 0.0:
        if abs(mu) == 0.0:
            out.append(Equilibrium(0.0, 0.0, True))
        else:
            sm = rp.s1
            out.append(Equilibrium(sm, 0.0, True))
            out.append(Equilibrium(-sm, 0.0, True))
        return out
    seen: list[complex] = []
    for s_i in rp.roots():
        if abs(s_i) < 1e-12:
            continue
        if any(abs(s_i - t) < 1e-12 for t in seen):
            continue
        seen.append(s_i)
        out.append(Equilibrium(s_i, chi_multiplier(s_i, mu), False))
    return out


# ---------------------------------------------------------------------------
# trajectory tracing


@dataclass(frozen=True)
class TrajectoryRecord:
    """Uniform-in-xi samples of one real trajectory of omega*chi.

    ``terminal`` is one of converged / left-annulus / max-length; for a
    converged run ``target`` holds the limiting equilibrium.  ``direction``
    -1 means the field -omega*chi was integrated (a backward trajectory).
    """

    omega: complex
    mu: complex
    eps: complex
    xi: np.ndarray
    s: np.ndarray
    terminal: str
    target: complex | None
    direction: int = 1

    @property
    def dxi(self) -> float:
        return float(self.xi[1] - self.xi[0]) if len(self.xi) > 1 else 0.0

    def reversed_negated(self) -> "TrajectoryRecord":
        """The arc -s traversed the other way: again a forward trajectory.

        Maps a connection s_a -> s_b of omega*chi onto the connection
        -s_b -> -s_a, which is what the P-symmetric Picard solve needs.
        """
        xs = self.xi[-1] - self.xi[::-1]
        return TrajectoryRecord(self.omega, self.mu, self.eps, xs,
                                -self.s[::-1], self.terminal,
                                None if self.target is None else -self.s[0],
                                self.direction)


def _in_annulus(s, mu: complex, eps: complex, cfg: DomainConfig):
    """|s| < delta_s and |(s^2 - mu)^2 - eps| < L |s|^4, for a complex or
    elementwise for an ndarray; NaN fails both."""
    s2 = s * s
    return (abs(s) < cfg.delta_s) & (abs((s2 - mu) ** 2 - eps) < cfg.L * abs(s2 * s2))


def _field(v, w: complex, mu: complex, eps: complex):
    """w * chi(v), multiplied out as (w * numerator) / denominator: the traced
    samples, and so the CSV and JSON outputs, depend on that rounding."""
    return w * ((v * v - mu) ** 2 - eps) / (4.0 * v * v)


def _rk4_step(s, w: complex, mu: complex, eps: complex, h: float):
    """One classical RK4 step of ds/dxi = w chi(s) from a complex or from an
    ndarray of them.  A numpy step costs ~30 us however few lanes it has, a
    Python complex step ~3 us, so a single arc is stepped as a complex."""
    k1 = _field(s, w, mu, eps)
    k2 = _field(s + 0.5 * h * k1, w, mu, eps)
    k3 = _field(s + 0.5 * h * k2, w, mu, eps)
    k4 = _field(s + h * k3, w, mu, eps)
    return s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _attractors(eqs: list[Equilibrium], w: complex) -> list[Equilibrium]:
    """The equilibria a forward trajectory of w * chi can converge to."""
    return [e for e in eqs if e.parabolic or (w * e.multiplier).real < 0.0]


def trace_trajectory(s0: complex, omega: complex, rp: RamifiedPoint,
                     cfg: DomainConfig | None = None, direction: int = 1,
                     xi_max: float | None = None) -> TrajectoryRecord:
    """Fixed-step RK4 integration of ds/dxi = direction * omega * chi(s).

    Stops on convergence to an equilibrium (within CAPTURE_RADIUS for
    hyperbolic points, parabolic_capture with an inward-motion check for
    parabolic ones), on leaving the annulus, or at xi_max.
    """
    if cfg is None:
        cfg = DomainConfig()
    mu, eps = rp.mu_value, rp.eps_value
    w = direction * omega
    h = cfg.trace_step
    limit = xi_max if xi_max is not None else cfg.xi_limit
    n_max = int(limit / h) + 1
    if mu == 0 and eps == 0:
        return _confluent_trajectory(complex(s0), omega, mu, eps, cfg, direction, n_max)
    attracting = _attractors(equilibria(rp), w)
    samples = [complex(s0)]
    s = complex(s0)
    terminal, target = "max-length", None
    approach = 0

    for _ in range(n_max):
        s_new = _rk4_step(s, w, mu, eps, h)
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
            s = s_new
            break
        if not _in_annulus(s_new, mu, eps, cfg):
            terminal = "left-annulus"
            s = s_new
            break
        s = s_new
    arr = np.asarray(samples)
    xi = np.arange(len(arr)) * h
    return TrajectoryRecord(omega, mu, eps, xi, arr, terminal, target, direction)


def _confluent_trajectory(s0: complex, omega: complex, mu: complex, eps: complex,
                          cfg: DomainConfig, direction: int, n_max: int) -> TrajectoryRecord:
    """trace_trajectory at mu = eps = 0, where theta = -2/s solves the flow:
    1/s = 1/s0 - w xi / 4.  Samples that closed form on the xi grid of the
    RK4 loop and stops by its rules: five consecutive approaching samples
    inside the parabolic capture disc (samples outside it neither count nor
    reset), or a sample outside the annulus."""
    w = direction * omega
    xi = np.arange(n_max + 1) * cfg.trace_step
    with np.errstate(divide="ignore", invalid="ignore"):
        s = s0 / (1.0 - (w * s0 / 4.0) * xi)
    d = np.abs(s)
    in_cap = np.flatnonzero(d[1:] < cfg.parabolic_capture)
    pos = np.arange(len(in_cap))
    # approach count after each in-cap step: approaching steps since the last
    # in-cap step that did not approach
    run = pos - np.maximum.accumulate(np.where(d[1:][in_cap] < d[:-1][in_cap], -1, pos))
    k_conv = in_cap[run >= 5][:1] + 1
    k_left = np.flatnonzero(~_in_annulus(s[1:], 0.0, 0.0, cfg))[:1] + 1
    terminal, target, n = "max-length", None, n_max
    if k_conv.size and (not k_left.size or k_conv[0] <= k_left[0]):
        terminal, target, n = "converged", 0.0, int(k_conv[0])
    elif k_left.size:
        terminal, n = "left-annulus", int(k_left[0])
    return TrajectoryRecord(omega, mu, eps, xi[:n + 1], s[:n + 1], terminal, target,
                            direction)


def xi_theta_residuals(record: TrajectoryRecord,
                       branch: RamifiedPoint | None = None) -> np.ndarray:
    """Per-step residual of omega * dxi = 2 dtheta along the samples.

    Pairs that straddle a theta cut (where the principal branch jumps) are
    reported as NaN so callers can exclude them.
    """
    mu, eps = record.mu, record.eps
    if branch is None:
        branch = RamifiedPoint.from_values(mu, eps)
    w = record.direction * record.omega
    vals = np.empty(len(record.s) - 1, dtype=float)
    th = []
    for s in record.s:
        try:
            th.append(theta(s, mu, eps, branch))
        except OnCut:
            th.append(None)
    for k in range(len(vals)):
        a, b = th[k], th[k + 1]
        if a is None or b is None:
            vals[k] = np.nan
            continue
        lhs = w * (record.xi[k + 1] - record.xi[k])
        rhs = 2.0 * (b - a)
        res = abs(lhs - rhs)
        # a principal-branch jump shows up as a residual of order 1
        vals[k] = res if res < 0.1 else np.nan
    return vals


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


def _disc_radius(s_i: complex, k: int, g_i: complex, bound, margin: float,
                 cfg: DomainConfig) -> float:
    """Largest r (by bisection) with bound(r) <= margin whose closed disc
    |s - s_i| <= r lies in the annulus, where chi(s) = (s - s_i)^k g(s) and
    bound(r) >= sup |g(s) - g_i| on that disc; 0 if none.

    The disc lies in the annulus when |s_i| + r < delta_s and
    4 r^k (|g_i| + bound(r)) < L (|s_i| - r)^2, since
    |(s^2 - mu)^2 - eps| = 4 |s|^2 |s - s_i|^k |g(s)| and |s| >= |s_i| - r.
    Both tests and bound(r) grow with r, so bisection finds the edge.
    """
    a = abs(s_i)
    lo, hi = 0.0, min(a, cfg.delta_s - a)
    if hi <= 0.0:
        return 0.0
    for _ in range(50):
        r = 0.5 * (lo + hi)
        b = bound(r)
        if b <= margin and 4.0 * r ** k * (abs(g_i) + b) < cfg.L * (a - r) ** 2:
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
                                 0.5, cfg)
                discs.append((e.s - 0.5 * r * w.conjugate() / abs(w), 0.5 * r, e.s))
            continue
        t2 = abs(2.0 * mu - e.s * e.s)

        def bound(r):
            return 0.25 * r * (1.0 + t2 / (a - r) ** 2
                               + 2.0 * a * t2 * (2.0 * a + r) / (a * a * (a - r) ** 2))

        margin = abs((w * e.multiplier).real) / (2.0 * abs(w))
        r = _disc_radius(e.s, 1, e.multiplier, bound, margin, cfg)
        discs.append((e.s, max(1e3 * CAPTURE_RADIUS, r), e.s))
    centres, radii, ends = zip(*discs)
    return np.array(centres, dtype=complex), np.array(radii), np.array(ends, dtype=complex)


def _flow_endpoints(points: np.ndarray, w: complex, mu: complex, eps: complex,
                    cfg: DomainConfig, eq_list: list[Equilibrium]) -> np.ndarray:
    """Vectorized RK4 flow of all grid points; returns the reached
    equilibrium per point (NaN: left the annulus or never captured).  A lane
    stops once it enters a capture disc of _capture_discs."""
    h = CLASSIFY_STEP
    n_steps = int(cfg.xi_limit / h) + 1
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
        v_new = _rk4_step(s[active], w, mu, eps, h)
        s[active] = v_new
        idx = np.flatnonzero(active)
        hit = np.abs(v_new[:, None] - centres[None, :]) < radii[None, :]
        captured = hit.any(axis=1)
        if captured.any():
            out[idx[captured]] = ends[np.argmax(hit[captured], axis=1)]
            active[idx[captured]] = False
        left = ~_in_annulus(v_new[~captured], mu, eps, cfg)
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
    the disc |1/s| <= 1/delta_s.  Such a loop is R_I when
    Im(conj(omega)/s0) < 0 (for omega = 1, the loops in the upper half
    plane) and R_I^P, its negation, when Im(conj(omega)/s0) > 0.
    """
    mu, eps = rp.mu_value, rp.eps_value
    if isinstance(grid, tuple):
        nx, ny = grid
        xs = np.linspace(-cfg.delta_s, cfg.delta_s, nx)
        ys = np.linspace(-cfg.delta_s, cfg.delta_s, ny)
        pts = (xs[None, :] + 1j * ys[:, None]).ravel()
    else:
        pts = np.asarray(grid, dtype=complex).ravel()
    inside = _in_annulus(pts, mu, eps, cfg)
    labels = np.full(pts.shape, REGION_NONE, dtype=int)
    eq_list = equilibria(rp)
    if not eq_list:
        return pts, labels
    if mu == 0 and eps == 0:
        side = (np.conj(omega) / pts[inside]).imag / abs(omega)
        labels[inside] = np.where(side < -1.0 / cfg.delta_s, REGION_INNER,
                                  np.where(side > 1.0 / cfg.delta_s, REGION_INNER_P,
                                           REGION_NONE))
        return pts, labels
    fwd = _flow_endpoints(pts[inside], omega, mu, eps, cfg, eq_list)
    bwd = _flow_endpoints(pts[inside], -omega, mu, eps, cfg, eq_list)

    s1, s2 = rp.s1, rp.s2
    sub = np.full(fwd.shape, REGION_NONE, dtype=int)

    def near(arr, target):
        return np.isfinite(arr) & (np.abs(arr - target) < 1e-6 + 2.0 * cfg.parabolic_capture)

    inner = near(bwd, s1) & near(fwd, s2)
    inner_p = near(bwd, -s2) & near(fwd, -s1)
    outer_pair = near(bwd, s1) & near(fwd, -s1) & ~inner & ~inner_p
    axis = s1 if abs(s1) > 1e-12 else 1.0
    upper = (pts[inside] / axis).imag > 0.0
    sub[inner] = REGION_INNER
    sub[inner_p] = REGION_INNER_P
    sub[outer_pair & upper] = REGION_OUTER
    sub[outer_pair & ~upper] = REGION_OUTER_P
    # eps = 0 collapses s1 = s2: connections from s1 to s1 are inner
    if abs(eps) == 0.0 and abs(mu) > 0.0:
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


def stability_sweep(mu_path, eps: complex) -> np.ndarray:
    """Re(sqrt(eps)/s2) along a mu path with s2 continued, not principal.

    Principal square roots jump sheets exactly on the sigma_I ray, which
    would mask the stability flip; here each s2 is the root closest to the
    previous one.
    """
    se = cmath.sqrt(eps)
    out = np.empty(len(mu_path), dtype=float)
    s2_prev = None
    for k, mu in enumerate(mu_path):
        s2 = cmath.sqrt(complex(mu) - se)
        if s2_prev is not None and abs(-s2 - s2_prev) < abs(s2 - s2_prev):
            s2 = -s2
        out[k] = (se / s2).real
        s2_prev = s2
    return out


# ---------------------------------------------------------------------------
# CSV emitters


CSV_SCHEMA = "resunfold-csv/1"


def write_trajectories_csv(records: list[TrajectoryRecord], path, stride: int = 1) -> None:
    with open(path, "w") as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        fh.write("traj,xi,re_s,im_s\n")
        for k, rec in enumerate(records):
            for xi, s in zip(rec.xi[::stride], rec.s[::stride]):
                fh.write(f"{k},{xi:.12g},{s.real:.12g},{s.imag:.12g}\n")


def write_regions_csv(points: np.ndarray, labels: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        fh.write("re_s,im_s,label\n")
        for p, l in zip(points, labels):
            fh.write(f"{p.real:.12g},{p.imag:.12g},{REGION_NAMES[int(l)]}\n")


def write_bifurcations_csv(curves: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"# schema={CSV_SCHEMA}\n")
        fh.write("curve,re_mu,im_mu\n")
        for name, arr in curves.items():
            for mu in np.atleast_1d(arr):
                fh.write(f"{name},{mu.real:.12g},{mu.imag:.12g}\n")
