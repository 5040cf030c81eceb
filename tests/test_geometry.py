import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from conftest import stability_sweep
from resunfold import geometry
from resunfold.geometry import (
    ANNULUS_L,
    CAPTURE_RADIUS,
    CLASSIFY_STEP,
    DELTA_S,
    REGION_INNER,
    REGION_INNER_P,
    REGION_OUTER,
    REGION_OUTER_P,
    DomainConfig,
    OnCut,
    PoleAtZero,
    RamifiedPoint,
    bifurcation_sets,
    chi,
    classify_regions,
    count_components,
    equilibria,
    theta,
    theta_deriv,
    trace_trajectory,
)
from resunfold.geometry import (
    _attractors,
    _capture_discs,
    _flow_endpoints,
    _in_annulus,
    _rk4_step,
)


def random_generic_point(rng, mu_scale=0.1, eps_scale=0.01):
    while True:
        mu = mu_scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eps = eps_scale * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(eps) > 0.1 * eps_scale and abs(mu * mu - eps) > 0.1 * eps_scale:
            return mu, eps


# ---------------------------------------------------------------------------
# ramified points


def test_ramified_point_root_identities(rng):
    for _ in range(30):
        mu, eps = random_generic_point(rng)
        rp = RamifiedPoint.from_values(mu, eps)
        assert abs(rp.s1 ** 2 - (mu + rp.sqrt_eps)) < 1e-14
        assert abs(rp.s2 ** 2 - (mu - rp.sqrt_eps)) < 1e-14
        assert abs((rp.s1 * rp.s2) ** 2 - (mu * mu - eps)) < 1e-12


def test_ramified_point_standard_branch():
    rp = RamifiedPoint.from_values(0.3, 0.01)
    assert abs(rp.s1 - math.sqrt(0.4)) < 1e-15
    assert abs(rp.s2 - math.sqrt(0.2)) < 1e-15


def test_a_at_eps_zero_is_the_limit():
    """At eps = 0, a is 1/(2 sqrt mu), the limit of (s1 - s2)/(2 sqrt eps):
    a = (1 + eps / (8 mu^2) + O(eps^2)) / (2 sqrt mu) as |eps| -> 0."""
    for mu in (0.09, 0.05 + 0.02j, -0.04 + 0.01j):
        a0 = RamifiedPoint.from_values(mu, 0.0).a
        assert abs(a0 - 1.0 / (2.0 * cmath.sqrt(mu))) < 1e-15
        for t in (1e-6, 1e-8):
            for phase in (1.0, 1j, -1.0 + 0.5j):
                eps = t * phase
                gap = RamifiedPoint.from_values(mu, eps).a / a0 - 1.0
                assert abs(gap - eps / (8.0 * mu * mu)) < 1e-3 * abs(eps / (mu * mu))


# the seed-977 "ramified mu^2=eps" portrait of the cli-sweep benchmark, its
# --mu and --eps copied from the manifest: eps = mu * mu exactly, but
# rounding in sqrt(mu * mu) leaves sqrt(mu - sqrt(eps)) at 3.7e-9, not 0
MU_977 = complex(0.09916647375053429, 0.010143230095206134)
EPS_977 = complex(0.009731104399351112, 0.002011736721963777)


@pytest.mark.parametrize("mu, eps, case", [
    (0.04, 0.0, "confluent"),
    (0.05 + 0.02j, 0.0, "confluent"),
    (0.1, 0.01, "ramified"),                            # mu = +sqrt(eps)
    (-0.07 + 0.03j, (-0.07 + 0.03j) ** 2, "ramified"),  # mu = -sqrt(eps)
    (-0.1, 0.01, "ramified"),                           # mu = -sqrt(eps)
    (MU_977, EPS_977, "ramified"),
    (0.0, 0.0, "origin"),
])
def test_degenerate_case_is_decided_once(mu, eps, case):
    """A point 1e-14 relative off a degenerate set gets the set's case and
    equilibria (two, or one at the origin); 1e-12 relative off, it stays
    generic with four."""
    n_eq = 1 if case == "origin" else 2
    exact = RamifiedPoint.from_values(mu, eps)
    eqs = equilibria(exact)
    assert exact.case == case and len(eqs) == n_eq
    assert all(e.parabolic == (case != "ramified") for e in eqs)
    assert all(cmath.isnan(x) for x in (exact.log_n1, exact.log_n2, exact.log_a, exact.log_b))
    assert exact.sigma_image().case == exact.rho_image().case == case
    scale = max(abs(mu) ** 2, abs(eps))
    if scale == 0.0:
        return
    for phase in (1.0, 1j, -0.6 - 0.8j):
        near = RamifiedPoint.from_values(mu, eps + 1e-14 * scale * phase)
        assert near.case == case
        near_eqs = equilibria(near)
        assert len(near_eqs) == n_eq and all(e.parabolic == (case != "ramified")
                                             for e in near_eqs)
        # the same points, perhaps in another order: a principal root may
        # change sign across a branch cut of sqrt
        assert all(min(abs(a.s - b.s) for b in eqs) <= 1e-12 * abs(a.s) for a in near_eqs)
        far = RamifiedPoint.from_values(mu, eps + 1e-12 * scale * phase)
        assert far.case == "generic" and len(equilibria(far)) == 4


def test_sigma_rho_actions(rng):
    mu, eps = random_generic_point(rng)
    rp = RamifiedPoint.from_values(mu, eps)
    sig = rp.sigma_image()
    assert sig.s1 == rp.s1 and abs(sig.s2 + rp.s2) == 0.0
    assert abs(cmath.exp(sig.log_a) - rp.b) < 1e-14 * max(1, abs(rp.b))
    assert abs(cmath.exp(sig.log_b) - rp.a) < 1e-14 * max(1, abs(rp.a))
    rho = rp.rho_image()
    assert abs(rho.s1 + rp.s2) == 0.0 and abs(rho.s2 + rp.s1) == 0.0
    assert abs(cmath.exp(rho.log_a) + rp.a) < 1e-14 * max(1, abs(rp.a))
    assert abs(cmath.exp(rho.log_b) - rp.b) < 1e-14 * max(1, abs(rp.b))
    # rho turns eps once around 0, so sqrt(eps) changes sign
    assert rho.sqrt_eps == -rp.sqrt_eps


# ---------------------------------------------------------------------------
# theta


def test_theta_simplest_case():
    rp = RamifiedPoint.from_values(0.0, 0.0)
    assert abs(theta(1.0, rp) + 2.0) < 1e-15
    assert abs(theta(2j, rp) - (-2.0 / 2j)) < 1e-15


def test_theta_oddness(rng):
    for _ in range(40):
        mu, eps = random_generic_point(rng)
        rp = RamifiedPoint.from_values(mu, eps)
        s = 0.4 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        try:
            t1 = theta(s, rp)
            t2 = theta(-s, rp)
        except OnCut:
            continue
        assert abs(t1 + t2) < 1e-12


def test_theta_derivative(rng):
    checked = 0
    while checked < 200:
        mu, eps = random_generic_point(rng)
        rp = RamifiedPoint.from_values(mu, eps)
        s = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        if abs(s) < 0.15:
            continue
        if min(abs(s - r) for r in rp.roots()) < 0.1:
            continue
        h = 1e-6
        try:
            fd = (theta(s + h, rp) - theta(s - h, rp)) / (2 * h)
        except OnCut:
            continue
        checked += 1
        ref = theta_deriv(s, mu, eps)
        assert abs(fd - ref) < 1e-6 * max(1.0, abs(ref))


def test_theta_on_cut_raises():
    rp = RamifiedPoint.from_values(0.09, 0.0)
    with pytest.raises(OnCut):
        theta(0.15, rp)  # on the segment [0, 0.3]


def test_theta_degenerate_limits():
    mu = 0.07 + 0.02j
    s = 0.31 + 0.12j
    lim = theta(s, RamifiedPoint.from_values(mu, 1e-10))
    assert abs(lim - theta(s, RamifiedPoint.from_values(mu, 0.0))) < 1e-4
    eps = mu * mu * (1 + 1e-8)
    lim2 = theta(s, RamifiedPoint.from_values(mu, eps))
    assert abs(lim2 - theta(s, RamifiedPoint.from_values(mu, mu * mu))) < 1e-4


@pytest.mark.parametrize("mu", [1e-34, 1e-20])
def test_theta_at_eps_zero_keeps_its_log_term_for_tiny_mu(mu):
    """At eps = 0, theta = -s/(s^2 - mu) - atanh(r/s)/r, r = sqrt(mu), tends
    to -2/s as mu -> 0; written as log((s + r)/(s - r))/(2 r) its second
    half rounds away once |r/s| is below the rounding of 1."""
    rp = RamifiedPoint.from_values(mu, 0.0)
    assert rp.case == "confluent"
    for s in (0.3, 0.31 + 0.12j, -0.2j):
        assert abs(theta(s, rp) + 2.0 / s) <= 1e-14 * abs(2.0 / s)


def test_theta_on_mu2_eq_eps_is_the_old_closed_form(rng):
    """On mu^2 = eps the generic formula loses the term of the zero root;
    what is left equals log((s - r)/(s + r))/r, r = sqrt(2 mu), the closed
    form theta used to keep for that case."""
    for mu in (0.1, -0.1, 0.07 + 0.03j, -0.07 - 0.03j, 0.05 - 0.04j, -0.06 + 0.02j):
        rp = RamifiedPoint.from_values(mu, mu * mu)
        r = cmath.sqrt(2.0 * mu)
        checked = 0
        while checked < 200:
            s = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            try:
                got = theta(s, rp)
            except OnCut:
                continue
            checked += 1
            want = cmath.log((s - r) / (s + r)) / r
            assert abs(got - want) <= 1e-15 * abs(want)


def test_theta_parameter_periodicity(rng):
    """theta is unchanged when mu or eps gains a full turn of argument,
    as long as the same root branch data is supplied."""
    mu, eps = random_generic_point(rng)
    rp = RamifiedPoint.from_values(mu, eps)
    s = 0.42
    base = theta(s, rp)
    turned = theta(s, dataclasses.replace(rp, mu=mu * cmath.exp(2j * math.pi),
                                          eps=eps * cmath.exp(2j * math.pi)))
    assert abs(base - turned) < 1e-10


# ---------------------------------------------------------------------------
# chi


def test_chi_values_and_pole():
    assert abs(chi(2.0, 0.0, 0.0) - 1.0) < 1e-15
    with pytest.raises(PoleAtZero):
        chi(0.0, 0.1, 0.01)


def test_chi_zeros_are_roots(rng):
    mu, eps = random_generic_point(rng)
    rp = RamifiedPoint.from_values(mu, eps)
    for r in rp.roots():
        assert abs(chi(r, mu, eps)) < 1e-13


def test_chi_scaling_covariance(rng):
    for _ in range(20):
        omega = cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        s = complex(rng.uniform(0.1, 0.5), rng.uniform(-0.3, 0.3))
        mu = 0.05 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eps = 0.003 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        lhs = omega * chi(s, mu, eps)
        rhs = chi(omega * s, omega ** 2 * mu, omega ** 4 * eps) / omega
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(lhs))


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_explicit_flow_oracle():
    """mu = eps = 0: ds/dxi = s^2/4 integrates to s0/(1 - s0 xi / 4)."""
    cfg = DomainConfig(trace_step=0.01, xi_max=50.0)
    rp = RamifiedPoint.from_values(0.0, 0.0)
    rec = trace_trajectory(0.3j, 1.0, rp, cfg)
    exact = 0.3j / (1.0 - 0.3j * rec.xi / 4.0)
    assert np.max(np.abs(rec.s - exact)) < 1e-12
    # stays bounded and heads for the origin inside the upper region
    assert np.all(np.abs(rec.s) <= 0.31)
    assert abs(rec.s[-1]) < abs(rec.s[0])


def test_confluent_trace_matches_rk4():
    """At mu = eps = 0 trace_trajectory samples s0 / (1 - w s0 xi / 4); the
    RK4 loop it replaces agrees to 1e-12 over its first 2,000 steps."""
    rp = RamifiedPoint.from_values(0.0, 0.0)
    cfg = DomainConfig()
    for s0, omega in ((0.3j, 1.0), (0.2 - 0.35j, -cmath.exp(0.3j))):
        rec = trace_trajectory(s0, omega, rp, cfg)
        assert len(rec.s) > 2000
        s, rk4 = complex(s0), [complex(s0)]
        for _ in range(2000):
            s = _rk4_step(s, omega, 0.0, 0.0, cfg.trace_step)
            rk4.append(s)
        assert np.max(np.abs(rec.s[:2001] - np.array(rk4))) <= 1e-12


def test_confluent_capture_time_from_closed_form():
    """From s0 = 0.3i with omega = 1, |s| = 1/|1/s0 - xi/4| first drops below
    the 1e-2 capture disc at xi = 4 sqrt(1e4 - 1/0.09) ~ 399.8, beyond the
    default budget 200 / cos(pi/6) ~ 230.9; the trace converges five
    approaching samples after that, and runs out at the default budget."""
    rp = RamifiedPoint.from_values(0.0, 0.0)
    cfg = DomainConfig()
    h = cfg.trace_step
    xi_in = 4.0 * math.sqrt(1e4 - 1.0 / 0.09)
    rec = trace_trajectory(0.3j, 1.0, rp, dataclasses.replace(cfg, xi_max=450.0))
    assert rec.terminal == "converged" and rec.target == 0.0
    assert abs(rec.xi[-1] - (math.ceil(xi_in / h) + 4) * h) < 0.5 * h
    assert 399.0 < xi_in < 400.0
    assert trace_trajectory(0.3j, 1.0, rp, cfg).terminal == "max-length"


def test_confluent_labels_from_closed_form():
    """At mu = eps = 0 the loops through 0 that stay in |s| < delta_s are
    labelled, R_I where Im(conj(omega)/s0) < 0 and R_I^P on the other side;
    the labels are P-symmetric, and long traces both ways converge exactly
    at the labelled points (away from the tangency |Im(conj w / s0)| = 2)."""
    rp = RamifiedPoint.from_values(0.0, 0.0)
    cfg = DomainConfig()
    omega = cmath.exp(0.15j)
    xs = np.linspace(-0.45, 0.45, 30)
    grid = (xs[None, :] + 1j * xs[:, None]).ravel()
    pts, lab = classify_regions(rp, omega, cfg, grid=grid)
    _, lab_neg = classify_regions(rp, omega, cfg, grid=-grid)
    swap = {0: 0, REGION_INNER: REGION_INNER_P, REGION_INNER_P: REGION_INNER}
    assert all(swap[int(a)] == int(b) for a, b in zip(lab, lab_neg))
    assert int(np.sum(lab == REGION_INNER)) > 50
    assert int(np.sum(lab == REGION_OUTER)) == int(np.sum(lab == REGION_OUTER_P)) == 0
    side = (np.conj(omega) / pts).imag
    assert np.all(side[lab == REGION_INNER] < 0) and np.all(side[lab == REGION_INNER_P] > 0)
    clear = np.flatnonzero(np.abs(np.abs(side) - 1.0 / DELTA_S) > 0.2)
    for k in clear[::20]:
        ends = [trace_trajectory(pts[k], w, rp, dataclasses.replace(cfg, xi_max=600.0)).terminal
                for w in (omega, -omega)]
        assert (ends == ["converged", "converged"]) == (lab[k] != 0)


def test_rk4_step_and_annulus_agree_on_scalars_and_arrays():
    """connecting_arc steps one complex, the region flow an ndarray of
    them, through the same RK4 step and annulus test.  numpy's complex
    multiply, divide and abs may round differently from Python's, so an
    array lane matches the scalar run to rounding, and the two annulus
    tests agree on every grid point that is not within rounding of a tie
    (this grid has points on |s| = delta_s)."""
    mu, eps, w, h = 0.05 + 0.02j, 0.0016 + 0.0005j, cmath.exp(-0.3j), 5e-3
    lanes = np.array([0.2 + 0.1j, -0.3 + 0.05j, 0.1 - 0.25j])
    scalars = lanes.tolist()
    for _ in range(2000):
        lanes = _rk4_step(lanes, w, mu, eps, h)
        scalars = [_rk4_step(v, w, mu, eps, h) for v in scalars]
    assert np.max(np.abs(lanes - np.array(scalars))) < 1e-14
    xs = np.linspace(-0.6, 0.6, 61)
    pts = (xs[None, :] + 1j * xs[:, None]).ravel()
    inside = _in_annulus(pts, mu, eps)
    assert 0 < inside.sum() < len(pts)
    s2 = pts * pts
    num, quartic = np.abs((s2 - mu) ** 2 - eps), ANNULUS_L * np.abs(s2 * s2)
    clear = ((np.abs(np.abs(pts) - DELTA_S) > 1e-12)
             & (np.abs(num - quartic) > 1e-12 * quartic))
    scalar = np.array([bool(_in_annulus(complex(p), mu, eps)) for p in pts])
    assert clear.sum() > 0.99 * len(pts)
    assert np.array_equal(inside[clear], scalar[clear])
    assert not _in_annulus(complex("nan+nanj"), mu, eps)


def test_trajectory_equilibrium_is_fixed(rng):
    """A trace seeded exactly on an equilibrium stays there, also where the
    theta step's start moves the seed by rounding: at (-0.0722+0.0408i,
    0.00642+0.00964i) x s - s_i^2 rounds to 0 and the increment would
    divide by it."""
    points = [(0.05, 0.0016), (0.04, 0.0),
              (-0.07221366417596049 + 0.04075715385335957j,
               0.006422061767892775 + 0.009636566457435877j)]
    points += [random_generic_point(rng) for _ in range(20)]
    for mu, eps in points:
        rp = RamifiedPoint.from_values(mu, eps)
        for e in equilibria(rp):
            for w in (1.0, cmath.exp(0.4j)):
                for h in (5e-3, 0.05):
                    rec = trace_trajectory(e.s, w, rp, DomainConfig(trace_step=h, xi_max=5.0))
                    assert np.max(np.abs(rec.s - e.s)) < 1e-12


def test_trajectory_convergence_tag():
    rp = RamifiedPoint.from_values(0.05, 0.0016)
    rec = trace_trajectory(0.2, 1.0, rp, DomainConfig())
    assert rec.terminal == "converged"
    assert abs(rec.target - rp.s2) < 1e-12
    assert abs(rec.s[-1] - rp.s2) < 1e-8


def _rk4_trajectory(s0, omega, rp, cfg):
    """The scalar RK4 loop that traced every trajectory before the theta
    steps, kept here as the oracle: step cfg.trace_step, capture within
    CAPTURE_RADIUS of a hyperbolic attractor or after five approaching
    samples inside parabolic_capture, stop outside the annulus or at
    cfg.xi_max.  Returns (samples, terminal, target)."""
    mu, eps, h = rp.mu, rp.eps, cfg.trace_step
    attracting = _attractors(equilibria(rp), omega)
    s = complex(s0)
    samples, terminal, target, approach = [s], "max-length", None, 0
    for _ in range(int(cfg.xi_max / h) + 1):
        s_new = _rk4_step(s, omega, mu, eps, h)
        samples.append(s_new)
        for e in attracting:
            d = abs(s_new - e.s)
            if not e.parabolic and d < CAPTURE_RADIUS:
                terminal, target = "converged", e.s
            elif e.parabolic and d < cfg.parabolic_capture:
                approach = approach + 1 if d < abs(s - e.s) else 0
                if approach >= 5:
                    terminal, target = "converged", e.s
            if terminal == "converged":
                break
        if terminal == "converged":
            break
        if not _in_annulus(s_new, mu, eps):
            terminal = "left-annulus"
            break
        s = s_new
    return np.array(samples), terminal, target


def _portrait_seeds(rp, n_random=2, seed=1):
    """The seeds of the portrait command: a four-point fan around each
    nonzero equilibrium, then random points of the annulus's square."""
    rng = np.random.default_rng(seed)
    seeds = [e.s + 1e-3 * phase * max(abs(e.s), 0.05) for e in equilibria(rp)
             if abs(e.s) > 1e-8 for phase in (1.0, 1j, -1.0, -1j)]
    while len(seeds) < 4 * len(equilibria(rp)) + n_random:
        z = DELTA_S * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if abs(z) > 0.2 * DELTA_S:
            seeds.append(z)
    return seeds


@pytest.fixture
def newton_iterations(monkeypatch):
    """Newton iterations of every theta step taken while the test runs, one
    entry per sample: each iteration evaluates theta' once."""
    per_sample, calls = [], [0]
    deriv, step = geometry.theta_deriv, geometry._theta_step

    def counted_deriv(*args):
        calls[0] += 1
        return deriv(*args)

    def counted_step(*args):
        calls[0] = 0
        x = step(*args)
        per_sample.append(calls[0])
        return x

    monkeypatch.setattr(geometry, "theta_deriv", counted_deriv)
    monkeypatch.setattr(geometry, "_theta_step", counted_step)
    return per_sample


def _agree_with_rk4(rp, omega, seeds, tol):
    """Traces every seed at the portrait spacing 0.05 and with the RK4 oracle
    at 5e-3: equal terminals and targets, and samples within tol of every
    tenth RK4 sample over their common xi range.  Returns the number of
    samples compared."""
    cfg = DomainConfig()
    compared = 0
    for s0 in seeds:
        rec = trace_trajectory(s0, omega, rp, dataclasses.replace(cfg, trace_step=0.05))
        ref, terminal, target = _rk4_trajectory(s0, omega, rp, cfg)
        assert (rec.terminal, rec.target) == (terminal, target), s0
        n = min(len(rec.s), len(ref[::10]))
        assert np.max(np.abs(rec.s[:n] - ref[::10][:n])) <= tol, s0
        compared += n - 1
    return compared


@pytest.mark.parametrize("mu, eps, omega", [
    (0.05 + 0.02j, 0.0016 + 0.0005j, cmath.exp(-0.3j)),   # generic
    (0.04, 0.0, 1.0),                                     # eps = 0
    (0.1, 0.01, 1.0),                                     # mu^2 = eps
    (0.0, 0.0, cmath.exp(0.15j)),                         # the origin
])
def test_theta_trace_matches_rk4(mu, eps, omega, newton_iterations):
    """One point per closed-form case: the theta tracer ends where the RK4
    loop at 5e-3 ends, and its samples agree to 1e-10."""
    rp = RamifiedPoint.from_values(mu, eps)
    assert _agree_with_rk4(rp, omega, _portrait_seeds(rp), 1e-10) > 1000
    assert (rp.case == "origin") == (not newton_iterations)


@pytest.mark.parametrize("mu, eps", [
    (0.04, 0.04 ** 2 * 1e-9),
    (0.04, 0.04 ** 2 * 1e-13),
    (1e-20, 0.0),
])
def test_theta_trace_near_degenerate_points(mu, eps, newton_iterations):
    """Near eps = 0 the logarithms' coefficients s_i / (2 sqrt(eps)) reach
    ~1e5 and the increment's rounding floor lies above 1e-15 |x|; the stop
    at the first step that no longer halves keeps every sample within six
    Newton iterations and within 1e-8 of RK4.  At mu = 1e-20 the eps = 0
    increment keeps its atanh term."""
    rp = RamifiedPoint.from_values(mu, eps)
    assert _agree_with_rk4(rp, cmath.exp(0.2j), _portrait_seeds(rp), 1e-8) > 1000
    assert newton_iterations and max(newton_iterations) <= 6


def test_theta_step_refuses_a_stalled_solve(monkeypatch):
    """A Newton solve that never meets its stop rule raises ThetaStepStalled,
    which the portrait command reports with exit code 5."""
    rp = RamifiedPoint.from_values(0.05, 0.0016)
    # a residual fixed at ~1 over a derivative growing by 1/0.45 a call:
    # every correction more than halves, yet stays above 1e-15 |x|
    calls = itertools.count()
    monkeypatch.setattr(geometry, "_theta_increment", lambda x, s, rp: -1.0)
    monkeypatch.setattr(geometry, "theta_deriv", lambda x, mu, eps: 1e3 / 0.45 ** next(calls))
    with pytest.raises(geometry.ThetaStepStalled):
        trace_trajectory(0.2, 1.0, rp, DomainConfig())
    assert next(calls) == geometry.NEWTON_MAX


# ---------------------------------------------------------------------------
# regions


def test_classify_four_regions():
    rp = RamifiedPoint.from_values(0.06, 0.001)
    pts, labels = classify_regions(rp, 1.0, DomainConfig(), grid=(41, 41))
    counts = {k: int(np.sum(labels == k)) for k in
              (REGION_INNER, REGION_INNER_P, REGION_OUTER, REGION_OUTER_P)}
    assert all(v > 0 for v in counts.values())
    assert counts[REGION_INNER] == counts[REGION_INNER_P]
    assert counts[REGION_OUTER] == counts[REGION_OUTER_P]


def test_classify_inner_empty_at_ramification():
    rp = RamifiedPoint.from_values(0.1, 0.01)  # mu^2 = eps
    _, labels = classify_regions(rp, 1.0, DomainConfig(), grid=(41, 41))
    assert int(np.sum(labels == REGION_INNER)) == 0
    assert int(np.sum(labels == REGION_INNER_P)) == 0
    assert int(np.sum(labels == REGION_OUTER)) > 0


def test_classify_two_inner_components_at_eps_zero():
    rp = RamifiedPoint.from_values(0.04, 0.0)
    pts, labels = classify_regions(rp, 1.0, DomainConfig(), grid=(61, 61))
    assert int(np.sum(labels == REGION_INNER)) > 10
    n = count_components(pts, labels, REGION_INNER, 61, 61,
                         exclude=[rp.s1, -rp.s1], exclude_radius=0.045)
    assert n == 2


def test_near_confluent_point_gets_the_confluent_labels():
    """1e-14 relative off eps = 0 the regions are those of eps = 0, not
    those of four hyperbolic equilibria 2e-8 apart in pairs."""
    cfg = DomainConfig()
    _, want = classify_regions(RamifiedPoint.from_values(0.04, 0.0), 1.0, cfg, grid=(31, 31))
    _, got = classify_regions(RamifiedPoint.from_values(0.04, 1.6e-17j), 1.0, cfg,
                              grid=(31, 31))
    assert int(np.sum(want == REGION_INNER)) > 0 and int(np.sum(want == REGION_OUTER)) > 0
    assert np.array_equal(got, want)


def _old_rule_endpoints(points, w, rp, cfg):
    """The region flow with only the fixed capture discs (1e3 CAPTURE_RADIUS
    around hyperbolic attractors, parabolic_capture around parabolic ones)
    over the full xi budget.  Also returns, per lane, the attractor of the
    first certified disc or petal it entered (NaN if none) and whether that
    entry came before the fixed-disc capture."""
    mu, eps = rp.mu, rp.eps
    targets = _attractors(equilibria(rp), w)
    pos = np.array([e.s for e in targets])
    cap = np.array([cfg.parabolic_capture if e.parabolic else 1e3 * CAPTURE_RADIUS
                    for e in targets])
    centres, radii, ends = _capture_discs(targets, w, mu, cfg)
    s = points.astype(complex).copy()
    end = np.full(len(s), np.nan, dtype=complex)
    certified = np.full(len(s), np.nan, dtype=complex)
    early = np.zeros(len(s), dtype=bool)
    active = np.ones(len(s), dtype=bool)
    for _ in range(int(cfg.xi_max / CLASSIFY_STEP) + 1):
        idx = np.flatnonzero(active)
        v = s[idx] = _rk4_step(s[idx], w, mu, eps, CLASSIFY_STEP)
        in_disc = np.abs(v[:, None] - centres[None, :]) < radii[None, :]
        fresh = np.isnan(certified[idx]) & in_disc.any(axis=1)
        certified[idx[fresh]] = ends[np.argmax(in_disc[fresh], axis=1)]
        hit = np.abs(v[:, None] - pos[None, :]) < cap[None, :]
        got = hit.any(axis=1)
        early[idx[fresh & ~got]] = True
        end[idx[got]] = pos[np.argmax(hit[got], axis=1)]
        active[idx[got | ~_in_annulus(v, mu, eps)]] = False
        if not active.any():
            break
    return end, certified, early


def test_capture_discs_satisfy_their_bounds(rng):
    """Sampled on its boundary circle, each certified disc keeps
    |chi(s)/(s - s_i) - lambda_i| <= |Re(w lambda_i)| / (2 |w|) (hyperbolic)
    or |chi(s)/d^2 - 1| <= 1/2 on |d| = r around the petal (parabolic), and
    lies in the annulus."""
    cfg = DomainConfig()
    ring = np.exp(2j * np.pi * np.arange(256) / 256)
    points = [random_generic_point(rng) for _ in range(20)]
    points += [(0.04, 0.0), (0.03 - 0.02j, 0.0), (0.1, 0.01)]
    checked = 0
    for mu, eps in points:
        rp = RamifiedPoint.from_values(mu, eps)
        w = cmath.exp(1j * rng.uniform(-0.5, 0.5))
        targets = _attractors(equilibria(rp), w)
        centres, radii, ends = _capture_discs(targets, w, mu, cfg)
        for c, r, e in zip(centres, radii, ends):
            if c == e and (eps == 0 or r <= 1e3 * CAPTURE_RADIUS):
                continue            # a fixed capture disc
            eq = next(t for t in targets if t.s == e)
            if eq.parabolic:
                rim = e + 2.0 * r * ring
                assert np.all(np.abs(chi(rim, mu, eps) / (rim - e) ** 2 - 1.0) <= 0.5)
            else:
                rim = e + r * ring
                margin = abs((w * eq.multiplier).real) / (2.0 * abs(w))
                assert np.all(np.abs(chi(rim, mu, eps) / (rim - e) - eq.multiplier) <= margin)
            assert np.all(_in_annulus(rim, mu, eps))
            checked += 1
    assert checked > 20


@pytest.mark.parametrize("mu, eps, omega, n", [
    (0.05 + 0.02j, 0.0016 + 0.0005j, cmath.exp(-0.3j), 21),   # the golden portrait
    (0.1, 0.01, 1.0, 41),                                     # criterion 9, mu^2 = eps
    (0.04, 0.0, 1.0, 61),                                     # criterion 9, eps = 0
])
def test_certified_captures_reach_the_same_attractor(mu, eps, omega, n):
    """Every lane that the region flow retires in a certified disc or petal,
    stepped on under the fixed-disc rules over the full budget, reaches the
    attractor that disc certifies; so the endpoints agree lane by lane."""
    rp = RamifiedPoint.from_values(mu, eps)
    cfg = DomainConfig()
    xs = np.linspace(-DELTA_S, DELTA_S, n)
    pts = (xs[None, :] + 1j * xs[:, None]).ravel()
    pts = pts[_in_annulus(pts, mu, eps)]
    retired_early = 0
    for w in (omega, -omega):
        end, certified, early = _old_rule_endpoints(pts, w, rp, cfg)
        done = ~np.isnan(certified)
        assert np.array_equal(end[done], certified[done])
        assert np.array_equal(_flow_endpoints(pts, w, mu, eps, cfg, equilibria(rp)), end,
                              equal_nan=True)
        retired_early += int(early.sum())
    assert retired_early > 0.2 * len(pts)


def test_lane_on_a_repeller_retires_at_once(monkeypatch):
    """At (0.09, 0.0049) the 41^2 grid points +-0.4 lie 5.6e-17 from +-s1,
    and RK4 returns each one unchanged in the direction where it repels.
    That lane stops after its first step with no end state, as the full
    budget leaves it, so every endpoint, and with them the labels, stay
    those of the full loop."""
    rp = RamifiedPoint.from_values(0.09, 0.0049)
    cfg = DomainConfig()
    xs = np.linspace(-DELTA_S, DELTA_S, 41)
    assert abs(xs[36] - rp.s1) < 1e-16
    pts = (xs[None, :] + 1j * xs[:, None]).ravel()
    pts = pts[_in_annulus(pts, rp.mu, rp.eps)]
    for w in (1.0, -1.0):
        end, _, _ = _old_rule_endpoints(pts, w, rp, cfg)
        assert np.array_equal(_flow_endpoints(pts, w, rp.mu, rp.eps, cfg, equilibria(rp)),
                              end, equal_nan=True)
    steps = []

    def counted(s, *args):
        steps.append(len(s))
        return _rk4_step(s, *args)

    monkeypatch.setattr(geometry, "_rk4_step", counted)
    for repeller, w in ((xs[36], 1.0), (xs[4], -1.0)):
        steps.clear()
        out = _flow_endpoints(np.array([repeller]), w, rp.mu, rp.eps, cfg, equilibria(rp))
        assert np.isnan(out[0]) and steps == [1]


def test_classify_work_on_golden_point(monkeypatch):
    """Certified captures retire the golden portrait's 21^2 lanes within 1,500
    array RK4 steps over both directions (2 x 2,375 with fixed discs only)."""
    steps = []

    def counted(s, *args):
        if isinstance(s, np.ndarray):
            steps.append(len(s))
        return _rk4_step(s, *args)

    monkeypatch.setattr(geometry, "_rk4_step", counted)
    rp = RamifiedPoint.from_values(0.05 + 0.02j, 0.0016 + 0.0005j)
    classify_regions(rp, cmath.exp(-0.3j), DomainConfig(), grid=(21, 21))
    assert 0 < len(steps) <= 1500


def test_classify_p_symmetry(rng):
    rp = RamifiedPoint.from_values(0.06, 0.001)
    cfg = DomainConfig()
    grid = (np.linspace(-0.45, 0.45, 31)[None, :]
            + 1j * np.linspace(-0.45, 0.45, 31)[:, None]).ravel()
    _, lab = classify_regions(rp, 1.0, cfg, grid=grid)
    _, lab_neg = classify_regions(rp, 1.0, cfg, grid=-grid)
    swap = {0: 0, REGION_INNER: REGION_INNER_P, REGION_INNER_P: REGION_INNER,
            REGION_OUTER: REGION_OUTER_P, REGION_OUTER_P: REGION_OUTER}
    assert all(swap[int(a)] == int(b) for a, b in zip(lab, lab_neg))


# ---------------------------------------------------------------------------
# bifurcations


def test_sigma_o_degenerates_at_eps_zero():
    curves = bifurcation_sets(0.0, 100)
    so = curves["sigma_O"]
    assert np.all(np.abs(so.imag) < 1e-15)
    assert np.all(so.real < 0)


def test_sigma_o_vertex_eps_one():
    so = bifurcation_sets(1.0, 801)["sigma_O"]
    vertex = so[np.argmin(np.abs(so))]
    assert abs(vertex - (-1.0)) < 1e-4


def test_sigma_i_rays_eps_one():
    curves = bifurcation_sets(1.0, 50)
    assert abs(curves["sigma_I_minus"][0] - (-1.0)) < 1e-14
    assert abs(curves["sigma_I_plus"][0] - 1.0) < 1e-14
    assert curves["sigma_I_minus"][-1].real < -1.0


def test_stability_flip_across_sigma_i():
    eps = 0.01
    mu_star = -cmath.sqrt(eps) - eps * 0.5
    path = [mu_star + 1j * u * eps for u in np.linspace(-1e-2, 1e-2, 100)]
    vals = stability_sweep(path, eps)
    flips = int(np.sum(np.abs(np.diff(np.sign(vals))) > 0))
    assert flips == 1


def test_multiplier_formula(rng):
    mu, eps = random_generic_point(rng)
    rp = RamifiedPoint.from_values(mu, eps)
    for e in equilibria(rp):
        # numerical derivative of chi at the equilibrium
        h = 1e-6
        num = (chi(e.s + h, mu, eps) - chi(e.s - h, mu, eps)) / (2 * h)
        assert abs(num - e.multiplier) < 1e-6 * max(1.0, abs(e.multiplier))
