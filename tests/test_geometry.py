import cmath
import math

import numpy as np
import pytest

from resunfold.algebra import BranchedLog
from resunfold.geometry import (
    CAPTURE_RADIUS,
    CLASSIFY_STEP,
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
    stability_sweep,
    theta,
    theta_deriv,
    trace_trajectory,
    xi_theta_residuals,
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
    # rho turns both parameter sheets by a full turn
    assert abs(rho.eps.arg - rp.eps.arg - 2 * math.pi) < 1e-14


# ---------------------------------------------------------------------------
# theta


def test_theta_simplest_case():
    assert abs(theta(1.0, 0.0, 0.0) + 2.0) < 1e-15
    assert abs(theta(2j, 0.0, 0.0) - (-2.0 / 2j)) < 1e-15


def test_theta_oddness(rng):
    for _ in range(40):
        mu, eps = random_generic_point(rng)
        rp = RamifiedPoint.from_values(mu, eps)
        s = 0.4 * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        try:
            t1 = theta(s, mu, eps, rp)
            t2 = theta(-s, mu, eps, rp)
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
            fd = (theta(s + h, mu, eps, rp) - theta(s - h, mu, eps, rp)) / (2 * h)
        except OnCut:
            continue
        checked += 1
        ref = theta_deriv(s, mu, eps)
        assert abs(fd - ref) < 1e-6 * max(1.0, abs(ref))


def test_theta_on_cut_raises():
    rp = RamifiedPoint.from_values(0.09, 0.0)
    with pytest.raises(OnCut):
        theta(0.15, 0.09, 0.0, rp)  # on the segment [0, 0.3]


def test_theta_degenerate_limits():
    mu = 0.07 + 0.02j
    s = 0.31 + 0.12j
    lim = theta(s, mu, 1e-10, RamifiedPoint.from_values(mu, 1e-10))
    assert abs(lim - theta(s, mu, 0.0)) < 1e-4
    eps = mu * mu * (1 + 1e-8)
    lim2 = theta(s, mu, eps, RamifiedPoint.from_values(mu, eps))
    assert abs(lim2 - theta(s, mu, mu * mu)) < 1e-4


def test_theta_parameter_periodicity(rng):
    """theta is unchanged when mu or eps gains a full turn of argument,
    as long as the same root branch data is supplied."""
    mu, eps = random_generic_point(rng)
    rp = RamifiedPoint.from_values(mu, eps)
    s = 0.42
    base = theta(s, mu, eps, rp)
    turned = theta(s, BranchedLog.from_complex(mu, 1).project(),
                   BranchedLog.from_complex(eps, 1).project(), rp)
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
    cfg = DomainConfig(delta_s=2.0, trace_step=0.01, xi_max=50.0)
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
    for s0, omega, direction in ((0.3j, 1.0, 1), (0.2 - 0.35j, cmath.exp(0.3j), -1)):
        rec = trace_trajectory(s0, omega, rp, cfg, direction=direction)
        assert len(rec.s) > 2000
        s, rk4 = complex(s0), [complex(s0)]
        for _ in range(2000):
            s = _rk4_step(s, direction * omega, 0.0, 0.0, cfg.trace_step)
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
    rec = trace_trajectory(0.3j, 1.0, rp, cfg, xi_max=450.0)
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
    clear = np.flatnonzero(np.abs(np.abs(side) - 1.0 / cfg.delta_s) > 0.2)
    for k in clear[::20]:
        ends = [trace_trajectory(pts[k], omega, rp, cfg, direction=d, xi_max=600.0).terminal
                for d in (1, -1)]
        assert (ends == ["converged", "converged"]) == (lab[k] != 0)


def test_rk4_step_and_annulus_agree_on_scalars_and_arrays():
    """trace_trajectory steps one complex, the region flow an ndarray of
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
    cfg = DomainConfig()
    xs = np.linspace(-0.6, 0.6, 61)
    pts = (xs[None, :] + 1j * xs[:, None]).ravel()
    inside = _in_annulus(pts, mu, eps, cfg)
    assert 0 < inside.sum() < len(pts)
    s2 = pts * pts
    num, quartic = np.abs((s2 - mu) ** 2 - eps), cfg.L * np.abs(s2 * s2)
    clear = ((np.abs(np.abs(pts) - cfg.delta_s) > 1e-12)
             & (np.abs(num - quartic) > 1e-12 * quartic))
    scalar = np.array([bool(_in_annulus(complex(p), mu, eps, cfg)) for p in pts])
    assert clear.sum() > 0.99 * len(pts)
    assert np.array_equal(inside[clear], scalar[clear])
    assert not _in_annulus(complex("nan+nanj"), mu, eps, cfg)


def test_trajectory_equilibrium_is_fixed():
    rp = RamifiedPoint.from_values(0.05, 0.0016)
    cfg = DomainConfig()
    rec = trace_trajectory(rp.s2, 1.0, rp, cfg, xi_max=5.0)
    assert np.max(np.abs(rec.s - rp.s2)) < 1e-12


def test_trajectory_convergence_tag():
    rp = RamifiedPoint.from_values(0.05, 0.0016)
    rec = trace_trajectory(0.2, 1.0, rp, DomainConfig())
    assert rec.terminal == "converged"
    assert abs(rec.target - rp.s2) < 1e-12
    assert abs(rec.s[-1] - rp.s2) < 1e-8


def test_xi_theta_duality():
    """omega * dxi == 2 dtheta along trajectories, at quadrature accuracy."""
    rp = RamifiedPoint.from_values(0.06, 0.001)
    for s0 in (0.25 + 0.08j, 0.2 - 0.1j):
        rec = trace_trajectory(s0, cmath.exp(0.2j), rp, DomainConfig(trace_step=0.01))
        res = xi_theta_residuals(rec)
        good = res[~np.isnan(res)]
        assert len(good) > 50
        assert float(np.max(good)) < 1e-6


def test_xi_theta_duality_imaginary_axis_seed():
    """Real eps > 0, mu = 0: centers surround the zeros; a trajectory
    seeded on the imaginary axis still satisfies the duality until it
    converges, exits, or times out."""
    rp = RamifiedPoint.from_values(0.0, 0.001)
    rec = trace_trajectory(0.3j, 1.0, rp, DomainConfig(trace_step=0.01),
                           xi_max=60.0)
    assert rec.terminal in ("converged", "left-annulus", "max-length")
    res = xi_theta_residuals(rec)
    good = res[~np.isnan(res)]
    assert len(good) > 20
    assert float(np.max(good)) < 1e-6


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


def _old_rule_endpoints(points, w, rp, cfg):
    """The region flow with only the fixed capture discs (1e3 CAPTURE_RADIUS
    around hyperbolic attractors, parabolic_capture around parabolic ones)
    over the full xi budget.  Also returns, per lane, the attractor of the
    first certified disc or petal it entered (NaN if none) and whether that
    entry came before the fixed-disc capture."""
    mu, eps = rp.mu_value, rp.eps_value
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
    for _ in range(int(cfg.xi_limit / CLASSIFY_STEP) + 1):
        idx = np.flatnonzero(active)
        v = s[idx] = _rk4_step(s[idx], w, mu, eps, CLASSIFY_STEP)
        in_disc = np.abs(v[:, None] - centres[None, :]) < radii[None, :]
        fresh = np.isnan(certified[idx]) & in_disc.any(axis=1)
        certified[idx[fresh]] = ends[np.argmax(in_disc[fresh], axis=1)]
        hit = np.abs(v[:, None] - pos[None, :]) < cap[None, :]
        got = hit.any(axis=1)
        early[idx[fresh & ~got]] = True
        end[idx[got]] = pos[np.argmax(hit[got], axis=1)]
        active[idx[got | ~_in_annulus(v, mu, eps, cfg)]] = False
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
            assert np.all(_in_annulus(rim, mu, eps, cfg))
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
    xs = np.linspace(-cfg.delta_s, cfg.delta_s, n)
    pts = (xs[None, :] + 1j * xs[:, None]).ravel()
    pts = pts[_in_annulus(pts, mu, eps, cfg)]
    retired_early = 0
    for w in (omega, -omega):
        end, certified, early = _old_rule_endpoints(pts, w, rp, cfg)
        done = ~np.isnan(certified)
        assert np.array_equal(end[done], certified[done])
        assert np.array_equal(_flow_endpoints(pts, w, mu, eps, cfg, equilibria(rp)), end,
                              equal_nan=True)
        retired_early += int(early.sum())
    assert retired_early > 0.2 * len(pts)


def test_classify_work_on_golden_point(monkeypatch):
    """Certified captures retire the golden portrait's 21^2 lanes within 1,500
    array RK4 steps over both directions (2 x 2,375 with fixed discs only)."""
    from resunfold import geometry
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
