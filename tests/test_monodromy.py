import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import model_system, random_gauge, random_system
from resunfold.algebra import CSeriesMat2
from resunfold.monodromy import (
    Contour,
    SingularityTooClose,
    StepUnderflow,
    auto_contour,
    gamma_closed_form,
    gamma_numeric,
    propagate,
)
from resunfold.invariants import extract_formal
from resunfold.system import ParametricSystem, gauge_apply


def linear_system(A0, A1, h0, h1, order=8):
    A0 = np.asarray(A0, dtype=complex)
    A1 = np.asarray(A1, dtype=complex)
    rows = [[[A0[i, j], A1[i, j]] for j in range(2)] for i in range(2)]
    return ParametricSystem(h0, h1, CSeriesMat2.from_rows(rows, order))


def test_zero_field_identity_transport():
    s = linear_system(np.zeros((2, 2)), np.zeros((2, 2)), -1.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 2.0), tol=1e-10).M
    assert np.max(np.abs(M - np.eye(2))) < 1e-9


def test_scalar_residues_cancel():
    # A = c I, h = z^2 - 1: contour integral of dz/h over |z|=2 vanishes
    c = 0.7 - 0.3j
    s = linear_system(c * np.eye(2), np.zeros((2, 2)), -1.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 2.0), tol=1e-10).M
    assert np.max(np.abs(M - np.eye(2))) < 1e-8


def test_diagonal_quadrature_oracle():
    # A = diag(z, -z), h = z^2: A/h = diag(1/z, -1/z), winding number one
    s = linear_system(np.zeros((2, 2)), np.diag([1.0, -1.0]), 0.0, 0.0)
    M = propagate(s, Contour.circle(0.0, 1.0), tol=1e-10).M
    assert np.max(np.abs(M - np.eye(2))) < 1e-8


def test_propagate_rejects_bad_tolerance():
    s = linear_system(np.eye(2), np.zeros((2, 2)), -1.0, 0.0)
    with pytest.raises(ValueError):
        propagate(s, Contour.circle(0.0, 2.0), tol=1e-3)


def test_propagate_rejects_contour_through_singularity():
    s = linear_system(np.eye(2), np.zeros((2, 2)), -1.0, 0.0)
    with pytest.raises(SingularityTooClose):
        propagate(s, Contour.circle(1.0, 1e-4), tol=1e-8)


def test_polyline_through_a_zero_of_h_is_refused_before_any_step(monkeypatch):
    """The zeros of h are +-0.1 and the chord [-1, 1] runs through both: the
    exact clearance is 0, and propagate refuses before it plans a step.
    (A clearance sampled at 512 points per segment read 1.96e-4 here, above
    the threshold 1.585e-4, and the transport failed 600 terms later.)"""
    s = model_system(0.05, 0.01)
    line = Contour.polyline([-1.0, 1.0])
    assert line.min_distance(s.h_roots()) == 0.0
    monkeypatch.setattr(ParametricSystem, "h_at", lambda self, z: pytest.fail("stepped"))
    with pytest.raises(SingularityTooClose, match="clearance 0.000e\\+00"):
        propagate(s, line, tol=1e-9)


def test_degenerate_polyline_is_the_identity():
    """A polyline whose points coincide has no segment: the identity, in 0 steps."""
    tr = propagate(model_system(0.05, 0.01), Contour.polyline([2.0, 2.0]), tol=1e-9)
    assert np.array_equal(tr.M, np.eye(2)) and (tr.steps, tr.terms) == (0, ())
    assert tr.error == tr.trace_error == 0.0


def test_circle_clearance_is_exact():
    """A circle's clearance from p is ||p - c| - R|, for points inside, outside
    and on it; a polyline's is that of its nearest segment."""
    c, R = 0.3 - 0.2j, 0.7
    circle = Contour.circle(c, R)
    rng = np.random.default_rng(5)
    pts = [complex(p) for p in rng.normal(size=20) + 1j * rng.normal(size=20)]
    pts += [c, c + R, c + R * cmath.exp(2.1j)]
    for p in pts:
        assert circle.min_distance([p]) == abs(abs(p - c) - R)
    assert circle.min_distance(pts) == min(abs(abs(p - c) - R) for p in pts)
    square = Contour.polyline([1, 1j, -1, -1j, 1])
    assert square.min_distance([0.0]) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert square.min_distance([2.0, 0.5 + 0.5j]) == 0.0


def test_gamma_closed_form_examples():
    # nilpotent A1 -> D = 0 -> gamma = 2
    assert abs(gamma_closed_form(np.zeros((2, 2)), [[0, 0], [1, 0]]) - 2.0) < 1e-14
    # diagonal A1 = diag(1/2, -1/2) -> D = 1/4 -> gamma = -2
    assert abs(gamma_closed_form(np.zeros((2, 2)), np.diag([0.5, -0.5])) + 2.0) < 1e-12


def test_gamma_closed_form_conjugation_invariance(rng):
    for _ in range(20):
        A0 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        C += 2 * np.eye(2)
        Ci = np.linalg.inv(C)
        g1 = gamma_closed_form(A0, A1)
        g2 = gamma_closed_form(Ci @ A0 @ C, Ci @ A1 @ C)
        assert abs(g1 - g2) < 1e-10 * max(1.0, abs(g1))


def test_gamma_model_is_two():
    res = gamma_numeric(model_system(0.1, 0.01), tol=1e-9)
    assert abs(res.gamma - 2.0) < 1e-8


def test_gamma_cross_method(rng):
    for _ in range(8):
        A0 = 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        A1 = 0.8 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        roots = 0.3 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2))
        s = linear_system(A0, A1, roots[0] * roots[1], -(roots[0] + roots[1]))
        res = gamma_numeric(s, tol=1e-9)
        assert abs(res.gamma - gamma_closed_form(A0, A1)) < 1e-6


def test_gamma_basepoint_and_radius_independence(rng):
    s = model_system(0.1, 0.01)
    base = gamma_numeric(s, tol=1e-9)
    contour = auto_contour(s)
    bigger = Contour.circle(contour.center, contour.radius * 1.17)
    res2 = gamma_numeric(s, tol=1e-9, contour=bigger)
    assert abs(base.gamma - res2.gamma) < 10 * 1e-8
    # different basepoint: start the circle elsewhere via a rotated polyline
    ts = np.linspace(0, 2 * math.pi, 481)
    pts = contour.center + contour.radius * np.exp(1j * (ts + 1.1))
    poly = Contour.polyline(list(pts[:-1]) + [pts[0]])
    res3 = gamma_numeric(s, tol=1e-9, contour=poly)
    assert abs(base.gamma - res3.gamma) < 1e-7
    # est_error is a bound: on stiff random systems (|gamma| up to ~1e17) two
    # contours give gammas no further apart than their two error estimates
    for root_scale in (0.2,) * 5 + (0.02,) * 5:
        s = random_system(rng, coeff_scale=3.0, root_scale=root_scale)
        contour = auto_contour(s)
        a = gamma_numeric(s)
        b = gamma_numeric(s, contour=Contour.circle(contour.center, 1.5 * contour.radius))
        assert abs(a.gamma - b.gamma) <= a.est_error + b.est_error


def test_gamma_gauge_invariance(rng):
    # the truncated gauge series must converge on the contour, so the
    # integration radius is capped by a validity radius
    for _ in range(4):
        s = random_system(rng, coeff_scale=0.3, root_scale=0.12)
        T = random_gauge(rng, scale=0.03)
        g1 = gamma_numeric(s, tol=1e-10, validity_radius=1.0)
        g2 = gamma_numeric(gauge_apply(T, s), tol=1e-10, validity_radius=1.0)
        assert abs(g1.gamma - g2.gamma) < 1e-6


def test_liouville_determinant(rng):
    for _ in range(5):
        s = random_system(rng, coeff_scale=0.4, root_scale=0.2)
        contour = auto_contour(s)
        M = propagate(s, contour, tol=1e-10).M
        # det M = exp(contour integral of tr A / h) = exp(4 pi i lambda1)
        lam1 = extract_formal(s).lambda1
        assert abs(np.linalg.det(M) - cmath.exp(4j * math.pi * lam1)) < 1e-8

    # traceless reduced systems have det M == 1
    s = model_system(0.1, 0.01)
    M = propagate(s, auto_contour(s), tol=1e-10).M
    assert abs(np.linalg.det(M) - 1.0) < 1e-8


def test_transport_error_bounds_exact_transport():
    # A = diag(z, -z), h = z^2 around |z| = 1: M = I exactly
    s = linear_system(np.zeros((2, 2)), np.diag([1.0, -1.0]), 0.0, 0.0)
    tr = propagate(s, Contour.circle(0.0, 1.0), tol=1e-10)
    assert np.abs(tr.M - np.eye(2)).sum(axis=1).max() <= tr.error
    assert abs(np.trace(tr.M) - 2.0) <= tr.trace_error
    assert tr.error < 1e-12


def test_est_error_bounds_closed_forms():
    """est_error bounds the gap to the closed form on the criterion-1
    corpus and the criterion-3 q- and b-forms, and stays below 1e-9."""
    from test_acceptance import small_invariants
    from resunfold.normal_forms import build_b_form, build_q_form, gamma_of_b, gamma_of_q

    cases = []
    rng = np.random.default_rng(101)
    for _ in range(50):
        A0 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        A1 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
        roots = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
        s = linear_system(A0, A1, roots[0] * roots[1], -(roots[0] + roots[1]))
        cases.append((s, gamma_closed_form(A0, A1)))
    rng = np.random.default_rng(103)
    for q in (-0.25, 0.0, -3.0 / 16.0, 0.75):
        for _ in range(5):
            cases.append((build_q_form(small_invariants(rng), q), gamma_of_q(q)))
    for _ in range(5):
        F = small_invariants(rng)
        b = 0.25 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        cases.append((build_b_form(F, b), gamma_of_b(F, b)))
    for s, exact in cases:
        res = gamma_numeric(s, tol=1e-9)
        assert abs(res.gamma - exact) <= res.est_error < 1e-9


def test_gamma_mpmath_oracle():
    """A degree-4 K=24 system with no closed form against mpmath.odefun."""
    mpmath = pytest.importorskip("mpmath")
    s = random_system(np.random.default_rng(7))
    res = gamma_numeric(s, tol=1e-9)
    contour = auto_contour(s)
    # the trimmed polynomial A: random_system draws degree 4 into K = 24
    coef = [[[mpmath.mpc(c) for c in s.A.coeffs[4::-1, i, j]] for j in range(2)]
            for i in range(2)]
    assert not np.any(s.A.coeffs[5:])
    c, R = mpmath.mpc(contour.center), mpmath.mpf(contour.radius)
    h0, h1 = mpmath.mpc(s.h0), mpmath.mpc(s.h1)

    def rhs(t, y):
        e = mpmath.expj(t)
        z = c + R * e
        w = 1j * R * e / ((z + h1) * z + h0)
        a, b, cc, d = (mpmath.polyval(coef[i][j], z) * w for i in range(2) for j in range(2))
        return [a * y[0] + b * y[2], a * y[1] + b * y[3],
                cc * y[0] + d * y[2], cc * y[1] + d * y[3]]

    with mpmath.workdps(15):
        y = mpmath.odefun(rhs, 0, [1, 0, 0, 1], tol=mpmath.mpf(1e-12), degree=24)(2 * mpmath.pi)
        lam1 = mpmath.mpc(extract_formal(s).lambda1)
        oracle = complex(mpmath.exp(-2j * mpmath.pi * lam1) * (y[0] + y[3]))
    assert abs(res.gamma - oracle) < 1e-10


def test_result_reports_steps_and_det_defect():
    s = model_system(0.1, 0.01)
    res = gamma_numeric(s, tol=1e-9)
    lam1 = extract_formal(s).lambda1
    assert res.det_defect == abs(np.linalg.det(res.M) - cmath.exp(4j * math.pi * lam1))
    assert res.det_defect < 1e-12
    # each step covers at most half the distance to the nearer zero of h
    contour = auto_contour(s)
    assert 4 * math.pi * contour.radius / (contour.radius + 0.1) <= res.steps <= 40
    # a polyline takes at least one step per segment
    ts = np.linspace(0, 2 * math.pi, 97)
    poly = Contour.polyline(list(contour.center + contour.radius * np.exp(1j * ts)))
    assert gamma_numeric(s, tol=1e-9, contour=poly).steps >= 96


def test_step_underflow_on_term_cap(monkeypatch):
    import resunfold.monodromy as monodromy
    monkeypatch.setattr(monodromy, "_MAX_TERMS", 8)
    with pytest.raises(StepUnderflow):
        propagate(model_system(0.1, 0.01), Contour.circle(0.0, 1.0), tol=1e-9)


def test_step_underflow_on_step_cap(monkeypatch):
    import resunfold.monodromy as monodromy
    monkeypatch.setattr(monodromy, "_MAX_STEPS", 5)
    with pytest.raises(StepUnderflow, match="more than 5 Taylor steps"):
        propagate(model_system(0.1, 0.01), Contour.circle(0.0, 1.0), tol=1e-9)


def test_step_underflow_on_overflowing_transport(recwarn):
    """A = diag(200 z^2, -200 z^2) + [[0, 1], [0, 0]], h = z^2 + 0.01: every
    step transport is finite, but their product around the loop leaves the
    double range, and propagate refuses it instead of returning NaN."""
    A = np.zeros((24, 2, 2), dtype=complex)
    A[0, 0, 1] = 1.0
    A[2] = np.diag([200.0, -200.0])
    s = ParametricSystem(0.01, 0.0, CSeriesMat2.from_coeffs(A))
    with pytest.raises(StepUnderflow, match="overflowed"):
        gamma_numeric(s, tol=1e-9)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_propagate_rejects_non_finite_h():
    for h0, h1 in ((float("nan"), 0.0), (-1.0, complex(float("inf"), 0.0))):
        s = linear_system(np.eye(2), np.zeros((2, 2)), h0, h1)
        with pytest.raises(ValueError):
            propagate(s, Contour.circle(0.0, 2.0), tol=1e-9)


def test_steps_shrink_when_local_growth_is_large(monkeypatch):
    import resunfold.monodromy as monodromy
    s = model_system(0.1, 0.01)
    base = gamma_numeric(s, tol=1e-9)
    monkeypatch.setattr(monodromy, "_MAX_LOG_GROWTH", 0.05)
    res = gamma_numeric(s, tol=1e-9)
    assert res.steps > 2 * base.steps
    assert abs(res.gamma - 2.0) <= res.est_error < 1e-9


def test_block_lanes_match_single_lanes(monkeypatch):
    """Each lane of a block gets bitwise the T, bound and term count that it
    gets as a block of one, though the lanes leave the block at different
    convergence checks."""
    import resunfold.monodromy as monodromy
    s = random_system(np.random.default_rng(13))
    run, blocks = monodromy._taylor_steps, []
    monkeypatch.setattr(monodromy, "_taylor_steps", lambda *a: blocks.append(a) or run(*a))
    propagate(s, auto_contour(s), tol=1e-9)
    (B, H0, H1, delta, ra, rb, tail), = blocks
    T, bound, terms = run(B, H0, H1, delta, ra, rb, tail)
    assert len(B) > 8 and len(set(terms.tolist())) > 1
    for j in range(len(B)):
        one = slice(j, j + 1)
        Tj, bj, nj = run(B[one], H0[one], H1[one], delta[one], ra[one], rb[one], tail)
        assert Tj[0].tobytes() == T[j].tobytes()
        assert bj[0].tobytes() == bound[j].tobytes() and nj[0] == terms[j]


def test_block_size_leaves_the_result_unchanged(monkeypatch):
    """The 97-point polyline takes 96 steps, several blocks; with every
    step a block of its own the result is bitwise the same."""
    import resunfold.monodromy as monodromy
    s = model_system(0.1, 0.01)
    contour = auto_contour(s)
    ts = np.linspace(0, 2 * math.pi, 97)
    poly = Contour.polyline(list(contour.center + contour.radius * np.exp(1j * ts)))
    blocked = gamma_numeric(s, tol=1e-9, contour=poly)
    assert blocked.steps > 2 * monodromy._LANES and len(blocked.terms) == blocked.steps
    monkeypatch.setattr(monodromy, "_LANES", 1)
    single = gamma_numeric(s, tol=1e-9, contour=poly)
    assert blocked.M.tobytes() == single.M.tobytes()
    assert repr(blocked.est_error) == repr(single.est_error)
    assert (blocked.steps, blocked.terms) == (single.steps, single.terms)


def test_halving_mid_block_keeps_the_sequential_steps(monkeypatch):
    """With the growth cap at 1.3 the first two steps of the model contour
    pass at half the root distance and the third is halved, inside the
    first block.  The centres, read from the one h(c) per step, are those
    of the sequential step rule written out here."""
    import resunfold.monodromy as monodromy
    from resunfold.algebra import pascal_shift, trim
    monkeypatch.setattr(monodromy, "_MAX_LOG_GROWTH", 1.3)
    s = model_system(0.1, 0.01)
    contour = auto_contour(s)
    roots, stack = s.h_roots(), trim(s.A.coeffs)

    def too_steep(B, r, ra, rb):
        beta = monodromy._norm(B)[None]
        return monodromy._log_growth(beta, np.array([r]), np.array([ra]), np.array([rb]))[0] > 1.3

    expected, halved = [], []
    for z, L in contour.segments():
        t = 0.0
        while t < L:
            c = z(t)
            ra, rb = sorted(abs(c - root) for root in roots)
            B = pascal_shift(stack, c)
            dt = 0.5 * ra
            while too_steep(B, dt, ra, rb):
                dt *= 0.5
            expected.append(c)
            halved.append(dt < 0.5 * ra)
            t = L if dt >= L - t else t + dt
    assert halved[:3] == [False, False, True]
    centres, h_at = [], ParametricSystem.h_at
    monkeypatch.setattr(ParametricSystem, "h_at", lambda self, z: centres.append(z) or h_at(self, z))
    propagate(s, contour, tol=1e-9)
    assert centres == expected


def test_lane_failing_mid_block_raises_did_not_converge(monkeypatch):
    """A term cap that the first step of a contour meets and a later one
    does not: the block raises "did not converge" with the tail bound that
    a block of one reports."""
    import resunfold.monodromy as monodromy
    s = random_system(np.random.default_rng(13))
    terms = gamma_numeric(s, tol=1e-9).terms
    cap = max(terms) - monodromy._BATCH
    assert terms[0] <= cap
    monkeypatch.setattr(monodromy, "_MAX_TERMS", cap)
    with pytest.raises(StepUnderflow, match="did not converge") as blocked:
        propagate(s, auto_contour(s), tol=1e-9)
    monkeypatch.setattr(monodromy, "_LANES", 1)
    with pytest.raises(StepUnderflow) as single:
        propagate(s, auto_contour(s), tol=1e-9)
    assert str(blocked.value) == str(single.value)


def test_step_cap_transport_memory(tmp_path):
    """The base-0.3 transport of the CLI tests fills blocks up to the
    1000-step cap, where it stops; its traced peak stays under 16 MB."""
    from test_cli import decaying_descriptor
    s = ParametricSystem.load(decaying_descriptor(tmp_path / "d.json", 0.3))
    tracemalloc.start()
    try:
        with pytest.raises(StepUnderflow, match="Taylor steps"):
            gamma_numeric(s, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_nan_tail_bound_fails_the_step_at_once(monkeypatch, tmp_path):
    """The base-0.5 transport of the CLI tests has a NaN tail bound by 40
    terms on every step of its first block.  A step fails at its first
    non-finite bound, so with the term cap raised to 3,000 the refusal names
    the overflow and the step's own term count, and comes in milliseconds
    (summing to the cap took 14 s)."""
    import resunfold.monodromy as monodromy
    from test_cli import decaying_descriptor
    s = ParametricSystem.load(decaying_descriptor(tmp_path / "d.json", 0.5))
    monkeypatch.setattr(monodromy, "_MAX_TERMS", 3000)
    started = time.perf_counter()
    with pytest.raises(StepUnderflow) as err:
        propagate(s, auto_contour(s), tol=1e-9)
    assert time.perf_counter() - started < 2.0
    assert str(err.value) == "local series overflowed after 36 terms (tail bound nan)"


def test_refusal_names_the_first_failing_step(monkeypatch, tmp_path):
    """A step whose tail bound turns NaN (the first base-0.5 step, at 36
    terms) leaves its block at once, but the refusal names the first failing
    step in step order: behind a step that meets the term cap with a finite
    bound it waits, and in front of one it is raised."""
    import resunfold.monodromy as monodromy
    from test_cli import decaying_descriptor
    run, blocks = monodromy._taylor_steps, []
    monkeypatch.setattr(monodromy, "_taylor_steps", lambda *a: blocks.append(a) or run(*a))
    good = random_system(np.random.default_rng(13))
    propagate(good, auto_contour(good), tol=1e-9)
    bad = ParametricSystem.load(decaying_descriptor(tmp_path / "d.json", 0.5))
    with pytest.raises(StepUnderflow):
        propagate(bad, auto_contour(bad), tol=1e-9)
    (*g, tail), (*b, _) = blocks[0], blocks[-1]
    K = b[0].shape[1]

    def block(*picks):
        """The picked (arguments, step) lanes as one block, B padded to K terms."""
        B = np.zeros((len(picks), K, 2, 2), dtype=complex)
        for i, (args, j) in enumerate(picks):
            B[i, :args[0].shape[1]] = args[0][j]
        H0, H1, delta, ra, rb = ([args[k][j] for args, j in picks] for k in range(1, 6))
        return B, H0, H1, delta, np.array(ra), np.array(rb), tail

    monkeypatch.setattr(monodromy, "_MAX_TERMS", 52)
    with np.errstate(over="ignore", invalid="ignore"):     # as in propagate
        with pytest.raises(StepUnderflow, match="within 52 terms") as alone:
            run(*block((g, 0)))
        with pytest.raises(StepUnderflow) as behind:
            run(*block((g, 0), (b, 0)))
        with pytest.raises(StepUnderflow, match=r"overflowed after 36 terms \(tail bound nan\)"):
            run(*block((b, 0), (g, 0)))
    assert "nan" not in str(alone.value) and str(behind.value) == str(alone.value)
