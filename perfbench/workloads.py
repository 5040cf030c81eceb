"""Seeded inputs and ops of the two workloads.

``build(name, seed, out_root)`` draws every input from ``seed`` alone and
returns a pool of ops in a fixed round structure; the timed phase cycles
through the pool, so the same seed gives the same ops in the same order.
Each op calls the package's public functions (looked up on the module at
call time, so traced wrappers apply) and carries the oracle check that
gates its output.

Generators follow the acceptance suite: criterion 1 (linear K=8 systems),
criterion 3 (q- and b-forms), criterion 2 / tests/conftest.py (random
degree-4 K=24 systems and degree-3 gauges), criterion 10 (equivalence
pairs on the model), criteria 6-9 (portrait and connection points).
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracles

WORKLOADS = ("gamma-corpus", "cli-sweep")


@dataclass
class Check:
    ok: bool
    detail: str = ""
    accuracy: dict = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    label: str                      # enough to reproduce the input
    run: Callable[[], object]
    check: Callable[[object], Check]
    out_dir: str | None = None      # CLI ops: where the command writes
    tags: dict = field(default_factory=dict)


@dataclass
class Workload:
    ops: list
    round_len: int                  # one round holds every op kind in its share
    warmup: Op


def _c(z: complex) -> str:
    """Exact 're,im' text for the CLI's complex parser."""
    z = complex(z)
    return f"{z.real!r},{z.imag!r}"


def _unit_complex(rng) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


# ---------------------------------------------------------------------------
# gamma-corpus


ROOT_SPREADS = (1e-1, 1e-2, 1e-3, 1e-4)   # half-distance of the two zeros of h
CRIT3_Q = (-0.25, 0.0, -3.0 / 16.0, 0.75)
MODEL_MU, MODEL_EPS = 0.05, 0.01
GAMMA_TOL_NUMERIC = 1e-9
EQUIV_GAMMA_TOL = 1e-8


def _series(R, rng, scale, degree, order=24):
    c = scale * (rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return R.CSeries(c, order)


def _random_system(R, rng, spread):
    """Degree-4 K=24 system, zeros of h at c +- spread e^{i phi}, |c| < 0.07."""
    A = R.CSeriesMat2(*(_series(R, rng, 0.25, 4) for _ in range(4)))
    c = 0.05 * _unit_complex(rng)
    d = spread * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return R.ParametricSystem((c + d) * (c - d), -2.0 * c, A)


def _random_gauge(R, rng, scale=0.03, degree=3, order=24):
    one = R.CSeries.one(order)
    rows = [[one + _series(R, rng, scale, degree), _series(R, rng, scale, degree)],
            [_series(R, rng, scale, degree), one + _series(R, rng, scale, degree)]]
    return R.GaugeTransform.from_rows(rows, order)


def _model(R, mu, eps, order=24):
    """(x^2 - eps) d/dx - [[0, 1], [mu + x, 0]]."""
    A = R.CSeriesMat2(R.CSeries.zero(order), R.CSeries.one(order),
                      R.CSeries([mu, 1.0], order), R.CSeries.zero(order))
    return R.ParametricSystem(-eps, 0.0, A)


def _small_invariants(R, rng):
    return R.FormalInvariants(0.02 * _unit_complex(rng), 0.05 * _unit_complex(rng),
                              0.05 * _unit_complex(rng), 0.05 * _unit_complex(rng),
                              0.02 * _unit_complex(rng), 1.0 + 0.2 * _unit_complex(rng))


def _invariants(R, system, prenormal, validity_radius=math.inf):
    """The invariant data of one system: (h, lambda, alpha), (eps, mu), gamma."""
    F = R.extract_formal(system)
    params, reduced = R.reduce(system, F)
    if prenormal:
        R.prenormalize(reduced)
    res = R.gamma_numeric(system, F, tol=GAMMA_TOL_NUMERIC, validity_radius=validity_radius)
    return F, params, res


def _formal(F):
    return np.array([F.h0, F.h1, F.lambda0, F.lambda1, F.alpha0, F.alpha1], dtype=complex)


def _gamma_check(got: complex, want: complex) -> Check:
    err = abs(got - want)
    return Check(err < oracles.GAMMA_TOL, f"|gamma - oracle| = {err:.3e}",
                 {"gamma_err_max": err})


def _unit_complex_matrix(rng):
    return rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))


def _linear_op(R, rng):
    A0 = _unit_complex_matrix(rng)
    A1 = _unit_complex_matrix(rng)
    roots = 0.5 * (rng.uniform(-1, 1, 2) + 1j * rng.uniform(-1, 1, 2)) / math.sqrt(2)
    rows = [[[A0[i, j], A1[i, j]] for j in range(2)] for i in range(2)]
    system = R.ParametricSystem(roots[0] * roots[1], -(roots[0] + roots[1]),
                                R.CSeriesMat2.from_rows(rows, 8))
    want = oracles.gamma_linear(A1)
    return Op("linear", f"linear K=8 A1={A1.tolist()} roots={roots.tolist()}",
              lambda: _invariants(R, system, prenormal=False),
              lambda out: _gamma_check(out[2].gamma, want))


def _qform_op(R, rng, q):
    F = _small_invariants(R, rng)
    system = R.build_q_form(F, q)
    return Op("qform", f"q-form q={q} F={_formal(F).tolist()}",
              lambda: _invariants(R, system, prenormal=True),
              lambda out: _gamma_check(out[2].gamma, oracles.gamma_q(q)))


def _bform_op(R, rng):
    while True:
        F = _small_invariants(R, rng)
        b = 0.25 * _unit_complex(rng)
        want = oracles.gamma_b(F.h0, F.h1, F.alpha0, F.alpha1, b)
        if abs(want + 2.0) >= 1e-3:   # criterion 3 skips gamma near -2
            break
    system = R.build_b_form(F, b)
    return Op("bform", f"b-form b={b} F={_formal(F).tolist()}",
              lambda: _invariants(R, system, prenormal=True),
              lambda out: _gamma_check(out[2].gamma, want))


def _gauge_pair_op(R, rng, spread):
    system = _random_system(R, rng, spread)
    image = R.gauge_apply(_random_gauge(R, rng), system)

    def run():
        return (_invariants(R, system, prenormal=False, validity_radius=1.0),
                _invariants(R, image, prenormal=False, validity_radius=1.0))

    def check(out):
        (Fa, _, ga), (Fb, _, gb) = out
        formal = float(np.max(np.abs(_formal(Fa) - _formal(Fb))))
        err = abs(ga.gamma - gb.gamma)
        return Check(formal < oracles.FORMAL_TOL and err < oracles.GAMMA_TOL,
                     f"formal gap {formal:.3e}, gamma gap {err:.3e}",
                     {"gamma_err_max": err})
    return Op("gauge_pair", f"K=24 degree-4 system + gauge image, root spread {spread:g}",
              run, check)


def _verdict_check(expect: str, early: bool = False, oracle_gammas=None):
    def check(out):
        verdict, report = out
        ok = verdict == expect
        detail = f"verdict {verdict}, expected {expect}"
        acc = {}
        if early:
            ok &= "gamma_a" not in report
            detail += ", early exit" if "gamma_a" not in report else ", gamma computed"
        if oracle_gammas is not None:
            if "gamma_a" not in report:
                return Check(False, detail + ", no gamma computed")
            err = max(abs(complex(report["gamma_a"]) - oracle_gammas[0]),
                      abs(complex(report["gamma_b"]) - oracle_gammas[1]))
            ok &= err < oracles.GAMMA_TOL
            detail += f", |gamma - oracle| = {err:.3e}"
            acc["gamma_err_max"] = err
        return Check(ok, detail, acc)
    return check


def _equiv_ops(R, rng):
    """Criterion-10 pairs: a gauge pair, a gamma-shifted q pair, a formal mismatch."""
    model = _model(R, MODEL_MU, MODEL_EPS)
    F = R.FormalInvariants(-MODEL_EPS, 0.0, 0.0, 0.0, MODEL_MU, 1.0)

    def decide(a, b):
        return lambda: R.decide_equivalence(a, b, gamma_tol=EQUIV_GAMMA_TOL)

    gauge = R.gauge_apply(_random_gauge(R, rng), model)
    q = 0.3 * _unit_complex(rng)
    q2 = oracles.q_for_gamma(oracles.gamma_q(q) + 1e-3, q)
    qa, qb = R.build_q_form(F, q), R.build_q_form(F, q2)
    shift = 1e-3 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    other = _model(R, MODEL_MU + shift, MODEL_EPS)
    return [
        Op("equiv_gauge", "model(0.05, 0.01) vs a degree-3 gauge image",
           decide(model, gauge), _verdict_check("Equivalent")),
        Op("equiv_q", f"q-forms q={q} vs q={q2} (gamma + 1e-3)",
           decide(qa, qb), _verdict_check("NotEquivalent",
                                          oracle_gammas=(oracles.gamma_q(q),
                                                         oracles.gamma_q(q2)))),
        Op("equiv_formal", f"gauge image of model vs model with mu + {shift}",
           decide(R.gauge_apply(_random_gauge(R, rng), model), other),
           _verdict_check("NotEquivalent", early=True)),
    ]


def gamma_corpus(R, seed: int, out_root: str, rounds: int = 6) -> Workload:
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k in range(rounds):
        eq1, eq2 = _equiv_ops(R, rng), _equiv_ops(R, rng)
        ops += [_linear_op(R, rng), _linear_op(R, rng),
                _qform_op(R, rng, CRIT3_Q[k % len(CRIT3_Q)]), _bform_op(R, rng)]
        ops += [_gauge_pair_op(R, rng, ROOT_SPREADS[(k + j) % len(ROOT_SPREADS)])
                for j in range(4)]
        ops += [eq1[0], eq2[0], eq1[1], eq2[1], eq1[2]]
    return Workload(ops, 13, ops[0])


# ---------------------------------------------------------------------------
# portrait ops (cli-sweep)


def _portrait_op(R, cli_seed, out_dir, case, mu, eps, omega_arg, grid, expect=None):
    argv = ["--out", out_dir, "--seed", str(cli_seed), "portrait",
            f"--mu={_c(mu)}", f"--eps={_c(eps)}", f"--omega-arg={omega_arg!r}",
            "--grid", str(grid)]
    omega = cmath.exp(1j * omega_arg)

    def check(rc):
        if rc != 0:
            return Check(False, f"exit code {rc}")
        data = np.loadtxt(os.path.join(out_dir, "trajectories.csv"), delimiter=",",
                          skiprows=2, ndmin=2)
        worst, ratio, steps, crossed = oracles.theta_identity(
            data[:, 0].astype(int), data[:, 1], data[:, 2] + 1j * data[:, 3],
            omega, mu, eps)
        ok = steps > 0 and ratio <= 1.0 and crossed <= 0.05 * steps
        detail = (f"theta residual {worst:.3e} ({ratio:.2f} of allowed), "
                  f"{steps} steps, {crossed} across cuts")
        with open(os.path.join(out_dir, "summary.json")) as fh:
            summary = json.load(fh)
        if expect == "no-inner":
            inner = summary["label_counts"]["R_I"] + summary["label_counts"]["R_I_P"]
            ok &= inner == 0
            detail += f", inner points {inner} (want 0)"
        elif expect == "two-inner":
            ok &= summary["inner_components"] == 2
            detail += f", inner components {summary['inner_components']} (want 2)"
        else:
            detail += f", inner components {summary['inner_components']}"
        return Check(ok, detail, {"theta_residual_max": worst})

    return Op(f"portrait {case}", f"mu={mu} eps={eps} arg(omega)={omega_arg} grid={grid}",
              lambda: R.cli.main(argv), check, out_dir, {"grid": grid})


def _portrait_round(R, rng, k: int, out_root: str) -> list:
    """The six portrait slots of round ``k``: every theta case, grids 21^2 to 81^2.

    The criterion-9 facts are gated where criterion 9 states them: no
    inner region on mu^2 = eps, and two inner components at its point
    mu = 0.04, eps = 0, omega = 1 on 61^2.  The CLI's component count is
    not stable off that point (4 at mu = 0.0407 on 61^2, 3 with arg omega
    = 0.3 on 41^2), so elsewhere it is reported, not gated.

    The cost of a portrait op swings with its random trajectories and its
    rotation, so each slot keeps a fixed rotation and trajectory seed
    (the CLI's --seed) and the workload seed moves the point by 3 % and
    the rotation by 0.02: enough to change every input, little enough to
    keep the runs of different seeds comparable.
    """
    def jitter():
        return rng.uniform(0.97, 1.03)

    def rotation(base):
        return base + rng.uniform(-0.02, 0.02)

    d = [os.path.join(out_root, f"p{k}-{j}") for j in range(6)]
    cli_seed = [100 * k + j for j in range(6)]
    mu_r = 0.1 * jitter() * cmath.exp(1j * rotation(0.1))
    return [
        _portrait_op(R, cli_seed[0], d[0], "ramified mu^2=eps", mu_r, mu_r * mu_r,
                     rotation(0.25), 21, "no-inner"),
        _portrait_op(R, cli_seed[1], d[1], "generic real", 0.09 * jitter(),
                     0.0049 * jitter(), rotation(-0.2), 41),
        _portrait_op(R, cli_seed[2], d[2], "eps=0, omega=1", 0.04, 0.0, 0.0, 61,
                     "two-inner"),
        _portrait_op(R, cli_seed[3], d[3], "mu=eps=0", 0.0, 0.0, rotation(0.15), 31),
        _portrait_op(R, cli_seed[4], d[4], "eps=0, rotated omega",
                     (0.03 - 0.02j) * jitter(), 0.0, rotation(0.3), 41),
        _portrait_op(R, cli_seed[5], d[5], "generic complex", (0.05 + 0.02j) * jitter(),
                     (0.0016 + 0.0005j) * jitter(), rotation(-0.3), 81),
    ]


# ---------------------------------------------------------------------------
# connection ops (cli-sweep)


CRIT6_R = "0.1;0.05;0,-0.02"   # r = 0.1 + 0.05 x - 0.02i x^2
KAPPA_SAMPLES = 100


def _normcheck_op(R, rng, out_dir, with_r):
    """A point of the inner-arc regime of criteria 6-7 (omega = 1).

    |mu| in [0.055, 0.075], |arg mu| <= 0.15, |eps| in [0.001, 0.0016],
    |arg eps| <= 0.06: the box around (0.05, 0.0016) where s1 and s2 are
    joined by a trajectory of chi.
    """
    mu = rng.uniform(0.055, 0.075) * cmath.exp(1j * rng.uniform(-0.15, 0.15))
    eps = rng.uniform(0.001, 0.0016) * cmath.exp(1j * rng.uniform(-0.06, 0.06))
    argv = ["--out", out_dir, "normcheck", f"--mu={_c(mu)}", f"--eps={_c(eps)}"]
    if with_r:
        argv.append(f"--r-coeffs={CRIT6_R}")

    def check(rc):
        if rc != 0:
            return Check(False, f"exit code {rc}")
        with open(os.path.join(out_dir, "normcheck.json")) as fh:
            rep = json.load(fh)
        ok = (rep["det_rel_std"] < oracles.DET_STD_TOL
              and rep["diag_residual"] < oracles.DIAG_RESIDUAL_TOL
              and rep["contraction_ratio_max"] <= oracles.CONTRACTION_MAX)
        return Check(ok, f"det std {rep['det_rel_std']:.3e}, diag residual "
                         f"{rep['diag_residual']:.3e}, ratio {rep['contraction_ratio_max']:.3f}",
                     {"det_rel_std_max": rep["det_rel_std"]})

    kind = "normcheck_r" if with_r else "normcheck"
    return Op(kind, f"normcheck mu={mu} eps={eps} r={'crit6' if with_r else 'none'}",
              lambda: R.cli.main(argv), check, out_dir)


def _kappa_op(R, rng, out_dir):
    cli_seed = int(rng.integers(2 ** 31))
    argv = ["--out", out_dir, "--seed", str(cli_seed), "kappa",
            "--samples", str(KAPPA_SAMPLES), "--no-rows"]

    def check(rc):
        if rc != 0:
            return Check(False, f"exit code {rc}")
        with open(os.path.join(out_dir, "kappa_report.json")) as fh:
            rep = json.load(fh)
        worst = max(v["max"] for v in rep["residuals"].values())
        st = rep["stirling"]
        ok = (rep["samples"] == KAPPA_SAMPLES and worst < oracles.KAPPA_RESIDUAL_TOL
              and st["kappa_I_eps_1e-6_minus_1"] < oracles.STIRLING_I_TOL
              and st["kappa_O_origin_minus_1"] < oracles.STIRLING_O_TOL)
        return Check(ok, f"worst residual {worst:.3e}, samples {rep['samples']}, "
                         f"stirling {st['kappa_I_eps_1e-6_minus_1']:.2e}/"
                         f"{st['kappa_O_origin_minus_1']:.2e}",
                     {"kappa_residual_max": worst})

    return Op("kappa", f"kappa --seed {cli_seed} --samples {KAPPA_SAMPLES}",
              lambda: R.cli.main(argv), check, out_dir)


def _connection_round(R, rng, k: int, out_root: str):
    """Eight normchecks (two with the criterion-6 r) and six kappa batches."""
    d = [os.path.join(out_root, f"c{k}-{j}") for j in range(14)]
    normchecks = [_normcheck_op(R, rng, d[j], with_r=j in (2, 6)) for j in range(8)]
    kappas = [_kappa_op(R, rng, d[8 + j]) for j in range(6)]
    return normchecks, kappas


# ---------------------------------------------------------------------------
# cli-sweep: the portrait and connection ops, one CLI call each


def cli_sweep(R, seed: int, out_root: str, rounds: int = 4) -> Workload:
    """Twenty ops a round: six portraits, eight normchecks, six kappa batches.

    A portrait op (0.4-3.5 s) is slower than a normcheck (~0.3 s), which
    is slower than a kappa batch (~0.2 s).  With as many kappa batches as
    portraits, the median op falls in the middle of the normchecks, not
    on the edge between two kinds.  Each portrait is followed by its
    share of the connection ops, so every kind is spread over the round.
    """
    rng_p = np.random.default_rng([seed, 2])
    rng_c = np.random.default_rng([seed, 3])
    ops = []
    for k in range(rounds):
        p = _portrait_round(R, rng_p, k, out_root)
        n, q = _connection_round(R, rng_c, k, out_root)
        ops += [p[0], n[0], q[0], n[1], p[1], n[2], q[1], p[2], n[3], q[2], n[4],
                p[3], q[3], n[5], p[4], q[4], n[6], p[5], q[5], n[7]]
    return Workload(ops, 20, ops[0])


def build(R, name: str, seed: int, out_root: str) -> Workload:
    return {"gamma-corpus": gamma_corpus, "cli-sweep": cli_sweep}[name](R, seed, out_root)
