"""Command-line front end.

Commands: invariants, equiv, normalform, portrait, kappa, normcheck.
Each writes its files through ``_emit`` once its work has succeeded, then a
manifest echo of its arguments, which alone reproduce the results.

Exit codes: 0 success / Equivalent, 1 NotEquivalent, 2 parse or config
error (including an invalid system descriptor or invariants file, a
numeric option out of range or not finite, a rotation omega = exp(i --omega-arg) outside
the sector |arg omega| < eta, a normcheck r too large for the contraction
inequality, a zero of h outside the unit disc, a contour too close to a
zero of h, a monodromy transport that does not converge, a failed Picard
solve, and gamma-pole saturation in kappa), 3 NonGeneric, 4
Indeterminate, 5 a gamma whose error bound is not small against it, or a
portrait sample whose Newton solve of theta did not converge.
Every refusal is one ``error:`` line on stderr, written by ``main`` from
``EXIT_CODES``.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import replace

import numpy as np

from .geometry import (
    ANNULUS_L,
    DELTA_S,
    ETA,
    REGION_INNER,
    REGION_NAMES,
    REGION_OUTER,
    REGION_OUTER_P,
    DomainConfig,
    RamifiedPoint,
    ThetaStepStalled,
    bifurcation_sets,
    classify_regions,
    count_components,
    equilibria,
    trace_trajectory,
)
from .invariants import (
    FormalInvariants,
    NonGeneric,
    RootOutsideUnitDisc,
    check_unit_disc,
    extract_formal,
)
from .monodromy import SingularityTooClose, StepUnderflow, UnreliableGamma, gamma_numeric
from .normal_forms import (
    DegenerateDenominator,
    build_b_form,
    build_q_form,
    decide_equivalence,
    q_from_gamma,
)
from .normalization import (
    ContractionViolated,
    NoOverlap,
    assemble_F,
    batch_verify,
    diagonalization_residual,
    inner_arc_solutions,
    kappa_formulas,
    p_equation_residual,
)
from .system import BadDescriptor, ParametricSystem
from .algebra import CSeries, pascal_shift

SCHEMA_VERSION = 1
CSV_SCHEMA = "resunfold-csv/1"

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_PARSE = 2
EXIT_NON_GENERIC = 3
EXIT_INDETERMINATE = 4
EXIT_UNRELIABLE = 5

PORTRAIT_DXI = 0.05   # xi spacing of the samples in trajectories.csv


class UsageError(ValueError):
    """A command line, or a file it names, that a command refuses."""


# the package's named errors a command reports with a one-line message;
# any other exception is a bug and propagates
EXIT_CODES = {
    UsageError: EXIT_PARSE,
    NonGeneric: EXIT_NON_GENERIC,
    UnreliableGamma: EXIT_UNRELIABLE,
    ThetaStepStalled: EXIT_UNRELIABLE,
    BadDescriptor: EXIT_PARSE,
    RootOutsideUnitDisc: EXIT_PARSE,
    SingularityTooClose: EXIT_PARSE,
    StepUnderflow: EXIT_PARSE,
    NoOverlap: EXIT_PARSE,
    ContractionViolated: EXIT_PARSE,
    DegenerateDenominator: EXIT_PARSE,
}

# (option, attribute, test) for the numeric options, checked before any work
OPTION_CHECKS = (
    ("--tol", "tol", "must be positive", lambda v: v > 0),
    ("--gamma-tol", "gamma_tol", "must lie in [1e-13, 1e-6]", lambda v: 1e-13 <= v <= 1e-6),
    ("--order", "order", "must be >= 2", lambda v: v >= 2),
    ("--grid", "grid", "must be >= 2", lambda v: v >= 2),
    ("--samples", "samples", "must be >= 1", lambda v: v >= 1),
    ("--seed", "seed", "must be >= 0", lambda v: v >= 0),
    ("--omega-arg", "omega_arg", "must be finite", math.isfinite),
    ("--xi-max", "xi_max", "must be positive and finite", lambda v: 0 < v < math.inf),
    ("--validity-radius", "validity_radius", "must be positive", lambda v: v > 0),
)


def _round_sig(x: float) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.12g}")


def _jsonable(obj):
    """Round floats to 12 significant digits; complex -> [re, im]."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [_round_sig(obj.real), _round_sig(obj.imag)]
    if isinstance(obj, float):
        return _round_sig(obj)
    return obj


def _emit(args, outputs: dict, echo) -> None:
    """Write ``outputs`` into ``--out`` in order, then the manifest listing
    them, then print ``echo`` (text, or a payload as one JSON line).  Each
    file name maps to text, a JSON payload (dict), or a CSV table
    ``(header, rows)``; JSON numbers and float cells get 12 significant
    digits."""
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "argv": args.argv,
        "outputs": list(outputs),
        "tol": getattr(args, "tol", None),
        "gamma_tol": getattr(args, "gamma_tol", None),
        "order": getattr(args, "order", None),
        "seed": getattr(args, "seed", None),
    }
    for name, content in {**outputs, "manifest.json": manifest}.items():
        with open(os.path.join(out, name), "w") as fh:
            if isinstance(content, str):
                fh.write(content)
            elif isinstance(content, dict):
                payload = dict(content)
                payload.setdefault("schema_version", SCHEMA_VERSION)
                json.dump(_jsonable(payload), fh, indent=1)
                fh.write("\n")
            else:
                header, rows = content
                fh.write(f"# schema={CSV_SCHEMA}\n{header}\n")
                line = None  # one %-format per table, typed by its first row
                for row in rows:
                    line = line or ",".join("%.12g" if isinstance(c, float) else "%s"
                                            for c in row) + "\n"
                    fh.write(line % row)
    print(echo if isinstance(echo, str) else json.dumps(_jsonable(echo)))


def _parse_complex(text: str) -> complex:
    """'re' or 're,im' as an argparse type: bad text, or a part that is not
    finite, exits with code 2."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2) or not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"cannot parse complex number from '{text}'")
    return complex(*parts)


def _parse_complex_list(text: str) -> list:
    return [_parse_complex(c) for c in text.split(";")]


def _json_complex(value) -> complex:
    """A JSON number or [re, im] pair."""
    return complex(*value) if isinstance(value, list) else complex(value)


def _flow_domain(args, r: CSeries | None = None):
    """(omega, DomainConfig, sup|s r|) for portrait and normcheck: omega =
    exp(i --omega-arg), the config of --xi-max, and a bound on the sup of
    |s r(s^2 - mu)| over the disc |s| <= DELTA_S (0 without r): with q the
    coefficients of r(x - mu), sum_k |q_k| DELTA_S^(2k+1), exact for a
    monomial.  Raises UsageError unless |arg omega| < ETA and
    ANNULUS_L DELTA_S (1 + 4 sup|s r|) <= 2 cos(ETA), which holds without r."""
    omega = cmath.exp(1j * args.omega_arg)
    if abs(cmath.phase(omega)) >= ETA:
        raise UsageError(f"omega = {omega} must have |arg omega| < eta = {ETA:.6g}")
    sup_sr = 0.0
    if r is not None:
        q = pascal_shift(r.coeffs, -args.mu)
        sup_sr = float(np.sum(np.abs(q) * DELTA_S ** (2 * np.arange(len(q)) + 1)))
    if not ANNULUS_L * DELTA_S * (1.0 + 4.0 * sup_sr) <= 2.0 * math.cos(ETA):
        raise UsageError(f"annulus constants violate the contraction inequality "
                         f"(sup|s r| = {sup_sr:.6g})")
    return omega, DomainConfig(xi_max=args.xi_max), sup_sr


def _load_germ(path) -> ParametricSystem:
    """The system of a descriptor file, with both zeros of h in the unit disc."""
    system = ParametricSystem.load(path)
    check_unit_disc(system)
    return system


# ---------------------------------------------------------------------------
# commands


def cmd_invariants(args) -> int:
    system = _load_germ(args.system)
    F = extract_formal(system)
    F.require_generic()
    res = gamma_numeric(system, F, tol=args.gamma_tol,
                        validity_radius=args.validity_radius)
    res.require_reliable()
    payload = {
        "h": [F.h0, F.h1],
        "lambda": [F.lambda0, F.lambda1],
        "alpha": [F.alpha0, F.alpha1],
        "epsilon": F.epsilon,
        "mu": F.mu,
        "gamma": res.gamma,
        "est_error": res.est_error,
    }
    _emit(args, {"invariants.json": payload}, payload)
    return EXIT_OK


def cmd_equiv(args) -> int:
    sys_a = _load_germ(args.system_a)
    sys_b = _load_germ(args.system_b)
    verdict, report = decide_equivalence(sys_a, sys_b, tol=args.tol,
                                         gamma_tol=args.gamma_tol,
                                         validity_radius=args.validity_radius)
    _emit(args, {"equiv.json": {"verdict": verdict, **report}}, verdict)
    return {"Equivalent": EXIT_OK, "NotEquivalent": EXIT_NOT_EQUIVALENT,
            "Indeterminate": EXIT_INDETERMINATE}[verdict]


def cmd_normalform(args) -> int:
    try:
        with open(args.invariants) as fh:
            data = json.load(fh)
        F = FormalInvariants(*(_json_complex(data[key][i])
                               for key in ("h", "lambda", "alpha") for i in (0, 1)))
        gamma = None
        if args.variant == "q" and args.param is None:
            gamma = _json_complex(data["gamma"])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad invariants file: {exc}") from exc
    if args.variant == "q":
        if gamma is None:
            q = args.param
        else:
            Q = q_from_gamma(gamma, sign=-1)
            q = Q * (Q + 1.0)
        system = build_q_form(F, q, order=args.order)
        param_out = {"q": q}
    else:
        if args.param is None:
            raise UsageError("b-form needs --param")
        b = args.param
        system = build_b_form(F, b, order=args.order)
        param_out = {"b": b}
    # the descriptor keeps its coefficients unrounded
    descriptor = system.to_descriptor()
    descriptor.update(_jsonable(param_out))
    _emit(args, {"normalform.json": json.dumps(descriptor, indent=1)}, param_out)
    return EXIT_OK


def cmd_portrait(args) -> int:
    mu, eps = args.mu, args.eps
    omega, cfg, _ = _flow_domain(args)
    rp = RamifiedPoint.from_values(mu, eps)

    n = args.grid
    pts, labels = classify_regions(rp, omega, cfg, grid=(n, n))

    rng = np.random.default_rng(args.seed)
    # separatrix fan: short offsets around each singular point of the field
    eq_pts = [e.s for e in equilibria(rp)]
    sep_seeds = [s + 1e-3 * phase * max(abs(s), 0.05)
                 for s in eq_pts if abs(s) > 1e-8
                 for phase in (1.0, 1j, -1.0, -1j)]
    seeds = list(sep_seeds)
    while len(seeds) < len(sep_seeds) + args.trajectories:
        z = DELTA_S * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if abs(z) > 0.2 * DELTA_S:
            seeds.append(z)

    sampled = replace(cfg, trace_step=PORTRAIT_DXI)
    records = [trace_trajectory(seed, omega, rp, sampled) for seed in seeds]
    curves = bifurcation_sets(eps, resolution=200)

    outer_mask = (labels == REGION_OUTER) | (labels == REGION_OUTER_P)
    # outer points hugging |s| = DELTA_S signal the outer-region bifurcation
    # (the bounding trajectory is about to leave through the disc boundary)
    grid_step = 2.0 * DELTA_S / max(n - 1, 1)
    boundary_touch = bool(outer_mask.any() and
                          np.any(np.abs(pts[outer_mask]) > DELTA_S - 1.5 * grid_step))
    inner_components = count_components(
        pts, labels, REGION_INNER, n, n, exclude=eq_pts,
        exclude_radius=cfg.parabolic_capture + 2.0 * grid_step)
    summary = {
        "mu": mu, "eps": eps, "omega": omega,
        "label_counts": {REGION_NAMES[k]: int(np.sum(labels == k))
                         for k in REGION_NAMES},
        "inner_components": inner_components,
        "outer_empty": bool(not outer_mask.any()),
        "outer_boundary_touching": bool(boundary_touch),
    }
    _emit(args, {
        "regions.csv": ("re_s,im_s,label",
                        ((p.real, p.imag, REGION_NAMES[int(l)]) for p, l in zip(pts, labels))),
        "trajectories.csv": ("traj,xi,re_s,im_s",
                             ((k, xi, s.real, s.imag) for k, rec in enumerate(records)
                              for xi, s in zip(rec.xi, rec.s))),
        "bifurcations.csv": ("curve,re_mu,im_mu",
                             ((name, m.real, m.imag) for name, arr in curves.items()
                              for m in arr)),
        "summary.json": summary,
    }, summary["label_counts"])
    return EXIT_OK


def cmd_kappa(args) -> int:
    report = batch_verify(args.samples, seed=args.seed)
    # Stirling-limit rows
    rp_i = RamifiedPoint.from_values(0.09, 1e-6)
    kI, _, _ = kappa_formulas(rp_i, 0.1)
    rp_o = RamifiedPoint.from_values(1e-3 * cmath.exp(0.7j), 1e-6)
    _, kO, _ = kappa_formulas(rp_o, 0.03)
    report["stirling"] = {
        "kappa_I_eps_1e-6_minus_1": abs(kI - 1.0),
        "kappa_O_origin_minus_1": abs(kO - 1.0),
    }
    if args.no_rows:
        report.pop("rows")
    _emit(args, {"kappa_report.json": report},
          {k: v["max"] for k, v in report["residuals"].items()})
    if report["pole_fraction"] > 0.10:
        raise UsageError("gamma-pole saturation above 10%")
    return EXIT_OK


def cmd_normcheck(args) -> int:
    mu, eps = args.mu, args.eps
    r = CSeries(args.r_coeffs, args.order) if args.r_coeffs else None
    omega, cfg, sup_sr = _flow_domain(args, r)
    rp = RamifiedPoint.from_values(mu, eps)
    sol_i, sol_j = inner_arc_solutions(rp, omega, cfg, r=r, tol=args.tol)
    asm = assemble_F(sol_i, sol_j, interior=0.1)
    ratios = sol_i.contraction_ratios
    payload = {
        "mu": mu, "eps": eps, "omega": omega, "sup_sr": sup_sr,
        "picard_sweeps": len(sol_i.contraction_history),
        "contraction_ratio_max": float(np.max(ratios)) if len(ratios) else 0.0,
        "sup_p": sol_i.sup_norm(),
        "p_terminal": abs(sol_i.terminal_value()),
        "p_residual": p_equation_residual(sol_i),
        "det_rel_std": asm.det_rel_std,
        "kappa_estimate": asm.kappa_estimate,
        "diag_residual": diagonalization_residual(asm),
    }
    _emit(args, {"normcheck.json": payload},
          {k: payload[k] for k in ("contraction_ratio_max", "det_rel_std", "diag_residual")})
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="resunfold",
                                description=__doc__.strip().splitlines()[0])
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="comparison tolerance for equivalence decisions")
    p.add_argument("--gamma-tol", type=float, default=1e-9, dest="gamma_tol",
                   help="tolerance of the monodromy transport's Taylor series")
    p.add_argument("--order", type=int, default=24, help="series truncation order")
    p.add_argument("--seed", type=int, default=0)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("invariants", help="formal + analytic invariants of a system")
    q.add_argument("system")
    q.add_argument("--validity-radius", type=float, default=math.inf)
    q.set_defaults(func=cmd_invariants)

    q = sub.add_parser("equiv", help="decide analytic equivalence of two systems")
    q.add_argument("system_a")
    q.add_argument("system_b")
    q.add_argument("--validity-radius", type=float, default=math.inf)
    q.set_defaults(func=cmd_equiv)

    q = sub.add_parser("normalform", help="build a q- or b-form from invariants")
    q.add_argument("invariants")
    q.add_argument("--variant", choices=["q", "b"], default="q")
    q.add_argument("--param", type=_parse_complex, default=None,
                   help="q or b value as 're,im' (q defaults to the closed form in gamma)")
    q.set_defaults(func=cmd_normalform)

    # the parameter point, rotation and xi budget of the flow commands, which
    # take no abbreviations: --omega is refused, not read as --omega-arg
    flow = argparse.ArgumentParser(add_help=False)
    flow.add_argument("--mu", type=_parse_complex, required=True)
    flow.add_argument("--eps", type=_parse_complex, required=True)
    flow.add_argument("--omega-arg", type=float, default=0.0, dest="omega_arg")
    flow.add_argument("--xi-max", type=float, default=DomainConfig.xi_max, dest="xi_max")

    q = sub.add_parser("portrait", parents=[flow], allow_abbrev=False,
                       help="trajectories, regions and bifurcation CSVs")
    q.add_argument("--grid", type=int, default=41)
    q.add_argument("--trajectories", type=int, default=8)
    q.set_defaults(func=cmd_portrait)

    q = sub.add_parser("kappa", help="connection-coefficient identity residuals")
    q.add_argument("--samples", type=int, default=100)
    q.add_argument("--no-rows", action="store_true", dest="no_rows",
                   help="omit the per-sample residual rows from the report")
    q.set_defaults(func=cmd_kappa)

    q = sub.add_parser("normcheck", parents=[flow], allow_abbrev=False,
                       help="Picard solve + diagonalizer assembly")
    q.add_argument("--r-coeffs", type=_parse_complex_list, default=None, dest="r_coeffs",
                   help="semicolon-separated complex coefficients of r")
    q.set_defaults(func=cmd_normcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    try:
        for option, attr, rule, ok in OPTION_CHECKS:
            value = getattr(args, attr, None)
            if value is not None and not ok(value):
                raise UsageError(f"{option} {rule}, got {value}")
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
