"""Command-line front end.

Commands: invariants, equiv, normalform, portrait, kappa, normcheck.
Every run writes a manifest echo next to its outputs so results are
reproducible from the recorded arguments alone.

Exit codes: 0 success / Equivalent, 1 NotEquivalent, 2 parse or config
error (including an invalid system descriptor, a numeric option out of
range, a rotation omega outside the sector |arg omega| < eta, a zero of h
outside the unit disc, a contour too close to a zero of h, a monodromy
transport that does not converge, and a failed Picard solve),
3 NonGeneric, 4 Indeterminate, 5 a gamma whose error bound is not small
against it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from .geometry import (
    REGION_INNER,
    REGION_NAMES,
    REGION_OUTER,
    REGION_OUTER_P,
    DomainConfig,
    RamifiedPoint,
    bifurcation_sets,
    classify_regions,
    count_components,
    equilibria,
    trace_trajectory,
    write_bifurcations_csv,
    write_regions_csv,
    write_trajectories_csv,
)
from .invariants import (
    FormalInvariants,
    NonGeneric,
    RootOutsideUnitDisc,
    check_unit_disc,
    extract_formal,
    reduce,
)
from .monodromy import SingularityTooClose, StepUnderflow, gamma_numeric
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
from .algebra import CSeries

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_PARSE = 2
EXIT_NON_GENERIC = 3
EXIT_INDETERMINATE = 4
EXIT_UNRELIABLE = 5

# invariants refuses a gamma whose est_error exceeds this fraction of max(1, |gamma|)
GAMMA_ERROR_MAX = 1e-3


class UnreliableGamma(ArithmeticError):
    """The transport's error bound on gamma is not small against gamma."""


# the package's named errors a command reports with a one-line message;
# any other exception is a bug and propagates
EXIT_CODES = {
    NonGeneric: EXIT_NON_GENERIC,
    UnreliableGamma: EXIT_UNRELIABLE,
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
    ("--trace-step", "trace_step", "must be positive", lambda v: v > 0),
)


def _round_sig(x: float, digits: int = 12) -> float:
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.{digits}g}")


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
    if isinstance(obj, (np.floating,)):
        return _round_sig(float(obj))
    if isinstance(obj, (np.complexfloating,)):
        return [_round_sig(float(obj.real)), _round_sig(float(obj.imag))]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _write_json(payload: dict, path: str) -> None:
    payload = dict(payload)
    payload.setdefault("schema_version", SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=1)
        fh.write("\n")


def _write_manifest(args, out_dir: str, outputs: list) -> None:
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "argv": args.argv,
        "outputs": outputs,
        "tol": getattr(args, "tol", None),
        "gamma_tol": getattr(args, "gamma_tol", None),
        "order": getattr(args, "order", None),
        "seed": getattr(args, "seed", None),
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(_jsonable(manifest), fh, indent=1)
        fh.write("\n")


def _parse_complex(text: str) -> complex:
    """'re' or 're,im' as an argparse type: bad text exits with code 2."""
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"cannot parse complex number from '{text}'")
    return complex(*parts)


def _parse_complex_list(text: str) -> list:
    return [_parse_complex(c) for c in text.split(";")]


def _json_complex(value) -> complex:
    """A JSON number or [re, im] pair."""
    return complex(*value) if isinstance(value, list) else complex(value)


def _flow_domain(args, sup_sr: float, **fields):
    """(omega, DomainConfig) from the options portrait and normcheck share;
    None, after a one-line message, unless omega != 0, |arg omega| < eta
    and the annulus constants satisfy the contraction inequality for
    ``sup_sr`` = sup|s r|.  ``fields`` are further DomainConfig fields."""
    omega = cmath.exp(1j * args.omega_arg) if args.omega is None else args.omega
    if omega == 0 or abs(cmath.phase(omega)) >= args.eta:
        print(f"error: omega = {omega} must be nonzero with |arg omega| < eta = {args.eta:.6g}",
              file=sys.stderr)
        return None
    cfg = DomainConfig(eta=args.eta, delta_s=args.delta_s, L=args.L, xi_max=args.xi_max,
                       **fields)
    if not cfg.feasible(sup_sr):
        print(f"error: annulus constants violate the contraction inequality "
              f"(sup|s r| = {sup_sr:.6g})", file=sys.stderr)
        return None
    return omega, cfg


def _load_germ(path) -> ParametricSystem:
    """The system of a descriptor file, with both zeros of h in the unit disc."""
    system = ParametricSystem.load(path)
    check_unit_disc(system)
    return system


def _ensure_outdir(args) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# commands


def cmd_invariants(args) -> int:
    system = _load_germ(args.system)
    F = extract_formal(system)
    params, _ = reduce(system, F)
    res = gamma_numeric(system, F, tol=args.gamma_tol,
                        validity_radius=args.validity_radius)
    if not res.est_error <= GAMMA_ERROR_MAX * max(1.0, abs(res.gamma)):
        raise UnreliableGamma(f"gamma = {res.gamma:.6g} has est_error = {res.est_error:.3g}, "
                              f"above {GAMMA_ERROR_MAX:g} * max(1, |gamma|)")
    payload = {
        "h": [F.h0, F.h1],
        "lambda": [F.lambda0, F.lambda1],
        "alpha": [F.alpha0, F.alpha1],
        "epsilon": params.epsilon,
        "mu": params.mu,
        "gamma": res.gamma,
        "est_error": res.est_error,
    }
    out = _ensure_outdir(args)
    path = os.path.join(out, "invariants.json")
    _write_json(payload, path)
    _write_manifest(args, out, ["invariants.json"])
    print(json.dumps(_jsonable(payload)))
    return EXIT_OK


def cmd_equiv(args) -> int:
    sys_a = _load_germ(args.system_a)
    sys_b = _load_germ(args.system_b)
    verdict, report = decide_equivalence(sys_a, sys_b, tol=args.tol,
                                         gamma_tol=args.gamma_tol,
                                         validity_radius=args.validity_radius)
    out = _ensure_outdir(args)
    payload = {"verdict": verdict, **report}
    _write_json(payload, os.path.join(out, "equiv.json"))
    _write_manifest(args, out, ["equiv.json"])
    print(verdict)
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
        print(f"error: bad invariants file: {exc}", file=sys.stderr)
        return EXIT_PARSE
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
            print("error: b-form needs --param", file=sys.stderr)
            return EXIT_PARSE
        b = args.param
        system = build_b_form(F, b, order=args.order)
        param_out = {"b": b}
    out = _ensure_outdir(args)
    path = os.path.join(out, "normalform.json")
    descriptor = system.to_descriptor()
    descriptor.update(_jsonable(param_out))
    with open(path, "w") as fh:
        json.dump(descriptor, fh, indent=1)
    _write_manifest(args, out, ["normalform.json"])
    print(json.dumps(_jsonable(param_out)))
    return EXIT_OK


def cmd_portrait(args) -> int:
    mu, eps = args.mu, args.eps
    domain = _flow_domain(args, args.sup_sr)
    if domain is None:
        return EXIT_PARSE
    omega, cfg = domain
    rp = RamifiedPoint.from_values(mu, eps)
    out = _ensure_outdir(args)

    n = args.grid
    pts, labels = classify_regions(rp, omega, cfg, grid=(n, n))
    write_regions_csv(pts, labels, os.path.join(out, "regions.csv"))

    rng = np.random.default_rng(args.seed)
    # separatrix fan: short offsets around each singular point of the field
    sep_seeds = []
    for root in {rp.s1, -rp.s1, rp.s2, -rp.s2}:
        if abs(root) > 1e-8:
            for phase in (1.0, 1j, -1.0, -1j):
                sep_seeds.append(root + 1e-3 * phase * max(abs(root), 0.05))
    seeds = list(sep_seeds)
    while len(seeds) < len(sep_seeds) + args.trajectories:
        z = cfg.delta_s * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        if abs(z) > 0.2 * cfg.delta_s:
            seeds.append(z)

    records = [trace_trajectory(seed, omega, rp, cfg) for seed in seeds]
    write_trajectories_csv(records, os.path.join(out, "trajectories.csv"),
                           stride=max(1, int(0.05 / cfg.trace_step)))

    curves = bifurcation_sets(eps, resolution=200)
    write_bifurcations_csv(curves, os.path.join(out, "bifurcations.csv"))

    outer_mask = (labels == REGION_OUTER) | (labels == REGION_OUTER_P)
    # outer points hugging |s| = delta_s signal the outer-region bifurcation
    # (the bounding trajectory is about to leave through the disc boundary)
    grid_step = 2.0 * cfg.delta_s / max(n - 1, 1)
    boundary_touch = bool(outer_mask.any() and
                          np.any(np.abs(pts[outer_mask]) >
                                 cfg.delta_s - 1.5 * grid_step))
    eq_pts = [e.s for e in equilibria(rp)]
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
    _write_json(summary, os.path.join(out, "summary.json"))
    _write_manifest(args, out, ["regions.csv", "trajectories.csv",
                                "bifurcations.csv", "summary.json"])
    print(json.dumps(_jsonable(summary["label_counts"])))
    return EXIT_OK


def cmd_kappa(args) -> int:
    report = batch_verify(args.samples, seed=args.seed, mu_abs=args.mu_abs,
                          eps_abs_range=(args.eps_abs_min, args.eps_abs_max))
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
    out = _ensure_outdir(args)
    _write_json(report, os.path.join(out, "kappa_report.json"))
    _write_manifest(args, out, ["kappa_report.json"])
    print(json.dumps(_jsonable({k: v["max"] for k, v in report["residuals"].items()})))
    if report["pole_fraction"] > 0.10:
        print("error: gamma-pole saturation above 10%", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def cmd_normcheck(args) -> int:
    mu, eps = args.mu, args.eps
    r = CSeries(args.r_coeffs, args.order) if args.r_coeffs else None
    sup_sr = 0.0
    if r is not None:
        ss = np.linspace(-args.delta_s, args.delta_s, 101)
        grid = ss[None, :] + 1j * ss[:, None]
        sup_sr = float(np.max(np.abs(grid * r.eval(grid * grid - mu))))
    domain = _flow_domain(args, sup_sr, trace_step=args.trace_step,
                          parabolic_capture=args.parabolic_capture)
    if domain is None:
        return EXIT_PARSE
    omega, cfg = domain
    rp = RamifiedPoint.from_values(mu, eps)
    sol_i, sol_j = inner_arc_solutions(rp, omega, cfg, r=r, seed_dir=args.seed_dir,
                                       tol=args.tol)
    asm = assemble_F(sol_i, sol_j, rp, r=r, interior=0.1)
    ratios = sol_i.contraction_ratios
    payload = {
        "mu": mu, "eps": eps, "omega": omega, "sup_sr": sup_sr,
        "picard_sweeps": len(sol_i.contraction_history),
        "contraction_ratio_max": float(np.max(ratios)) if len(ratios) else 0.0,
        "sup_p": sol_i.sup_norm(),
        "p_terminal": abs(sol_i.terminal_value()),
        "p_residual": p_equation_residual(sol_i, r),
        "det_rel_std": asm.det_rel_std,
        "kappa_estimate": asm.kappa_estimate,
        "diag_residual": diagonalization_residual(asm, r),
    }
    out = _ensure_outdir(args)
    _write_json(payload, os.path.join(out, "normcheck.json"))
    _write_manifest(args, out, ["normcheck.json"])
    print(json.dumps(_jsonable({k: payload[k] for k in
                                ("contraction_ratio_max", "det_rel_std",
                                 "diag_residual")})))
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

    # the parameter point, rotation and annulus options of the flow commands
    flow = argparse.ArgumentParser(add_help=False)
    flow.add_argument("--mu", type=_parse_complex, required=True)
    flow.add_argument("--eps", type=_parse_complex, required=True)
    flow.add_argument("--omega", type=_parse_complex, default=None)
    flow.add_argument("--omega-arg", type=float, default=0.0, dest="omega_arg")
    flow.add_argument("--eta", type=float, default=math.pi / 6)
    flow.add_argument("--delta-s", type=float, default=0.5, dest="delta_s")
    flow.add_argument("--L", type=float, default=2.0)
    flow.add_argument("--xi-max", type=float, default=None, dest="xi_max")

    q = sub.add_parser("portrait", parents=[flow],
                       help="trajectories, regions and bifurcation CSVs")
    q.add_argument("--grid", type=int, default=41)
    q.add_argument("--trajectories", type=int, default=8)
    q.add_argument("--sup-sr", type=float, default=0.0, dest="sup_sr")
    q.set_defaults(func=cmd_portrait)

    q = sub.add_parser("kappa", help="connection-coefficient identity residuals")
    q.add_argument("--samples", type=int, default=100)
    q.add_argument("--mu-abs", type=float, default=0.1, dest="mu_abs")
    q.add_argument("--eps-abs-min", type=float, default=1e-4, dest="eps_abs_min")
    q.add_argument("--eps-abs-max", type=float, default=1e-2, dest="eps_abs_max")
    q.add_argument("--no-rows", action="store_true", dest="no_rows",
                   help="omit the per-sample residual rows from the report")
    q.set_defaults(func=cmd_kappa)

    q = sub.add_parser("normcheck", parents=[flow], help="Picard solve + diagonalizer assembly")
    q.add_argument("--r-coeffs", type=_parse_complex_list, default=None, dest="r_coeffs",
                   help="semicolon-separated complex coefficients of r")
    q.add_argument("--seed-dir", type=_parse_complex, default=None, dest="seed_dir")
    q.add_argument("--trace-step", type=float, default=5e-3, dest="trace_step")
    q.add_argument("--parabolic-capture", type=float, default=1e-2,
                   dest="parabolic_capture")
    q.set_defaults(func=cmd_normcheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = list(sys.argv[1:] if argv is None else argv)
    for option, attr, rule, ok in OPTION_CHECKS:
        value = getattr(args, attr, None)
        if value is not None and not ok(value):
            print(f"error: {option} {rule}, got {value}", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
