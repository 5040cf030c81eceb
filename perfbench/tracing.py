"""Spans around the package's public functions, recorded from outside.

Nothing under ``src/`` knows about tracing: ``install`` replaces each
listed function by a wrapper in every ``resunfold`` module namespace that
holds it, because a module calls what its own globals hold (the CLI calls
``resunfold.cli.gamma_numeric``, not ``resunfold.monodromy.gamma_numeric``).
Spans live in flat in-memory arrays (name, start, end, parent, op id)
and are written out once, after the traced phase.

A span's self time is its duration minus the durations of its direct
children; spans nest strictly because the package is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from array import array
from time import perf_counter

import numpy as np

OP_SPAN = "bench.op"          # root span of one timed op (harness glue is its self time)
SETUP_SPAN = "bench.generate"  # root span of traced input generation (op id -1)
SERIES_EVAL = "algebra.series_eval"

# name -> (module, attribute); each is wrapped wherever the package looks it up
FUNCTIONS = {
    "cli.main": ("resunfold.cli", "main"),
    "system.gauge_apply": ("resunfold.system", "gauge_apply"),
    "algebra.log_gamma": ("resunfold.algebra", "log_gamma"),
    "invariants.extract_formal": ("resunfold.invariants", "extract_formal"),
    "invariants.reduce": ("resunfold.invariants", "reduce"),
    "invariants.prenormalize": ("resunfold.invariants", "prenormalize"),
    "monodromy.gamma_numeric": ("resunfold.monodromy", "gamma_numeric"),
    "monodromy.propagate": ("resunfold.monodromy", "propagate"),
    "normal_forms.decide_equivalence": ("resunfold.normal_forms", "decide_equivalence"),
    "geometry.classify_regions": ("resunfold.geometry", "classify_regions"),
    "geometry.trace_trajectory": ("resunfold.geometry", "trace_trajectory"),
    "geometry.count_components": ("resunfold.geometry", "count_components"),
    "geometry.bifurcation_sets": ("resunfold.geometry", "bifurcation_sets"),
    "normalization.inner_arc_solutions": ("resunfold.normalization", "inner_arc_solutions"),
    "normalization.connecting_arc": ("resunfold.normalization", "connecting_arc"),
    "normalization.solve_p": ("resunfold.normalization", "solve_p"),
    "normalization.assemble_F": ("resunfold.normalization", "assemble_F"),
    "normalization.p_equation_residual": ("resunfold.normalization", "p_equation_residual"),
    "normalization.diagonalization_residual": ("resunfold.normalization",
                                               "diagonalization_residual"),
    "normalization.batch_verify": ("resunfold.normalization", "batch_verify"),
    "normalization.kappa_formulas": ("resunfold.normalization", "kappa_formulas"),
}
# (class, method) pairs timed as one series-evaluation span; a CSeries.eval
# inside CSeriesMat2.eval belongs to the outer span
SERIES_METHODS = (("resunfold.algebra", "CSeriesMat2", "eval"),
                  ("resunfold.algebra", "CSeries", "eval"))
RHS_METHOD = ("resunfold.system", "ParametricSystem", "h_at")

# (name, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = [
    ("cli.main.calls", "count"), ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("system.gauge_apply.calls", "count"), ("system.gauge_apply.self_s", "s"),
    ("algebra.series_eval.calls", "count"), ("algebra.series_eval.self_s", "s"),
    ("algebra.log_gamma.calls", "count"), ("algebra.log_gamma.self_s", "s"),
    ("invariants.extract_formal.calls", "count"), ("invariants.extract_formal.self_s", "s"),
    ("invariants.reduce.calls", "count"), ("invariants.reduce.self_s", "s"),
    ("invariants.prenormalize.calls", "count"), ("invariants.prenormalize.self_s", "s"),
    ("monodromy.gamma_numeric.calls", "count"), ("monodromy.gamma_numeric.self_s", "s"),
    ("monodromy.propagate.calls", "count"), ("monodromy.propagate.self_s", "s"),
    ("monodromy.rhs_evals", "count"), ("monodromy.rhs_evals_per_gamma", "count"),
    ("monodromy.useful_rhs_frac", "1"), ("monodromy.est_error_max", "1"),
    ("monodromy.failures", "count"),
    ("normal_forms.decide_equivalence.calls", "count"),
    ("normal_forms.decide_equivalence.self_s", "s"),
    ("normal_forms.verdict.Equivalent", "count"),
    ("normal_forms.verdict.NotEquivalent", "count"),
    ("normal_forms.verdict.Indeterminate", "count"),
    ("normal_forms.early_exit_frac", "1"),
    ("geometry.classify_regions.calls", "count"), ("geometry.classify_regions.self_s", "s"),
    ("geometry.grid_points", "count"),
    ("geometry.trace_trajectory.calls", "count"), ("geometry.trace_trajectory.self_s", "s"),
    ("geometry.trace_steps", "count"),
    ("geometry.terminal.converged", "count"), ("geometry.terminal.left-annulus", "count"),
    ("geometry.terminal.max-length", "count"), ("geometry.converged_frac", "1"),
    ("geometry.count_components.self_s", "s"), ("geometry.bifurcation_sets.self_s", "s"),
    ("normalization.connecting_arc.self_s", "s"),
    ("normalization.solve_p.calls", "count"), ("normalization.solve_p.self_s", "s"),
    ("normalization.picard_sweeps", "count"), ("normalization.contraction_ratio_max", "1"),
    ("normalization.assemble_F.self_s", "s"), ("normalization.batch_verify.self_s", "s"),
    ("normalization.pole_fraction", "1"),
    ("trace.overhead_frac", "1"), ("trace.unattributed_frac", "1"),
    ("gamma_err_max", "1"), ("theta_residual_max", "1"), ("det_rel_std_max", "1"),
    ("kappa_residual_max", "1"), ("fail_frac", "1"),
]

# The traced run fails if one of these never fires on its workload.
EXPECTED = {
    "gamma-corpus": ["invariants.extract_formal", "invariants.reduce",
                     "invariants.prenormalize", "monodromy.gamma_numeric",
                     "monodromy.propagate", SERIES_EVAL, "normal_forms.decide_equivalence",
                     "system.gauge_apply"],
    "cli-sweep": ["cli.main", "geometry.classify_regions", "geometry.trace_trajectory",
                  "geometry.count_components", "geometry.bifurcation_sets",
                  "normalization.inner_arc_solutions", "normalization.connecting_arc",
                  "normalization.solve_p", "normalization.assemble_F",
                  "normalization.batch_verify", "normalization.kappa_formulas",
                  "algebra.log_gamma", SERIES_EVAL],
}

# An op's harness glue (the self time of its root span) may not exceed this
# share of the op, or the floor for sub-millisecond ops: the layers' self
# times must account for the rest.
UNATTRIBUTED_MAX = 0.05
UNATTRIBUTED_FLOOR_S = 1e-4


class Tracer:
    """Flat span store; ``active`` gates recording."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.rhs = array("l")      # ParametricSystem.h_at calls inside the span
        self.failed = array("b")
        self.stack: list[int] = []
        self.op_id = -1
        self.active = False
        self.rhs_calls = 0
        self.notes: dict[int, float] = {}   # span index -> propagate tol
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.rhs.append(self.rhs_calls)
        self.failed.append(0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int, failed: bool = False) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()
        self.rhs[idx] = self.rhs_calls - self.rhs[idx]
        if failed:
            self.failed[idx] = 1

    def add(self, key: str, value: float = 1.0) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + value

    def maximum(self, key: str, value: float) -> None:
        self.counters[key] = max(self.counters.get(key, 0.0), value)

    def arrays(self) -> dict:
        return {
            "name": np.array(self.name, dtype=np.int64),
            "start": np.array(self.start), "end": np.array(self.end),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "rhs": np.array(self.rhs, dtype=np.int64),
            "failed": np.array(self.failed, dtype=np.int8),
        }

    def write(self, path) -> None:
        """Write the spans (npz) and the name table (json) next to it."""
        np.savez(path, **self.arrays())
        with open(str(path) + ".names.json", "w") as fh:
            json.dump(self.names, fh)


# ---------------------------------------------------------------------------
# result observers: counts taken where the work happens


def _obs_gamma(tr, res, args, kwargs, idx):
    tr.maximum("monodromy.est_error_max", float(res.est_error))


def _obs_verdict(tr, res, args, kwargs, idx):
    tr.add(f"normal_forms.verdict.{res[0]}")


def _obs_classify(tr, res, args, kwargs, idx):
    tr.add("geometry.grid_points", len(res[0]))


def _obs_trace(tr, res, args, kwargs, idx):
    tr.add("geometry.trace_steps", len(res.s) - 1)
    tr.add(f"geometry.terminal.{res.terminal}")


def _obs_solve_p(tr, res, args, kwargs, idx):
    tr.add("normalization.picard_sweeps", len(res.contraction_history))
    ratios = np.asarray(res.contraction_ratios)
    if ratios.size:
        tr.maximum("normalization.contraction_ratio_max", float(ratios.max()))


def _obs_batch(tr, res, args, kwargs, idx):
    tr.maximum("normalization.pole_fraction", float(res["pole_fraction"]))


def _obs_propagate_factory(fn):
    sig = inspect.signature(fn)

    def obs(tr, res, args, kwargs, idx):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        tol = bound.arguments.get("tol")
        if tol is not None:
            tr.notes[idx] = float(tol)
    return obs


OBSERVERS = {
    "monodromy.gamma_numeric": _obs_gamma,
    "normal_forms.decide_equivalence": _obs_verdict,
    "geometry.classify_regions": _obs_classify,
    "geometry.trace_trajectory": _obs_trace,
    "normalization.solve_p": _obs_solve_p,
    "normalization.batch_verify": _obs_batch,
}


def _wrap(tr: Tracer, name: str, fn, observe=None):
    nid = tr.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        idx = tr.begin(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tr.finish(idx, failed=True)
            raise
        tr.finish(idx)
        if observe is not None:
            observe(tr, result, args, kwargs, idx)
        return result
    return traced


def _package_modules():
    pkg = importlib.import_module("resunfold")
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"resunfold.{info.name}"))
    return mods


def install(tr: Tracer) -> dict:
    """Wrap every listed function at every place the package looks it up.

    Returns {name: number of namespaces patched}; names whose function
    does not exist are recorded in ``tr.missing``.
    """
    mods = _package_modules()
    sites = {}
    for name, (modname, attr) in FUNCTIONS.items():
        fn = getattr(importlib.import_module(modname), attr, None)
        if fn is None:
            tr.missing.append(name)
            continue
        observe = _obs_propagate_factory(fn) if name == "monodromy.propagate" \
            else OBSERVERS.get(name)
        wrapped = _wrap(tr, name, fn, observe)
        sites[name] = 0
        for mod in mods:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    sites[name] += 1

    series_nid = tr.name_id(SERIES_EVAL)
    for modname, cls_name, meth in SERIES_METHODS:
        cls = getattr(importlib.import_module(modname), cls_name)
        fn = getattr(cls, meth)
        wrapped = _wrap(tr, SERIES_EVAL, fn)

        def series(*args, _fn=fn, _wrapped=wrapped, **kwargs):
            if tr.stack and tr.name[tr.stack[-1]] == series_nid:
                return _fn(*args, **kwargs)
            return _wrapped(*args, **kwargs)
        setattr(cls, meth, functools.wraps(fn)(series))
    sites[SERIES_EVAL] = len(SERIES_METHODS)

    modname, cls_name, meth = RHS_METHOD
    cls = getattr(importlib.import_module(modname), cls_name)
    h_at = getattr(cls, meth)

    @functools.wraps(h_at)
    def counted(*args, **kwargs):
        tr.rhs_calls += 1
        return h_at(*args, **kwargs)
    setattr(cls, meth, counted)
    return sites


# ---------------------------------------------------------------------------
# analysis


def self_times(a: dict) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = a["end"] - a["start"]
    child = a["parent"] >= 0
    covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
    return dur - covered


def accounting(a: dict, names: list[str]) -> dict:
    """Check that spans nest and that layer self times account for each op.

    Per op (root span ``bench.op``): the self times of all its spans sum
    to its wall time, every child lies inside its parent, and the root's
    own self time (harness glue, no layer) is at most UNATTRIBUTED_MAX of
    the op or UNATTRIBUTED_FLOOR_S, whichever is larger.
    """
    n = len(a["start"])
    if n == 0:
        return {"ok": False, "reason": "no spans"}
    selfs = self_times(a)
    child = np.flatnonzero(a["parent"] >= 0)
    par = a["parent"][child]
    tol = 1e-9
    nested = bool(np.all(a["start"][child] >= a["start"][par] - tol)
                  and np.all(a["end"][child] <= a["end"][par] + tol))
    op_nid = names.index(OP_SPAN) if OP_SPAN in names else -1
    roots = np.flatnonzero((a["parent"] < 0) & (a["name"] == op_nid))
    if roots.size == 0:
        return {"ok": False, "reason": "no op spans"}
    op_ids = a["op"][roots]
    wall = a["end"][roots] - a["start"][roots]
    in_ops = a["op"] >= 0
    per_op = np.bincount(a["op"][in_ops], weights=selfs[in_ops],
                         minlength=int(op_ids.max()) + 1)[op_ids]
    sum_gap = float(np.max(np.abs(per_op - wall) / np.maximum(wall, 1e-12)))
    glue = selfs[roots] / np.maximum(wall, 1e-12)
    worst = int(np.argmax(glue))
    glue_ok = bool(np.all(selfs[roots] <= np.maximum(UNATTRIBUTED_MAX * wall,
                                                     UNATTRIBUTED_FLOOR_S)))
    ok = nested and sum_gap < 1e-6 and glue_ok
    return {
        "ok": ok, "nested": nested, "ops": int(roots.size),
        "self_sum_gap_max": sum_gap,
        "unattributed_frac": float(np.sum(selfs[roots]) / np.sum(wall)),
        "unattributed_frac_max": float(glue[worst]),
        "worst_op": int(op_ids[worst]),
    }


def layer_metrics(a: dict, names: list[str], counters: dict, notes: dict) -> dict:
    """Every PER_LAYER metric that spans and counters can give (0 when unused)."""
    selfs = self_times(a)
    nid = {name: k for k, name in enumerate(names)}
    calls = np.bincount(a["name"], minlength=len(names)) if len(a["name"]) else \
        np.zeros(len(names), dtype=int)
    self_by = np.bincount(a["name"], weights=selfs, minlength=len(names)) \
        if len(a["name"]) else np.zeros(len(names))

    def n_calls(name):
        return int(calls[nid[name]]) if name in nid else 0

    def self_s(name):
        return float(self_by[nid[name]]) if name in nid else 0.0

    out = {key: 0.0 for key, _unit in PER_LAYER}
    for key in out:
        if key.endswith(".calls"):
            out[key] = n_calls(key[:-len(".calls")])
        elif key.endswith(".self_s") and key != "cli.self_s":
            out[key] = self_s(key[:-len(".self_s")])
    out["cli.self_s"] = self_s("cli.main")
    out.update({k: v for k, v in counters.items() if k in out})

    # monodromy work counts: RHS evaluations per propagate pass, and the
    # share spent in the pass whose result gamma_numeric reports
    if "monodromy.propagate" in nid:
        prop = np.flatnonzero(a["name"] == nid["monodromy.propagate"])
        rhs_total = int(a["rhs"][prop].sum())
        out["monodromy.rhs_evals"] = rhs_total
        gammas = n_calls("monodromy.gamma_numeric")
        out["monodromy.rhs_evals_per_gamma"] = rhs_total / gammas if gammas else 0.0
        useful = 0
        by_parent: dict[int, list[int]] = {}
        for idx in prop:
            by_parent.setdefault(int(a["parent"][idx]), []).append(int(idx))
        for kids in by_parent.values():
            tols = [notes.get(k) for k in kids]
            chosen = kids[-1] if None in tols else kids[int(np.argmin(tols))]
            useful += int(a["rhs"][chosen])
        out["monodromy.useful_rhs_frac"] = useful / rhs_total if rhs_total else 0.0
    if "monodromy.gamma_numeric" in nid:
        out["monodromy.failures"] = int(
            a["failed"][a["name"] == nid["monodromy.gamma_numeric"]].sum())
    if "normal_forms.decide_equivalence" in nid:
        dec = np.flatnonzero(a["name"] == nid["normal_forms.decide_equivalence"])
        gam = nid.get("monodromy.gamma_numeric", -1)
        with_gamma = set(a["parent"][a["name"] == gam].tolist())
        early = sum(1 for idx in dec if int(idx) not in with_gamma)
        out["normal_forms.early_exit_frac"] = early / len(dec) if len(dec) else 0.0
    traced = n_calls("geometry.trace_trajectory")
    out["geometry.converged_frac"] = \
        counters.get("geometry.terminal.converged", 0.0) / traced if traced else 0.0
    return out


def never_fired(workload: str, a: dict, names: list[str]) -> list[str]:
    counts = np.bincount(a["name"], minlength=len(names)) if len(a["name"]) else []
    fired = {names[k] for k in range(len(names)) if len(counts) and counts[k] > 0}
    return [name for name in EXPECTED[workload] if name not in fired]
