"""One workload in one fresh process: set up, time, check, optionally trace.

Started by run.py with BLAS threads pinned to 1 and PYTHONPATH pointing at
the checkout's ``src``.  Prints ``READY`` once set-up (import, input
generation, one untimed warm-up op) is done; with ``--setup-only`` it
exits there.  Otherwise it runs the timed phase and writes result.json
into ``--out``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

T_START = perf_counter()

import numpy as np  # noqa: E402

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# ROADMAP baseline rows (2-core host, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1): (row, baseline seconds or count, how the traced run measures it)
BASELINE = [
    ("import resunfold, cold", 1.90, "import_s"),
    ("gamma_numeric, K=24 system, tol 1e-9", 0.218, "monodromy.gamma_numeric@gauge_pair"),
    ("propagate RHS evaluations, one pass at tol 1e-9", 1900, "rhs_first_pass"),
    ("classify_regions, 41^2 grid", 0.82, "geometry.classify_regions@grid41"),
    ("inner_arc_solutions", 0.147, "normalization.inner_arc_solutions@normcheck"),
    ("assemble_F", 0.015, "normalization.assemble_F@normcheck"),
    ("prenormalize", 0.0044, "invariants.prenormalize@qform,bform"),
    ("gauge_apply", 0.00068, "system.gauge_apply@generate"),
    ("extract_formal", 0.00011, "invariants.extract_formal@linear,qform,bform"),
]
BASELINE_NOISE = 0.15


def run_phase(ops, seconds, round_len, count=None, tracer=None):
    """Cycle through ``ops`` until ``seconds`` of op time have passed and the
    round in progress is complete (or for exactly ``count`` ops).

    Whole rounds keep every op kind at its share, so where the time runs
    out does not shift the mix.  Checks run between ops, outside the timing.
    """
    records = []
    busy = 0.0
    k = 0
    op_nid = tracer.name_id(tracing.OP_SPAN) if tracer else None
    while (k < count) if count is not None else (busy < seconds or k % round_len):
        op = ops[k % len(ops)]
        error = None
        if tracer:
            tracer.op_id = k
            tracer.active = True
            root = tracer.begin(op_nid)
        t0 = perf_counter()
        try:
            out = op.run()
        except Exception:       # an op that raises is a failure, never a crash
            out, error = None, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        if tracer:
            tracer.finish(root, failed=error is not None)
            tracer.active = False
            tracer.op_id = -1
        busy += dt
        if error is None:
            try:
                chk = op.check(out)
            except Exception:
                chk = workloads.Check(False, "check raised: " + traceback.format_exc(limit=2))
        else:
            chk = workloads.Check(False, "raised: " + error.strip().splitlines()[-1])
        rec = {"index": k % len(ops), "kind": op.kind, "ms": dt * 1e3, "ok": bool(chk.ok),
               "detail": chk.detail, "accuracy": chk.accuracy, "label": op.label,
               "tags": op.tags}
        if tracer and op.out_dir:
            rec["bytes"] = sum(os.path.getsize(os.path.join(op.out_dir, f))
                               for f in os.listdir(op.out_dir))
        records.append(rec)
        k += 1
    return records, busy


def summarize(records, busy, round_len):
    lat = [r["ms"] for r in records]
    passed = sum(r["ok"] for r in records)
    accuracy = {}
    for r in records[:round_len]:          # a fixed op set, so each seed gives one value
        for key, val in r["accuracy"].items():
            accuracy[key] = max(accuracy.get(key, 0.0), float(val))
    t = stats.tail(lat)
    kinds = {}
    for r in records:
        kinds.setdefault(r["kind"], []).append(r["ms"])
    return {
        "attempted": len(records), "failed": len(records) - passed,
        "busy_s": busy, "ops_per_s": passed / busy,
        "op_ms_p50": stats.median(lat),
        "op_ms_tail": None if t is None else {"value": t[0], "percentile": t[1], "n": t[2]},
        "accuracy": accuracy,
        "kinds": {k: {"n": len(v), "ms_p50": stats.median(v)} for k, v in kinds.items()},
        "failures": [{k: r[k] for k in ("index", "kind", "label", "detail")}
                     for r in records if not r["ok"]],
    }


def environment() -> dict:
    def version(mod):
        try:
            return importlib.metadata.version(mod)
        except importlib.metadata.PackageNotFoundError:
            return None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": version("scipy"), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _median_incl(a, names, ops_meta, key):
    """Median inclusive duration of the spans ``name@filter`` selects."""
    name, _, flt = key.partition("@")
    if name not in names:
        return None
    durs = []
    for i in np.flatnonzero(a["name"] == names.index(name)):
        op = int(a["op"][i])
        if flt == "generate":
            keep = op < 0
        elif flt.startswith("grid"):
            keep = op >= 0 and ops_meta[op]["tags"].get("grid") == int(flt[4:])
        else:
            keep = op >= 0 and ops_meta[op]["kind"] in flt.split(",")
        if keep:
            durs.append(a["end"][i] - a["start"][i])
    return float(np.median(durs)) if durs else None


def baseline_rows(a, names, notes, ops_meta, import_s):
    rows = []
    for label, base, key in BASELINE:
        if key == "import_s":
            got = import_s
        elif key == "rhs_first_pass":
            got = None
            if "monodromy.propagate" in names:
                prop = np.flatnonzero(a["name"] == names.index("monodromy.propagate"))
                first = [int(a["rhs"][i]) for i in prop
                         if notes.get(int(i)) == workloads.GAMMA_TOL_NUMERIC
                         and a["op"][i] >= 0
                         and ops_meta[a["op"][i]]["kind"] == "gauge_pair"]
                got = float(np.median(first)) if first else None
        else:
            got = _median_incl(a, names, ops_meta, key)
        if got is None:
            continue
        rows.append({"row": label, "baseline": base, "measured": got,
                     "ratio": got / base,
                     "outside_noise": abs(got / base - 1.0) > BASELINE_NOISE})
    return rows


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    R = importlib.import_module("resunfold")
    import_s = perf_counter() - T_START     # numpy and scipy count: the package imports them
    importlib.import_module("resunfold.cli")
    ops_root = os.path.join(args.out, "ops")
    os.makedirs(ops_root, exist_ok=True)
    wl = workloads.build(R, args.workload, args.seed, ops_root)
    wl.warmup.run()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "import_s": import_s, "env": environment(),
              "resunfold_file": R.__file__}
    if args.trace == 0:
        records, busy = run_phase(wl.ops, args.seconds, wl.round_len)
        result.update(summarize(records, busy, wl.round_len))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        # untraced half, then the same ops traced: the time ratio is the overhead
        records_u, busy_u = run_phase(wl.ops, args.seconds / 2.0, wl.round_len)
        tr = tracing.Tracer()
        sites = tracing.install(tr)
        tr.active = True
        gen = tr.begin(tr.name_id(tracing.SETUP_SPAN))
        wl_traced = workloads.build(R, args.workload, args.seed, ops_root)
        tr.finish(gen)
        tr.active = False
        records, busy = run_phase(wl_traced.ops, 0.0, wl.round_len, count=len(records_u),
                                  tracer=tr)
        result.update(summarize(records, busy, wl.round_len))
        untraced = summarize(records_u, busy_u, wl.round_len)
        result["attempted"] += untraced["attempted"]
        result["failed"] += untraced["failed"]
        result["failures"] += untraced["failures"]
        a = tr.arrays()
        acct = tracing.accounting(a, tr.names)
        layers = tracing.layer_metrics(a, tr.names, tr.counters, tr.notes)
        layers["cli.bytes_written"] = float(sum(r.get("bytes", 0) for r in records))
        layers["trace.overhead_frac"] = 1.0 - busy_u / busy
        layers["trace.unattributed_frac"] = acct.get("unattributed_frac", 1.0)
        for key in ("gamma_err_max", "theta_residual_max", "det_rel_std_max",
                    "kappa_residual_max"):
            layers[key] = result["accuracy"].get(key, 0.0)
        layers["fail_frac"] = result["failed"] / result["attempted"]
        missing = tracing.never_fired(args.workload, a, tr.names) + tr.missing
        ops_meta = [{"kind": r["kind"], "tags": r["tags"]} for r in records]
        result.update({
            "per_layer": layers, "accounting": acct, "missing_spans": missing,
            "wrapper_sites": sites, "spans": len(a["start"]),
            "untraced_busy_s": busy_u,
            "baseline": baseline_rows(a, tr.names, tr.notes, ops_meta, import_s),
        })
        tr.write(os.path.join(args.out, "spans.npz"))
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
