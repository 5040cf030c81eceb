"""resunfold benchmark: one seeded workload per fresh process, end to end.

    python3 perfbench/run.py --workload gamma-corpus --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # both workloads in turn

Run from the root of a checkout; the package is imported from its
``src``.  The last line of standard output is one JSON object with keys
correct, attempted, failed and metrics (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``).  The exit code is 0
only when every op passed its oracle (and, traced, every span check).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 977
DEFAULT_SECONDS = 45
SETUP_RUNS = 3          # set-up is timed this often per run; the median is reported
RUN_DEADLINE_S = 170.0
END_TO_END = [("ops_per_s", "ops/s"), ("op_ms_p50", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
OUT_ROOT = ROOT / ".bench_build" / "perfbench"


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args: list[str], out: Path, deadline: float, setup_only: bool) -> float:
    """Start a worker; return seconds from spawn to its READY line.

    With ``setup_only`` the worker exits after READY; otherwise this waits
    for the whole workload.  Either way the process has ended on return.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT)
    try:
        setup, seen = None, b""
        while setup is None:
            left = deadline - perf_counter()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise WorkerFailed("worker timed out during set-up")
            chunk = os.read(proc.stdout.fileno(), 65536)
            if not chunk:
                raise WorkerFailed(f"worker exited during set-up (code {proc.wait()})")
            seen += chunk
            if b"READY\n" in seen:
                setup = perf_counter() - t0
        proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        if proc.returncode != 0:
            raise WorkerFailed(f"worker exited with code {proc.returncode}")
        return setup
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed("worker timed out") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + RUN_DEADLINE_S
    out = OUT_ROOT / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    # bytecode is written once here, so no timed set-up pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, stdout=subprocess.DEVNULL, timeout=60)
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    setups = [_spawn(args, out / f"setup{k}", deadline, True) for k in range(SETUP_RUNS - 1)]
    setups.append(_spawn(args, out, deadline, False))
    with open(out / "result.json") as fh:
        res = json.load(fh)
    shutil.rmtree(out / "ops", ignore_errors=True)
    for k in range(SETUP_RUNS - 1):
        shutil.rmtree(out / f"setup{k}", ignore_errors=True)
    if not Path(res["resunfold_file"]).resolve().is_relative_to(ROOT / "src"):
        raise WorkerFailed(f"imported {res['resunfold_file']}, not the checkout's package")
    res["setup_runs_s"] = setups
    res["setup_s"] = statistics.median(setups)
    return res


def verdict(res: dict) -> bool:
    ok = res["failed"] == 0
    if res["trace"]:
        ok &= res["accounting"]["ok"] and not res["missing_spans"]
    return ok


def metrics(res: dict) -> dict:
    if res["trace"]:
        return {k: {"value": res["per_layer"][k], "unit": u} for k, u in tracing.PER_LAYER}
    return {k: {"value": res[k], "unit": u} for k, u in END_TO_END}


def report(res: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric with its unit, the
    accuracy figures, failing inputs, and for traced runs the layers."""
    env = res["env"]
    lines = [f"== {res['workload']}  seed {res['seed']}  {res['seconds']:g} s  "
             f"trace {res['trace']}",
             f"   python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}  "
             f"nproc {env['nproc']} (affinity {env['affinity']})  cpu {env['cpu']}",
             f"   BLAS threads {env['blas_threads']}  git {res.get('git')}  "
             f"package {res['resunfold_file']}"]
    fail_frac = res["failed"] / res["attempted"]
    rows = [("ops_per_s", res["ops_per_s"], "ops/s"), ("op_ms_p50", res["op_ms_p50"], "ms"),
            ("setup_s", res["setup_s"], "s"), ("fail_frac", fail_frac, "1")]
    if not res["trace"]:
        rows.append(("peak_rss_mb", res["peak_rss_mb"], "MB"))
    tail = res["op_ms_tail"]
    if tail:
        rows.append(("op_ms_tail", tail["value"],
                     f"ms  (p{tail['percentile']:.1f} of n={tail['n']})"))
    rows += [(k, v, "1") for k, v in sorted(res["accuracy"].items())]
    for key, val, unit in rows:
        lines.append(f"   {key:<28} {val:>14.6g} {unit}")
    lines.append("   op latency by kind: " + ", ".join(
        f"{k} {v['ms_p50']:.1f} ms (n={v['n']})" for k, v in res["kinds"].items()))
    lines.append(f"   attempted {res['attempted']}  failed {res['failed']}  "
                 f"set-up runs {', '.join(f'{s:.3f}' for s in res['setup_runs_s'])} s")
    for f in res["failures"]:
        lines.append(f"   FAIL op {f['index']} [{f['kind']}] {f['label']}: {f['detail']}")
    if res["trace"]:
        acct = res["accounting"]
        lines.append(f"   spans {res['spans']}  accounting ok={acct['ok']}  "
                     f"unattributed {acct.get('unattributed_frac', float('nan')):.4f} "
                     f"(worst op {acct.get('unattributed_frac_max', float('nan')):.4f})  "
                     f"overhead_frac {res['per_layer']['trace.overhead_frac']:.4f}")
        if res["missing_spans"]:
            lines.append(f"   MISSING SPANS: {', '.join(res['missing_spans'])}")
        for key, unit in tracing.PER_LAYER:
            lines.append(f"   {key:<42} {res['per_layer'][key]:>14.6g} {unit}")
        lines.append("   ROADMAP baseline cross-check (traced, inclusive medians; "
                     "* = outside +-15%)")
        for row in res["baseline"]:
            lines.append(f"   {'*' if row['outside_noise'] else ' '} {row['row']:<50} "
                         f"{row['measured']:>12.6g} vs {row['baseline']:<8g} "
                         f"(x{row['ratio']:.2f})")
    return lines


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is held out "
                        "to confirm a claim on a seed it was not tuned on)")
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "resunfold" / "__init__.py").is_file():
        print(f"error: no resunfold package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (WorkerFailed, subprocess.SubprocessError, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 3
        res["git"] = _git_revision()
        print("\n".join(report(res)))
        results[name] = {"correct": verdict(res), "attempted": res["attempted"],
                         "failed": res["failed"], "metrics": metrics(res)}
        with open(OUT_ROOT / "runs.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": name, "seed": args.seed, "trace": args.trace,
                                 "seconds": args.seconds, "git": res["git"],
                                 **results[name]}) + "\n")
    last = results[names[0]] if len(names) == 1 else {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
