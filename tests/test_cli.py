import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import resunfold
from conftest import model_system, random_gauge
from resunfold.algebra import CSeriesMat2
from resunfold.cli import main
from resunfold.invariants import FormalInvariants, extract_formal
from resunfold.monodromy import gamma_numeric
from resunfold.normal_forms import build_q_form
from resunfold.system import ParametricSystem, gauge_apply

SRC = str(Path(resunfold.__file__).resolve().parents[1])


def write_system(system, path):
    system.save(path)
    return str(path)


def test_invariants_command(tmp_path):
    p = write_system(model_system(0.1, 0.01), tmp_path / "m.json")
    out = tmp_path / "out"
    assert main(["--out", str(out), "invariants", p]) == 0
    data = json.load(open(out / "invariants.json"))
    assert abs(data["gamma"][0] - 2.0) < 1e-6
    assert abs(data["gamma"][1]) < 1e-6
    assert abs(data["mu"][0] - 0.1) < 1e-12
    assert abs(data["epsilon"][0] - 0.01) < 1e-12
    manifest = json.load(open(out / "manifest.json"))
    assert manifest["command"] == "invariants"
    assert "invariants.json" in manifest["outputs"]


def test_invariants_qform_gamma(tmp_path):
    F = FormalInvariants(0.002, -0.03, 0.0, 0.0, 0.01, 1.0)
    p = write_system(build_q_form(F, 0.75), tmp_path / "q.json")
    out = tmp_path / "out"
    assert main(["--out", str(out), "invariants", p]) == 0
    data = json.load(open(out / "invariants.json"))
    assert abs(data["gamma"][0] + 2.0) < 1e-6


def test_invariants_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--out", str(tmp_path / "o"), "invariants", str(bad)]) == 2


def test_invariants_non_generic(tmp_path):
    from resunfold.algebra import CSeries, CSeriesMat2
    K = 16
    A = CSeriesMat2(CSeries.zero(K), CSeries.one(K),
                    CSeries([0.3], K), CSeries.zero(K))
    p = write_system(ParametricSystem(0.0, 0.0, A), tmp_path / "ng.json")
    assert main(["--out", str(tmp_path / "o"), "invariants", p]) == 3


def test_equiv_command_exit_codes(tmp_path, rng):
    m = model_system(0.05, 0.01)
    p1 = write_system(m, tmp_path / "a.json")
    p2 = write_system(gauge_apply(random_gauge(rng, scale=0.03), m),
                      tmp_path / "b.json")
    assert main(["--out", str(tmp_path / "o1"), "equiv", p1, p2]) == 0

    F = extract_formal(m)
    p3 = write_system(build_q_form(F, 0.2, order=m.order), tmp_path / "c.json")
    assert main(["--out", str(tmp_path / "o2"), "equiv", p1, p3]) == 1
    report = json.load(open(tmp_path / "o2" / "equiv.json"))
    assert report["verdict"] == "NotEquivalent"


def test_normalform_command(tmp_path):
    inv = {"h": [[0.01, 0.0], [0.0, 0.0]],
           "lambda": [[0.0, 0.0], [0.0, 0.0]],
           "alpha": [[0.05, 0.0], [1.0, 0.0]],
           "gamma": [-1.2, 0.3]}
    p = tmp_path / "inv.json"
    p.write_text(json.dumps(inv))
    out = tmp_path / "o"
    assert main(["--out", str(out), "normalform", str(p), "--variant", "q"]) == 0
    built = ParametricSystem.from_descriptor(
        json.load(open(out / "normalform.json")))
    res = gamma_numeric(built, tol=1e-9)
    assert abs(res.gamma - complex(-1.2, 0.3)) < 1e-6


def test_normalform_b_variant(tmp_path):
    inv = {"h": [[0.01, 0.0], [0.0, 0.0]],
           "lambda": [[0.0, 0.0], [0.0, 0.0]],
           "alpha": [[0.05, 0.0], [1.0, 0.0]]}
    p = tmp_path / "inv.json"
    p.write_text(json.dumps(inv))
    out = tmp_path / "o"
    assert main(["--out", str(out), "normalform", str(p),
                 "--variant", "b", "--param", "0.1"]) == 0
    built = ParametricSystem.from_descriptor(
        json.load(open(out / "normalform.json")))
    F = extract_formal(built)
    assert abs(F.alpha0 - 0.05) < 1e-10 and abs(F.alpha1 - 1.0) < 1e-10


def test_portrait_command_and_flags(tmp_path):
    out = tmp_path / "o"
    rc = main(["--out", str(out), "portrait", "--mu", "0.1", "--eps", "0.01",
               "--grid", "31"])
    assert rc == 0
    for name in ("regions.csv", "trajectories.csv", "bifurcations.csv",
                 "summary.json", "manifest.json"):
        assert (out / name).exists()
    summary = json.load(open(out / "summary.json"))
    assert summary["label_counts"]["R_I"] == 0  # mu^2 = eps: inner empty

    # infeasible annulus constants are rejected
    rc = main(["--out", str(tmp_path / "o2"), "portrait", "--mu", "0.1",
               "--eps", "0.01", "--L", "10", "--delta-s", "0.5"])
    assert rc == 2


def test_portrait_inner_split(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "portrait", "--mu", "0.04", "--eps", "0",
                 "--grid", "61"]) == 0
    summary = json.load(open(out / "summary.json"))
    assert summary["label_counts"]["R_I"] > 0
    assert summary["inner_components"] == 2


def test_portrait_sigma_o(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "portrait", "--mu", "-0.1", "--eps", "0.01",
                 "--grid", "31"]) == 0
    summary = json.load(open(out / "summary.json"))
    assert summary["outer_empty"] or summary["outer_boundary_touching"]


def test_kappa_command(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "kappa", "--samples", "30"]) == 0
    rep = json.load(open(out / "kappa_report.json"))
    assert rep["samples"] == 30
    assert all(v["max"] < 1e-8 for v in rep["residuals"].values())
    assert rep["stirling"]["kappa_I_eps_1e-6_minus_1"] < 1e-3


def test_normcheck_command(tmp_path):
    out = tmp_path / "o"
    assert main(["--out", str(out), "normcheck", "--mu", "0.05",
                 "--eps", "0.0016"]) == 0
    rep = json.load(open(out / "normcheck.json"))
    assert rep["contraction_ratio_max"] <= 0.55
    assert rep["det_rel_std"] < 1e-6
    assert rep["diag_residual"] < 1e-6
    assert rep["sup_p"] <= 1.0


def test_normcheck_infeasible_r(tmp_path):
    rc = main(["--out", str(tmp_path / "o"), "normcheck", "--mu", "0.05",
               "--eps", "0.0016", "--r-coeffs", "9.0"])
    assert rc == 2


def test_manifest_records_parsed_argv(tmp_path):
    out = tmp_path / "o"
    argv = ["--out", str(out), "--seed", "3", "kappa", "--samples", "5", "--no-rows"]
    assert main(argv) == 0
    assert json.load(open(out / "manifest.json"))["argv"] == argv


def run_python(code, *args):
    """``python -c code args`` in a fresh interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("args", [
    ["portrait", "--mu", "abc", "--eps", "0.001"],
    ["portrait", "--mu", "0.06", "--eps", "1,2,3"],
    ["portrait", "--mu", "0.06", "--eps", "0.001", "--omega", "1,x"],
    ["normcheck", "--mu", "0.05", "--eps", "0.0016", "--seed-dir", "abc"],
    ["normcheck", "--mu", "0.05", "--eps", "0.0016", "--r-coeffs", "0.1;abc"],
])
def test_bad_numbers_exit_parse(args, tmp_path):
    proc = run_python("import sys; from resunfold.cli import main; sys.exit(main())",
                      "--out", str(tmp_path / "o"), *args)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "cannot parse complex number" in proc.stderr


def test_normcheck_reports_only_arc_errors(tmp_path, monkeypatch):
    import resunfold.cli as cli
    from resunfold.normalization import ContractionViolated

    def fail(exc):
        def inner_arc_solutions(*args, **kwargs):
            raise exc
        return inner_arc_solutions

    argv = ["--out", str(tmp_path / "o"), "normcheck", "--mu", "0.05", "--eps", "0.0016"]
    # the confluent point has no default arc seed: a documented error
    assert main(argv[:3] + ["--mu", "0", "--eps", "0"]) == 2
    monkeypatch.setattr(cli, "inner_arc_solutions", fail(ContractionViolated("slow")))
    assert main(argv) == 2
    # any other error is a bug and must not pass for a parse error
    monkeypatch.setattr(cli, "inner_arc_solutions", fail(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        main(argv)


def test_import_does_not_load_scipy():
    proc = run_python("import sys, resunfold; assert 'scipy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_outputs_deterministic(tmp_path):
    p = write_system(model_system(0.1, 0.01), tmp_path / "m.json")
    main(["--out", str(tmp_path / "o1"), "invariants", p])
    main(["--out", str(tmp_path / "o2"), "invariants", p])
    a = (tmp_path / "o1" / "invariants.json").read_text()
    b = (tmp_path / "o2" / "invariants.json").read_text()
    assert a == b


@pytest.mark.parametrize("edit", ["nan_h0", "inf_A", "order_1", "ragged_A"])
@pytest.mark.parametrize("command", ["invariants", "equiv"])
def test_invalid_descriptor_exit_parse(edit, command, tmp_path, capsys):
    good = model_system(0.1, 0.01).to_descriptor()
    bad = json.loads(json.dumps(good))
    if edit == "nan_h0":
        bad["h"][0] = float("nan")
    elif edit == "inf_A":
        bad["A"][1][0][1][0] = float("inf")
    elif edit == "ragged_A":
        bad["A"][0][1] = bad["A"][0][1][:3]
    else:
        bad["order"] = 1
    pg, pb = tmp_path / "good.json", tmp_path / "bad.json"
    pg.write_text(json.dumps(good))
    pb.write_text(json.dumps(bad))
    out = tmp_path / "o"
    files = [str(pb)] if command == "invariants" else [str(pg), str(pb)]
    assert main(["--out", str(out), command, *files]) == 2
    assert "bad system descriptor" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["portrait", "--mu", "0.06", "--eps", "0.001", "--omega=-1,0", "--grid", "11"],
    ["portrait", "--mu", "0.06", "--eps", "0.001", "--omega", "0"],
    ["normcheck", "--mu", "0.05", "--eps", "0.0016", "--omega=-1,0"],
    ["normcheck", "--mu", "0.05", "--eps", "0.0016", "--omega-arg", "0.6"],
])
def test_rotation_outside_sector_exit_parse(args, tmp_path, monkeypatch, capsys):
    import resunfold.cli as cli

    def traced(*a, **k):
        raise AssertionError("traced before the rotation was checked")
    for name in ("classify_regions", "trace_trajectory", "inner_arc_solutions"):
        monkeypatch.setattr(cli, name, traced)
    assert main(["--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "|arg omega| < eta" in err


@pytest.mark.parametrize("args, message", [
    (["portrait", "--mu", "0.06", "--eps", "0.001", "--grid", "0"], "--grid must be >= 2"),
    (["normcheck", "--mu", "0.05", "--eps", "0.0016", "--trace-step", "0"],
     "--trace-step must be positive"),
    (["kappa", "--samples", "0"], "--samples must be >= 1"),
    (["kappa", "--samples", "-3"], "--samples must be >= 1"),
    (["--order", "1", "normalform", "inv.json"], "--order must be >= 2"),
    (["--gamma-tol", "1e-3", "invariants", "m.json"], "--gamma-tol must lie in [1e-13, 1e-6]"),
    (["--tol", "nan", "equiv", "a.json", "b.json"], "--tol must be positive"),
])
def test_numeric_options_checked_first(args, message, tmp_path, monkeypatch, capsys):
    import resunfold.cli as cli

    def work(*a, **k):
        raise AssertionError("worked before the options were checked")
    for name in ("classify_regions", "inner_arc_solutions", "batch_verify",
                 "build_q_form", "ParametricSystem"):
        monkeypatch.setattr(cli, name, work)
    assert main(["--out", str(tmp_path / "o"), *args]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and message in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["invariants", "equiv"])
def test_contour_too_close_exit_parse(command, tmp_path, capsys):
    """A validity radius too small for a contour around both zeros of h is
    a config error, reported in one line."""
    p = write_system(model_system(0.1, 0.01), tmp_path / "m.json")
    files = [p] if command == "invariants" else [p, p]
    assert main(["--out", str(tmp_path / "o"), command, *files,
                 "--validity-radius", "0.1"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "validity radius too small" in err


GOLDEN = Path(__file__).resolve().parent / "golden"


# flow-layer runs whose outputs were written by the CLI before the two RK4
# loops shared one step; trajectories.csv (1.26 MB) is kept as its SHA-256
FLOW_RUNS = {
    "portrait": ["--seed", "1", "portrait", "--mu=0.05,0.02", "--eps=0.0016,0.0005",
                 "--omega-arg=-0.3", "--grid", "21", "--trajectories", "2"],
    "normcheck": ["normcheck", "--mu=0.05", "--eps=0.0016"],
}


@pytest.mark.parametrize("name", ["model", "random", "portrait", "normcheck"])
def test_outputs_keep_golden_bytes(name, tmp_path):
    """invariants -> normalform -> equiv on a model and a random K=24
    descriptor reproduces files written by the CLI before series matrices
    became (K, 2, 2) arrays, byte for byte; so does a descriptor round trip.
    portrait and normcheck reproduce the files of ``FLOW_RUNS``."""
    d, out = GOLDEN / name, tmp_path / "o"
    if name in FLOW_RUNS:
        assert main(["--out", str(out), *FLOW_RUNS[name]]) == 0
        for golden in sorted(d.iterdir()):
            if golden.suffix == ".sha256":
                digest = hashlib.sha256((out / golden.stem).read_bytes()).hexdigest()
                assert digest == golden.read_text().strip(), golden.stem
            else:
                assert (out / golden.name).read_bytes() == golden.read_bytes(), golden.name
        return
    assert main(["--out", str(out), "invariants", str(d / "system.json")]) == 0
    assert main(["--out", str(out), "normalform", str(d / "invariants.json")]) == 0
    assert main(["--out", str(out), "equiv", str(d / "system.json"),
                 str(d / "normalform.json")]) == 0
    for f in ("invariants.json", "normalform.json", "equiv.json"):
        assert (out / f).read_bytes() == (d / f).read_bytes(), f
    ParametricSystem.load(d / "system.json").save(tmp_path / "system.json")
    assert (tmp_path / "system.json").read_bytes() == (d / "system.json").read_bytes()


def decaying_descriptor(path, base, scale=6.0):
    """h = z^2 + 4, zeros at +-2i, and a K=24 A with standard normal entries
    (seed 3) whose z^l coefficient is scaled by base^l, written in the
    coordinate x = z / scale: h / scale^2 = x^2 + 4 / scale^2 and
    A(scale x) / scale.  The default scale puts the zeros at +-i/3, inside
    the unit disc, and leaves gamma and the transport's steps as they are."""
    powers = np.arange(24)[:, None, None]
    A = np.random.default_rng(3).normal(size=(24, 2, 2)) * (scale * base) ** powers
    return write_system(ParametricSystem(4.0 / scale ** 2, 0.0,
                                         CSeriesMat2.from_coeffs(A / scale)), path)


@pytest.mark.parametrize("command", ["invariants", "equiv"])
def test_step_underflow_exit_parse(command, tmp_path, capsys):
    """At base 0.5 a local Taylor series of the transport does not converge
    within the term cap: a one-line error with exit 2, no output file."""
    p = decaying_descriptor(tmp_path / "d.json", 0.5)
    out = tmp_path / "o"
    assert main(["--out", str(out), command, *([p] if command == "invariants" else [p, p])]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "did not converge" in err
    assert not out.exists()


def test_step_cap_bounds_transport_work(tmp_path, capsys):
    """At base 0.3 the transport needs ~2e5 steps and ends in NaN without
    a step cap; with it the command exits 2 in seconds.  At base 0.2 (~100
    steps) it still exits 0 with finite numbers."""
    started = time.perf_counter()
    out = tmp_path / "o"
    assert main(["--out", str(out), "invariants",
                 decaying_descriptor(tmp_path / "d3.json", 0.3)]) == 2
    assert time.perf_counter() - started < 60.0
    assert "Taylor steps" in capsys.readouterr().err
    assert not out.exists()
    assert main(["--out", str(out), "invariants",
                 decaying_descriptor(tmp_path / "d2.json", 0.2)]) == 0
    data = json.loads((out / "invariants.json").read_text())
    assert all(math.isfinite(x) for key in ("gamma", "est_error")
               for x in np.ravel(data[key]))


def test_root_outside_unit_disc_exit_parse(tmp_path, capsys):
    """extract_formal divides by h from the top down, which is stable for
    zeros of h in the unit disc: h = z^2 + 4 (zeros +-2i) exits 2 with a
    one-line error and no output.  Its image in x = z / 6 (zeros +-i/3) is
    accepted; its gamma, 9.785, is what the refused input's transport
    gives too, so the refusal guards the documented domain."""
    out = tmp_path / "o"
    for command in ("invariants", "equiv"):
        p = decaying_descriptor(tmp_path / "d.json", 0.2, scale=1.0)
        files = [p] if command == "invariants" else [p, p]
        assert main(["--out", str(out), command, *files]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "outside the unit disc" in err
        assert not out.exists()
    assert main(["--out", str(out), "invariants",
                 decaying_descriptor(tmp_path / "x.json", 0.2)]) == 0
    data = json.loads((out / "invariants.json").read_text())
    assert abs(complex(*data["gamma"]) - 9.785153136957) < 1e-9 + data["est_error"]


@pytest.mark.filterwarnings("ignore:overflow encountered in det:RuntimeWarning")
def test_invariants_refuses_unreliable_gamma(tmp_path, capsys):
    """invariants exits 5 when est_error is not small against max(1, |gamma|),
    and writes nothing; the library call still returns the raw result.

    A = diag(120 z^2, -120 z^2) + [[0, 1], [0, 0]] with h = z^2 + 0.01 has
    gamma_numeric = 1.99996 + 5.6e-5 i with est_error = 4.8e195, but alpha1 = 0,
    so invariants stops at NonGeneric (exit 3) before any transport.  With
    A_21 = z (alpha1 = 1) the transport overflows the same way and
    est_error reads inf."""
    from resunfold.algebra import CSeries
    from resunfold.cli import EXIT_CODES, EXIT_UNRELIABLE, UnreliableGamma
    K = 24
    out = tmp_path / "o"
    for a21, code in (([0.0], 3), ([0.0, 1.0], EXIT_UNRELIABLE)):
        A = CSeriesMat2(CSeries([0.0, 0.0, 120.0], K), CSeries.one(K), CSeries(a21, K),
                        CSeries([0.0, 0.0, -120.0], K))
        system = ParametricSystem(0.01, 0.0, A)
        res = gamma_numeric(system)
        assert not res.est_error <= 1e-3 * max(1.0, abs(res.gamma))
        assert main(["--out", str(out), "invariants",
                     write_system(system, tmp_path / "u.json")]) == code
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert not out.exists()
    assert EXIT_CODES[UnreliableGamma] == EXIT_UNRELIABLE == 5
