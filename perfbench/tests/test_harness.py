"""Self-tests of the benchmark harness: percentile rule, span arithmetic,
the oracle gate on corrupted outputs, and BENCHMARK.json consistency.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# op_ms_tail: the highest percentile with at least 10 samples beyond it


def test_tail_rule_picks_the_eleventh_largest():
    value, pct, n = stats.tail(list(range(1, 101)))
    assert (value, n) == (90, 100)
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in range(1, 101)) == 10


def test_tail_rule_small_samples():
    assert stats.tail(list(range(10))) is None
    value, pct, n = stats.tail([5.0] + [1.0] * 10)
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100.0 / 11.0)


def test_spread_is_interquartile_share_of_median():
    vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = stats.quartiles(vals)
    assert stats.spread(vals) == pytest.approx((q3 - q1) / q2)


# ---------------------------------------------------------------------------
# self time on synthetic nested spans


def _spans(rows, names):
    """rows: (name, start, end, parent, op)."""
    return {
        "name": np.array([names.index(r[0]) for r in rows], dtype=np.int64),
        "start": np.array([r[1] for r in rows], dtype=float),
        "end": np.array([r[2] for r in rows], dtype=float),
        "parent": np.array([r[3] for r in rows], dtype=np.int64),
        "op": np.array([r[4] for r in rows], dtype=np.int64),
        "rhs": np.zeros(len(rows), dtype=np.int64),
        "failed": np.zeros(len(rows), dtype=np.int8),
    }


NAMES = [tracing.OP_SPAN, "monodromy.gamma_numeric", "monodromy.propagate", "cli.main"]


def test_self_time_subtracts_direct_children_only():
    a = _spans([(tracing.OP_SPAN, 0.0, 10.0, -1, 0),
                ("monodromy.gamma_numeric", 1.0, 6.0, 0, 0),
                ("monodromy.propagate", 2.0, 4.0, 1, 0),
                ("cli.main", 7.0, 9.0, 0, 0)], NAMES)
    assert tracing.self_times(a).tolist() == pytest.approx([3.0, 3.0, 2.0, 2.0])
    acct = tracing.accounting(a, NAMES)
    assert acct["nested"] and acct["self_sum_gap_max"] < 1e-12
    assert acct["unattributed_frac"] == pytest.approx(0.3)
    assert not acct["ok"]          # 30 % harness glue is not accounted for by layers


def test_accounting_accepts_covered_ops_and_rejects_overlap():
    ok = _spans([(tracing.OP_SPAN, 0.0, 10.0, -1, 0),
                 ("monodromy.gamma_numeric", 0.1, 9.9, 0, 0),
                 (tracing.OP_SPAN, 20.0, 21.0, -1, 1),
                 ("cli.main", 20.0, 21.0, 2, 1)], NAMES)
    acct = tracing.accounting(ok, NAMES)
    assert acct["ok"] and acct["ops"] == 2
    assert acct["unattributed_frac"] == pytest.approx(0.2 / 11.0)
    bad = _spans([(tracing.OP_SPAN, 0.0, 10.0, -1, 0),
                  ("monodromy.gamma_numeric", 0.0, 11.0, 0, 0)], NAMES)
    assert not tracing.accounting(bad, NAMES)["nested"]


def test_layer_metrics_useful_rhs_fraction():
    names = NAMES
    a = _spans([(tracing.OP_SPAN, 0.0, 10.0, -1, 0),
                ("monodromy.gamma_numeric", 0.0, 10.0, 0, 0),
                ("monodromy.propagate", 0.0, 3.0, 1, 0),
                ("monodromy.propagate", 3.0, 10.0, 1, 0)], names)
    a["rhs"] = np.array([300, 300, 100, 200])
    notes = {2: 1e-9, 3: 1e-10}
    out = tracing.layer_metrics(a, names, {}, notes)
    assert out["monodromy.rhs_evals"] == 300
    assert out["monodromy.rhs_evals_per_gamma"] == 300
    assert out["monodromy.useful_rhs_frac"] == pytest.approx(2.0 / 3.0)
    assert out["monodromy.propagate.self_s"] == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# the gate fails on corrupted outputs


@pytest.fixture(scope="module")
def R():
    import resunfold
    import resunfold.cli  # noqa: F401
    return resunfold


def test_gate_rejects_shifted_gamma(R, tmp_path):
    op = next(o for o in workloads.gamma_corpus(R, 5, str(tmp_path), rounds=1).ops
              if o.kind == "qform")
    F, params, res = op.run()
    assert op.check((F, params, res)).ok
    shifted = dataclasses.replace(res, gamma=res.gamma + 1e-3)
    chk = op.check((F, params, shifted))
    assert not chk.ok and chk.accuracy["gamma_err_max"] > 9e-4


def test_gate_rejects_flipped_verdicts(R, tmp_path):
    ops = {o.kind: o for o in workloads.gamma_corpus(R, 5, str(tmp_path), rounds=1).ops}
    assert ops["equiv_gauge"].check(("Equivalent", {})).ok
    assert not ops["equiv_gauge"].check(("NotEquivalent", {})).ok
    assert not ops["equiv_gauge"].check(("Indeterminate", {})).ok
    assert ops["equiv_formal"].check(("NotEquivalent", {"reason": "formal"})).ok
    # NotEquivalent reached by computing gamma is not the early exit
    assert not ops["equiv_formal"].check(("NotEquivalent", {"gamma_a": 1.0,
                                                           "gamma_b": 2.0})).ok


def test_gate_rejects_corrupted_trajectory(R, tmp_path):
    op = workloads.cli_sweep(R, 5, str(tmp_path), rounds=1).ops[0]
    assert op.run() == 0
    assert op.check(0).ok
    assert not op.check(2).ok
    path = Path(op.out_dir) / "trajectories.csv"
    lines = path.read_text().splitlines()
    k = len(lines) // 2
    traj, xi, re_s, im_s = lines[k].split(",")
    lines[k] = f"{traj},{xi},{float(re_s) + 1e-4!r},{im_s}"
    path.write_text("\n".join(lines) + "\n")
    assert not op.check(0).ok


def test_run_verdict_fails_on_any_failed_op():
    assert run.verdict({"failed": 0, "trace": 0})
    assert not run.verdict({"failed": 1, "trace": 0})
    traced = {"failed": 0, "trace": 1, "accounting": {"ok": True}, "missing_spans": []}
    assert run.verdict(traced)
    assert not run.verdict({**traced, "missing_spans": ["monodromy.propagate"]})
    assert not run.verdict({**traced, "accounting": {"ok": False}})


# ---------------------------------------------------------------------------
# oracles


@pytest.mark.parametrize("mu,eps", [(0.09, 0.0049), (0.05 + 0.02j, 0.0016 + 0.0005j),
                                    (0.04, 0.0), (0.1 + 0.03j, (0.1 + 0.03j) ** 2),
                                    (0.0, 0.0)])
def test_theta_closed_forms_are_antiderivatives(mu, eps):
    th, jumps = oracles.theta_branches(mu, eps)
    s = np.array([0.31 + 0.12j, -0.2 + 0.35j, 0.4 - 0.1j])
    h = 1e-6
    fd = (th(s + h) - th(s - h)) / (2 * h)
    assert np.allclose(fd, oracles.theta_deriv(s, mu, eps), rtol=1e-6)
    assert abs(th(np.array([1e8 + 0j]))[0]) < 1e-6
    for j in jumps:
        assert abs(j) > 0


def test_q_for_gamma_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        q = 0.3 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        target = oracles.gamma_q(q) + 1e-3
        q2 = oracles.q_for_gamma(target, q)
        assert abs(oracles.gamma_q(q2) - target) < 1e-10
        assert abs(q2 - q) < 0.1


def test_gamma_linear_matches_package(R):
    rng = np.random.default_rng(4)
    A0 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    A1 = rng.uniform(-1, 1, (2, 2)) + 1j * rng.uniform(-1, 1, (2, 2))
    assert abs(oracles.gamma_linear(A1) - R.gamma_closed_form(A0, A1)) < 1e-12


# ---------------------------------------------------------------------------
# BENCHMARK.json matches what the harness prints


def test_benchmark_json_lists_the_printed_metrics():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [k for k, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
