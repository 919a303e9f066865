"""Fast tests of the benchmark itself: a tiny run of every workload, traced
and untraced, and each correctness check tripping on a wrong input.

    python3 -m pytest shadowbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ALL = sorted(workloads.WORKLOADS)
# a layer each workload exists to exercise
OWN_LAYER = {
    "dense-shadow": "projector.splitting_power_stacks.count",
    "small-dense": "cli.shadow.self_ms",
    "shift-study": "shadowing.bgain_test_sequence.ms",
}


@pytest.mark.parametrize("name", ALL)
def test_tiny_run(name):
    res = run.run(name, seed=3, seconds=0, trace=False, tiny=True)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert res["checks"] and all(c["failed"] == 0 for c in res["checks"].values())
    assert list(res["end_to_end"]) == [name for name, _ in run.END_TO_END]
    assert all(value > 0 for value, _ in res["end_to_end"].values())


@pytest.mark.parametrize("name", ALL)
def test_tiny_traced_run(name):
    res = run.run(name, seed=3, seconds=0, trace=True, tiny=True)
    assert res["correct"] and res["failed"] == 0
    assert list(res["layers"]) == [m[0] for m in spans.METRICS]
    assert res["layers"][OWN_LAYER[name]][0] > 0
    # every binding is put back
    assert not hasattr(sys.modules["shadowspec.shadowing"].decay_rates, "__wrapped__")
    assert not hasattr(sys.modules["shadowspec.cli"].COMMANDS["shadow"], "__wrapped__")


def test_failures_are_counted(monkeypatch):
    cls = workloads.WORKLOADS["dense-shadow"]
    check = cls.check
    monkeypatch.setattr(
        cls, "check", lambda self, i, out: check(self, i, out) + [checks.Check("forced", False)]
    )
    res = run.run("dense-shadow", seed=3, seconds=0, trace=False, tiny=True)
    assert res["failed"] == res["attempted"] and not res["correct"]
    assert res["checks"]["forced"]["failed"] == res["attempted"]

    def boom(self, i):
        raise FloatingPointError("injected")

    monkeypatch.setattr(cls, "job", boom)
    res = run.run("dense-shadow", seed=3, seconds=0, trace=False, tiny=True)
    assert res["failed"] == res["attempted"] >= 1 and not res["correct"]
    # no job returned, so none completed; the latencies are the attempts'
    assert res["end_to_end"]["jobs_per_s"][0] == 0 < res["end_to_end"]["job_p50_ms"][0]


def test_checks_are_not_traced(monkeypatch):
    """Program calls made by a check stay out of the per-layer figures."""
    cls = workloads.WORKLOADS["dense-shadow"]
    check = cls.check

    def check_with_calls(self, i, out):
        for _ in range(5):
            self.sp.riesz_projector(self.inputs[i % self.round_size][0])
        return check(self, i, out)

    res = run.run("dense-shadow", seed=3, seconds=0, trace=True, tiny=True)
    monkeypatch.setattr(cls, "check", check_with_calls)
    busy = run.run("dense-shadow", seed=3, seconds=0, trace=True, tiny=True)
    calls = "projector.riesz_projector"
    assert res["functions"][calls]["calls"] == busy["functions"][calls]["calls"] == 1


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [m[:2] for m in spans.METRICS]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "dense-shadow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_percentile_leaves_ten_beyond():
    values = list(range(100))
    assert run.percentile(values, 90) == 89  # ten values above it
    assert run.percentile(values[:40], 75) == 29


@pytest.mark.parametrize("name", ALL)
def test_tail_is_highest_percentile_with_ten_beyond(name):
    wl = workloads.WORKLOADS[name]()
    values = list(range(wl.min_jobs))

    def beyond(pct):
        return wl.min_jobs - 1 - run.percentile(values, pct)

    assert beyond(wl.tail_pct) >= 10 > beyond(wl.tail_pct + 1)


# --- each check trips on a wrong input ------------------------------------


@pytest.fixture(scope="module")
def shadow_case():
    import shadowspec as sp

    a, lam, v = workloads.planted_operator(np.random.default_rng(7), 4)
    op = sp.DenseOperator(a)
    proj = sp.riesz_projector(op)
    orbit = sp.generate_pseudo_orbit(op, np.zeros(4), 1e-3, (-8, 8), rng_seed=1)
    shadow = sp.construct_shadow(op, proj, orbit)
    oracle = sp.shadow_oracle_lsq(op, orbit)
    states = np.stack([np.asarray(s) for s in orbit.states])
    return a, np.linalg.inv(a), lam, v, proj.entries, states, shadow, oracle


def test_projector_check(shadow_case):
    _, _, lam, v, proj, *_ = shadow_case
    assert checks.projector(proj, v, lam).ok
    assert not checks.projector(proj + 1e-6, v, lam).ok


def test_shadow_distance_check(shadow_case):
    a, a_inv, *_, states, shadow, _ = shadow_case
    assert checks.shadow_distance(states, a, a_inv, -8, shadow.anchor, shadow.epsilon_bound).ok
    shifted = shadow.anchor + 1e-2
    assert not checks.shadow_distance(states, a, a_inv, -8, shifted, shadow.epsilon_bound).ok


def test_oracle_check(shadow_case):
    a, a_inv, *_, states, shadow, oracle = shadow_case
    assert checks.oracle_optimal(states, a, a_inv, -8, oracle.best_anchor, shadow.anchor).ok
    worse = oracle.best_anchor + 1e-3
    assert not checks.oracle_optimal(states, a, a_inv, -8, worse, shadow.anchor).ok


def test_defect_check(shadow_case):
    a, *_, states, _, _ = shadow_case
    assert checks.defects(states, a, 1e-3).ok
    bent = states.copy()
    bent[3] += 1e-2
    assert not checks.defects(bent, a, 1e-3).ok


def test_recurrence_check():
    assert checks.recurrence(1e-12).ok
    assert not checks.recurrence(1e-8).ok


def test_verdict_and_annulus_checks():
    want = {"hyperbolic": False, "uniformly_expansive": True, "shadowing": False}
    assert checks.verdicts(dict(want), want).ok
    assert not checks.verdicts({**want, "shadowing": True}, want).ok
    w = 2.0 * math.sqrt(2.0)
    assert checks.annulus(1.0 / w, w, 1.0 / w, w).ok
    assert not checks.annulus(math.nextafter(1.0 / w, 1.0), w, 1.0 / w, w).ok


def test_gain_check():
    q = 1.2
    assert checks.l1_gain(2 * (q - 1) / (q + 1), q).ok
    assert not checks.l1_gain(2 * (q - 1) / (q + 1) + 1e-7, q).ok


def test_probe_ladder_check():
    assert checks.probe_ladder([0.3, 0.1, 0.01, 2e-4]).ok
    assert not checks.probe_ladder([0.3, 0.31]).ok
    assert not checks.probe_ladder([0.3, 0.0]).ok


def test_oracle_trend_check():
    assert checks.oracle_trend([1e-3, 1.5e-3], [1.0, 10.0]).ok
    assert not checks.oracle_trend([1e-3, 2.5e-3], [1.0, 10.0]).ok
    assert not checks.oracle_trend([1e-3, 1.5e-3], [1.0, 0.5]).ok


def test_outcome_check():
    assert checks.outcome("exit_codes", (0, 4, 0), (0, 4, 0)).ok
    assert not checks.outcome("exit_codes", (0, 0, 0), (0, 4, 0)).ok
    assert not checks.outcome("contour_error", False, True).ok


def test_shift_window_matrix_is_the_materialized_window():
    import shadowspec as sp

    for direction in ("forward", "backward"):
        op = sp.ShiftOperator(direction, 3.0, 0.25, 1)
        mine = checks.shift_window_matrix(direction, 3.0, 0.25, 1, 5)
        assert np.array_equal(mine, sp.materialize(op, 5).entries.real)
