import json
import math
import os
import stat
import sys
import threading

import numpy as np
import pytest

import shadowspec as ss
from shadowspec.cli import _write_atomic, main

W_HI = 2.0 * math.sqrt(2.0)
W_LO = 1.0 / W_HI

# example17 --seed 17 tables, pinned to the byte
EXAMPLE17_SEED17_GAIN_SWEEP = (
    'q,gain_measured,gain_identity\n'
    '1.2,1.818181818182e-01,1.818181818182e-01\n'
    '1.1,9.523809523810e-02,9.523809523810e-02\n'
    '1.05,4.878048780488e-02,4.878048780488e-02\n'
    '1.01,9.950248756219e-03,9.950248756219e-03\n'
)
EXAMPLE17_SEED17_ORACLE_TREND = (
    'operator,N,epsilon\n'
    'S,8,1.220261080726e-03\n'
    'S,16,1.196698982463e-03\n'
    'S,32,1.510679013893e-03\n'
    'S,64,1.511778286180e-03\n'
    'T,8,2.383447256748e+00\n'
    'T,16,8.578784891751e+03\n'
    'T,32,9.929260166692e+10\n'
    'T,64,3.851268831426e+25\n'
)


@pytest.fixture
def dense_op_file(tmp_path):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(ss.operator_to_json(ss.diagonal([2.0, 0.5]))))
    return path


@pytest.fixture
def shift_op_file(tmp_path):
    path = tmp_path / "shift.json"
    payload = {
        "kind": "shift",
        "direction": "forward",
        "weight_pos": W_HI,
        "weight_neg": W_LO,
        "crossover": 0,
    }
    path.write_text(json.dumps(payload))
    return path


class TestAnalyze:
    def test_dense_report(self, dense_op_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(dense_op_file), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["verdicts"] == {
            "hyperbolic": True,
            "uniformly_expansive": True,
            "shadowing": True,
        }
        assert doc["report"]["gap_sigma"] == pytest.approx(0.5)
        assert doc["config"]["command"] == "analyze"

    def test_shift_report_matches_expected_verdicts(self, shift_op_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(shift_op_file), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["verdicts"] == {
            "hyperbolic": False,
            "uniformly_expansive": True,
            "shadowing": False,
        }
        artifacts = doc["report"]["window_artifact_eigenvalues"]
        assert "window artifact" in artifacts["label"]
        assert len(artifacts["values"]) == 2 * doc["config"]["window"] + 1

    def test_identity_all_false(self, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(ss.operator_to_json(ss.identity(2))))
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["report"]["verdicts"] == {
            "hyperbolic": False,
            "uniformly_expansive": False,
            "shadowing": False,
        }

    def test_repeat_runs_are_byte_identical(self, dense_op_file, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        args = ["analyze", "--input", str(dense_op_file), "--seed", "3", "--nodes", "128"]
        assert main(args + ["--output", str(first)]) == 0
        assert main(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_kind_mismatch_is_input_error(self, dense_op_file, tmp_path):
        rc = main(
            ["analyze", "--input", str(dense_op_file), "--kind", "shift",
             "--output", str(tmp_path / "x.json")]
        )
        assert rc == 2

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--input", str(bad), "--output", str(tmp_path / "x.json")]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["analyze", "--input", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "dense", "dim": 1.9, "entries": [[2.0, 0.0]]},
            {"kind": "shift", "direction": "forward", "weight_pos": W_HI,
             "weight_neg": W_LO, "crossover": 1.5},
        ],
    )
    def test_non_integral_dim_or_crossover_is_input_error(self, tmp_path, capsys, payload):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert main(["analyze", "--input", str(path), "--output", str(out)]) == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()


class TestShadow:
    def test_reports_both_epsilons_and_bound(self, dense_op_file, tmp_path):
        out = tmp_path / "shadow.json"
        rc = main(
            ["shadow", "--input", str(dense_op_file), "--output", str(out),
             "--window", "15", "--delta", "1e-3", "--seed", "4"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        shadow, oracle = doc["shadow"], doc["oracle"]
        assert shadow["epsilon_achieved"] <= shadow["epsilon_bound"]
        assert oracle["epsilon_achieved"] <= shadow["epsilon_achieved"] + 1e-8
        assert max(doc["orbit"]["defect_norms"]) <= 1e-3 * (1 + 1e-9)

    def test_zero_delta_gives_zero_epsilons(self, dense_op_file, tmp_path):
        out = tmp_path / "shadow.json"
        rc = main(
            ["shadow", "--input", str(dense_op_file), "--output", str(out), "--delta", "0"]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["shadow"]["epsilon_achieved"] < 1e-12
        assert doc["oracle"]["epsilon_achieved"] < 1e-12

    def test_identity_exits_with_certificate_failure(self, tmp_path, capsys):
        path = tmp_path / "id.json"
        path.write_text(json.dumps(ss.operator_to_json(ss.identity(2))))
        rc = main(["shadow", "--input", str(path), "--output", str(tmp_path / "x.json")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "r_plus=1.0" in err

    def test_explicit_splitting_from_input_file(self, tmp_path):
        payload = ss.operator_to_json(ss.diagonal([2.0, 0.5]))
        payload["splitting"] = ss.operator_to_json(ss.diagonal([0.0, 1.0]))
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "shadow.json"
        assert main(["shadow", "--input", str(path), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["shadow"]["r_plus"] == pytest.approx(0.5, abs=1e-12)

    def test_shift_operator_is_input_error(self, shift_op_file, tmp_path):
        rc = main(["shadow", "--input", str(shift_op_file), "--output", str(tmp_path / "x.json")])
        assert rc == 2

    def test_q_override_is_used(self, dense_op_file, tmp_path):
        out = tmp_path / "shadow.json"
        assert main(["shadow", "--input", str(dense_op_file), "--output", str(out), "--q", "0.9"]) == 0
        doc = json.loads(out.read_text())
        assert doc["shadow"]["q_used"] == 0.9
        assert doc["config"]["q"] == 0.9
        assert "tail_K" not in doc["shadow"]

    @pytest.mark.parametrize("q", ["1.5", "1.0", "0", "-0.5"])
    def test_q_outside_unit_interval_is_input_error(self, dense_op_file, tmp_path, q):
        rc = main(["shadow", "--input", str(dense_op_file), "--output", str(tmp_path / "x.json"),
                   "--q", q])
        assert rc == 2

    def test_uncertified_envelope_tail_exits_with_certificate_failure(self, tmp_path, capsys):
        payload = ss.operator_to_json(ss.diagonal([0.5, 1e6]))
        payload["splitting"] = ss.operator_to_json(ss.DenseOperator([[1.0, 1.0], [0.0, 0.0]]))
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "shadow.json"
        rc = main(["shadow", "--input", str(path), "--output", str(out), "--window", "5"])
        assert rc == 4
        assert "envelope not certified" in capsys.readouterr().err
        assert not out.exists()


class TestProbe:
    def test_csv_ladder(self, dense_op_file, tmp_path):
        out = tmp_path / "probe.csv"
        rc = main(["probe", "--input", str(dense_op_file), "--output", str(out), "--window", "8"])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,gain"
        ns = [int(line.split(",")[0]) for line in lines[1:]]
        gains = [float(line.split(",")[1]) for line in lines[1:]]
        assert ns == [1, 2, 4, 8]
        assert all(g > 0 for g in gains)

    def test_shift_ladder_at_window_64(self, shift_op_file, tmp_path):
        # compressions to nested windows: the gains may only fall, and stay
        # resolved while they shrink far below eps * ||matrix||
        out = tmp_path / "probe.csv"
        rc = main(["probe", "--input", str(shift_op_file), "--output", str(out), "--window", "64"])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [int(n) for n, _ in rows] == [8, 16, 32, 64]
        gains = [float(g) for _, g in rows]
        assert all(g > 0 for g in gains)
        assert all(b <= a for a, b in zip(gains, gains[1:]))


class TestWriteAtomic:
    def test_concurrent_writers_to_one_path(self, tmp_path):
        target = tmp_path / "out" / "report.json"
        errors = []

        def writer(tag):
            try:
                for i in range(300):
                    _write_atomic(target, f"{tag} {i}\n")
            except Exception as exc:
                errors.append(exc)

        tags = "abcd"  # more writers than cores
        threads = [threading.Thread(target=writer, args=(tag,)) for tag in tags]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert target.read_text() in {f"{tag} 299\n" for tag in tags}
        assert [p.name for p in target.parent.iterdir()] == ["report.json"]

    def test_file_mode_follows_the_umask(self, tmp_path):
        # mkstemp alone would leave the report readable by its owner only
        umask = os.umask(0)
        os.umask(umask)
        target = tmp_path / "report.json"
        _write_atomic(target, "{}\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "report.json"
        with pytest.raises(UnicodeEncodeError):
            _write_atomic(target, "\ud800")
        assert list(tmp_path.iterdir()) == []


class TestExample17:
    def test_bundle_contents(self, tmp_path):
        out_dir = tmp_path / "bundle"
        assert main(["example17", "--output", str(out_dir), "--seed", "1"]) == 0
        report = json.loads((out_dir / "report.json").read_text())

        assert report["annulus_radii"]["inner"] == pytest.approx(W_LO, abs=1e-12)
        assert report["annulus_radii"]["outer"] == pytest.approx(W_HI, abs=1e-12)

        verdicts = {name: report["verdicts"][name]["verdicts"] for name in ("T", "S")}
        assert verdicts["T"] == {
            "hyperbolic": False, "uniformly_expansive": True, "shadowing": False,
        }
        assert verdicts["S"] == {
            "hyperbolic": False, "uniformly_expansive": False, "shadowing": True,
        }

        gains = {row["q"]: row["gain_measured"] for row in report["gain_sweep_for_T"]}
        assert gains[1.01] < gains[1.05] < gains[1.2]
        assert gains[1.01] < 0.1

        rows = report["oracle_epsilon_trend"]["rows"]
        eps = {(r["operator"], r["N"]): r["epsilon"] for r in rows}
        t_eps = [eps[("T", n)] for n in (8, 16, 32, 64)]
        s_eps = [eps[("S", n)] for n in (8, 16, 32, 64)]
        assert all(b >= 4 * a for a, b in zip(t_eps, t_eps[1:]))
        assert max(s_eps) < 2 * min(s_eps)

        assert (out_dir / "gain_sweep.csv").exists()
        assert (out_dir / "oracle_trend.csv").exists()
        assert any("trend" in note for note in report["notes"])

    def test_seed_17_tables_are_pinned(self, tmp_path):
        out_dir = tmp_path / "bundle"
        assert main(["example17", "--output", str(out_dir), "--seed", "17"]) == 0
        assert (out_dir / "gain_sweep.csv").read_text() == EXAMPLE17_SEED17_GAIN_SWEEP
        assert (out_dir / "oracle_trend.csv").read_text() == EXAMPLE17_SEED17_ORACLE_TREND
