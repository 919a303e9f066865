import importlib
import json
import math
import os
import stat
import sys
import threading

import numpy as np
import pytest

import shadowspec as ss
import shadowspec.cli
from shadowspec.cli import _write_atomic, main
from _helpers import qr_unitary

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
EXAMPLE17_SEED17_GAIN_HEX = [
    (1.2, "0x1.745d1745d1774p-3", "0x1.745d1745d1743p-3"),
    (1.1, "0x1.861861861865ap-4", "0x1.861861861861cp-4"),
    (1.05, "0x1.8f9c18f9c1946p-5", "0x1.8f9c18f9c1900p-5"),
    (1.01, "0x1.460cbc7f5cfd6p-7", "0x1.460cbc7f5cfa1p-7"),
]
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
EXAMPLE17_SEED17_ORACLE_TREND_HEX = [
    ("S", 8, "0x1.3fe255bcb96e5p-10"),
    ("S", 16, "0x1.39b51bf8a9405p-10"),
    ("S", 32, "0x1.8c03f3d672d00p-10"),
    ("S", 64, "0x1.8c4db93118bb6p-10"),
    ("T", 8, "0x1.3114ccb9bcde1p+1"),
    ("T", 16, "0x1.0c16477553954p+13"),
    ("T", 32, "0x1.71e4cdd42ead2p+36"),
    ("T", 64, "0x1.fdb6104557724p+84"),
]


# sorted key paths and JSON value types of four reports, pinned so that a
# renamed, dropped or retyped key fails; "[]" marks the elements of an array
ANALYZE_DENSE_SCHEMA = """
$.config.command string
$.config.delta float
$.config.input string
$.config.kind null
$.config.nodes int
$.config.q null
$.config.seed int
$.config.tol float
$.config.window int
$.operator.dim int
$.operator.entries[][] float
$.operator.kind string
$.report.eigenvalues[][] float
$.report.gap_sigma float
$.report.justification.hyperbolic string
$.report.justification.shadowing string
$.report.justification.uniformly_expansive string
$.report.shift_spectra null
$.report.verdicts.hyperbolic bool
$.report.verdicts.shadowing bool
$.report.verdicts.uniformly_expansive bool
"""
ANALYZE_SHIFT_SCHEMA = """
$.config.command string
$.config.delta float
$.config.input string
$.config.kind null
$.config.nodes int
$.config.q null
$.config.seed int
$.config.tol float
$.config.window int
$.operator.crossover int
$.operator.direction string
$.operator.kind string
$.operator.weight_neg float
$.operator.weight_pos float
$.report.eigenvalues null
$.report.gap_sigma float
$.report.justification.hyperbolic string
$.report.justification.shadowing string
$.report.justification.uniformly_expansive string
$.report.shift_spectra.annulus_inner float
$.report.shift_spectra.annulus_outer float
$.report.shift_spectra.approx_point.kind string
$.report.shift_spectra.approx_point.radii[] float
$.report.shift_spectra.point_spectrum null
$.report.verdicts.hyperbolic bool
$.report.verdicts.shadowing bool
$.report.verdicts.uniformly_expansive bool
$.report.window_artifact_eigenvalues.half_width int
$.report.window_artifact_eigenvalues.label string
$.report.window_artifact_eigenvalues.values[][] float
"""
SHADOW_SCHEMA = """
$.config.command string
$.config.delta float
$.config.input string
$.config.kind null
$.config.nodes int
$.config.q null
$.config.seed int
$.config.tol float
$.config.window int
$.operator.dim int
$.operator.entries[][] float
$.operator.kind string
$.oracle.best_anchor[][] float
$.oracle.condition float
$.oracle.epsilon_achieved float
$.orbit.defect_norms[] float
$.orbit.delta float
$.orbit.window[] int
$.shadow.K_used float
$.shadow.anchor[][] float
$.shadow.epsilon_achieved float
$.shadow.epsilon_bound float
$.shadow.q_used float
$.shadow.r_minus float
$.shadow.r_plus float
$.shadow.recurrence_residual float
$.splitting.commutation float
$.splitting.idempotency float
$.splitting.node_halving_residual float
$.splitting.source string
$.splitting.steps int
"""
EXAMPLE17_SCHEMA = """
$.annulus_radii.inner float
$.annulus_radii.outer float
$.config.command string
$.config.delta float
$.config.input null
$.config.kind null
$.config.nodes int
$.config.q null
$.config.seed int
$.config.tol float
$.config.window int
$.gain_sweep_for_T[].gain_identity float
$.gain_sweep_for_T[].gain_measured float
$.gain_sweep_for_T[].q float
$.gain_sweep_for_T[].truncation int
$.notes[] string
$.oracle_epsilon_trend.delta float
$.oracle_epsilon_trend.rows[].N int
$.oracle_epsilon_trend.rows[].epsilon float
$.oracle_epsilon_trend.rows[].operator string
$.verdicts.S.eigenvalues null
$.verdicts.S.gap_sigma float
$.verdicts.S.justification.hyperbolic string
$.verdicts.S.justification.shadowing string
$.verdicts.S.justification.uniformly_expansive string
$.verdicts.S.shift_spectra.annulus_inner float
$.verdicts.S.shift_spectra.annulus_outer float
$.verdicts.S.shift_spectra.approx_point.kind string
$.verdicts.S.shift_spectra.approx_point.radii[] float
$.verdicts.S.shift_spectra.point_spectrum.open_annulus[] float
$.verdicts.S.verdicts.hyperbolic bool
$.verdicts.S.verdicts.shadowing bool
$.verdicts.S.verdicts.uniformly_expansive bool
$.verdicts.T.eigenvalues null
$.verdicts.T.gap_sigma float
$.verdicts.T.justification.hyperbolic string
$.verdicts.T.justification.shadowing string
$.verdicts.T.justification.uniformly_expansive string
$.verdicts.T.shift_spectra.annulus_inner float
$.verdicts.T.shift_spectra.annulus_outer float
$.verdicts.T.shift_spectra.approx_point.kind string
$.verdicts.T.shift_spectra.approx_point.radii[] float
$.verdicts.T.shift_spectra.point_spectrum null
$.verdicts.T.verdicts.hyperbolic bool
$.verdicts.T.verdicts.shadowing bool
$.verdicts.T.verdicts.uniformly_expansive bool
"""

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

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("weights, crossover", [((W_HI, W_LO), 0), ((0.7, 1.6), 2)])
    def test_shift_artifacts_are_the_truncation_eigenvalues(
        self, direction, weights, crossover, tmp_path
    ):
        op = ss.ShiftOperator(direction, *weights, crossover)
        path = tmp_path / "shift.json"
        path.write_text(json.dumps(ss.operator_to_json(op)))
        for n in range(1, 9):
            out = tmp_path / f"report{n}.json"
            assert main(["analyze", "--input", str(path), "--output", str(out),
                         "--window", str(n)]) == 0
            eigs = np.linalg.eigvals(ss.materialize(op, n).entries)
            eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
            expected = [[float(z.real), float(z.imag)] for z in eigs]
            values = json.loads(out.read_text())["report"]["window_artifact_eigenvalues"]["values"]
            # compared as JSON text, so a signed zero would show
            assert json.dumps(values) == json.dumps(expected)

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

    def test_missing_input_flag_is_input_error(self, capsys):
        assert main(["analyze"]) == 2
        assert capsys.readouterr().err == "input error: --input is required for this command\n"

    @pytest.mark.parametrize("command", ["analyze", "shadow"])
    def test_shift_splitting_is_input_error(self, command, tmp_path, capsys):
        payload = ss.operator_to_json(ss.diagonal([2.0, 0.5]))
        payload["splitting"] = ss.operator_to_json(ss.ShiftOperator("forward", W_HI, W_LO, 0))
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert main([command, "--input", str(path), "--output", str(out)]) == 2
        assert "explicit splitting must be a dense operator" in capsys.readouterr().err
        assert not out.exists()

    def test_report_without_output_goes_to_stdout(self, dense_op_file, tmp_path, capsys):
        # stdout holds the report alone; with --output, the verdict line and the path
        out = tmp_path / "report.json"
        assert main(["analyze", "--input", str(dense_op_file), "--output", str(out)]) == 0
        assert capsys.readouterr().out.endswith(f"shadowing=True\nwrote {out}\n")
        assert main(["analyze", "--input", str(dense_op_file)]) == 0
        assert capsys.readouterr().out == out.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.json", "report.json"]

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

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"kind": "dense", "dim": True, "entries": [[2.0, 0.0]]},
             "'dim' must be an integer, got True"),
            ({"kind": "dense", "dim": 1, "entries": [[True, False]]},
             "'entries' must be a number, got True"),
            ({"kind": "shift", "direction": "forward", "weight_pos": True,
              "weight_neg": W_LO, "crossover": 0},
             "'weight_pos' must be a number, got True"),
            ({"kind": "shift", "direction": "forward", "weight_pos": W_HI,
              "weight_neg": True, "crossover": 0},
             "'weight_neg' must be a number, got True"),
            ({"kind": "shift", "direction": "forward", "weight_pos": W_HI,
              "weight_neg": W_LO, "crossover": False},
             "'crossover' must be an integer, got False"),
        ],
        ids=["dim", "entries", "weight_pos", "weight_neg", "crossover"],
    )
    def test_json_boolean_is_input_error(self, tmp_path, capsys, payload, message):
        # Python reads true as 1 and false as 0: a 1 x 1 operator, a weight of 1.0,
        # crossover 0, an entry 1+0j
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "x.json"
        assert main(["analyze", "--input", str(path), "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"input error: {message}\n"
        assert not out.exists()

    def test_operator_past_the_eigenvalue_cap_is_input_error(self, tmp_path, capsys):
        # singular as well: it exited 3 while inverse ran before the cap's check
        d = ss.spectral.EIGEN_DIM_CAP + 1
        path = tmp_path / "op.json"
        path.write_text(json.dumps(ss.operator_to_json(ss.DenseOperator(np.zeros((d, d))))))
        assert main(["analyze", "--input", str(path), "--output", str(tmp_path / "x.json")]) == 2
        assert f"capped at dimension {d - 1}, got {d}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.json"]

    def test_crossover_past_the_float_range_is_input_error(self, tmp_path, capsys):
        # float(10**400) raised OverflowError, a numerical failure (exit 3)
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"kind": "shift", "direction": "forward", "weight_pos": W_HI,
                                    "weight_neg": W_LO, "crossover": 10**400}))
        assert main(["analyze", "--input", str(path), "--output", str(tmp_path / "x.json")]) == 2
        assert "'crossover' must be an integer within the float range" in capsys.readouterr().err


class TestFlagValidation:
    @pytest.mark.parametrize("command", ["analyze", "shadow", "probe", "example17"])
    def test_negative_window_is_input_error(self, command, shift_op_file, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main([command, "--input", str(shift_op_file), "--output", str(out), "--window", "-3"])
        assert rc == 2
        assert "--window" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "shadow", "probe", "example17"])
    @pytest.mark.parametrize("nodes", ["7", "100"])
    def test_nodes_contour_config_rejects_are_input_errors(
        self, command, nodes, dense_op_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rc = main([command, "--input", str(dense_op_file), "--output", str(out), "--nodes", nodes])
        assert rc == 2
        assert f"--nodes {nodes}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("shadow", "--delta", "nan"),
            ("shadow", "--delta", "inf"),
            ("analyze", "--tol", "nan"),
            ("analyze", "--tol", "inf"),
            ("example17", "--delta", "nan"),
        ],
    )
    def test_non_finite_flags_are_input_errors(
        self, command, flag, value, dense_op_file, tmp_path, capsys
    ):
        out = tmp_path / "out"
        rc = main([command, "--input", str(dense_op_file), "--output", str(out), flag, value])
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.json"]

    def test_overflowing_report_is_a_numerical_failure(self, dense_op_file, tmp_path, capsys):
        # JSON has no Infinity: the report is refused before anything is
        # written, and stderr holds the typed line alone (no numpy warning)
        out = tmp_path / "out"
        flags = ["--window", "3", "--delta", "1e300"]
        rc = main(["shadow", "--input", str(dense_op_file), "--output", str(out), *flags])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical failure: pseudo-orbit has a non-finite state or defect norm\n"
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.json"]

    def test_drawn_defect_above_delta_is_a_numerical_failure(self, tmp_path, capsys):
        # kappa(A) ~ 2e10: seed 2's re-read defect exceeds delta by rounding alone,
        # a numerical failure of a valid operator file, not an input error
        path = tmp_path / "op.json"
        path.write_text(json.dumps(ss.operator_to_json(ss.DenseOperator([[1e5, 1e5], [0.0, 1e-5]]))))
        rc = main(["shadow", "--input", str(path), "--output", str(tmp_path / "out"),
                   "--window", "2", "--seed", "2"])
        assert rc == 3
        assert capsys.readouterr().err == "numerical failure: defect norm 1.020e-03 exceeds delta 1.000e-03\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["op.json"]


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

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: a growing orbit's epsilon 6.06 passes its bound 4.54e-3, exit 0",
    )
    def test_growing_orbit_is_shadowed_within_its_bound_or_refused(self, tmp_path):
        u = qr_unitary(np.random.default_rng(3), 4)
        path, out = tmp_path / "op.json", tmp_path / "shadow.json"
        op = ss.DenseOperator(u @ np.diag([4.0, 0.25, 3.6, 1 / 3.6]) @ u.conj().T)
        path.write_text(json.dumps(ss.operator_to_json(op)))
        rc = main(["shadow", "--input", str(path), "--output", str(out), "--window", "30"])
        if rc != 3:
            shadow = json.loads(out.read_text())["shadow"]
            assert rc == 0 and shadow["epsilon_achieved"] <= shadow["epsilon_bound"]

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

    @pytest.mark.parametrize(
        "entries, splitting, reason",
        [
            ([[2.0, 0.0], [0.0, 0.5]], [[1.0, 0.0], [0.0, 0.0]], "splitting not certified"),
            ([[0.5, 0.0], [0.0, 1e6]], [[1.0, 1.0], [0.0, 0.0]], "envelope not certified"),
        ],
    )
    def test_certificate_failure_states_the_rates_once(self, entries, splitting, reason, tmp_path, capsys):
        payload = ss.operator_to_json(ss.DenseOperator(entries))
        payload["splitting"] = ss.operator_to_json(ss.DenseOperator(splitting))
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        assert main(["shadow", "--input", str(path), "--output", str(tmp_path / "x.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"certificate failure: {reason}") and err.count("\n") == 1
        assert err.count("r_plus=") == err.count("r_minus=") == 1

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

    def test_unresolved_projector_falls_back_to_certificate_failure(self, tmp_path, capsys):
        # 256 nodes cannot resolve eigenvalues 0.02 from the contour: the
        # projector raises and the identity splitting fails its certificate
        path = tmp_path / "op.json"
        path.write_text(json.dumps(ss.operator_to_json(ss.diagonal([1.02, 0.98]))))
        out = tmp_path / "shadow.json"
        assert main(["shadow", "--input", str(path), "--output", str(out)]) == 4
        err = capsys.readouterr().err
        assert "node-halving residual" in err and "certificate failure" in err
        assert not out.exists()

    @pytest.mark.parametrize("moduli, nodes", [([1.1, 0.5], "256"), ([0.8, 1.25, 0.5], "128")])
    def test_resolved_projector_near_the_circle_shadows(self, moduli, nodes, tmp_path):
        # the node-halving residual (1.1^-128, 0.8^64) is far above the error
        # of the returned projector (its square), which the rule bounds
        v = np.triu(np.full((len(moduli), len(moduli)), 0.5)) + 0.5 * np.eye(len(moduli))
        op = ss.DenseOperator(v @ np.diag(moduli) @ np.linalg.inv(v))
        path = tmp_path / "op.json"
        path.write_text(json.dumps(ss.operator_to_json(op)))
        out = tmp_path / "shadow.json"
        assert main(["shadow", "--input", str(path), "--output", str(out), "--nodes", nodes]) == 0
        assert out.exists()

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



class TestSplittingCertificate:
    CERTIFICATE = ("steps", "node_halving_residual", "idempotency", "commutation")

    def _shadow(self, tmp_path, payload, *flags):
        path = tmp_path / "op.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "shadow.json"
        assert main(["shadow", "--input", str(path), "--output", str(out), *flags]) == 0
        return json.loads(out.read_text())["splitting"]

    @pytest.mark.parametrize("nodes, steps", [("16", 4), ("256", 8), ("4096", 12)])
    def test_riesz_certificate_and_steps(self, tmp_path, nodes, steps):
        op = ss.operator_to_json(ss.diagonal([10.0, 0.1]))
        splitting = self._shadow(tmp_path, op, "--nodes", nodes)
        assert splitting["source"] == "riesz"
        assert splitting["steps"] == steps
        # the residual is the half grid's error, 0.1^(nodes/2); the returned
        # projector is good to about its square
        half_grid_error = 0.1 ** (2 ** (steps - 1))
        assert splitting["node_halving_residual"] == pytest.approx(half_grid_error, rel=1e-6)
        assert 0.0 <= splitting["idempotency"] < 1e-12
        assert 0.0 <= splitting["commutation"] < 1e-12

    def test_near_circle_operator_resolves_at_4096_nodes(self, tmp_path):
        op = ss.operator_to_json(ss.diagonal([1.02, 0.98]))
        splitting = self._shadow(tmp_path, op, "--nodes", "4096")
        assert splitting["source"] == "riesz" and splitting["steps"] == 12

    def test_input_splitting_has_no_certificate(self, tmp_path):
        payload = ss.operator_to_json(ss.diagonal([2.0, 0.5]))
        payload["splitting"] = ss.operator_to_json(ss.diagonal([0.0, 1.0]))
        splitting = self._shadow(tmp_path, payload)
        assert splitting == {"source": "input", **dict.fromkeys(self.CERTIFICATE)}

    def test_identity_fallback_has_no_certificate(self, tmp_path, capsys):
        # 256 nodes cannot resolve 0.98, but with nothing outside the circle
        # the identity splitting is the right one and certifies
        splitting = self._shadow(tmp_path, ss.operator_to_json(ss.diagonal([0.98, 0.5])))
        assert splitting == {"source": "identity", **dict.fromkeys(self.CERTIFICATE)}
        assert "node-halving residual" in capsys.readouterr().err

class TestParser:
    def test_cached_parser_gives_each_call_its_own_flags(self, dense_op_file, tmp_path):
        assert shadowspec.cli.build_parser() is shadowspec.cli.build_parser()
        out = tmp_path / "analyze.json"
        for flags, window in ((["--window", "5"], 5), ([], 20)):
            assert main(["analyze", "--input", str(dense_op_file), "--output", str(out), *flags]) == 0
            assert json.loads(out.read_text())["config"]["window"] == window


class TestProbe:
    @pytest.mark.parametrize("op_file", ["dense_op_file", "shift_op_file"])
    @pytest.mark.parametrize(
        "window, ladder", [(8, [1, 2, 4, 8]), (3, [1, 3]), (0, [0])], ids=["8", "3", "0"]
    )
    def test_csv_ladder(self, op_file, window, ladder, request, tmp_path):
        path = request.getfixturevalue(op_file)
        out = tmp_path / "probe.csv"
        rc = main(["probe", "--input", str(path), "--output", str(out), "--window", str(window)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "N,gain"
        ns = [int(line.split(",")[0]) for line in lines[1:]]
        gains = [float(line.split(",")[1]) for line in lines[1:]]
        assert ns == ladder
        assert all(g > 0 for g in gains)

    def test_window_too_large_to_allocate_is_input_error(self, dense_op_file, tmp_path, capsys):
        # the first rung's window matrix would take 364 TiB: numpy refuses it
        # at once with MemoryError, before touching any memory
        out = tmp_path / "probe.csv"
        rc = main(["probe", "--input", str(dense_op_file), "--output", str(out), "--window", "10000000"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: ") and captured.out == ""
        assert not out.exists()

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


JSON_TYPES = {dict: "object", list: "array", str: "string", bool: "bool",
              int: "int", float: "float", type(None): "null"}


def _schema(doc, path="$") -> set:
    """A "path type" line for every leaf and every empty container of a JSON document."""
    if isinstance(doc, dict) and doc:
        return set().union(*(_schema(v, f"{path}.{k}") for k, v in doc.items()))
    if isinstance(doc, list) and doc:
        return set().union(*(_schema(v, f"{path}[]") for v in doc))
    return {f"{path} {JSON_TYPES[type(doc)]}"}


class TestReportSchema:
    @pytest.mark.parametrize(
        "args, expected",
        [
            (["analyze", "--input", "{dense}"], ANALYZE_DENSE_SCHEMA),
            (["analyze", "--input", "{shift}", "--window", "3"], ANALYZE_SHIFT_SCHEMA),
            (["shadow", "--input", "{dense}"], SHADOW_SCHEMA),
        ],
        ids=["analyze-dense", "analyze-shift", "shadow"],
    )
    def test_report_keys_and_types(self, args, expected, dense_op_file, shift_op_file, tmp_path):
        out = tmp_path / "report.json"
        args = [a.format(dense=dense_op_file, shift=shift_op_file) for a in args]
        assert main(args + ["--output", str(out)]) == 0
        assert sorted(_schema(json.loads(out.read_text()))) == expected.strip().splitlines()

    def test_example17_report_keys_and_types(self, tmp_path):
        assert main(["example17", "--output", str(tmp_path), "--seed", "17"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert sorted(_schema(report)) == EXAMPLE17_SCHEMA.strip().splitlines()


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

    def test_import_leaves_the_umask_alone(self, monkeypatch):
        # the umask is process-wide: flipping it races every other thread
        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        importlib.reload(shadowspec.cli)

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

    def test_zero_delta_is_input_error(self, tmp_path, capsys):
        # it used to run the trend at delta 1e-3 while the report's config read 0.0
        out_dir = tmp_path / "bundle"
        assert main(["example17", "--delta", "0", "--output", str(out_dir)]) == 2
        assert "--delta must be positive for example17" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_17_tables_are_pinned(self, tmp_path):
        out_dir = tmp_path / "bundle"
        assert main(["example17", "--output", str(out_dir), "--seed", "17"]) == 0
        assert (out_dir / "gain_sweep.csv").read_text() == EXAMPLE17_SEED17_GAIN_SWEEP
        assert (out_dir / "oracle_trend.csv").read_text() == EXAMPLE17_SEED17_ORACLE_TREND
        # the CSV holds 12 digits; the report holds every one
        report = json.loads((out_dir / "report.json").read_text())
        gains = [(row["q"], row["gain_measured"].hex(), row["gain_identity"].hex())
                 for row in report["gain_sweep_for_T"]]
        assert gains == EXAMPLE17_SEED17_GAIN_HEX
        trend = [(row["operator"], row["N"], row["epsilon"].hex())
                 for row in report["oracle_epsilon_trend"]["rows"]]
        assert trend == EXAMPLE17_SEED17_ORACLE_TREND_HEX
