"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N: PASS/FAIL` line (visible with
`pytest -s` or in the captured output).  Random ensembles are built from
explicit eigenvalue-moduli bands: margins around the unit circle are part of
the experiment design, since power-norm horizons and sampled expansivity
witnesses are only meaningful with a quantitative spectral gap, and
unit-circle cases are planted exactly on the circle.
"""

import json
import math
import time

import numpy as np
import pytest

import shadowspec as ss
from shadowspec.cli import main as cli_main
from _helpers import conjugated_diagonal, draw_moduli, random_invertible

W_HI = 2.0 * math.sqrt(2.0)
W_LO = 1.0 / W_HI


def _report(criterion, ok, detail):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_riesz_projector_exactness():
    start = time.perf_counter()
    p = ss.riesz_projector(ss.diagonal([2.0, 0.5]), ss.ContourConfig(nodes=256))
    err = float(np.max(np.abs(p.entries - np.diag([0.0, 1.0]))))
    elapsed = time.perf_counter() - start
    ok = err < 1e-10 and elapsed < 1.0
    _report(1, ok, f"max-entry error {err:.3e}, runtime {elapsed:.3f}s")
    assert err < 1e-10
    assert elapsed < 1.0


def test_criterion_2_laurent_relations():
    rng = np.random.default_rng(2025)
    bands = ((0.30, 0.88), (1.14, 3.0))  # unit-circle gap at least 0.12
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        op, lam = conjugated_diagonal(rng, draw_moduli(rng, dim, bands))
        assert ss.unit_circle_gap(lam) > 0.1
        report = ss.verify_laurent_relations(op, ss.laurent_table(op, 6))
        worst = max(worst, report.worst())
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 30.0
    _report(2, ok, f"worst residual {worst:.3e} over 50 operators, runtime {elapsed:.1f}s")
    assert worst < 1e-7
    assert elapsed < 30.0


def test_criterion_3_constructive_shadowing_bound():
    rng = np.random.default_rng(33)
    bands = ((0.55, 0.80), (1.25, 1.80))
    worst_residual = 0.0
    worst_margin = np.inf
    for trial in range(200):
        dim = int(rng.integers(2, 7))
        op, _ = conjugated_diagonal(rng, draw_moduli(rng, dim, bands))
        orbit = ss.generate_pseudo_orbit(
            op, np.zeros(dim, dtype=complex), 1e-3, (-30, 30), rng_seed=trial
        )
        res = ss.construct_shadow(op, ss.riesz_projector(op), orbit)
        worst_residual = max(worst_residual, res.recurrence_residual)
        worst_margin = min(worst_margin, res.epsilon_bound - res.epsilon_achieved)
    ok = worst_residual < 1e-9 and worst_margin >= 0.0
    _report(
        3,
        ok,
        f"worst recurrence residual {worst_residual:.3e}, "
        f"smallest bound margin {worst_margin:.3e} over 200 trials",
    )
    assert worst_residual < 1e-9
    assert worst_margin >= 0.0


def test_criterion_4_finite_dimensional_equivalence():
    rng = np.random.default_rng(44)
    margin_bands = ((0.25, 0.70), (1.0 / 0.7, 4.0))
    checked = 0
    witness_worst = None
    for trial in range(1000):
        dim = int(rng.integers(2, 7))
        if trial % 5 < 3:  # 600 with a genuine gap: all three verdicts true
            op, _ = conjugated_diagonal(rng, draw_moduli(rng, dim, margin_bands))
            expect_true = True
        else:  # 400 with an eigenvalue planted exactly on the unit circle
            moduli = draw_moduli(rng, dim, margin_bands)
            moduli[0] = 1.0
            op, _ = conjugated_diagonal(rng, moduli)
            expect_true = False
        report = ss.classify_dense(op)
        v = report.verdicts
        assert v.hyperbolic == v.uniformly_expansive == v.shadowing
        assert v.hyperbolic is expect_true

        if expect_true:
            orbit = ss.generate_pseudo_orbit(
                op, np.zeros(dim, dtype=complex), 1e-3, (-10, 10), rng_seed=trial
            )
            res = ss.construct_shadow(op, ss.riesz_projector(op), orbit)
            assert res.recurrence_residual < 1e-9
            assert res.epsilon_achieved <= res.epsilon_bound
            checked += 1
            if dim == 2:
                witness = ss.expansivity_witness(op, n_max=20, samples=48)
                assert witness.expansive_at is not None and witness.expansive_at <= 20
                assert witness.sphere_min >= 2.0 - 1e-6
                if witness_worst is None or witness.expansive_at > witness_worst:
                    witness_worst = witness.expansive_at
    _report(
        4,
        True,
        f"1000 matrices classified with equal verdicts; {checked} shadows constructed; "
        f"largest dim-2 witness order {witness_worst}",
    )


def test_criterion_5_test_sequence_identity():
    rng = np.random.default_rng(55)
    worst = 0.0
    for trial in range(100):
        q = float(rng.uniform(1.05, 2.0))
        if trial % 10 < 7:
            dim = int(rng.integers(1, 6))
            op = random_invertible(rng, dim)
            x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        else:
            direction = "forward" if rng.uniform() < 0.5 else "backward"
            wp, wn = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=2))
            op = ss.ShiftOperator(direction, float(wp), float(wn), int(rng.integers(-2, 3)))
            support = rng.integers(-3, 4, size=4)
            x = ss.SupportedVector(
                {int(i): complex(*rng.standard_normal(2)) for i in support}
            )
        res = ss.bgain_test_sequence(op, x, q)
        worst = max(worst, abs(res.gain_measured - res.gain_identity))
    ok = worst <= 1e-8
    _report(5, ok, f"worst |measured - identity| = {worst:.3e} over 100 triples")
    assert worst <= 1e-8


def test_criterion_6_shift_example_reproduction(tmp_path):
    start = time.perf_counter()
    out_dir = tmp_path / "bundle"
    assert cli_main(["example17", "--output", str(out_dir), "--seed", "17"]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    elapsed = time.perf_counter() - start

    radii_ok = report["annulus_radii"]["inner"] == pytest.approx(W_LO, abs=1e-12) and report[
        "annulus_radii"
    ]["outer"] == pytest.approx(W_HI, abs=1e-12)

    gains = {row["q"]: row["gain_measured"] for row in report["gain_sweep_for_T"]}
    gains_ok = gains[1.01] < gains[1.05] < gains[1.2] and gains[1.01] < 0.1

    eps = {
        (r["operator"], r["N"]): r["epsilon"]
        for r in report["oracle_epsilon_trend"]["rows"]
    }
    s_eps = [eps[("S", n)] for n in (8, 16, 32, 64)]
    t_eps = [eps[("T", n)] for n in (8, 16, 32, 64)]
    s_ok = max(s_eps) < 2.0 * min(s_eps)
    t_ok = all(b > a for a, b in zip(t_eps, t_eps[1:])) and t_eps[-1] >= 4.0 * t_eps[0]
    trend_note_ok = any("trend" in note for note in report["notes"])

    ok = radii_ok and gains_ok and s_ok and t_ok and trend_note_ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"radii exact; gain(1.01)={gains[1.01]:.4f}; S spread x{max(s_eps)/min(s_eps):.2f}; "
        f"T growth x{t_eps[-1]/t_eps[0]:.2e}; runtime {elapsed:.1f}s",
    )
    assert radii_ok and gains_ok and s_ok and t_ok and trend_note_ok
    assert elapsed < 60.0


def test_criterion_7_one_sided_spectrum_duality():
    rng = np.random.default_rng(77)
    worst_multiset = 0.0
    total_mismatches = total_nodes = 0
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        report = ss.duality_check(random_invertible(rng, dim))
        worst_multiset = max(worst_multiset, report.eigen_multiset_discrepancy)
        total_mismatches += report.surjectivity_mismatches
        total_nodes += report.nodes
    ok = worst_multiset <= 1e-8 and total_mismatches == 0
    _report(
        7,
        ok,
        f"worst eigen-multiset distance {worst_multiset:.3e}, "
        f"{total_mismatches} surjectivity mismatches over 100 operators, {total_nodes} SVD nodes",
    )
    assert worst_multiset <= 1e-8
    assert total_mismatches == 0


def test_criterion_8_rotation_invariance():
    rng = np.random.default_rng(88)
    lams = [np.exp(2j * np.pi * k / 8.0) for k in range(8)]
    for _ in range(20):
        dim = int(rng.integers(1, 6))
        op = random_invertible(rng, dim)
        base = ss.classify_dense(op).verdicts
        for lam in lams:
            assert ss.classify_dense(ss.rotate(op, lam)).verdicts == base

    worst = 0.0
    for trial in range(10):
        dim = int(rng.integers(1, 5))
        op = random_invertible(rng, dim)
        orbit = ss.generate_pseudo_orbit(
            op, np.zeros(dim, dtype=complex), 1e-3, (-8, 8), rng_seed=trial
        )
        rotated = ss.rotate_orbit(orbit, np.exp(1j * rng.uniform(0, 2 * np.pi)))
        for z, w in zip(orbit.defects, rotated.defects):
            worst = max(worst, abs(np.linalg.norm(z) - np.linalg.norm(w)))
    ok = worst <= 1e-12
    _report(
        8,
        ok,
        f"verdicts invariant for 20 operators x 8 rotations; "
        f"defect-norm drift {worst:.3e} under orbit rotation",
    )
    assert worst <= 1e-12
