import math
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shadowspec as ss
from shadowspec import projector, shadowing
from shadowspec.operators import vec_norm
from _helpers import conjugated_diagonal, random_hyperbolic, random_invertible

W_HI = 2.0 * math.sqrt(2.0)
W_LO = 1.0 / W_HI

ONE_DIM_DOUBLE = ss.DenseOperator([[2.0]])

FOREIGN = "a pseudo-orbit is read only by the operator that built it"


def _assert_foreign(call):
    """call raises the ValueError of an orbit read by an operator other than its own."""
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError and str(exc.value) == FOREIGN


class TestGeneratePseudoOrbit:
    def test_zero_delta_is_exact_trajectory(self):
        a = ss.diagonal([2.0, 0.5])
        x0 = np.array([1.0, 1.0], dtype=complex)
        orbit = ss.generate_pseudo_orbit(a, x0, 0.0, (-5, 5), rng_seed=0)
        for n in range(-5, 6):
            expected = np.array([2.0 ** n, 0.5 ** n]) * x0
            assert np.allclose(orbit.state(n), expected, atol=1e-12)
        assert all(v == 0.0 for v in orbit.defect_norms())

    def test_defect_norms_sit_on_the_sphere(self):
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2, dtype=complex), 1e-3, (-10, 10), rng_seed=1)
        for norm in orbit.defect_norms():
            assert norm == pytest.approx(1e-3, rel=1e-9)

    def test_same_seed_reproduces_bit_for_bit(self):
        a = ss.diagonal([2.0, 0.5])
        first = ss.generate_pseudo_orbit(a, np.ones(2, dtype=complex), 1e-3, (-8, 8), rng_seed=9)
        second = ss.generate_pseudo_orbit(a, np.ones(2, dtype=complex), 1e-3, (-8, 8), rng_seed=9)
        for n in range(-8, 9):
            assert np.array_equal(first.state(n), second.state(n))

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -1e-3])
    def test_delta_must_be_finite_and_nonnegative(self, delta):
        a = ss.diagonal([2.0, 0.5])
        with pytest.raises(ValueError, match="delta must be a finite number"):
            ss.generate_pseudo_orbit(a, np.zeros(2), delta, (-3, 3), rng_seed=0)

    def test_caller_defects_that_overflow_leave_no_delta(self):
        # orbit_from_defects takes delta as the largest defect norm, here inf
        with pytest.raises(ValueError, match="delta must be a finite number >= 0, got inf"):
            ss.orbit_from_defects(ss.diagonal([2.0, 0.5]), np.zeros(2), [np.full(2, 1e300)] * 2, (0, 2))

    def test_a_drawn_defect_above_delta_is_refused(self):
        # kappa(A) ~ 2e10: re-read as y_{n+1} - A y_n, a backward step's defect loses
        # far more than the slack of 1e-12 of the largest state norm, a rounding failure
        a = ss.DenseOperator([[1e5, 1e5], [0.0, 1e-5]])
        with pytest.raises(FloatingPointError, match=r"defect norm 1\.020e-03 exceeds delta 1\.000e-03"):
            ss.generate_pseudo_orbit(a, np.zeros(2), 1e-3, (-2, 2), rng_seed=2)

    def test_overflowed_orbit_is_refused(self):
        # states grow like 2^n * delta and overflow past the largest float
        a = ss.diagonal([2.0, 0.5])
        with pytest.raises(FloatingPointError, match="non-finite"):
            ss.generate_pseudo_orbit(a, np.zeros(2), 1e300, (-3, 3), rng_seed=0)

    def test_overflowed_shift_orbit_is_refused(self):
        # (2 sqrt 2)^345 ~ 1e156, so the square inside the state's norm overflows
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        with pytest.raises(FloatingPointError, match="non-finite"):
            ss.generate_pseudo_orbit(t, ss.basis_vector(0), 1e-3, (-345, 345), rng_seed=0)

    def test_shift_orbit_states_are_supported_vectors(self):
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(t, ss.basis_vector(0), 1e-3, (-4, 4), rng_seed=2)
        assert all(isinstance(s, ss.SupportedVector) for s in orbit.states)
        assert max(orbit.defect_norms()) <= 1e-3 * (1 + 1e-9)

    def test_window_must_straddle_zero(self):
        with pytest.raises(ValueError):
            ss.generate_pseudo_orbit(ONE_DIM_DOUBLE, np.zeros(1, dtype=complex), 0.0, (2, 5), 0)

    def test_a_matrix_is_not_an_operator(self):
        # the operator is checked before the seed: a plain array is no DenseOperator
        with pytest.raises(TypeError, match="not an operator"):
            ss.generate_pseudo_orbit(np.eye(2), np.zeros(2), 1e-3, (-2, 2), rng_seed=0)

    def test_orbit_bounds_are_read_as_sizes(self):
        # float bounds were kept as floats, and every read raised a bare TypeError
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2), 0.0, (-1.0, 1.0), rng_seed=0)
        assert orbit.window == (-1, 1) and isinstance(orbit.n_lo, int)
        assert np.array_equal(orbit.state(0), np.zeros(2)) and len(orbit.states) == 3
        assert ss.construct_shadow(a, ss.diagonal([0.0, 1.0]), orbit).epsilon_achieved == 0.0
        assert ss.shadow_oracle_lsq(a, orbit).epsilon_achieved == 0.0
        with pytest.raises(ValueError, match="'window' must be an integer, got -0.5"):
            ss.generate_pseudo_orbit(a, np.zeros(2), 0.0, (-0.5, 1.0), rng_seed=0)

    def test_there_is_no_public_constructor(self):
        # states 0 and (1, 1) with defect 0 made an orbit of no operator: shadowed on
        # diag(2, 0.5) it read delta 1e-3 and defect norms [0.0], and epsilon 1.414
        # against a bound of 0.007
        with pytest.raises(TypeError):
            ss.PseudoOrbit(0, 1, [np.zeros(2), np.ones(2)], 1e-3, [np.zeros(2)])
        # nor with no arguments, which would make an orbit without a window or states
        with pytest.raises(TypeError, match="no public constructor"):
            ss.PseudoOrbit()

    def test_lookups_outside_the_window_raise(self):
        orbit = ss.generate_pseudo_orbit(ONE_DIM_DOUBLE, np.zeros(1, dtype=complex), 1e-3, (-3, 3), 0)
        assert orbit.state(-3) is orbit.states[0] and orbit.state(3) is orbit.states[-1]
        assert orbit.defect(-3) is orbit.defects[0] and orbit.defect(2) is orbit.defects[-1]
        for lookup, n in ((orbit.state, -4), (orbit.state, 4), (orbit.defect, -4), (orbit.defect, 3)):
            with pytest.raises(IndexError, match=r"window \(-3, 3\)"):
                lookup(n)

    @pytest.mark.parametrize("build", ["drawn", "from_defects"])
    def test_dense_states_and_defects_are_read_only(self, build):
        # a state is a view into the orbit's table: a write through it once moved the
        # shadow's epsilon from 1e-3 to 1e6 while delta and the defect norms read 1e-3
        a = ss.diagonal([2.0, 0.5])
        drawn = ss.generate_pseudo_orbit(a, np.zeros(2), 1e-3, (-3, 3), rng_seed=0)
        orbit = {
            "drawn": drawn,
            "from_defects": ss.orbit_from_defects(a, np.zeros(2), drawn.defects, (-3, 3)),
        }[build]
        for vector in (orbit.state(1), orbit.defects[0]):
            with pytest.raises(ValueError, match="read-only"):
                vector[0] = 1e6
        assert ss.construct_shadow(a, ss.diagonal([0.0, 1.0]), orbit).epsilon_achieved < 2e-3

    def test_shift_seed_and_states_are_read_only(self):
        # state(0) is the caller's seed: a write through either once moved the step
        # defect ||T state(0) - state(1)|| to 2e6 while the defect norms read 1e-3
        t = ss.ShiftOperator("forward", 2.0, 0.5)
        seed = ss.basis_vector(0)
        orbit = ss.generate_pseudo_orbit(t, seed, 1e-3, (-3, 3), rng_seed=0)
        assert orbit.state(0) is seed
        for vector in (seed, orbit.state(0), orbit.state(1), orbit.defects[0]):
            with pytest.raises(TypeError):
                vector.coefficients[0] = 1e6
        step = vec_norm(orbit.state(1) - ss.apply(t, orbit.state(0)))
        assert step == pytest.approx(orbit.defect_norms()[3], rel=1e-12)
        assert max(orbit.defect_norms()) <= 1e-3 * (1 + 1e-12)


class TestRowNorms:
    def test_rows_match_linalg_norm_bit_for_bit(self):
        # the defect draw and the dense oracle's distance take their digits
        # from this norm; a BLAS whose batched dot rounds differently fails here
        rng = np.random.default_rng(407)
        for width in range(1, 65):
            g = rng.standard_normal((200, width)) + 1j * rng.standard_normal((200, width))
            expected = [np.linalg.norm(row) for row in g]
            assert shadowing._row_norms(g).tolist() == expected


class TestOrbitFromDefects:
    def test_geometric_sum_forward(self):
        # y_{n+1} = 2 y_n + delta from y_0 = 0  ->  y_n = delta (2^n - 1)
        delta = 1e-3
        defects = [np.array([delta + 0j])] * 10
        orbit = ss.orbit_from_defects(ONE_DIM_DOUBLE, np.zeros(1, dtype=complex), defects, (0, 10))
        for n in range(0, 11):
            assert orbit.state(n)[0] == pytest.approx(delta * (2.0 ** n - 1.0), abs=1e-15)

    def test_defect_count_must_match_the_window(self):
        op, x0, z = ss.diagonal([2.0, 0.5]), np.zeros(2), np.zeros(2)
        for count in (2, 4):
            with pytest.raises(ValueError, match="need exactly one defect per step"):
                ss.orbit_from_defects(op, x0, [z] * count, (-1, 2))

    def test_a_shift_is_refused(self):
        # shift orbits are drawn; a shift is refused whatever its seed and defects
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        for x0, z in ((ss.basis_vector(0), ss.basis_vector(1, 1e-3)), (np.ones(1), np.zeros(1))):
            with pytest.raises(TypeError, match="orbit_from_defects needs a dense operator"):
                ss.orbit_from_defects(t, x0, [z] * 2, (-1, 1))

    @pytest.mark.parametrize(
        "defect, window", [([1e-3], (-1, 2)), (np.full((2, 2), 1e-3), (0, 1))], ids=["1", "2x2"]
    )
    def test_malformed_dense_defects_are_refused(self, defect, window):
        # numpy would broadcast either one into the recurrence: the (1,) defect
        # to both coordinates (delta 1.414e-3), the 2x2 one into a 2x2 state
        defects = [np.array(defect)] * (window[1] - window[0])
        with pytest.raises(ss.DimensionMismatchError, match="does not match dimension 2"):
            ss.orbit_from_defects(ss.diagonal([2.0, 0.5]), np.zeros(2), defects, window)

class TestConstructShadow:
    def test_one_dim_constant_defect_closed_form(self):
        # T = 2, B = 0: x_n = -sum_{k>=1} 2^{-k} delta = -delta once the
        # geometric tail has converged (window long enough), so the anchor is
        # y_0 - x_0 = +delta and the sup distance is exactly delta
        delta = 1e-3
        defects = [np.array([delta + 0j])] * 50
        orbit = ss.orbit_from_defects(ONE_DIM_DOUBLE, np.zeros(1, dtype=complex), defects, (0, 50))
        res = ss.construct_shadow(ONE_DIM_DOUBLE, ss.DenseOperator([[0.0]]), orbit)
        assert res.anchor[0] == pytest.approx(delta, abs=1e-12)
        assert res.epsilon_achieved == pytest.approx(delta, abs=1e-12)
        assert res.recurrence_residual < 1e-10
        assert res.epsilon_achieved <= res.epsilon_bound

    def test_zero_delta_gives_zero_correction(self):
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.array([1.0, 1.0 + 0j]), 0.0, (-6, 6), rng_seed=0)
        res = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
        assert res.epsilon_achieved < 1e-12
        assert res.epsilon_bound == 0.0

    def test_recurrence_residual_oracle_diag(self):
        a = ss.diagonal([2.0, 0.5])
        b = ss.diagonal([0.0, 1.0])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2, dtype=complex), 1e-3, (-20, 20), rng_seed=5)
        res = ss.construct_shadow(a, b, orbit)
        assert res.recurrence_residual < 1e-10
        assert res.epsilon_achieved <= res.epsilon_bound
        assert res.r_plus == pytest.approx(0.5, abs=1e-12)
        assert res.r_minus == pytest.approx(0.5, abs=1e-12)

    def test_trajectory_definition_of_epsilon(self):
        # recompute sup_n ||y_n - A^n anchor|| independently from the result
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2, dtype=complex), 1e-3, (-10, 10), rng_seed=6)
        res = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
        worst = 0.0
        for n in range(-10, 11):
            power = np.diag([2.0 ** n, 0.5 ** n]).astype(complex)
            worst = max(worst, float(np.linalg.norm(orbit.state(n) - power @ res.anchor)))
        assert worst == pytest.approx(res.epsilon_achieved, abs=1e-10)

    def test_identity_splitting_rejected(self):
        orbit = ss.generate_pseudo_orbit(
            ss.identity(2), np.zeros(2, dtype=complex), 1e-3, (-3, 3), rng_seed=0
        )
        with pytest.raises(ss.DecayCertificateError) as err:
            ss.construct_shadow(ss.identity(2), ss.identity(2), orbit)
        assert err.value.r_plus >= 1.0

    @pytest.mark.parametrize("window", [(-8, 8), (-3, 9), (0, 10), (-10, 0)])
    def test_sweeps_match_the_double_sum(self, window):
        # brute force: x_n = sum_k (BA)^k B z_{n-1-k} - sum_{k>=1} ((I-B)A^-1)^k (I-B) z_{n+k-1}
        # over the window; y_n - A^n anchor is exactly x_n, so the anchor and
        # the sup distance expose every term
        rng = np.random.default_rng(404)
        a, _ = conjugated_diagonal(rng, [0.5, 0.7, 1.4, 2.0])  # non-normal, both sides
        b = ss.riesz_projector(a)
        orbit = ss.generate_pseudo_orbit(a, np.zeros(4, dtype=complex), 1e-3, window, rng_seed=8)
        res = ss.construct_shadow(a, b, orbit)

        fwd_step = b.entries @ a.entries
        comp = np.eye(4) - b.entries
        bwd_step = comp @ ss.inverse(a).entries
        z = orbit.defects
        w = len(orbit.states)
        x = np.zeros((w, 4), dtype=complex)
        for n in range(w):
            for k in range(n):
                x[n] += np.linalg.matrix_power(fwd_step, k) @ b.entries @ z[n - 1 - k]
            for k in range(1, w - n):
                x[n] -= np.linalg.matrix_power(bwd_step, k) @ comp @ z[n + k - 1]
        idx0 = -orbit.n_lo
        assert np.max(np.abs(res.anchor - (orbit.states[idx0] - x[idx0]))) < 1e-12
        assert res.epsilon_achieved == pytest.approx(np.max(np.linalg.norm(x, axis=1)), abs=1e-12)

    def test_envelope_constant_covers_the_old_tail_horizon(self):
        # K comes from DECAY_ORDER powers plus the tail certificate; it must
        # still dominate the envelope out to the horizon q^k < 1e-12
        rng = np.random.default_rng(405)
        for _ in range(6):
            a, _ = random_hyperbolic(rng, 4)
            b = ss.riesz_projector(a)
            orbit = ss.generate_pseudo_orbit(a, np.zeros(4, dtype=complex), 1e-3, (-5, 5), rng_seed=1)
            res = ss.construct_shadow(a, b, orbit)
            horizon = math.ceil(math.log(1e-12) / math.log(res.q_used))
            _, _, norms_fwd, norms_bwd = projector.splitting_power_stacks(a, b, horizon)
            assert res.K_used >= projector._envelope_constant(norms_fwd, norms_bwd, res.q_used)

    def test_uncertified_envelope_tail_rejected(self):
        # B projects onto e_0 along (1, -1): not A-invariant, so (BA)^m = M_{m-1} A
        # picks up the expanding entry and the envelope past order m is not bounded,
        # although both decay rates sit below 1
        a = ss.diagonal([0.5, 1e6])
        b = ss.DenseOperator([[1.0, 1.0], [0.0, 0.0]])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2, dtype=complex), 1e-3, (-5, 5), rng_seed=0)
        with pytest.raises(ss.DecayCertificateError, match="envelope not certified") as err:
            ss.construct_shadow(a, b, orbit)
        assert err.value.r_plus < 1.0 and err.value.r_minus < 1.0

    @pytest.mark.parametrize("q", [None, 0.95])
    def test_k_is_the_decay_certificate_envelope(self, q):
        rng = np.random.default_rng(406)
        a, _ = conjugated_diagonal(rng, [0.5, 0.7, 1.4, 2.0])
        b = ss.riesz_projector(a)
        orbit = ss.generate_pseudo_orbit(a, np.zeros(4, dtype=complex), 1e-3, (-5, 5), rng_seed=2)
        res = ss.construct_shadow(a, b, orbit, q=q)
        rates = ss.decay_rates(a, b, shadowing.DECAY_ORDER)
        assert res.K_used == rates.envelope(res.q_used)
        assert (res.r_plus, res.r_minus) == (rates.r_plus, rates.r_minus)

    def test_q_outside_the_rate_interval_rejected(self):
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2, dtype=complex), 1e-3, (-3, 3), rng_seed=0)
        for q in (0.4, 1.0):
            with pytest.raises(ValueError):
                ss.construct_shadow(a, ss.diagonal([0.0, 1.0]), orbit, q=q)

    @given(st.integers(0, 10**6))
    @settings(max_examples=20, deadline=None)
    def test_bound_and_residual_hold_generically(self, seed):
        rng = np.random.default_rng(seed)
        a, _ = random_hyperbolic(rng, int(rng.integers(2, 5)))
        orbit = ss.generate_pseudo_orbit(
            a, np.zeros(a.dim, dtype=complex), 1e-3, (-15, 15), rng_seed=seed
        )
        res = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
        assert res.recurrence_residual < 1e-9
        assert res.epsilon_achieved <= res.epsilon_bound


class TestShadowOracle:
    def test_exact_trajectory_recovers_anchor(self):
        a = ss.diagonal([2.0, 0.5])
        x0 = np.array([0.3, -0.7 + 0.2j])
        orbit = ss.generate_pseudo_orbit(a, x0, 0.0, (-15, 15), rng_seed=0)
        oracle = ss.shadow_oracle_lsq(a, orbit)
        assert oracle.epsilon_achieved < 1e-9
        assert np.allclose(oracle.best_anchor, x0, atol=1e-9)

    def test_shift_oracle_refuses_a_dense_orbit(self):
        orbit = ss.generate_pseudo_orbit(ss.diagonal([2.0, 0.5]), np.zeros(2), 1e-3, (-2, 2), 0)
        _assert_foreign(lambda: ss.shadow_oracle_lsq(ss.ShiftOperator("forward", W_HI, W_LO, 0), orbit))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_shift_oracle_refuses_the_other_direction(self, direction):
        op = ss.ShiftOperator(direction, W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(op, ss.basis_vector(0), 1e-3, (-2, 2), 0)
        for other in (ss.adjoint(op), ss.inverse(op)):
            _assert_foreign(lambda: ss.shadow_oracle_lsq(other, orbit))

    def test_oracle_never_beaten_by_construction(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            a, _ = random_hyperbolic(rng, 3)
            orbit = ss.generate_pseudo_orbit(
                a, np.zeros(3, dtype=complex), 1e-3, (-12, 12), rng_seed=int(rng.integers(1e6))
            )
            res = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
            oracle = ss.shadow_oracle_lsq(a, orbit)
            assert oracle.epsilon_achieved <= res.epsilon_achieved + 1e-8

    def test_oracle_l2_objective_never_beaten_by_construction(self):
        # the oracle minimizes f(x) = sum_n ||y_n - A^n x||^2 and reports only
        # the sup distance, so f is what it must never lose on; the relative
        # slack 1e-12 covers rounding in the two sums of W*d terms (about
        # W*d*eps each), while the construction loses by 2-12% here
        rng = np.random.default_rng(77)
        for _ in range(5):
            a, _ = random_hyperbolic(rng, 3)
            orbit = ss.generate_pseudo_orbit(
                a, np.zeros(3, dtype=complex), 1e-3, (-12, 12), rng_seed=int(rng.integers(1e6))
            )
            res = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
            oracle = ss.shadow_oracle_lsq(a, orbit)
            powers = shadowing._window_powers(a, -12, 12, np.eye(3))
            ys = np.stack(orbit.states)

            def objective(x):
                return float(np.sum(np.abs(ys - powers @ x) ** 2))

            assert objective(oracle.best_anchor) <= objective(res.anchor) * (1 + 1e-12)

    def test_no_rank_cutoff_where_lstsq_truncates(self):
        # diag(4, 0.9) over (-30, 30): cond 2.2e16, past lstsq's default cutoff, so
        # lstsq reports rank 1 and drops the second coordinate; the stack holds
        # A^0 = I, so sigma_min >= 1 and the QR solve keeps both
        a = ss.diagonal([4.0, 0.9])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2), 1e-3, (-30, 30), rng_seed=1)
        powers = shadowing._window_powers(a, -30, 30, np.eye(2)).reshape(-1, 2)
        ys = np.stack(orbit.states).ravel()
        sol, _, rank, _ = np.linalg.lstsq(powers, ys, rcond=None)
        oracle = ss.shadow_oracle_lsq(a, orbit)
        assert rank == 1
        assert oracle.best_anchor[1] != 0

        def objective(x):
            # exact: at |A^30| = 1.2e18 a float sum rounds off the difference sought
            parts = [(Fraction(c.real), Fraction(c.imag)) for c in x]
            total = Fraction(0)
            for row, y in zip(powers, ys):
                re, im = Fraction(y.real), Fraction(y.imag)
                for p, (xr, xi) in zip(row, parts):
                    pr, pi = Fraction(p.real), Fraction(p.imag)
                    re, im = re - pr * xr + pi * xi, im - pr * xi - pi * xr
                total += re * re + im * im
            return total

        assert objective(oracle.best_anchor) < objective(sol)

    @pytest.mark.parametrize("d", [2, 3, 8])
    @pytest.mark.parametrize("window", [(-12, 12), (0, 6), (-6, 0)])
    def test_agrees_with_lstsq_on_well_conditioned_stacks(self, d, window):
        # objective no worse than lstsq's beyond rounding, and the condition read off
        # the d x d triangle is the stack's own
        rng = np.random.default_rng(2900 + d)
        a, _ = random_hyperbolic(rng, d)
        orbit = ss.generate_pseudo_orbit(a, rng.standard_normal(d), 1e-3, window, rng_seed=d)
        powers = shadowing._window_powers(a, *window, np.eye(d))
        ys = np.stack(orbit.states)
        sol = np.linalg.lstsq(powers.reshape(-1, d), ys.ravel(), rcond=None)[0]
        oracle = ss.shadow_oracle_lsq(a, orbit)

        def objective(x):
            return float(np.sum(np.abs(ys - powers @ x) ** 2))

        assert objective(oracle.best_anchor) <= objective(sol) * (1 + 1e-9)
        svals = np.linalg.svd(powers.reshape(-1, d), compute_uv=False)
        assert oracle.condition == pytest.approx(svals[0] / svals[-1], rel=1e-12)

    def test_identity_accumulates_linear_error(self):
        # constant defect on T = I gives states n*delta; the best constant
        # trajectory is the mean, so the sup distance is exactly N*delta
        delta = 1e-3
        n = 10
        defects = [np.array([delta + 0j])] * (2 * n)
        orbit = ss.orbit_from_defects(ss.identity(1), np.zeros(1, dtype=complex), defects, (-n, n))
        oracle = ss.shadow_oracle_lsq(ss.identity(1), orbit)
        assert oracle.epsilon_achieved == pytest.approx(n * delta, rel=1e-9)

    def test_shift_oracle_matches_dense_oracle_on_window(self):
        # dual path: the chain-wise closed form against a brute-force dense
        # least squares on materialized windows
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        n = 3
        orbit = ss.generate_pseudo_orbit(t, ss.basis_vector(0), 1e-3, (-n, n), rng_seed=4)
        oracle = ss.shadow_oracle_lsq(t, orbit)

        half = 10
        blocks, targets = [], []
        for k in range(-n, n + 1):
            blk = np.eye(2 * half + 1, dtype=complex)
            win = ss.materialize(t, half).entries
            inv = np.linalg.pinv(win)  # window is singular only at the boundary
            for _ in range(abs(k)):
                blk = (win if k > 0 else inv) @ blk
            blocks.append(blk)
            targets.append(orbit.state(k).to_window_array(half))
        sol, *_ = np.linalg.lstsq(np.vstack(blocks), np.concatenate(targets), rcond=None)
        eps_dense = max(
            float(np.linalg.norm(y - blk @ sol)) for y, blk in zip(targets, blocks)
        )
        assert oracle.epsilon_achieved == pytest.approx(eps_dense, rel=1e-6, abs=1e-9)


class TestWindowedOperator:
    def test_one_dim_stencil(self):
        mat = shadowing._dense_window(ONE_DIM_DOUBLE, 2)  # L_2: script-S at N = 1
        assert np.array_equal(mat.real, np.array([[-2.0, 1.0, 0.0], [0.0, -2.0, 1.0]]))
        assert np.all(mat.imag == 0)

    def test_probe_bounded_below_for_hyperbolic_diagonal(self):
        gains = [ss.window_probe(ss.diagonal([2.0, 0.5]), "script-B", n).gain for n in (5, 10, 20)]
        assert all(g > 0.45 for g in gains)
        assert gains[0] >= gains[1] >= gains[2]  # compression over growing windows

    def test_probe_decays_like_one_over_n_for_identity(self):
        gains = [ss.window_probe(ss.identity(2), "script-B", n).gain for n in (5, 10, 20)]
        assert gains[1] / gains[0] == pytest.approx(0.5, abs=0.1)
        assert gains[2] / gains[1] == pytest.approx(0.5, abs=0.1)

    def test_script_s_probe_positive_for_hyperbolic(self):
        probe = ss.window_probe(ss.diagonal([2.0, 0.5]), "script-S", 8)
        assert probe.gain > 0.4
        assert probe.norm_model == "l2 surrogate"

    def test_shift_probe_runs(self):
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        probe = ss.window_probe(t, "script-B", 3, 8)
        assert probe.gain >= 0.0

    @pytest.mark.parametrize("shift", [False, True])
    @pytest.mark.parametrize(
        "kind, n, floor", [("script-S", -1, 1), ("script-S", 0, 1), ("script-B", -1, 0)]
    )
    def test_window_floor_per_kind(self, kind, n, floor, shift):
        op = ss.ShiftOperator("forward", W_HI, W_LO, 0) if shift else ss.diagonal([2.0, 0.5])
        with pytest.raises(ValueError, match=f"^N must be >= {floor} for {kind}$"):
            ss.window_probe(op, kind, n, 5)

    @pytest.mark.parametrize("shift", [False, True])
    def test_script_b_probe_at_n_zero(self, shift):
        # the compression [-T*; I] of a one-state window
        op = ss.ShiftOperator("forward", W_HI, W_LO, 0) if shift else ss.diagonal([2.0, 0.5])
        block = ss.materialize(ss.adjoint(op), 5).entries if shift else np.diag([2.0, 0.5])
        svals = np.linalg.svd(_reference_compression(block, 0), compute_uv=False)
        probe = ss.window_probe(op, "script-B", 0, 5)
        assert probe.N == 0
        assert abs(probe.gain - svals[-1]) <= 1e-12 * svals[0]


class TestBGain:
    def test_identity_operator_q_two(self):
        res = ss.bgain_test_sequence(ss.identity(1), np.array([1.0 + 0j]), 2.0)
        assert res.gain_identity == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert res.gain_measured == pytest.approx(2.0 / 3.0, abs=1e-10)

    def test_scalar_double_q_1_1(self):
        # (|1/1.1 - 2| * 1.1 + |1.1 - 2|) / 2.1 == 1 exactly
        res = ss.bgain_test_sequence(ONE_DIM_DOUBLE, np.array([1.0 + 0j]), 1.1)
        assert res.gain_identity == pytest.approx(1.0, abs=1e-12)
        assert res.gain_measured == pytest.approx(1.0, abs=1e-9)

    def test_brute_force_series_oracle(self):
        # independent truncation, summed straight from the definition
        a = ss.DenseOperator([[1.3, 0.2], [0.0, 0.7]])
        x = np.array([0.8, -0.6 + 0.1j])
        q = 1.4
        res = ss.bgain_test_sequence(a, x, q)
        a_star = ss.adjoint(a)
        n = 140
        y = {m: (q ** m if m < 0 else q ** (-m)) * x for m in range(-n, n + 1)}
        total = 0.0
        for m in range(-n, n + 2):
            prev = y.get(m - 1, np.zeros(2, dtype=complex))
            cur = y.get(m, np.zeros(2, dtype=complex))
            total += float(np.linalg.norm(prev - ss.apply(a_star, cur)))
        norm1 = sum(float(np.linalg.norm(v)) for v in y.values())
        assert res.gain_measured == pytest.approx(total / norm1, abs=1e-10)
        assert res.gain_measured == pytest.approx(res.gain_identity, abs=1e-8)

    def test_near_eigenvector_of_adjoint_pins_gain_down(self):
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        s = ss.adjoint(t)
        x = ss.shift_eigenvector(s, 1.0, radius=25)
        res = ss.bgain_test_sequence(t, x, 1.01)
        assert res.gain_measured < 0.1
        assert res.gain_measured == pytest.approx(res.gain_identity, abs=1e-8)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ss.bgain_test_sequence(ss.identity(1), np.array([1.0 + 0j]), 1.0)
        with pytest.raises(ValueError):
            ss.bgain_test_sequence(ss.identity(1), np.array([0.0 + 0j]), 1.5)

    def test_q_below_the_floor_raises_before_allocating(self):
        # q = 1 + 1e-9 would need N = 3.2e10 terms per side
        with pytest.raises(ValueError, match="at least 1.00033"):
            ss.bgain_test_sequence(ss.identity(1), np.array([1.0 + 0j]), 1 + 1e-9)
        res = ss.bgain_test_sequence(ss.identity(1), np.array([1.0 + 0j]), shadowing.BGAIN_MIN_Q)
        assert res.truncation == 97702

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_non_finite_q_is_refused(self, q):
        # q = inf passed the floor and returned gain_measured 3.0, gain_identity nan
        with pytest.raises(ValueError, match="q must be finite"):
            ss.bgain_test_sequence(ss.diagonal([2.0, 0.5]), np.array([1.0, 0.0]), q)

    @pytest.mark.parametrize("x", [[math.nan, 0.0], [1.0, math.inf], [complex(0.0, -math.inf), 1.0]])
    def test_non_finite_x_is_refused(self, x):
        with pytest.raises(ValueError, match="finite norm"):
            ss.bgain_test_sequence(ss.diagonal([2.0, 0.5]), np.array(x, dtype=complex), 1.2)

    def test_x_whose_norm_overflows_is_refused(self):
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        with pytest.raises(ValueError, match="finite norm"):
            ss.bgain_test_sequence(t, ss.SupportedVector({0: 1e200}), 1.2)

    def test_overflowing_adjoint_image_is_refused(self):
        # ||x|| = 1e150 is finite, T*x = 1e350 e_{-1} is not
        t = ss.ShiftOperator("forward", 1e200, 1e200)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ss.bgain_test_sequence(t, ss.SupportedVector({0: 1e150}), 1.2)

    def test_indices_past_int64_keep_their_gain(self):
        # in int64, a backward T* would wrap 2^63 - 1 to -2^63 and 2^70 would not fit
        for direction in ("forward", "backward"):
            t = ss.ShiftOperator(direction, 2.0, 0.5)
            for i in (2**63 - 1, -(2**63), 2**70):
                x = ss.SupportedVector({i: 1.0, i - 1: 0.5j})
                res = ss.bgain_test_sequence(t, x, 1.2)
                assert res.gain_measured == _reference_gain_measured(t, x, 1.2, res.truncation)

    def test_vector_of_the_other_kind_is_refused(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.bgain_test_sequence(ss.diagonal([2.0, 0.5]), ss.basis_vector(0), 1.2)
        with pytest.raises(ss.DimensionMismatchError):
            ss.bgain_test_sequence(ss.ShiftOperator("forward", W_HI, W_LO), np.ones(3), 1.2)

    def test_truncation_is_the_least_n_as_evaluated(self):
        # 14 / log10 q = 10 exactly, where q^-10 lands a few ulps above 1e-14
        q = 10**1.4
        res = ss.bgain_test_sequence(ss.diagonal([2.0, 0.5]), np.array([1.0, 0.0]), q)
        assert res.truncation == 11
        assert q**-11 <= 1e-14 < q**-10
        assert res.gain_measured == pytest.approx(res.gain_identity, abs=1e-8)

    @given(st.integers(0, 10**6), st.floats(1.05, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_measured_matches_identity_generically(self, seed, q):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 5))
        a = random_invertible(rng, dim)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        assume(np.linalg.norm(x) > 1e-3)
        res = ss.bgain_test_sequence(a, x, q)
        assert res.gain_measured == pytest.approx(res.gain_identity, abs=1e-8)


class TestRotateOrbit:
    def test_lambda_one_is_identity(self):
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.ones(2, dtype=complex), 1e-3, (-4, 4), rng_seed=3)
        rotated = ss.rotate_orbit(orbit, 1.0)
        for n in range(-4, 5):
            assert np.array_equal(rotated.state(n), orbit.state(n))

    def test_alternating_signs_preserve_defect_norms_exactly(self):
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.ones(2, dtype=complex), 1e-3, (-4, 4), rng_seed=3)
        rotated = ss.rotate_orbit(orbit, -1.0)
        for z, w in zip(orbit.defects, rotated.defects):
            assert np.linalg.norm(z) == pytest.approx(np.linalg.norm(w), abs=1e-15)

    def test_roundtrip_through_rotated_operator(self):
        # orbit of rotate(A, lam), unrotated by lam^{-1}, is a pseudo-orbit of
        # A with the same per-step defect norms
        lam = np.exp(0.6j)
        rng = np.random.default_rng(23)
        a = random_invertible(rng, 3)
        rotated_op = ss.rotate(a, lam)
        orbit = ss.generate_pseudo_orbit(
            rotated_op, np.ones(3, dtype=complex), 1e-3, (-6, 6), rng_seed=8
        )
        back = ss.rotate_orbit(orbit, 1.0 / lam)
        for n in range(-6, 6):
            defect = back.state(n + 1) - ss.apply(a, back.state(n))
            assert np.linalg.norm(defect) == pytest.approx(
                np.linalg.norm(orbit.defect(n)), abs=1e-12
            )

    def test_a_rotated_orbit_is_read_by_the_rotated_operator(self):
        # a rotated orbit is a pseudo-orbit of lam^-1 A, not of A
        lam = np.exp(0.6j)
        a = random_invertible(np.random.default_rng(23), 3)
        orbit = ss.rotate_orbit(ss.generate_pseudo_orbit(a, np.ones(3), 1e-3, (-6, 6), rng_seed=8), lam)
        assert ss.shadow_oracle_lsq(ss.rotate(a, lam), orbit).epsilon_achieved < 1e-2
        _assert_foreign(lambda: ss.shadow_oracle_lsq(a, orbit))
        _assert_foreign(lambda: ss.construct_shadow(a, ss.identity(3), orbit))

    def test_rotation_is_one_product_per_vector(self):
        # a multiply of the whole table at once rounds a few entries differently
        rng = np.random.default_rng(5)
        a = random_invertible(rng, 4)
        orbit = ss.generate_pseudo_orbit(a, rng.standard_normal(4), 1e-3, (-9, 7), rng_seed=6)
        for lam in (np.exp(0.6j), np.exp(-2.1j), -1.0, 1j):
            rotated, lam = ss.rotate_orbit(orbit, lam), complex(lam)
            for n in range(-9, 8):
                assert rotated.state(n).tobytes() == (lam ** -n * orbit.state(n)).tobytes()
            expected = [lam ** -(n + 1) * orbit.defect(n) for n in range(-9, 7)]
            assert [z.tobytes() for z in rotated.defects] == [z.tobytes() for z in expected]
            assert rotated.defect_norms() == [float(np.linalg.norm(z)) for z in expected]

    def test_rejects_non_unimodular(self):
        a = ss.diagonal([2.0])
        orbit = ss.generate_pseudo_orbit(a, np.ones(1, dtype=complex), 0.0, (0, 2), rng_seed=0)
        with pytest.raises(ss.NotUnimodularError):
            ss.rotate_orbit(orbit, 0.5)

    def test_a_nan_factor_is_not_unimodular(self):
        # NaN passed the old |lam| check and failed later with another error
        a = ss.diagonal([2.0])
        orbit = ss.generate_pseudo_orbit(a, np.ones(1, dtype=complex), 0.0, (0, 2), rng_seed=0)
        for call in (lambda: ss.rotate(a, math.nan), lambda: ss.rotate_orbit(orbit, math.nan),
                     lambda: ss.rotate(ss.ShiftOperator("forward", W_HI, W_LO, 0), math.nan)):
            with pytest.raises(ss.NotUnimodularError, match="nan"):
                call()

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_shift_orbit_at_lambda_one_is_itself(self, direction):
        # as rotate returns a shift itself for lambda == 1
        op = ss.ShiftOperator(direction, W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(op, TABLE_SEEDS[1], 1e-3, (-5, 4), rng_seed=4)
        assert ss.rotate_orbit(orbit, 1.0) is orbit
        assert ss.rotate(op, 1.0) is op

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_shift_orbit_rotation_by_another_lambda_is_refused(self, direction):
        # as rotate refuses a shift: lambda^-1 T leaves the positive-weight shifts
        op = ss.ShiftOperator(direction, W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(op, TABLE_SEEDS[1], 1e-3, (-5, 4), rng_seed=4)
        for lam in (complex(np.exp(0.3j)), -1.0, 1j):
            with pytest.raises(ValueError, match="lambda != 1"):
                ss.rotate(op, lam)
            with pytest.raises(ValueError, match="lambda != 1"):
                ss.rotate_orbit(orbit, lam)


# ---------------------------------------------------------------------------
# reference loops: the per-block, per-row and per-time forms the array code
# replaced, kept as the oracles it is held to

def _reference_stencil(block, n):
    d = block.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    out = np.zeros((2 * n * d, (2 * n + 1) * d), dtype=np.complex128)
    for j in range(2 * n):
        out[j * d : (j + 1) * d, (j + 1) * d : (j + 2) * d] = eye
        out[j * d : (j + 1) * d, j * d : (j + 1) * d] = -block
    return out


def _reference_compression(block_adj, n):
    d = block_adj.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    cols = 2 * n + 1
    out = np.zeros(((cols + 1) * d, cols * d), dtype=np.complex128)
    for r in range(cols + 1):
        if r - 1 >= 0:
            out[r * d : (r + 1) * d, (r - 1) * d : r * d] = eye
        if r < cols:
            out[r * d : (r + 1) * d, r * d : (r + 1) * d] += -block_adj
    return out


def _reference_gain_measured(op, x, q, n_trunc):
    t_star_x = ss.apply(ss.adjoint(op), x)

    def scale(n):
        return q ** n if n < 0 else q ** (-n)

    norm_y1 = 0.0  # in order: sum() is compensated from Python 3.12 on
    for n in range(-n_trunc, n_trunc + 1):
        norm_y1 += scale(n) * vec_norm(x)
    total = 0.0
    for n in range(-n_trunc, n_trunc + 2):
        s_prev = scale(n - 1) if n - 1 >= -n_trunc else 0.0
        s_cur = scale(n) if n <= n_trunc else 0.0
        total += vec_norm(s_prev * x - s_cur * t_star_x)
    return total / norm_y1


def _reference_shift_oracle(op, orbit):
    """Per-(chain, time) weights T^n e_j by repeated edge products."""
    step = 1 if op.direction == "forward" else -1
    times = range(orbit.n_lo, orbit.n_hi + 1)
    chains = sorted({i - n * step for n in times for i in orbit.state(n).coefficients})

    def weight(j, n):
        w = 1.0
        for m in range(abs(n)):
            a = j + m * step if n > 0 else j - m * step
            b = a + step if n > 0 else a - step
            w = w * op.edge_weight(min(a, b)) if n > 0 else w / op.edge_weight(min(a, b))
        return w

    anchor, dens = {}, []
    for j in chains:
        num, den = 0j, 0.0
        for n in times:
            pi = weight(j, n)
            num += pi * orbit.state(n).get(j + n * step)
            den += pi * pi
        anchor[j] = num / den
        dens.append(den)
    eps = 0.0
    for n in times:
        y = orbit.state(n)
        sq = 0.0
        for i in set(y.coefficients) | {j + n * step for j in chains}:
            j = i - n * step
            sq += abs(y.get(i) - (weight(j, n) * anchor[j] if j in anchor else 0j)) ** 2
        eps = max(eps, math.sqrt(sq))
    return anchor, eps, math.sqrt(max(dens) / min(dens))


class TestBlockAssembly:
    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_dense_windows_match_the_block_loops(self, n):
        # script-S at N is L_{2N}, script-B at N is L_{2N+1}^H
        rng = np.random.default_rng(100 + n)
        for dim in (1, 2, 4):
            a = random_invertible(rng, dim)
            adj = a.entries.conj().T
            assert np.array_equal(shadowing._dense_window(a, 2 * n), _reference_stencil(a.entries, n))
            assert np.array_equal(
                shadowing._dense_window(a, 2 * n + 1).conj().T, _reference_compression(adj, n)
            )

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_script_b_gain_is_the_odd_window_sigma_min(self, dim):
        # L_{2N+1}, (Lx)_j = x_{j+1} - A x_j on x_0..x_{2N+1}, looped block by block
        rng = np.random.default_rng(200 + dim)
        a = random_invertible(rng, dim)
        for n in range(4):
            k = 2 * n + 1
            window = np.zeros((k * dim, (k + 1) * dim), dtype=np.complex128)
            for j in range(k):
                rows = slice(j * dim, (j + 1) * dim)
                window[rows, j * dim : (j + 1) * dim] = -a.entries
                window[rows, (j + 1) * dim : (j + 2) * dim] = np.eye(dim)
            svals = np.linalg.svd(window, compute_uv=False)
            gain = ss.window_probe(a, "script-B", n).gain
            assert abs(gain - svals[-1]) <= 1e-12 * svals[0], n


class TestShiftChainProbe:
    @pytest.mark.parametrize("kind", ["script-B", "script-S"])
    @pytest.mark.parametrize("crossover", [-2, 0, 3])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_chains_match_dense_window_svd(self, direction, crossover, kind):
        t = ss.ShiftOperator(direction, W_HI, W_LO, crossover)
        for n in (1, 2, 3, 5, 8):
            for m in (n + 8, n, 1):  # generous and tight materialization margins
                if kind == "script-B":
                    mat = _reference_compression(ss.materialize(ss.adjoint(t), m).entries, n)
                else:
                    mat = _reference_stencil(ss.materialize(t, m).entries, n)
                svals = np.linalg.svd(mat, compute_uv=False)
                gain = ss.window_probe(t, kind, n, m).gain
                assert abs(gain - svals[-1]) <= 1e-10 * svals[0], (n, m)

    def test_tied_chains_match_dense_window_svd(self):
        # equal weights make every chain a near-tie, so little is pruned
        for weights in ((1.0, 1.0), (1.5, 0.9), (W_LO, W_HI)):
            t = ss.ShiftOperator("forward", *weights, 1)
            for n in (1, 4):
                mat = _reference_compression(ss.materialize(ss.adjoint(t), n + 3).entries, n)
                svals = np.linalg.svd(mat, compute_uv=False)
                gain = ss.window_probe(t, "script-B", n, n + 3).gain
                assert abs(gain - svals[-1]) <= 1e-10 * svals[0]

    @pytest.mark.parametrize(
        "kind, n, m, gain_hex",
        [
            ("script-S", 1, 9, "0x1.4577207644377p-2"),
            ("script-S", 3, 3, "0x1.2fe96e6d0879dp-2"),
            ("script-S", 6, 14, "0x1.3cc8a99bc2aeep-17"),
            ("script-B", 2, 2, "0x1.69c3c18d1ff38p-1"),
            ("script-B", 5, 13, "0x1.c00000084fff8p-16"),
            ("script-B", 8, 8, "0x1.a66124238cb2ep-10"),
        ],
    )
    def test_backward_shift_gains_are_pinned_exactly(self, kind, n, m, gain_hex):
        # the digits a crossover-2 backward shift's chains give; any change to
        # the shift convention or the chain arithmetic moves at least one
        t = ss.ShiftOperator("backward", W_HI, W_LO, 2)
        assert ss.window_probe(t, kind, n, m).gain.hex() == gain_hex

    @pytest.mark.parametrize(
        "weights, kind, n, gain_hex",
        [
            ((1.0, 1.0), "script-B", 1, "0x1.c7b90e3024582p-2"),
            ((1.0, 1.0), "script-B", 8, "0x1.6f885e6312d71p-4"),
            ((1.0, 1.0), "script-S", 1, "0x1.3c6ef372fe94fp-1"),
            ((1.0, 1.0), "script-S", 8, "0x1.85ca828b02085p-4"),
            ((1.5, 0.9), "script-B", 1, "0x1.f12361e310c5cp-2"),
            ((1.5, 0.9), "script-B", 8, "0x1.f531eb3308312p-5"),
            ((1.5, 0.9), "script-S", 1, "0x1.4b0d44e1cc0bdp-1"),
            ((1.5, 0.9), "script-S", 8, "0x1.4fb8b761cec81p-4"),
            ((0.5, 2.0), "script-B", 1, "0x1.8d2e9d540e799p-3"),
            ((0.5, 2.0), "script-B", 8, "0x1.5798257d48148p-13"),
            ((0.5, 2.0), "script-S", 1, "0x1.a827999fcef33p-2"),
            ((0.5, 2.0), "script-S", 8, "0x1.57ff7cb99d902p-13"),
        ],
    )
    def test_forward_tied_shift_gains_are_pinned_exactly(self, weights, kind, n, gain_hex):
        # near-tied chains, where most survive the bounds and reach the SVD;
        # M = N + 3 leaves chains of every length, with and without an extra column
        t = ss.ShiftOperator("forward", *weights, 1)
        assert ss.window_probe(t, kind, n, n + 3).gain.hex() == gain_hex

    def test_tiny_gain_has_relative_accuracy(self):
        # 3.1086244689504298e-15 is this compression's smallest singular
        # value in 120-digit arithmetic; a dense SVD resolves it only to
        # about 1e-16 absolute
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        gain = ss.window_probe(t, "script-B", 32, 40).gain
        assert gain == pytest.approx(3.1086244689504298e-15, rel=1e-12)

    def test_argument_errors(self):
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        with pytest.raises(ValueError):
            ss.window_probe(t, "script-B", 3)
        with pytest.raises(ValueError):
            ss.window_probe(t, "script-S", 0, 5)
        with pytest.raises(ValueError):
            ss.window_probe(t, "script-B", 3, 0)
        with pytest.raises(ValueError):
            ss.window_probe(t, "script-X", 3, 5)
        for kind in ("script-S", "script-B"):
            with pytest.raises(TypeError, match="not an operator"):
                ss.window_probe(np.eye(2), kind, 3)


class TestArrayGainAndOracle:
    def test_gain_matches_row_loop(self):
        rng = np.random.default_rng(55)
        for trial in range(20):
            q = float(rng.uniform(1.05, 2.0))
            if trial % 2:
                op = random_invertible(rng, int(rng.integers(1, 6)))
                x = rng.standard_normal(op.dim) + 1j * rng.standard_normal(op.dim)
                # real rows, and real x with complex T*x
                more = [(ss.DenseOperator(op.entries.real), x.real), (op, x.real)]
                tol = 1e-14  # the row norms are summed in another order
                id_tol = 1e-15  # the identity's norms are hypot sums, not np.linalg.norm
            else:
                direction = "forward" if rng.uniform() < 0.5 else "backward"
                wp, wn = np.exp(rng.uniform(np.log(0.2), np.log(5.0), size=2))
                op = ss.ShiftOperator(direction, float(wp), float(wn), int(rng.integers(-2, 3)))
                support = rng.integers(-3, 4, size=4)  # repeats leave gaps
                x = ss.SupportedVector({int(i): complex(*rng.standard_normal(2)) for i in support})
                more = [(op, ss.SupportedVector({i: v.real for i, v in x.coefficients.items()}))]
                tol = id_tol = 0.0  # same operations in the same order
            for op, x in [(op, x), *more]:  # real rows skip hypot
                self.check_gain(op, x, q, tol, id_tol)
        # the 61-index eigenvectors of the workload and `example17`; the
        # second has complex rows, so its norms go through hypot
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        for lam in (1.0, np.exp(0.3j)):
            x = ss.shift_eigenvector(ss.adjoint(t), lam, radius=30)
            for q in (1.2, 1.1, 1.01):
                self.check_gain(t, x, q, 0.0, 0.0)

    @staticmethod
    def check_gain(op, x, q, tol, id_tol):
        res = ss.bgain_test_sequence(op, x, q)
        ref = _reference_gain_measured(op, x, q, res.truncation)
        assert abs(res.gain_measured - ref) <= tol * ref
        t_star_x = ss.apply(ss.adjoint(op), x)
        identity = (
            vec_norm((1.0 / q) * x - t_star_x) * q + vec_norm(q * x - t_star_x)
        ) / ((1.0 + q) * vec_norm(x))
        assert abs(res.gain_identity - identity) <= id_tol * identity

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_shift_oracle_matches_time_loop(self, direction):
        for crossover in (-2, 0, 3):
            t = ss.ShiftOperator(direction, W_HI, W_LO, crossover)
            for seed in (
                ss.SupportedVector({-3: 0.4, 0: 1.0 - 0.5j, 2: -0.3j, 5: 0.2}),
                ss.SupportedVector({-40: 1.0, 40: 0.5j}),  # chains far apart
            ):
                for n_lo, n_hi in ((-6, 6), (0, 5), (-4, 0)):
                    orbit = ss.generate_pseudo_orbit(t, seed, 1e-3, (n_lo, n_hi), rng_seed=9)
                    res = ss.shadow_oracle_lsq(t, orbit)
                    anchor, eps, cond = _reference_shift_oracle(t, orbit)
                    assert res.best_anchor.coefficients == anchor
                    assert res.condition == cond
                    assert res.epsilon_achieved == pytest.approx(eps, rel=1e-13)

    @pytest.mark.parametrize(
        "seed, n, limit_mib", [({0: 1.0}, 1000, 2.0), ({-400: 1.0, 400: 0.5j}, 100, 1.0)]
    )
    def test_shift_oracle_memory_does_not_scale_with_the_index_span(self, seed, n, limit_mib):
        # a chain x time table is small; a time x index-span table would hold
        # W x span entries, 91.8 MiB and 4.6 MiB at peak on these two orbits
        s = ss.ShiftOperator("backward", W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(s, ss.SupportedVector(seed), 1e-3, (-n, n), rng_seed=5)
        tracemalloc.start()
        try:
            ss.shadow_oracle_lsq(s, orbit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20


def _reference_draw(image, delta, rng):
    """Defect shaped like the given state, drawn as the per-step loop drew it."""
    if isinstance(image, ss.SupportedVector):
        support = image.support() or [0]
        g = rng.standard_normal(len(support)) + 1j * rng.standard_normal(len(support))
        r = np.linalg.norm(g)
        if r == 0.0 or delta == 0.0:
            return ss.SupportedVector({support[0]: 0.0})
        scale = delta / r
        return ss.SupportedVector({n: scale * c for n, c in zip(support, g)})
    d = len(image)
    g = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    r = np.linalg.norm(g)
    if r == 0.0 or delta == 0.0:
        return np.zeros(d, dtype=np.complex128)
    scale = delta / r
    return scale * g


def _reference_pseudo_orbit(op, x0, delta, window, rng_seed):
    """Per-step loop: draw each defect on the state it perturbs, forward steps
    first, then backward steps through the exact inverse."""
    n_lo, n_hi = window
    rng = np.random.default_rng(rng_seed)
    op_inv = ss.inverse(op)
    forward = [x0]
    for _ in range(n_hi):
        image = ss.apply(op, forward[-1])
        forward.append(image + _reference_draw(image, delta, rng))
    backward = [x0]
    for _ in range(-n_lo):
        cur = backward[-1]
        z = _reference_draw(cur, delta, rng)
        backward.append(ss.apply(op_inv, cur - z))
    states = list(reversed(backward[1:])) + forward
    defects = [states[j + 1] - ss.apply(op, states[j]) for j in range(len(states) - 1)]
    return states, defects


def _reference_orbit_from_defects(op, x0, defects, window):
    n_lo, n_hi = window
    op_inv = ss.inverse(op)
    idx0 = -n_lo
    states = [None] * (n_hi - n_lo + 1)
    states[idx0] = x0
    for j in range(idx0, len(states) - 1):
        states[j + 1] = ss.apply(op, states[j]) + defects[j]
    for j in range(idx0 - 1, -1, -1):
        states[j] = ss.apply(op_inv, states[j + 1] - defects[j])
    actual = [states[j + 1] - ss.apply(op, states[j]) for j in range(len(states) - 1)]
    return states, actual, max((vec_norm(z) for z in actual), default=0.0)


def _bits(v):
    """Exact value of a state or defect: listed indices in order, signed zeros kept."""
    if isinstance(v, ss.SupportedVector):
        return [(n, c.real.hex(), c.imag.hex()) for n, c in v.coefficients.items()]
    return np.asarray(v).tobytes()


ORBIT_WINDOWS = ((-8, 8), (0, 5), (-4, 0), (-64, 64))
ORBIT_DELTAS = (1e-3, 0.0)


def _dense_case(d):
    rng = np.random.default_rng(100 + d)
    op, _ = random_hyperbolic(rng, d, normal=True)
    x0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return op, [x0]


def _shift_case(direction, wp, wn, crossover):
    seeds = [
        ss.basis_vector(0),
        ss.SupportedVector({5: 0.5 - 1j, -3: 1.0, 2: 2j, 0: -0.25}),
        ss.SupportedVector({4: 1.0, -2: 0.0}),
        ss.SupportedVector({0: 1.0, 3: -0.0}),  # a zero defect must keep this -0.0
    ]
    return ss.ShiftOperator(direction, wp, wn, crossover), seeds


ORBIT_CASES = {
    "dense-1": lambda: _dense_case(1),
    "dense-3": lambda: _dense_case(3),
    "dense-32": lambda: _dense_case(32),
    "shift-forward-0": lambda: _shift_case("forward", W_HI, W_LO, 0),
    "shift-backward-0": lambda: _shift_case("backward", W_HI, W_LO, 0),
    "shift-backward-2": lambda: _shift_case("backward", 0.7, 1.6, 2),
}


class TestOrbitReference:
    @pytest.mark.parametrize("case", sorted(ORBIT_CASES))
    def test_orbits_match_the_per_step_loop(self, case):
        op, seeds = ORBIT_CASES[case]()
        for seed_no, x0 in enumerate(seeds):
            for window in ORBIT_WINDOWS:
                for draw_no, delta in enumerate(ORBIT_DELTAS):
                    rng_seed = 1000 * seed_no + 20 * draw_no + window[1]
                    orbit = ss.generate_pseudo_orbit(op, x0, delta, window, rng_seed=rng_seed)
                    states, defects = _reference_pseudo_orbit(op, x0, delta, window, rng_seed)
                    assert orbit.delta == delta
                    assert [_bits(s) for s in orbit.states] == [_bits(s) for s in states]
                    assert [_bits(z) for z in orbit.defects] == [_bits(z) for z in defects]
                    if case.startswith("shift"):  # shift orbits are only drawn
                        continue

                    replay = ss.orbit_from_defects(op, x0, defects, window)
                    states, actual, ref_delta = _reference_orbit_from_defects(
                        op, x0, defects, window
                    )
                    assert replay.delta == ref_delta
                    assert [_bits(s) for s in replay.states] == [_bits(s) for s in states]
                    assert [_bits(z) for z in replay.defects] == [_bits(z) for z in actual]

    @pytest.mark.parametrize("weight", [1e200, 1e-200], ids=["forward", "backward"])
    def test_overflowing_shift_orbit_refused(self, weight):
        # 1e200 * 1e200 overflows: forward through T, or backward through T^-1
        op = ss.ShiftOperator("forward", weight, weight)
        x0 = ss.basis_vector(0, 1e200)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ss.generate_pseudo_orbit(op, x0, 1e-3, (-2, 2), rng_seed=0)
        defects = [ss.basis_vector((n + 1) * op.step, 1e-3) for n in range(-2, 2)]
        with pytest.raises(TypeError, match="needs a dense operator"):
            ss.orbit_from_defects(op, x0, defects, (-2, 2))

    def test_shift_seed_without_listed_index_rejected(self):
        op = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        with pytest.raises(ValueError, match="at least one index"):
            ss.generate_pseudo_orbit(op, ss.SupportedVector({}), 1e-3, (-3, 3), rng_seed=0)


class TestInt64Indices:
    """numpy holds shift indices in int64; a window that leaves it is refused."""

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("edge", [2**63 - 2, -(2**63) + 2], ids=["top", "bottom"])
    def test_orbits_past_the_limit_are_refused(self, direction, edge):
        op = ss.ShiftOperator(direction, 2.0, 0.5)
        # three steps toward the edge from two steps inside it
        window = (0, 3) if (edge > 0) == (op.step > 0) else (-3, 0)
        x0 = ss.SupportedVector({edge: 1.0})
        with pytest.raises(ValueError, match=r"int64, -2\*\*63\.\.2\*\*63 - 1"):
            ss.generate_pseudo_orbit(op, x0, 0.0, window, rng_seed=0)
        with pytest.raises(TypeError, match="needs a dense operator"):
            ss.orbit_from_defects(op, x0, [ss.SupportedVector({})] * 3, window)

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("seed", [2**62, 2**63 - 9, -(2**63) + 8], ids=["2**62", "top", "bottom"])
    def test_orbits_up_to_the_limit_match_the_per_step_loop(self, direction, seed):
        # on (-8, 8) the last two seeds reach 2**63 - 1 and -2**63 exactly
        op = ss.ShiftOperator(direction, 2.0, 0.5, seed - 3)
        x0 = ss.SupportedVector({seed: 1.0, seed - 1 if seed > 0 else seed + 1: -0.5j})
        orbit = ss.generate_pseudo_orbit(op, x0, 1e-3, (-8, 8), rng_seed=3)
        states, defects = _reference_pseudo_orbit(op, x0, 1e-3, (-8, 8), 3)
        assert [_bits(s) for s in orbit.states] == [_bits(s) for s in states]
        assert [_bits(z) for z in orbit.defects] == [_bits(z) for z in defects]
        oracle = ss.shadow_oracle_lsq(op, orbit)
        anchor, eps, cond = _reference_shift_oracle(op, orbit)
        assert oracle.best_anchor.coefficients == anchor
        assert oracle.condition == cond
        assert oracle.epsilon_achieved == pytest.approx(eps, rel=1e-13)


# seeds for the table tests; the last lists more chains than a pairwise sum
# adds one by one, so a sum in another order would show
TABLE_SEEDS = (
    ss.basis_vector(0),
    ss.SupportedVector({5: 0.5 - 1j, -3: 1.0, 2: 2j, 0: -0.25}),
    ss.SupportedVector({0: 1.0, 3: -0.0}),
    ss.SupportedVector({(7 * k) % 23 - 11: complex(k, -k / 3) for k in range(12)}),
)


class TestChainTableOrbit:
    """Shift orbits stay a chain x time table; vectors are built when read."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        count = [0]
        init = ss.SupportedVector.__init__

        def counted(self, *args, **kwargs):
            count[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(ss.SupportedVector, "__init__", counted)
        return count

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_orbit_and_oracle_build_only_the_anchor(self, direction, constructions):
        op = ss.ShiftOperator(direction, W_HI, W_LO, 0)
        x0 = TABLE_SEEDS[1]
        window = (-6, 5)
        orbit = ss.generate_pseudo_orbit(op, x0, 1e-3, window, rng_seed=3)
        ss.shadow_oracle_lsq(op, orbit)
        assert constructions[0] == 1  # the oracle's anchor
        assert orbit.state(0) is x0
        orbit.state(2)
        assert constructions[0] == 2
        states, defects = orbit.states, orbit.defects
        # every other state (x0 is the seed itself) and every defect, once
        assert constructions[0] == 1 + (len(states) - 1) + len(defects)
        assert orbit.states is states and orbit.state(2) is states[8]
        assert constructions[0] == 1 + (len(states) - 1) + len(defects)
        ref_states, ref_defects = _reference_pseudo_orbit(op, x0, 1e-3, window, 3)
        assert [_bits(s) for s in states] == [_bits(s) for s in ref_states]
        assert [_bits(z) for z in defects] == [_bits(z) for z in ref_defects]

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_drawn_norms_are_those_of_the_vectors(self, direction):
        op = ss.ShiftOperator(direction, 0.7, 1.6, 2)
        for x0 in TABLE_SEEDS:
            for window in ((-8, 8), (0, 5), (-4, 0)):
                orbit = ss.generate_pseudo_orbit(op, x0, 1e-3, window, rng_seed=5)
                assert orbit.defect_norms() == [z.norm() for z in orbit.defects]
            # one defect column, where numpy's pairwise sum (a reduction down a single
            # column) rounds about one draw in ten of the 12-chain seed differently
            for window in ((0, 1), (-1, 0)):
                for rng_seed in range(20):
                    orbit = ss.generate_pseudo_orbit(op, x0, 1e-3, window, rng_seed=rng_seed)
                    assert orbit.defect_norms() == [z.norm() for z in orbit.defects]

    def test_orbit_is_immutable(self):
        orbit = ss.generate_pseudo_orbit(ONE_DIM_DOUBLE, np.zeros(1), 1e-3, (-2, 2), rng_seed=0)
        with pytest.raises(AttributeError, match="immutable"):
            orbit.delta = 1.0


# float.hex of the dense shadow and oracle digits on one non-normal orbit;
# d = 8, so a norm summed down a column-major table would pair its terms
# differently and show here
DENSE_DIGITS_HEX = {
    "epsilon_achieved": "0x1.4492d797eeecdp-9",
    "recurrence_residual": "0x1.db0ed1f551a49p-60",
    "anchor": [
        "0x1.e401817a7fd1ap+0", "-0x1.4489afbd67d12p-2", "-0x1.cac9ee64a698fp-7",
        "0x1.178d22c6d0e19p-2", "-0x1.a0a9bceddef77p-3", "0x1.ecee7d7406b18p+0",
        "0x1.cd51ed6584c9cp-1", "-0x1.cfc8cb633d2c0p-1", "-0x1.d402302dd9aefp-5",
        "-0x1.05b03af65fe7dp-3", "0x1.15a0e3c44262dp+0", "0x1.3d55ea172e8ebp-1",
        "0x1.1614af20526fep-2", "0x1.370f67748ca87p-1", "-0x1.ab021565abef8p-1",
        "0x1.111509a9d2b57p-1",
    ],
    "oracle_epsilon_achieved": "0x1.3da1a66437617p-9",
    "condition": "0x1.2b6410a91f4c3p+8",
    "best_anchor": [
        "0x1.e4016f83cb957p+0", "-0x1.448988ed3586fp-2", "-0x1.cabd2c87da4f7p-7",
        "0x1.178d316adfd04p-2", "-0x1.a0a9e63831efep-3", "0x1.ecee6cad66353p+0",
        "0x1.cd524117c0645p-1", "-0x1.cfc8b1f5b7ba6p-1", "-0x1.d4037f25c518ap-5",
        "-0x1.05afb08d16ef0p-3", "0x1.15a0830562659p+0", "0x1.3d55dfc03479ep-1",
        "0x1.16148435b7573p-2", "0x1.370fa56437937p-1", "-0x1.ab01b9df5eac2p-1",
        "0x1.11153e82ffaf8p-1",
    ],
}


# the same operator, seed and draw seed on the windows where the forward and
# backward fills meet the window's edge
EDGE_DIGITS_HEX = {
    (0, 6): {
        "epsilon_achieved": "0x1.d184cf2f92facp-10",
        "recurrence_residual": "0x1.0da304d95fb06p-60",
        "anchor": [
            "0x1.e3da56c4411bdp+0", "-0x1.4409184770086p-2", "-0x1.d87fa0732d853p-7",
            "0x1.1801ceec896efp-2", "-0x1.a0271d95f176ep-3", "0x1.ecf70ac8b68bap+0",
            "0x1.ccf95f762cf01p-1", "-0x1.cffc0faefb8bdp-1", "-0x1.d27d2f42360ddp-5",
            "-0x1.05cfd132b91b0p-3", "0x1.15b9a1778a238p+0", "0x1.3d6c85736967ep-1",
            "0x1.166ac13c7ad62p-2", "0x1.36f37bff98f0ap-1", "-0x1.aad5632927ab4p-1",
            "0x1.113bf70f36e47p-1",
        ],
        "oracle_epsilon_achieved": "0x1.8168b2eeed94cp-10",
        "condition": "0x1.2e5acaa9da25cp+5",
        "best_anchor": [
            "0x1.e3e673c721d0ep+0", "-0x1.4430a9cc65f89p-2", "-0x1.d8ca00e1f01ebp-7",
            "0x1.17c14e1c3b32ep-2", "-0x1.a01587faf2098p-3", "0x1.ed0dafbea9104p+0",
            "0x1.cd02210e4a5f7p-1", "-0x1.cff86f48d15f7p-1", "-0x1.d27d3c5aade21p-5",
            "-0x1.0589827d08a30p-3", "0x1.15abfc7288e3ap+0", "0x1.3d73fce782959p-1",
            "0x1.1659f0da0326bp-2", "0x1.3715259114bfdp-1", "-0x1.aac5900dca060p-1",
            "0x1.11268d11e8166p-1",
        ],
    },
    (-6, 0): {
        "epsilon_achieved": "0x1.4fb97447bcbcep-10",
        "recurrence_residual": "0x1.1792339d66cb1p-60",
        "anchor": [
            "0x1.e3cbd8473f14dp+0", "-0x1.44310348d0aafp-2", "-0x1.e6a38d02a6035p-7",
            "0x1.1841a5a199fb2p-2", "-0x1.9e73319742515p-3", "0x1.ececcca958c10p+0",
            "0x1.ccf17651621bdp-1", "-0x1.cff35050f202bp-1", "-0x1.d14111d46f6ebp-5",
            "-0x1.05e009b2b478bp-3", "0x1.15af4772c32b6p+0", "0x1.3d8be576c2ec1p-1",
            "0x1.16ed436c3292dp-2", "0x1.3745be65f3b4fp-1", "-0x1.aaa2dd8f8caabp-1",
            "0x1.112945ef23fd2p-1",
        ],
        "oracle_epsilon_achieved": "0x1.4a0b4034bc89ap-10",
        "condition": "0x1.7a10deb5749acp+5",
        "best_anchor": [
            "0x1.e3d14fb0b5b5bp+0", "-0x1.444e35b554f16p-2", "-0x1.dacbfdad964aep-7",
            "0x1.181a9f84b0520p-2", "-0x1.9edd9b845233cp-3", "0x1.ecf0e6d7d7203p+0",
            "0x1.ccf698e920321p-1", "-0x1.cff8d195da816p-1", "-0x1.d0e29aba2faedp-5",
            "-0x1.0598f0faaf253p-3", "0x1.15a457c5069cep+0", "0x1.3daa6f53d2b7cp-1",
            "0x1.16b4ae2514feep-2", "0x1.37258a631024fp-1", "-0x1.aab186a22b251p-1",
            "0x1.111ced9d92113p-1",
        ],
    },
    (0, 0): {
        "epsilon_achieved": "0x0.0p+0",
        "recurrence_residual": "0x0.0p+0",
        "anchor": [
            "0x1.e3d25e665d57fp+0", "-0x1.43e9ceafba93ep-2", "-0x1.d986272a907a8p-7",
            "0x1.1839bc6804efbp-2", "-0x1.a01d3939048aap-3", "0x1.ecea456bb41d5p+0",
            "0x1.cd067088ab088p-1", "-0x1.cff69f70c848bp-1", "-0x1.d323856e5d358p-5",
            "-0x1.05fdf475c5a48p-3", "0x1.15a1902549a64p+0", "0x1.3d5ec7db3294ep-1",
            "0x1.169c1bed7e48dp-2", "0x1.372533ece79f6p-1", "-0x1.aac00d48ed1e7p-1",
            "0x1.113d248a81dc1p-1",
        ],
        "oracle_epsilon_achieved": "0x0.0p+0",
        "condition": "0x1.0000000000000p+0",
        "best_anchor": [
            "0x1.e3d25e665d57fp+0", "-0x1.43e9ceafba93ep-2", "-0x1.d986272a907a8p-7",
            "0x1.1839bc6804efbp-2", "-0x1.a01d3939048aap-3", "0x1.ecea456bb41d5p+0",
            "0x1.cd067088ab088p-1", "-0x1.cff69f70c848bp-1", "-0x1.d323856e5d358p-5",
            "-0x1.05fdf475c5a48p-3", "0x1.15a1902549a64p+0", "0x1.3d5ec7db3294ep-1",
            "0x1.169c1bed7e48dp-2", "0x1.372533ece79f6p-1", "-0x1.aac00d48ed1e7p-1",
            "0x1.113d248a81dc1p-1",
        ],
    },
}


class TestOrbitOwnership:
    """An orbit is read only by the operator whose recurrence built it, or by one
    equal to it: delta and the defect norms hold for that operator alone."""

    def test_a_foreign_dense_operator_is_refused(self):
        # diag(3, 0.25) read this diag(2, 0.5) orbit as its own: epsilon 0.904
        # against a bound of 0.005, with no error
        a, other = ss.diagonal([2.0, 0.5]), ss.diagonal([3.0, 0.25])
        orbit = ss.generate_pseudo_orbit(a, np.zeros(2), 1e-3, (-5, 5), rng_seed=0)
        _assert_foreign(lambda: ss.construct_shadow(other, ss.diagonal([0.0, 1.0]), orbit))
        _assert_foreign(lambda: ss.shadow_oracle_lsq(other, orbit))

    def test_a_foreign_shift_is_refused(self):
        # the oracle of the forward shift (3, 0.3) read example 17's T orbit at N = 8
        # (seed 8, as `example17 --seed 0` draws it) as 1927, where T itself reads 2.15
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(t, ss.basis_vector(0), 1e-3, (-8, 8), rng_seed=8)
        _assert_foreign(lambda: ss.shadow_oracle_lsq(ss.ShiftOperator("forward", 3.0, 0.3, 0), orbit))

    def test_an_equal_shift_reads_the_orbit_bit_for_bit(self):
        # an equal dense operator reads its orbit in test_dense_digits_are_pinned
        t = ss.ShiftOperator("backward", W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(t, TABLE_SEEDS[1], 1e-3, (-6, 6), rng_seed=4)

        def bits(op):
            res = ss.shadow_oracle_lsq(op, orbit)
            anchor = [(i, c.real.hex(), c.imag.hex()) for i, c in res.best_anchor.coefficients.items()]
            return res.epsilon_achieved.hex(), res.condition.hex(), anchor

        assert bits(ss.ShiftOperator("backward", W_HI, W_LO, 0)) == bits(t)


class TestDenseOrbitTable:
    """Dense orbits are one d x W table, read only by the orbit's own operator."""

    def test_shadow_and_oracle_refuse_another_kind_or_dimension(self):
        a = ss.diagonal([2.0, 0.5])
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        shift = ss.generate_pseudo_orbit(t, ss.basis_vector(0), 1e-3, (-2, 2), rng_seed=0)
        wide = ss.generate_pseudo_orbit(ss.diagonal([2.0, 0.5, 3.0]), np.ones(3), 1e-3, (-2, 2), 0)
        for orbit in (shift, wide):
            _assert_foreign(lambda: ss.construct_shadow(a, ss.riesz_projector(a), orbit))
            _assert_foreign(lambda: ss.shadow_oracle_lsq(a, orbit))

    def test_shadow_and_oracle_read_no_vector(self, monkeypatch):
        # they read the table through the ownership check: no vector is checked or built
        a, _ = random_hyperbolic(np.random.default_rng(32), 32, normal=True)
        orbit = ss.generate_pseudo_orbit(a, np.zeros(32), 1e-3, (-30, 30), rng_seed=5)
        b = ss.riesz_projector(a)
        calls, check = [], shadowing._vector_of
        monkeypatch.setattr(shadowing, "_vector_of", lambda op, v: calls.append(v) or check(op, v))
        ss.construct_shadow(a, b, orbit)
        ss.shadow_oracle_lsq(a, orbit)
        assert calls == [] and "states" not in orbit.__dict__
        assert all(v is None for v in (*orbit._vectors["states"], *orbit._vectors["defects"]))

    def test_dense_digits_are_pinned(self):
        rng = np.random.default_rng(2101)
        a, _ = random_hyperbolic(rng, 8, normal=False)
        x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        orbit = ss.generate_pseudo_orbit(a, x0, 1e-3, (-20, 20), rng_seed=21)

        def hexes(v):
            return [h for c in v for h in (c.real.hex(), c.imag.hex())]

        for op in (a, ss.DenseOperator(a.entries.copy())):  # the operator, and one equal to it
            res = ss.construct_shadow(op, ss.riesz_projector(a), orbit)
            oracle = ss.shadow_oracle_lsq(op, orbit)
            assert {
                "epsilon_achieved": res.epsilon_achieved.hex(),
                "recurrence_residual": res.recurrence_residual.hex(),
                "anchor": hexes(res.anchor),
                "oracle_epsilon_achieved": oracle.epsilon_achieved.hex(),
                "condition": oracle.condition.hex(),
                "best_anchor": hexes(oracle.best_anchor),
            } == DENSE_DIGITS_HEX

    @pytest.mark.parametrize("window", sorted(EDGE_DIGITS_HEX))
    def test_window_edge_digits_are_pinned(self, window):
        rng = np.random.default_rng(2101)
        a, _ = random_hyperbolic(rng, 8, normal=False)
        x0 = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        orbit = ss.generate_pseudo_orbit(a, x0, 1e-3, window, rng_seed=21)
        res = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
        oracle = ss.shadow_oracle_lsq(a, orbit)

        def hexes(v):
            return [h for c in v for h in (c.real.hex(), c.imag.hex())]

        assert {
            "epsilon_achieved": res.epsilon_achieved.hex(),
            "recurrence_residual": res.recurrence_residual.hex(),
            "anchor": hexes(res.anchor),
            "oracle_epsilon_achieved": oracle.epsilon_achieved.hex(),
            "condition": oracle.condition.hex(),
            "best_anchor": hexes(oracle.best_anchor),
        } == EDGE_DIGITS_HEX[window]

    def test_shift_operator_is_refused(self):
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        orbit = ss.generate_pseudo_orbit(t, ss.basis_vector(0), 1e-3, (-2, 2), rng_seed=0)
        with pytest.raises(TypeError, match="needs dense operator and splitting"):
            ss.construct_shadow(t, ss.identity(1), orbit)
        with pytest.raises(TypeError, match="needs dense operator and splitting"):
            ss.construct_shadow(ss.identity(1), t, orbit)

    def test_singular_operator_refused_on_a_one_sided_window(self):
        # no step runs through A^-1 on (0, 3), yet the orbit needs an invertible A
        a = ss.DenseOperator([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ss.SingularOperatorError):
            ss.generate_pseudo_orbit(a, np.ones(2), 1e-3, (0, 3), rng_seed=0)
        with pytest.raises(ss.SingularOperatorError):
            ss.orbit_from_defects(a, np.ones(2), [np.zeros(2)] * 3, (0, 3))

    def test_single_time_window_has_no_residual(self):
        a = ss.diagonal([2.0, 0.5])
        orbit = ss.generate_pseudo_orbit(a, np.array([1.0, -2j]), 1e-3, (0, 0), rng_seed=0)
        res = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
        assert res.recurrence_residual == 0.0 and res.epsilon_achieved == 0.0
        assert np.array_equal(res.anchor, [1.0, -2j])


def test_refused_chain_probe_allocates_nothing_of_its_size():
    # N = 10^6 asks for a 116 TiB index grid; the (4N+3)-long node vectors
    # (about 60 MiB) must not be allocated before numpy refuses it.  ru_maxrss
    # is read in a fresh process, after a tiny probe has loaded everything
    code = textwrap.dedent(
        """
        import math, resource
        import shadowspec as ss
        t = ss.ShiftOperator("forward", 2 * math.sqrt(2), 1 / (2 * math.sqrt(2)), 0)
        ss.window_probe(t, "script-B", 2, 10)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        try:
            ss.window_probe(t, "script-B", 10**6, 10**6 + 8)
        except MemoryError:
            print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
        """
    )
    src = str(Path(ss.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert float(out) < 16.0
