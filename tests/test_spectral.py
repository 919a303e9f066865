import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shadowspec as ss
from _helpers import (
    HYPERBOLIC_BANDS,
    conjugated_diagonal,
    draw_moduli,
    random_hyperbolic,
    random_invertible,
)

W_HI = 2.0 * math.sqrt(2.0)
W_LO = 1.0 / W_HI


def _sorted(zs):
    return sorted(zs, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


class TestEigenvalues:
    def test_diagonal(self):
        eigs = _sorted(ss.eigenvalues(ss.diagonal([2.0, 0.5])))
        assert np.allclose(eigs, [0.5, 2.0])

    def test_quarter_turn_rotation(self):
        rot = ss.DenseOperator([[0.0, -1.0], [1.0, 0.0]])
        assert np.allclose(_sorted(ss.eigenvalues(rot)), [-1j, 1j], atol=1e-12)

    def test_construct_then_recover(self):
        rng = np.random.default_rng(21)
        planted = np.array([2.0, 0.5, -1.5, 3j, 0.25 - 0.25j])
        v = np.eye(5) + 0.3 * (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        a = ss.DenseOperator(v @ np.diag(planted) @ np.linalg.inv(v))
        got = _sorted(ss.eigenvalues(a))
        assert np.allclose(got, _sorted(planted), atol=1e-7)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            ss.eigenvalues(ss.identity(513))


class TestMinSingularValue:
    def test_diagonal(self):
        assert ss.min_singular_value(ss.diagonal([2.0, 0.5])) == pytest.approx(0.5)

    def test_zero_row(self):
        a = ss.DenseOperator([[1.0, 2.0], [0.0, 0.0]])
        assert ss.min_singular_value(a) == pytest.approx(0.0, abs=1e-15)

    def test_gram_matrix_oracle(self):
        rng = np.random.default_rng(3)
        a = random_invertible(rng, 4)
        gram = a.entries.conj().T @ a.entries
        expected = math.sqrt(min(np.linalg.eigvalsh(gram)))
        assert ss.min_singular_value(a) == pytest.approx(expected, rel=1e-8)


class TestClassifyDense:
    def test_gap_off_circle(self):
        report = ss.classify_dense(ss.diagonal([2.0, 0.5]))
        assert report.verdicts == ss.Verdicts(True, True, True)
        assert report.gap_sigma == pytest.approx(0.5)

    def test_identity_meets_circle(self):
        report = ss.classify_dense(ss.identity(3))
        assert report.verdicts == ss.Verdicts(False, False, False)
        assert report.gap_sigma == pytest.approx(0.0, abs=1e-12)

    def test_gap_below_explicit_tol(self):
        theta = 0.7
        a = ss.diagonal([1.000001 * np.exp(1j * theta)])
        report = ss.classify_dense(a, tol=1e-3)
        assert report.verdicts == ss.Verdicts(False, False, False)
        assert report.gap_sigma == pytest.approx(1e-6, rel=1e-3)

    def test_singular_rejected(self):
        with pytest.raises(ss.SingularOperatorError):
            ss.classify_dense(ss.DenseOperator([[1.0, 1.0], [1.0, 1.0]]))

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_three_verdicts_always_equal(self, seed):
        rng = np.random.default_rng(seed)
        a = random_invertible(rng, int(rng.integers(1, 6)))
        v = ss.classify_dense(a).verdicts
        assert v.hyperbolic == v.uniformly_expansive == v.shadowing

    @given(st.integers(0, 10**6), st.sampled_from([1.0, -1.0, 1j, -1j, np.exp(0.3j)]))
    @settings(max_examples=30, deadline=None)
    def test_rotation_invariance_of_verdicts(self, seed, lam):
        rng = np.random.default_rng(seed)
        a = random_invertible(rng, int(rng.integers(1, 5)))
        assume(abs(ss.classify_dense(a).gap_sigma - 1e-6) > 1e-7)
        assert ss.classify_dense(a).verdicts == ss.classify_dense(ss.rotate(a, lam)).verdicts

    @given(st.integers(0, 10**6), st.sampled_from([1j, -1j, np.exp(1.1j)]))
    @settings(max_examples=25, deadline=None)
    def test_rotation_scales_eigenvalue_multiset(self, seed, lam):
        rng = np.random.default_rng(seed)
        a = random_invertible(rng, 4)
        rotated = ss.eigenvalues(ss.rotate(a, lam))
        expected = ss.eigenvalues(a) / lam
        assert np.allclose(_sorted(rotated), _sorted(expected), atol=1e-8)


class TestClassifyShift:
    def test_expansive_forward_shift(self):
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        report = ss.classify_shift(t)
        assert report.verdicts == ss.Verdicts(False, True, False)
        assert report.shift_spectra.annulus_inner == pytest.approx(W_LO, abs=1e-15)
        assert report.shift_spectra.annulus_outer == pytest.approx(W_HI, abs=1e-15)
        assert report.shift_spectra.point_spectrum is None
        assert report.shift_spectra.approx_point_kind == "circles"

    def test_shadowing_backward_shift(self):
        s = ss.ShiftOperator("backward", W_HI, W_LO, 0)
        report = ss.classify_shift(s)
        assert report.verdicts == ss.Verdicts(False, False, True)
        assert report.shift_spectra.point_spectrum == pytest.approx((W_LO, W_HI))
        assert report.shift_spectra.approx_point_kind == "annulus"

    def test_uniform_weight_two(self):
        op = ss.ShiftOperator("forward", 2.0, 2.0, 0)
        report = ss.classify_shift(op)
        assert report.verdicts == ss.Verdicts(True, True, True)
        assert report.shift_spectra.annulus_inner == report.shift_spectra.annulus_outer == 2.0

    @given(
        st.sampled_from(["forward", "backward"]),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.integers(-2, 2),
    )
    @settings(max_examples=60, deadline=None)
    def test_shadowing_equals_adjoint_expansivity(self, direction, wp, wn, crossover):
        assume(abs(wp - 1.0) > 0.01 and abs(wn - 1.0) > 0.01)
        op = ss.ShiftOperator(direction, wp, wn, crossover)
        lhs = ss.classify_shift(op).verdicts.shadowing
        rhs = ss.classify_shift(ss.adjoint(op)).verdicts.uniformly_expansive
        assert lhs == rhs


class TestDualityCheck:
    def test_spectrum_off_circle_passes(self):
        report = ss.duality_check(ss.diagonal([2.0, 0.5]))
        assert report.passes
        assert report.worst_value_discrepancy < 1e-10

    def test_identity_fails_both_sides_together(self):
        # at lambda = 1 both sides are singular; agreement is what matters
        report = ss.duality_check(ss.identity(2))
        assert report.surjectivity_mismatches == 0
        assert report.passes

    def test_normal_matrix_eigen_multisets(self):
        rng = np.random.default_rng(17)
        a, _ = conjugated_diagonal(rng, [2.0, 0.5, 1.7, 0.3, 1.1], normal=True)
        report = ss.duality_check(a)
        assert report.eigen_multiset_discrepancy < 1e-8
        assert report.passes


class TestExpansivityWitness:
    def test_doubling_map(self):
        witness = ss.expansivity_witness(ss.diagonal([2.0, 2.0]), n_max=5)
        assert witness.expansive_at == 1
        assert witness.sphere_min == pytest.approx(2.0, abs=1e-9)

    def test_identity_counterexample(self):
        witness = ss.expansivity_witness(ss.identity(3), n_max=4)
        assert witness.expansive_at is None
        assert witness.sphere_min == pytest.approx(1.0, abs=1e-9)
        x = witness.counterexample
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_dim2_hyperbolic_found_at_one(self):
        # sphere minimum of max(|Ax|, |A^-1 x|) for diag(3, 1/3) is
        # sqrt(9/2 + 1/18) ~ 2.134, attained at equal mixing
        witness = ss.expansivity_witness(ss.diagonal([3.0, 1.0 / 3.0]), n_max=5)
        assert witness.expansive_at == 1
        expected = math.sqrt(9.0 / 2.0 + 1.0 / 18.0)
        assert witness.per_n_minima[1] >= 2.0 - 1e-6
        assert witness.per_n_minima[1] <= expected + 1e-6


    def test_unit_circle_eigenvector_is_not_missed(self):
        # e_0 never grows under diag(1, 2, 0.5); random samples alone drift
        # away from it once the other powers grow and report a false success
        witness = ss.expansivity_witness(ss.diagonal([1.0, 2.0, 0.5]), n_max=20, samples=48)
        assert witness.expansive_at is None
        assert witness.sphere_min == pytest.approx(1.0, abs=1e-12)
        assert abs(witness.counterexample[0]) == pytest.approx(1.0, abs=1e-12)

    def test_two_norm_tie_is_split_by_mixing(self):
        # at n = 1 the dual optimum t = 1/2 has a two-dimensional eigenspace:
        # both axis vectors reach exactly 2, their balanced mix only sqrt(17/8)
        a = ss.diagonal([2.0, 0.5])
        witness = ss.expansivity_witness(a, n_max=5)
        assert witness.per_n_minima[1] == pytest.approx(math.sqrt(17.0 / 8.0), rel=1e-12)
        assert witness.expansive_at == 2
        assert witness.sphere_min == pytest.approx(math.sqrt(257.0 / 32.0), rel=1e-12)
        _check_dual_weight(a.entries, witness)

    def test_pinned_operator_needs_five_steps(self):
        # a unit x has max(|A^4 x|, |A^-4 x|) = 1.366 here, so n = 4 must be refuted
        op, _ = random_hyperbolic(np.random.default_rng(52), 3, normal=False)
        witness = ss.expansivity_witness(op, n_max=20)
        assert witness.expansive_at == 5
        assert witness.per_n_minima[4] == pytest.approx(1.366, abs=1e-3)
        _check_dual_weight(op.entries, witness)
        _check_counterexample(op.entries, ss.expansivity_witness(op, n_max=4))

    def test_certificates_reverify_on_random_operators(self):
        rng = np.random.default_rng(71)
        successes = refutations = 0
        for trial in range(50):
            dim = 2 + trial % 7
            if trial % 4 == 3:  # an eigenvalue exactly on the unit circle
                moduli = draw_moduli(rng, dim, HYPERBOLIC_BANDS)
                moduli[0] = 1.0
                op, _ = conjugated_diagonal(rng, moduli)
            else:
                op, _ = random_hyperbolic(rng, dim)
            witness = ss.expansivity_witness(op, n_max=20, samples=48)
            if trial % 4 == 3:
                assert witness.expansive_at is None
                _check_counterexample(op.entries, witness)
                refutations += 1
                continue
            assert witness.expansive_at is not None
            _check_dual_weight(op.entries, witness)
            n = witness.expansive_at
            # the grid closes in on the reported optimum and beats it by no more
            # than the witness's stopping gap (relative 1e-12, plus rounding)
            grid = _grid_dual_max(op.entries, n)
            assert grid <= witness.sphere_min * (1.0 + 1e-11)
            assert witness.sphere_min <= grid * (1.0 + 1e-9)
            if n > 1:
                earlier = ss.expansivity_witness(op, n_max=n - 1, samples=48)
                _check_counterexample(op.entries, earlier)
                refutations += 1
            successes += 1
        assert successes >= 30 and refutations >= 30

    @pytest.mark.parametrize("n_max", [1, 5])
    def test_few_samples_never_turn_undecided_into_refuted(self, n_max):
        # lambda_min(t P + (1-t) Q) = 0.25 + 3.75 t reaches the threshold only
        # for 1 - t <= 1.07e-6, about 20 halvings: n = 1 must still be certified
        a = ss.diagonal([2.0, 2.0])
        witness = ss.expansivity_witness(a, n_max=n_max, samples=10)
        assert witness.expansive_at == 1 and witness.counterexample is None
        _check_dual_weight(a.entries, witness)

    @pytest.mark.parametrize("ulps", [-4, -1, 0, 1, 4])
    def test_minimum_at_the_threshold_is_never_a_counterexample(self, ulps):
        # the sphere minimum of diag(c, c) at n = 1 is c: within a few ulps of
        # the threshold the witness may certify or leave n undecided, but a
        # counterexample must lie below the threshold
        c = WITNESS_THRESHOLD + ulps * np.spacing(WITNESS_THRESHOLD)
        a = ss.diagonal([c, c])
        witness = ss.expansivity_witness(a, n_max=1)
        if witness.expansive_at is not None:
            _check_dual_weight(a.entries, witness)
        elif witness.counterexample is not None:
            _check_counterexample(a.entries, witness)
        else:
            assert witness.sphere_min >= WITNESS_THRESHOLD

    def test_rejects_nonpositive_samples(self):
        with pytest.raises(ValueError):
            ss.expansivity_witness(ss.diagonal([2.0, 0.5]), n_max=3, samples=0)


WITNESS_THRESHOLD = 2.0 - 1e-6


def _power_forms(entries, n):
    fwd = np.linalg.matrix_power(entries, n)
    bwd = np.linalg.inv(fwd)
    return fwd.conj().T @ fwd, bwd.conj().T @ bwd


def _check_dual_weight(entries, witness):
    """lambda_min(t P + (1-t) Q) >= threshold^2 at the reported t, by one eigvalsh
    (allowing eigvalsh's own backward error, a few eps times ||t P + (1-t) Q||)."""
    p, q = _power_forms(entries, witness.expansive_at)
    t = witness.dual_weight
    assert 0.0 <= t <= 1.0
    m = t * p + (1.0 - t) * q
    lam_min = np.linalg.eigvalsh(m)[0]
    allowance = 64 * np.finfo(float).eps * np.linalg.norm(m, 2)
    assert lam_min >= WITNESS_THRESHOLD**2 - allowance
    assert math.sqrt(lam_min) == pytest.approx(witness.sphere_min, rel=1e-9)


def _check_counterexample(entries, witness):
    """The reported vector is a unit vector whose n-th power images both stay
    below the threshold, at the n of least recorded value."""
    assert witness.expansive_at is None and witness.dual_weight is None
    n = min(witness.per_n_minima, key=witness.per_n_minima.get)
    x = witness.counterexample
    fwd = np.linalg.matrix_power(entries, n)
    value = max(np.linalg.norm(fwd @ x), np.linalg.norm(np.linalg.solve(fwd, x)))
    assert np.linalg.norm(x) == pytest.approx(1.0, rel=1e-12)
    assert value < WITNESS_THRESHOLD
    assert value == pytest.approx(witness.sphere_min, rel=1e-9)


def _grid_dual_max(entries, n):
    """sqrt of max_t lambda_min(t P + (1-t) Q) on a 41-point t-grid, refined
    eight times around the best point."""
    p, q = _power_forms(entries, n)
    lo, hi = 0.0, 1.0
    for _ in range(9):
        ts = np.linspace(lo, hi, 41)
        vals = np.linalg.eigvalsh(ts[:, None, None] * p + (1.0 - ts)[:, None, None] * q)[:, 0]
        k = int(np.argmax(vals))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, 40)]
    return math.sqrt(vals[k])


class TestShiftEigenvector:
    def test_backward_shift_eigenvector_profile(self):
        s = ss.ShiftOperator("backward", W_HI, W_LO, 0)
        vec = ss.shift_eigenvector(s, 1.0, radius=6)
        for n, c in vec.coefficients.items():
            assert c == pytest.approx(W_HI ** (-abs(n)))
        # genuine eigenvector away from the truncation boundary
        image = ss.apply(s, vec)
        for n in range(-5, 6):
            assert image.get(n) == pytest.approx(vec.get(n), abs=1e-12)

    def test_rejects_lambda_outside_point_spectrum(self):
        s = ss.ShiftOperator("backward", W_HI, W_LO, 0)
        with pytest.raises(ValueError):
            ss.shift_eigenvector(s, 3.0, radius=5)
        t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
        with pytest.raises(ValueError):
            ss.shift_eigenvector(t, 1.0, radius=5)

    def test_forward_shift_with_inward_weights(self):
        # funnelling weights give the forward shift its own point spectrum
        op = ss.ShiftOperator("forward", 0.4, 2.5, 3)
        lam = 1.2j
        vec = ss.shift_eigenvector(op, lam, radius=8)
        image = ss.apply(op, vec)
        for n in range(-4, 11):
            assert image.get(n) == pytest.approx(lam * vec.get(n), abs=1e-12)
