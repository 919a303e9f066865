import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import shadowspec as ss
from _helpers import conjugated_diagonal, random_invertible

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
        witness = ss.expansivity_witness(ss.diagonal([2.0, 2.0]), n_max=5, rng_seed=0)
        assert witness.expansive_at == 1
        assert witness.sphere_min == pytest.approx(2.0, abs=1e-9)

    def test_identity_counterexample(self):
        witness = ss.expansivity_witness(ss.identity(3), n_max=4, rng_seed=0)
        assert witness.expansive_at is None
        assert witness.sphere_min == pytest.approx(1.0, abs=1e-9)
        x = witness.counterexample
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_dim2_hyperbolic_found_at_one(self):
        # sphere minimum of max(|Ax|, |A^-1 x|) for diag(3, 1/3) is
        # sqrt(9/2 + 1/18) ~ 2.134, attained at equal mixing
        witness = ss.expansivity_witness(ss.diagonal([3.0, 1.0 / 3.0]), n_max=5, rng_seed=1)
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
