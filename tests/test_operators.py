import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shadowspec as ss
from _helpers import random_invertible

W_HI = 2.0 * math.sqrt(2.0)
W_LO = 1.0 / W_HI


def example_shift_pair():
    t = ss.ShiftOperator("forward", W_HI, W_LO, 0)
    return t, ss.adjoint(t)


class TestApply:
    def test_forward_shift_weights_by_side(self):
        t, _ = example_shift_pair()
        up = ss.apply(t, ss.basis_vector(0))
        assert up.coefficients == {1: pytest.approx(W_HI)}
        down = ss.apply(t, ss.basis_vector(-1))
        assert down.coefficients == {0: pytest.approx(W_LO)}

    def test_identity_dense_is_identity(self):
        v = np.array([1.0 + 2j, -3.0, 0.5j])
        assert np.array_equal(ss.apply(ss.identity(3), v), v)

    def test_backward_shift_agrees_with_materialized_window(self):
        # oracle: a 9x9 window times the coordinate vector
        _, s = example_shift_pair()
        image = ss.apply(s, ss.basis_vector(1))
        assert image.coefficients == {0: pytest.approx(W_HI)}
        window = ss.materialize(s, 4)
        coord = ss.basis_vector(1).to_window_array(4)
        expected = window.entries @ coord
        assert np.allclose(image.to_window_array(4), expected, atol=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ss.DimensionMismatchError):
            ss.apply(ss.identity(3), np.zeros(4))
        with pytest.raises(ss.DimensionMismatchError):
            ss.apply(example_shift_pair()[0], np.zeros(3))


class TestAdjoint:
    def test_conjugate_of_diagonal(self):
        adj = ss.adjoint(ss.diagonal([2j]))
        assert adj.entries[0, 0] == -2j

    def test_shift_adjoint_is_opposite_direction_shift(self):
        t, s = example_shift_pair()
        assert ss.adjoint(t) == s
        assert ss.adjoint(s) == t

    def test_inner_product_identity(self):
        # <Ax, y> == <x, A* y> for 100 random pairs
        rng = np.random.default_rng(11)
        a = random_invertible(rng, 4)
        a_star = ss.adjoint(a)
        for _ in range(100):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            lhs = np.sum(ss.apply(a, x) * np.conj(y))
            rhs = np.sum(x * np.conj(ss.apply(a_star, y)))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_involution_dense(self, seed):
        rng = np.random.default_rng(seed)
        a = random_invertible(rng, int(rng.integers(1, 5)))
        back = ss.adjoint(ss.adjoint(a))
        assert np.max(np.abs(back.entries - a.entries)) < 1e-14

    @given(
        st.sampled_from(["forward", "backward"]),
        st.floats(0.1, 10.0),
        st.floats(0.1, 10.0),
        st.integers(-3, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_involution_shift_exact(self, direction, wp, wn, crossover):
        op = ss.ShiftOperator(direction, wp, wn, crossover)
        assert ss.adjoint(ss.adjoint(op)) == op


class TestInverse:
    def test_diagonal(self):
        inv = ss.inverse(ss.diagonal([2.0, 0.5]))
        assert np.allclose(inv.entries, np.diag([0.5, 2.0]))

    def test_identity(self):
        assert np.array_equal(ss.inverse(ss.identity(3)).entries, np.eye(3))

    def test_residual_for_well_conditioned_matrix(self):
        rng = np.random.default_rng(5)
        a = random_invertible(rng, 6)
        resid = a.entries @ ss.inverse(a).entries - np.eye(6)
        assert np.max(np.abs(resid)) < 1e-10

    def test_singular_raises(self):
        entries = np.ones((3, 3), dtype=complex)
        with pytest.raises(ss.SingularOperatorError):
            ss.inverse(ss.DenseOperator(entries))

    def test_dense_inverse_is_computed_once(self):
        a = random_invertible(np.random.default_rng(6), 5)
        inv = ss.inverse(a)
        assert ss.inverse(a) is inv
        assert np.array_equal(inv.entries, np.linalg.inv(a.entries))

    def test_singular_operator_raises_on_every_call(self):
        op = ss.DenseOperator(np.ones((3, 3), dtype=complex))
        for _ in range(3):
            with pytest.raises(ss.SingularOperatorError):
                ss.inverse(op)

    def test_shift_inverse_roundtrip_is_exact(self):
        t, _ = example_shift_pair()
        v = ss.SupportedVector({-2: 1.0, 0: 2j, 3: -0.5})
        back = ss.apply(ss.inverse(t), ss.apply(t, v))
        assert back.coefficients == v.coefficients

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_apply_inverse_apply_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 6))
        a = random_invertible(rng, dim)
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        back = ss.apply(ss.inverse(a), ss.apply(a, v))
        assert np.linalg.norm(back - v) < 1e-9 * max(1.0, np.linalg.norm(v))


class TestMaterialize:
    def test_example_weights_at_half_width_one(self):
        t, _ = example_shift_pair()
        mat = ss.materialize(t, 1).entries
        assert mat[1, 0] == pytest.approx(W_LO)
        assert mat[2, 1] == pytest.approx(W_HI)
        assert np.count_nonzero(mat) == 2

    def test_unweighted_forward_shift_is_subdiagonal_of_ones(self):
        op = ss.ShiftOperator("forward", 1.0, 1.0, 0)
        mat = ss.materialize(op, 1).entries
        assert np.array_equal(mat, np.diag([1.0, 1.0], k=-1).astype(complex))

    def test_window_agrees_with_apply_on_interior_support(self):
        _, s = example_shift_pair()
        window = ss.materialize(s, 20)
        rng = np.random.default_rng(2)
        coeffs = {
            int(n): complex(rng.standard_normal(), rng.standard_normal())
            for n in rng.integers(-19, 20, size=8)
        }
        v = ss.SupportedVector(coeffs)
        direct = ss.apply(s, v).to_window_array(20)
        assert np.allclose(window.entries @ v.to_window_array(20), direct, atol=1e-13)

    @pytest.mark.parametrize("crossover", [-2, 0, 3])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_interior_columns_are_apply_exactly(self, direction, crossover):
        op = ss.ShiftOperator(direction, W_HI, W_LO, crossover)
        for n in range(1, 7):
            mat = ss.materialize(op, n).entries
            for j in range(-n + 1, n):
                image = ss.apply(op, ss.basis_vector(j)).to_window_array(n)
                assert np.array_equal(mat[:, j + n], image), (n, j)

    def test_materialize_commutes_with_adjoint_on_interior_block(self):
        t, _ = example_shift_pair()
        lhs = ss.materialize(ss.adjoint(t), 5).entries
        rhs = ss.materialize(t, 5).entries.conj().T
        assert np.allclose(lhs[1:-1, 1:-1], rhs[1:-1, 1:-1], atol=1e-15)


class TestRotate:
    def test_by_one_is_identity(self):
        t, _ = example_shift_pair()
        assert ss.rotate(t, 1.0) == t

    def test_sign_flip(self):
        assert np.allclose(ss.rotate(ss.diagonal([2.0]), -1.0).entries, [[-2.0]])

    def test_eigenvalues_scale_by_reciprocal(self):
        rng = np.random.default_rng(9)
        a = random_invertible(rng, 4)
        rotated = ss.rotate(a, 1j)
        expected = sorted(-1j * np.linalg.eigvals(a.entries), key=lambda z: (z.real, z.imag))
        got = sorted(np.linalg.eigvals(rotated.entries), key=lambda z: (z.real, z.imag))
        assert np.allclose(got, expected, atol=1e-8)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ss.NotUnimodularError):
            ss.rotate(ss.identity(2), 1.5)


class TestJsonFormat:
    def test_dense_roundtrip(self):
        rng = np.random.default_rng(4)
        a = random_invertible(rng, 3)
        back = ss.operator_from_json(ss.operator_to_json(a))
        assert np.array_equal(back.entries, a.entries)

    def test_shift_roundtrip(self):
        t, _ = example_shift_pair()
        assert ss.operator_from_json(ss.operator_to_json(t)) == t

    def test_bad_payloads_raise(self):
        with pytest.raises(ValueError):
            ss.operator_from_json({"kind": "mystery"})
        with pytest.raises(ValueError):
            ss.operator_from_json({"kind": "dense", "dim": 2, "entries": [[1, 0]]})

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "dense", "dim": 1.9, "entries": [[2.0, 0.0]]},
            {"kind": "shift", "direction": "forward", "weight_pos": 2.0,
             "weight_neg": 0.5, "crossover": 1.5},
        ],
    )
    def test_non_integral_dim_or_crossover_rejected(self, payload):
        with pytest.raises(ValueError, match="must be an integer"):
            ss.operator_from_json(payload)

    def test_integral_floats_are_read_as_integers(self):
        dense = ss.operator_from_json({"kind": "dense", "dim": 1.0, "entries": [[2.0, 0.0]]})
        assert dense.dim == 1
        shift = ss.operator_from_json(
            {"kind": "shift", "direction": "forward", "weight_pos": 2.0,
             "weight_neg": 0.5, "crossover": -2.0}
        )
        assert shift.crossover == -2 and isinstance(shift.crossover, int)

    def test_constructor_rejects_a_non_integral_crossover(self):
        # crossover 0.5 would put edge 0 on the weight_pos side, and JSON's int() would not
        with pytest.raises(ValueError, match="'crossover' must be an integer"):
            ss.ShiftOperator("forward", 2.0, 0.5, 0.5)

    def test_integral_float_crossover_round_trips_exactly(self):
        op = ss.ShiftOperator("forward", 2.0, 0.5, 2.0)
        assert op.crossover == 2 and isinstance(op.crossover, int)
        back = ss.operator_from_json(ss.operator_to_json(op))
        assert back == op
        assert [back.edge_weight(m) for m in range(-2, 6)] == [op.edge_weight(m) for m in range(-2, 6)]


class TestShiftWeights:
    @pytest.mark.parametrize("wp, wn", [(math.inf, 1.0), (1.0, np.float64(np.inf))])
    def test_infinite_weight_rejected(self, wp, wn):
        with pytest.raises(ValueError, match="shift weights must be finite"):
            ss.ShiftOperator("forward", wp, wn)

    @pytest.mark.parametrize("wp, wn", [(math.nan, 1.0), (1.0, 0.0), (-2.0, 1.0)])
    def test_nan_or_nonpositive_weight_rejected(self, wp, wn):
        with pytest.raises(ValueError, match="shift weights must be positive"):
            ss.ShiftOperator("backward", wp, wn)


class TestSupportedVector:
    def test_norm_over_listed_support(self):
        v = ss.SupportedVector({0: 3.0, 7: 4.0})
        assert v.norm() == pytest.approx(5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ss.SupportedVector({0: complex("nan")})

    @pytest.mark.parametrize(
        "value", [complex("nan"), complex(1, math.inf), -math.inf, np.float64(np.nan)]
    )
    def test_non_finite_message_in_either_part(self, value):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            ss.SupportedVector({0: 1.0, 2: value})

    def test_norm_is_the_correctly_rounded_python_float(self):
        v = ss.SupportedVector({0: 1 + 2j, 1: 0.3, -4: 1e-3j})
        squares = 0.0  # in listing order, as norm() sums: sum() is compensated from Python 3.12
        for c in v.coefficients.values():
            squares += abs(c) ** 2
        assert type(v.norm()) is float
        assert v.norm() == float(np.sqrt(squares))

    def test_norm_is_inf_where_a_square_overflows(self):
        # a square overflows above about 1.34e154, where abs(v) ** 2 raises OverflowError
        assert ss.SupportedVector({0: 1.0, 3: 1e200j}).norm() == math.inf

    def test_scalar_product_and_difference_keep_listing_order(self):
        a = ss.SupportedVector({3: 1.0, -1: 2j})
        b = ss.SupportedVector({5: 1.0, -1: 1.0})
        for scaled in (2 * a, a * 2, np.float64(2.0) * a, (2 + 0j) * a):
            assert list(scaled.coefficients.items()) == [(3, 2.0), (-1, 4j)]
        assert list((a - b).coefficients.items()) == [(3, 1.0), (-1, -1 + 2j), (5, -1.0)]

    def test_product_with_a_non_scalar_is_a_type_error(self):
        a = ss.SupportedVector({0: 1.0})
        with pytest.raises(TypeError):
            a * a
        with pytest.raises(TypeError):
            np.ones(3) * a


# every size a caller passes, as a function of that size; 3 is a valid value of each
SIZED_CALLS = {
    "orbit window": lambda k: ss.generate_pseudo_orbit(
        ss.diagonal([2.0, 0.5]), np.zeros(2), 1e-3, (-k, 3), rng_seed=0
    ),
    "defect window": lambda k: ss.orbit_from_defects(
        ss.diagonal([2.0, 0.5]), np.zeros(2), [np.zeros(2)] * 5, (-2, k)
    ),
    "half-width": lambda k: ss.materialize(example_shift_pair()[0], k),
    "probe N, shift": lambda k: ss.window_probe(example_shift_pair()[0], "script-B", k, 8),
    "probe N, dense": lambda k: ss.window_probe(ss.diagonal([2.0, 0.5]), "script-S", k),
    "probe M": lambda k: ss.window_probe(example_shift_pair()[0], "script-B", 2, k),
    "Laurent n": lambda k: ss.laurent_coefficient(ss.diagonal([2.0, 0.5]), k),
    "Laurent n_max": lambda k: ss.laurent_table(ss.diagonal([2.0, 0.5]), k),
}


@pytest.mark.parametrize("name", SIZED_CALLS)
def test_sizes_must_be_integers(name):
    # as JSON dim and crossover: an integral float is read as an int, any
    # other value is refused up front, not truncated or left to numpy
    call = SIZED_CALLS[name]
    call(3.0)
    with pytest.raises(ValueError, match=r"must be an integer, got -?2\.5"):
        call(2.5)
