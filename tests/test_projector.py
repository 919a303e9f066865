import numpy as np
import pytest

import shadowspec as ss
from _helpers import conjugated_diagonal, eigen_projector_inside, random_hyperbolic, random_invertible


def max_abs(m):
    return float(np.max(np.abs(m)))


class TestContourConfig:
    def test_rejects_non_power_of_two_nodes(self):
        with pytest.raises(ValueError):
            ss.ContourConfig(nodes=100)
        with pytest.raises(ValueError):
            ss.ContourConfig(nodes=8)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            ss.ContourConfig(radius=0.0)


class TestResolvent:
    def test_scalar(self):
        r = ss.resolvent(ss.diagonal([2.0]), 1.0)
        assert r.entries[0, 0] == pytest.approx(-1.0)

    def test_zero_matrix(self):
        # the zero matrix is not valid dynamics but a perfectly good resolvent target
        r = ss.resolvent(ss.DenseOperator(np.zeros((3, 3))), 1.0)
        assert np.allclose(r.entries, np.eye(3))

    def test_neumann_series_oracle(self):
        rng = np.random.default_rng(8)
        a = random_invertible(rng, 4)
        lam = 3.0 * np.linalg.norm(a.entries, 2)
        r = ss.resolvent(a, lam)
        partial = np.zeros((4, 4), dtype=complex)
        power = np.eye(4, dtype=complex)
        for k in range(200):
            partial += power / lam ** (k + 1)
            power = power @ a.entries
        assert max_abs(r.entries - partial) < 1e-8

    def test_defining_residual(self):
        rng = np.random.default_rng(12)
        a = random_invertible(rng, 5)
        lam = 2.5 * np.linalg.norm(a.entries, 2)
        r = ss.resolvent(a, lam)
        assert max_abs((lam * np.eye(5) - a.entries) @ r.entries - np.eye(5)) < 1e-9

    def test_near_spectrum_rejected_with_distance(self):
        with pytest.raises(ss.NearSingularResolventError) as err:
            ss.resolvent(ss.diagonal([2.0, 0.5]), 2.0 + 1e-12)
        assert err.value.distance < 1e-10


class TestLaurentCoefficient:
    def test_diagonal_projector_coefficient(self):
        c = ss.laurent_coefficient(ss.diagonal([2.0, 0.5]), -1)
        assert max_abs(c.entries - np.diag([0.0, 1.0])) < 1e-12

    def test_diagonal_zeroth_coefficient(self):
        # geometric expansions of 1/(lambda - 2) and 1/(lambda - 1/2) on |lambda| = 1
        c = ss.laurent_coefficient(ss.diagonal([2.0, 0.5]), 0)
        assert max_abs(c.entries - np.diag([-0.5, 0.0])) < 1e-12

    def test_projector_matches_eigendecomposition(self):
        rng = np.random.default_rng(31)
        a, _ = random_hyperbolic(rng, 4)
        quad = ss.laurent_coefficient(a, -1)
        assert max_abs(quad.entries - eigen_projector_inside(a)) < 1e-8

    def test_contour_through_spectrum_raises(self):
        with pytest.raises(ss.ContourThroughSpectrumError):
            ss.laurent_coefficient(ss.identity(2), -1)

    def test_order_cap(self):
        with pytest.raises(ValueError):
            ss.laurent_coefficient(ss.diagonal([2.0, 0.5]), 65)

    def test_unresolved_node_halving_residual_raises(self):
        # the eigenvalues clear the node-spacing guard, but 256 nodes leave a
        # node-halving residual of 0.08 and a projector off by 6.3e-3
        a = ss.diagonal([1.02, 0.98])
        with pytest.raises(ss.ContourThroughSpectrumError, match="node-halving residual"):
            ss.riesz_projector(a)
        p = ss.riesz_projector(a, ss.ContourConfig(nodes=4096))
        assert max_abs(p.entries - np.diag([0.0, 1.0])) < 1e-10
        with pytest.raises(ss.ContourThroughSpectrumError, match="node-halving residual"):
            ss.laurent_table(a, 3)

    def test_residual_rule_bounds_the_returned_sum_not_the_half_grid(self):
        # 1.1^-128 ~ 5e-6 is the half grid's error; the 256-node sum is off by
        # about its square, 1.1^-256 ~ 2.5e-11, and must be accepted
        p = ss.riesz_projector(ss.diagonal([1.1, 0.5]))
        assert max_abs(p.entries - np.diag([0.0, 1.0])) < 1e-10

    @pytest.mark.parametrize("nodes", [16, 32, 64, 128, 256, 512])
    def test_every_node_count_raises_or_is_accurate(self, nodes):
        # moduli 0.8 and 1.25 bound the benchmark's bands: the error of the
        # projector is about 0.8^nodes, so 64 nodes (6e-7) must raise and
        # 128 (4e-13) must not
        rng = np.random.default_rng(58)
        a, _ = conjugated_diagonal(rng, [0.8, 1.25, 0.5, 2.0])
        expected = eigen_projector_inside(a)
        cfg = ss.ContourConfig(nodes=nodes)
        try:
            p = ss.riesz_projector(a, cfg)
        except ss.ContourThroughSpectrumError:
            assert nodes <= 64
        else:
            assert nodes >= 128
            assert max_abs(p.entries - expected) < 1e-10


class TestRieszProjector:
    def test_diagonal(self):
        p = ss.riesz_projector(ss.diagonal([2.0, 0.5]))
        assert max_abs(p.entries - np.diag([0.0, 1.0])) < 1e-10

    def test_empty_interior_spectrum_gives_zero(self):
        p = ss.riesz_projector(ss.diagonal([2.0, -3.0, 1.5j]))
        assert max_abs(p.entries) < 1e-10

    def test_similarity_oracle(self):
        rng = np.random.default_rng(40)
        v = np.eye(2) + 0.4 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        a = ss.DenseOperator(v @ np.diag([3.0, 1.0 / 3.0]) @ np.linalg.inv(v))
        expected = v @ np.diag([0.0, 1.0]) @ np.linalg.inv(v)
        assert max_abs(ss.riesz_projector(a).entries - expected) < 1e-8

    def test_projector_identities(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            a, lam = random_hyperbolic(rng, int(rng.integers(2, 6)))
            p = ss.riesz_projector(a).entries
            assert max_abs(p @ p - p) < 1e-8
            assert max_abs(p @ a.entries - a.entries @ p) < 1e-8
            inside = int(np.sum(np.abs(lam) < 1.0))
            assert abs(np.trace(p) - inside) < 1e-6

    def test_radius_independence_within_gap(self):
        rng = np.random.default_rng(42)
        a, _ = random_hyperbolic(rng, 4)
        lo = ss.laurent_coefficient(a, 2, ss.ContourConfig(radius=0.999))
        hi = ss.laurent_coefficient(a, 2, ss.ContourConfig(radius=1.001))
        assert max_abs(lo.entries - hi.entries) < 1e-8


class TestLaurentTable:
    def test_relations_for_diagonal(self):
        a = ss.diagonal([2.0, 0.5])
        table = ss.laurent_table(a, 4)
        report = ss.verify_laurent_relations(a, table)
        assert report.passes
        assert report.worst() < 1e-10

    def test_single_step_recurrence(self):
        a = ss.diagonal([2.0, 0.5])
        table = ss.laurent_table(a, 3)
        lhs = table.coefficient(1).entries
        rhs = ss.inverse(a).entries @ table.coefficient(0).entries
        assert max_abs(lhs - rhs) < 1e-12

    def test_relations_for_random_hyperbolic(self):
        rng = np.random.default_rng(55)
        a, _ = random_hyperbolic(rng, 5)
        report = ss.verify_laurent_relations(a, ss.laurent_table(a, 6))
        assert report.passes
        assert report.worst() < 1e-7

    def test_coefficient_decay_rates_below_one(self):
        rng = np.random.default_rng(56)
        a, _ = random_hyperbolic(rng, 4)
        table = ss.laurent_table(a, 8)
        assert table.r_plus < 1.0
        assert table.r_minus < 1.0

    def test_node_doubling_certificate(self):
        rng = np.random.default_rng(57)
        a, _ = random_hyperbolic(rng, 4)  # bands keep gap_sigma > 0.05
        for n in range(-8, 9):
            lo = ss.laurent_coefficient(a, n, ss.ContourConfig(nodes=256))
            hi = ss.laurent_coefficient(a, n, ss.ContourConfig(nodes=512))
            assert max_abs(lo.entries - hi.entries) < 1e-9
        assert ss.laurent_table(a, 8).node_doubling_residual < 1e-9


class TestDecayRates:
    def test_diagonal_splitting_is_exact(self):
        rates = ss.decay_rates(ss.diagonal([2.0, 0.5]), ss.diagonal([0.0, 1.0]), 16)
        assert rates.r_plus == pytest.approx(0.5, abs=1e-12)
        assert rates.r_minus == pytest.approx(0.5, abs=1e-12)

    def test_riesz_splitting_certifies(self):
        rng = np.random.default_rng(60)
        a, _ = random_hyperbolic(rng, 4)
        rates = ss.decay_rates(a, ss.riesz_projector(a), 24)
        assert rates.worst < 1.0

    def test_identity_splitting_fails_for_expanding_eigenvalue(self):
        rates = ss.decay_rates(ss.diagonal([2.0, 0.5]), ss.identity(2), 16)
        assert rates.r_plus >= 1.0

    def test_envelope_constant_for_diagonal(self):
        k = ss.geometric_envelope_constant(
            ss.diagonal([2.0, 0.5]), ss.diagonal([0.0, 1.0]), q=0.75, k_max=64
        )
        assert k == pytest.approx(1.0, abs=1e-12)

    def test_order_floor(self):
        with pytest.raises(ValueError):
            ss.decay_rates(ss.diagonal([2.0, 0.5]), ss.diagonal([0.0, 1.0]), 4)
