import numpy as np
import pytest

import shadowspec as ss
from _helpers import (
    HYPERBOLIC_BANDS,
    conjugated_diagonal,
    draw_moduli,
    eigen_projector_inside,
    random_hyperbolic,
    random_invertible,
    random_unitary,
)
from shadowspec import projector


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
        # the eigenvalues sit 0.02 off the circle, and 256 nodes leave a
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


def _planted(rng, dim):
    """V diag(lam) V^{-1}, moduli in the hyperbolic bands, V = I + (0.5/sqrt d) G."""
    lam = draw_moduli(rng, dim, HYPERBOLIC_BANDS) * np.exp(2j * np.pi * rng.uniform(size=dim))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    v = np.eye(dim) + 0.5 / np.sqrt(dim) * g
    return ss.DenseOperator(v @ np.diag(lam) @ np.linalg.inv(v))


def _schur_non_normal(rng, dim):
    """U (diag(lam) + strictly upper Gaussian) U^H, moduli in the hyperbolic bands."""
    lam = draw_moduli(rng, dim, HYPERBOLIC_BANDS) * np.exp(2j * np.pi * rng.uniform(size=dim))
    t = np.diag(lam) + 0.5 * np.triu(rng.standard_normal((dim, dim)), 1)
    u = random_unitary(rng, dim)
    return ss.DenseOperator(u @ t @ u.conj().T)


def quadrature_projector(a, cfg):
    return ss.laurent_coefficient(a, -1, cfg)


def quadrature_table(a, cfg):
    return ss.laurent_table(a, 3, cfg)


def quadrature_c0(a, cfg):
    return ss.laurent_coefficient(a, 0, cfg)


def beside_block(block, value):
    """diag(value) beside the block [[0.5, block], [0, 2]], whose entries of
    C_n (about 0.7 block) lift every tolerance relative to max|C_n|."""
    a = np.zeros((3, 3), dtype=complex)
    a[:2, :2] = [[0.5, block], [0.0, 2.0]]
    a[2, 2] = value
    return ss.DenseOperator(a)


class TestSquaringProjector:
    NODES = [2**k for k in range(4, 13)]

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16, 32])
    def test_matches_quadrature_at_every_node_count(self, dim):
        rng = np.random.default_rng(700 + dim)
        ops = [_planted(rng, dim), _schur_non_normal(rng, dim)]
        accepted = 0
        for a in ops:
            for nodes in self.NODES:
                cfg = ss.ContourConfig(nodes=nodes)
                outcomes = []
                for compute in (ss.riesz_projector, quadrature_projector):
                    try:
                        outcomes.append(compute(a, cfg).entries)
                    except ss.ContourThroughSpectrumError:
                        outcomes.append(None)
                squared, quad = outcomes
                assert (squared is None) == (quad is None), nodes
                if quad is not None:
                    accepted += 1
                    scale = max(1.0, max_abs(quad))
                    assert max_abs(squared - quad) < 1e-12 * scale
        assert accepted >= 2 * (len(self.NODES) - 3)

    @pytest.mark.parametrize(
        "a",
        [
            *map(ss.diagonal, [[1.0, 1.0], [1.0, 0.5], [-1.0, 3.0], [1j, 2.0], [np.exp(0.3j), 2.0]]),
            beside_block(1e5, np.exp(0.3j)),
            beside_block(1e8, np.exp(0.3j)),
        ],
        ids=["identity", "1,0.5", "-1,3", "i,2", "e^0.3i,2", "e^0.3i,1e5-block", "e^0.3i,1e8-block"],
    )
    @pytest.mark.parametrize("nodes", [16, 256, 4096])
    def test_eigenvalue_on_the_circle_raises(self, a, nodes):
        # a LinAlgError or a returned matrix would fail this test alike; the
        # quadrature path hits 1, -1 and i exactly on a node.  Beside a block
        # the node-halving residual passes at 256 nodes and up; the trace does not
        cfg = ss.ContourConfig(nodes=nodes)
        for compute in (ss.riesz_projector, quadrature_projector, quadrature_c0, quadrature_table):
            with pytest.raises(ss.ContourThroughSpectrumError, match="only moving the radius"):
                compute(a, cfg)

    def test_eigenvalue_on_the_circle_beside_an_ill_conditioned_block_raises(self):
        # |P| ~ 7e4 from the block hides the unimodular eigenvalue's entries
        # of P^2 - P under the relative tolerance; its trace does not
        a = np.zeros((3, 3), dtype=complex)
        a[:2, :2] = [[0.5, 1e5], [0.0, 2.0]]
        a[2, 2] = np.exp(0.3j)
        with pytest.raises(ss.ContourThroughSpectrumError, match="no spectral projector"):
            ss.riesz_projector(ss.DenseOperator(a))
        a[2, 2] = 3.0
        p = ss.riesz_projector(ss.DenseOperator(a)).entries
        assert abs(np.trace(p) - 1.0) < 1e-8

    def test_singular_step_raises(self):
        b = np.eye(2, dtype=complex)
        with pytest.raises(ss.ContourThroughSpectrumError, match="singular"):
            projector._solve_on_contour(b - b, b, "squaring step 3")

    def test_gates_are_applied(self, monkeypatch):
        monkeypatch.setattr(projector, "PROJECTOR_RTOL", 0.0)
        with pytest.raises(ss.ContourThroughSpectrumError, match="no spectral projector"):
            ss.riesz_projector(ss.DenseOperator([[0.5, 1.0], [0.3, 2.0]]))

    def test_radius_two(self):
        p = ss.riesz_projector(ss.diagonal([0.5, 1.5, 3.0]), ss.ContourConfig(radius=2.0))
        assert max_abs(p.entries - np.diag([1.0, 1.0, 0.0])) < 1e-12

    @pytest.mark.parametrize("nodes", [16, 256, 4096])
    def test_log2_nodes_qr_steps_and_no_samples(self, nodes, monkeypatch):
        qr_calls = []
        qr = np.linalg.qr

        def counting_qr(*args, **kwargs):
            qr_calls.append(args[0].shape)
            return qr(*args, **kwargs)

        def forbidden(*args, **kwargs):
            raise AssertionError("the squaring path must not call this")

        # moduli 0.1 and 10 are resolved by 16 nodes already
        a, _ = conjugated_diagonal(np.random.default_rng(71), [0.1, 10.0, 0.2, 5.0])
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        monkeypatch.setattr(projector, "_resolvent_samples", forbidden)
        split = ss.riesz_splitting(a, ss.ContourConfig(nodes=nodes))
        steps = nodes.bit_length() - 1
        assert split.steps == steps
        assert qr_calls == [(8, 4)] * steps

    def test_certificate(self):
        rng = np.random.default_rng(72)
        a, _ = random_hyperbolic(rng, 6)
        split = ss.riesz_splitting(a)
        assert max_abs(split.projector.entries - eigen_projector_inside(a)) < 1e-12
        assert max_abs(split.projector.entries - ss.riesz_projector(a).entries) == 0.0
        assert split.node_halving_residual < 1e-4
        assert split.idempotency < 1e-12
        assert split.commutation < 1e-12
        assert split.to_json() == {
            "steps": 8,
            "node_halving_residual": split.node_halving_residual,
            "idempotency": split.idempotency,
            "commutation": split.commutation,
        }


def _guarded_reference_raises(a, n_max, cfg):
    """Outcome of the quadrature path as it was with its eigenvalue guard:
    refuse an eigenvalue whose modulus is within half a node spacing of the
    radius, else sum the coefficients and apply the node-halving rule."""
    dist = np.min(np.abs(np.abs(np.linalg.eigvals(a.entries)) - cfg.radius))
    if dist < max(1e-9, np.pi * cfg.radius / cfg.nodes):
        return True
    nodes = cfg.nodes
    orders = np.arange(-n_max, n_max + 1)
    lam = cfg.radius * np.exp(1j * (2.0 * np.pi * np.arange(nodes) / nodes))
    eye = np.eye(a.dim, dtype=np.complex128)
    lhs = lam[:, None, None] * eye - a.entries
    samples = np.linalg.solve(lhs, np.broadcast_to(eye, lhs.shape)).reshape(nodes, -1)
    phase = np.outer(orders, np.arange(nodes)) % nodes
    per_order = cfg.radius ** -orders.astype(float) / nodes
    weights = np.exp(-2j * np.pi / nodes * phase) * per_order[:, None]
    full = weights @ samples
    half = 2.0 * weights[:, ::2] @ samples[::2]
    residual = np.max(np.abs(full - half), axis=1)
    scale = np.maximum(1.0, np.max(np.abs(full), axis=1))
    return bool(np.any(residual**2 > projector.NODE_HALVING_RTOL * scale**2))


def _near_contour(rng, nodes):
    """Non-normal operator, d = 1..6, with one eigenvalue's modulus within 1.2
    guard widths (half a node spacing each) of the unit circle, or, one time in
    three, within 12, where the node-halving rule starts to accept (about 6)."""
    dim = int(rng.integers(1, 7))
    moduli = draw_moduli(rng, dim, HYPERBOLIC_BANDS)
    widths = 1.2 if rng.uniform() < 2 / 3 else 12.0
    moduli[0] = 1.0 + widths * (np.pi / nodes) * rng.uniform(-1.0, 1.0)
    lam = moduli * np.exp(2j * np.pi * rng.uniform(size=dim))
    t = np.diag(lam) + 0.5 * np.triu(rng.standard_normal((dim, dim)), 1)
    u = random_unitary(rng, dim)
    return ss.DenseOperator(u @ t @ u.conj().T)


class TestQuadratureContourRule:
    """Without an eigenvalue guard, the quadrature path refuses a contour by
    the node-halving rule or a singular solve alone."""

    def test_no_eigenvalues_are_computed(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the quadrature path must not call this")

        monkeypatch.setattr(np.linalg, "eigvals", forbidden)
        a = ss.diagonal([2.0, 0.5])
        assert max_abs(ss.laurent_coefficient(a, -1).entries - np.diag([0.0, 1.0])) < 1e-12
        assert ss.laurent_table(a, 4).node_doubling_residual < 1e-9
        for compute in (quadrature_projector, quadrature_table):
            with pytest.raises(ss.ContourThroughSpectrumError):
                compute(ss.diagonal([1.0, 0.5]), ss.ContourConfig())

    @pytest.mark.parametrize("block", [1e5, 1e8, 1e12])
    def test_trace_rule_accepts_a_resolved_ill_conditioned_operator(self, block):
        # the cap holds the trace bound at 0.025 however large the block; a
        # resolved operator stays far below it (|tr(P^2 - P)| < 1e-31 here)
        a, cfg = beside_block(block, 3.0), ss.ContourConfig()
        p = ss.riesz_projector(a, cfg).entries
        q = quadrature_projector(a, cfg).entries
        assert abs(np.trace(p) - 1.0) < 1e-8 and abs(np.trace(q) - 1.0) < 1e-8
        assert ss.laurent_table(a, 3, cfg).node_doubling_residual < 1e-8 * block

    @pytest.mark.parametrize("nodes", [16, 256, 4096])
    @pytest.mark.parametrize("side", [-0.99, 0.99])
    def test_eigenvalue_in_the_guard_band_beside_a_block_raises(self, nodes, side):
        # within half a node spacing of the circle, where the eigenvalue guard
        # refused, |mu/(1 - mu)^2| >= 0.0285 > PROJECTOR_TRACE_CAP
        modulus = 1.0 + side * np.pi / nodes
        a, cfg = beside_block(1e8, modulus * np.exp(0.3j)), ss.ContourConfig(nodes=nodes)
        for compute in (ss.riesz_projector, quadrature_projector, quadrature_c0, quadrature_table):
            with pytest.raises(ss.ContourThroughSpectrumError, match="only moving the radius"):
                compute(a, cfg)

    @pytest.mark.parametrize("nodes", [2**k for k in range(4, 13)])
    def test_near_contour_beside_a_block_raises_where_the_guard_did(self, nodes):
        # the block hides the near-contour eigenvalue from the node-halving
        # residual; the trace rule refuses it on both paths wherever the
        # guard did, and the two paths raise alike on every operator
        rng = np.random.default_rng(5000 + nodes)
        cfg = ss.ContourConfig(nodes=nodes)
        for _ in range(30):
            core = _near_contour(rng, nodes).entries
            dim = core.shape[0]
            a = np.zeros((dim + 2, dim + 2), dtype=complex)
            a[:dim, :dim] = core
            a[dim:, dim:] = [[0.5, 1e8], [0.0, 2.0]]
            a = ss.DenseOperator(a)
            dist = np.min(np.abs(np.abs(np.linalg.eigvals(core)) - 1.0))
            outcomes = []
            for compute in (ss.riesz_projector, quadrature_projector):
                try:
                    compute(a, cfg)
                except ss.ContourThroughSpectrumError:
                    outcomes.append(True)
                else:
                    outcomes.append(False)
            assert outcomes[0] == outcomes[1]
            if dist < np.pi / nodes:
                assert outcomes[0]

    @pytest.mark.parametrize("nodes", [2**k for k in range(4, 13)])
    def test_near_contour_outcomes_match_the_guarded_reference(self, nodes):
        rng = np.random.default_rng(4000 + nodes)
        cfg = ss.ContourConfig(nodes=nodes)
        outcomes = []
        for _ in range(30):
            a = _near_contour(rng, nodes)
            try:
                quadrature_table(a, cfg)
            except ss.ContourThroughSpectrumError:
                outcomes.append(True)
            else:
                outcomes.append(False)
            assert outcomes[-1] == _guarded_reference_raises(a, 3, cfg)
        # below 64 nodes the other bands (0.8^32 ~ 8e-4) are unresolved too
        assert sum(outcomes) >= 10 and (nodes < 64 or not all(outcomes))


class TestLaurentAliasing:
    A = ss.diagonal([4.0, 0.25])

    @staticmethod
    def closed_form(n):
        # (lambda - 4)^{-1} = -sum_{n>=0} 4^{-n-1} lambda^n and
        # (lambda - 1/4)^{-1} = sum_{n<=-1} 4^{n+1} lambda^n on |lambda| = 1
        return np.diag([-(4.0 ** (-n - 1)) if n >= 0 else 0.0, 4.0 ** (n + 1) if n <= -1 else 0.0])

    @pytest.mark.parametrize("nodes", [16, 32, 64, 128])
    def test_every_allowed_order_raises_or_is_resolved(self, nodes):
        # the node-halving rule bounds the error by NODE_HALVING_RTOL * scale
        # (scale = 1 here); C_-2 at 16 nodes is accepted 9.3e-10 off
        cfg = ss.ContourConfig(nodes=nodes)
        cap = min(nodes // 2 - 1, projector.LAURENT_ORDER_CAP)
        orders = range(-cap, cap + 1)
        accepted = 0
        for n in orders:
            try:
                c = ss.laurent_coefficient(self.A, n, cfg)
            except ss.ContourThroughSpectrumError:
                continue
            accepted += 1
            assert max_abs(c.entries - self.closed_form(n)) < projector.NODE_HALVING_RTOL, n
        assert accepted >= 3

    @pytest.mark.parametrize("n", [63, -63, 32])
    def test_aliased_order_is_refused(self, n):
        with pytest.raises(ValueError, match="aliases"):
            ss.laurent_coefficient(self.A, n, ss.ContourConfig(nodes=64))

    def test_aliased_table_is_refused(self):
        with pytest.raises(ValueError, match="aliases"):
            ss.laurent_table(self.A, 8, ss.ContourConfig(nodes=16))
        assert ss.laurent_table(self.A, 7, ss.ContourConfig(nodes=64)).n_max == 7


class TestLaurentTable:
    def test_table_matches_per_order_sums(self):
        # reference: one weighted sum over the nodes per order, and one
        # spectral norm per coefficient, as the table was first computed
        rng = np.random.default_rng(59)
        a, _ = random_hyperbolic(rng, 5)
        cfg = ss.ContourConfig(radius=1.05, nodes=128)
        table = ss.laurent_table(a, 6, cfg)
        lam = cfg.radius * np.exp(2j * np.pi * np.arange(cfg.nodes) / cfg.nodes)
        eye = np.eye(5)
        lhs = lam[:, None, None] * eye - a.entries
        samples = np.linalg.solve(lhs, np.broadcast_to(eye, lhs.shape))
        worst = 0.0
        for n in range(-6, 7):
            full = np.einsum("j,jkl->kl", lam ** (-n), samples) / cfg.nodes
            half = np.einsum("j,jkl->kl", lam[::2] ** (-n), samples[::2]) / (cfg.nodes // 2)
            worst = max(worst, max_abs(full - half))
            assert max_abs(table.coefficient(n).entries - full) < 1e-14 * max(1.0, max_abs(full))
        assert table.node_doubling_residual == pytest.approx(worst, rel=1e-6, abs=1e-15)
        for sign, rate in ((1, table.r_plus), (-1, table.r_minus)):
            norms = [np.linalg.norm(table.coefficient(sign * n).entries, 2) for n in range(4, 7)]
            roots = [x ** (1 / n) for n, x in zip(range(4, 7), norms)]
            assert rate == pytest.approx(max(roots), rel=1e-12)

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

    def test_huge_expanding_rate_is_exact(self):
        # ||A^32 B|| = 1e192: its square overflows unless the slice is scaled first
        rates = ss.decay_rates(ss.diagonal([1e6, 0.5]), ss.diagonal([1.0, 0.0]), 32)
        assert rates.r_plus == pytest.approx(1e6, rel=1e-13)

    def test_tiny_kernel_norm_is_exact(self):
        # N_k = 1e-6^k [[0, -1], [0, 1]], ||N_32|| = sqrt(2) 1e-192, whose square underflows
        a, b = ss.diagonal([0.5, 1e6]), ss.DenseOperator([[1.0, 1.0], [0.0, 0.0]])
        _, _, _, norms_bwd = projector.splitting_power_stacks(a, b, 32)
        assert norms_bwd[32] == pytest.approx(np.sqrt(2.0) * 1e-192, rel=1e-13)


def _svd_norms(stack):
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


class TestStackSpectralNorms:
    """The certificate norms against the largest singular value of each slice."""

    # rtol from the Gram eigenvalue's rounding; atol only matters for subnormal norms
    TOL = dict(rtol=1e-13, atol=1e-322)

    @pytest.mark.parametrize("seed", range(3))
    def test_kernel_norms_on_the_splitting_ranges(self, seed):
        rng = np.random.default_rng(80 + seed)
        a = _planted(rng, 32)
        g = rng.standard_normal((2, 32, 16)) + 1j * rng.standard_normal((2, 32, 16))
        rank_16 = ss.DenseOperator(g[0] @ g[1].conj().T / 32)  # not idempotent
        zero = ss.DenseOperator(np.zeros((32, 32)))
        identity = ss.identity(32)
        for b in (ss.riesz_projector(a), identity, zero, rank_16):
            fwd, bwd, norms_fwd, norms_bwd = projector.splitting_power_stacks(a, b, 32)
            np.testing.assert_allclose(norms_fwd, _svd_norms(fwd), **self.TOL)
            np.testing.assert_allclose(norms_bwd, _svd_norms(bwd), **self.TOL)
            # a rank-0 range (I - B for the identity, B for zero) gives exact zeros
            assert np.any(norms_fwd) == (b is not zero)
            assert np.any(norms_bwd) == (b is not identity)

    def test_extreme_scales(self):
        rng = np.random.default_rng(84)
        g = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
        subnormal = np.ldexp(g[2].real, -1060) + 1j * np.ldexp(g[2].imag, -1060)
        stack = np.stack([1e-192 * g[0], 1e192 * g[1], subnormal, 0.0 * g[3]])
        assert 0.0 < np.max(np.abs(subnormal)) < np.finfo(float).tiny
        for range_of in (None, np.eye(6), g[3] @ np.diag([1.0, 1, 1, 0, 0, 0]) @ g[3].conj().T):
            projected = stack if range_of is None else range_of @ stack
            expected = _svd_norms(projected)
            got = projector._stack_spectral_norms(projected, range_of)
            np.testing.assert_allclose(got, expected, **self.TOL)
            assert got[3] == 0.0

    def test_non_finite_slices_report_1e300(self):
        stack = np.ones((3, 2, 2), dtype=complex)
        stack[0, 0, 0], stack[2, 1, 1] = np.inf, np.nan
        with np.errstate(invalid="ignore"):
            got = projector._stack_spectral_norms(stack, np.eye(2))
        assert got[0] == got[2] == 1e300 and got[1] == pytest.approx(2.0, rel=1e-15)
