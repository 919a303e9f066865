"""Spectral projector and resolvent Laurent coefficients on circles around the origin.

The resolvent R(lambda) = (lambda*I - A)^{-1} is holomorphic on any annulus
free of spectrum, so on a circle of radius r inside that annulus its Laurent
coefficients are contour integrals

    C_n = (1/2*pi*i) * integral  lambda^{-n-1} R(lambda) d lambda,

discretized with the equispaced N-node trapezoid rule (spectrally accurate
for periodic analytic integrands).  `laurent_coefficient` and `laurent_table`
sample R at the nodes and take all the C_n they need from one discrete
Fourier transform over the node axis; the coefficients obey exact one-step
recurrences against A and its inverse, which `verify_laurent_relations`
replays as a cross-check of the quadrature.  `laurent_coefficient` resolves
one order alone, the reference that the projector path is held to.

C_{-1} is the spectral projector onto the part of the spectrum inside the
circle.  Its N-node trapezoid value is exactly (I - (A/r)^N)^{-1}, so doubling
the nodes squares A/r.  `riesz_projector` therefore never samples R: it runs
the inverse-free squaring iteration of Malyshev (1993) and Bai, Demmel & Gu
(1997), in which step j represents (A/r)^(2^j) as B_j^{-1} A_j without forming
the power, and solves (B_j - A_j) P_j = B_j, the 2^j-node rule, at the last
two of log2(N) steps.  The two differ by the node-halving residual of the
quadrature, so the node count keeps its meaning.

Every sum is checked on its node-halving residual: the change when the
half-resolution grid (every other node) replaces the full one.  That residual
is measured against max|C_n|, so an ill-conditioned block can hide an
eigenvalue on the circle beside it; the trace of the squared C_{-1} residual,
which does not change under similarity, cannot be hidden that way.  These two
rules and a singular or non-finite solve are the only contour tests; neither
path computes an eigenvalue.  An eigenvalue on the circle fails them at every
node count, and the error says that only moving the radius helps there.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import ContourThroughSpectrumError, DecayCertificateError
from .operators import DenseOperator, _integer_field, _powers, inverse

__all__ = [
    "ContourConfig",
    "LaurentTable",
    "LaurentRelationsReport",
    "DecayRates",
    "RieszSplitting",
    "laurent_coefficient",
    "laurent_table",
    "riesz_projector",
    "riesz_splitting",
    "verify_laurent_relations",
    "decay_rates",
    "splitting_power_stacks",
]

LAURENT_ORDER_CAP = 64
LAURENT_RELATIONS_TOL = 1e-7  # bound on each max-entry residual of `verify_laurent_relations`
NODE_HALVING_RTOL = 1e-8  # bound on the estimated error of a coefficient, times max(1, max |C_n|)
# bound on max|P^2 - P| / s^2, |tr(P^2 - P)| / (d * s) and max|AP - PA| / (s * max|A|),
# with s = max(1, max|P|) and d the dimension
PROJECTOR_RTOL = 1e-8
# cap on the tr(P^2 - P) bound: an eigenvalue lambda of A within half a node spacing of
# the circle has mu = (lambda/r)^N with |mu| or 1/|mu| >= (1 - pi/16)^16, so it adds
# |mu/(1 - mu)^2| >= 0.0285 to the trace at every node count
PROJECTOR_TRACE_CAP = 0.025
NODE_BLOCK = 256  # most resolvent samples `_coefficients` holds at once
_ON_CIRCLE = "an eigenvalue may lie on the contour circle, where only moving the radius helps"


@dataclass(frozen=True)
class ContourConfig:
    """Origin-centered quadrature circle: radius and node count.

    Node count must be a power of two and at least 16, so the embedded
    half-resolution grid provides a node-doubling convergence certificate for
    free.
    """

    radius: float = 1.0
    nodes: int = 256

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("contour radius must be positive")
        n = int(self.nodes)
        if n < 16 or (n & (n - 1)) != 0:
            raise ValueError("nodes must be a power of two, at least 16")


def _solve_on_contour(lhs: np.ndarray, rhs: np.ndarray, what: str) -> np.ndarray:
    """lhs^{-1} rhs, stacked or not.  A singular or non-finite solve means an
    eigenvalue on the contour: at a node for a resolvent sample, or an
    eigenvalue of (A/r)^(2^j) at 1 for the squaring step's (B_j - A_j)^{-1} B_j."""
    try:
        x = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError:
        x = None
    if x is None or not np.all(np.isfinite(x)):
        raise ContourThroughSpectrumError(f"{what} is singular; {_ON_CIRCLE}")
    return x


def _resolvent_samples(a: DenseOperator, cfg: ContourConfig, nodes: slice) -> np.ndarray:
    """R(lambda_j) at the contour nodes j in a slice, shape (count, dim, dim)."""
    theta = 2.0 * np.pi * np.arange(cfg.nodes)[nodes] / cfg.nodes
    lam = cfg.radius * np.exp(1j * theta)
    eye = np.eye(a.dim, dtype=np.complex128)
    lhs = lam[:, None, None] * eye - a.entries
    rhs = np.broadcast_to(eye, lhs.shape)
    return _solve_on_contour(lhs, rhs, "a resolvent sample")


def _node_halving_residuals(
    full: np.ndarray, half: np.ndarray, orders: np.ndarray, nodes: int
) -> np.ndarray:
    """Max-entry node-halving residual of each stacked trapezoid value of C_n.

    The full sum's error, about residual^2 / scale by geometric convergence,
    must stay below NODE_HALVING_RTOL * scale with scale = max(1, max |C_n|);
    the first order that misses it raises ContourThroughSpectrumError.
    """
    residual = np.max(np.abs(full - half), axis=(1, 2))
    scale = np.maximum(1.0, np.max(np.abs(full), axis=(1, 2)))
    unresolved = np.flatnonzero(residual**2 > NODE_HALVING_RTOL * scale**2)
    if unresolved.size:
        k = unresolved[0]
        raise ContourThroughSpectrumError(
            f"C_{orders[k]} unresolved by {nodes} nodes: node-halving residual "
            f"{residual[k]:.3e}, error ~{residual[k] ** 2 / scale[k]:.1e} "
            f"> {NODE_HALVING_RTOL:.0e}; add nodes, but {_ON_CIRCLE}"
        )
    return residual


def _check_projector_trace(p: np.ndarray, p_half: np.ndarray, nodes: int) -> None:
    """Refuse the N-node value P of C_{-1} when |tr(P^2 - P)| exceeds
    PROJECTOR_RTOL * d * max(1, max|P|), capped at PROJECTOR_TRACE_CAP.

    With X = (A/r)^(N/2), P = (I - X^2)^{-1} and P_half = (I - X)^{-1}, so
    P^2 - P = (P - P_half)^2 exactly, whose trace carries no |P|^2 rounding.
    It is the sum of mu/(1 - mu)^2 over the eigenvalues mu of (A/r)^N, so a
    block that inflates max|P|, and every relative tolerance with it, cannot
    hide an eigenvalue on the circle (a real number at most -1/4) or within
    half a node spacing of it: each adds more than the cap.
    """
    diff = p - p_half
    trace = abs(complex(np.einsum("ij,ji->", diff, diff)))
    scale = max(1.0, float(np.max(np.abs(p))))
    bound = min(PROJECTOR_RTOL * p.shape[0] * scale, PROJECTOR_TRACE_CAP)
    if trace > bound:
        raise ContourThroughSpectrumError(
            f"C_-1 at {nodes} nodes is no spectral projector: |tr(P^2 - P)| = "
            f"|tr((P - P_half)^2)| = {trace:.3e} > {bound:.1e}; {_ON_CIRCLE}"
        )


def _coefficients(
    a: DenseOperator, orders: np.ndarray, cfg: ContourConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid values of C_n for the given orders, stacked, and their
    node-halving residuals.

    With lambda_j = r*exp(2*pi*i*j/N), every sum (1/N) sum_j lambda_j^{-n} R_j
    comes from one product of the orders x N weight matrix with the samples
    flattened over the node axis: the discrete Fourier transform, restricted
    to the orders asked for.  The even-indexed nodes form the half grid, whose
    weights are twice the even columns.  Orders with 2|n| >= N would pick up
    C_{n-N} or C_{n+N} on both grids alike, so they are refused.  The last
    weight row gives C_{-1} on both grids for `_check_projector_trace`,
    whatever the orders.  Products are summed over blocks of NODE_BLOCK nodes
    from the first block's on, so up to NODE_BLOCK nodes each is one product.
    """
    nodes = int(cfg.nodes)
    if 2 * int(np.max(np.abs(orders))) >= nodes:
        raise ValueError(f"|n| must stay below nodes/2 = {nodes // 2}, or C_n aliases")
    rows = np.append(orders, -1)
    phase = np.outer(rows, np.arange(nodes)) % nodes  # exact, before scaling by 2*pi/N
    scale = cfg.radius ** -rows.astype(float) / nodes
    weights = np.exp(-2j * np.pi / nodes * phase) * scale[:, None]
    sums = None
    for start in range(0, nodes, NODE_BLOCK):  # a block starts on an even node
        block = slice(start, start + NODE_BLOCK)
        samples = _resolvent_samples(a, cfg, block).reshape(-1, a.dim * a.dim)
        w = weights[:, block]
        grids = ((w, samples), (2.0 * w[:, ::2], samples[::2]))  # full, half
        terms = [g[:-1] @ x for g, x in grids] + [g[-1] @ x for g, x in grids]
        sums = terms if sums is None else [s + t for s, t in zip(sums, terms)]
    full, half = (x.reshape(len(orders), a.dim, a.dim) for x in sums[:2])
    residuals = _node_halving_residuals(full, half, orders, nodes)
    _check_projector_trace(*(x.reshape(a.dim, a.dim) for x in sums[2:]), nodes)
    return full, residuals


def laurent_coefficient(
    a: DenseOperator, n: int, cfg: ContourConfig = ContourConfig()
) -> DenseOperator:
    """Laurent coefficient C_n of the resolvent on the configured circle;
    ContourThroughSpectrumError when the nodes do not resolve it, ValueError
    when |n| exceeds LAURENT_ORDER_CAP or 2|n| >= nodes.  Kept as the per-order
    reference for `riesz_splitting`: `laurent_table` refuses if any order in -n..n is unresolved."""
    n = _integer_field(n, "n")
    if abs(n) > LAURENT_ORDER_CAP:
        raise ValueError(f"|n| capped at {LAURENT_ORDER_CAP}")
    full, _ = _coefficients(a, np.array([n]), cfg)
    return DenseOperator(full[0])


@dataclass(frozen=True, eq=False)
class RieszSplitting:
    """The Riesz projector with its certificate.

    steps is log2(nodes), the number of squaring steps; node_halving_residual
    is the max-entry difference between the last two steps (the nodes- and
    nodes/2-point rules); idempotency = max|P^2 - P| and commutation =
    max|AP - PA|, both checked against PROJECTOR_RTOL.  tr(P^2 - P) is checked
    as `_check_projector_trace` checks it on the quadrature path.
    """

    projector: DenseOperator
    steps: int
    node_halving_residual: float
    idempotency: float
    commutation: float

    @classmethod
    def certificate_keys(cls) -> tuple:
        """The certificate fields: everything but the projector."""
        return tuple(f.name for f in fields(cls) if f.name != "projector")

    def to_json(self) -> dict:
        return {key: getattr(self, key) for key in self.certificate_keys()}


def riesz_splitting(a: DenseOperator, cfg: ContourConfig = ContourConfig()) -> RieszSplitting:
    """Spectral projector onto the part of the spectrum inside the contour
    (the Laurent coefficient C_{-1} at cfg.nodes nodes), with its certificate.

    Starting from A_0 = A/r and B_0 = I, each step takes a complete QR of
    [B_j; -A_j] and keeps the orthogonal complement's blocks,
    A_{j+1} = Q12^H A_j and B_{j+1} = Q22^H B_j.  Since Q12^H B_j = Q22^H A_j,
    B_{j+1}^{-1} A_{j+1} = (B_j^{-1} A_j)^2 = (A/r)^(2^(j+1)), with no inverse
    or power ever formed.  ContourThroughSpectrumError when the node-halving
    residual, tr(P^2 - P), idempotency or commutation misses its tolerance, or
    a step is singular.
    """
    d = a.dim
    steps = int(cfg.nodes).bit_length() - 1
    a_j = a.entries / cfg.radius
    b_j = np.eye(d, dtype=np.complex128)
    for j in range(1, steps + 1):
        q, _ = np.linalg.qr(np.vstack([b_j, -a_j]), mode="complete")
        a_j = q[:d, d:].conj().T @ a_j
        b_j = q[d:, d:].conj().T @ b_j
        if j == steps - 1:
            half = _solve_on_contour(b_j - a_j, b_j, f"squaring step {j}")
    p = _solve_on_contour(b_j - a_j, b_j, f"squaring step {steps}")
    (residual,) = _node_halving_residuals(p[None], half[None], np.array([-1]), int(cfg.nodes))
    _check_projector_trace(p, half, int(cfg.nodes))
    scale = max(1.0, float(np.max(np.abs(p))))
    idempotency = float(np.max(np.abs(p @ p - p)))
    commutation = float(np.max(np.abs(a.entries @ p - p @ a.entries)))
    if (
        idempotency > PROJECTOR_RTOL * scale**2
        or commutation > PROJECTOR_RTOL * scale * float(np.max(np.abs(a.entries)))
    ):
        raise ContourThroughSpectrumError(
            f"C_-1 at {cfg.nodes} nodes is no spectral projector: "
            f"max|P^2 - P| = {idempotency:.3e}, max|AP - PA| = {commutation:.3e} "
            f"(tolerance {PROJECTOR_RTOL:.0e}, relative); {_ON_CIRCLE}"
        )
    return RieszSplitting(
        projector=DenseOperator(p),
        steps=steps,
        node_halving_residual=float(residual),
        idempotency=idempotency,
        commutation=commutation,
    )


def riesz_projector(a: DenseOperator, cfg: ContourConfig = ContourConfig()) -> DenseOperator:
    """Spectral projector onto the part of the spectrum inside the contour
    (see `riesz_splitting`, whose certificate it drops)."""
    return riesz_splitting(a, cfg).projector


@dataclass(frozen=True, eq=False)
class LaurentTable:
    """Quadrature coefficients C_n for |n| <= n_max with decay-rate estimates.

    r_plus / r_minus estimate the coefficient decay on the positive / negative
    side (finite tail maxima of ||C_n||^(1/n)); both sit below 1 whenever the
    contour annulus contains the unit circle.  node_doubling_residual is the
    worst max-entry change when the node count is halved, reported as the
    convergence certificate.
    """

    coefficients: dict
    n_max: int
    r_plus: float
    r_minus: float
    node_doubling_residual: float
    config: ContourConfig

    def coefficient(self, n: int) -> DenseOperator:
        return self.coefficients[n]


def _tail_max_root(norms: np.ndarray) -> float:
    """max over the last half of n of ||M_n||^(1/n), n starting at 1."""
    n = len(norms)
    roots = norms ** (1.0 / np.arange(1, n + 1))
    return float(np.max(roots[n // 2 :]))


def laurent_table(
    a: DenseOperator, n_max: int, cfg: ContourConfig = ContourConfig()
) -> LaurentTable:
    """All Laurent coefficients for |n| <= n_max from a single set of
    resolvent samples; ContourThroughSpectrumError as `laurent_coefficient`,
    ValueError unless 1 <= n_max <= LAURENT_ORDER_CAP and 2*n_max < nodes."""
    n_max = _integer_field(n_max, "n_max")
    if n_max < 1 or n_max > LAURENT_ORDER_CAP:
        raise ValueError(f"n_max must be in 1..{LAURENT_ORDER_CAP}")
    orders = np.arange(-n_max, n_max + 1)
    full, residuals = _coefficients(a, orders, cfg)
    norms = _stack_spectral_norms(full)
    return LaurentTable(
        coefficients={int(n): DenseOperator(c) for n, c in zip(orders, full)},
        n_max=n_max,
        r_plus=_tail_max_root(norms[n_max + 1 :]),
        r_minus=_tail_max_root(norms[n_max - 1 :: -1]),
        node_doubling_residual=float(np.max(residuals)),
        config=cfg,
    )


@dataclass(frozen=True)
class LaurentRelationsReport:
    """Max-entry residuals of the three coefficient recurrences."""

    residual_c0: float
    residual_positive: float
    residual_negative: float
    passes: bool

    def worst(self) -> float:
        return max(self.residual_c0, self.residual_positive, self.residual_negative)


def verify_laurent_relations(a: DenseOperator, table: LaurentTable) -> LaurentRelationsReport:
    """Replay the exact coefficient recurrences against the quadrature table:

        C_0    = -A^{-1} (I - C_{-1})
        C_n    =  A^{-n} C_0            (n >= 1)
        C_{-n} =  A^{n-1} C_{-1}        (n >= 1)

    and report the worst max-entry residual of each family, passing below
    LAURENT_RELATIONS_TOL.
    """
    if table.n_max < 3:
        raise ValueError("table must cover at least n_max >= 3")
    ainv = inverse(a).entries
    eye = np.eye(a.dim, dtype=np.complex128)
    c_minus_1 = table.coefficient(-1).entries
    c0 = table.coefficient(0).entries

    def residual(orders, first, step):
        stacked = np.stack([table.coefficient(n).entries for n in orders])
        return float(np.max(np.abs(stacked - _powers(step, len(orders) - 1, first))))

    res_c0 = float(np.max(np.abs(c0 - (-ainv @ (eye - c_minus_1)))))
    res_pos = residual(range(1, table.n_max + 1), ainv @ c0, ainv)
    res_neg = residual(range(-1, -table.n_max - 1, -1), c_minus_1, a.entries)
    return LaurentRelationsReport(
        residual_c0=res_c0,
        residual_positive=res_pos,
        residual_negative=res_neg,
        passes=bool(max(res_c0, res_pos, res_neg) < LAURENT_RELATIONS_TOL),
    )


@dataclass(frozen=True, eq=False)
class DecayRates:
    """Decay certificate of a splitting B at order m = n_max (see `decay_rates`): the
    rates r_plus / r_minus, both below 1 for a splitting, the kernel norms of orders
    0..m, and the tail norms ||(BA)^m|| and ||((I-B)A^{-1})^m|| that `envelope` reads."""

    r_plus: float
    r_minus: float
    n_max: int
    norms_fwd: np.ndarray
    norms_bwd: np.ndarray
    tails: np.ndarray

    @property
    def worst(self) -> float:
        return max(self.r_plus, self.r_minus)

    def envelope(self, q: float) -> float:
        """K = max_{k<=m} max(||M_k||, ||N_k||) / q^k, a bound for every k once both tails
        are below q^m (M_{k+m} = (BA)^m M_k, likewise backward).  DecayCertificateError
        when a rate is not below 1 or a tail not below q^m; ValueError unless worst < q < 1."""
        if self.worst >= 1.0:
            raise DecayCertificateError(
                f"splitting not certified: r_plus={self.r_plus:.6f}, r_minus={self.r_minus:.6f}",
                self.r_plus, self.r_minus,
            )
        if not (self.worst < q < 1.0):
            raise ValueError(f"q must lie in (worst rate {self.worst:.6f}, 1)")
        m = self.n_max
        if max(self.tails) >= q ** m:
            raise DecayCertificateError(
                f"envelope not certified past order {m}: ||(BA)^{m}||={self.tails[0]:.3e}, "
                f"||((I-B)A^-1)^{m}||={self.tails[1]:.3e}, q^{m}={q ** m:.3e}",
                self.r_plus, self.r_minus,
            )
        return _envelope_constant(self.norms_fwd, self.norms_bwd, q)


def splitting_power_stacks(a: DenseOperator, b: DenseOperator, k_max: int):
    """The power kernels A^k B and A^{-k} (I-B) for k = 0..k_max, stacked.

    Each step re-projects through the splitting:

        M_k = B (A M_{k-1}),        N_k = (I-B) (A^{-1} N_{k-1}),

    which reproduces the plain powers exactly whenever B is an idempotent
    with A-invariant range (the intended splittings), while preventing
    machine-level leakage into the complementary subspace from being
    amplified exponentially.  Returns (fwd, bwd, norms_fwd, norms_bwd), the
    norms taken on range(B) and range(I-B), where M_k and N_k lie.
    """
    d = a.dim
    if b.dim != d:
        raise ValueError("splitting operator dimension mismatch")
    ainv = inverse(a).entries
    comp = np.eye(d, dtype=np.complex128) - b.entries
    with np.errstate(over="ignore", invalid="ignore"):
        fwd = _powers(a.entries, k_max, b.entries, project=b.entries)
        bwd = _powers(ainv, k_max, comp, project=comp)
        norms_fwd = _stack_spectral_norms(fwd, b.entries)
        norms_bwd = _stack_spectral_norms(bwd, comp)
    return fwd, bwd, norms_fwd, norms_bwd


def _stack_spectral_norms(stack: np.ndarray, range_of: np.ndarray | None = None) -> np.ndarray:
    """Largest singular value per slice; non-finite slices report 1e300.

    Slices in range(range_of) are compressed to U^H M on an orthonormal basis
    U of its numerical range (`matrix_rank` rule; rank 0 gives 0), which can
    only lower a norm, and only at second order in the rounding-level leak
    L = (I - U U^H) M, as ||M||^2 <= ||U^H M||^2 + ||L||^2.  An exact
    power-of-two scaling keeps the Gram matrix's top eigenvalue, whose root
    is the norm to a few eps relative, in range.
    """
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    if range_of is None:
        c = stack.copy()
    else:
        u, s, _ = np.linalg.svd(range_of)
        rank = int(np.count_nonzero(s > s[0] * len(s) * np.finfo(float).eps))
        c = u[:, :rank].conj().T @ stack
    c[~finite] = 0.0
    flat = c.view(np.float64)
    exponent = np.frexp(np.max(np.abs(flat), axis=(1, 2), initial=0.0))[1]
    np.ldexp(flat, -exponent[:, None, None], out=flat)
    top = np.max(np.linalg.eigvalsh(c @ c.conj().transpose(0, 2, 1)), axis=1, initial=0.0)
    return np.where(finite, np.ldexp(np.sqrt(top), exponent), 1e300)


def decay_rates(a: DenseOperator, b: DenseOperator, n_max: int) -> DecayRates:
    """The decay certificate of B as a splitting of A at order n_max >= 8, from
    one stack of power kernels with per-step re-projection (see
    `splitting_power_stacks`): for a genuine splitting these are the plain power
    norms, and for a broken one the tail norms or the construction's recurrence
    residual expose the disagreement.  Rates are maxima over the last n_max/2 orders."""
    if n_max < 8:
        raise ValueError("n_max must be >= 8")
    fwd, bwd, norms_fwd, norms_bwd = splitting_power_stacks(a, b, n_max)
    tails = np.stack([fwd[n_max - 1] @ a.entries, bwd[n_max - 1] @ inverse(a).entries])
    return DecayRates(
        r_plus=_tail_max_root(np.clip(norms_fwd[1:], 1e-300, 1e300)),
        r_minus=_tail_max_root(np.clip(norms_bwd[1:], 1e-300, 1e300)),
        n_max=n_max,
        norms_fwd=norms_fwd,
        norms_bwd=norms_bwd,
        tails=_stack_spectral_norms(tails),
    )


def _envelope_constant(norms_fwd: np.ndarray, norms_bwd: np.ndarray, q: float) -> float:
    """max_k max(norms_fwd[k], norms_bwd[k]) / q^k over the kernel orders 0..k_max.
    When q dominates the true decay rates the ratios decay geometrically, so a
    k_max past the transient captures the supremum over all k to machine precision."""
    qpow = q ** np.arange(len(norms_fwd))
    return float(max(np.max(norms_fwd / qpow), np.max(norms_bwd / qpow)))
