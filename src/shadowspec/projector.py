"""Contour quadrature of the resolvent around the unit circle.

The resolvent R(lambda) = (lambda*I - A)^{-1} is holomorphic on any annulus
free of spectrum, so on a circle of radius r inside that annulus its Laurent
coefficients are contour integrals

    C_n = (1/2*pi*i) * integral  lambda^{-n-1} R(lambda) d lambda,

discretized here with the equispaced trapezoid rule (spectrally accurate for
periodic analytic integrands).  C_{-1} is the spectral projector onto the
part of the spectrum inside the circle; the remaining coefficients obey exact
one-step recurrences against A and its inverse, which `verify_laurent_relations`
replays as a cross-check of the quadrature.

Quadrature node evaluations are independent; the accumulation order is fixed
(index order, numpy pairwise summation) so runs are reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContourThroughSpectrumError, NearSingularResolventError
from .operators import DenseOperator, inverse

__all__ = [
    "ContourConfig",
    "LaurentTable",
    "LaurentRelationsReport",
    "DecayRates",
    "resolvent",
    "laurent_coefficient",
    "laurent_table",
    "riesz_projector",
    "verify_laurent_relations",
    "decay_rates",
    "geometric_envelope_constant",
    "splitting_power_stacks",
]

LAURENT_ORDER_CAP = 64
NODE_HALVING_RTOL = 1e-8  # bound on the estimated error of a coefficient, times max(1, max |C_n|)


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


def _contour_points(cfg: ContourConfig) -> np.ndarray:
    theta = 2.0 * np.pi * np.arange(cfg.nodes) / cfg.nodes
    return cfg.radius * np.exp(1j * theta)


def _resolvent_samples(a: DenseOperator, cfg: ContourConfig) -> np.ndarray:
    """R(lambda_j) at every contour node, shape (nodes, dim, dim).

    Raises ContourThroughSpectrumError when an eigenvalue sits closer to the
    contour (in modulus) than half a node spacing.
    """
    dist = float(np.min(np.abs(np.abs(np.linalg.eigvals(a.entries)) - cfg.radius)))
    guard = max(1e-9, np.pi * cfg.radius / cfg.nodes)
    if dist < guard:
        raise ContourThroughSpectrumError(
            f"eigenvalue within {dist:.3e} of the contour circle "
            f"(guard {guard:.3e}); move the radius or shrink the spacing",
            distance=dist,
        )
    lam = _contour_points(cfg)
    eye = np.eye(a.dim, dtype=np.complex128)
    lhs = lam[:, None, None] * eye - a.entries
    rhs = np.broadcast_to(eye, lhs.shape)
    return np.linalg.solve(lhs, rhs)


def resolvent(a: DenseOperator, lam: complex) -> DenseOperator:
    """(lambda*I - A)^{-1}.  A need not be invertible; lambda must stay clear
    of the spectrum (distance > 1e-10)."""
    lam = complex(lam)
    eigs = np.linalg.eigvals(a.entries)
    dist = float(np.min(np.abs(eigs - lam)))
    if dist < 1e-10:
        raise NearSingularResolventError(
            f"lambda within {dist:.3e} of the spectrum", distance=dist
        )
    eye = np.eye(a.dim, dtype=np.complex128)
    return DenseOperator(np.linalg.solve(lam * eye - a.entries, eye))


def _coefficient_from_samples(
    samples: np.ndarray, lam: np.ndarray, n: int
) -> tuple[np.ndarray, float]:
    """Trapezoid value of C_n plus the node-halving residual (max-entry norm).

    With lambda = r*exp(i*theta) the integral reduces to the theta-average of
    lambda^{-n} R(lambda); the even-indexed nodes form the half-resolution
    grid, so the certificate costs nothing extra.  The full sum's error, about
    residual^2 / scale by geometric convergence, must stay below NODE_HALVING_RTOL * scale.
    """
    weights = lam ** (-n)
    full = np.einsum("j,jkl->kl", weights, samples) / len(lam)
    half = np.einsum("j,jkl->kl", weights[::2], samples[::2]) / (len(lam) // 2)
    residual = float(np.max(np.abs(full - half)))
    scale = max(1.0, float(np.max(np.abs(full))))
    if residual**2 > NODE_HALVING_RTOL * scale**2:
        raise ContourThroughSpectrumError(
            f"C_{n} unresolved by {len(lam)} nodes (add nodes or move the radius): node-halving "
            f"residual {residual:.3e}, error ~{residual**2 / scale:.1e} > {NODE_HALVING_RTOL:.0e}"
        )
    return full, residual


def laurent_coefficient(
    a: DenseOperator, n: int, cfg: ContourConfig = ContourConfig()
) -> DenseOperator:
    """Laurent coefficient C_n of the resolvent on the configured circle;
    ContourThroughSpectrumError when the nodes do not resolve it."""
    if abs(n) > LAURENT_ORDER_CAP:
        raise ValueError(f"|n| capped at {LAURENT_ORDER_CAP}")
    samples = _resolvent_samples(a, cfg)
    full, _ = _coefficient_from_samples(samples, _contour_points(cfg), n)
    return DenseOperator(full)


def riesz_projector(a: DenseOperator, cfg: ContourConfig = ContourConfig()) -> DenseOperator:
    """Spectral projector onto the part of the spectrum inside the contour
    (the Laurent coefficient C_{-1}); idempotent and commuting with A up to
    quadrature accuracy."""
    return laurent_coefficient(a, -1, cfg)


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
    resolvent samples; ContourThroughSpectrumError as `laurent_coefficient`."""
    if n_max < 1 or n_max > LAURENT_ORDER_CAP:
        raise ValueError(f"n_max must be in 1..{LAURENT_ORDER_CAP}")
    samples = _resolvent_samples(a, cfg)
    lam = _contour_points(cfg)
    coefficients = {}
    worst_residual = 0.0
    for n in range(-n_max, n_max + 1):
        full, residual = _coefficient_from_samples(samples, lam, n)
        coefficients[n] = DenseOperator(full)
        worst_residual = max(worst_residual, residual)
    pos = np.array([np.linalg.norm(coefficients[n].entries, 2) for n in range(1, n_max + 1)])
    neg = np.array([np.linalg.norm(coefficients[-n].entries, 2) for n in range(1, n_max + 1)])
    return LaurentTable(
        coefficients=coefficients,
        n_max=n_max,
        r_plus=_tail_max_root(pos),
        r_minus=_tail_max_root(neg),
        node_doubling_residual=worst_residual,
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


def verify_laurent_relations(
    a: DenseOperator, table: LaurentTable, tol: float = 1e-7
) -> LaurentRelationsReport:
    """Replay the exact coefficient recurrences against the quadrature table:

        C_0    = -A^{-1} (I - C_{-1})
        C_n    =  A^{-n} C_0            (n >= 1)
        C_{-n} =  A^{n-1} C_{-1}        (n >= 1)

    and report the worst max-entry residual of each family.
    """
    if table.n_max < 3:
        raise ValueError("table must cover at least n_max >= 3")
    ainv = inverse(a).entries
    eye = np.eye(a.dim, dtype=np.complex128)
    c_minus_1 = table.coefficient(-1).entries
    c0 = table.coefficient(0).entries

    res_c0 = float(np.max(np.abs(c0 - (-ainv @ (eye - c_minus_1)))))

    res_pos = 0.0
    power = eye
    for n in range(1, table.n_max + 1):
        power = ainv @ power
        res_pos = max(res_pos, float(np.max(np.abs(table.coefficient(n).entries - power @ c0))))

    res_neg = 0.0
    power = eye
    for n in range(1, table.n_max + 1):
        res_neg = max(
            res_neg,
            float(np.max(np.abs(table.coefficient(-n).entries - power @ c_minus_1))),
        )
        power = a.entries @ power

    return LaurentRelationsReport(
        residual_c0=res_c0,
        residual_positive=res_pos,
        residual_negative=res_neg,
        passes=bool(max(res_c0, res_pos, res_neg) < tol),
    )


@dataclass(frozen=True)
class DecayRates:
    """Finite-order decay certificate for a candidate splitting operator B:
    tail estimates of the n-th root power norms ||A^n B||^(1/n) and
    ||A^{-n} (I-B)||^(1/n).  Both below 1 certifies the splitting at order
    n_max; the order is always carried so the certificate stays explicit."""

    r_plus: float
    r_minus: float
    n_max: int

    @property
    def worst(self) -> float:
        return max(self.r_plus, self.r_minus)

    @classmethod
    def from_norms(cls, norms_fwd: np.ndarray, norms_bwd: np.ndarray) -> "DecayRates":
        """Rates from the kernel norms of orders 0..n_max (`splitting_power_stacks`)."""
        n_max = len(norms_fwd) - 1
        if n_max < 8:
            raise ValueError("n_max must be >= 8")
        return cls(
            r_plus=_tail_max_root(np.clip(norms_fwd[1:], 1e-300, 1e300)),
            r_minus=_tail_max_root(np.clip(norms_bwd[1:], 1e-300, 1e300)),
            n_max=n_max,
        )


def splitting_power_stacks(a: DenseOperator, b: DenseOperator, k_max: int):
    """The power kernels A^k B and A^{-k} (I-B) for k = 0..k_max, stacked.

    Each step re-projects through the splitting:

        M_k = B (A M_{k-1}),        N_k = (I-B) (A^{-1} N_{k-1}),

    which reproduces the plain powers exactly whenever B is an idempotent
    with A-invariant range (the intended splittings), while preventing
    machine-level leakage into the complementary subspace from being
    amplified exponentially.  Returns (fwd, bwd, norms_fwd, norms_bwd) with
    spectral norms computed batched.
    """
    d = a.dim
    if b.dim != d:
        raise ValueError("splitting operator dimension mismatch")
    ainv = inverse(a).entries
    b_mat = b.entries
    comp = np.eye(d, dtype=np.complex128) - b_mat
    fwd = np.empty((k_max + 1, d, d), dtype=np.complex128)
    bwd = np.empty((k_max + 1, d, d), dtype=np.complex128)
    fwd[0] = b_mat
    bwd[0] = comp
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, k_max + 1):
            fwd[k] = b_mat @ (a.entries @ fwd[k - 1])
            bwd[k] = comp @ (ainv @ bwd[k - 1])
        norms_fwd = _stack_spectral_norms(fwd)
        norms_bwd = _stack_spectral_norms(bwd)
    return fwd, bwd, norms_fwd, norms_bwd


def _stack_spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value per slice; non-finite slices report 1e300."""
    finite = np.all(np.isfinite(stack), axis=(1, 2))
    out = np.full(stack.shape[0], 1e300)
    if np.any(finite):
        out[finite] = np.linalg.svd(stack[finite], compute_uv=False)[:, 0]
    return out


def decay_rates(a: DenseOperator, b: DenseOperator, n_max: int) -> DecayRates:
    """Tail estimates (max over the last n_max/2 orders) of the root power
    norms that certify B as a shadowing splitting.

    Power kernels are evaluated with per-step re-projection (see
    `splitting_power_stacks`); for a genuine splitting this is the plain
    power norm, and for a broken one the construction's recurrence residual
    exposes the disagreement downstream.
    """
    _, _, norms_fwd, norms_bwd = splitting_power_stacks(a, b, n_max)
    return DecayRates.from_norms(norms_fwd, norms_bwd)


def geometric_envelope_constant(
    a: DenseOperator, b: DenseOperator, q: float, k_max: int
) -> float:
    """Smallest K with ||A^k B|| <= K q^k and ||A^{-k}(I-B)|| <= K q^k for
    k = 0..k_max (power kernels as in `splitting_power_stacks`).

    When q dominates the true decay rates the ratio sequence decays
    geometrically, so a k_max past the transient captures the supremum over
    all k to machine precision.
    """
    if not (0.0 < q < 1.0):
        raise ValueError("q must lie in (0, 1)")
    _, _, norms_fwd, norms_bwd = splitting_power_stacks(a, b, k_max)
    return _envelope_constant(norms_fwd, norms_bwd, q)


def _envelope_constant(norms_fwd: np.ndarray, norms_bwd: np.ndarray, q: float) -> float:
    """max_k max(norms_fwd[k], norms_bwd[k]) / q^k over the kernel orders 0..k_max."""
    qpow = q ** np.arange(len(norms_fwd))
    return float(max(np.max(norms_fwd / qpow), np.max(norms_bwd / qpow)))
