"""Shared ensemble builders for the test suite.

Random operators are built as V diag(lam) V^{-1} with eigenvalue moduli drawn
log-uniformly from explicit bands and V either unitary or a mild perturbation
of the identity, so spectral margins and conditioning are controlled by
construction.
"""

import math

import numpy as np

from shadowspec import DenseOperator, inverse

# moduli bands with a deliberate margin around the unit circle
HYPERBOLIC_BANDS = ((0.45, 0.8), (1.25, 2.2))


def random_unitary(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def qr_unitary(rng, dim):
    """The Q factor of a complex Gaussian's QR, phases as LAPACK leaves them."""
    return np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]


# The suite's calls (d <= 8) accept within 12 draws; at d = 8 a draw is
# accepted with probability about 0.15, so 200 misses in a row has odds near
# 1e-14.  At d = 64 cond(V) never gets near the cap.
MAX_SIMILARITY_DRAWS = 200


def mild_similarity(rng, dim, strength=0.25, cond_cap=6.0):
    """V = I + strength*G (complex Gaussian G) with cond(V) <= cond_cap, by
    rejection; RuntimeError after MAX_SIMILARITY_DRAWS rejected draws."""
    for _ in range(MAX_SIMILARITY_DRAWS):
        v = np.eye(dim, dtype=np.complex128) + strength * (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )
        if np.linalg.cond(v) <= cond_cap:
            return v
    raise RuntimeError(
        f"no I + {strength}*G with cond <= {cond_cap} in {MAX_SIMILARITY_DRAWS} draws at d={dim}"
    )


def draw_moduli(rng, dim, bands):
    """Log-uniform moduli from a union of bands, band chosen by log-width."""
    widths = np.array([math.log(hi / lo) for lo, hi in bands])
    probs = widths / widths.sum()
    out = np.empty(dim)
    for i in range(dim):
        lo, hi = bands[rng.choice(len(bands), p=probs)]
        out[i] = lo * math.exp(rng.uniform() * math.log(hi / lo))
    return out


def conjugated_diagonal(rng, moduli, normal=False):
    """V diag(moduli * random phases) V^{-1}; returns (operator, eigenvalues)."""
    dim = len(moduli)
    lam = np.asarray(moduli) * np.exp(2j * np.pi * rng.uniform(size=dim))
    v = random_unitary(rng, dim) if normal else mild_similarity(rng, dim)
    entries = v @ np.diag(lam) @ np.linalg.inv(v)
    return DenseOperator(entries), lam


def random_hyperbolic(rng, dim, bands=HYPERBOLIC_BANDS, normal=None):
    """Hyperbolic operator with eigenvalue moduli inside the given bands."""
    if normal is None:
        normal = bool(rng.uniform() < 0.5)
    moduli = draw_moduli(rng, dim, bands)
    op, lam = conjugated_diagonal(rng, moduli, normal=normal)
    return op, lam


def random_invertible(rng, dim, scale=1.0):
    """Plain complex Gaussian matrix, redrawn when numerically near-singular."""
    while True:
        entries = scale * (
            rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        )
        svals = np.linalg.svd(entries, compute_uv=False)
        if svals[-1] > 1e-6 * svals[0]:
            return DenseOperator(entries)


def eigen_projector_inside(op: DenseOperator) -> np.ndarray:
    """Spectral projector onto eigenvalues strictly inside the unit circle,
    built from an eigendecomposition (the oracle the quadrature is checked
    against)."""
    w, v = np.linalg.eig(op.entries)
    mask = (np.abs(w) < 1.0).astype(np.complex128)
    return v @ np.diag(mask) @ np.linalg.inv(v)


def reprojected_kernels(a: DenseOperator, b: DenseOperator, k_max: int):
    """The d x d kernels M_k = B (A M_{k-1}) and N_k = (I-B) (A^{-1} N_{k-1}) from
    M_0 = B and N_0 = I-B, one slot at a time: the re-projected recurrence that the
    range-coordinate factors of `splitting_power_stacks` are held to."""
    d = a.dim
    ainv = inverse(a).entries
    comp = np.eye(d, dtype=np.complex128) - b.entries
    fwd = np.empty((k_max + 1, d, d), dtype=np.complex128)
    bwd = np.empty((k_max + 1, d, d), dtype=np.complex128)
    fwd[0], bwd[0] = b.entries, comp
    for k in range(1, k_max + 1):
        fwd[k] = b.entries @ (a.entries @ fwd[k - 1])
        bwd[k] = comp @ (ainv @ bwd[k - 1])
    return fwd, bwd
