"""Spectra, unit-circle gaps, and the three dynamical verdicts.

For an invertible operator the three classical properties are decided by
spectra alone: hyperbolicity by the spectrum avoiding the unit circle,
uniform expansivity by the approximate point spectrum avoiding it, and the
shadowing property by the right spectrum avoiding it (equivalently: the
adjoint is uniformly expansive).  In finite dimension all three spectra
coincide, so dense operators always receive three identical verdicts.

Two-sided-constant weighted shifts are handled analytically: the spectrum is
the closed annulus between the two weights, the point spectrum is an open
annulus that is nonempty only when the weight profile funnels inward, and the
approximate point spectrum is either the two boundary circles or, when point
spectrum is present, the full closed annulus.  Eigenvalues of a finite
truncation of a shift say nothing about the infinite operator's spectra and
are only ever reported as labelled window artifacts.

`expansivity_witness` decides uniform expansivity's power-doubling form (some
n with max(||A^n x||, ||A^-n x||) >= 2 on the unit sphere) by its dual.  With
P = (A^n)* A^n and Q = (A^-n)* A^-n the joint numerical range of (P, Q) is
convex (Toeplitz-Hausdorff), so min over unit x of max(x*Px, x*Qx) equals
max over t in [0, 1] of lambda_min(t P + (1-t) Q), which is concave in t.

`duality_check` brackets both sides of rho_sh(A) = rho_ex(A*), each the least
sigma_min(lambda I - M) on the unit circle.  That is 1-Lipschitz in lambda, so
an SVD at angle t giving s > tol, less rounding slack, bounds it below by
s - |theta - t|.  The next SVD goes s further on, and between two nodes their
bounds cross no lower than half the smaller s, so the walk covers the circle.
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError
from .operators import (
    DenseOperator,
    ShiftOperator,
    SupportedVector,
    _complex_pairs,
    _integer_field,
    adjoint,
    inverse,
)

__all__ = [
    "DEFAULT_GAP_TOL",
    "Verdicts",
    "SpectralReport",
    "ShiftSpectra",
    "DualityReport",
    "ExpansivityWitness",
    "eigenvalues",
    "unit_circle_gap",
    "classify_dense",
    "shift_spectra",
    "classify_shift",
    "duality_check",
    "expansivity_witness",
    "shift_eigenvector",
]

DEFAULT_GAP_TOL = 1e-6

EIGEN_DIM_CAP = 512
DUALITY_DIM_CAP = 64
DUALITY_NODE_CAP = 360  # SVDs per side of duality_check: the old grid's count

WITNESS_SLACK = 1e-6  # expansivity_witness certifies norms >= 2 - WITNESS_SLACK
WITNESS_GAP_RTOL = 1e-12  # relative dual/primal gap that ends its bisection


@dataclass(frozen=True)
class Verdicts:
    hyperbolic: bool
    uniformly_expansive: bool
    shadowing: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ShiftSpectra:
    """Closed-form spectra of a two-sided-constant weighted shift.

    approx_point_kind is "circles" (radii on the annulus boundary) or
    "annulus" (the full closed annulus, when point spectrum is nonempty);
    point_spectrum is an open annulus (inner, outer) or None when empty.
    """

    annulus_inner: float
    annulus_outer: float
    approx_point_kind: str
    approx_point_radii: tuple
    point_spectrum: tuple | None

    def __post_init__(self):
        if self.annulus_inner > self.annulus_outer:
            raise ValueError("annulus_inner must not exceed annulus_outer")
        if self.approx_point_kind == "circles":
            for r in self.approx_point_radii:
                if r not in (self.annulus_inner, self.annulus_outer):
                    raise ValueError("approx point circles must sit on the annulus boundary")

    def to_json(self) -> dict:
        return {
            "annulus_inner": self.annulus_inner,
            "annulus_outer": self.annulus_outer,
            "approx_point": dict(kind=self.approx_point_kind, radii=list(self.approx_point_radii)),
            "point_spectrum": None
            if self.point_spectrum is None
            else {"open_annulus": list(self.point_spectrum)},
        }


@dataclass(frozen=True, eq=False)
class SpectralReport:
    """Eigenvalues (dense) or analytic spectra (shift), the unit-circle gap,
    and the three verdicts with the spectral criterion each one invoked."""

    gap_sigma: float
    verdicts: Verdicts
    justification: dict
    eigenvalues: tuple | None = None
    shift_spectra: ShiftSpectra | None = None

    def to_json(self) -> dict:
        return {
            "gap_sigma": self.gap_sigma,
            "verdicts": self.verdicts.to_json(),
            "justification": dict(self.justification),
            "eigenvalues": None if self.eigenvalues is None else _complex_pairs(self.eigenvalues),
            "shift_spectra": None if self.shift_spectra is None else self.shift_spectra.to_json(),
        }


def eigenvalues(a: DenseOperator) -> np.ndarray:
    """All dim eigenvalues with algebraic multiplicity (QR iteration via LAPACK)."""
    if a.dim > EIGEN_DIM_CAP:
        raise ValueError(f"eigenvalues capped at dimension {EIGEN_DIM_CAP}, got {a.dim}")
    try:
        return np.linalg.eigvals(a.entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails here
        raise ConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc


def unit_circle_gap(eigs) -> float:
    """min over the eigenvalue set of | |lambda| - 1 |."""
    eigs = np.asarray(eigs, dtype=np.complex128)
    return float(np.min(np.abs(np.abs(eigs) - 1.0)))


def _check_tol(tol: float) -> None:
    """A NaN or non-positive gap tolerance would flip verdicts silently."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


def classify_dense(a: DenseOperator, tol: float = DEFAULT_GAP_TOL) -> SpectralReport:
    """Three verdicts for a dense invertible operator.

    In finite dimension the spectrum, approximate point spectrum and right
    spectrum are all the eigenvalue set, so the three verdicts are one and the
    same boolean: unit-circle gap above tol.  The measured gap is reported so
    callers can re-threshold.  ValueError unless tol is finite and positive,
    and for a dimension past EIGEN_DIM_CAP, checked before A is inverted.
    """
    _check_tol(tol)
    eigs = eigenvalues(a)  # the dimension cap first, before inverse's SVD and inv
    inverse(a)  # SingularOperatorError unless invertible; kept on `a` for later calls
    gap = unit_circle_gap(eigs)
    ok = bool(gap > tol)
    state = "disjoint from" if ok else "meets"
    detail = f"(gap {gap:.6e} vs tol {tol:.1e}; finite dimension: all three spectra coincide)"
    justification = {
        "hyperbolic": f"spectrum {state} the unit circle {detail}",
        "uniformly_expansive": f"approximate point spectrum {state} the unit circle {detail}",
        "shadowing": f"right spectrum {state} the unit circle {detail}",
    }
    return SpectralReport(
        gap_sigma=gap,
        verdicts=Verdicts(ok, ok, ok),
        justification=justification,
        eigenvalues=tuple(complex(z) for z in eigs),
    )


def shift_spectra(op: ShiftOperator) -> ShiftSpectra:
    """Closed-form spectra for a two-sided-constant weighted shift.

    Point spectrum: solving the eigenvector recurrence termwise, a forward
    shift has square-summable eigenvectors exactly for |lambda| in the open
    annulus (weight_pos, weight_neg); a backward shift for |lambda| in
    (weight_neg, weight_pos).  When that annulus is empty the approximate
    point spectrum is the pair of boundary circles; otherwise its closure
    fills the whole annulus.
    """
    w_lo = min(op.weight_pos, op.weight_neg)
    w_hi = max(op.weight_pos, op.weight_neg)
    # the weight on the side T moves toward, then the one it moves away from
    near, far = (op.weight_pos, op.weight_neg)[:: op.step]
    pt = (near, far) if near < far else None
    kind = "circles" if pt is None else "annulus"
    radii = (w_lo,) if pt is None and w_lo == w_hi else (w_lo, w_hi)
    return ShiftSpectra(
        annulus_inner=w_lo,
        annulus_outer=w_hi,
        approx_point_kind=kind,
        approx_point_radii=radii,
        point_spectrum=pt,
    )


def _annulus_gap(inner: float, outer: float) -> float:
    return max(inner - 1.0, 1.0 - outer, 0.0)  # inner <= outer


def _approx_point_gap(spectra: ShiftSpectra) -> float:
    if spectra.approx_point_kind == "circles":
        return float(min(abs(r - 1.0) for r in spectra.approx_point_radii))
    return _annulus_gap(spectra.annulus_inner, spectra.annulus_outer)


def classify_shift(op: ShiftOperator, tol: float = DEFAULT_GAP_TOL) -> SpectralReport:
    """Analytic verdicts for a two-sided-constant weighted shift.

    Hyperbolicity tests the full annulus against the unit circle; uniform
    expansivity tests the shift's own approximate point spectrum; shadowing
    tests the adjoint shift's approximate point spectrum (the verdict-level
    form of the right-spectrum criterion).  ValueError unless tol is finite
    and positive.
    """
    _check_tol(tol)
    spectra = shift_spectra(op)
    adj_spectra = shift_spectra(adjoint(op))

    gap_sigma = _annulus_gap(spectra.annulus_inner, spectra.annulus_outer)
    gap_ap = _approx_point_gap(spectra)
    gap_ap_adj = _approx_point_gap(adj_spectra)

    hyperbolic = bool(gap_sigma > tol)
    expansive = bool(gap_ap > tol)
    shadowing = bool(gap_ap_adj > tol)

    justification = {
        "hyperbolic": (
            f"spectrum is the closed annulus [{spectra.annulus_inner:.9g}, "
            f"{spectra.annulus_outer:.9g}]; unit-circle gap {gap_sigma:.6e} vs tol {tol:.1e}"
        ),
        "uniformly_expansive": (
            f"approximate point spectrum ({spectra.approx_point_kind} "
            f"{list(spectra.approx_point_radii)}); unit-circle gap {gap_ap:.6e}"
        ),
        "shadowing": (
            "adjoint shift's approximate point spectrum "
            f"({adj_spectra.approx_point_kind} {list(adj_spectra.approx_point_radii)}); "
            f"unit-circle gap {gap_ap_adj:.6e} (right spectrum = conjugate of the "
            "adjoint's approximate point spectrum)"
        ),
    }
    return SpectralReport(
        gap_sigma=gap_sigma,
        verdicts=Verdicts(hyperbolic, expansive, shadowing),
        justification=justification,
        shift_spectra=spectra,
    )


@dataclass(frozen=True)
class DualityReport:
    """Arc-covering check of one-sided-spectrum duality on the unit circle: the
    (lo, hi) brackets of rho_sh(A) (surjectivity of lambda I - A) and rho_ex(A*)
    (A* bounded below), `nodes` SVDs in all; mismatches is 1 and the value
    discrepancy their gap when the brackets are disjoint, else both are 0."""

    passes: bool
    nodes: int
    tol: float
    surjectivity_bracket: tuple
    expansivity_bracket: tuple
    surjectivity_mismatches: int
    worst_value_discrepancy: float
    eigen_multiset_discrepancy: float


def _matched_distances(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """|x - y| of each x in xs and the nearest y still unmatched (greedy, in xs order)."""
    ys = list(ys)
    return np.array([abs(x - ys.pop(int(np.argmin([abs(x - y) for y in ys])))) for x in xs])


def _arc_cover(m: np.ndarray) -> tuple:
    """((lo, hi), nodes) for min_theta sigma_min(e^{i theta} I - m) by the module docstring's
    walk; lo = 0 when a node's s <= DEFAULT_GAP_TOL (the circle is met) or at the budget."""
    eye = np.eye(len(m))
    slack = float(len(m) * np.finfo(float).eps * (1.0 + np.linalg.norm(m)))
    theta, least = 0.0, math.inf
    for nodes in range(1, DUALITY_NODE_CAP + 1):
        sigma = float(np.linalg.svd(np.exp(1j * theta) * eye - m, compute_uv=False)[-1])
        least = min(least, sigma)
        if sigma - slack <= DEFAULT_GAP_TOL:
            break
        theta += sigma - slack
        if theta >= 2 * math.pi:
            return ((least - slack) / 2, least + slack), nodes
    return (0.0, least + slack), nodes


def duality_check(a: DenseOperator) -> DualityReport:
    """Passes when the arc-covering brackets of rho_sh(A) and rho_ex(A*), equal by
    the paper's duality, overlap, and each eigenvalue lambda_i of A lies within
    1e-8 + 2 kappa_i c d eps ||A||_F of its greedy match in conj(eig A*), c = 10.
    LAPACK's eigenvalues are exact for some A + E, ||E|| <= p(d) eps ||A|| with p
    modest (LAPACK Users' Guide, sec. 4.8; c d here, a tenfold margin), which moves
    lambda_i by kappa_i ||E|| to first order, kappa_i = ||row i of V^-1|| ||column i
    of V|| for A and A* alike.  A k-block's eigenvalues move by about eps^(1/k), and
    its near-singular V gives kappa_i ~ eps^(1/k - 1), or inf or nan: unbounded."""
    if a.dim > DUALITY_DIM_CAP:
        raise ValueError(f"duality_check capped at dimension {DUALITY_DIM_CAP}, got {a.dim}")
    adj = a.entries.conj().T
    (surj, n_surj), (expa, n_expa) = (_arc_cover(m) for m in (a.entries, adj))
    gap = max(surj[0] - expa[1], expa[0] - surj[1], 0.0)
    eigs, vecs = np.linalg.eig(a.entries)
    dists = _matched_distances(eigs, np.conj(np.linalg.eigvals(adj)))
    with np.errstate(all="ignore"):  # a defective V's inverse overflows
        try:
            kappa = np.linalg.norm(np.linalg.inv(vecs), axis=1) * np.linalg.norm(vecs, axis=0)
        except np.linalg.LinAlgError:  # V singular to the last bit
            kappa = np.inf
        tols = 1e-8 + 20.0 * a.dim * np.finfo(float).eps * np.linalg.norm(a.entries) * kappa
    return DualityReport(
        passes=bool(gap == 0.0 and not (dists > tols).any()),
        nodes=n_surj + n_expa,
        tol=DEFAULT_GAP_TOL,
        surjectivity_bracket=surj,
        expansivity_bracket=expa,
        surjectivity_mismatches=int(gap > 0.0),
        worst_value_discrepancy=gap,
        eigen_multiset_discrepancy=float(dists.max()),
    )


@dataclass(frozen=True, eq=False)
class ExpansivityWitness:
    """Outcome of the power-doubling definition of uniform expansivity.

    Advisory only: the spectral verdict is authoritative.  dual_weight t
    certifies the success n: lambda_min(t P + (1-t) Q) >= (2 - WITNESS_SLACK)^2.
    Else counterexample is a unit vector with both power images below the
    threshold at the n of least per_n_minima, or None if no n was refuted.
    """

    expansive_at: int | None
    sphere_min: float
    counterexample: np.ndarray | None
    per_n_minima: dict = field(default_factory=dict)
    dual_weight: float | None = None


def _balanced_mix(pos, neg):
    """Unit x = cu u + cv v, from bracket ends (x, A^n x, A^-n x), with x*(P-Q)x = 0:
    |cv/cu| balances its diagonal, arg cv cancels its cross term and keeps ||x|| >= 1."""
    (u, fu, bu), (v, fv, bv) = pos, neg
    gu, gv = (np.vdot(f, f).real - np.vdot(b, b).real for f, b in ((fu, bu), (fv, bv)))
    c = np.vdot(fu, fv) - np.vdot(bu, bv)
    w = 1j * np.conj(c) / abs(c) if c else 1.0
    w = -w if (w * np.vdot(u, v)).real < 0 else w
    cu, cv = np.sqrt(-gv / (gu - gv)), w * np.sqrt(gu / (gu - gv))
    scale = np.linalg.norm(cu * u + cv * v)
    return tuple((cu * p + cv * q) / scale for p, q in zip(pos, neg))


def expansivity_witness(a: DenseOperator, n_max: int, samples: int = 64) -> ExpansivityWitness:
    """Least n <= n_max at which every unit x has max(||A^n x||, ||A^-n x||)
    >= 2 - WITNESS_SLACK, decided through the dual (module docstring).

    Each n bisects t, steered by the sign of x*(P-Q)x at the lambda_min
    eigenvector x, until a candidate x (the eigenvector, or the balanced mix
    of the bracket ends) below the threshold refutes n, or a t with
    lambda_min >= threshold^2 certifies it and the dual value and best
    candidate agree to WITNESS_GAP_RTOL or n has taken `samples` steps, or t
    stops moving (n undecided, its minimum within rounding of the threshold).
    """
    n_max, samples = _integer_field(n_max, "n_max"), _integer_field(samples, "samples")
    if n_max < 1 or samples < 1:
        raise ValueError("n_max and samples must be >= 1")
    ainv = inverse(a).entries
    fwd = bwd = np.eye(a.dim, dtype=np.complex128)
    threshold = 2.0 - WITNESS_SLACK
    best_val, best_x, per_n = np.inf, None, {}
    for n in range(1, n_max + 1):
        fwd, bwd = a.entries @ fwd, ainv @ bwd
        lo, hi, ends = 0.0, 1.0, [None, None]
        lam, dual_t, val, cand, t, steps = -1.0, None, np.inf, None, 0.5, 0
        while lo < t < hi:
            steps += 1
            # sigma_min^2 of the stacked roots: t P + (1-t) Q would square cond
            _, s, vh = np.linalg.svd(
                np.vstack([np.sqrt(t) * fwd, np.sqrt(1.0 - t) * bwd]), full_matrices=False
            )
            if s[-1] ** 2 > lam:
                lam, dual_t = float(s[-1] ** 2), t
            x = vh[-1].conj()
            end = (x, fwd @ x, bwd @ x)
            # the exact sign test that _balanced_mix's weights assume (gu > 0 >= gv)
            if np.vdot(end[1], end[1]).real > np.vdot(end[2], end[2]).real:
                lo, ends[0] = t, end
            else:
                hi, ends[1] = t, end
            for y, fy, by in [end] + ([_balanced_mix(*ends)] if None not in ends else []):
                y_val = float(max(np.linalg.norm(fy), np.linalg.norm(by)))
                if y_val < val:
                    val, cand = y_val, y
            if val < threshold or lam >= threshold**2 and (
                steps >= samples or val - np.sqrt(lam) <= WITNESS_GAP_RTOL * val
            ):
                break
            t = 0.5 * (lo + hi)
        if val >= threshold and lam >= threshold**2:
            per_n[n] = float(np.sqrt(lam))
            return ExpansivityWitness(n, per_n[n], None, per_n, dual_weight=dual_t)
        per_n[n] = val
        if val < best_val:
            best_val, best_x = val, cand
    return ExpansivityWitness(None, best_val, best_x if best_val < threshold else None, per_n)


def shift_eigenvector(op: ShiftOperator, lam: complex, radius: int) -> SupportedVector:
    """Truncated point-spectrum eigenvector of a shift, supported on
    crossover-radius..crossover+radius.

    Built by running the termwise eigenvector recurrence outward from the
    crossover index; lam must lie in the open point-spectrum annulus so the
    coefficients decay on both sides and truncation error is geometric.
    """
    lam, radius = complex(lam), _integer_field(radius, "radius")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    spectra = shift_spectra(op)
    if spectra.point_spectrum is None:
        raise ValueError("shift has empty point spectrum; no eigenvector exists")
    lo, hi = spectra.point_spectrum
    if not (lo < abs(lam) < hi):
        raise ValueError(
            f"|lambda| = {abs(lam):.6g} outside the open point-spectrum annulus ({lo:.6g}, {hi:.6g})"
        )
    c = op.crossover
    coeffs = {c: 1.0 + 0j}
    # T x = lam x  <=>  lam * x_{i+step} = w * x_i across each edge w, so going
    # outward by `side` multiplies by w / lam along T's step and by lam / w against it
    for side in (1, -1):
        for m in range(c + side, c + side * (radius + 1), side):
            w = op.edge_weight(min(m, m - side))
            num, den = (w, lam) if side == op.step else (lam, w)
            coeffs[m] = coeffs[m - side] * num / den
    return SupportedVector(coeffs)
