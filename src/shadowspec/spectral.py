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
"""

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError
from .operators import (
    DenseOperator,
    ShiftOperator,
    SupportedVector,
    _complex_pairs,
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
    "min_singular_value",
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
DUALITY_GRID = 360

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
            "approx_point": {
                "kind": self.approx_point_kind,
                "radii": list(self.approx_point_radii),
            },
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


def min_singular_value(a: DenseOperator) -> float:
    """Largest alpha with ||Ax|| >= alpha ||x|| for all x (smallest singular value)."""
    return float(np.linalg.svd(a.entries, compute_uv=False)[-1])


def unit_circle_gap(eigs) -> float:
    """min over the eigenvalue set of | |lambda| - 1 |."""
    eigs = np.asarray(eigs, dtype=np.complex128)
    return float(np.min(np.abs(np.abs(eigs) - 1.0)))


def classify_dense(a: DenseOperator, tol: float = DEFAULT_GAP_TOL) -> SpectralReport:
    """Three verdicts for a dense invertible operator.

    In finite dimension the spectrum, approximate point spectrum and right
    spectrum are all the eigenvalue set, so the three verdicts are one and the
    same boolean: unit-circle gap above tol.  The measured gap is reported so
    callers can re-threshold.
    """
    inverse(a)  # SingularOperatorError unless invertible; kept on `a` for later calls
    eigs = eigenvalues(a)
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
    if op.direction == "forward":
        pt = (op.weight_pos, op.weight_neg) if op.weight_pos < op.weight_neg else None
    else:
        pt = (op.weight_neg, op.weight_pos) if op.weight_neg < op.weight_pos else None
    if pt is None:
        kind = "circles"
        radii = (w_lo,) if w_lo == w_hi else (w_lo, w_hi)
    else:
        kind = "annulus"
        radii = (w_lo, w_hi)
    return ShiftSpectra(
        annulus_inner=w_lo,
        annulus_outer=w_hi,
        approx_point_kind=kind,
        approx_point_radii=radii,
        point_spectrum=pt,
    )


def _annulus_gap(inner: float, outer: float) -> float:
    if inner > 1.0:
        return inner - 1.0
    if outer < 1.0:
        return 1.0 - outer
    return 0.0


def _approx_point_gap(spectra: ShiftSpectra) -> float:
    if spectra.approx_point_kind == "circles":
        return float(min(abs(r - 1.0) for r in spectra.approx_point_radii))
    return _annulus_gap(spectra.annulus_inner, spectra.annulus_outer)


def classify_shift(op: ShiftOperator, tol: float = DEFAULT_GAP_TOL) -> SpectralReport:
    """Analytic verdicts for a two-sided-constant weighted shift.

    Hyperbolicity tests the full annulus against the unit circle; uniform
    expansivity tests the shift's own approximate point spectrum; shadowing
    tests the adjoint shift's approximate point spectrum (the verdict-level
    form of the right-spectrum criterion).
    """
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
    """Grid check of one-sided-spectrum duality at the unit circle."""

    passes: bool
    grid_points: int
    tol: float
    surjectivity_mismatches: int
    worst_value_discrepancy: float
    eigen_multiset_discrepancy: float


def _multiset_distance(xs: np.ndarray, ys: np.ndarray) -> float:
    """Greedy nearest-neighbour matching distance between two complex multisets."""
    ys = list(ys)
    worst = 0.0
    for x in xs:
        j = int(np.argmin([abs(x - y) for y in ys]))
        worst = max(worst, abs(x - ys[j]))
        ys.pop(j)
    return float(worst)


def duality_check(a: DenseOperator) -> DualityReport:
    """Check, on a unit-circle grid, that lambda*I - A is surjective exactly when
    conj(lambda)*I - A* is bounded below, and that the eigenvalue multiset of A
    equals the conjugated eigenvalue multiset of A*.

    Finite dimension makes surjectivity, invertibility and bounded-belowness
    the same thing, each measured by the smallest singular value against
    DEFAULT_GAP_TOL; the two sides are equal in exact arithmetic, so the
    report carries the worst numerical discrepancy actually observed.
    """
    if a.dim > DUALITY_DIM_CAP:
        raise ValueError(f"duality_check capped at dimension {DUALITY_DIM_CAP}, got {a.dim}")
    lam = np.exp(2j * np.pi * np.arange(DUALITY_GRID) / DUALITY_GRID)
    eye = np.eye(a.dim, dtype=np.complex128)

    left_stack = lam[:, None, None] * eye - a.entries
    right_stack = np.conj(lam)[:, None, None] * eye - a.entries.conj().T
    sig_left = np.linalg.svd(left_stack, compute_uv=False)[:, -1]
    sig_right = np.linalg.svd(right_stack, compute_uv=False)[:, -1]

    mismatches = int(np.sum((sig_left > DEFAULT_GAP_TOL) != (sig_right > DEFAULT_GAP_TOL)))
    worst_value = float(np.max(np.abs(sig_left - sig_right)))

    eigs_a = np.linalg.eigvals(a.entries)
    eigs_adj_conj = np.conj(np.linalg.eigvals(a.entries.conj().T))
    multiset = _multiset_distance(eigs_a, eigs_adj_conj)

    return DualityReport(
        passes=bool(mismatches == 0 and multiset < 1e-8),
        grid_points=DUALITY_GRID,
        tol=DEFAULT_GAP_TOL,
        surjectivity_mismatches=mismatches,
        worst_value_discrepancy=worst_value,
        eigen_multiset_discrepancy=multiset,
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
    lam = complex(lam)
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
    if op.direction == "forward":
        # T x = lam x  <=>  x_{m} = (edge_weight(m-1) / lam) * x_{m-1}
        for m in range(c + 1, c + radius + 1):
            coeffs[m] = coeffs[m - 1] * op.edge_weight(m - 1) / lam
        for m in range(c - 1, c - radius - 1, -1):
            coeffs[m] = coeffs[m + 1] * lam / op.edge_weight(m)
    else:
        # S x = lam x  <=>  x_{m+1} = (lam / edge_weight(m)) * x_m
        for m in range(c + 1, c + radius + 1):
            coeffs[m] = coeffs[m - 1] * lam / op.edge_weight(m - 1)
        for m in range(c - 1, c - radius - 1, -1):
            coeffs[m] = coeffs[m + 1] * op.edge_weight(m) / lam
    return SupportedVector(coeffs)
