"""Invertible linear operators: dense complex matrices and two-sided weighted shifts.

A :class:`DenseOperator` acts on ``C^dim`` as an explicit matrix.  A
:class:`ShiftOperator` acts on finitely supported vectors over the
integer-indexed orthonormal basis ``(e_n)``.  Its two-sided-constant weight
profile lives on the *edges* of the index lattice: the hop between basis
indices ``m`` and ``m+1`` carries ``weight_pos`` when ``m >= crossover`` and
``weight_neg`` otherwise.  That is the one shift convention, and the class
keeps it: ``ShiftOperator.step`` (+1 forward, -1 backward) is where T moves a
basis vector, and ``ShiftOperator.hop_weights`` the weight of the edge it
crosses.  The adjoint of a forward shift is the backward shift with the same
edge weights.

All values are immutable after construction and every operation here is pure,
so concurrent use from multiple threads is safe (`inverse` keeps a dense
operator's inverse on it, and racing threads store the same value).
"""

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import DimensionMismatchError, NotUnimodularError, SingularOperatorError

__all__ = [
    "DenseOperator",
    "ShiftOperator",
    "SupportedVector",
    "identity",
    "diagonal",
    "basis_vector",
    "apply",
    "adjoint",
    "inverse",
    "materialize",
    "rotate",
    "vec_norm",
    "operator_to_json",
    "operator_from_json",
]

UNIMODULAR_TOL = 1e-12

# Invertibility cutoff: smallest singular value must exceed this multiple of
# the largest one.
SINGULARITY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Square complex matrix, frozen after construction."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.array(self.entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError("entries must form a square matrix of dimension >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("entries must be finite (no NaN/Inf)")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __repr__(self):
        return f"DenseOperator(dim={self.dim})"


def identity(dim: int) -> DenseOperator:
    return DenseOperator(np.eye(dim, dtype=np.complex128))


def diagonal(values) -> DenseOperator:
    """Dense diagonal operator from a sequence of complex diagonal entries."""
    return DenseOperator(np.diag(np.asarray(list(values), dtype=np.complex128)))


@dataclass(frozen=True)
class ShiftOperator:
    """Bilateral weighted shift with a two-sided-constant weight profile.

    direction "forward" maps e_n -> w * e_{n+1}, "backward" maps
    e_n -> w * e_{n-1}; in both cases w is the weight of the traversed edge.
    Forward with crossover 0 and weights (2*sqrt(2), 1/(2*sqrt(2))) is the
    standard expansive-without-shadowing example; the backward shift with the
    same parameters is its adjoint.
    """

    direction: str
    weight_pos: float
    weight_neg: float
    crossover: int = 0

    def __post_init__(self):
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if not (self.weight_pos > 0 and self.weight_neg > 0):
            raise ValueError("shift weights must be positive")
        if not (math.isfinite(self.weight_pos) and math.isfinite(self.weight_neg)):
            raise ValueError("shift weights must be finite")
        # as an int, so the JSON form (and edge rule m >= crossover) round-trips
        object.__setattr__(self, "crossover", _integer_field(self.crossover, "crossover"))

    @property
    def step(self) -> int:
        """+1 forward, -1 backward: T moves e_n to a multiple of e_{n+step}."""
        return 1 if self.direction == "forward" else -1

    def edge_weight(self, m: int) -> float:
        """Weight on the edge between basis indices m and m+1."""
        return self.weight_pos if m >= self.crossover else self.weight_neg

    def hop_weights(self, index: np.ndarray) -> np.ndarray:
        """Weight of the edge T crosses from each index, the edge at min(i, i + step)."""
        lower = np.minimum(index, index + self.step)
        return np.where(lower >= self.crossover, self.weight_pos, self.weight_neg)


@dataclass(frozen=True, eq=False)
class SupportedVector:
    """Finitely supported vector over the integer-indexed basis.

    Only listed indices are nonzero; the norm is the l2 norm over the listed
    support; ``a + b``, ``a - b`` and ``c * v`` keep the listing order.
    Instances are value-immutable: the coefficient map is copied at
    construction and kept as a read-only mapping, so a write raises TypeError.
    """

    coefficients: Mapping
    # numpy scalars and arrays defer to __rmul__ instead of broadcasting
    __array_ufunc__ = None

    def __post_init__(self):
        coeffs = {int(k): complex(v) for k, v in self.coefficients.items()}
        for v in coeffs.values():
            if not cmath.isfinite(v):
                raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", MappingProxyType(coeffs))

    def __reduce__(self):  # a mappingproxy does not pickle: copy and pickle rebuild from a dict
        return SupportedVector, (dict(self.coefficients),)

    def support(self):
        return sorted(self.coefficients)

    def get(self, n: int) -> complex:
        return self.coefficients.get(n, 0j)

    def norm(self) -> float:
        total = 0.0  # in listing order: from Python 3.12 on, sum() of floats is compensated
        for v in self.coefficients.values():
            total += (a := abs(v)) * a  # inf where it overflows; ** 2 raises OverflowError
        return math.sqrt(total)

    def __mul__(self, a) -> "SupportedVector":
        a = complex(a)
        return SupportedVector({n: a * v for n, v in self.coefficients.items()})

    __rmul__ = __mul__

    def __add__(self, other: "SupportedVector") -> "SupportedVector":
        out = dict(self.coefficients)  # self's listing, then other's new indices in its order
        for k, v in other.coefficients.items():
            out[k] = out.get(k, 0j) + v
        return SupportedVector(out)

    def __sub__(self, other: "SupportedVector") -> "SupportedVector":
        return self + -1.0 * other

    def to_window_array(self, half_width: int) -> np.ndarray:
        """Dense coefficient array on indices -half_width..half_width."""
        out = np.zeros(2 * half_width + 1, dtype=np.complex128)
        for n, v in self.coefficients.items():
            if -half_width <= n <= half_width:
                out[n + half_width] = v
        return out


def basis_vector(n: int, value=1.0) -> SupportedVector:
    return SupportedVector({n: value})


def _vector_of(op, v):
    """v as op takes it: a length-dim complex array for a dense operator, the
    SupportedVector itself for a shift.  Any other vector is a dimension/kind
    mismatch; TypeError when op is no operator."""
    if isinstance(op, DenseOperator):
        if isinstance(v, SupportedVector):
            raise DimensionMismatchError("dense operator expects an array, not a SupportedVector")
        arr = np.asarray(v, dtype=np.complex128)
        if arr.shape != (op.dim,):
            raise DimensionMismatchError(f"vector of shape {arr.shape} does not match dimension {op.dim}")
        return arr
    if isinstance(op, ShiftOperator):
        if not isinstance(v, SupportedVector):
            raise DimensionMismatchError("shift operator expects a SupportedVector")
        return v
    raise TypeError(f"not an operator: {op!r}")


def apply(op, v):
    """Image of v under op, for the vectors `_vector_of` accepts."""
    v = _vector_of(op, v)
    if isinstance(op, DenseOperator):
        return op.entries @ v
    step = op.step
    edge = min(step, 0)  # the edge crossed from n is the one at min(n, n + step)
    return SupportedVector(
        {n + step: op.edge_weight(n + edge) * c for n, c in v.coefficients.items()}
    )


def adjoint(op):
    """Adjoint with respect to the standard inner product.

    Conjugate transpose for dense operators; for shifts, the opposite-direction
    shift with identical edge weights (weights are real, so transposition is
    enough).
    """
    if isinstance(op, DenseOperator):
        return DenseOperator(op.entries.conj().T)
    if isinstance(op, ShiftOperator):
        flipped = "backward" if op.direction == "forward" else "forward"
        return ShiftOperator(flipped, op.weight_pos, op.weight_neg, op.crossover)
    raise TypeError(f"not an operator: {op!r}")


def inverse(op):
    """Inverse operator.

    Dense: numerical inverse, kept on the operator once computed; SingularOperatorError
    (never kept) when sigma_min <= SINGULARITY_RTOL * sigma_max.
    Shift: the opposite-direction shift with reciprocated edge weights,
    which is exact.
    """
    if isinstance(op, ShiftOperator):
        flipped = "backward" if op.direction == "forward" else "forward"
        return ShiftOperator(flipped, 1.0 / op.weight_pos, 1.0 / op.weight_neg, op.crossover)
    if not isinstance(op, DenseOperator):
        raise TypeError(f"not an operator: {op!r}")
    if "_inverse" not in op.__dict__:
        svals = np.linalg.svd(op.entries, compute_uv=False)
        if svals[-1] <= SINGULARITY_RTOL * svals[0]:
            raise SingularOperatorError(
                f"operator is numerically singular: smallest singular value {svals[-1]:.3e} "
                f"<= {SINGULARITY_RTOL:.1e} * largest ({svals[0]:.3e})"
            )
        object.__setattr__(op, "_inverse", DenseOperator(np.linalg.inv(op.entries)))
    return op._inverse


def _powers(step: np.ndarray, k_max: int, first: np.ndarray, project=None, out=None,
            before=None, after=None):
    """Terms 0..k_max (matrices or vectors) stacked along a new axis 0 of `out`, a
    new array unless given: term 0 is first and term k is project @ (step @
    (term_{k-1} + before[k-1]) + after[k-1]), each part applied only when given.
    Each product is written into its term, through one scratch term with `project`."""
    if out is None:
        out = np.empty((k_max + 1, *np.shape(first)), dtype=np.complex128)
    out[0] = first
    scratch = None if project is None else np.empty_like(out[0])
    for k in range(1, k_max + 1):
        term = out[k] if project is None else scratch
        np.matmul(step, out[k - 1] if before is None else out[k - 1] + before[k - 1], out=term)
        if after is not None:
            term += after[k - 1]
        if project is not None:
            np.matmul(project, term, out=out[k])
    return out


def materialize(op: ShiftOperator, half_width: int) -> DenseOperator:
    """Finite window of a shift on basis indices -N..N as a (2N+1)x(2N+1) matrix.

    The column of the boundary vector whose image leaves the window is dropped
    (set to zero), so the window agrees with `apply` exactly on vectors
    supported in -N+1..N-1; callers manage boundary effects through the
    half_width margin.
    """
    if not isinstance(op, ShiftOperator):
        raise TypeError("materialize takes a ShiftOperator")
    n = _integer_field(half_width, "half_width")
    if n < 1:
        raise ValueError("half_width must be >= 1")
    # edge m joins columns m and m+1; on diagonal -step the column whose
    # image leaves the window (e_N forward, e_{-N} backward) stays zero
    edges = np.array([op.edge_weight(m) for m in range(-n, n)], dtype=np.complex128)
    return DenseOperator(np.diag(edges, -op.step))


def rotate(op, lam):
    """Scale an operator by the reciprocal of a unimodular factor: lam^{-1} * op.

    For shifts only lam == 1 keeps the result in the positive-weight shift
    family; other factors require a dense operator.  Kept for acceptance
    criterion 8 (rotation invariance).
    """
    lam = _unimodular(lam)
    if isinstance(op, DenseOperator):
        return DenseOperator(op.entries / lam)
    if isinstance(op, ShiftOperator):
        if lam == 1:
            return op
        raise ValueError(
            "rotation of a ShiftOperator by lambda != 1 leaves the positive-weight "
            "shift family; materialize or use a dense operator instead"
        )
    raise TypeError(f"not an operator: {op!r}")


def _unimodular(lam) -> complex:
    """lam as a complex; NotUnimodularError unless |lam| is within UNIMODULAR_TOL of 1 (NaN is not)."""
    lam = complex(lam)
    if not abs(abs(lam) - 1.0) < UNIMODULAR_TOL:
        raise NotUnimodularError(f"|lambda| = {abs(lam)!r} is not within {UNIMODULAR_TOL} of 1")
    return lam


def vec_norm(v) -> float:
    if isinstance(v, SupportedVector):
        return v.norm()
    return float(np.linalg.norm(np.asarray(v)))


# ---------------------------------------------------------------------------
# JSON wire format
#
#   {"kind": "dense", "dim": n, "entries": [[re, im], ...]}   (row-major, n*n pairs)
#   {"kind": "shift", "direction": "forward"|"backward",
#    "weight_pos": w, "weight_neg": w, "crossover": k}
#
# Every complex number in a report travels as such a [re, im] pair.

def _complex_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in values]


def operator_to_json(op) -> dict:
    if isinstance(op, DenseOperator):
        return {
            "kind": "dense",
            "dim": op.dim,
            "entries": _complex_pairs(op.entries.reshape(-1)),
        }
    if isinstance(op, ShiftOperator):
        return {
            "kind": "shift",
            "direction": op.direction,
            "weight_pos": float(op.weight_pos),
            "weight_neg": float(op.weight_neg),
            "crossover": int(op.crossover),
        }
    raise TypeError(f"not an operator: {op!r}")


def _integer_field(value, key: str) -> int:
    try:  # a bool is no size, though Python reads True as 1
        if not isinstance(value, bool) and float(value).is_integer():
            return int(value)
    except OverflowError:  # an int past the float range, which numpy could not hold either
        raise ValueError(f"{key!r} must be an integer within the float range") from None
    raise ValueError(f"{key!r} must be an integer, got {value!r}")


def _number_field(value, key: str):
    """value itself; ValueError for a JSON boolean, which Python would read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{key!r} must be a number, got {value!r}")
    return value


def operator_from_json(data: dict):
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError("operator JSON must be an object with a 'kind' field")
    kind = data["kind"]
    if kind == "dense":
        dim = _integer_field(data["dim"], "dim")
        pairs = data["entries"]
        if len(pairs) != dim * dim:
            raise ValueError(f"dense operator needs {dim * dim} entries, got {len(pairs)}")
        flat = np.array([complex(_number_field(re, "entries"), _number_field(im, "entries"))
                         for re, im in pairs], dtype=np.complex128)
        return DenseOperator(flat.reshape(dim, dim))
    if kind == "shift":
        return ShiftOperator(
            str(data["direction"]),
            float(_number_field(data["weight_pos"], "weight_pos")),
            float(_number_field(data["weight_neg"], "weight_neg")),
            _integer_field(data.get("crossover", 0), "crossover"),
        )
    raise ValueError(f"unknown operator kind {kind!r}")
