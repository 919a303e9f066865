"""Pseudo-orbits, constructive shadowing, and sequence-space probes.

A delta-pseudo-orbit of T is a finite window of states whose one-step
recurrence defect under T never exceeds delta: arrays for dense operators,
`SupportedVector`s for shifts, each seed and defect checked by
`operators._vector_of`, and each orbit built by its T, which it records.
`generate_pseudo_orbit` draws its defects up front, as one array, for either
kind; `orbit_from_defects` takes them from the caller, for a dense operator
only; both read integer window bounds.  Every orbit is its own coordinate x
time table and builds a state's or defect's vector only when it is read:
a dense orbit's rows are its d coordinates; a shift orbit's rows are its
seed's chains c = i - n*step, which T never leaves and every state lists,
each index in int64, with one multiply per coefficient and step.
`construct_shadow` and the oracles read the table itself, and only the
orbit's own T reads it.  Every dense window sequence is one two-sided fill
outward from n = 0, `_window_powers`: the pseudo-orbit from its defects, the
oracle's blocks A^n and the genuine trajectory A^n x_0 with none.  For a
dense operator with a certified splitting B (forward powers of A damped
through B, backward powers damped through I-B), the bounded solution of
x_{n+1} = A x_n + z_n is written down explicitly as

    x_n = sum_{k>=0} A^k B z_{n-k-1}  -  sum_{k>=1} A^{-k} (I-B) z_{n+k-1},

with z = 0 outside the window.  That is the discrete exponential-dichotomy
Green's function, so it is evaluated exactly by one forward and one backward
`_powers` sweep driven by the defects; subtracting it from the pseudo-orbit
leaves a genuine trajectory, and the shadowing distance obeys the a-priori bound
K*(1+q)/(1-q)*delta.  An independent least-squares oracle fits the best
genuine trajectory directly, with no knowledge of the splitting.

The sequence-space operators probed here act on windows of vectors:
"script-S" maps x to (x_{n+1} - T x_n) and "script-B" maps x to
(x_{n-1} - T* x_n); surjectivity of the first / bounded-belowness of the
second are the sequence-space signatures of shadowing.  Both probes read one
window, L_k, the k x (k+1) block map (x_0..x_k) -> (x_{j+1} - T x_j): script-S
at N is L_{2N}, and script-B at N, the compression of x_{r-1} - T* x_r to
x_0..x_{2N} with zero outside, is L_{2N+1}^H, whose singular values are
L_{2N+1}'s, so the adjoint is never formed.  Window probes use the
l2 norm (exact minimum gain via SVD) although the sequence operators natively
live on l1/l-infinity; on finite windows the norms are equivalent and every
probe is labelled as the l2 surrogate it is.  The l1 gain itself is evaluated
exactly on the two-sided geometric test family via `bgain_test_sequence`, in
one pass over a real support x row table (a shift's x and T*x placed straight
from x's coefficients and edge weights), with SupportedVector's digits.

Shift probes never build the window matrix: L_k couples (time, index) only
to (time +- 1, index +- 1), so it splits into scalar bidiagonal chains,
each read off its first node and resolved to high relative accuracy (`_shift_chain_gain`).
"""

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .operators import (
    DenseOperator,
    ShiftOperator,
    SupportedVector,
    _complex_pairs,
    _integer_field,
    _powers,
    _vector_of,
    adjoint,
    inverse,
    rotate,
    vec_norm,
)
from .projector import decay_rates

__all__ = [
    "PseudoOrbit",
    "ShadowResult",
    "OracleResult",
    "WindowProbe",
    "BGainResult",
    "generate_pseudo_orbit",
    "orbit_from_defects",
    "construct_shadow",
    "shadow_oracle_lsq",
    "window_probe",
    "bgain_test_sequence",
    "rotate_orbit",
]

# Order m of the power kernels that certify a splitting in `construct_shadow`.
DECAY_ORDER = 32
# Least q of `bgain_test_sequence`, whose window has N ~ 14 / log10 q <= 97,702 terms a side
BGAIN_MIN_Q = 1.00033
# Rows per oracle QR block: OpenBLAS threads a QR only past about 1e4 entries, and 256 x 33 is not
QR_BLOCK_ROWS = 256


class PseudoOrbit:
    """Finite window n_lo..n_hi of states of T with the per-step defect sequence.

    defects[j] = states[j+1] - T states[j]; every defect norm is bounded by
    delta (up to a float-roundoff slack proportional to the state scale).
    The window straddles index 0, where the seed state lives.  There is no
    public constructor: `generate_pseudo_orbit`, `orbit_from_defects` and
    `rotate_orbit` build every orbit and record the T whose recurrence built
    it, the one operator that reads it (`_table_for`).

    Every orbit is one read-only coordinate x time table whose vectors are
    built and kept when first read, `states` and `defects` all at once: column
    j of the states is time n_lo + j, of the defects time n_lo + j + 1.  A
    dense orbit's rows are its coordinates, its tables transposed views of
    time-major arrays and its vectors their columns.  A shift orbit's row r is
    chain chains[r], sorted, which holds index chains[r] + n*step at time n;
    every state and defect lists every chain, in the seed's listing order `order`.
    """

    def __init__(self, *args, **kwargs):
        raise TypeError("PseudoOrbit has no public constructor: use generate_pseudo_orbit")

    @classmethod
    def _built(cls, op, n_lo: int, n_hi: int, delta, x, z, seed=None, chains=None, order=None):
        """The orbit of op with states x and defects z (see above) from the seed at
        time 0; delta=None takes the largest defect norm.  ValueError for a delta that
        is not a finite number >= 0; FloatingPointError for a state or defect norm that
        is not finite (overflow) or a re-read defect norm above delta (rounding)."""
        orbit = cls.__new__(cls)
        x.setflags(write=False)  # every dense state and defect is a view into these
        z.setflags(write=False)
        vectors = {"states": [None] * (n_hi - n_lo + 1), "defects": [None] * (n_hi - n_lo)}
        vectors["states"][-n_lo] = seed  # a shift orbit's state at time 0 is its seed itself
        orbit.__dict__.update(n_lo=n_lo, n_hi=n_hi, _vectors=vectors, _states=x, _defects=z,
                              _op=op, _chains=chains, _order=order)
        state_norms, defect_norms = orbit._norms()
        delta = _require_delta(float(defect_norms.max(initial=0.0)) if delta is None else delta)
        if not (np.isfinite(state_norms).all() and np.isfinite(defect_norms).all()):
            raise FloatingPointError("pseudo-orbit has a non-finite state or defect norm")
        slack = 1e-12 * (1.0 + float(state_norms.max())) + 1e-15
        over = np.flatnonzero(defect_norms > delta + slack)
        if len(over):
            raise FloatingPointError(f"defect norm {defect_norms[over[0]]:.3e} exceeds delta {delta:.3e}")
        orbit.__dict__.update(delta=delta, _defect_norms=defect_norms)
        return orbit

    def __setattr__(self, name, value):
        raise AttributeError(f"PseudoOrbit is immutable: cannot assign {name!r}")

    @property
    def window(self) -> tuple:
        return (self.n_lo, self.n_hi)

    @functools.cached_property
    def states(self) -> tuple:
        return tuple(map(self.state, range(self.n_lo, self.n_hi + 1)))

    @functools.cached_property
    def defects(self) -> tuple:
        return tuple(map(self.defect, range(self.n_lo, self.n_hi)))

    def state(self, n: int):
        return self._at("states", n)

    def defect(self, n: int):
        return self._at("defects", n)

    def _at(self, kind: str, n: int):
        vectors, j = self._vectors[kind], n - self.n_lo
        if not 0 <= j < len(vectors):  # a negative j would wrap to the far end
            raise IndexError(f"index {n} outside the orbit window {self.window}")
        if vectors[j] is None:
            defect = kind == "defects"
            values = self._defects if defect else self._states
            if self._chains is None:
                vectors[j] = values[:, j]
            else:
                index = self._chains[self._order] + (n + defect) * self._op.step
                vectors[j] = SupportedVector(dict(zip(index.tolist(), values[self._order, j].tolist())))
        return vectors[j]

    def _norms(self) -> tuple:
        """`vec_norm` of every state and defect, bit for bit: `_row_norms` of a dense
        table, and for chains `SupportedVector.norm`'s abs() as hypot, squared as a * a
        and added row by row in listing order (a reduction down a single column would
        pair the terms)."""
        if self._chains is None:
            return _row_norms(self._states.T), _row_norms(self._defects.T)
        out = []
        for values in (self._states, self._defects):
            with np.errstate(over="ignore"):  # inf, as a * a gives it
                sq = np.hypot(values.real, values.imag) ** 2
            out.append(np.sqrt(np.add.accumulate(sq[self._order], axis=0)[-1]))
        return tuple(out)

    def defect_norms(self) -> list:
        return self._defect_norms.tolist()

    def _table_for(self, op) -> tuple:
        """The table op reads: d x W states and d x (W-1) defects of a dense
        orbit; a shift orbit's sorted chains and chain x time states.  Only the
        orbit's own operator reads it, the one that built it or one equal to it
        (a dense operator's entries, a shift's fields): delta and the defect
        norms hold for that T alone.  ValueError for any other operator,
        TypeError for what is no operator."""
        own = self._op
        if not isinstance(op, (DenseOperator, ShiftOperator)):
            raise TypeError(f"not an operator: {op!r}")
        dense = isinstance(op, DenseOperator) and isinstance(own, DenseOperator)
        if not (op == own or dense and np.array_equal(op.entries, own.entries)):
            raise ValueError("a pseudo-orbit is read only by the operator that built it")
        return (self._states, self._defects) if self._chains is None else (self._chains, self._states)


def _require_delta(delta):
    """delta itself; ValueError unless it is a finite number >= 0 (None and NaN are not)."""
    if delta is None or not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be a finite number >= 0, got {delta!r}")
    return delta


def _window_bounds(window) -> tuple:
    """A window's bounds (n_lo, n_hi), read as sizes are; ValueError unless n_lo <= 0 <= n_hi."""
    n_lo, n_hi = (_integer_field(n, "window") for n in window)
    if not (n_lo <= 0 <= n_hi):
        raise ValueError("orbit window must straddle index 0")
    return n_lo, n_hi


def _row_norms(g: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row of a complex 2-D array, bit for bit (one dot per part)."""
    re, im = g.real[:, None, :], g.imag[:, None, :]
    with np.errstate(over="ignore"):  # a norm that overflows is inf, for the caller to refuse
        return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def _draw_defects(size: int, delta: float, n_lo: int, n_hi: int, rng):
    """Defects z_n (n = n_lo..n_hi-1) on the delta-sphere, as the rows of one
    (W-1) x size array in window order, and which rows are zero.  They are
    drawn in one call in the order n = 0..n_hi-1, -1..n_lo, each z_n's real
    parts before its imaginary parts."""
    draws = rng.standard_normal((n_hi - n_lo, 2, size))
    draws = np.concatenate([draws[n_hi:][::-1], draws[:n_hi]])
    g = draws[:, 0] + 1j * draws[:, 1]
    r = _row_norms(g)
    zero = (r == 0.0) | (delta == 0.0)
    z = np.divide(delta, r, out=np.zeros_like(r), where=~zero)[:, None] * g
    z[zero] = 0.0
    return z, zero


def _shift_orbit(op: ShiftOperator, x0, defects, zero, n_lo: int, n_hi: int, delta) -> PseudoOrbit:
    """The drawn shift recurrence on the chain x time table of x0's chains,
    sorted, which every state lists, as the PseudoOrbit of that table, its
    state at time 0 x0 itself.  Row j of defects is z_{n_lo+j} on the
    chains, and a zero z_n (zero[j]) lists only the first, with 0j.

    From x0 at time 0, where chain c is index c, forward x_{j+1} = w x_j + z_j,
    backward x_j = w' (x_{j+1} - z_j) by the exact inverse, and the defects
    re-read as x_{j+1} - w x_j.  Each step updates a whole column with
    SupportedVector's scalar operations: w x is a complex multiply and a - b
    is a + complex(-1) * b.  Where a zero defect lists no chain, -0.0 is
    added, which leaves every value as it is, signed zeros included.
    ValueError, as SupportedVector raises it, when a coefficient is not finite,
    and when an index c + n*step leaves int64, where numpy would wrap it.
    """
    lo, hi = sorted((n_lo * op.step, n_hi * op.step))  # checked on Python ints
    if not (-2**63 <= min(x0.coefficients) + lo and max(x0.coefficients) + hi < 2**63):
        raise ValueError("shift indices over the window must lie in int64, -2**63..2**63 - 1")
    chains = np.array(x0.support())
    k0, steps = -n_lo, n_hi - n_lo
    grid = np.add.outer(chains, op.step * np.arange(n_lo, n_hi + 1))
    fwd = op.hop_weights(grid[:, :-1]).astype(np.complex128)
    bwd = inverse(op).hop_weights(grid[:, 1:]).astype(np.complex128)
    minus, keep = complex(-1.0), complex(-0.0, -0.0)
    # each column is a list of Python complex: a column holds one or a few
    # chains, where a numpy call per step would cost more than its arithmetic
    fwd_t, bwd_t = fwd.T.tolist(), bwd.T.tolist()
    plus_z, minus_z = defects.copy(), minus * defects
    plus_z[zero, 1:] = minus_z[zero, 1:] = keep
    plus_z, minus_z = plus_z.tolist(), minus_z.tolist()
    cols = [None] * (steps + 1)
    cols[k0] = [x0.coefficients[c] for c in chains.tolist()]
    for j in range(k0, steps):
        cols[j + 1] = [w * x + dz for w, x, dz in zip(fwd_t[j], cols[j], plus_z[j])]
    for j in range(k0 - 1, -1, -1):
        cols[j] = [w * (x + dz) for w, x, dz in zip(bwd_t[j], cols[j + 1], minus_z[j])]
    x = np.array(cols, dtype=np.complex128).T.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, as the states are
        actual = x[:, 1:] + minus * (fwd * x[:, :-1])
    if not (np.isfinite(x).all() and np.isfinite(actual).all()):
        raise ValueError("coefficients must be finite")
    order = np.searchsorted(chains, list(x0.coefficients))
    return PseudoOrbit._built(op, n_lo, n_hi, delta, x, actual, x0, chains, order)


def _dense_orbit(op: DenseOperator, x0, defects, n_lo: int, n_hi: int, delta) -> PseudoOrbit:
    """States from x0 at index 0 through x_{n+1} = A x_n + z_n, forward and,
    by the exact inverse, backward, and the defects re-read off the states:
    the orbit's table, transposed.  delta=None takes the largest defect norm."""
    inverse(op)  # a singular A is refused on every window, one-sided ones too
    with np.errstate(over="ignore", invalid="ignore"):  # the norm check refuses what overflowed
        x = _window_powers(op, n_lo, n_hi, x0, np.asarray(defects, dtype=np.complex128))
        actual = x[1:] - (op.entries @ x[:-1, :, None])[:, :, 0]
    return PseudoOrbit._built(op, n_lo, n_hi, delta, x.T, actual.T)


def generate_pseudo_orbit(
    op,
    x0,
    delta: float,
    window: tuple,
    rng_seed: int,
) -> PseudoOrbit:
    """Random delta-pseudo-orbit seeded at index 0.

    All defects z_n are drawn first, on the delta-sphere and in a fixed order,
    so a seed pins the orbit bit-for-bit.  Forward states follow
    y_{n+1} = T y_n + z_n, backward states the exact inverse
    y_n = T^{-1}(y_{n+1} - z_n), and the defects are re-read off the final
    states.  A shift seed must list at least one index.
    """
    n_lo, n_hi = _window_bounds(window)
    delta = _require_delta(delta)
    x0 = _vector_of(op, x0)
    if isinstance(op, ShiftOperator) and not x0.coefficients:
        raise ValueError("shift seed must list at least one index")
    rng = np.random.default_rng(rng_seed)
    size = op.dim if isinstance(op, DenseOperator) else len(x0.coefficients)
    defects, zero = _draw_defects(size, delta, n_lo, n_hi, rng)
    if isinstance(op, DenseOperator):
        return _dense_orbit(op, x0, defects, n_lo, n_hi, delta)
    return _shift_orbit(op, x0, defects, zero, n_lo, n_hi, delta)


def orbit_from_defects(op, x0, defects, window: tuple) -> PseudoOrbit:
    """Deterministic pseudo-orbit of a dense operator with caller-chosen defects.

    defects is the per-step sequence aligned with n = n_lo..n_hi-1; steps
    before index 0 are realized through the exact inverse so the one-step
    identity holds everywhere.  delta is taken to be the largest defect norm.
    TypeError for a shift, as `construct_shadow` raises it: shift orbits are
    drawn by `generate_pseudo_orbit`.  Kept for the caller-given defects of
    the README and the reference tests.
    """
    if isinstance(op, ShiftOperator):
        raise TypeError("orbit_from_defects needs a dense operator: shift orbits are drawn")
    n_lo, n_hi = _window_bounds(window)
    x0, defects = _vector_of(op, x0), [_vector_of(op, z) for z in defects]
    if len(defects) != n_hi - n_lo:
        raise ValueError("need exactly one defect per step")
    return _dense_orbit(op, x0, defects, n_lo, n_hi, None)


@dataclass(frozen=True, eq=False)
class ShadowResult:
    """Outcome of the constructive shadowing pass.

    anchor seeds the genuine trajectory at index 0; epsilon_achieved is the
    sup over the window of the distance to that trajectory, and
    epsilon_bound = K*(1+q)/(1-q)*delta is the a-priori constant it is held
    against.  recurrence_residual certifies that the correction sequence
    solved x_{n+1} = A x_n + z_n to rounding accuracy.
    """

    anchor: np.ndarray
    epsilon_achieved: float
    epsilon_bound: float
    q_used: float
    K_used: float
    r_plus: float
    r_minus: float
    recurrence_residual: float

    def to_json(self) -> dict:
        return {**asdict(self), "anchor": _complex_pairs(self.anchor)}


def construct_shadow(
    op: DenseOperator,
    b: DenseOperator,
    orbit: PseudoOrbit,
    *,
    q: float | None = None,
) -> ShadowResult:
    """Shadow a pseudo-orbit of a dense operator through the splitting B.

    The splitting's certificate is `decay_rates` at order DECAY_ORDER, and
    K is its `DecayRates.envelope` at q (default: the midpoint between the
    worst rate and 1), which raises when the certificate does not hold.

    The correction is the two-sided series restricted to the window: two
    `_powers` sweeps driven by the defects, re-projected per step through the splitting,

        u_n = B (A u_{n-1} + z_{n-1}),             u = 0 at the left edge,
        v_n = (I-B) A^{-1} (v_{n+1} + (I-B) z_n),  v = 0 at the right edge,

    and x = u - v.  The genuine trajectory is seeded by anchor = y_0 - x_0 and
    propagated outward from the window origin (stable: each direction only
    ever amplifies by |lambda|_max^N, and the anchor is taken where the orbit
    is smallest).
    """
    if not isinstance(op, DenseOperator) or not isinstance(b, DenseOperator):
        raise TypeError("construct_shadow needs dense operator and splitting")
    d = op.dim
    ys, z = orbit._table_for(op)  # d x W states, d x (W-1) defects
    a, b_mat = op.entries, b.entries

    rates = decay_rates(op, b, DECAY_ORDER)
    q = 0.5 * (1.0 + rates.worst) if q is None else q
    K = rates.envelope(q)

    comp = np.eye(d, dtype=np.complex128) - b_mat
    u = _powers(a, z.shape[1], np.zeros(d), project=b_mat, after=z.T)
    # (I-B) z_n as one matrix-vector product per n: one gemm comp @ z rounds differently
    comp_z = (comp @ z.T[::-1, :, None])[:, :, 0]
    v = _powers(inverse(op).entries, z.shape[1], np.zeros(d), project=comp, before=comp_z)
    x = (u - v[::-1]).T.copy()  # d x W and C-ordered, as the residual's product reads it
    residual = float(np.max(np.linalg.norm(x[:, 1:] - a @ x[:, :-1] - z, axis=0), initial=0.0))

    anchor = ys[:, -orbit.n_lo] - x[:, -orbit.n_lo]
    gap = ys.copy(order="C")  # the norm below sums down a C-ordered d x W array
    gap -= _window_powers(op, orbit.n_lo, orbit.n_hi, anchor).T
    eps = float(np.max(np.linalg.norm(gap, axis=0)))

    return ShadowResult(
        anchor=anchor,
        epsilon_achieved=eps,
        epsilon_bound=float(K * (1.0 + q) / (1.0 - q) * orbit.delta),
        q_used=float(q),
        K_used=K,
        r_plus=rates.r_plus,
        r_minus=rates.r_minus,
        recurrence_residual=residual,
    )


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Best genuine trajectory in the least-squares sense, splitting-free."""

    best_anchor: object
    epsilon_achieved: float
    condition: float

    def to_json(self) -> dict:
        """The report form of a dense oracle; shift oracles are not serialized."""
        return {
            "best_anchor": _complex_pairs(self.best_anchor),
            "epsilon_achieved": self.epsilon_achieved,
            "condition": self.condition,
        }


def _window_powers(op: DenseOperator, n_lo: int, n_hi: int, first, defects=None) -> np.ndarray:
    """x_n for n = n_lo..n_hi (n_lo <= 0 <= n_hi), stacked along axis 0 and filled
    outward from x_0 = first by `_powers` into one array: A^n first, or with
    defects (row j is z_{n_lo+j}) x_{n+1} = A x_n + z_n and x_n = A^-1 (x_{n+1} - z_n)."""
    out = np.empty((n_hi - n_lo + 1, *np.shape(first)), dtype=np.complex128)
    # x - z is x + (-z) bit for bit, so a backward step adds -z before A^-1
    fwd, bwd = (None, None) if defects is None else (defects[-n_lo:], -defects[:-n_lo][::-1])
    _powers(op.entries, n_hi, first, out=out[-n_lo:], after=fwd)
    if n_lo < 0:
        _powers(inverse(op).entries, -n_lo, first, out=out[-n_lo::-1], before=bwd)
    return out


def shadow_oracle_lsq(op, orbit: PseudoOrbit) -> OracleResult:
    """Independent shadowing oracle: minimize sum_n ||y_n - T^n x||^2 over x.

    Dense operators: the stack [A^n | y_n] is reduced by tall-skinny QR, each
    half (n < 0 and n >= 0) in blocks of QR_BLOCK_ROWS rows, whose digits do
    not depend on the BLAS thread count up to d = 32, then the stacked R
    factors; the top d x d triangle is solved for x.  The stack holds A^0 = I,
    so it has full column rank with sigma_min >= 1 and needs no rank cutoff.  The
    reported condition number, the triangle's sigma_max / sigma_min (the
    stack's own), grows like |lambda|_max^N for strongly hyperbolic operators
    over long windows, which the orthogonal factorization handles.  Shifts:
    T^n maps each basis vector to a single weighted basis vector, so the
    objective decouples into independent scalar chains solved in closed
    form.  Either way the reported distance is the sup norm over the window.
    """
    if isinstance(op, DenseOperator):
        d, ys = op.dim, orbit._table_for(op)[0].T  # time-major, W x d
        stack = _window_powers(op, orbit.n_lo, orbit.n_hi, np.eye(d, d + 1))  # [A^n | 0]
        stack[:, :, d] = ys
        halves = [h.reshape(-1, d + 1) for h in (stack[:-orbit.n_lo], stack[-orbit.n_lo:])]
        tops = [np.linalg.qr(h[i : i + QR_BLOCK_ROWS], mode="r")
                for h in halves for i in range(0, len(h), QR_BLOCK_ROWS)]
        r = np.linalg.qr(np.vstack(tops), mode="r")
        tri = r[:d, :d]
        sol = np.linalg.solve(tri, r[:d, d])  # upper triangular, |r_kk| >= 1: LU swaps no rows
        eps = float(np.max(_row_norms(ys - stack[:, :, :d] @ sol)))
        svals = np.linalg.svd(tri, compute_uv=False)
        return OracleResult(best_anchor=sol, epsilon_achieved=eps, condition=float(svals[0] / svals[-1]))

    chains, ys = orbit._table_for(op)
    times = np.arange(orbit.n_lo, orbit.n_hi + 1)
    step = op.step

    # weight of T^n e_j: one cumulative product of hop weights per chain,
    # outward from n = 0
    hop = op.hop_weights(np.add.outer(chains, step * times[:-1]))
    k0 = -orbit.n_lo
    ahead = np.multiply.accumulate(hop[:, k0:], axis=1)
    behind = np.divide.accumulate(
        np.hstack([np.ones((len(chains), 1)), hop[:, :k0][:, ::-1]]), axis=1
    )
    weights = np.hstack([behind[:, ::-1], ahead])

    # for the expanding shift the residual cancels about |w|^N of the
    # anchor's digits, so the anchor is formed exactly as a per-time loop
    # would: sums in time order (accumulate, not pairwise) and real divisions
    # (numpy's complex division multiplies by a reciprocal)
    dens = np.add.accumulate(weights * weights, axis=1)[:, -1]
    num = np.add.accumulate(weights * ys, axis=1)[:, -1]
    anchor = num.real / dens + 1j * (num.imag / dens)
    res = ys - weights * anchor[:, None]
    # hypot is what abs() of a Python complex computes; np.abs rounds differently
    eps = float(np.max(np.sqrt(np.sum(np.hypot(res.real, res.imag) ** 2, axis=0))))
    cond = math.sqrt(float(dens.max() / dens.min()))
    return OracleResult(
        best_anchor=SupportedVector(dict(zip(chains, anchor))),
        epsilon_achieved=eps,
        condition=cond,
    )


def _dense_window(a: DenseOperator, k: int) -> np.ndarray:
    """L_k (module docstring): I at block (j, j+1) and -A at block (j, j), j < k.
    script-B's own interior 2N x (2N+1) stencil has a d-dimensional kernel, so
    its padded compression L_{2N+1}^H is what witnesses bounded-belowness."""
    d = a.dim
    out = np.zeros((k * d, (k + 1) * d), dtype=np.complex128)
    blocks, j = out.reshape(k, d, k + 1, d), np.arange(k)
    blocks[j, :, j + 1, :], blocks[j, :, j, :] = np.eye(d), -a.entries
    return out


def _shift_chain_gain(op: ShiftOperator, k: int, m) -> float:
    """Smallest singular value of a shift's window L_k, chain by chain.

    L_k couples (time, index) only to (time +- 1, index +- 1), so built on
    `materialize(T, M)` blocks it splits into scalar chains.  Listed
    alternately by column and row, col_0, row_0, ..., row_{k-1}, col_k, a
    chain is a path whose hops carry a shift weight (T block) or 1 (identity
    block): a bidiagonal matrix whose weights are `op.hop_weights` along T's
    direction.  The gain is the least smallest singular value.

    Every step is a product or hypot of hop weights, so tiny gains keep full
    relative accuracy: chains with an extra column are rotated square (Givens,
    bottom-up, one row of every chain per step); the reciprocal column norms
    tau of the square R's inverse bound sigma_min(R) within [1 / ||1/tau||_2,
    min tau]; and only chains whose lower bound reaches the least upper bound
    get an SVD, batched by size.  LAPACK leaves a real upper bidiagonal as it
    is and resolves it by dqds.
    """
    if m is None:
        raise ValueError("shift operators need a materialization half-width M")
    m = _integer_field(m, "M")
    if m < 1:
        raise ValueError("half_width must be >= 1")
    # the hop after an even node (a column) crosses a T block, moving the index by
    # T's step across the edge T crosses; the next hop keeps the index
    nodes = 2 * k + 1
    steps = min(nodes // 2, 2 * m + 1)  # a chain's most diagonal entries: one per index, at most
    # the step x chain grid first: numpy refuses a window too large before anything else its size
    grid = np.empty((steps, 2 * m + nodes // 2), dtype=np.int64)
    # chain v's node j holds index step * (v + u_j); v = -M-nodes//2..M-1 keep two or more
    # nodes inside -M..M, as materialize does: one run first..first+count-1, the k x k (k x
    # (k+1) for odd count) upper bidiagonal of diagonal a_i, superdiagonal b_i, k = count // 2
    u, v = (np.arange(nodes) + 1) // 2, np.arange(-m - nodes // 2, m)
    first = np.searchsorted(u, -m - v)
    count = np.searchsorted(u, m - v, side="right") - first
    size = count // 2
    # rows are steps, chains right-aligned under decoupled ones: row r of chain v
    # crosses T's edge from step * (v + u_f + r - steps + size), f its first even node
    np.add.outer(np.arange(steps), v + (first + 1) // 2 + size - steps, out=grid)
    w = op.hop_weights(op.step * grid)
    odd = first % 2 == 1  # a chain from an odd node starts with an identity hop
    a, b = np.where(odd, 1.0, w), np.where(odd, w, 1.0)
    pad = np.arange(steps)[:, None] < steps - size
    a[pad], b[pad] = 1.0, 0.0
    b[-1, count % 2 == 0] = 0.0  # the last row's b is the extra column's entry

    extra = b[-1].copy()  # chased upward by Givens rotations
    for i in range(steps - 1, 0, -1):
        rho = np.hypot(a[i], extra)
        np.multiply(b[i - 1], extra / rho, out=extra)
        b[i - 1] *= a[i] / rho
        a[i] = rho
    a[0] = np.hypot(a[0], extra)

    tau = a.copy()
    with np.errstate(invalid="ignore"):  # 0/0 once tau underflows
        for i in range(1, steps):
            tau[i] *= tau[i - 1] / np.hypot(tau[i - 1], b[i - 1])
        tau[pad] = np.inf
        upper = tau.min(axis=0)
        lower = upper / np.sqrt(np.sum((upper / tau) ** 2, axis=0))
    # a NaN bound keeps its chain; the slack covers rounding in the bounds
    keep = np.flatnonzero(~(lower > upper.min() * (1.0 + 1e-9)))
    gain = np.inf
    for k in set(size[keep].tolist()):
        sel = keep[size[keep] == k]
        mats = np.zeros((len(sel), k * k))  # flat: diagonal at i * (k + 1), superdiagonal one on
        mats[:, :: k + 1], mats[:, 1 :: k + 1] = a[-k:, sel].T, b[-k:-1, sel].T
        gain = min(gain, float(np.linalg.svd(mats.reshape(-1, k, k), compute_uv=False)[:, -1].min()))
    return gain


@dataclass(frozen=True)
class WindowProbe:
    """Smallest amplification of a windowed sequence operator (l2 surrogate)."""

    N: int
    gain: float
    operator_kind: str
    norm_model: str = "l2 surrogate"


def window_probe(op, kind: str, n: int, m: int | None = None) -> WindowProbe:
    """Minimum-gain probe of the windowed sequence operator.

    script-S uses the wide interior stencil, N >= 1 (its smallest singular
    value is the surjectivity margin); script-B uses the window compression
    with zero-padded boundary rows, N >= 0 (its smallest singular value
    lower-bounds ||B(x)||/||x|| over window-supported sequences, and
    dominates the infinite-window bounded-below constant from above).  A
    shift needs the materialization half-width M; a dense operator ignores it.
    """
    if kind not in ("script-S", "script-B"):
        raise ValueError("kind must be 'script-S' or 'script-B'")
    n = _integer_field(n, "N")
    floor = 1 if kind == "script-S" else 0
    if n < floor:
        raise ValueError(f"N must be >= {floor} for {kind}")
    k = 2 * n + (kind == "script-B")  # script-S is L_{2N}; script-B is L_{2N+1}^H, same gain
    if isinstance(op, ShiftOperator):
        gain = _shift_chain_gain(op, k, m)
    elif isinstance(op, DenseOperator):
        gain = float(np.linalg.svd(_dense_window(op, k), compute_uv=False)[-1])
    else:
        raise TypeError(f"not an operator: {op!r}")
    return WindowProbe(N=n, gain=gain, operator_kind=kind)


@dataclass(frozen=True)
class BGainResult:
    """l1 gain of script-B on the two-sided geometric test sequence, measured
    by direct summation and via the closed-form identity."""

    gain_measured: float
    gain_identity: float
    q: float
    truncation: int

    def to_json(self) -> dict:
        return asdict(self)


def bgain_test_sequence(op, x, q: float) -> BGainResult:
    """Gain of script-B on the sequence y_n = q^n x (n < 0), q^{-n} x (n >= 0).

    gain_measured sums ||y_{n-1} - T* y_n|| over the truncated window divided
    by the summed state norms; gain_identity is the exact closed form

        ( ||x/q - T* x|| * q + ||q x - T* x|| ) / ( (1+q) ||x|| ).

    Both agree to truncation accuracy; as q decreases to 1 the gain tends to
    ||(I - T*) x|| / ||x||, which is how near-eigenvectors of T* at 1 expose a
    failing bounded-below constant.  The window has the least N with q^-N <=
    1e-14 terms per side, so q has a floor: ValueError below BGAIN_MIN_Q = 1.00033,
    and for an infinite q or a non-finite ||x|| or T*x (a shift's, formed as arrays).
    """
    q = float(q)
    if not (math.isfinite(q) and q >= BGAIN_MIN_Q):
        raise ValueError(f"q must be finite and at least {BGAIN_MIN_Q}, got {q!r}")
    norm_x = vec_norm(x)
    if not (math.isfinite(norm_x) and norm_x > 0.0):
        raise ValueError(f"x must be nonzero with a finite norm, got norm {norm_x!r}")
    n_trunc = math.ceil(14.0 * math.log(10.0) / math.log(q))
    while q**-n_trunc > 1e-14:  # the ceil can land a few ulps short
        n_trunc += 1

    x_arr = _vector_of(op, x)
    if isinstance(op, DenseOperator):
        tx_arr = adjoint(op).entries @ x_arr  # as `apply` forms it
    else:
        # x and T*x on the indices of x - T*x, as SupportedVector lists them; T* moves
        # e_i to e_{i-step} across the edge at min(i, i - step), in Python ints as `apply`
        values = np.fromiter(x.coefficients.values(), np.complex128, len(x.coefficients))
        t_index = [i - op.step for i in x.coefficients]
        weights = [op.edge_weight(min(i, j)) for i, j in zip(x.coefficients, t_index)]
        with np.errstate(over="ignore"):
            t_values = np.array(weights) * values
        if not np.isfinite(t_values).all():
            raise ValueError("coefficients must be finite")
        rows = {i: r for r, i in enumerate(dict.fromkeys([*x.coefficients, *t_index]))}
        x_arr, tx_arr = np.zeros((2, len(rows)), dtype=np.complex128)
        x_arr[: len(values)], tx_arr[[rows[i] for i in t_index]] = values, t_values

    # column n = -N..N+1 is row n of script-B's image, y_{n-1} - T* y_n =
    # s_prev x - s_cur T*x with s = q^{-|n|} on -N..N and 0 outside; two more
    # are the identity's x/q - T*x and q x - T*x.  Real support x column tables
    # (a real scale times a complex number is two real products), one Python
    # pow per |n|, hypot and in-order sums keep SupportedVector's digits.
    half = np.fromiter(map(q.__pow__, range(0, -n_trunc - 1, -1)), float, n_trunc + 1)  # q ** -n
    scales = np.concatenate([half[:0:-1], half])
    s_prev = np.concatenate([[0.0], scales, [1.0 / q, q]])
    s_cur = np.concatenate([scales, [0.0, 1.0, 1.0]])
    re = np.multiply.outer(x_arr.real, s_prev)
    re -= np.multiply.outer(tx_arr.real, s_cur)
    if x_arr.imag.any() or tx_arr.imag.any():  # hypot(a, 0) is |a|: real rows skip it
        im = np.multiply.outer(x_arr.imag, s_prev)
        im -= np.multiply.outer(tx_arr.imag, s_cur)
        np.hypot(re, im, out=re)
    re *= re
    norms = np.sqrt(np.add.reduce(re, axis=0))  # row by row down a C-ordered table: listing order
    total = np.add.accumulate(norms[:-2])[-1]
    norm_y1 = np.add.accumulate(scales * norm_x)[-1]
    identity = (norms[-2] * q + norms[-1]) / ((1.0 + q) * norm_x)
    return BGainResult(
        gain_measured=float(total / norm_y1),
        gain_identity=float(identity),
        q=q,
        truncation=n_trunc,
    )


def rotate_orbit(orbit: PseudoOrbit, lam: complex) -> PseudoOrbit:
    """Unimodular reindexing: states become lam^{-n} y_n.

    A pseudo-orbit of T maps to a pseudo-orbit of lam^{-1} T = rotate(T, lam),
    which the result records as its operator, with identical per-step defect
    norms (each defect is multiplied by a unimodular factor).  As `rotate`
    does for a shift, a shift orbit comes back as it is for lam == 1 and
    raises ValueError for any other lam.  Kept for acceptance criterion 8
    (rotation invariance).
    """
    op, lam = rotate(orbit._op, lam), complex(lam)  # NotUnimodularError; ValueError for a shift
    if orbit._chains is not None:
        return orbit
    times = range(orbit.n_lo, orbit.n_hi + 1)
    # one product per vector: a multiply of the whole table rounds a few entries differently
    x = np.array([*(lam ** -n * orbit.state(n) for n in times),
                  *(lam ** -(n + 1) * orbit.defect(n) for n in times[:-1])]).T
    return PseudoOrbit._built(op, orbit.n_lo, orbit.n_hi, orbit.delta, x[:, : len(times)],
                              x[:, len(times):])
