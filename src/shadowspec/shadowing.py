"""Pseudo-orbits, constructive shadowing, and sequence-space probes.

A delta-pseudo-orbit is a finite window of states whose one-step recurrence
defect never exceeds delta: arrays for dense operators, `SupportedVector`s
for shifts, each seed, defect and state checked by `operators._vector_of`.
`generate_pseudo_orbit` draws its defects up front, as one array,
`orbit_from_defects` takes them from the caller, and both run one recurrence
on integer window bounds.  A dense orbit multiplies by A and A^-1 directly; a
shift orbit runs on its chains c = i - n*step, which T never leaves: one
multiply per listed coefficient and step, each state built once.  Both the
oracle's blocks A^n and the genuine trajectory A^n x_0 are one two-sided fill
outward from n = 0, `_window_powers`.
For a dense operator with a certified splitting
B (forward powers of A damped through B, backward powers damped through I-B),
the bounded solution of x_{n+1} = A x_n + z_n is written down explicitly as

    x_n = sum_{k>=0} A^k B z_{n-k-1}  -  sum_{k>=1} A^{-k} (I-B) z_{n+k-1},

with z = 0 outside the window.  That is the discrete exponential-dichotomy
Green's function, so it is evaluated exactly by one forward and one backward
sweep over the window; subtracting it from the pseudo-orbit leaves a genuine
trajectory, and the shadowing distance obeys the a-priori bound
K*(1+q)/(1-q)*delta.  An independent least-squares oracle fits the best
genuine trajectory directly, with no knowledge of the splitting.

The sequence-space operators probed here act on windows of vectors:
"script-S" maps x to (x_{n+1} - T x_n) and "script-B" maps x to
(x_{n-1} - T* x_n); surjectivity of the first / bounded-belowness of the
second are the sequence-space signatures of shadowing.  Window probes use the
l2 norm (exact minimum gain via SVD) although the sequence operators natively
live on l1/l-infinity; on finite windows the norms are equivalent and every
probe is labelled as the l2 surrogate it is.  The l1 gain itself is evaluated
exactly on the two-sided geometric test family via `bgain_test_sequence`, in
one pass over a real support x row table: the truncated script-B image, with
scales mirrored in n, and the closed-form identity's two rows, shift digits kept.

Shift probes never build the window matrix: the stencils couple (time, index)
only to (time +- 1, index +- 1), so the matrix splits into scalar bidiagonal
chains, each resolved to high relative accuracy (see `_shift_chain_gain`).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NotUnimodularError
from .operators import (
    UNIMODULAR_TOL,
    DenseOperator,
    ShiftOperator,
    SupportedVector,
    _complex_pairs,
    _integer_field,
    _plus,
    _powers,
    _vector_of,
    adjoint,
    apply,
    inverse,
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


@dataclass(frozen=True, eq=False)
class PseudoOrbit:
    """Finite window n_lo..n_hi of states with the per-step defect sequence.

    defects[j] = states[j+1] - T states[j]; every defect norm is bounded by
    delta (up to a float-roundoff slack proportional to the state scale).
    FloatingPointError when a state or defect norm is not finite (overflow).
    The window always straddles index 0, where the seed state lives.
    """

    n_lo: int
    n_hi: int
    states: tuple
    delta: float
    defects: tuple

    def __post_init__(self):
        if not (self.n_lo <= 0 <= self.n_hi):
            raise ValueError("orbit window must straddle index 0")
        if len(self.states) != self.n_hi - self.n_lo + 1:
            raise ValueError("state count does not match the window")
        if len(self.defects) != len(self.states) - 1:
            raise ValueError("need exactly one defect per step")
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ValueError(f"delta must be a finite number >= 0, got {self.delta!r}")
        state_norms = [vec_norm(s) for s in self.states]
        defect_norms = [vec_norm(z) for z in self.defects]
        if not all(map(math.isfinite, state_norms + defect_norms)):
            raise FloatingPointError("pseudo-orbit has a non-finite state or defect norm")
        slack = 1e-12 * (1.0 + max(state_norms, default=0.0)) + 1e-15
        for norm in defect_norms:
            if norm > self.delta + slack:
                raise ValueError(f"defect norm {norm:.3e} exceeds delta {self.delta:.3e}")
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "defects", tuple(self.defects))

    @property
    def window(self) -> tuple:
        return (self.n_lo, self.n_hi)

    def state(self, n: int):
        return self._at(self.states, n)

    def defect(self, n: int):
        return self._at(self.defects, n)

    def _at(self, seq: tuple, n: int):
        j = n - self.n_lo
        if not 0 <= j < len(seq):  # a negative j would wrap to the far end
            raise IndexError(f"index {n} outside the orbit window {self.window}")
        return seq[j]

    def defect_norms(self) -> list:
        return [vec_norm(z) for z in self.defects]


def _row_norms(g: np.ndarray) -> np.ndarray:
    """`np.linalg.norm` of each row of a complex 2-D array, bit for bit (one dot per part)."""
    re, im = g.real[:, None, :], g.imag[:, None, :]
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


def _propagate(op, x0, defects, n_lo: int):
    """States from x0 at index 0 through x_{n+1} = T x_n + z_n, forward and,
    by the exact inverse, backward; and the defects re-read off the states.
    A shift runs on its chains c = i - n*step, which T never leaves, as dicts
    from chain to value with SupportedVector's listing order and digits (its
    `a - b` is a + complex(-1) * b); its defects come as (chain, value) pairs."""
    idx0 = -n_lo
    states = [None] * (len(defects) + 1)
    if not isinstance(op, ShiftOperator):
        a, ainv = op.entries, inverse(op).entries
        states[idx0] = x0
        for j in range(idx0, len(defects)):
            states[j + 1] = a @ states[j] + defects[j]
        for j in range(idx0 - 1, -1, -1):
            states[j] = ainv @ (states[j + 1] - defects[j])
        actual = [states[j + 1] - a @ states[j] for j in range(len(defects))]
        return tuple(states), tuple(actual)

    step, minus = op.step, complex(-1.0)
    chains = list(dict.fromkeys([*x0.coefficients, *(c for z in defects for c, _ in z)]))
    grid = np.add.outer(step * np.arange(n_lo, n_lo + len(states)), chains)
    fwd = [dict(zip(chains, w)) for w in op.hop_weights(grid[:-1]).tolist()]
    bwd = [dict(zip(chains, w)) for w in inverse(op).hop_weights(grid[1:]).tolist()]
    images = [None] * len(defects)  # T x_j, chain by chain
    states[idx0] = x0.coefficients  # at time 0, chain c is index c
    for j in range(idx0, len(defects)):
        images[j] = {c: fwd[j][c] * x for c, x in states[j].items()}
        states[j + 1] = _plus(images[j], defects[j])
    for j in range(idx0 - 1, -1, -1):
        diff = _plus(states[j + 1], [(c, minus * z) for c, z in defects[j]])
        states[j] = {c: bwd[j][c] * x for c, x in diff.items()}
        images[j] = {c: fwd[j][c] * x for c, x in states[j].items()}
    actual = [_plus(y, [(c, minus * v) for c, v in t.items()]) for y, t in zip(states[1:], images)]

    def vector(j, chain_values):  # chain c at window row j is index c + (n_lo + j) * step
        off = (n_lo + j) * step
        return SupportedVector({c + off: v for c, v in chain_values.items()})

    vectors = [x0 if j == idx0 else vector(j, s) for j, s in enumerate(states)]
    return tuple(vectors), tuple(vector(j + 1, z) for j, z in enumerate(actual))


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
    n_lo, n_hi = (_integer_field(n, "window") for n in window)
    if not (math.isfinite(delta) and delta >= 0):
        raise ValueError(f"delta must be a finite number >= 0, got {delta!r}")
    if not (n_lo <= 0 <= n_hi):
        raise ValueError("window must straddle index 0")
    x0 = _vector_of(op, x0)
    if isinstance(op, ShiftOperator) and not x0.coefficients:
        raise ValueError("shift seed must list at least one index")
    rng = np.random.default_rng(rng_seed)
    size = op.dim if isinstance(op, DenseOperator) else len(x0.coefficients)
    defects, zero = _draw_defects(size, delta, n_lo, n_hi, rng)
    if isinstance(op, ShiftOperator):
        # z_n lists the seed's indices moved to time n+1, so on the seed's own
        # chains; a zero z_n lists only the first, with 0j
        seed = x0.support()
        defects = [list(zip(seed, [0j] if empty else row))
                   for row, empty in zip(defects.tolist(), zero.tolist())]
    states, actual = _propagate(op, x0, defects, n_lo)
    return PseudoOrbit(n_lo=n_lo, n_hi=n_hi, states=states, delta=delta, defects=actual)


def orbit_from_defects(op, x0, defects, window: tuple) -> PseudoOrbit:
    """Deterministic pseudo-orbit with caller-chosen defects.

    defects is the per-step sequence aligned with n = n_lo..n_hi-1; steps
    before index 0 are realized through the exact inverse so the one-step
    identity holds everywhere.  delta is taken to be the largest defect norm.
    Kept for the caller-given defects of the README and the reference tests.
    """
    n_lo, n_hi = (_integer_field(n, "window") for n in window)
    if not (n_lo <= 0 <= n_hi):
        raise ValueError("window must straddle index 0")
    x0, defects = _vector_of(op, x0), [_vector_of(op, z) for z in defects]
    if len(defects) != n_hi - n_lo:
        raise ValueError("need exactly one defect per step")
    if isinstance(op, ShiftOperator):
        # z_n's index i lies on chain i - (n+1)*step
        defects = [[(i - (n + 1) * op.step, v) for i, v in z.coefficients.items()]
                   for n, z in zip(range(n_lo, n_hi), defects)]
    states, actual = _propagate(op, x0, defects, n_lo)
    delta = max((vec_norm(z) for z in actual), default=0.0)
    return PseudoOrbit(n_lo=n_lo, n_hi=n_hi, states=states, delta=delta, defects=actual)


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

    The correction is the two-sided series restricted to the window, computed
    by two sweeps with the same per-step re-projection as the kernels:

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
    states = [_vector_of(op, s) for s in orbit.states]
    a, b_mat = op.entries, b.entries
    ainv = inverse(op).entries

    rates = decay_rates(op, b, DECAY_ORDER)
    q = 0.5 * (1.0 + rates.worst) if q is None else q
    K = rates.envelope(q)

    W = len(states)
    x = np.zeros((d, W), dtype=np.complex128)
    if W > 1:
        z = np.stack(orbit.defects, axis=1)  # d x (W-1)
        comp = np.eye(d, dtype=np.complex128) - b_mat
        u = np.zeros(d, dtype=np.complex128)
        for n in range(1, W):
            u = b_mat @ (a @ u + z[:, n - 1])
            x[:, n] = u
        v = np.zeros(d, dtype=np.complex128)
        for n in range(W - 2, -1, -1):
            v = comp @ (ainv @ (v + comp @ z[:, n]))
            x[:, n] -= v
        residual = float(np.max(np.linalg.norm(x[:, 1:] - a @ x[:, :-1] - z, axis=0)))
    else:
        residual = 0.0

    anchor = states[-orbit.n_lo] - x[:, -orbit.n_lo]
    gap = np.stack(states, axis=1)  # d x W, C-ordered, as the norm below sums it
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


def _window_powers(op: DenseOperator, n_lo: int, n_hi: int, first) -> np.ndarray:
    """A^n first for n = n_lo..n_hi (n_lo <= 0 <= n_hi), stacked along axis 0,
    filled outward from n = 0 by A and by A^-1 straight into one array."""
    out = np.empty((n_hi - n_lo + 1, *np.shape(first)), dtype=np.complex128)
    _powers(op.entries, n_hi, first, out=out[-n_lo:])
    if n_lo < 0:
        _powers(inverse(op).entries, -n_lo, first, out=out[-n_lo::-1])
    return out


def shadow_oracle_lsq(op, orbit: PseudoOrbit) -> OracleResult:
    """Independent shadowing oracle: minimize sum_n ||y_n - T^n x||^2 over x.

    Dense operators: the stacked linear system over all window powers is
    solved by orthogonal factorization (SVD least squares); the reported
    condition number grows like |lambda|_max^N for strongly hyperbolic
    operators over long windows, which is expected and handled by the
    factorization.  Shifts: T^n maps each basis vector to a single weighted
    basis vector, so the objective decouples into independent scalar chains
    solved in closed form.  Either way the reported distance is the sup norm
    over the window.
    """
    states = [_vector_of(op, s) for s in orbit.states]
    if isinstance(op, DenseOperator):
        d = op.dim
        blocks = _window_powers(op, orbit.n_lo, orbit.n_hi, np.eye(d))
        target = np.concatenate(states)
        sol, _, _, svals = np.linalg.lstsq(blocks.reshape(-1, d), target, rcond=None)
        eps = float(np.max(_row_norms(np.stack(states) - blocks @ sol)))
        cond = float(svals[0] / svals[-1]) if svals[-1] > 0 else float("inf")
        return OracleResult(best_anchor=sol, epsilon_achieved=eps, condition=cond)

    step = op.step
    times = np.arange(orbit.n_lo, orbit.n_hi + 1)
    # listed coefficient i of y_n lies on chain j = i - n*step, where T^n e_j lives
    cells = [(i - n * step, k, v) for k, (n, y) in enumerate(zip(times.tolist(), states))
             for i, v in y.coefficients.items()]
    if not cells:
        return OracleResult(best_anchor=SupportedVector({}), epsilon_achieved=0.0, condition=1.0)
    listed, cols, values = zip(*cells)
    chains, rows = np.unique(listed, return_inverse=True)
    ys = np.zeros((len(chains), len(times)), dtype=np.complex128)  # chain x time
    ys[rows, cols] = values

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
    ys -= weights * anchor[:, None]  # ys is now the residual
    # hypot is what abs() of a Python complex computes; np.abs rounds differently
    eps = float(np.max(np.sqrt(np.sum(np.hypot(ys.real, ys.imag) ** 2, axis=0))))
    cond = math.sqrt(float(dens.max() / dens.min()))
    return OracleResult(
        best_anchor=SupportedVector(dict(zip(chains, anchor))),
        epsilon_achieved=eps,
        condition=cond,
    )


def _dense_window(a: DenseOperator, kind: str, n: int) -> np.ndarray:
    """Window matrix of a dense operator, whose smallest singular value `window_probe` takes.

    script-S: the 2N x (2N+1) block stencil mapping stacked (x_{-N}..x_N) to
    x_{j+1} - T x_j.  script-B: the (2N+2) x (2N+1) compression to
    window-supported sequences, row r realizing x_{r-1} - T* x_r with x indexed
    0..2N and zero outside.  The interior 2N x (2N+1) stencil of script-B always
    has a d-dimensional kernel (pick the last block state freely and
    back-substitute), so its gain is identically zero; the padded compression's
    gain is what witnesses bounded-belowness.
    """
    d, cols = a.dim, 2 * n + 1
    if kind == "script-S":
        rows, eye_at, block = 2 * n, 1, a.entries
    else:
        rows, eye_at, block = 2 * n + 2, -1, adjoint(a).entries
    out = np.zeros((rows * d, cols * d), dtype=np.complex128)
    # block row r holds I in block column r + eye_at and -block in column r
    for offset, value in ((eye_at, np.eye(d)), (0, -block)):
        r = np.arange(max(0, -offset), min(rows, cols - offset))
        out.reshape(rows, d, cols, d)[r, :, r + offset, :] = value
    return out


def _shift_chain_gain(op: ShiftOperator, kind: str, n: int, m) -> float:
    """Smallest singular value of a shift's window matrix, chain by chain.

    Both stencils couple (time, index) only to (time +- 1, index +- 1), so the
    window matrix built on `materialize(., M)` blocks splits into scalar
    chains.  Listed alternately by row and column, a chain is a path
    whose hops carry 1 (identity block) or a shift weight (T block): a
    bidiagonal matrix.  For both kinds the path runs in T's direction, so the
    weights are `op.hop_weights` along it and T* is never built.  The gain is
    the least smallest singular value.

    Every step is a product or hypot of hop weights, so tiny gains keep full
    relative accuracy: chains with an extra column are rotated square
    (Givens, bottom-up); the reciprocal column norms tau of the square R's
    inverse bound sigma_min(R) within [1 / ||1/tau||_2, min tau]; and only
    chains whose lower bound reaches the least upper bound get an SVD,
    batched by size.  LAPACK leaves a real upper bidiagonal as it is and
    resolves it by dqds.
    """
    if m is None:
        raise ValueError("shift operators need a materialization half-width M")
    m = _integer_field(m, "M")
    if m < 1:
        raise ValueError("half_width must be >= 1")
    # path nodes: script-B is row_0, col_0, row_1, ..., col_2N, row_2N+1 and
    # script-S is col_0, row_0, ..., row_2N-1, col_2N; the hop after an even
    # node crosses a T block (script-S, column to row) or a T* block
    # (script-B, row to column), so either way it moves the index by T's own
    # step across the edge T crosses; the next hop keeps the index
    nodes = 4 * n + 3 if kind == "script-B" else 4 * n + 1
    moved = op.step * ((np.arange(nodes) + 1) // 2)
    index = np.arange(-m - moved.max(), m - moved.min() + 1)[:, None] + moved
    inside = np.abs(index) <= m  # materialize drops what leaves -M..M
    hops = op.hop_weights(index[:, :-1])
    hops[:, 1::2] = 1.0
    hops[~(inside[:, :-1] & inside[:, 1:])] = 0.0
    hops = np.hstack([hops, np.zeros((len(hops), 1))])  # a zero past the last node

    # a chain with `count` nodes from `first` is the k x k (k x (k+1) for odd
    # count) upper bidiagonal with diagonal a_i and superdiagonal b_i;
    # rows are padded to k_max with decoupled ones
    count = inside.sum(axis=1)
    size = count[count >= 2] // 2
    first = np.argmax(inside[count >= 2], axis=1)
    hops = hops[count >= 2]
    k_max = int(size.max())
    chain = np.arange(len(size))[:, None]
    at = np.minimum(first[:, None] + 2 * np.arange(k_max), nodes - 2)  # clips padding only
    pad = np.arange(k_max) >= size[:, None]
    a = np.where(pad, 1.0, hops[chain, at])
    b = np.where(pad, 0.0, hops[chain, at + 1])

    extra = np.zeros(len(size))  # the extra column's entry, chased upward
    for i in range(k_max - 1, -1, -1):
        extra = np.where(size - 1 == i, b[:, i], extra)
        rho = np.hypot(a[:, i], extra)
        if i:
            b[:, i - 1], extra = b[:, i - 1] * (a[:, i] / rho), b[:, i - 1] * (extra / rho)
        a[:, i] = rho
    b[chain[:, 0], size - 1] = 0.0

    tau = np.empty_like(a)
    tau[:, 0] = a[:, 0]
    with np.errstate(invalid="ignore"):  # 0/0 once tau underflows
        for i in range(1, k_max):
            tau[:, i] = a[:, i] * (tau[:, i - 1] / np.hypot(tau[:, i - 1], b[:, i - 1]))
        tau[pad] = np.inf
        upper = tau.min(axis=1)
        lower = upper / np.sqrt(np.sum((upper[:, None] / tau) ** 2, axis=1))
    # a NaN bound keeps its chain; the slack covers rounding in the bounds
    keep = np.flatnonzero(~(lower > upper.min() * (1.0 + 1e-9)))
    gain = np.inf
    for k in np.unique(size[keep]):
        sel = keep[size[keep] == k]
        diag = np.arange(k)
        mats = np.zeros((len(sel), k, k))
        mats[:, diag, diag] = a[sel, :k]
        mats[:, diag[:-1], diag[:-1] + 1] = b[sel, : k - 1]
        gain = min(gain, float(np.linalg.svd(mats, compute_uv=False)[:, -1].min()))
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
    if isinstance(op, ShiftOperator):
        gain = _shift_chain_gain(op, kind, n, m)
    elif isinstance(op, DenseOperator):
        gain = float(np.linalg.svd(_dense_window(op, kind, n), compute_uv=False)[-1])
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
    and for an infinite q or a non-finite ||x||.
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

    t_star_x = apply(adjoint(op), x)
    if isinstance(x, SupportedVector):
        # the indices of x - T*x, in the order SupportedVector lists them
        support = list(dict.fromkeys([*x.coefficients, *t_star_x.coefficients]))
        x_arr, tx_arr = (np.array([v.get(i) for i in support]) for v in (x, t_star_x))
    else:
        x_arr, tx_arr = _vector_of(op, x), t_star_x

    # column n = -N..N+1 is row n of script-B's image, y_{n-1} - T* y_n =
    # s_prev x - s_cur T*x with s = q^{-|n|} on -N..N and 0 outside; two more
    # are the identity's x/q - T*x and q x - T*x.  Real support x column tables
    # (a real scale times a complex number is two real products), one Python
    # pow per |n|, hypot and in-order sums keep SupportedVector's digits.
    half = [q**-n for n in range(n_trunc + 1)]
    scales = np.array(half[:0:-1] + half)
    s_prev = np.concatenate([[0.0], scales, [1.0 / q, q]])
    s_cur = np.concatenate([scales, [0.0, 1.0, 1.0]])
    re = np.multiply.outer(x_arr.real, s_prev)
    re -= np.multiply.outer(tx_arr.real, s_cur)
    if x_arr.imag.any() or tx_arr.imag.any():  # hypot(a, 0) is |a|: real rows skip it
        im = np.multiply.outer(x_arr.imag, s_prev)
        im -= np.multiply.outer(tx_arr.imag, s_cur)
        np.hypot(re, im, out=re)
    re *= re
    for row in re[1:]:  # summed down the support, in listing order
        re[0] += row
    norms = np.sqrt(re[0])
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

    A pseudo-orbit of T maps to a pseudo-orbit of lam^{-1} T with identical
    per-step defect norms (each defect is multiplied by a unimodular factor),
    so the result composes with `rotate` on the operator side.  Kept for
    acceptance criterion 8 (rotation invariance).
    """
    lam = complex(lam)
    if abs(abs(lam) - 1.0) >= UNIMODULAR_TOL:
        raise NotUnimodularError(f"|lambda| = {abs(lam)!r} is not within {UNIMODULAR_TOL} of 1")
    states = tuple(lam ** (-n) * orbit.state(n) for n in range(orbit.n_lo, orbit.n_hi + 1))
    defects = tuple(lam ** (-(n + 1)) * orbit.defect(n) for n in range(orbit.n_lo, orbit.n_hi))
    return PseudoOrbit(
        n_lo=orbit.n_lo, n_hi=orbit.n_hi, states=states, delta=orbit.delta, defects=defects
    )
