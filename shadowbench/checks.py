"""Correctness checks on the program's outputs.

Every check is either computed apart from shadowspec (numpy only, from the
inputs the benchmark generated itself) or tests a property the method must
have.  Each returns a `Check`; the runner counts an operation as failed when
any of its checks is not ok, and carries on.
"""

from dataclasses import dataclass

import numpy as np

PROJECTOR_TOL = 1e-8
RECURRENCE_TOL = 1e-9
GAIN_TOL = 1e-8
# Relative slack on comparisons that hold exactly in exact arithmetic
# (least-squares optimality, nested-compression monotonicity).
ROUNDOFF = 1e-9
S_TREND_FACTOR = 2.0


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


def eig_projector(v: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvalues inside the unit circle, V diag(|lam|<1) V^-1."""
    return v @ np.diag((np.abs(lam) < 1.0).astype(np.complex128)) @ np.linalg.inv(v)


def propagate(a: np.ndarray, a_inv: np.ndarray, anchor, n_lo: int, n_hi: int) -> np.ndarray:
    """Genuine trajectory x_n = A^n anchor on n_lo..n_hi, one row per n,
    propagated outward from index 0 with A and A^-1."""
    anchor = np.asarray(anchor, dtype=np.complex128)
    traj = np.empty((n_hi - n_lo + 1, anchor.size), dtype=np.complex128)
    i0 = -n_lo
    traj[i0] = anchor
    for j in range(i0 + 1, len(traj)):
        traj[j] = a @ traj[j - 1]
    for j in range(i0 - 1, -1, -1):
        traj[j] = a_inv @ traj[j + 1]
    return traj


def projector(p: np.ndarray, v: np.ndarray, lam: np.ndarray) -> Check:
    err = float(np.max(np.abs(np.asarray(p) - eig_projector(v, lam))))
    return Check("projector_vs_eig", err <= PROJECTOR_TOL, f"max entry error {err:.3e}")


def defects(states: np.ndarray, a: np.ndarray, delta: float) -> Check:
    """Every recomputed defect ||y_{n+1} - A y_n|| is at most delta, up to the
    roundoff of the state scale."""
    states = np.asarray(states)
    norms = np.linalg.norm(states[1:] - states[:-1] @ a.T, axis=1)
    slack = 1e-12 * (1.0 + float(np.max(np.linalg.norm(states, axis=1))))
    worst = float(np.max(norms)) if len(norms) else 0.0
    return Check("defects_within_delta", worst <= delta + slack, f"max defect {worst:.3e}")


def shadow_distance(states, a, a_inv, n_lo: int, anchor, bound: float) -> Check:
    traj = propagate(a, a_inv, anchor, n_lo, n_lo + len(states) - 1)
    dist = float(np.max(np.linalg.norm(np.asarray(states) - traj, axis=1)))
    return Check("shadow_within_bound", dist <= bound, f"distance {dist:.3e} vs bound {bound:.3e}")


def recurrence(residual: float) -> Check:
    return Check("recurrence_residual", residual < RECURRENCE_TOL, f"residual {residual:.3e}")


def oracle_optimal(states, a, a_inv, n_lo: int, oracle_anchor, shadow_anchor) -> Check:
    """The least-squares anchor fits the orbit no worse than the constructed one."""
    states = np.asarray(states)
    n_hi = n_lo + len(states) - 1

    def sum_squares(anchor):
        return float(np.sum(np.abs(states - propagate(a, a_inv, anchor, n_lo, n_hi)) ** 2))

    ss_oracle, ss_shadow = sum_squares(oracle_anchor), sum_squares(shadow_anchor)
    return Check(
        "oracle_lsq_optimal",
        ss_oracle <= ss_shadow * (1.0 + ROUNDOFF),
        f"oracle {ss_oracle:.6e} vs constructed {ss_shadow:.6e}",
    )


def verdicts(got: dict, expected: dict) -> Check:
    got = {k: got.get(k) for k in expected}
    return Check("verdicts_match_spectrum", got == expected, f"got {got}, expected {expected}")


def annulus(inner: float, outer: float, exp_inner: float, exp_outer: float) -> Check:
    return Check(
        "annulus_radii_exact",
        inner == exp_inner and outer == exp_outer,
        f"({inner!r}, {outer!r}) vs ({exp_inner!r}, {exp_outer!r})",
    )


def l1_gain(gain: float, q: float) -> Check:
    """On x with T* x = x the script-B l1 gain is exactly 2(q-1)/(q+1)."""
    want = 2.0 * (q - 1.0) / (q + 1.0)
    return Check("l1_gain_identity", abs(gain - want) <= GAIN_TOL, f"gain {gain!r} vs {want!r}")


def probe_ladder(gains) -> Check:
    """Compressions to nested windows: gains are positive and non-increasing in N."""
    gains = [float(g) for g in gains]
    ok = all(g > 0 for g in gains) and all(
        b <= a * (1.0 + ROUNDOFF) for a, b in zip(gains, gains[1:])
    )
    return Check("probe_gains_monotone", ok, f"gains {gains}")


def oracle_trend(s_eps, t_eps) -> Check:
    """Across growing windows the shadowing shift S keeps its oracle epsilon
    within a factor 2, while for T it grows."""
    s_ok = max(s_eps) <= S_TREND_FACTOR * min(s_eps)
    t_ok = all(b > a for a, b in zip(t_eps, t_eps[1:]))
    return Check("oracle_trend", s_ok and t_ok, f"S {list(s_eps)}, T {list(t_eps)}")


def outcome(name: str, got, expected) -> Check:
    """An exit code or raised error that must equal the documented one."""
    return Check(name, got == expected, f"got {got!r}, expected {expected!r}")


def shift_window_matrix(direction: str, w_pos: float, w_neg: float, crossover: int, half: int):
    """Weighted shift on indices -half..half, built from the edge-weight rule
    (edge m -> m+1 carries w_pos when m >= crossover), independent of the
    program's materialization."""
    size = 2 * half + 1
    mat = np.zeros((size, size))
    for m in range(-half, half):
        w = w_pos if m >= crossover else w_neg
        if direction == "forward":
            mat[m + 1 + half, m + half] = w
        else:
            mat[m + half, m + 1 + half] = w
    return mat
