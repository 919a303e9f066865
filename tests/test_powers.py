"""Every dense power sequence comes from `operators._powers`; each must equal,
bit for bit, the per-step loop it replaced."""

import numpy as np
import pytest

import shadowspec as ss
from _helpers import HYPERBOLIC_BANDS, draw_moduli, random_unitary, reprojected_kernels
from shadowspec import projector, shadowing
from shadowspec.operators import _powers

DIMS = (1, 4, 32)


def _case(dim):
    """U (diag(lam) + strictly upper Gaussian) U^H: hyperbolic and non-normal."""
    rng = np.random.default_rng(900 + dim)
    lam = draw_moduli(rng, dim, HYPERBOLIC_BANDS) * np.exp(2j * np.pi * rng.uniform(size=dim))
    t = np.diag(lam) + 0.5 / np.sqrt(dim) * np.triu(rng.standard_normal((dim, dim)), 1)
    u = random_unitary(rng, dim)
    return ss.DenseOperator(u @ t @ u.conj().T), rng


def _loop_powers(step, k_max, first, project=None):
    out = [np.asarray(first, dtype=np.complex128)]
    for _ in range(k_max):
        nxt = step @ out[-1]
        out.append(nxt if project is None else project @ nxt)
    return out


def _loop_power_blocks(op, n_lo, n_hi):
    """A^n for n = n_lo..n_hi, one matrix product per step outward from I."""
    eye = np.eye(op.dim, dtype=np.complex128)
    blocks = {0: eye}
    power = eye
    for n in range(1, n_hi + 1):
        power = op.entries @ power
        blocks[n] = power
    if n_lo < 0:
        ainv = ss.inverse(op).entries
        power = eye
        for n in range(-1, n_lo - 1, -1):
            power = ainv @ power
            blocks[n] = power
    return [blocks[n] for n in range(n_lo, n_hi + 1)]


def _loop_factors(a, b, k_max):
    """G_k = (C A U) G_{k-1} from G_0 = C = U^H B, and H_k = (D A^{-1} V) H_{k-1}
    from H_0 = D = V^H (I-B), one slot at a time; with the bases U and V."""
    comp = np.eye(a.dim, dtype=np.complex128) - b.entries
    stacks, bases = [], []
    for step, split in ((a.entries, b.entries), (ss.inverse(a).entries, comp)):
        u = projector._range_basis(split)
        c = u.conj().T @ split
        cau = c @ step @ u
        out = np.empty((k_max + 1, *c.shape), dtype=np.complex128)
        out[0] = c
        for k in range(1, k_max + 1):
            out[k] = cau @ out[k - 1]
        stacks.append(out)
        bases.append(u)
    return stacks, bases


def _loop_trajectory(a, anchor, idx0, w):
    """The genuine trajectory through anchor at column idx0, column by column."""
    ainv = ss.inverse(a).entries
    traj = np.empty((a.dim, w), dtype=np.complex128)
    traj[:, idx0] = anchor
    for j in range(idx0 + 1, w):
        traj[:, j] = a.entries @ traj[:, j - 1]
    for j in range(idx0 - 1, -1, -1):
        traj[:, j] = ainv @ traj[:, j + 1]
    return traj


@pytest.mark.parametrize("dim", DIMS)
def test_powers_match_the_step_loop(dim):
    a, rng = _case(dim)
    b = ss.riesz_projector(a).entries
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    for first, project in ((np.eye(dim), None), (vec, None), (b, b), (vec, b)):
        for k_max in (0, 1, 17):
            got = _powers(a.entries, k_max, first, project)
            assert got.shape == (k_max + 1, *np.shape(first))
            assert np.array_equal(got, np.array(_loop_powers(a.entries, k_max, first, project)))


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("window", [(-30, 30), (0, 5), (-4, 0)])
def test_oracle_blocks_match_the_step_loops(dim, window):
    a, _ = _case(dim)
    blocks = shadowing._window_powers(a, *window, np.eye(dim))
    reference = _loop_power_blocks(a, *window)
    assert np.array_equal(blocks, np.array(reference))
    assert np.array_equal(blocks.reshape(-1, dim), np.vstack(reference))


@pytest.mark.parametrize("dim", DIMS)
def test_kernel_factors_match_the_step_loops(dim):
    a, _ = _case(dim)
    for b in (ss.riesz_projector(a), ss.identity(dim)):
        fwd, bwd, _, _ = projector.splitting_power_stacks(a, b, shadowing.DECAY_ORDER)
        (ref_fwd, ref_bwd), _ = _loop_factors(a, b, shadowing.DECAY_ORDER)
        assert np.array_equal(fwd, ref_fwd) and np.array_equal(bwd, ref_bwd)


@pytest.mark.parametrize("dim", DIMS)
def test_kernel_factors_rebuild_the_reprojected_kernels(dim):
    # U G_k = (BA)^k B and V H_k = ((I-B)A^-1)^k (I-B), to rounding in each slice
    # (the 1e-322 floor only matters for subnormal slices)
    a, _ = _case(dim)
    for b in (ss.riesz_projector(a), ss.identity(dim)):
        factors, bases = _loop_factors(a, b, shadowing.DECAY_ORDER)
        for g, u, ref in zip(factors, bases, reprojected_kernels(a, b, shadowing.DECAY_ORDER)):
            scale = np.linalg.norm(ref, 2, axis=(1, 2))
            error = np.max(np.abs(u @ g - ref), axis=(1, 2), initial=0.0)
            assert np.all(error <= 1e-13 * scale + 1e-322)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("window", [(-30, 30), (0, 5), (-4, 0)])
def test_shadow_trajectory_matches_the_step_loops(dim, window):
    a, _ = _case(dim)
    orbit = ss.generate_pseudo_orbit(a, np.zeros(dim), 1e-3, window, rng_seed=dim)
    result = ss.construct_shadow(a, ss.riesz_projector(a), orbit)
    traj = _loop_trajectory(a, result.anchor, -window[0], window[1] - window[0] + 1)
    states = np.stack(orbit.states, axis=1)
    eps = float(np.max(np.linalg.norm(states - traj, axis=0)))
    assert result.epsilon_achieved == eps
