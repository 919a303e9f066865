import time

import numpy as np
import pytest

from _helpers import mild_similarity


def test_mild_similarity_gives_up_at_d64():
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="d=64"):
        mild_similarity(np.random.default_rng(0), 64)
    assert time.perf_counter() - start < 10.0


def test_mild_similarity_draws_are_unchanged_below_the_cap():
    # the cap only ends the loop: an accepted draw is the one the unbounded
    # rejection loop returned, and leaves the generator in the same state
    for dim in range(1, 9):
        capped, free = np.random.default_rng(dim), np.random.default_rng(dim)
        v = mild_similarity(capped, dim)
        while True:
            w = np.eye(dim, dtype=np.complex128) + 0.25 * (
                free.standard_normal((dim, dim)) + 1j * free.standard_normal((dim, dim))
            )
            if np.linalg.cond(w) <= 6.0:
                break
        assert np.array_equal(v, w)
        assert capped.uniform() == free.uniform()
