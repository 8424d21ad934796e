"""The numeric kernels run on numpy, the only backend."""

import numpy as np
import pytest

from ccn import kernels
from oracles import adam_reference

B = kernels.ADAM_BLOCK


def test_active_backend_reports_selection():
    assert kernels.active_backend() == "numpy"


def _adam_operands(shape, dtype, seed):
    rng = np.random.default_rng(seed)
    p, g, m = (rng.normal(size=shape).astype(dtype) for _ in range(3))
    v = np.abs(rng.normal(size=shape)).astype(dtype)
    return p, g, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("size", [1, B - 1, B, B + 1, 3 * B + 5])
def test_blocked_adam_matches_the_one_shot_reference(size, dtype):
    want = _adam_operands((size,), dtype, size)
    got = tuple(a.copy() for a in want)
    adam_reference(*want, 1e-3, 0.9, 0.98, 1e-9, 3)
    kernels.adam_update(*got, 1e-3, 0.9, 0.98, 1e-9, 3)
    for name, a, b in zip("pgmv", got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rows", [5, B // 8 + 3])
def test_blocked_adam_on_column_views_matches_the_reference(rows, dtype):
    # a per-head parameter: 8 columns of a 32-column gate, more than one block when tall
    want = _adam_operands((rows, 32), dtype, rows)
    got = tuple(a.copy() for a in want)
    cols = slice(8, 16)
    adam_reference(*(a[:, cols] for a in want), 0.01, 0.9, 0.98, 1e-9, 1)
    kernels.adam_update(*(a[:, cols] for a in got), 0.01, 0.9, 0.98, 1e-9, 1)
    for name, a, b in zip("pgmv", got, want):
        assert np.array_equal(a, b), name
