from itertools import combinations

import numpy as np
import pytest

from conftest import random_stable_fdn
from oracles import principal_minors_loop
from uniallpass import (
    gardner_nested,
    impulse_response,
    poletti_unitary,
    principal_minor,
    principal_minor_list,
    schroeder_series,
)
from uniallpass.kernels import (
    HAVE_NUMBA,
    _impulse_loop,
    _impulse_jit,
    numba_enabled,
    principal_minors_all,
)


def _impulse_args(fdn, length):
    delays = fdn.delays.as_array()
    offsets = np.zeros(len(delays) + 1, dtype=np.int64)
    np.cumsum(delays, out=offsets[1:])
    return (fdn.a, fdn.b, fdn.c, fdn.d, delays, offsets, length)


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_jit_and_python_impulse_agree(rng):
    for _ in range(5):
        fdn = random_stable_fdn(rng, n=int(rng.integers(1, 5)), p=int(rng.integers(1, 3)))
        args = _impulse_args(fdn, 40)
        np.testing.assert_allclose(_impulse_jit(*args), _impulse_loop(*args), atol=1e-14)


def test_env_flag_selects_fallback(rng, monkeypatch):
    fdn = random_stable_fdn(rng, n=3)
    monkeypatch.setenv("UNIALLPASS_NUMBA", "0")
    assert not numba_enabled()
    h_fallback = impulse_response(fdn, 32)
    monkeypatch.delenv("UNIALLPASS_NUMBA")
    h_default = impulse_response(fdn, 32)
    np.testing.assert_allclose(h_fallback, h_default, atol=1e-14)


def _gate_matrices(rng, n):
    """Feedback matrices of every structure the package builds, plus the
    degenerate ones: zero pivots and a singular matrix."""
    delays = [1] * n
    gains = rng.uniform(-0.9, 0.9, n)
    unitary, _ = np.linalg.qr(rng.standard_normal((n, n)))
    zero_diag = rng.standard_normal((n, n))
    np.fill_diagonal(zero_diag, 0.0)
    repeated = rng.standard_normal((n, n))
    repeated[-1] = repeated[0]
    return {
        "random": rng.standard_normal((n, n)),
        "schroeder": schroeder_series(gains, delays)[0].a,
        "gardner": gardner_nested(gains, delays)[0].a,
        "poletti": poletti_unitary(unitary, -0.7, delays)[0].a,
        "zero-diagonal": zero_diag,
        "repeated-row": repeated,
    }


@pytest.mark.parametrize("n", range(1, 13))
def test_minor_sweep_bitwise_equals_per_subset_oracle(rng, n):
    for name, m in _gate_matrices(rng, n).items():
        assert np.array_equal(principal_minors_all(m), principal_minors_loop(m)), name


def test_minor_sweep_at_n16_matches_single_minors(rng):
    m = rng.standard_normal((16, 16))
    all_minors = principal_minors_all(m)
    for mask in rng.choice(1 << 16, size=300, replace=False):
        subset = [i for i in range(16) if (mask >> i) & 1]
        assert all_minors[mask] == principal_minor(m, subset)


def test_principal_minors_indexing(rng):
    for n in (0, 1, 4, 9):
        m = rng.standard_normal((n, n))
        reference = principal_minors_loop(m)
        subsets, values = principal_minor_list(m)
        assert subsets == [s for k in range(n + 1) for s in combinations(range(n), k)]
        assert np.array_equal(values, [reference[sum(1 << i for i in s)] for s in subsets])


def test_minor_sweep_size_guard():
    with pytest.raises(ValueError):
        principal_minors_all(np.eye(21))
