from itertools import combinations

import numpy as np
import pytest

from conftest import random_stable_fdn
from oracles import impulse_loop, principal_minor, principal_minors_loop
from uniallpass import (
    DelayVector,
    FdnError,
    gardner_nested,
    poletti_unitary,
    principal_minor_list,
    schroeder_series,
)
from uniallpass.kernels import impulse_kernel, principal_minors_all


def _recursion_cases(rng):
    """(name, system, length) triples covering every block shape: unit and
    short blocks, mixed delays, single samples, responses shorter than one
    block, lengths that end inside a block, and a 48k-sample render with
    audio-length delays."""
    cases = []
    for k in range(24):
        n = int(rng.integers(1, 17))
        p = 1 + k % 4
        high = int(rng.choice([3, 12, 60]))
        delays = DelayVector(rng.integers(1, high + 1, size=n))
        fdn = random_stable_fdn(rng, n=n, p=p, contraction=0.9, delays=delays)
        cases.append((f"random-{k}", fdn, int(rng.integers(1, 700))))
    for m in (1, 2, 3):
        fdn = random_stable_fdn(rng, n=4, p=2, delays=DelayVector([m, m + 4, m + 1, 9]))
        cases += [(f"min{m}-len1", fdn, 1), (f"min{m}-len{6 * m + 1}", fdn, 6 * m + 1)]
    mixed = random_stable_fdn(rng, n=5, p=3, delays=DelayVector([7, 30, 11, 8, 19]))
    cases += [("short", mixed, 5), ("one-block", mixed, 7), ("ragged", mixed, 7 * 40 + 3)]
    gains = rng.uniform(-0.9, 0.9, 6)
    delays = [13, 22, 1, 10, 5, 3]
    unitary, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    cases += [
        ("schroeder", schroeder_series(gains, delays)[0], 500),
        ("gardner", gardner_nested(gains, delays)[0], 500),
        ("poletti", poletti_unitary(unitary, -0.7, [17, 5, 9, 12])[0], 500),
    ]
    audio = schroeder_series(rng.uniform(0.5, 0.7, 8), rng.integers(1000, 1801, size=8))[0]
    cases.append(("audio", audio, 48000))
    return cases


def _render(fn, fdn, length):
    return fn(fdn.a, fdn.b, fdn.c, fdn.d, fdn.delays.as_array(), length)


def test_block_recursion_bitwise_equals_per_sample_oracle(rng):
    for name, fdn, length in _recursion_cases(rng):
        fast = _render(impulse_kernel, fdn, length)
        assert fast.shape == (length, fdn.n_io, fdn.n_io), name
        assert np.array_equal(fast, _render(impulse_loop, fdn, length)), name


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
    with pytest.raises(FdnError, match=r"N <= 20, got 21"):
        principal_minors_all(np.eye(21))
