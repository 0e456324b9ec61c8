import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conftest import impulse_error_bound, random_stable_fdn
from oracles import impulse_loop, principal_minors_exact, principal_minors_loop
from uniallpass import (
    DelayVector,
    FdnError,
    gardner_nested,
    kernels,
    poletti_unitary,
    principal_minor_list,
    schroeder_series,
)
from uniallpass.kernels import block_size, impulse_kernel, lifted_map, principal_minors_all, subset_sums


def _recursion_cases(rng):
    """(name, system, length) triples covering every block shape: blocks of
    min(delays) and lifted blocks with 1-sample lines, mixed delays, single
    samples, responses shorter than one block, lengths that end inside a
    block, N = 64 lines of 1-3 samples, 48k-sample renders with
    audio-length delays, one of them beside a 1-sample line, and renders
    across the moves of the kernel's window."""
    cases = []
    for k in range(32):
        n = int(rng.integers(1, 17))
        p = 1 + k % 4
        low, high = [(1, 3), (1, 12), (1, 60), (64, 200)][k % 4]
        delays = DelayVector(rng.integers(low, high + 1, size=n))
        fdn = random_stable_fdn(rng, n=n, p=p, contraction=0.9, delays=delays)
        cases.append((f"random-{k}", fdn, int(rng.integers(1, 700))))
    for m in (1, 2, 3, 64, 100):
        delays = DelayVector([m, m + 4, m + 1, max(9, m + 8)])
        fdn = random_stable_fdn(rng, n=4, p=2, delays=delays)
        step = block_size(delays.as_array())
        cases += [
            (f"min{m}-len1", fdn, 1),
            (f"min{m}-part-block", fdn, step // 2 + 1),
            (f"min{m}-ragged", fdn, 1 + 3 * step + step // 2),
        ]
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
    wide = DelayVector(rng.integers(1, 4, size=64))
    cases.append(("n64", random_stable_fdn(rng, n=64, p=2, contraction=0.9, delays=wide), 600))
    audio = schroeder_series(rng.uniform(0.5, 0.7, 8), rng.integers(1000, 1801, size=8))[0]
    cases.append(("audio", audio, 48000))
    lattice = poletti_unitary(unitary, -0.6, [1, 1201, 1433, 1087])[0]
    cases.append(("audio-one-sample-line", lattice, 48000))
    # the window's moves: a line longer than the least span, a block longer
    # than it, lengths that end at a move and one sample past it, and P = 3
    # with one 20000-sample line beside 1-sample lines
    for delays, p, length in (([3, 9000], 2, 20000), ([5000, 7000], 1, 25000), ([1, 20000, 1, 2], 3, 42000)):
        fdn = random_stable_fdn(rng, n=len(delays), p=p, delays=DelayVector(delays))
        cases.append((f"window-{delays}", fdn, length))
    delays = DelayVector([100, 130, 170])
    step = block_size(delays.as_array())
    span = step * -(-kernels._WINDOW_SAMPLES // step)
    moving = random_stable_fdn(rng, n=3, p=2, delays=delays)
    cases += [("window-end-at-move", moving, 1 + span), ("window-past-move", moving, 2 + span)]
    return cases


def _render(fn, fdn, length):
    return fn(fdn.a, fdn.b, fdn.c, fdn.d, fdn.delays.as_array(), length)


def test_block_recursion_matches_per_sample_oracle(rng):
    """Where every line is at least the lift floor, a block is a gather, two
    stacked matrix products and a scatter per sample row, the oracle's
    arithmetic exactly: bitwise equal.  A shorter line's outputs come from
    the lifted map in another summation order: within
    :func:`conftest.impulse_error_bound`, which needs an extended-precision
    long double."""
    assert np.finfo(np.longdouble).eps < np.finfo(np.float64).eps
    for name, fdn, length in _recursion_cases(rng):
        fast = _render(impulse_kernel, fdn, length)
        assert fast.shape == (length, fdn.n_io, fdn.n_io), name
        loop = _render(impulse_loop, fdn, length)
        if min(fdn.delays.as_array()) >= kernels._LIFT_SAMPLES:
            assert np.array_equal(fast, loop), name
        else:
            assert np.max(np.abs(fast - loop)) <= impulse_error_bound(fdn, length), name


@pytest.mark.parametrize("n", [1, 6, 16, 64, 128, 512])
def test_lifted_map_stays_within_entry_budget(rng, n):
    for delays in (
        np.ones(n, dtype=np.int64),
        rng.integers(1, 4, size=n),
        np.concatenate([[1], rng.integers(1000, 1801, size=n - 1)]),
        rng.integers(64, 200, size=n),
    ):
        step = block_size(delays)
        known, short, f = lifted_map(np.zeros((n, n)), delays, step)
        assert delays.min() <= step <= max(delays.min(), kernels._LIFT_SAMPLES)
        assert f.shape == (short.size, known.size)
        assert f.size <= kernels._LIFT_ENTRIES
        assert short.size == step * np.count_nonzero(delays < step)
    # a lone 1-sample line keeps the full block
    assert block_size(np.array([1, 1201, 1433, 1087])) == kernels._LIFT_SAMPLES


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


def _minor_bounds(m):
    """The rounding bound of :func:`core._gcp_terms` without the path growth,
    per bitmask: k^2 eps times the product of the subset's row norms in
    ``m``, k the subset size."""
    n = m.shape[0]
    sizes = subset_sums(np.ones(n, dtype=np.int64))
    rows = subset_sums(np.log(np.maximum(np.linalg.norm(m, axis=1), np.finfo(float).tiny)))
    return sizes**2 * np.finfo(float).eps * np.exp(rows)


def _assert_within_bound(m, masks, name, sweep=None):
    """The sweep (``sweep``, or a fresh one) and the per-subset LU oracle
    both lie within the bound of the exact minors on every one of
    ``masks``."""
    exact = principal_minors_exact(m, masks)
    bound = _minor_bounds(m)[masks]
    sweep = principal_minors_all(m) if sweep is None else sweep
    lu = principal_minors_loop(m, masks)
    for label, minors in (("sweep", sweep[masks].tolist()), ("LU", lu.tolist())):
        error = np.array([float(abs(Fraction(x) - e)) for x, e in zip(minors, exact)])
        worst = int(np.argmax(error - bound))
        assert error[worst] <= bound[worst], (name, label, int(masks[worst]), error[worst], bound[worst])


@pytest.mark.parametrize("n", range(1, 13))
def test_minor_sweep_within_rounding_bound_of_exact_minors(rng, n):
    masks = np.arange(1 << n)
    for name, m in _gate_matrices(rng, n).items():
        _assert_within_bound(m, masks, name)


@pytest.mark.parametrize("n", [16, 20])
def test_minor_sweep_at_large_n_within_rounding_bound(rng, n):
    masks = rng.choice(1 << n, size=300, replace=False)
    for name in ("random", "poletti"):
        _assert_within_bound(_gate_matrices(rng, n)[name], masks, name)


def test_principal_minors_indexing(rng):
    for n in (0, 1, 4, 9):
        m = rng.standard_normal((n, n))
        by_mask = principal_minors_all(m)
        subsets, values = principal_minor_list(m)
        assert subsets == [s for k in range(n + 1) for s in combinations(range(n), k)]
        assert np.array_equal(values, [by_mask[sum(1 << i for i in s)] for s in subsets])


def _degenerate_matrices(rng, n):
    zero_diag = rng.standard_normal((n, n))
    np.fill_diagonal(zero_diag, 0.0)
    # pivots far above rounding but far below their rows: dividing by them
    # would grow the Schur complements by 1e9
    small_diag = rng.standard_normal((n, n))
    np.fill_diagonal(small_diag, 1e-9 * rng.standard_normal(n))
    zero_line = rng.standard_normal((n, n))
    zero_line[2] = 0.0
    zero_line[:, 2] = 0.0
    singular_corner = rng.standard_normal((n, n))
    singular_corner[:2, :2] = [[1.0, 2.0], [2.0, 4.0]]
    repeated = rng.standard_normal((n, n))
    repeated[-1] = repeated[0]
    subnormal = np.zeros((n, n))
    subnormal[0] = 1.0
    subnormal[-1, 0] = 2.22507386e-311
    return {
        "zero-diagonal": zero_diag,
        "small-diagonal": small_diag,
        "zero-row-and-column": zero_line,
        "singular-leading-2x2": singular_corner,
        "repeated-row": repeated,
        "subnormal-under-zero-rows": subnormal,
        "zero": np.zeros((n, n)),
    }


@pytest.mark.parametrize("n", [3, 6, 9])
def test_minor_sweep_degenerate_inputs(rng, n):
    masks = np.arange(1 << n)
    for name, m in _degenerate_matrices(rng, n).items():
        with np.errstate(all="raise"):
            sweep = principal_minors_all(m)
        _assert_within_bound(m, masks, name, sweep)
        if name == "zero-row-and-column":
            # every minor through the zero row is exactly zero
            assert np.all(sweep[(masks >> 2) & 1 == 1] == 0.0)


def test_minor_sweep_with_growth_within_its_bound(rng):
    # the bound of core._gcp_terms, k^2 eps g prod ||a_i||, with the growth g
    # the sweep reports: Aberth's zero-root deflation relies on it
    cases = [m for n in range(1, 13) for m in _gate_matrices(rng, n).values()]
    cases += [m for n in (3, 6, 9) for m in _degenerate_matrices(rng, n).values()]
    for m in cases:
        masks = np.arange(1 << m.shape[0])
        minors, growth = principal_minors_all(m, growth=True)
        assert np.array_equal(minors, principal_minors_all(m))
        assert np.all(growth >= 1.0)
        exact = principal_minors_exact(m, masks)
        error = np.array([float(abs(Fraction(x) - e)) for x, e in zip(minors.tolist(), exact)])
        bound = _minor_bounds(m) * growth
        worst = int(np.argmax(error - bound))
        assert error[worst] <= bound[worst], (m.shape[0], worst, error[worst], bound[worst])


def test_minor_sweep_leaves_take_orders_up_to_four(rng, monkeypatch):
    # (nodes, order) of every level of elimination
    calls = []
    eliminate = kernels._eliminate

    def counted(*args):
        calls.append(args[3].shape)
        return eliminate(*args)

    monkeypatch.setattr(kernels, "_eliminate", counted)
    for n in range(1, 5):
        principal_minors_all(rng.standard_normal((2, n, n)), growth=True)
    # the whole matrix is one leaf
    assert calls == []
    principal_minors_all(rng.standard_normal((6, 6)))
    # two levels of elimination, 6 x 6 and 5 x 5, down to four 4 x 4 leaves
    assert calls == [(1, 6), (2, 5)]


def test_minor_sweep_scratch_within_its_chunk_budget(rng):
    # the sweep's own arrays above its outputs: subtrees run in chunks whose
    # widest level holds _STACK_ENTRIES entries, and the leaves form their
    # minors a row per mask across the chunk
    m = rng.standard_normal((18, 18))
    for growth in (False, True):
        tracemalloc.start()
        try:
            principal_minors_all(m, growth=growth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = (2 if growth else 1) * (8 << 18)
        assert peak - outputs <= 4 * 8 * kernels._STACK_ENTRIES, (growth, peak - outputs)


def test_minor_sweep_rejects_non_square_input():
    for shape in ((3, 4), (12,), (2, 3, 4)):
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            principal_minors_all(np.ones(shape))


def test_minor_sweep_of_a_stack_equals_single_calls(rng):
    for n in (1, 2, 3, 4, 5, 6, 13):
        stack = rng.standard_normal((2, n, n))
        stack[1, :, 0] = 0.0
        both = principal_minors_all(stack)
        assert both.shape == (2, 1 << n)
        for k in range(2):
            assert np.array_equal(both[k], principal_minors_all(stack[k]))
    assert principal_minors_all(np.ones((3, 4, 0, 0))).shape == (3, 4, 1)


def test_minor_sweep_size_guard():
    with pytest.raises(FdnError, match=r"N <= 20, got 21"):
        principal_minors_all(np.eye(21))
