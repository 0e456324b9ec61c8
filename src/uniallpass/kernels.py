"""The two hot numeric kernels.

The exhaustive principal-minor sweep, used by the characteristic polynomial
and the minor-matching check, is one batched numpy path: the subsets of each
cardinality are gathered into stacks of submatrices, and each stack is
factorized by one ``np.linalg.det`` call.  The time-domain impulse-response
recursion is a plain Python/numpy loop, compiled with ``numba.njit`` when
numba is installed; set ``UNIALLPASS_NUMBA=0`` to force the interpreted
loop.
"""

import os

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAVE_NUMBA = False


def numba_enabled() -> bool:
    """True when the jitted impulse recursion should be dispatched."""
    flag = os.environ.get("UNIALLPASS_NUMBA", "1").strip().lower()
    return HAVE_NUMBA and flag not in ("0", "false", "off", "no")


def _impulse_loop(a, b, c, d, delays, offsets, length):
    # Delay line i is a ring buffer of size delays[i] living at
    # buf[offsets[i]:offsets[i] + delays[i]].  At step n the slot n % delays[i]
    # holds the line output s_i(n); the freshly computed s_i(n + delays[i])
    # goes back into the same slot.  Column q of the state tracks the response
    # to a unit impulse on input channel q, so one pass yields all P x P
    # responses.
    n_lines = a.shape[0]
    n_io = b.shape[1]
    total = offsets[n_lines]
    buf = np.zeros((total, n_io))
    out = np.zeros((length, n_io, n_io))
    state = np.zeros((n_lines, n_io))
    for n in range(length):
        for i in range(n_lines):
            pos = offsets[i] + n % delays[i]
            for q in range(n_io):
                state[i, q] = buf[pos, q]
        y = np.dot(c, state)
        if n == 0:
            y = y + d
        out[n] = y
        nxt = np.dot(a, state)
        if n == 0:
            nxt = nxt + b
        for i in range(n_lines):
            pos = offsets[i] + n % delays[i]
            for q in range(n_io):
                buf[pos, q] = nxt[i, q]
    return out


if HAVE_NUMBA:
    _impulse_jit = njit(cache=True)(_impulse_loop)
else:  # pragma: no cover
    _impulse_jit = _impulse_loop


def impulse_kernel(a, b, c, d, delays, length):
    """Run the time-domain recursion; returns (length, P, P) float64."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    delays = np.ascontiguousarray(delays, dtype=np.int64)
    offsets = np.zeros(len(delays) + 1, dtype=np.int64)
    np.cumsum(delays, out=offsets[1:])
    fn = _impulse_jit if numba_enabled() else _impulse_loop
    return fn(a, b, c, d, delays, offsets, int(length))


# Float64 entries per gathered stack of submatrices: bounds the sweep's
# scratch memory to a few MB at N = 20, where the largest cardinality group
# alone would need 150 MB.
_STACK_ENTRIES = 1 << 17


def principal_minors_all(m):
    """Determinants of all 2^N principal submatrices, indexed by bitmask.

    ``out[mask]`` is the minor on the rows and columns of the set bits of
    ``mask``, and ``out[0] = 1``.  Each minor comes from its own LU
    factorization, as ``np.linalg.det`` of that submatrix alone would give.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    n = m.shape[0]
    if n > 20:
        raise ValueError(f"principal-minor sweep limited to N <= 20, got {n}")
    count = 1 << n
    masks = np.arange(count)
    sizes = np.zeros(count, dtype=np.int8)
    for i in range(n):
        sizes += ((masks >> i) & 1).astype(np.int8)
    out = np.empty(count)
    out[0] = 1.0
    for k in range(1, n + 1):
        group = np.flatnonzero(sizes == k)
        step = max(1, _STACK_ENTRIES // (k * k))
        for start in range(0, group.size, step):
            chunk = group[start : start + step]
            # column j holds the j-th lowest set bit of each mask, so the rows
            # and columns of every submatrix stay in ascending order
            idx = np.empty((chunk.size, k), dtype=np.intp)
            rest = chunk.copy()
            for j in range(k):
                low = rest & -rest
                idx[:, j] = np.frexp(low)[1] - 1
                rest ^= low
            out[chunk] = np.linalg.det(m[idx[:, :, None], idx[:, None, :]])
    return out
