"""The two hot numeric kernels, each one batched numpy path.

The exhaustive principal-minor sweep, used by the characteristic polynomial
and the minor-matching check, gathers the subsets of each cardinality into
stacks of submatrices and factorizes each stack with one ``np.linalg.det``
call.  The time-domain impulse-response recursion advances its ring buffers
in blocks of ``min(delays)`` samples: every line output read inside a block
was written by an earlier block, so a whole block is one gather, two stacked
matrix products and one scatter.
"""

import numpy as np

from .errors import FdnError

# The kernels are plain numpy; the flag stays for result files that record it.
HAVE_NUMBA = False

# Least samples per chunk of precomputed ring-buffer positions (rounded up to
# whole blocks): bounds the index scratch to O(chunk x N) whatever the
# response length.
_CHUNK_SAMPLES = 4096


def impulse_kernel(a, b, c, d, delays, length):
    """Run the time-domain recursion; returns (length, P, P) float64.

    Delay line i is a ring buffer of size delays[i] at
    buf[offsets[i]:offsets[i] + delays[i]].  At sample n the slot
    n % delays[i] holds the line output s_i(n), and the freshly computed
    s_i(n + delays[i]) goes back into the same slot.  Column q of the state
    tracks the response to a unit impulse on input channel q, so one pass
    yields all P x P responses.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    delays = np.ascontiguousarray(delays, dtype=np.int64)
    length = int(length)
    offsets = np.zeros(len(delays) + 1, dtype=np.int64)
    np.cumsum(delays, out=offsets[1:])
    buf = np.zeros((int(offsets[-1]), b.shape[1]))
    out = np.empty((length, c.shape[0], b.shape[1]))
    # A block of step <= min(delays) samples reads only slots written before
    # it (n - m_i < start) and writes step distinct slots per line.
    step = int(delays.min())
    chunk = step * -(-_CHUNK_SAMPLES // step)
    for base in range(0, length, chunk):
        n = np.arange(base, min(base + chunk, length))
        positions = offsets[:-1] + n[:, None] % delays
        for start in range(0, n.size, step):
            first = base + start
            pos = positions[start : start + step]
            state = buf[pos]
            np.matmul(c, state, out=out[first : first + len(pos)])
            nxt = a @ state
            if first == 0:
                out[0] += d
                nxt[0] += b
            buf[pos] = nxt
    return out


# Float64 entries per gathered stack of submatrices: bounds the sweep's
# scratch memory to a few MB at N = 20, where the largest cardinality group
# alone would need 150 MB.
_STACK_ENTRIES = 1 << 17
# Largest N of the 2^N sweep: 2^20 minors.
_MAX_SWEEP_N = 20


def subset_sums(values):
    """Sum of ``values`` over the set bits of every bitmask of
    range(len(values)), indexed by mask and of the dtype of ``values``:
    built by doubling, one entry at a time."""
    values = np.asarray(values)
    out = np.zeros(1 << values.size, dtype=values.dtype)
    for i in range(values.size):
        lo = 1 << i
        np.add(out[:lo], values[i], out=out[lo : 2 * lo])
    return out


def principal_minors_all(m):
    """Determinants of all 2^N principal submatrices, indexed by bitmask.

    ``out[mask]`` is the minor on the rows and columns of the set bits of
    ``mask``, and ``out[0] = 1``.  Each minor comes from its own LU
    factorization, as ``np.linalg.det`` of that submatrix alone would give.
    N > 20 raises :class:`FdnError` before the sweep.
    """
    m = np.ascontiguousarray(m, dtype=np.float64)
    n = m.shape[0]
    if n > _MAX_SWEEP_N:
        raise FdnError(f"principal-minor sweep limited to N <= {_MAX_SWEEP_N}, got {n}")
    sizes = subset_sums(np.ones(n, dtype=np.int8))
    out = np.empty(sizes.size)
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
            # subnormal pivots make det warn "divide by zero"; the minor is right
            with np.errstate(divide="ignore", under="ignore"):
                out[chunk] = np.linalg.det(m[idx[:, :, None], idx[:, None, :]])
    return out
