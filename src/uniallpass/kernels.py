"""The two hot numeric kernels, each one batched numpy path.

The exhaustive principal-minor sweep, used by the characteristic polynomial
and the minor-matching check, gathers the subsets of each cardinality into
stacks of submatrices and factorizes each stack with one ``np.linalg.det``
call.  The time-domain impulse-response recursion advances its ring buffers
in blocks of max(min(delays), 64) samples, fewer where the lifted map below
would outgrow its entry budget.  A line at least as long as the block reads
every in-block output from a slot an earlier block wrote; the in-block
outputs of the shorter lines are one matrix product with a lifted map of
the block, built once per call.  So a whole block is one gather, three
matrix products and one scatter, and a 1-sample line no longer costs one
block per sample.
"""

import numpy as np

from .errors import FdnError

# The kernels are plain numpy; the flag stays for result files that record it.
HAVE_NUMBA = False

# Least samples per chunk of precomputed ring-buffer positions (rounded up to
# whole blocks): bounds the index scratch to O(chunk x N) whatever the
# response length.
_CHUNK_SAMPLES = 4096
# Least samples per block while a line is shorter.  Of 16-256 on a 2-core
# VM, 64 was fastest on 4800-sample renders of N = 3-6 networks with delays
# 1-30 (1.9 ms; 2.2 at 32, 2.0 at 96), where longer blocks spend more on the
# lifted map than they save, and renders the reference design's 48k samples
# in 16 ms (12.5 at 256, 198 at one block per sample).
_LIFT_SAMPLES = 64
# Float64 entries of the lifted map: 1 MB (its scratch holds at most twice
# that), so N = 64 lines of 1-3 samples shrink the block to about 16 samples
# instead of building a 4 MB map.
_LIFT_ENTRIES = 1 << 17


def block_size(delays):
    """Samples per block of :func:`impulse_kernel`: max(min(delays),
    _LIFT_SAMPLES), shrunk toward min(delays) while the lifted map of
    :func:`lifted_map` would hold more than _LIFT_ENTRIES entries.  At
    step = min(delays) no line is shorter and the map is empty."""
    delays = np.asarray(delays, dtype=np.int64)
    low = int(delays.min())
    for step in range(max(low, _LIFT_SAMPLES), low, -1):
        short = delays < step
        reach = step - low
        known = int(delays[short].sum()) + int(np.count_nonzero(~short)) * reach
        if step * int(np.count_nonzero(short)) * known <= _LIFT_ENTRIES:
            return step
    return low


def lifted_map(a, delays, step):
    """The line outputs of one block of ``step`` samples as a linear map.

    Index the block's line outputs s_i(n0 + t), t < step, by the flat
    position t * N + i.  Returns (known, short, f):

    - ``known`` lists the outputs the ring buffers hold at the block start
      that the shorter lines read: the whole ring buffer (first m_i
      outputs) of each shorter line, and the outputs of each line with
      m_i >= step at t < step - min(m_short), the samples whose inputs
      reach a shorter line's output inside the block;
    - ``short`` lists every output of the lines with m_i < step;
    - ``f`` is the (len(short), len(known)) matrix with
      s[short] = f @ s[known], built by running the recursion
      s_i(n0 + t + m_i) = (A s(n0 + t))_i for ``step`` samples on unit
      states, in the dtype of ``a``.

    ``known`` and ``short`` both run t-major.
    """
    delays = np.asarray(delays, dtype=np.int64)
    n = delays.size
    t = np.arange(step)[:, None]
    grid = np.arange(step * n).reshape(step, n)
    sh = np.flatnonzero(delays < step)
    lg = np.flatnonzero(delays >= step)
    m = delays[sh]
    # an input computed at t reaches a short line's output only if t + m < step
    reach = step - m.min(initial=step)
    held = t < np.where(delays < step, delays, reach)
    k = int(np.count_nonzero(held))
    col = np.full((step, n), -1)
    col[held] = np.arange(k)
    # z[t, j] is the row of f giving s_{sh[j]}(n0 + t); rows past the block
    # take the inputs that land there unread
    z = np.zeros((step + m.max(initial=0), sh.size, k), dtype=a.dtype)
    tt, jj = np.nonzero(held[:, sh])
    z[tt, jj, col[tt, sh[jj]]] = 1
    a_ss = a[np.ix_(sh, sh)]
    a_sl = a[np.ix_(sh, lg)]
    lines = np.arange(sh.size)
    for s in range(reach):
        x = a_ss @ z[s]
        x[:, col[s, lg]] += a_sl
        z[s + m, lines] = x
    return grid[held], grid[:, sh].ravel(), z[:step].reshape(step * sh.size, k)


def impulse_kernel(a, b, c, d, delays, length):
    """Run the time-domain recursion; returns (length, P, P) float64.

    Delay line i is a ring buffer of size delays[i] at
    buf[offsets[i]:offsets[i] + delays[i]].  At sample n the slot
    n % delays[i] holds the line output s_i(n), and the freshly computed
    s_i(n + delays[i]) goes back into the same slot.  Column q of the state
    tracks the response to a unit impulse on input channel q, so one pass
    yields all P x P responses.

    Sample 0 is the impulse itself: y(0) = D and the line inputs are B.
    From sample 1 the recursion advances in blocks of
    ``step = block_size(delays)`` samples.  A line with m_i >= step reads
    every in-block output from a slot an earlier block wrote; the outputs of
    the shorter lines come from the lifted map, s[short] = f @ s[known].
    With no shorter line f is empty and a block is one gather, two stacked
    matrix products and one scatter.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    delays = np.ascontiguousarray(delays, dtype=np.int64)
    length = int(length)
    p = b.shape[1]
    offsets = np.zeros(len(delays) + 1, dtype=np.int64)
    np.cumsum(delays, out=offsets[1:])
    # the last row is spare: a short line's inputs before its last m_i in a
    # block go there, so every ring-buffer slot is written once per block, as
    # numpy gives no order to repeated fancy-index writes
    spare = int(offsets[-1])
    buf = np.zeros((spare + 1, p))
    step = block_size(delays)
    known, short, f = lifted_map(a, delays, step)
    keep = (np.arange(step)[:, None] >= step - delays).ravel()
    # whole blocks past sample 0; the last one may run past ``length``
    total = 1 + step * -(-(length - 1) // step)
    out = np.empty((total, c.shape[0], p))
    out[0] = d
    buf[offsets[:-1]] = b
    chunk = step * -(-_CHUNK_SAMPLES // step)
    for base in range(1, total, chunk):
        n = np.arange(base, min(base + chunk, total))
        positions = offsets[:-1] + n[:, None] % delays
        targets = np.where(keep, positions.reshape(-1, step * len(delays)), spare)
        for k, start in enumerate(range(0, n.size, step)):
            first = base + start
            state = buf[positions[start : start + step]]
            flat = state.reshape(-1, p)
            flat[short] = f @ flat[known]
            np.matmul(c, state, out=out[first : first + step])
            buf[targets[k]] = (a @ state).reshape(-1, p)
    return out[:length]


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
