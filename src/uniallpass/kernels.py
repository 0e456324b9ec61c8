"""The two hot numeric kernels, each one batched numpy path.

The exhaustive principal-minor sweep, used by the characteristic polynomial
and the minor-matching check, gathers the subsets of each cardinality into
stacks of submatrices and factorizes each stack with one ``np.linalg.det``
call.  The time-domain impulse-response recursion keeps the line outputs in
one sliding window, a row per sample, and advances it in blocks of
max(min(delays), 64) samples.  Lines shorter than a block take their
in-block outputs from a lifted map of the block, built once per call, so a
block is one slice, three matrix products and one scatter.
"""

import numpy as np

from .errors import FdnError

# The kernels are plain numpy; the flag stays for result files that record it.
HAVE_NUMBA = False

# Least samples between moves of the impulse window (rounded up to whole
# blocks, and at least the longest line): each move copies max(delays) rows.
_WINDOW_SAMPLES = 4096
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

    - ``known`` lists the outputs computed before the block start that the
      shorter lines read: the first m_i outputs of each shorter line, and
      the outputs of each line with m_i >= step at t < step - min(m_short),
      the samples whose inputs reach a shorter line's output inside the
      block;
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

    The line outputs live in one window of shape (span + max m, N, P): row
    r holds s(n0 + r), the outputs of every line at one sample, with n0 = 1
    until the first move.  Column q tracks the response to a unit impulse
    on input channel q, so one pass yields all P x P responses.  The span
    is a whole number of blocks, at least max(_WINDOW_SAMPLES, max m): the
    window holds fewer than (max(4096, max m) + step + max m) * N * P
    float64 values, 0.4 MB per channel for 8 lines of 1000-1800 samples but
    21 MB for 65 lines of which one has 20000 samples.

    Sample 0 is the impulse: y(0) = D and s_i(m_i) = b_i.  From sample 1
    the recursion advances in blocks of ``step = block_size(delays)``
    samples, each one slice of the window.  A line with m_i >= step reads
    every in-block output from a row an earlier block wrote; the shorter
    lines' outputs come from the lifted map, s[short] = f @ s[known].  Then
    y = C s, and A s scatters to the rows t + m_i ahead, distinct for every
    (t, i).  When the blocks reach the span, the last max m rows move to
    the front.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    delays = np.ascontiguousarray(delays, dtype=np.int64)
    length = int(length)
    n, p = b.shape
    top = int(delays.max())
    step = block_size(delays)
    known, short, f = lifted_map(a, delays, step)
    span = step * -(-max(_WINDOW_SAMPLES, top) // step)
    window = np.zeros((span + top, n, p))
    window[delays - 1, np.arange(n)] = b
    # flat row of s_i(n0 + t + m_i) in the window from the block start
    ahead = ((np.arange(step)[:, None] + delays) * n + np.arange(n)).ravel()
    # whole blocks past sample 0; the last one may run past ``length``
    total = 1 + step * -(-(length - 1) // step)
    out = np.empty((total, c.shape[0], p))
    out[0] = d
    r = 0
    for first in range(1, total, step):
        if r == span:
            window[:top] = window[span:]
            r = 0
        state = window[r : r + step]
        flat = state.reshape(-1, p)
        flat[short] = f @ flat[known]
        np.matmul(c, state, out=out[first : first + step])
        window[r:].reshape(-1, p)[ahead] = (a @ state).reshape(-1, p)
        r += step
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
