"""The two hot numeric kernels, each one batched numpy path.

The exhaustive principal-minor sweep, used by the characteristic polynomial
and the minor-matching check, is one breadth-first pass of Schur
complements over a binary tree of included and excluded indices, which
forms all 2^N minors of a stack of matrices in O(2^N) flops each.  Its
nodes of order 4 or less are leaves that write their minors in closed
form, with no pivot and no division, in place of the three widest levels
of elimination.  Each level keeps its nodes node-last, r x r Schur
complements as one (r, r, nodes) array, so that every operation of a
level, the leaves' included, runs along the nodes of the level and not
along the few entries of one node.  The
time-domain impulse-response recursion keeps the line outputs in
one sliding window, a row per sample, and advances it in blocks of
max(min(delays), 64) samples.  Lines shorter than a block take their
in-block outputs from a lifted map of the block, built once per call, so a
block is one slice, three matrix products and one scatter.
"""

import functools
import math

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


# Float64 entries per level of Schur complements: the sweep runs subtrees in
# chunks whose widest level fits, which bounds its scratch memory to a few
# MB at N = 20, where one level would hold 2^17 3 x 3 matrices at once.
_STACK_ENTRIES = 1 << 17
# Largest N of the 2^N sweep: 2^20 minors.
_MAX_SWEEP_N = 20
_TINY = np.finfo(np.float64).tiny
_BITS = np.int64(1) << np.arange(_MAX_SWEEP_N, dtype=np.int64)
_BITS.flags.writeable = False


def subset_sums(values):
    """Sum of ``values`` (..., k) over the set bits of every bitmask of
    range(k), indexed by mask along the last axis (..., 2^k) and of the
    dtype of ``values``: built by doubling, one entry at a time."""
    values = np.asarray(values)
    out = np.zeros(values.shape[:-1] + (1 << values.shape[-1],), dtype=values.dtype)
    for i in range(values.shape[-1]):
        lo = 1 << i
        np.add(out[..., :lo], values[..., i : i + 1], out=out[..., lo : 2 * lo])
    return out


@functools.lru_cache(maxsize=None)
def _drop_tables(r):
    """(order, gather) for r x r nodes, one column per pivot position p:
    ``order[:, p]`` lists the other r - 1 positions in order and then p,
    and ``gather[:, p]`` the flat positions in the node's matrix of the
    block on the other positions (row-major), of the pivot column and the
    pivot row on them, and of the pivot."""
    pos = np.arange(r)
    order = np.array([np.append(np.delete(pos, p), p) for p in pos], dtype=np.intp)
    keep = order[:, :-1]
    block = (keep[:, :, None] * r + keep[:, None, :]).reshape(r, -1)
    gather = np.concatenate((block, keep * r + pos[:, None], pos[:, None] * r + keep, pos[:, None] * (r + 1)), axis=1)
    order, gather = order.T.copy(), gather.T.copy()
    order.flags.writeable = gather.flags.writeable = False
    return order, gather


def principal_minors_all(m, growth=False):
    """Determinants of all 2^N principal submatrices of each N x N matrix of
    the stack ``m`` (..., N, N), indexed by bitmask: shape (..., 2^N).

    ``out[..., mask]`` is the minor on the rows and columns of the set bits
    of ``mask``, and ``out[..., 0] = 1``.  N > 20 raises :class:`FdnError`
    before the sweep.  With ``growth``, each minor's path growth (below)
    comes back too, in an array of the same shape.

    One breadth-first pass of Schur complements (Griffin & Tsatsomeros,
    Linear Algebra Appl. 419, 2006) forms them all in O(2^N) flops.  A node
    holds det A[I], I the indices it has included, and S = A / A[I] on the
    indices it has not yet decided.  A node of order r > 4 pivots on p, the
    position whose diagonal entry is largest relative to the largest entry
    of its row (a symmetric swap, which leaves principal minors unchanged),
    writes det A[I + p] = det A[I] S_pp and passes on two children: S
    without p (p excluded) and S - S[:, p] S[p, :] / S_pp without p (p
    included).  A node of order r <= 4 is a leaf: it writes det A[I] det S_J
    for every nonempty J of its positions, det S_J in closed form (below).
    Every subset is written by exactly one node, as det A[I], the product
    of the pivots of a symmetrically pivoted LU factorization of A[I],
    times one last pivot or one closed-form minor of S.  Nodes run in
    chunks whose subtrees' widest levels hold at most ``_STACK_ENTRIES``
    entries.

    Small pivots.  The minors below a node are determinants of principal
    submatrices of S by LU and closed forms, which :func:`core._gcp_terms` bounds as exact
    for each row perturbed by about r eps of its largest entry, r the order
    of S.  Eliminating p subtracts S_ip (S_pj / S_pp) from each entry of an
    included row i, rounded within eps of itself.  Where |S_pp| > t / r, t
    the largest entry of row p, |S_pj / S_pp| < r: that rounding stays
    below r eps |S_ip|, inside the perturbation row i is already granted,
    and the row grows by at most a factor 1 + r.  Any other pivot, every
    one indistinguishable from zero (|S_pp| <= r eps t) among them, is
    shifted by s = t with the sign of S_pp, or by s = 1 where row p is
    zero, so that it divides by at least t.  Choosing p by that ratio keeps
    such shifts rare, which matters: the correction below cancels terms of
    about t times the other rows.  The
    included subtree then forms the minors of X + s e_p e_p^T for the
    node's X = S, and after the pass det X_J = det(X + s e_p e_p^T)_J - s
    det X_(J - p) corrects each of them, deepest shift first, from the
    minors that the excluded subtree wrote.  Both terms are at most about
    |S_pp| + t times the product of the other rows, so the correction's
    rounding is of the size row p is granted, though not of the minor's.

    Leaves.  With eps the machine epsilon and r_i the rows of S_J, a
    leaf's closed forms err by at most c_k eps prod ||r_i|| for k = |J|,
    from two inequalities, Cauchy-Schwarz and Lagrange's identity
    ||x ^ y|| <= ||x|| ||y||: |ad| + |bc| <= ||r_1|| ||r_2||, and
    sum_q |M_01(q)| |M_23(q')| <= ||r_0 ^ r_1|| ||r_2 ^ r_3|| <= prod ||r_i||
    over the column pairs q and their complements q'.  A d - b c is within
    eps (|ad| + |bc|) of its value: c_2 = 1.  A 3 x 3 expanded along row k
    against the 2 x 2 minors of its other rows i, j takes eps sum_c |S_kc|
    ||r_i|| ||r_j|| (restricted to the two other columns) <= sqrt(2) eps
    prod ||r_i|| from those minors and 1.5 eps sum_c |S_kc| |M(c')| <= 1.5
    eps ||r_k|| ||r_i ^ r_j|| from its three products and two sums: c_3 <
    3.  The 4 x 4 Laplace expansion on rows (0, 1) | (2, 3) takes sqrt(3)
    eps prod ||r_i|| from the minors of each row pair and 3 eps ||r_0 ^
    r_1|| ||r_2 ^ r_3|| from its six products and five sums: c_4 < 6.5.  By
    Hadamard's inequality that is the error of rows perturbed by c_k / k
    eps ||r_i|| <= c_k / sqrt(k) eps max |r_i| < k eps max |r_i|, inside
    the perturbation the LU bound grants, so a leaf's rows count in the path
    growth like the rows of an eliminating node.

    Path growth.  A minor errs by about as much as its submatrix with row i
    perturbed by k eps times the largest row-i entry of the Schur
    complements along its path, its leaf's S included: its LU is exact for
    such a perturbation, and its leaf errs less than Hadamard's inequality
    allows for one.  Partial pivoting would keep that entry near the row's
    own largest entry.  The growth of a minor is the largest ratio of the
    two over its rows and path, at least 1.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"principal minors need square matrices (..., N, N), got shape {m.shape}")
    n = m.shape[-1]
    if n > _MAX_SWEEP_N:
        raise FdnError(f"principal-minor sweep limited to N <= {_MAX_SWEEP_N}, got {n}")
    count = math.prod(m.shape[:-2])
    out = np.empty((count, 1 << n))
    out[:, 0] = 1.0
    grow = np.ones_like(out) if growth else None
    if n and count:
        # nodes run node-last: the stack becomes (N, N, count)
        s = np.ascontiguousarray(m.reshape(count, n, n).transpose(1, 2, 0))
        key = np.arange(0, count << n, 1 << n, dtype=np.int64)
        bits = _BITS[:n, None].repeat(count, 1)
        rows = path = None
        if growth:
            # each position's largest entry in A; a zero row stays zero
            rows = np.maximum(np.abs(s).max(axis=1), _TINY)
            path = grow[:, 0]
        # the root's det A[I] is the empty minor, 1, which no node overwrites
        nodes = (s, bits, key, out[:, 0], rows, path)
        with np.errstate(under="ignore"):
            _sweep(out.reshape(-1), None if grow is None else grow.reshape(-1), nodes)
    shape = m.shape[:-2] + (1 << n,)
    if growth:
        return out.reshape(shape), grow.reshape(shape)
    return out.reshape(shape)


def _sweep(out, grow, nodes):
    """Run ``nodes`` and their subtrees into the flat output ``out``.

    ``nodes`` is (s, bits, key, det, rows, path), every array node-last,
    so that each operation runs along c nodes and not along r or r^2
    entries of one node: the Schur complements ``s`` (r, r, c), ``bits``
    (r, c) with 1 << i for each position's index i, ``key`` the flat
    output position of each node's own minor ``det`` (its stack row times
    2^N plus its mask) and, with ``grow``, ``rows`` (r, c) with each
    position's largest entry in A and ``path`` the growth of the Schur
    complements above each node (else None).  Nodes
    of order 4 or less are leaves (:func:`_leaves`); larger ones run in
    chunks whose subtrees' widest levels hold at most ``_STACK_ENTRIES``
    entries, one chunk after another; a node whose subtree alone is wider
    runs one level and splits again.  Shifted pivots are corrected before
    the call returns."""
    shifts = []
    while True:
        r, c = nodes[1].shape
        if r <= 4:
            _leaves(out, grow, *nodes)
            break
        step = max(1, _STACK_ENTRIES // _widest_level(r))
        if c > step:
            for i in range(0, c, step):
                _sweep(out, grow, [None if x is None else x[..., i : i + step] for x in nodes])
            break
        nodes, shifted = _eliminate(out, grow, *nodes)
        if shifted is not None:
            shifts.append(shifted)
    for record in reversed(shifts):
        _unshift(out, *record)


@functools.lru_cache(maxsize=None)
def _widest_level(r):
    """Matrix entries of the widest level of the subtree of one r x r node:
    2^j nodes of order r - j at depth j, counted down to order 1 as if the
    leaves eliminated: the order-3 count, 18 entries per 4 x 4 leaf, sets
    it for every r > 4, and the leaves' scratch, about 80 entries each at
    its peak, stays within a few such levels."""
    return max((1 << j) * (r - j) ** 2 for j in range(1, r))


def _eliminate(out, grow, s, bits, key, det, rows, path):
    """One level of :func:`_sweep`: write each node's minor with its pivot
    included and return (children, shifted), the children node-last like
    the nodes, those without the pivot first, each written once into its
    own array, and ``shifted`` the :func:`_unshift` arguments of the
    shifted pivots, or None."""
    r, c = bits.shape
    q = r - 1
    width = q * q
    flat = s.reshape(r * r, c)
    size = np.abs(flat)
    top = size.reshape(r, r, c).max(axis=1)
    ratio = size[:: r + 1] / np.maximum(top, _TINY)
    p = ratio.argmax(axis=0)
    order, gather = _drop_tables(r)
    at = np.arange(c)
    v = flat[gather[:, p], at]
    piv = v[-1]
    ordered = bits[order[:, p], at]
    kept = ordered[:-1]
    shifted = None
    small = r * ratio[p, at] <= 1.0
    if small.any():
        # row p's largest entry, which is off the diagonal here
        edge = top[p[small], at[small]]
        shift = np.where(edge > 0.0, np.copysign(edge, piv[small]), 1.0)
        piv = piv.copy()
        piv[small] += shift
        shifted = (key[small], ordered[-1, small], shift, kept[:, small].T)
    block = v[:width].reshape(q, q, c)
    schur = np.empty((q, q, 2 * c))
    schur[..., :c] = block
    np.subtract(block, v[width : width + q, None] * (v[width + q : -1] / piv), out=schur[..., c:])
    keys = np.empty(2 * c, dtype=np.int64)
    keys[:c] = key
    key_in = np.add(key, ordered[-1], out=keys[c:])
    dets = np.empty(2 * c)
    dets[:c] = det
    out[key_in] = np.multiply(det, piv, out=dets[c:])
    if grow is not None:
        path = np.maximum(path, (top / rows).max(axis=0))
        grow[key_in] = path
        rows = rows[order[:-1, p], at]
        rows = np.concatenate((rows, rows), axis=1)
        path = np.concatenate((path, path))
    return (schur, np.concatenate((kept, kept), axis=1), keys, dets, rows, path), shifted


def _leaves(out, grow, s, bits, key, det, rows, path):
    """Write every minor of nodes of order r <= 4: det A[I] times each
    principal minor of S (:func:`_leaf_minors`, on the nodes' own (r, r, c)
    stack, no copy), scattered once, and with ``grow`` their path growth,
    S's rows counted."""
    r, c = bits.shape
    if grow is not None:
        path = np.maximum(path, (np.abs(s).max(axis=1) / rows).max(axis=0))
    m = _leaf_minors(s)
    m[1:] *= det
    # each node's output position of each local mask, by doubling
    where = np.empty((1 << r, c), dtype=np.int64)
    where[0] = key
    for i in range(r):
        np.add(where[: 1 << i], bits[i], out=where[1 << i : 2 << i])
    out[where[1:]] = m[1:]
    if grow is not None:
        grow[where[1:]] = path


def _leaf_minors(t):
    """Principal minors of the r x r matrices t[:, :, k], r <= 4, a row per
    local mask (2^r, K) with row 0 unset, in closed form with no pivot and
    no division: the diagonal, a d - b c for each pair, each 3 x 3 by
    cofactors along the row outside the pair (0, 1) or (2, 3) it contains,
    from that pair's 2 x 2 minors, and the 4 x 4 by Laplace expansion on
    rows (0, 1) | (2, 3)."""
    r, _, c = t.shape
    if r >= 3:
        # pm[h, a, b]: the minor on rows (2h, 2h + 1) and columns (a, b),
        # formed before ``m`` to keep the peak of their scratch lower
        h = r // 2
        pm = t[0 : 2 * h : 2, :, None] * t[1 : 2 * h : 2, None, :]
        pm -= t[1 : 2 * h : 2, :, None] * t[0 : 2 * h : 2, None, :]
    d = t.reshape(r * r, c)[:: r + 1]
    m = np.empty((1 << r, c))
    # rows 1, 2, 4, 8 the diagonal; 3, 12 and 5, 6, 9, 10 the pairs; 7, 11
    # the triples holding (0, 1), 13, 14 those holding (2, 3); 15 the whole
    m[1:3] = d[:2]
    if r == 2:
        m[3] = d[0] * d[1] - t[0, 1] * t[1, 0]
    if r >= 3:
        m[3] = pm[0, 0, 1]
        m[4::4][: r - 2] = d[2:]
        m[_CROSS[:, : r - 2]] = d[:2, None] * d[None, 2:] - t[:2, 2:] * t[2:, :2].transpose(1, 0, 2)
        m[7::4][: r - 2] = t[2:, 0] * pm[0, 1, 2:] + t[2:, 1] * pm[0, 2:, 0] + d[2:] * pm[0, 0, 1]
    if r == 4:
        m[12] = pm[1, 2, 3]
        m[13:15] = d[:2] * pm[1, 2, 3] + t[:2, 2] * pm[1, 3, :2] + t[:2, 3] * pm[1, :2, 2]
        laplace = pm[0, _LAPLACE[0], _LAPLACE[1]]
        laplace *= pm[1, _LAPLACE[2], _LAPLACE[3]]
        m[15] = laplace.sum(axis=0)
    return m


# Local masks of the pairs (i, j) with i < 2 <= j.
_CROSS = np.array([[5, 9], [6, 10]])
# Laplace expansion of a 4 x 4 determinant on rows (0, 1) | (2, 3): the
# column pairs (a, b) of rows (0, 1) against their complements (u, v),
# ordered so that each term's sign (-1)^(1 + a + b) is carried by the order.
_LAPLACE = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3], [2, 3, 1, 0, 2, 0], [3, 1, 2, 3, 0, 1]])


def _unshift(out, key, bit, shift, kept):
    """det X_J = det(X + s e_p e_p^T)_J - s det X_(J - p) for every J with p
    in J of each shifted node, over the subsets of its other positions
    ``kept``, in chunks of at most ``_STACK_ENTRIES`` subsets."""
    step = max(1, _STACK_ENTRIES >> kept.shape[1])
    for i in range(0, key.size, step):
        part = slice(i, i + step)
        source = key[part, None] + subset_sums(kept[part])
        out[source + bit[part, None]] -= shift[part, None] * out[source]
