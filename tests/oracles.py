"""Independent reference implementations used to compute expected values.

Everything here deliberately avoids the code paths under test: polynomial
determinants come from a permutation-sum expansion, principal minors from
one determinant per subset, poles from a single-step state embedding or
from the eigenvalues of the characteristic polynomial's companion matrix,
impulse responses from frequency sampling plus an inverse DFT or from one
recursion step per sample, numerator coefficients from a dense Vandermonde
least-squares solve, orthogonal completions from eigen-factors of the two
defect Gram matrices, and the classic designs from their scalar
product/recursion forms.
"""

import numpy as np


def perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def polydet_leibniz(entries):
    """Determinant of a matrix of polynomials via the Leibniz expansion.

    ``entries[i][j]`` is a coefficient array ascending in z.  Returns the
    determinant's coefficient array (ascending in z).
    """
    from itertools import permutations

    n = len(entries)
    acc = np.zeros(1)
    for perm in permutations(range(n)):
        term = np.array([float(perm_sign(perm))])
        for i in range(n):
            term = np.convolve(term, entries[i][perm[i]])
        if term.size > acc.size:
            acc = np.pad(acc, (0, term.size - acc.size))
        acc[: term.size] += term
    return acc


def loop_poly_entries(a, delays):
    """Polynomial entries of diag(z**m_i) - A, ascending in z."""
    n = a.shape[0]
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                coeffs = np.zeros(delays[i] + 1)
                coeffs[0] = -a[i, j]
                coeffs[delays[i]] = 1.0
            else:
                coeffs = np.array([-a[i, j]])
            row.append(coeffs)
        entries.append(row)
    return entries


def gcp_leibniz(a, delays):
    """Characteristic polynomial by symbolic expansion, ascending in z^-1."""
    a = np.asarray(a, dtype=float)
    delays = [int(v) for v in delays]
    coeffs_z = polydet_leibniz(loop_poly_entries(a, delays))
    order = sum(delays)
    full = np.zeros(order + 1)
    full[: coeffs_z.size] = coeffs_z
    return full[::-1].copy()


def numerator_leibniz(fdn):
    """Numerator of H for a SISO system via cofactor expansion, ascending in
    z^-1: d * det(P) + c adj(P) b with polynomial cofactors."""
    a = fdn.a
    n = a.shape[0]
    delays = list(fdn.delays)
    entries = loop_poly_entries(a, delays)
    den_z = polydet_leibniz(entries)
    order = sum(delays)
    acc = fdn.d[0, 0] * np.pad(den_z, (0, order + 1 - den_z.size))
    for i in range(n):
        for j in range(n):
            # adj(P)_ij = (-1)^(i+j) det(P with row j, col i removed)
            sub = [
                [entries[r][s] for s in range(n) if s != i]
                for r in range(n)
                if r != j
            ]
            cof = polydet_leibniz(sub) if sub else np.array([1.0])
            term = fdn.c[0, i] * fdn.b[j, 0] * ((-1.0) ** (i + j)) * cof
            acc[: term.size] += term
    return acc[::-1].copy()


def numerator_vandermonde(fdn, reduce=None, pad=8):
    """Numerator of H (or of ``reduce(H)``, e.g. ``np.linalg.det``) by least
    squares: H times the Horner-evaluated denominator at order + 1 + pad
    uniform unit-circle nodes, fitted through the dense Vandermonde matrix
    with ``np.linalg.lstsq``.  Returns (real coefficients with the sample's
    trailing shape plus (order + 1,), largest sample mismatch of the fit,
    largest sample magnitude)."""
    from uniallpass import denominator_poly, frequency_response, polyval_zinv

    order = fdn.order
    count = order + 1 + pad
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    h = frequency_response(fdn, zs)
    if reduce is not None:
        h = reduce(h)
    den = polyval_zinv(denominator_poly(fdn), zs)
    values = h * den.reshape((count,) + (1,) * (h.ndim - 1))
    vand = zs[:, None] ** (-np.arange(order + 1))[None, :]
    flat = values.reshape(count, -1)
    sol, *_ = np.linalg.lstsq(vand, flat, rcond=None)
    coeffs = sol.real
    resid = float(np.max(np.abs(vand @ coeffs - flat)))
    out_shape = values.shape[1:] + (order + 1,)
    return np.moveaxis(coeffs, 0, -1).reshape(out_shape), resid, float(np.max(np.abs(values)))


def principal_minors_loop(m):
    """Principal minors indexed by bitmask, one subset per iteration: the
    determinant of each principal submatrix built entry by entry."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    n = m.shape[0]
    count = 1 << n
    out = np.empty(count)
    out[0] = 1.0
    for mask in range(1, count):
        idx = [i for i in range(n) if (mask >> i) & 1]
        k = len(idx)
        sub = np.empty((k, k))
        for r in range(k):
            for s in range(k):
                sub[r, s] = m[idx[r], idx[s]]
        out[mask] = np.linalg.det(sub)
    return out


def impulse_loop(a, b, c, d, delays, length):
    """Impulse recursion one sample per iteration, returning (length, P, P).

    Delay line i is a ring buffer of size delays[i] at
    buf[offsets[i]:offsets[i] + delays[i]]; at step n the slot n % delays[i]
    holds the line output s_i(n), and the freshly computed s_i(n + delays[i])
    goes back into the same slot.  Column q of the state tracks the response
    to a unit impulse on input channel q.
    """
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    c = np.ascontiguousarray(c, dtype=np.float64)
    d = np.ascontiguousarray(d, dtype=np.float64)
    delays = [int(v) for v in delays]
    offsets = np.concatenate([[0], np.cumsum(delays)]).astype(np.int64)
    n_lines = a.shape[0]
    n_io = b.shape[1]
    buf = np.zeros((offsets[n_lines], n_io))
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


def embedding_matrix(a, delays):
    """Single-step state matrix: each delay line expanded into a register
    chain.  Its eigenvalues are the network poles."""
    a = np.asarray(a, dtype=float)
    delays = [int(v) for v in delays]
    offsets = np.concatenate([[0], np.cumsum(delays)])
    order = offsets[-1]
    big = np.zeros((order, order))
    for i in range(len(delays)):
        for j in range(len(delays)):
            big[offsets[i], offsets[j] + delays[j] - 1] = a[i, j]
        for k in range(1, delays[i]):
            big[offsets[i] + k, offsets[i] + k - 1] = 1.0
    return big


def poles_companion(den):
    """Roots of a z^-1-ascending polynomial ``den`` read as monic-descending
    in z: eigenvalues of its companion matrix (dense, O(order^3))."""
    den = np.asarray(den, dtype=float)
    monic = den[1:] / den[0]
    n = monic.size
    comp = np.zeros((n, n))
    comp[0, :] = -monic
    comp[np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(comp)


def _rank_factor(gram, p, tol=1e-10):
    """F with F F^T = gram from the eigenvectors of its p eigenvalues above
    tol; asserts that there are exactly p of them."""
    w, v = np.linalg.eigh(0.5 * (gram + gram.T))
    keep = w > tol
    assert int(np.sum(keep)) == p, f"defect factor has rank {int(np.sum(keep))}, expected {p}"
    return v[:, keep] * np.sqrt(w[keep])


def orthogonal_completion_eigh(a, p):
    """Blocks (B, C, D) completing an admissible corner A: B is a rank-P
    factor of I - AA^T, C^T one of I - A^T A, and D the least-squares
    solution of -B D^T = A C^T."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    b = _rank_factor(np.eye(n) - a @ a.T, p)
    c = _rank_factor(np.eye(n) - a.T @ a, p).T
    dt, *_ = np.linalg.lstsq(b, -a @ c.T, rcond=None)
    return b, c, dt.T


def dft_impulse(fdn, length, oversample=8):
    """Impulse response via frequency sampling and an inverse DFT.

    Uses the transfer-function path only; accurate once the sampling grid is
    long enough for the response tail to have decayed, hence the floor on
    the grid size for short requests.
    """
    from uniallpass import frequency_response

    count = max(oversample * length, 512)
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    h = frequency_response(fdn, zs)
    time = np.fft.ifft(h, axis=0)[:length]
    return np.ascontiguousarray(np.transpose(time.real, (1, 2, 0)))


def schroeder_product_tf(gains, delays, zs):
    zs = np.asarray(zs, dtype=complex)
    out = np.ones_like(zs)
    for g, m in zip(gains, delays):
        out = out * (g + zs ** -m) / (1.0 + g * zs ** -m)
    return out


def gardner_recursion_tf(gains, delays, zs):
    zs = np.asarray(zs, dtype=complex)
    out = (gains[0] + zs ** -delays[0]) / (1.0 + gains[0] * zs ** -delays[0])
    for g, m in zip(gains[1:], delays[1:]):
        out = (g + zs ** -m * out) / (1.0 + g * zs ** -m * out)
    return out


def multiset_max_distance(p, q):
    """Hungarian-matched max pointwise distance between two complex multisets."""
    from scipy.optimize import linear_sum_assignment

    p = np.asarray(p)
    q = np.asarray(q)
    assert p.shape == q.shape
    cost = np.abs(p[:, None] - q[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
