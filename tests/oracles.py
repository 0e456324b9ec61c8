"""Independent reference implementations used to compute expected values.

Everything here deliberately avoids the code paths under test: polynomial
determinants come from a permutation-sum expansion, principal minors from
one determinant per subset (in float64, or exactly in integers), poles
from a single-step state embedding or from the eigenvalues of the
characteristic polynomial's companion matrix,
impulse responses from frequency sampling plus an inverse DFT or from one
recursion step per sample, numerator coefficients from a dense Vandermonde
least-squares solve, the circle route's samples from one loop determinant
per sample, orthogonal completions from eigen-factors of the two
defect Gram matrices, the full Lyapunov Gram matrix from the
Kronecker-vectorized Stein equation, the classic designs from their scalar
product/recursion forms, and CSV text from Python's own "%.17g" applied
one row tuple at a time.  The balanced residuals restate the three
orthogonality identities of a balanced system block by block.
"""

from fractions import Fraction

import numpy as np

from uniallpass import FdnSystem, UnstableError, apply_diagonal_similarity


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


def polyval_zinv(coeffs, z):
    """Evaluate sum_k coeffs[k] * z**-k (scalar or array z)."""
    w = 1.0 / np.asarray(z, dtype=complex)
    val = np.zeros_like(w)
    for ck in coeffs[::-1]:
        val = val * w + ck
    return val


def numerator_vandermonde(fdn, reduce=None, pad=8):
    """Numerator of H (or of ``reduce(H)``, e.g. ``np.linalg.det``) by least
    squares: H times the Horner-evaluated denominator at order + 1 + pad
    uniform unit-circle nodes, fitted through the dense Vandermonde matrix
    with ``np.linalg.lstsq``.  Returns (real coefficients with the sample's
    trailing shape plus (order + 1,), largest sample mismatch of the fit,
    largest sample magnitude)."""
    from uniallpass import frequency_response, gcp

    order = fdn.order
    count = order + 1 + pad
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    h = frequency_response(fdn, zs)
    if reduce is not None:
        h = reduce(h)
    den = polyval_zinv(gcp(fdn.a, fdn.delays), zs)
    values = h * den.reshape((count,) + (1,) * (h.ndim - 1))
    vand = zs[:, None] ** (-np.arange(order + 1))[None, :]
    flat = values.reshape(count, -1)
    sol, *_ = np.linalg.lstsq(vand, flat, rcond=None)
    coeffs = sol.real
    resid = float(np.max(np.abs(vand @ coeffs - flat)))
    out_shape = values.shape[1:] + (order + 1,)
    return np.moveaxis(coeffs, 0, -1).reshape(out_shape), resid, float(np.max(np.abs(values)))


def numerator_det_grid(fdn, count):
    """Numerator of det H by the full-circle fit: det H times the FFT
    denominator at ``count`` >= order + 1 uniform unit-circle nodes, whose
    head of one inverse FFT is the least-squares fit (the allpass test's
    reversal numerator before it took bordered determinants, at ``count`` =
    4 order).  Returns (real coefficients, largest sample magnitude)."""
    from uniallpass import frequency_response
    from uniallpass.core import _circle_denominator

    den = _circle_denominator(fdn.a, fdn.delays.as_array())
    h = frequency_response(fdn, np.exp(2j * np.pi * np.arange(count) / count))
    values = np.linalg.det(h) * np.fft.fft(den, count)
    return np.fft.ifft(values)[: den.size].real, float(np.max(np.abs(values)))


def balanced_form(fdn: FdnSystem, dsim) -> FdnSystem:
    """Similarity image under T = sqrt(dsim); when the certificate holds the
    resulting block system matrix is orthogonal."""
    dsim = np.asarray(dsim, dtype=float).ravel()
    if np.any(dsim <= 0):
        raise ValueError("balanced form requires a strictly positive dsim")
    return apply_diagonal_similarity(fdn, np.sqrt(dsim))


def lyapunov_gram(a, b):
    """Solve X - A X A^T = B B^T by the Kronecker-vectorized N^2 x N^2
    linear system.  Requires spectral radius of A below one (unique
    solution)."""
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != a.shape[0]:
        b = b.T
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    if radius >= 1.0:
        raise UnstableError(np.linalg.eigvals(a), f"spectral radius {radius:.6g} >= 1")
    n = a.shape[0]
    lhs = np.eye(n * n) - np.kron(a, a)
    x = np.linalg.solve(lhs, (b @ b.T).ravel()).reshape(n, n)
    return 0.5 * (x + x.T)


def principal_minor(m, subset) -> float:
    """Determinant of the principal submatrix on ``subset`` (0-based row and
    column indices); the empty subset yields 1."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    idx = sorted(int(i) for i in subset)
    if len(set(idx)) != len(idx):
        raise ValueError(f"duplicate indices in subset {subset}")
    if idx and (idx[0] < 0 or idx[-1] >= n):
        raise ValueError(f"subset {subset} out of range for size {n}")
    if not idx:
        return 1.0
    return float(np.linalg.det(m[np.ix_(idx, idx)]))


def balanced_residuals(fdn: FdnSystem):
    """Max-norm defects of the three orthogonality identities of a balanced
    system: AA^T + BB^T = I, AC^T + BD^T = 0, CC^T + DD^T = I."""
    a, b, c, d = fdn.a, fdn.b, fdn.c, fdn.d
    r1 = float(np.max(np.abs(a @ a.T + b @ b.T - np.eye(fdn.n_delays))))
    r2 = float(np.max(np.abs(a @ c.T + b @ d.T)))
    r3 = float(np.max(np.abs(c @ c.T + d @ d.T - np.eye(fdn.n_io))))
    return r1, r2, r3


def principal_minors_loop(m, masks=None):
    """Principal minors for the bitmasks ``masks`` (every mask by default,
    so indexed by mask), one subset per iteration: the LU determinant of
    each principal submatrix built entry by entry.  numpy's det warns
    "divide by zero" on subnormal pivots; the minor is right."""
    m = np.ascontiguousarray(m, dtype=np.float64)
    n = m.shape[0]
    masks = range(1 << n) if masks is None else masks
    out = np.empty(len(masks))
    for t, mask in enumerate(masks):
        idx = [i for i in range(n) if (int(mask) >> i) & 1]
        k = len(idx)
        sub = np.empty((k, k))
        for r in range(k):
            for s in range(k):
                sub[r, s] = m[idx[r], idx[s]]
        with np.errstate(divide="ignore", under="ignore"):
            out[t] = np.linalg.det(sub) if k else 1.0
    return out


def principal_minors_exact(m, masks=None):
    """Exact principal minors of ``m`` as Fractions, for the bitmasks
    ``masks`` (every mask by default).  float64 entries are binary
    fractions: scaled by their largest denominator they become integers,
    and each determinant comes from fraction-free (Bareiss) elimination in
    Python integers, with a row swap past each zero pivot."""
    m = np.asarray(m, dtype=np.float64)
    n = m.shape[0]
    ratios = [[float(x).as_integer_ratio() for x in row] for row in m]
    scale = max((den for row in ratios for _, den in row), default=1)
    whole = [[num * (scale // den) for num, den in row] for row in ratios]
    out = []
    for mask in range(1 << n) if masks is None else masks:
        idx = [i for i in range(n) if (int(mask) >> i) & 1]
        rows = [[whole[i][j] for j in idx] for i in idx]
        out.append(Fraction(_bareiss(rows), scale ** len(idx)))
    return out


def _bareiss(rows):
    """Determinant of a square integer matrix (list of lists, consumed)."""
    sign, prev = 1, 1
    k = len(rows)
    for t in range(k - 1):
        if rows[t][t] == 0:
            swap = next((i for i in range(t + 1, k) if rows[i][t] != 0), None)
            if swap is None:
                return 0
            rows[t], rows[swap] = rows[swap], rows[t]
            sign = -sign
        pivot = rows[t][t]
        for i in range(t + 1, k):
            for j in range(t + 1, k):
                rows[i][j] = (rows[i][j] * pivot - rows[i][t] * rows[t][j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if k else 1


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


def circle_samples(u, m, count):
    """The circle route's samples r = g(w) w**(-L/2), g(w) = det(diag(w**m)
    - U), at the ``count`` angles phi_k = pi (k + 1/2) / count, one N x N
    determinant per sample (stacked 512 at a time), every power of w
    reduced exactly in integers: the slow reference for the FFT sampling.
    Returns (phi, r)."""
    u = np.asarray(u, dtype=float)
    m = np.asarray(m, dtype=np.int64)
    order = int(m.sum())
    odd = 2 * np.arange(count, dtype=np.int64) + 1
    phi = np.pi * odd / (2 * count)
    dets = []
    for part in np.split(odd, range(512, count, 512)):
        # w**m_i = exp(i pi (2 k + 1) m_i / (2 count))
        powers = np.exp(1j * np.pi * (np.multiply.outer(part, m) % (4 * count)) / (2 * count))
        dets.append(np.linalg.det(powers[:, :, None] * np.eye(m.size) - u))
    half = np.exp(1j * np.pi * ((odd * order) % (8 * count)) / (4 * count))
    return phi, np.concatenate(dets) / half


def circle_derivatives(den, count):
    """r = sum_k den_k w**(L/2 - k), L = len(den) - 1, and its first and
    second derivatives in phi, stacked (3, count), at the ``count`` angles
    phi_j = pi (j + 1/2) / count: direct sums in extended precision, every
    power of w reduced exactly in integers, as the slow reference for the
    FFT sampling of given coefficients."""
    den = np.asarray(den, dtype=np.longdouble)
    order = den.size - 1
    k = np.arange(order + 1, dtype=np.int64)
    odd = 2 * np.arange(count, dtype=np.int64) + 1
    # w**(L/2 - k) = exp(i pi (2 j + 1) (L - 2 k) / (4 count))
    turns = np.multiply.outer(odd, order - 2 * k) % (8 * count)
    powers = np.exp(1j * np.pi * turns.astype(np.longdouble) / (4 * count))
    slope = 1j * (0.5 * order - k.astype(np.longdouble))
    rows = [powers @ (den * slope**j) for j in range(3)]
    return np.array(rows, dtype=complex)


def circle_count(u, m, samples=4):
    """The roots of g(w) = det(diag(w**m) - U), U orthogonal, that the
    circle route counts from :func:`circle_samples` at ``samples`` L
    points: twice the sign changes of the real function r / sqrt(s), s =
    (-1)**N det U, among the samples above the per-determinant rounding
    bound N^2 eps prod_i (1 + ||u_i||), plus the roots at w = 1 and w = -1
    that the symmetry forces.  It equals L exactly when that count
    closes."""
    n, order = len(m), int(np.sum(m))
    sign = (-1) ** n * np.sign(np.linalg.det(u))
    _, r = circle_samples(u, m, samples * order)
    values = r.real if sign > 0 else r.imag
    bound = n * n * np.finfo(float).eps * np.prod(1.0 + np.linalg.norm(u, axis=1))
    kept = values[np.abs(values) > bound]
    changes = int(np.sum(np.signbit(kept[1:]) != np.signbit(kept[:-1])))
    return 2 * changes + int(sign < 0) + int(sign * (-1) ** order < 0)


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


def csv_per_value(path_or_handle, header, row_format, rows):
    """Comma-separated table with a header row and LF line endings.

    Each row is one tuple formatted by ``row_format``; ``%.17g`` spells a
    float exactly as ``format(v, ".17g")`` does.
    """
    text = "\n".join([",".join(header)] + [row_format % row for row in rows]) + "\n"
    if hasattr(path_or_handle, "write"):
        path_or_handle.write(text)
    else:
        with open(path_or_handle, "w", newline="\n") as fh:
            fh.write(text)
    return text


def impulse_csv_per_value(path_or_handle, response):
    """``serialize.impulse_csv`` formatting one row tuple at a time."""
    p_out, p_in, length = response.shape
    if p_out == 1 and p_in == 1:
        header = ["n", "y"]
    else:
        header = ["n"] + [f"y_out{i}_in{j}" for i in range(p_out) for j in range(p_in)]
    columns = np.reshape(response, (p_out * p_in, length)).T.tolist()
    rows = ((n, *values) for n, values in enumerate(columns))
    return csv_per_value(path_or_handle, header, "%d" + ",%.17g" * (p_out * p_in), rows)


def poles_csv_per_value(path_or_handle, pole_values):
    """``serialize.poles_csv`` formatting one row tuple at a time."""
    rows = ((p.real, p.imag, abs(p)) for p in pole_values)
    return csv_per_value(path_or_handle, ["re", "im", "modulus"], "%.17g,%.17g,%.17g", rows)


def multiset_max_distance(p, q):
    """Hungarian-matched max pointwise distance between two complex multisets."""
    from scipy.optimize import linear_sum_assignment

    p = np.asarray(p)
    q = np.asarray(q)
    assert p.shape == q.shape
    cost = np.abs(p[:, None] - q[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())
