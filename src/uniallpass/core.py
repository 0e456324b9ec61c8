"""Transfer functions, characteristic polynomials, poles and allpass tests.

Polynomial convention
---------------------
All rational-function coefficient vectors in this package are stored in
ascending powers of z^-1: ``coeffs[k]`` multiplies ``z**-k``.  The loop
determinant det(diag(z**m_i) - A) expands, in ascending powers of z, as

    sum_k c_k z**k,   c_k = sum_{I : sum(m[I]) = k} (-1)**(N - |I|) det A(I^c),

where A(I^c) is the principal submatrix on the complement of I.  Dividing by
z**order converts that expansion to the z^-1 form, which simply reverses the
coefficient list and makes it monic: ``coeffs[0] == 1``.  The symbolic
Leibniz expansion in the test suite pins this normalization empirically.

Poles
-----
The poles are the roots of the loop determinant f(z) = det(diag(z**m_i) - A).
:func:`poles` finds them all at once by Ehrlich-Aberth iteration on f
itself: with P(z) = diag(z**m_i) - A, each sweep needs only the Newton
ratio f/f' = 1 / trace(P^-1 P'), one small N x N inverse per iterate, and
never forms an order x order matrix.  Where P is too near singular for that
trace to mean anything, and for systems of order below N^2, where it is the
dearer evaluation, the ratio comes from the coefficients above instead.
Trailing coefficients below the rounding bound of the minors that form them
are zero roots.  f is real, so its roots are closed under conjugation: the
sweeps iterate one root of each conjugate pair and the real roots, which
halves the inverses and the Aberth sums, and return exactly conjugate pairs
and exactly real roots.  Start points come from the Newton polygon of the
coefficients, in conjugate pairs; a pair that meets the real axis splits
into two real iterates and two real iterates that meet merge into a pair,
whichever a real quadratic fitted there says.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConditioningError, FdnError, PoleEvaluationError, UnstableError
from .kernels import _STACK_ENTRIES, impulse_kernel, principal_minors_all
from .system import DelayVector, FdnSystem

DEFAULT_TOL = 1e-8
# seeded random unit-circle samples added to the allpass test's uniform grid
_GRID_RANDOM = 8
_GRID_SEED = 0
# extra unit-circle samples beyond order + 1 in the numerator fit
_FIT_PAD = 8
# Pole solve.  Each Aberth sweep costs O(order^2) pair terms, about 1e9 at
# the order limit, where one solve takes minutes.
_MAX_ORDER = 1 << 15
_MAX_SWEEPS = 100
# Start points sit this far (relative) off their Newton-polygon circle: the
# poles of a homogeneous design lie exactly on it, and starts there stall.
_START_OFFSET = 1e-3
# Conjugate pairs of starts are turned by this fraction of their spacing, so
# that they are not also symmetric about the imaginary axis: the iteration
# keeps every symmetry of its starts that f has too, and f(-z) = f(z) for
# Schroeder chains with even delays.
_START_TURN = 0.25
_EPS = np.finfo(float).eps
# A loop-matrix step is trusted when its estimated error is below a tenth of
# the step or below _LOOP_TRUST of |z|, and a trusted iterate has converged
# when its step is below _STEP_TOL of |z|.  Every other iterate whose step
# error is above _NOISY of the step is settled by the coefficients (which
# also give the step where the loop step is not trusted): it has converged
# when their residual or step is at rounding level.
_STEP_TOL = 4.0 * _EPS
_LOOP_TRUST = 1e-10
_NOISY = 0.01
# Below order _COEFF_ORDER_RATIO * N^2 every Newton ratio comes from the
# coefficients: there one evaluation costs under 1/N of a loop inverse, and
# the order is too low for the coefficients to lose accuracy.
_COEFF_ORDER_RATIO = 1
# Powers z**m_i beyond 2**+-900 are formed in logarithms.
_POWER_LOG2_MAX = 900.0
# Aberth denominators below this fall back to the plain Newton step.
_ABERTH_TINY = 1e-8


@dataclass(frozen=True, eq=False)
class TransferSample:
    """One evaluation of the transfer matrix: H(z), P x P complex."""

    z: complex
    h: np.ndarray


@dataclass(frozen=True)
class AllpassReport:
    """Outcome of the two-sided allpass test for a specific delay vector.

    ``grid_deviation`` is the largest ``||H H* - I||`` over the evaluation
    grid; ``reversal_deviation`` is the largest coefficient mismatch between
    the numerator of det H and the sign-flipped, order-reversed denominator;
    ``sign`` is the +-1 factor that minimized it.
    """

    allpass: bool
    grid_deviation: float
    reversal_deviation: float
    sign: int
    tol: float


def delay_matrix(delays, z):
    """Diagonal matrix with entries z**-m_i."""
    if z == 0:
        raise ValueError("delay matrix is undefined at z = 0")
    m = DelayVector(delays) if not isinstance(delays, DelayVector) else delays
    return np.diag(np.asarray(z, dtype=complex) ** (-m.as_array()))


def _loop_matrices(fdn: FdnSystem, zs):
    """Stacked loop matrices diag(z**m_i) - A for each z."""
    m = fdn.delays.as_array()
    zs = np.asarray(zs, dtype=complex)
    zp = zs[:, None] ** m[None, :]
    n = fdn.n_delays
    loop = np.broadcast_to(-fdn.a, (len(zs), n, n)).astype(complex)
    loop[:, np.arange(n), np.arange(n)] += zp
    return loop


def frequency_response(fdn: FdnSystem, zs):
    """Evaluate H at a 1-D array of z values; returns (len(zs), P, P)."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs == 0):
        raise ValueError("transfer function is undefined at z = 0")
    loop = _loop_matrices(fdn, zs)
    rhs = np.empty((len(zs), fdn.n_delays, fdn.n_io), dtype=complex)
    rhs[:] = fdn.b
    try:
        x = np.linalg.solve(loop, rhs)
    except np.linalg.LinAlgError:
        dets = np.linalg.det(loop)
        bad = zs[int(np.argmin(np.abs(dets)))]
        raise PoleEvaluationError(bad) from None
    h = np.einsum("pn,knq->kpq", fdn.c, x) + fdn.d
    return h


def transfer_function(fdn: FdnSystem, z) -> TransferSample:
    """H(z) = C (diag(z**m_i) - A)^-1 B + D."""
    h = frequency_response(fdn, [z])[0]
    if not np.all(np.isfinite(h)):
        raise PoleEvaluationError(z)
    return TransferSample(z=complex(z), h=h)


def impulse_response(fdn: FdnSystem, length: int):
    """Time-domain response tensor of shape (P, P, length).

    Entry [p, q, n] is output channel p at sample n when a unit impulse
    drives input channel q.  The recursion keeps one ring buffer of size m_i
    per delay line and advances all lines in blocks of min(delays) samples,
    one pair of matrix products per block.
    """
    length = int(length)
    if length < 1:
        raise ValueError("length must be >= 1")
    h = impulse_kernel(fdn.a, fdn.b, fdn.c, fdn.d, fdn.delays.as_array(), length)
    return np.ascontiguousarray(np.transpose(h, (1, 2, 0)))


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


def ordered_subsets(n: int):
    """All subsets of range(n) sorted by (cardinality, lexicographic)."""
    out = []
    for k in range(n + 1):
        out.extend(combinations(range(n), k))
    return out


def _ordered_masks(n: int):
    """Bitmasks of :func:`ordered_subsets` (n), in the same order.

    Two subsets of equal size compare lexicographically as their masks with
    the bit order reversed compare descending: the first index where they
    differ is the highest bit where the reversed masks differ.
    """
    masks = np.arange(1 << n)
    sizes = np.zeros(masks.size, dtype=np.int8)
    reversed_masks = np.zeros_like(masks)
    for i in range(n):
        bit = (masks >> i) & 1
        sizes += bit.astype(np.int8)
        reversed_masks |= bit << (n - 1 - i)
    return masks[np.lexsort((-reversed_masks, sizes))]


def principal_minor_list(m):
    """Principal minors in (cardinality, lexicographic) subset order."""
    m = np.asarray(m, dtype=float)
    minors = principal_minors_all(m)
    subsets = ordered_subsets(m.shape[0])
    return subsets, minors[_ordered_masks(m.shape[0])]


def gcp(a, delays):
    """Generalized characteristic polynomial of (A, m), ascending in z^-1.

    The returned vector has length order + 1 and is monic: ``coeffs[0] == 1``.
    Its roots (see :func:`poles`) are the system poles.  With unit delays it
    reduces to the ordinary characteristic polynomial of A.
    """
    a = np.asarray(a, dtype=float)
    m = delays.as_array() if isinstance(delays, DelayVector) else DelayVector(delays).as_array()
    return _gcp_terms(a, m)[0]


def _gcp_terms(a, m):
    """The :func:`gcp` coefficients of (A, m) and a rounding bound for each.

    The LU determinant of a k x k principal submatrix is exact for the
    submatrix with each row perturbed by about k eps of its norm, so by
    Hadamard's inequality its error is at most k^2 eps times the product of
    those rows' norms in A (zero for the empty minor).  A coefficient's
    bound is the sum of the bounds of the minors that form it; one below its
    bound cannot be told from zero.
    """
    n = a.shape[0]
    order = int(m.sum())
    minors = principal_minors_all(a)
    # per subset (bitmask): size, delay sum and log of the product of its
    # rows' norms, each built by doubling, one line at a time
    sizes = np.zeros(1 << n, dtype=np.int64)
    ksum = np.zeros(1 << n, dtype=np.int64)
    log_rows = np.zeros(1 << n)
    # a zero row gives exactly zero minors: its tiny norm makes their bound negligible
    row_log = np.log(np.maximum(np.linalg.norm(a, axis=1), np.finfo(float).tiny))
    for i in range(n):
        lo, hi = 1 << i, 2 << i
        sizes[lo:hi] = sizes[:lo] + 1
        ksum[lo:hi] = ksum[:lo] + m[i]
        log_rows[lo:hi] = log_rows[:lo] + row_log[i]
    signs = np.where((n - sizes) % 2 == 1, -1.0, 1.0)
    bounds = sizes**2 * _EPS * np.exp(log_rows)
    # the complement of subset I, whose minor forms the coefficient of
    # z**sum(m[I]), has the mask full ^ I = full - I: the reversed order
    coeffs_z = np.bincount(ksum, weights=signs * minors[::-1], minlength=order + 1)
    floor_z = np.bincount(ksum, weights=bounds[::-1], minlength=order + 1)
    return coeffs_z[::-1].copy(), floor_z[::-1].copy()


def polyval_zinv(coeffs, z):
    """Evaluate sum_k coeffs[k] * z**-k (scalar or array z)."""
    w = 1.0 / np.asarray(z, dtype=complex)
    val = np.zeros_like(w)
    for ck in coeffs[::-1]:
        val = val * w + ck
    return val


def denominator_poly(fdn: FdnSystem):
    """Denominator of H(z), ascending in z^-1 (monic)."""
    return gcp(fdn.a, fdn.delays)


def _numerator_fit(fdn: FdnSystem, den, reduce=None):
    """z^-1 coefficients of H (or of ``reduce(H)``, e.g. ``np.linalg.det``)
    times the denominator.  On K uniform unit-circle nodes a z^-1 polynomial
    is the length-K DFT of its zero-padded coefficients, so the
    least-squares fit is the head of one inverse FFT.  Returns (real
    coefficients, trailing axis of length order + 1; largest sample
    mismatch of the fit; largest sample magnitude)."""
    order = fdn.order
    count = order + 1 + _FIT_PAD
    zs = np.exp(2j * np.pi * np.arange(count) / count)
    h = frequency_response(fdn, zs)
    if reduce is not None:
        h = reduce(h)
    den_values = np.fft.fft(den, count)
    values = h * den_values.reshape((count,) + (1,) * (h.ndim - 1))
    coeffs = np.fft.ifft(values, axis=0)[: order + 1].real
    resid = float(np.max(np.abs(np.fft.fft(coeffs, count, axis=0) - values)))
    scale = float(np.max(np.abs(values)))
    return np.moveaxis(coeffs, 0, -1), resid, scale


def numerator_poly(fdn: FdnSystem, tol=1e-6):
    """Numerator coefficients of H(z), shape (P, P, order + 1), ascending in
    z^-1.  H times the denominator is sampled on order + 1 + 8 uniform
    unit-circle nodes; there the least-squares polynomial fit is a DFT, so
    one inverse FFT recovers the coefficients.

    Returns (coefficients, fit residual): the largest mismatch between the
    fitted polynomial and the samples.  A residual above ``tol`` times the
    sample magnitude raises :class:`ConditioningError`.
    """
    coeffs, resid, scale = _numerator_fit(fdn, denominator_poly(fdn))
    if resid > tol * max(1.0, scale):
        raise ConditioningError(
            f"numerator fit residual {resid:.3g} exceeds tolerance", residual=resid
        )
    return coeffs, resid


def poles(fdn: FdnSystem):
    """All ``order`` system poles: the roots of det(diag(z**m_i) - A), found by
    simultaneous Ehrlich-Aberth iteration on the loop determinant itself.

    The result is exactly closed under conjugation, with real poles exactly
    real.  Simple poles come out to about machine precision relative to
    their modulus (they match companion-matrix eigenvalues to ~1e-13 at
    order 600).
    A pole of multiplicity k converges only linearly and is accepted at the
    noise floor of the determinant, roughly eps**(1/k): about 1e-5 for a
    triple pole.  Where the loop matrix is too near singular to trust, a
    root is accepted only when the coefficients of the loop determinant
    (:func:`gcp`) confirm it.  Orders above 2**15 raise
    :class:`FdnError` before the coefficients are formed; roots still moving
    after 100 sweeps raise :class:`ConditioningError`.
    """
    _check_pole_order(fdn)
    return _aberth_poles(fdn, *_gcp_terms(fdn.a, fdn.delays.as_array()))


def _check_pole_order(fdn: FdnSystem):
    if fdn.order > _MAX_ORDER:
        raise FdnError(f"pole solve limited to system order <= {_MAX_ORDER}, got {fdn.order}")


def _newton_polygon_starts(coeffs):
    """Conjugate-symmetric start points for the roots of the real polynomial
    sum_j coeffs[j] z**j (nonzero constant and leading term), as (upper,
    real): one upper-half-plane point for each conjugate pair of starts, and
    the real starts.  Each edge of the upper convex hull of
    (j, log|coeffs[j]|) from j0 to j1 puts j1 - j0 points on the circle of
    radius (|coeffs[j0]| / |coeffs[j1]|)**(1 / (j1 - j0)) (Bini 1996), moved
    off that circle by ``_START_OFFSET``: conjugate pairs at the angles
    +-2 pi (k + ``_START_TURN``) / (j1 - j0), and one point on the negative
    axis when j1 - j0 is odd."""
    nonzero = np.flatnonzero(coeffs)
    # plain floats: the hull scan is scalar work
    xs = nonzero.tolist()
    ys = np.log(np.abs(coeffs[nonzero])).tolist()
    hull = []
    for k in range(len(xs)):
        # drop the last hull point while it lies on or below the chord to k
        while len(hull) >= 2:
            i, j = hull[-2], hull[-1]
            if (ys[j] - ys[i]) * (xs[k] - xs[i]) > (ys[k] - ys[i]) * (xs[j] - xs[i]):
                break
            hull.pop()
        hull.append(k)
    upper = [np.empty(0, dtype=complex)]
    real = []
    for i, j in zip(hull[:-1], hull[1:]):
        count = xs[j] - xs[i]
        radius = np.exp((ys[i] - ys[j]) / count) * (1.0 + _START_OFFSET)
        upper.append(radius * np.exp(2j * np.pi * (np.arange(count // 2) + _START_TURN) / count))
        if count % 2:
            real.append(-radius)
    return np.concatenate(upper), np.array(real, dtype=complex)


def _loop_args(a, m, zeros):
    """The leading arguments of :func:`_loop_log_derivative` for feedback
    matrix ``a``, delays ``m`` and ``zeros`` deflated zero roots."""
    with np.errstate(divide="ignore", invalid="ignore"):
        a_log2 = np.log2(np.abs(a))
        row_log2 = a_log2.max(axis=1)
        # zero rows (maximum -inf) add nothing to the column bound
        by_row = np.where(np.isfinite(row_log2)[:, None], a_log2 - row_log2[:, None], -np.inf)
    return -a, row_log2, by_row.max(axis=0), m, zeros


def _loop_log_derivative(a_neg, a_row_log2, a_col_log2, m, zeros, zr):
    """f'/f at each of ``zr`` for f(z) = det(diag(z**m) - A) / z**zeros, from
    the loop matrix P = diag(z**m) - A, with an error scale for it.

    P is equilibrated as R = D_r P D_c: rows, then columns, scaled by powers
    of two (exact) so that each has largest entry about one.  The scales are
    chosen from logarithms: ``a_row_log2`` holds the row maxima of log2|A|,
    ``a_col_log2`` the column maxima of log2|A| after each row is divided by
    its maximum (a bound on the column maxima after row scaling).  A power
    z**m_i outside the normal floating-point range is formed in logarithms
    together with its scales, so nothing under- or overflows however long a
    line is.  Then f'/f = (sum_i m_i t_i [R^-1]_ii - zeros) / z, where t_i
    is the scaled power d_r,i z**m_i d_c,i, at most a few in modulus.  An
    inverse computed with relative error eps moves this trace by about
    eps ||R^-1||^2 max(m), returned over |z| as the error scale (infinite
    where R is exactly singular or the ratio is not finite).
    """
    n = m.size
    log2_mod = np.log2(np.abs(zr))[:, None] * m
    row_exp = -np.rint(np.maximum(log2_mod, a_row_log2))
    col_exp = -np.rint(np.maximum(log2_mod + row_exp, a_col_log2))
    row_exp = row_exp.astype(np.int64)
    col_exp = col_exp.astype(np.int64)
    scale = row_exp + col_exp
    loop = np.ldexp(a_neg, row_exp[:, :, None] + col_exp[:, None, :]).astype(complex)
    lead = zr[:, None] ** m * np.ldexp(1.0, scale)
    # powers outside the normal range are formed in logarithms instead
    far = np.abs(log2_mod) > _POWER_LOG2_MAX
    if far.any():
        log_power = np.log(zr)[:, None] * m + scale * np.log(2.0)
        lead[far] = np.exp(log_power[far])
    loop[:, np.arange(n), np.arange(n)] += lead
    try:
        inv = np.linalg.inv(loop)
        exact = np.zeros(zr.size, dtype=bool)
    except np.linalg.LinAlgError:
        # an iterate sits on a point where R is exactly singular; a
        # placeholder inverse keeps the others' arithmetic finite
        exact = np.linalg.det(loop) == 0
        loop[exact] = np.eye(n)
        inv = np.linalg.inv(loop)
    logd = ((np.diagonal(inv, axis1=1, axis2=2) * (m * lead)).sum(axis=1) - zeros) / zr
    error = (_EPS * m.max()) * np.abs(inv).max(axis=(1, 2)) ** 2 / np.abs(zr)
    error[exact | ~np.isfinite(logd)] = np.inf
    return logd, error


def _poly_tables(coeffs):
    """Coefficient tables of g(z) = sum_j coeffs[j] z**j for
    :func:`_poly_log_derivative`: columns g, g' and their reversals in
    powers of w, and the absolute values of g and its reversal."""
    rev = coeffs[::-1]
    j = np.arange(1, coeffs.size)
    signed = np.zeros((coeffs.size, 4))
    signed[:, 0], signed[:-1, 1] = coeffs, coeffs[1:] * j
    signed[:, 2], signed[:-1, 3] = rev, rev[1:] * j
    return signed, np.abs(signed[:, ::2])


def _poly_log_derivative(tables, z):
    """g'/g at each z for g(z) = sum_j coeffs[j] z**j (``tables`` from
    :func:`_poly_tables`), and the residual |g(z)| / sum_j |coeffs[j]| |z|**j.
    Outside the unit circle g is evaluated as z**deg times the reversed
    polynomial in 1/z, so no power exceeds one in modulus."""
    signed, absolute = tables
    deg = signed.shape[0] - 1
    outside = np.abs(z) > 1.0
    w = np.where(outside, 1.0 / z, z)
    powers = np.empty((z.size, deg + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, None]
    np.cumprod(powers, axis=1, out=powers)
    # columns: g, g', reversed g, reversed g'; the form in use per row
    both = powers @ signed
    vals = np.where(outside[:, None], both[:, 2:], both[:, :2])
    sums = np.abs(powers) @ absolute
    resid = np.abs(vals[:, 0]) / np.where(outside, sums[:, 1], sums[:, 0])
    ratio = w * vals[:, 1] / vals[:, 0]
    return np.where(outside, deg - ratio, ratio) / z, resid


def _aberth_step(logd, repulsion, reach):
    """1 / (f'/f - sum_j 1/(z - z_j)), the plain Newton step 1 / (f'/f) where
    the Aberth denominator 1 - (f/f') sum_j 1/(z - z_j) is tiny, and no step
    longer than ``reach``; and the Aberth gap f'/f - sum_j 1/(z - z_j).
    Near the origin f'/f may underflow to zero; the step is then the
    repulsion term alone."""
    gap = logd - repulsion
    plain = np.abs(gap) < _ABERTH_TINY * np.abs(logd)
    step = 1.0 / np.where(plain, logd, gap)
    step[~np.isfinite(step)] = 0.0
    step *= np.minimum(1.0, reach / np.abs(step))
    return step, gap


def _coefficient_steps(tables, zr, radius, repulsion, reach):
    """Aberth steps and gaps for the iterates ``zr`` from the coefficient
    ``tables`` of f, and whether each has settled: its residual or step is
    at rounding level."""
    logd, resid = _poly_log_derivative(tables, zr)
    step, gap = _aberth_step(logd, repulsion, reach)
    settled = (resid <= 4.0 * tables[0].shape[0] * _EPS) | (np.abs(step) <= _STEP_TOL * radius)
    return step, gap, settled


def _aberth_steps(loop_args, tables, z, zr, rows, reach):
    """Aberth corrections and gaps (see :func:`_aberth_step`) for the
    iterates ``zr = z[rows]`` of the roots of f(z) = det(diag(z**m) - A) /
    z**zeros, whose coefficients give ``tables`` (:func:`_poly_tables`), and which
    of them have converged.

    The Newton ratio comes from the loop matrix (:func:`_loop_log_derivative`)
    wherever its error scale makes the step trustworthy: an estimated step
    error below a tenth of the step or below ``_LOOP_TRUST`` of |z|.  Such
    an iterate converges when its step is below ``_STEP_TOL`` of |z|.
    Elsewhere the loop matrix is too near singular for its trace to mean
    anything.  That happens at multiple roots, but also away from any root
    wherever a rank-deficient part of A meets long lines: there z**m_i is
    tiny and P is nearly -A.  Those iterates step by the coefficients of f
    (:func:`_poly_log_derivative`).  The coefficients settle them, and every
    iterate whose loop step is near its own noise floor (which can lie above
    ``_STEP_TOL``): it converges when their residual or step is at rounding
    level.  That stops multiple roots at their noise floor, and keeps a
    singular loop matrix away from any root from reading as one.  With
    ``loop_args`` None (orders below ``_COEFF_ORDER_RATIO`` N^2) the
    coefficients carry every iterate.
    """
    radius = np.abs(zr)
    diff = zr[:, None] - z
    diff[np.arange(rows.size), rows] = np.inf
    # in place: a fresh result array of this size costs more than the division
    np.divide(1.0, diff, out=diff)
    repulsion = diff.sum(axis=1)
    if loop_args is None:
        return _coefficient_steps(tables, zr, radius, repulsion, reach)
    logd, error = _loop_log_derivative(*loop_args, zr)
    step, gap = _aberth_step(logd, repulsion, reach)
    size = np.abs(step)
    step_error = size**2 * error
    trusted = (step_error <= 0.1 * size) | (step_error <= _LOOP_TRUST * radius)
    done = trusted & (size <= _STEP_TOL * radius)
    # negated so that a NaN step error (zero step, infinite error) counts
    check = ~done & ~(step_error <= _NOISY * size)
    if check.any():
        step_c, gap_c, settled = _coefficient_steps(
            tables, zr[check], radius[check], repulsion[check], reach
        )
        own = trusted[check]
        step[check] = np.where(own, step[check], step_c)
        gap[check] = np.where(own, gap[check], gap_c)
        done[check] = settled
    return step, gap, done


def _meetings(r, span):
    """Disjoint pairs (i, j) of neighbours among the real iterates ``r``
    whose step lengths ``span`` together reach across their distance."""
    order = sorted(range(len(r)), key=r.__getitem__)
    pairs = []
    last = -2
    for k in range(len(order) - 1):
        i, j = order[k], order[k + 1]
        if k > last + 1 and r[j] - r[i] <= span[i] + span[j]:
            pairs.append((i, j))
            last = k
    return pairs


def _quadratic_through(u, g):
    """(sum, product) of the roots of the real monic quadratic q with
    q'/q = ``g`` at the non-real point ``u``: q(u) = q'(u) / g is one
    complex equation, linear in the two real unknowns."""
    n = 1.0 / g
    lin = n - u
    rhs = 2.0 * u * n - u * u
    total = rhs.imag / lin.imag
    return total, rhs.real - total * lin.real


def _quadratic_between(r, gr, t, gt):
    """(sum, product) of the roots of the real monic quadratic q with
    q'/q = ``gr`` at ``r`` and ``gt`` at ``t`` (all real):
    (x^2 - S x + P) g = 2 x - S at both points, linear in P and S."""
    det = gr * (1.0 - t * gt) - gt * (1.0 - r * gr)
    br, bt = 2.0 * r - r * r * gr, 2.0 * t - t * t * gt
    return (gr * bt - gt * br) / det, (br * (1.0 - t * gt) - bt * (1.0 - r * gr)) / det


def _regroup(z, nu, active, zr, gap, done, near, meet, bound):
    """Settle whether the roots behind some iterates are real or complex.

    ``near`` flags the active pairs (the first ``near.size`` of ``active``)
    whose step reaches the real axis: a pair at x + iy is two iterates 2y
    apart.  ``meet`` lists pairs of active real iterates, counted from the
    first real one, whose steps reach each other.  ``zr`` holds the active
    iterates before this sweep's step, already applied to ``z``.  The
    Aberth gap of such an iterate without its partner's term is the log
    derivative of the quadratic factor of f on the two roots that the two
    iterates stand for, once the other iterates sit near their own roots.
    A real quadratic fitted to it decides: a pair whose quadratic has real
    roots within ``bound`` of the origin splits into two real iterates
    there, and two real iterates whose quadratic has complex roots merge
    into a pair there.  (An early fit can put real roots so far out that
    the step cap needs more sweeps than allowed to bring them back.)
    Returns the new (z, nu, active).
    """
    # numpy scalars: a zero divisor gives inf or nan under the caller's
    # errstate, and nan fails every test below
    gone, halves, merged = [], [], []
    for k in np.flatnonzero(near & ~done[: near.size]).tolist():
        u = zr[k]
        total, product = _quadratic_through(u, gap[k] - 0.5j / u.imag)
        disc = 0.25 * total * total - product
        if disc > 0.0 and abs(0.5 * total) + math.sqrt(disc) < bound:
            gone.append(active[k])
            halves += [0.5 * total - math.sqrt(disc), 0.5 * total + math.sqrt(disc)]
    for i, j in meet:
        i, j = near.size + i, near.size + j
        if done[i] or done[j]:
            continue
        r, t = zr[i].real, zr[j].real
        total, product = _quadratic_between(r, gap[i].real + 1.0 / (r - t), t, gap[j].real + 1.0 / (t - r))
        disc = 0.25 * total * total - product
        if disc < 0.0:
            gone += [active[i], active[j]]
            merged.append(complex(0.5 * total, math.sqrt(-disc)))
    if not gone:
        return z, nu, active[~done]
    keep = np.ones(z.size, dtype=bool)
    keep[gone] = False
    live = np.zeros(z.size, dtype=bool)
    live[active[~done]] = True
    # new iterates are active: merged pairs after the kept pairs, split
    # halves after the kept reals
    z = np.concatenate((z[:nu][keep[:nu]], merged, z[nu:][keep[nu:]], halves))
    fresh = np.ones(len(merged) + len(halves), dtype=bool)
    pairs, reals = live[:nu][keep[:nu]], live[nu:][keep[nu:]]
    live = np.concatenate((pairs, fresh[: len(merged)], reals, fresh[len(merged) :]))
    nu = pairs.size + len(merged)
    return z, nu, np.flatnonzero(live)


def _aberth_poles(fdn: FdnSystem, den, floor):
    """Roots of the loop determinant of ``fdn`` whose z^-1 coefficients are
    ``den``: the trailing coefficients below their rounding bounds ``floor``
    deflated as zero roots, the rest by Jacobi-style Ehrlich-Aberth sweeps
    from Newton-polygon start points.

    The coefficients are real, so the roots are closed under conjugation.
    The sweeps iterate one root of each conjugate pair and the real roots,
    kept exactly real; each iterate's Aberth sum runs over all roots, the
    mirrors included.  Where a pair's step reaches the real axis, or two
    real iterates' steps reach each other, :func:`_regroup` decides whether
    their roots are real or complex, so the count of real roots need not be
    known.  Converged roots leave the sweeps; the Aberth sums are taken in
    row chunks of at most ``_STACK_ENTRIES`` entries."""
    order = fdn.order
    den = np.asarray(den, dtype=float)
    deg = int(np.flatnonzero(np.abs(den) > floor)[-1])
    roots = np.zeros(order, dtype=complex)
    if deg == 0:
        return roots
    coeffs = den[deg::-1]
    upper, real = _newton_polygon_starts(coeffs)
    tables = _poly_tables(coeffs)
    # z[:nu] holds one iterate of each pair, z[nu:] the real ones
    z = np.concatenate((upper, real))
    nu = upper.size
    # No root lies much beyond the largest start circle, so no useful step is
    # longer than its diameter.  A cap proportional to |z| instead would let
    # an iterate that strays near the origin crawl back out by a constant
    # factor per sweep.
    reach = 2.0 * float(np.max(np.abs(z)))
    a = fdn.a
    chunk = max(1, _STACK_ENTRIES // max(deg + 1, a.size))
    active = np.arange(z.size)
    sweeps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        loop_args = None
        if deg >= _COEFF_ORDER_RATIO * a.size:
            loop_args = _loop_args(a, fdn.delays.as_array(), order - deg)
        while active.size:
            # active pairs come first; a pair stands for two roots
            na = int(np.searchsorted(active, nu))
            if sweeps == _MAX_SWEEPS:
                raise ConditioningError(
                    f"pole solve left {active.size + na} of {deg} roots unconverged after {sweeps} sweeps",
                    residual=float(np.max(np.abs(step[~done]))),
                )
            sweeps += 1
            full = np.concatenate((z, z[:nu].conj()))
            zr = full[active]
            if active.size <= chunk:
                step, gap, done = _aberth_steps(loop_args, tables, full, zr, active, reach)
            else:
                parts = [
                    _aberth_steps(loop_args, tables, full, zr[s : s + chunk], active[s : s + chunk], reach)
                    for s in range(0, active.size, chunk)
                ]
                step, gap, done = (np.concatenate(x) for x in zip(*parts))
            step[na:].imag = 0.0
            z[active] = zr - step
            near = np.abs(step[:na]) >= np.abs(zr[:na].imag)
            meet = []
            if active.size - na > 1:
                meet = _meetings(zr[na:].real.tolist(), np.abs(step[na:]).tolist())
            if meet or near.any():
                z, nu, active = _regroup(z, nu, active, zr, gap, done, near, meet, reach)
            else:
                active = active[~done]
    roots[:deg] = np.concatenate((z[:nu], z[:nu].conj(), z[nu:]))
    return roots


def stability_certificate(a, t) -> bool:
    """True when the diagonally scaled feedback matrix is a contraction:
    spectral norm of diag(t)^-1 A diag(t) strictly below one."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float).ravel()
    if np.any(t <= 0):
        raise ValueError("scaling vector must be strictly positive")
    scaled = (a * t[None, :]) / t[:, None]
    return bool(np.linalg.norm(scaled, 2) < 1.0)


def _allpass_grid(fdn: FdnSystem):
    order = fdn.order
    k = 4 * max(order, 1)
    omega = 2.0 * np.pi * np.arange(k) / k
    rng = np.random.default_rng(_GRID_SEED)
    omega = np.concatenate([omega, rng.uniform(0.0, 2.0 * np.pi, _GRID_RANDOM)])
    return np.exp(1j * omega)


def reversal_check(num, den):
    """Best-case deviation of ``num`` from +-1 times the reversed ``den``.

    Returns (deviation, sign).  A (near-)zero deviation is the coefficient
    form of the allpass property: numerator coefficients equal the
    denominator coefficients in reversed order up to a global sign.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    devs = [float(np.max(np.abs(num - s * den[::-1]))) for s in (+1.0, -1.0)]
    sign = +1 if devs[0] <= devs[1] else -1
    return min(devs), sign


def is_allpass(fdn: FdnSystem, tol=DEFAULT_TOL) -> AllpassReport:
    """Two independent allpass tests for the system's own delay vector.

    The grid test measures unitarity of H on 4 * order uniform plus a few
    random unit-circle points; the reversal test checks that the numerator of
    det H equals the reversed denominator up to sign.  Systems with a pole of
    modulus >= 1 (found as in :func:`poles`) are rejected with the full pole
    list.
    """
    _check_pole_order(fdn)
    den, floor = _gcp_terms(fdn.a, fdn.delays.as_array())
    pole_values = _aberth_poles(fdn, den, floor)
    if not np.all(np.abs(pole_values) < 1.0):
        raise UnstableError(pole_values)
    zs = _allpass_grid(fdn)
    h = frequency_response(fdn, zs)
    prod = h @ np.conj(np.swapaxes(h, 1, 2))
    eye = np.eye(fdn.n_io)
    grid_dev = float(np.max(np.abs(prod - eye)))
    num_det, _, _ = _numerator_fit(fdn, den, np.linalg.det)
    rev_dev, sign = reversal_check(num_det, den)
    return AllpassReport(
        allpass=bool(grid_dev < tol and rev_dev < tol),
        grid_deviation=grid_dev,
        reversal_deviation=rev_dev,
        sign=sign,
        tol=float(tol),
    )
