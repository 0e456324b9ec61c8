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
ratio f/f' = 1 / trace(P^-1 P'), one small N x N inverse per root, and never
forms an order x order matrix.  Where P is too near singular for that trace
to mean anything, and for systems of order below N^2, where it is the
dearer evaluation, the ratio comes from the coefficients above instead.
Start points come from the Newton polygon of the same coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ConditioningError, FdnError, PoleEvaluationError, UnstableError
from .kernels import _STACK_ENTRIES, impulse_kernel, principal_minors_all
from .system import DelayVector, FdnSystem

DEFAULT_TOL = 1e-8
# extra unit-circle samples beyond order + 1 in the numerator fit
_FIT_PAD = 8
# Pole solve.  Each Aberth sweep costs O(order^2) pair terms, about 1e9 at
# the order limit, where one solve takes minutes.
_MAX_ORDER = 1 << 15
_MAX_SWEEPS = 100
# Start points sit this far (relative) off their Newton-polygon circle: the
# poles of a homogeneous design lie exactly on it, and starts there stall.
_START_OFFSET = 1e-3
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
    n = a.shape[0]
    order = int(m.sum())
    minors = principal_minors_all(a)
    masks = np.arange(1 << n)
    # per-bit accumulation keeps the sweep at a few 1-D arrays even at N = 20
    sizes = np.zeros(masks.size, dtype=np.int64)
    ksum = np.zeros(masks.size, dtype=np.int64)
    for i in range(n):
        bit = (masks >> i) & 1
        sizes += bit
        ksum += bit * m[i]
    signs = np.where((n - sizes) % 2 == 1, -1.0, 1.0)
    full = (1 << n) - 1
    coeffs_z = np.bincount(ksum, weights=signs * minors[full ^ masks], minlength=order + 1)
    return coeffs_z[::-1].copy()


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

    Simple poles come out to about machine precision relative to their
    modulus (they match companion-matrix eigenvalues to ~1e-13 at order 600).
    A pole of multiplicity k converges only linearly and is accepted at the
    noise floor of the determinant, roughly eps**(1/k): about 1e-5 for a
    triple pole.  Where the loop matrix is too near singular to trust, a
    root is accepted only when the coefficients of the loop determinant
    (:func:`gcp`) confirm it.  Orders above 2**15 raise
    :class:`FdnError` before the coefficients are formed; roots still moving
    after 100 sweeps raise :class:`ConditioningError`.
    """
    _check_pole_order(fdn)
    return _aberth_poles(fdn, denominator_poly(fdn))


def _check_pole_order(fdn: FdnSystem):
    if fdn.order > _MAX_ORDER:
        raise FdnError(f"pole solve limited to system order <= {_MAX_ORDER}, got {fdn.order}")


def _newton_polygon_starts(coeffs):
    """Start points for the roots of sum_j coeffs[j] z**j (nonzero constant
    and leading term).  Each edge of the upper convex hull of
    (j, log|coeffs[j]|) from j0 to j1 puts j1 - j0 points on the circle of
    radius (|coeffs[j0]| / |coeffs[j1]|)**(1 / (j1 - j0)) (Bini 1996), moved
    off that circle by ``_START_OFFSET`` and turned by ``_START_TURN`` of the
    angular spacing."""
    deg = coeffs.size - 1
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
    starts = np.empty(deg, dtype=complex)
    for i, j in zip(hull[:-1], hull[1:]):
        lo, count = xs[i], xs[j] - xs[i]
        radius = np.exp((ys[i] - ys[j]) / count) * (1.0 + _START_OFFSET)
        angles = 2.0 * np.pi * ((np.arange(count) + _START_TURN) / count + lo / deg)
        starts[lo : lo + count] = radius * np.exp(1j * angles)
    return starts


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


def _poly_log_derivative(coeffs, z):
    """g'/g at each z for g(z) = sum_j coeffs[j] z**j, and the residual
    |g(z)| / sum_j |coeffs[j]| |z|**j.  Outside the unit circle g is
    evaluated as z**deg times the reversed polynomial in 1/z, so no power
    exceeds one in modulus."""
    deg = coeffs.size - 1
    outside = np.abs(z) > 1.0
    w = np.where(outside, 1.0 / z, z)
    powers = np.empty((z.size, deg + 1), dtype=complex)
    powers[:, 0] = 1.0
    powers[:, 1:] = w[:, None]
    np.cumprod(powers, axis=1, out=powers)
    c = np.where(outside[:, None], coeffs[::-1], coeffs)
    val = np.einsum("kj,kj->k", powers, c)
    dval = np.einsum("kj,kj->k", powers[:, :-1], c[:, 1:] * np.arange(1, deg + 1))
    resid = np.abs(val) / np.einsum("kj,kj->k", np.abs(powers), np.abs(c))
    ratio = w * dval / val
    return np.where(outside, deg - ratio, ratio) / z, resid


def _aberth_step(logd, repulsion, reach):
    """1 / (f'/f - sum_j 1/(z - z_j)), the plain Newton step 1 / (f'/f) where
    the Aberth denominator 1 - (f/f') sum_j 1/(z - z_j) is tiny, and no step
    longer than ``reach``.  Near the origin f'/f may underflow to zero; the
    step is then the repulsion term alone."""
    gap = logd - repulsion
    step = 1.0 / gap
    plain = np.abs(gap) < _ABERTH_TINY * np.abs(logd)
    step[plain] = 1.0 / logd[plain]
    step[~np.isfinite(step)] = 0.0
    size = np.abs(step)
    damp = size > reach
    step[damp] *= reach / size[damp]
    return step


def _coefficient_steps(coeffs, zr, radius, repulsion, reach):
    """Aberth steps for the iterates ``zr`` from the coefficients of f, and
    whether each has settled: its residual or step is at rounding level."""
    logd, resid = _poly_log_derivative(coeffs, zr)
    step = _aberth_step(logd, repulsion, reach)
    settled = (resid <= 4.0 * coeffs.size * _EPS) | (np.abs(step) <= _STEP_TOL * radius)
    return step, settled


def _aberth_steps(loop_args, coeffs, z, rows, reach):
    """Aberth corrections for the iterates ``z[rows]`` of the roots of
    f(z) = det(diag(z**m) - A) / z**zeros, whose coefficients (ascending in
    z) are ``coeffs``, and which of them have converged.

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
    zr = z[rows]
    radius = np.abs(zr)
    diff = zr[:, None] - z
    diff[np.arange(rows.size), rows] = np.inf
    # in place: a fresh result array of this size costs more than the division
    np.divide(1.0, diff, out=diff)
    repulsion = diff.sum(axis=1)
    if loop_args is None:
        return _coefficient_steps(coeffs, zr, radius, repulsion, reach)
    logd, error = _loop_log_derivative(*loop_args, zr)
    step = _aberth_step(logd, repulsion, reach)
    size = np.abs(step)
    step_error = size**2 * error
    trusted = (step_error <= 0.1 * size) | (step_error <= _LOOP_TRUST * radius)
    done = trusted & (size <= _STEP_TOL * radius)
    # negated so that a NaN step error (zero step, infinite error) counts
    check = ~done & ~(step_error <= _NOISY * size)
    if check.any():
        step_c, settled = _coefficient_steps(
            coeffs, zr[check], radius[check], repulsion[check], reach
        )
        step[check] = np.where(trusted[check], step[check], step_c)
        done[check] = settled
    return step, done


def _aberth_poles(fdn: FdnSystem, den):
    """Roots of the loop determinant of ``fdn`` whose z^-1 coefficients are
    ``den``: exact zero roots deflated from its trailing zeros, the rest by
    Jacobi-style Ehrlich-Aberth sweeps from Newton-polygon start points.
    Converged roots leave the sweeps; the Aberth sums are taken in row
    chunks of at most ``_STACK_ENTRIES`` entries."""
    order = fdn.order
    den = np.asarray(den, dtype=float)
    deg = int(np.flatnonzero(den)[-1])
    roots = np.zeros(order, dtype=complex)
    if deg == 0:
        return roots
    coeffs = den[deg::-1]
    z = _newton_polygon_starts(coeffs)
    # No root lies much beyond the largest start circle, so no useful step is
    # longer than its diameter.  A cap proportional to |z| instead would let
    # an iterate that strays near the origin crawl back out by a constant
    # factor per sweep.
    reach = 2.0 * float(np.max(np.abs(z)))
    a = fdn.a
    chunk = max(1, _STACK_ENTRIES // max(deg + 1, a.size))
    active = np.arange(deg)
    sweeps = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        loop_args = None
        if deg >= _COEFF_ORDER_RATIO * a.size:
            loop_args = _loop_args(a, fdn.delays.as_array(), order - deg)
        while active.size:
            if sweeps == _MAX_SWEEPS:
                raise ConditioningError(
                    f"pole solve left {active.size} of {deg} roots unconverged after {sweeps} sweeps",
                    residual=float(np.max(np.abs(step[~done]))),
                )
            sweeps += 1
            step = np.empty(active.size, dtype=complex)
            done = np.empty(active.size, dtype=bool)
            for start in range(0, active.size, chunk):
                part = slice(start, start + chunk)
                step[part], done[part] = _aberth_steps(loop_args, coeffs, z, active[part], reach)
            z[active] -= step
            active = active[~done]
    roots[:deg] = z
    return roots


def is_stable(fdn: FdnSystem, margin=0.0):
    """(stable?, poles). Stable means every pole modulus < 1 - margin."""
    p = poles(fdn)
    return bool(np.all(np.abs(p) < 1.0 - margin)), p


def stability_certificate(a, t) -> bool:
    """True when the diagonally scaled feedback matrix is a contraction:
    spectral norm of diag(t)^-1 A diag(t) strictly below one."""
    a = np.asarray(a, dtype=float)
    t = np.asarray(t, dtype=float).ravel()
    if np.any(t <= 0):
        raise ValueError("scaling vector must be strictly positive")
    scaled = (a * t[None, :]) / t[:, None]
    return bool(np.linalg.norm(scaled, 2) < 1.0)


def _allpass_grid(fdn: FdnSystem, n_random=8, seed=0):
    order = fdn.order
    k = 4 * max(order, 1)
    omega = 2.0 * np.pi * np.arange(k) / k
    rng = np.random.default_rng(seed)
    omega = np.concatenate([omega, rng.uniform(0.0, 2.0 * np.pi, n_random)])
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


def is_allpass(fdn: FdnSystem, tol=DEFAULT_TOL, seed=0) -> AllpassReport:
    """Two independent allpass tests for the system's own delay vector.

    The grid test measures unitarity of H on 4 * order uniform plus a few
    random unit-circle points; the reversal test checks that the numerator of
    det H equals the reversed denominator up to sign.  Systems with a pole of
    modulus >= 1 (found as in :func:`poles`) are rejected with the full pole
    list.
    """
    _check_pole_order(fdn)
    den = denominator_poly(fdn)
    pole_values = _aberth_poles(fdn, den)
    if not np.all(np.abs(pole_values) < 1.0):
        raise UnstableError(pole_values)
    zs = _allpass_grid(fdn, seed=seed)
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
