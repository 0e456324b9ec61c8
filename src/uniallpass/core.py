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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import PoleEvaluationError, UnstableError, ConditioningError
from .kernels import impulse_kernel, principal_minors_all
from .system import DelayVector, FdnSystem

DEFAULT_TOL = 1e-8
# extra unit-circle samples beyond order + 1 in the numerator fit
_FIT_PAD = 8


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
    """All ``order`` system poles: eigenvalues of the companion matrix of the
    generalized characteristic polynomial."""
    return polynomial_roots(denominator_poly(fdn))


def polynomial_roots(coeffs):
    """Roots of a z^-1-ascending polynomial read as monic-descending in z."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.size < 2:
        return np.zeros(0, dtype=complex)
    lead = coeffs[0]
    if abs(lead) < 1e-300:
        raise ValueError("degenerate polynomial: leading coefficient is zero")
    monic = coeffs[1:] / lead
    n = monic.size
    comp = np.zeros((n, n))
    comp[0, :] = -monic
    comp[np.arange(1, n), np.arange(n - 1)] = 1.0
    return np.linalg.eigvals(comp)


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
    det H equals the reversed denominator up to sign.  Unstable systems are
    rejected with the offending pole list.
    """
    den = denominator_poly(fdn)
    pole_values = polynomial_roots(den)
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
