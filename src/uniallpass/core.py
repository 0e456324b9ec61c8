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
A feedback matrix with homogeneous decay, A = U diag(gamma**m_i) with U
orthogonal, puts every pole on the circle |z| = gamma, up to the
Bauer-Fike radius gamma (||U U^T - I||_2 + N eps): f(z) = gamma**L g(z /
gamma) with g(w) = det(diag(w**m_i) - U), and on |w| = 1 g times
w**(-L/2) is a real function of the angle, up to a constant phase.  Where
that radius is at most 1e-12 gamma, :func:`poles` counts the sign changes
of that function on about 8 L points of the circle, then on about 32 L
where that count comes up short or its Newton steps in the angle do not
settle: each pass one zero-padded FFT of g's coefficients, of a 5-smooth
length, which also gives the function's first two derivatives there, and
the coefficients come once from its values at order / 2 + 1 roots of
unity, O(order N^3) work in all.  Each root starts at the root of the
quintic Hermite interpolant between its two samples, so one sweep of
Newton steps settles it: the step that would follow, bounded from the
interpolant's slope and curvature, is below the stopping tolerance.  Where
neither pass accounts for every root (close or multiple roots), and for
every other system, :func:`poles` finds all roots at once by
Ehrlich-Aberth iteration on f itself: with P(z) = diag(z**m_i) - A, each
sweep needs only the Newton ratio f/f' = 1 / trace(P^-1 P'), one small
N x N inverse per iterate of the plain loop matrix, and never forms an
order x order matrix.  Only this solve has budgets: orders up to 2**15,
as a sweep costs O(order^2), and N <= 20 for the principal-minor sweep
behind its coefficients.  Where P is too near singular or too badly scaled
for that trace to mean anything (its error estimate says so, and a power
z**m_i that under- or overflows makes it infinite), and for systems of
order below N^2, where it is the dearer evaluation, the ratio comes from
the coefficients above instead.
Trailing coefficients below the rounding bound of the minors that form them
are zero roots.  f is real, so its roots are closed under conjugation: the
sweeps iterate one root of each conjugate pair and the real roots, which
halves the inverses and the Aberth sums, and return exactly conjugate pairs
and exactly real roots.  Start points come from the Newton polygon of the
coefficients, in conjugate pairs; a pair that meets the real axis splits
into two real iterates and two real iterates that meet merge into a pair,
whichever a real quadratic fitted there says.

Stability needs no poles where A is a contraction in some norm that
diagonal matrices of modulus one preserve: if A x = diag(z**m_i) x with
|z| >= 1 then ||A x|| >= ||x||.  :func:`is_allpass` proves it, for every
delay vector at once, from ||A||_2 < 1 or from a positive v with |A| v < v
(||.||_inf after scaling by diag(v)), each with a rounding margin (see
:func:`_contraction_proof`).  A certified network that is no contraction
(Gardner chains, orthogonal splits with P < N) embeds in a lossless one,
whose poles all lie on the unit circle (Schlecht & Habets, IEEE TSP 2017):
a pole on or outside the circle would lie near one of them, and
:func:`_lossless_proof` counts them by the circle route's passes and rules
that out from the smallest singular value of the loop matrix at each.
Only where neither proof closes does :func:`is_allpass` take the poles
from :func:`poles`.

Loop matrices
-------------
Every stack of loop matrices diag(z**m_i) - X (for H itself, for the
circle route's determinants and Newton traces, for the Aberth sweeps'
Newton ratios, for the FFT denominator and numerator and for the lossless
route's singular values) comes from one helper that forms their diagonals
and reduces them in chunks of at most ``_LOOP_ENTRIES`` complex entries,
so no order leads to a large array.  X may be bordered by rows and columns
that carry no power.  Unit-circle points come as angles phi, with powers
exp(i m_i phi), or as indices j of K uniform nodes, with powers exp(2 pi i
(j m_i mod K) / K): z**m_i of a rounded z drifts off the circle by about
m_i eps.  The allpass test reads coefficients of loop determinants: the
denominator det(diag(z**m) - A), and the numerator of det H, the same
determinant bordered by B, C and D (Schur's determinant identity), each
one inverse real FFT of its values on the order / 2 + 1 upper-half nodes
of order + 1 uniform ones.  Its unitarity test evaluates H once, at the
order + 2 upper-half nodes of 2 order + 2 uniform ones and a few random
points, as angles.  :func:`numerator_poly` fits det(P) H, P the loop
matrix, on the upper half of the least 5-smooth count of nodes at or
above order + 9; the principal-minor sweep
of :func:`gcp`, limited to N <= 20, serves the Aberth solve and the
public coefficients only.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import ConditioningError, FdnError, PoleEvaluationError, UnstableError
from .kernels import _STACK_ENTRIES, impulse_kernel, principal_minors_all, subset_sums
from .system import DelayVector, FdnSystem, SystemMatrix, balance

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
# Aberth denominators below this fall back to the plain Newton step.
_ABERTH_TINY = 1e-8
# A feedback matrix U diag(gamma**m) takes the circle route when the
# Bauer-Fike radius of its poles about gamma is at most this fraction of gamma.
_HOMOGENEOUS_RADIUS = 1e-12
# Samples of the real circle function per pole over (0, pi) in the circle
# route's passes, 8 and then 32 per pole on the whole circle, each count
# rounded up to a 5-smooth FFT length.  At 4 per
# circle, close roots shared a sample interval (and fell back) in 26 of 180
# long-delay and 3 of 180 paper-scale designs.
_CIRCLE_SAMPLES = (4, 16)
# Complex entries per stack of loop matrices, 256 KB.  At 2^17 (2 MB) the
# lossless count's 32 L pass set a process's peak memory at small orders,
# and was no faster.
_LOOP_ENTRIES = 1 << 14
# The lossless embedding is tried only where ||V^T V - I||_2 of the balanced
# system matrix is at most this (rounding level for a certified one).
_LOSSLESS_DELTA = 1e-10
# Largest impulse response, in (length, P, P) entries: 512 MB of float64,
# and as much again for its (P, P, length) copy.  A 48k-sample render of
# N = P = 8 holds 3.1e6 entries.
_RENDER_ENTRIES = 1 << 26


@dataclass(frozen=True)
class AllpassReport:
    """Outcome of the two-sided allpass test for a specific delay vector.

    ``grid_deviation`` is the largest entry of ``|H H* - I|`` over the
    evaluation grid, 2 order + 2 uniform and 8 random unit-circle points,
    the uniform ones taken by conjugate symmetry from their upper half;
    ``reversal_deviation`` is the largest coefficient mismatch between the
    numerator of det H, a bordered loop determinant, and the sign-flipped,
    order-reversed denominator; ``sign`` is the +-1 factor that minimized
    it.
    """

    allpass: bool
    grid_deviation: float
    reversal_deviation: float
    sign: int
    tol: float


def _loop_chunks(x, points, powers, reduce):
    """``reduce(P, p)`` over chunks of the 1-D ``points``, p = powers(chunk)
    the (k, N) diagonals of the stacked complex loop matrices P =
    diag(p[k], 0) - X: an X larger than N x N is bordered, and its last
    rows and columns carry no power.  Each chunk holds at most
    ``_LOOP_ENTRIES`` entries, and only one chunk's stack exists at a time.
    The results are concatenated along the first axis."""
    n = x.shape[0]
    chunk = max(1, _LOOP_ENTRIES // x.size)
    parts = []
    for start in range(0, points.size, chunk):
        power = powers(points[start : start + chunk])
        diag = np.arange(power.shape[1])
        loop = np.negative(x, out=np.empty((power.shape[0], n, n), dtype=complex))
        loop[:, diag, diag] += power
        parts.append(reduce(loop, power))
        # freed before the next chunk's stack is built
        del loop
    return np.concatenate(parts)


def _smooth_length(n):
    """The least 2**a 3**b 5**c >= n: an FFT length with no prime factor
    above 5, where a length with a large prime factor (5409 = 3**2 601)
    takes the FFT several times longer."""
    best = 1 << max(n - 1, 0).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # odd 2**k with the least k that reaches n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _unit_powers(m):
    """Powers of the points exp(i phi), given the angles phi, as exp(i m
    phi): of modulus one to rounding, where w**m from a rounded w drifts off
    the circle by about m eps."""
    return lambda phi: np.exp(1j * phi[:, None] * m)


def _node_powers(m, count):
    """Powers of the nodes z_j = exp(2 pi i j / K), K = ``count``, given the
    indices j: z_j**m = exp(2 pi i (j m mod K) / K), reduced exactly in
    integers."""
    return lambda j: np.exp(2j * np.pi * ((j[:, None] * m) % count) / count)


def _point_powers(m):
    """Powers z**m of the complex points z themselves."""
    return lambda z: z[:, None] ** m


def frequency_response(fdn: FdnSystem, zs):
    """Evaluate H at a 1-D array of z values; returns (len(zs), P, P)."""
    zs = np.atleast_1d(np.asarray(zs, dtype=complex))
    if np.any(zs == 0):
        raise ValueError("transfer function is undefined at z = 0")
    return _responses(fdn, zs, _point_powers, lambda loop, h: h)


def _responses(fdn: FdnSystem, points, powers, reduce):
    """``reduce(P, H)`` over chunks of the 1-D ``points`` of at most
    ``_LOOP_ENTRIES`` loop matrix entries (:func:`_loop_chunks`), H the
    (k, P, P) values of the transfer function and P the loop matrices it
    solves, concatenated along the first axis.  ``powers(m)`` maps the
    points to their powers z**m: :func:`_unit_powers` for angles,
    :func:`_node_powers` for node indices, :func:`_point_powers` for z.  A
    point where the loop matrix is singular raises
    :class:`PoleEvaluationError` with its z."""
    m = fdn.delays.as_array()

    def response(loop, _):
        x = np.linalg.solve(loop, np.broadcast_to(fdn.b, (loop.shape[0],) + fdn.b.shape))
        return reduce(loop, np.einsum("pn,knq->kpq", fdn.c, x) + fdn.d)

    try:
        return _loop_chunks(fdn.a, points, powers(m), response)
    except np.linalg.LinAlgError:
        dets = _loop_chunks(fdn.a, points, powers(m), lambda loop, _: np.linalg.det(loop))
        # a point's z is its power for a delay of one
        raise PoleEvaluationError(powers(np.ones(1, dtype=int))(points)[np.argmin(np.abs(dets)), 0]) from None


def check_tolerance(tol) -> float:
    """``tol`` as a float; raises ValueError unless it is finite and
    positive (a NaN tolerance fails every comparison, an infinite one passes
    every residual, and a non-positive one refuses an exact result)."""
    value = float(tol)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    return value


def impulse_response(fdn: FdnSystem, length: int):
    """Time-domain response tensor of shape (P, P, length).

    Entry [p, q, n] is output channel p at sample n when a unit impulse
    drives input channel q.  The recursion keeps the line outputs in one
    sliding window, a row per sample, and advances all lines in blocks of
    max(min(delays), 64) samples (fewer where N is large, see
    :func:`uniallpass.kernels.block_size`): one pair of matrix products per
    block, and one more with a lifted map for the lines shorter than a
    block.  ``length`` must be a Python or numpy integer, not a bool;
    anything else raises TypeError.  An overflow raises FdnError, and so
    does, before anything is allocated, a response of more than 2**26
    entries (length P^2, 512 MB of float64).
    """
    if isinstance(length, bool) or not isinstance(length, (int, np.integer)):
        raise TypeError(f"length must be an integer, got {length!r}")
    length = int(length)
    if length < 1:
        raise ValueError("length must be >= 1")
    if length * fdn.n_io**2 > _RENDER_ENTRIES:
        raise FdnError(
            f"impulse response of {length} samples and {fdn.n_io}x{fdn.n_io} channels exceeds "
            f"the render budget of {_RENDER_ENTRIES} entries"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        h = impulse_kernel(fdn.a, fdn.b, fdn.c, fdn.d, fdn.delays.as_array(), length)
    bad = np.flatnonzero(~np.all(np.isfinite(h), axis=(1, 2)))
    if bad.size:
        raise FdnError(f"impulse response is not finite from sample {bad[0]}")
    return np.ascontiguousarray(np.transpose(h, (1, 2, 0)))


def _ordered_subsets(n: int):
    """All subsets of range(n) sorted by (cardinality, lexicographic)."""
    return list(_Subsets(n))


@functools.lru_cache(maxsize=None)
def _ordered_masks(n: int):
    """Bitmasks of :func:`_ordered_subsets` (n), in the same order, built
    once per n and read-only.

    Two subsets of equal size compare lexicographically as their masks with
    the bit order reversed compare descending: the first index where they
    differ is the highest bit where the reversed masks differ.
    """
    sizes = subset_sums(np.ones(n, dtype=np.int8))
    reversed_masks = subset_sums(1 << np.arange(n - 1, -1, -1))
    masks = np.lexsort((-reversed_masks, sizes))
    masks.flags.writeable = False
    return masks


class _Subsets(Sequence):
    """The subsets of range(n) in the order of :func:`_ordered_masks` (n),
    read-only, each index tuple formed only when it is read, so that no
    call holds 2^n tuples (over 100 MB at n = 20).  Slices are lists of
    tuples, and the sequence equals any sequence of the same tuples in the
    same order."""

    def __init__(self, n):
        self._n = n
        self._masks = _ordered_masks(n)

    def __len__(self):
        return self._masks.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._subset(mask) for mask in self._masks[index].tolist()]
        return self._subset(int(self._masks[operator.index(index)]))

    def _subset(self, mask):
        return tuple(i for i in range(self._n) if mask >> i & 1)

    def __iter__(self):
        # combinations run in (cardinality, lexicographic) order, the masks'
        return chain.from_iterable(combinations(range(self._n), k) for k in range(self._n + 1))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(other) == len(self) and all(a == b for a, b in zip(self, other))


def principal_minor_list(m):
    """Principal minors of one N x N matrix; any other shape raises
    ValueError.

    Returns (subsets, values): ``subsets`` is a read-only sequence of the
    2^N index tuples in (cardinality, lexicographic) order, each formed
    only when it is read (indexing, slices, iteration, ``==`` against a
    list of tuples), and ``values[k]`` is the minor on ``subsets[k]``."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"principal_minor_list needs one square matrix (N, N), got shape {m.shape}")
    n = m.shape[-1]
    minors = principal_minors_all(m)
    return _Subsets(n), minors[_ordered_masks(n)]


def gcp(a, delays):
    """Generalized characteristic polynomial of (A, m), ascending in z^-1.

    The returned vector has length order + 1 and is monic: ``coeffs[0] == 1``.
    Its roots (see :func:`poles`) are the system poles.  With unit delays it
    reduces to the ordinary characteristic polynomial of A.  It sums the
    2^N principal minors of A from one Schur-complement sweep
    (:func:`principal_minors_all`, O(2^N) flops), so N > 20 raises
    :class:`FdnError`.
    """
    a = np.asarray(a, dtype=float)
    m = delays.as_array() if isinstance(delays, DelayVector) else DelayVector(delays).as_array()
    if a.ndim != 2 or a.shape != (m.size, m.size):
        raise ValueError(f"gcp needs an N x N matrix A and N delays, got A of shape {a.shape} and {m.size} delays")
    return _gcp_terms(a, m)[0]


def _gcp_terms(a, m):
    """The :func:`gcp` coefficients of (A, m) and a rounding bound for each.

    The sweep (:func:`principal_minors_all`) forms each k x k principal
    minor on I + J as det A[I], the product of the pivots of a
    symmetrically pivoted LU factorization of A[I] read off the Schur
    complements along its path, times the last pivot or a closed-form minor
    of the Schur complement S_J of order |J| <= 4.  That LU is exact for
    A[I] with each row perturbed by about k eps times the largest entry the
    row reaches in those Schur complements (Higham, Accuracy and Stability
    of Numerical Algorithms, 9.3).  The closed form errs by at most c eps
    prod ||r_i|| over the rows r_i of S_J, c <= 1, 3, 6.5 for |J| = 2, 3,
    4, by |ad| + |bc| <= ||r_1|| ||r_2|| and sum_q |M_01(q)| |M_23(q')| <=
    ||r_0 ^ r_1|| ||r_2 ^ r_3|| <= prod ||r_i|| over the column pairs q:
    less than Hadamard's inequality allows for S_J with each row perturbed
    by |J| eps times its largest entry.  Each such entry is at most the
    row's own largest entry in A times the path growth g >= 1 that the
    sweep carries per minor.  So by Hadamard's inequality the minor's error
    is at most about k^2 eps g times the product of its rows' norms in A
    (zero for the empty minor).  A coefficient's bound is the sum of the
    bounds of the minors that form it; one below its bound cannot be told
    from zero.  N > 20 raises :class:`FdnError` before the sweep.
    """
    n = a.shape[0]
    order = int(m.sum())
    minors, bounds = principal_minors_all(a, growth=True)
    # in place on the sweep's two arrays, indexed by subset (bitmask): the
    # sign (-1)**|J| on each minor, and on each path growth the product of
    # its rows' norms (a zero row gives exactly zero minors, and its tiny
    # norm makes their bound negligible), then |J|^2 eps
    norms = np.maximum(np.linalg.norm(a, axis=1), np.finfo(float).tiny)
    for i in range(n):
        minors.reshape(-1, 2, 1 << i)[:, 1] *= -1.0
        bounds.reshape(-1, 2, 1 << i)[:, 1] *= norms[i]
    sizes = subset_sums(np.ones(n, dtype=np.int8))
    bounds *= sizes
    bounds *= sizes
    bounds *= _EPS
    del sizes
    # the minor on J forms the coefficient of z**sum(m[I]) for I the
    # complement of J, which is that of z**-sum(m[J]) in the z^-1 form
    ksum = subset_sums(np.asarray(m, dtype=np.intp))
    coeffs = np.bincount(ksum, weights=minors, minlength=order + 1)
    return coeffs, np.bincount(ksum, weights=bounds, minlength=order + 1)


def _node_coefficients(x, m):
    """z^-1 coefficients of the loop determinant det(diag(z**m, 0) - X)
    z**-order, order = sum(m), of a real square X whose rows and columns
    after the first m.size (a border, possibly empty) carry no power, from
    its values on the K = order + 1 uniform unit-circle nodes z_j = exp(2 pi
    i j / K).  There a z^-1 polynomial of degree order is the DFT of its
    coefficients, and X is real, so the nodes with 0 <= j <= K / 2 give them
    by one inverse real FFT, to an absolute error of about eps times the
    largest |det| on the circle."""
    count = int(m.sum()) + 1
    j = np.arange(count // 2 + 1)
    dets = _loop_chunks(x, j, _node_powers(m, count), lambda loop, _: np.linalg.det(loop))
    # z_j**-order = z_j, as order = K - 1
    return np.fft.irfft(dets * np.exp(2j * np.pi * j / count), count)


def _circle_denominator(a, m):
    """The :func:`gcp` coefficients of (A, m): the unbordered
    :func:`_node_coefficients`, with ``coeffs[0]`` set to its exact value
    1."""
    coeffs = _node_coefficients(a, m)
    coeffs[0] = 1.0
    return coeffs


def _circle_numerator(fdn: FdnSystem, u):
    """z^-1 coefficients of the numerator of det H over the denominator
    :func:`_circle_denominator`: det(diag(z**m) - A) det H(z) z**-order.
    By the Schur determinant identity det([[P, -B], [-C, -D]]) = det P
    det(-D - C P^-1 B) = (-1)**P det P det H for the loop matrix P =
    diag(z**m) - A, so it is (-1)**P times the :func:`_node_coefficients`
    of the system matrix [[A, B], [C, D]] bordered by its P outputs.  Both
    sides are polynomials in z, so no H, no solve and no D^-1 enter, and a
    singular P or D is no exception.  ``u`` is that system matrix
    (:class:`SystemMatrix` of ``fdn``)."""
    return (-1.0) ** fdn.n_io * _node_coefficients(u, fdn.delays.as_array())


def numerator_poly(fdn: FdnSystem, tol=1e-6):
    """Numerator coefficients of H(z), shape (P, P, order + 1), ascending in
    z^-1: the z^-1 polynomial det(P) H z**-order, P = diag(z**m) - A the
    loop matrix, sampled on the upper half, 0 <= omega <= pi, of K uniform
    unit-circle nodes z_j (the lower half holds their conjugates), K the
    least 5-smooth length at or above order + 1 + 8, with z_j**m and
    z_j**-order reduced in integers.  There the least-squares polynomial
    fit is a DFT, so one inverse real FFT recovers the coefficients.

    Returns (coefficients, fit residual): the largest mismatch between the
    fitted polynomial and the samples.  A residual above ``tol`` times the
    sample magnitude raises :class:`ConditioningError`.
    """
    tol = check_tolerance(tol)
    count = _smooth_length(fdn.order + 1 + _FIT_PAD)
    j = np.arange(count // 2 + 1)
    samples = _responses(
        fdn, j, lambda m: _node_powers(m, count), lambda loop, h: np.linalg.det(loop)[:, None, None] * h
    )
    # z_j**-order = z_j**(K - order)
    samples *= _node_powers(np.array([count - fdn.order]), count)(j)[:, :, None]
    coeffs = np.fft.irfft(samples, count, axis=0)[: fdn.order + 1]
    resid = float(np.max(np.abs(np.fft.rfft(coeffs, count, axis=0) - samples)))
    if resid > tol * max(1.0, float(np.max(np.abs(samples)))):
        raise ConditioningError(
            f"numerator fit residual {resid:.3g} exceeds tolerance", residual=resid
        )
    return np.moveaxis(coeffs, 0, -1), resid


def poles(fdn: FdnSystem):
    """All ``order`` system poles: the roots of det(diag(z**m_i) - A).

    With homogeneous decay, A = U diag(gamma**m_i) and U orthogonal to within
    a pole radius gamma (||U U^T - I||_2 + N eps) of at most 1e-12 gamma,
    the poles are gamma times the sign changes of a real function on the
    unit circle on about 8 L, then 32 L samples (the least 5-smooth counts
    at or above them, one FFT each), at any order and N.  Each starts at the
    root of the quintic Hermite interpolant of the function and its first
    two derivatives at the two samples around it, from the same FFT, and
    is refined by Newton steps in the angle that bisect where a step would
    leave its bracket; a loop matrix that is exactly singular marks a root.
    A root is accepted after its first step when the next step, at most
    about |r''/(2 r')| s^2 for a step s, is shown to be below 4 eps pi by
    bounds on the interpolant's error, on r''' and on the steps' rounding
    (see :func:`_circle_poles`); the others step on until a step is that
    short.
    They are returned with modulus gamma, which is within that radius of
    every true modulus; their angles match the Aberth poles to about 1e-15
    at order 600.  Where neither count accounts
    for every pole (close or multiple poles), and for every other system,
    the poles come from simultaneous Ehrlich-Aberth iteration on the loop
    determinant itself.

    The result is exactly closed under conjugation, with real poles exactly
    real.  Aberth's simple poles come out to about machine precision
    relative to their modulus (they match companion-matrix eigenvalues to
    ~1e-13 at order 600).  A pole of multiplicity k converges only linearly
    and is accepted at the noise floor of the determinant, roughly
    eps**(1/k): about 1e-5 for a triple pole.  Where the loop matrix is too
    near singular to trust, a root is accepted only when the coefficients
    of the loop determinant (:func:`gcp`) confirm it.  For this solve alone,
    orders above 2**15, and N above the coefficients' sweep budget of 20,
    raise :class:`FdnError` before the coefficients are formed; roots still
    moving after 100 sweeps raise :class:`ConditioningError`.
    """
    m = fdn.delays.as_array()
    factor = _homogeneous_factor(fdn.a, m)
    if factor is not None:
        gamma, u, _ = factor
        roots = _circle_poles(u, m, gamma, _circle_denominator(u, m))
        if roots is not None:
            return roots
    if fdn.order > _MAX_ORDER:
        raise FdnError(f"pole solve limited to system order <= {_MAX_ORDER}, got {fdn.order}")
    return _aberth_poles(fdn, *_gcp_terms(fdn.a, m))


def _pole_radius(gamma, u):
    """Bound on | |z| - gamma | over the poles of a network with feedback
    matrix ``u`` diag(gamma**m), for any delays m: gamma (||U U^T - I||_2 +
    N eps).  The poles are gamma times those of U alone, eigenvalues of the
    lossless network's state matrix, which is orthogonal for an orthogonal
    U (Schlecht & Habets, IEEE TSP 2017); Bauer-Fike puts them within
    ||U U^T - I||_2 of the unit circle, and N eps covers the rounding of
    U diag(gamma**m)."""
    n = u.shape[0]
    rho = np.linalg.norm(u @ u.T - np.eye(n), 2)
    return float(gamma * (rho + n * _EPS))


def _contraction_proof(a):
    """True when every pole of a network with feedback matrix ``a`` lies
    strictly inside the unit circle, for every delay vector.

    A pole z with |z| >= 1 has A x = D x for some x != 0 and D =
    diag(z**m_i), and every norm with ||D y|| >= ||y|| for such D then gives
    ||A|| >= 1.  Two such norms are tried:

    (i) the spectral norm.  LAPACK's SVD returns the singular values of
        A + E with ||E||_2 of order N eps ||A||_2 (a 1 x 1 matrix's exactly),
        so ||A||_2 (1 + N^2 eps) < 1 proves it with a factor N to spare;
    (ii) ||y||_v = max_i |y_i| / v_i for v = (I - |A|)^-1 1, a positive
        vector with |A| v < v whenever the spectral radius of |A| is below
        one; then ||A||_v = max_i (|A| v)_i / v_i.  Any computed v > 0
        serves.  The N nonnegative products of a row of |A| v sum in
        floating point to within a relative N u / (1 - N u), u = eps / 2,
        and the product by 1 + (N + 2) eps rounds by u more, so
        fl(|A| v) (1 + (N + 2) eps) < v proves |A| v < v.
    """
    n = a.shape[0]
    if np.linalg.norm(a, 2) * (1.0 + n * n * _EPS) < 1.0:
        return True
    absolute = np.abs(a)
    try:
        v = np.linalg.solve(np.eye(n) - absolute, np.ones(n))
    except np.linalg.LinAlgError:
        return False
    return bool(np.all((v > 0.0) & (v < np.inf)) and np.all(absolute @ v * (1.0 + (n + 2) * _EPS) < v))


def _stein_diagonal(a, b):
    """d with (I - A o A) d = rowsum(B o B): the diagonal of the Stein
    equation X - A X A^T = B B^T, which every certifying dsim solves, N
    unknowns; None where that system is singular."""
    try:
        return np.linalg.solve(np.eye(a.shape[0]) - a * a, np.sum(b * b, axis=1))
    except np.linalg.LinAlgError:
        return None


def _lossless_proof(fdn: FdnSystem, u):
    """True when the lossless embedding of a certified network proves that
    every pole of ``fdn`` lies strictly inside the unit circle; False
    wherever the argument below does not close.  ``u`` is the system matrix
    [[A, B], [C, D]] of ``fdn``.

    Let d solve the Stein diagonal (:func:`_stein_diagonal`), T =
    sqrt(diag(d, 1_P)) and V = T^-1 U T the balanced system matrix, with
    delta = ||V^T V - I||_2 plus 16 (N + P) eps for the rounding of V, of
    V^T V and of its norm.  Only d > 0 with delta <= ``_LOSSLESS_DELTA``
    enters: a certified network, whose V is orthogonal.  A_bal = V[:N, :N]
    is a diagonal similarity of A, so the loop determinants, and the poles,
    agree.

    (i) A pole z with |z| >= 1 has A_bal x = diag(z**m) x, ||x|| = 1, and
        ||V [x; 0]||^2 <= 1 + delta gives |z|**(2 m_min) <= 1 + delta and
        ||c_bal x||^2 <= delta.
    (ii) Lift x to the state of the lossless network with feedback matrix V
        and delays (m, 1_P) in which line i holds x_i z**k: its state matrix
        S moves it to z times itself but for c_bal x on the P unit lines, and
        its norm squared is at least mu = sum_i m_i |x_i|^2.  The state
        matrix S_Q of the orthogonal polar factor Q of V is orthogonal and
        differs from S by at most ||V - Q||_2 <= delta on the line outputs,
        so Bauer-Fike (constant 1) puts an eigenvalue of S_Q within
        (sqrt(delta) + delta) / sqrt(mu) of z.
    (iii) The L + P roots w_j of det(diag(w**m, w 1_P) - V), counted by
        :func:`_circle_poles`, lie within 2 delta of the eigenvalues of S_Q
        (delta from S_Q to S, and delta, their pole radius, from S to the
        roots).  Every root found,
        and no two within 2 r, r = sqrt(delta) + 3 delta, match them one to
        one, so |z - w_j| <= (sqrt(delta) + delta) / sqrt(mu) + 2 delta <= r
        for some j.
    (iv) Then sigma_min(diag(w_j**m) - A_bal) <= ||(diag(w_j**m) -
        diag(z**m)) x|| <= (1 + r)**m_max (sqrt(m_max) (sqrt(delta) +
        delta) + 2 m_max delta), as |w**k - z**k| <= k |w - z| (1 + r)**k
        and sum_i m_i^2 |x_i|^2 <= m_max mu.

    So sigma_min above that bound at every w_j, plus 4 (N^2 + m_max) eps
    for the SVD (of order N eps ||.||_2, with ||.||_2 <= 3) and the powers
    exp(i m phi), rules out every pole on or outside the circle.  A short
    count, roots within 2 r or a sigma_min below the bound return False.
    """
    a, m = fdn.a, fdn.delays.as_array()
    n = m.size
    d = _stein_diagonal(a, fdn.b)
    if d is None or not np.all((d > 0.0) & (d < np.inf)):
        return False
    v = balance(u, np.concatenate((d, np.ones(fdn.n_io))))
    size = v.shape[0]
    delta = float(np.linalg.norm(v.T @ v - np.eye(size), 2)) + 16.0 * size * _EPS
    if not delta <= _LOSSLESS_DELTA:
        return False
    lines = np.concatenate((m, np.ones(fdn.n_io, dtype=m.dtype)))
    roots = _circle_poles(v, lines, 1.0, _circle_denominator(v, lines))
    if roots is None:
        return False
    radius = math.sqrt(delta) + 3.0 * delta
    phi = np.sort(np.angle(roots))
    gaps = np.diff(phi, append=phi[0] + 2.0 * np.pi)
    if not np.all(2.0 * np.sin(0.5 * gaps) > 2.0 * radius):
        return False
    # A_bal is real: a conjugate root gives the same singular values
    upper = phi[phi >= 0.0]
    smallest = _loop_chunks(
        v[:n, :n], upper, _unit_powers(m), lambda loop, _: np.linalg.svd(loop, compute_uv=False)[:, -1]
    )
    top = int(m.max())
    bound = (1.0 + radius) ** top * (math.sqrt(top) * (math.sqrt(delta) + delta) + 2.0 * top * delta)
    return bool(np.all(smallest > bound + 4.0 * (n * n + top) * _EPS))


def _homogeneous_factor(a, m):
    """(gamma, U, radius) when A = U diag(gamma**m) with U orthogonal to
    within a pole radius (:func:`_pole_radius`) of at most
    ``_HOMOGENEOUS_RADIUS`` gamma; None otherwise.  gamma is read off the
    column norms ||a_j|| = gamma**m_j, from the longest line."""
    with np.errstate(divide="ignore", over="ignore", under="ignore", invalid="ignore"):
        norms = np.linalg.norm(a, axis=0)
        if not np.all(norms > 0.0):
            return None
        rates = norms ** (1.0 / m)
        gamma = float(rates[np.argmax(m)])
        if not np.all(np.abs(rates - gamma) <= _HOMOGENEOUS_RADIUS * gamma):
            return None
        u = a / np.power(gamma, m.astype(float))
    if not np.all(np.isfinite(u)):
        return None
    radius = _pole_radius(gamma, u)
    if radius > _HOMOGENEOUS_RADIUS * gamma:
        return None
    return gamma, u, radius


def _circle_samples(u, m, den, count):
    """(phi, r, bound): r = g(w) w**(-L/2) and its first and second
    derivatives in phi, stacked (3, count), at the ``count`` angles phi_k =
    pi (k + 1/2) / count of the upper half circle, w = exp(i phi), for g(w)
    = det(diag(w**m) - U) of order L, and a bound on the error of every r.

    ``den`` is :func:`_circle_denominator` (U, m), the z^-1 coefficients of
    g, so g(w) w**(-L/2) = sum_k den_k w**(L/2 - k), whose derivatives in
    phi weight den_k by i (L/2 - k) and by its square.  At w = exp(2 pi i
    (k + 1/2) / M), M = 2 count >= K = L + 1, each sum is the length-M DFT
    of the weighted den_k exp(-i pi k / M), times w**(L/2): one zero-padded
    FFT of the three stacked rows gives every sample.  Every power
    of a root of unity here has its exponent reduced exactly in integers,
    so its angle is below 2 pi, rounded by at most 1.5 eps relative, and
    the power is within 12 eps of exact.  The bound adds up three errors:

    - den interpolates the node determinants of P_j = diag(z_j**m) - U.
      LU is exact for P_j with each row perturbed by about N eps of its
      norm a_i = (1 - 2 u_ii Re z_j**m_i + ||u_i||^2)**(1/2), and the
      rounded powers add 12 eps to row i, so by Hadamard's inequality the
      determinant is off by at most eps (N^2 prod_i a_i + 12 sum_i
      prod_{k != i} a_k), and the twist by z_j adds 12 eps prod_i a_i.  Let
      beta be the largest of these over the nodes.  The node errors move
      the interpolant by at most beta Lambda_K on the circle, Lambda_K <=
      3 + ln(K / 2) the Lebesgue constant of the K-th roots of unity: the
      Lagrange basis has |l_j(exp(i t))| = |sin(K t / 2)| / (K |sin(t /
      2)|), t the angle to node j, at most 1 for the nearest node on either
      side and at most 1 / (2 s) for the s-th next one, s <= K / 2.
    - den_0 pinned to its exact 1 moves every value by at most that
      coefficient's error, a mean of node errors: beta more.
    - The inverse real FFT of length K and the FFT of length M each err by
      about eps log2(length) of their output in the 2-norm (Higham,
      Accuracy and Stability of Numerical Algorithms, 24.1), and the twist
      of den and the product by w**(L/2) by 12 eps each, relative to values
      of modulus at most ||den||_1 <= sqrt(M) ||den||_2.  On any one sample
      that is at most eps (24 + log2(K M)) sqrt(M) ||den||_2.

    So bound = beta (4 + ln(K / 2)) + eps (24 + log2(K M)) sqrt(M)
    ||den||_2.  Either the crude K beta in place of beta Lambda_K, or the
    a priori row norms 1 + ||u_i|| in place of a_i and of ||den||_2, drops
    enough genuine samples to count short on seeded N = 18 and 19 designs
    whose per-sample determinants close."""
    n, order = m.size, den.size - 1
    nodes, size = order + 1, 2 * count
    k = np.arange(count)
    phi = np.pi * (k + 0.5) / count
    twisted = den * np.exp(-1j * np.pi * np.arange(nodes) / size)
    slope = 1j * (0.5 * order - np.arange(nodes))
    # w**(L/2) = exp(i pi (2 k + 1) L / (2 M))
    half = np.exp(0.5j * np.pi * (((2 * k + 1) * order) % (4 * size)) / size)
    rotated = np.fft.fft(np.stack((twisted, slope * twisted, slope * slope * twisted)), size)[:, :count] * half
    j = np.arange(nodes // 2 + 1)
    # Re z_j**m_i, and a_i at each node (clipped at 0 against rounding)
    real = np.cos(2.0 * np.pi * ((j[:, None] * m) % nodes) / nodes)
    rows = np.sqrt(np.maximum(1.0 - 2.0 * np.diagonal(u) * real + np.sum(u * u, axis=1), 0.0))
    # prod_i a_i and sum_i prod_{k != i} a_k at every node
    prod, others = np.ones(j.size), np.zeros(j.size)
    for a in rows.T:
        prod, others = prod * a, others * a + prod
    beta = _EPS * float(np.max((n * n + 12) * prod + 12 * others))
    fft = _EPS * (24 + math.log2(nodes * size)) * math.sqrt(size) * float(np.linalg.norm(den))
    return phi, rotated, beta * (4.0 + math.log(0.5 * nodes)) + fft


def _hermite_quintic(lo, hi, left, right):
    """Coefficients c_0, ..., c_5 of the quintic Hermite interpolant sum_k
    c_k t**k, t = (phi - lo) / (hi - lo), of r, r' and r'' (the rows of
    ``left`` and ``right``) at the two ends of each bracket (lo, hi)."""
    h = hi - lo
    half = 0.5 * h * h
    y0, d0, s0 = left[0], left[1] * h, left[2] * half
    y1, d1, s1 = right[0], right[1] * h, right[2] * half
    # c0, c1, c2 = y0, d0, s0 (y, h y', h^2 y'' / 2 at t = 0), and c3, c4,
    # c5 match y, its derivative and half its second derivative at t = 1
    a, b, c = y1 - y0 - d0 - s0, d1 - d0 - 2.0 * s0, s1 - s0
    return (y0, d0, s0, 10.0 * a - 4.0 * b + c, 7.0 * b - 15.0 * a - 2.0 * c, 6.0 * a - 3.0 * b + c)


def _hermite_starts(lo, hi, left, right):
    """The root in each bracket (lo, hi) of the quintic Hermite interpolant
    of r, r' and r'' at its two ends (:func:`_hermite_quintic`), where r
    has opposite signs.  The root is refined from the secant point by
    Newton steps in t, each bisecting instead where it would leave the
    bracket that the sign of the quintic keeps, until no step moves t by
    more than sqrt(eps): a Newton step of s leaves an error of about
    s**2."""
    h = hi - lo
    coeffs = _hermite_quintic(lo, hi, left, right)
    y0 = coeffs[0]
    low, high = np.zeros_like(h), np.ones_like(h)
    t = y0 / (y0 - right[0])
    # a cap for steps that creep: bisection alone stops within 27
    for _ in range(64):
        p, dp = coeffs[5], 0.0
        for k in range(4, -1, -1):
            dp = dp * t + p
            p = p * t + coeffs[k]
        right_of = np.signbit(p) == np.signbit(y0)
        np.copyto(low, t, where=right_of)
        np.copyto(high, t, where=~right_of)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = t - p / dp
        outside = ~((newton >= low) & (newton <= high))
        newton[outside] = 0.5 * (low[outside] + high[outside])
        moved = np.max(np.abs(newton - t), initial=0.0)
        t = newton
        if moved <= math.sqrt(_EPS):
            break
    return lo + t * h


def _start_slopes(lo, hi, left, right, x, den, bound):
    """(low, high, third): bounds low <= |r'(x)| and high >= |r''(x)| at the
    points x of the brackets (lo, hi), from the quintic Hermite interpolant
    H of the samples at their ends, and a bound ``third`` on |r'''| over
    the whole circle; ``den`` and ``bound`` as for :func:`_circle_samples`.

    Each coefficient of ``den`` is within ``bound`` of g's (it averages the
    node errors, and the FFT's rounding is part of that bound), so |r^(j)|
    <= M_j = sum_k (|den_k| + bound) |L/2 - k|**j everywhere: third = M_3.
    The interpolation error e = r - H on a bracket of width h has triple
    zeros at its ends, so by Rolle e' vanishes once inside it and e''
    twice.  Hence e' = r^(6)(xi) / 5! (x - lo)^2 (x - hi)^2 (x - c) and e''
    = r^(6)(xi') / 4! (x - lo) (x - hi) (x - c') (x - c''), and as |(x -
    lo) (x - hi)| <= h^2 / 4, |e'| <= M_6 h^5 / 1920 and |e''| <= M_6 h^4 /
    96.  The samples of row j err by at most bound (L/2)**j (the node
    errors' share is a trigonometric polynomial of degree L/2, which
    Bernstein's inequality scales, and the FFT's share has weights up to
    (L/2)**j), at most E = bound max(1, L h / 2)**2 once scaled by h**j /
    j!.  The quintic's coefficients take them with integer weights summing
    to at most 1, 1, 1, 58, 92 and 38, so they move its first two
    derivatives in t on [0, 1] by at most 735 E and 2214 E."""
    h = hi - lo
    c = _hermite_quintic(lo, hi, left, right)
    t = (x - lo) / h
    # the quintic's first two derivatives in t, by Horner
    dp, ddp = 5.0 * c[5], 20.0 * c[5]
    for k in (4, 3, 2, 1):
        dp = dp * t + k * c[k]
    for k in (4, 3, 2):
        ddp = ddp * t + k * (k - 1) * c[k]
    order = den.size - 1
    freq = np.abs(0.5 * order - np.arange(order + 1))
    cube = freq * freq * freq
    weight = np.abs(den) + bound
    third, sixth = float(weight @ cube), float(weight @ (cube * cube))
    data = bound * np.maximum(1.0, 0.5 * order * h) ** 2
    low = np.maximum((np.abs(dp) - 735.0 * data) / h - sixth * h**5 / 1920.0, 0.0)
    high = (np.abs(ddp) + 2214.0 * data) / h**2 + sixth * h**4 / 96.0
    return low, high, third


def _circle_poles(u, m, gamma, den):
    """All poles of the network with feedback matrix U diag(gamma**m), U
    orthogonal, as gamma times the roots w = exp(i phi) of g(w) =
    det(diag(w**m) - U), from the first of the passes at ``_CIRCLE_SAMPLES``
    L samples of the circle that closes: its sign changes below account for
    every root, and its Newton steps settle within ``_MAX_SWEEPS`` sweeps.
    None when no pass closes.  ``den`` is :func:`_circle_denominator` (U,
    m), the coefficients of g from its order // 2 + 1 node determinants, so
    the second pass forms no determinant anew.

    On the unit circle conj g(w) = w**-L s g(w), s = (-1)**N det U = +-1, so
    r(phi) = g(w) w**(-L/2) / sqrt(s) is real, with r(-phi) = s r(phi).  Its
    roots are conjugate pairs exp(+-i phi), phi in (0, pi), and the roots
    w = 1 (where s = -1) and w = -1 (where s (-1)**L = -1) that this
    symmetry forces.  The pairs are the sign changes of r among a pass's
    samples over (0, pi), one FFT of ``den`` (:func:`_circle_samples`) of a
    5-smooth length, the least at or above the pass's L samples, counting
    only samples above the bound on their rounding error derived there.
    The same FFT gives r' and r'' at every sample, and each bracket starts
    at the root of the quintic Hermite interpolant of r, r' and r'' at its
    two ends (:func:`_hermite_starts`).  Newton steps in phi refine it,
    with r'/r = i (sum_i m_i w**m_i [P^-1]_ii - L/2) from the loop matrix P
    = diag(w**m) - U, until a step is below 4 eps pi or the rounding error
    of r'/r is as large as its value.  Two guards keep a pass from failing
    on its iterates:

    - an exactly singular P (no inverse) marks its iterate as a root to
      working precision, with step 0;
    - a step that would leave its bracket bisects it instead, the bracket
      first shrunk to the side where r changes sign from the iterate, the
      sign read off det P formed for those iterates alone (rtsafe, Press et
      al., Numerical Recipes, 9.4).

    After the first sweep an iterate is accepted without a second inverse
    when the step that would follow is shown to be below 4 eps pi; only
    iterates that bisected, read as noise, or miss the test sweep on.  Let
    x0 be the start, s = x1 - x0 the step taken to x1 and s* = -r(x0) /
    r'(x0) the exact Newton step.  Taylor's theorem with its remainder at
    some xi between x0 and x1 gives r(x1) = r'(x0) (s - s*) + r''(xi) s^2
    / 2, and r'(x1) = r'(x0) + r''(xi') s.  Over the step r'' moves by at
    most M_3 |s|, M_3 a bound on |r'''| over the circle; with R_1 <=
    |r'(x0)| and R_2 >= |r''(x0)| from the quintic (:func:`_start_slopes`)
    and rho = (R_2 + M_3 |s|) / R_1, the next step -r(x1) / r'(x1) is at
    most (|s - s*| + rho s^2 / 2) / (1 - rho |s|) while rho |s| < 1: the
    predicted |r'' / (2 r')| s^2 and its margins.  |s - s*| is the
    rounding of the computed ratio.  x1 itself rounds by |s - 1 / Im t|,
    known exactly.  Each power exp(i m_j phi) comes from the rounded
    product m_j phi and is off by a relative e_j <= eps (m_j phi / 2 + 1);
    that moves g by g sum_j e_j w**m_j [P^-1]_jj, and so the step by at
    most nu = eps sum_j (m_j phi / 2 + 1) |[P^-1]_jj| / |t| to first
    order.  The inverse's own rounding is estimated, as the noise test
    reads it, by s^2 |Re t - L/2|, Re t being exactly L/2.  A step
    computed again from x1 rounds by about as much, nu' = nu + s^2 |Re t -
    L/2|, so the test is (|s - 1 / Im t| + nu' + rho s^2 / 2) / (1 - rho
    |s|) + nu' <= 4 eps pi: a second sweep would have computed a step
    below the tolerance for every accepted iterate and stopped it.  The
    test's own arithmetic rounds by a relative O(L eps), which it leaves
    out as the stopping rule does.

    The poles are accurate to the pole radius of U (:func:`_pole_radius`);
    real ones are exactly real."""
    n, order = m.size, int(m.sum())
    sign = (-1) ** n * (1 if np.linalg.det(u) > 0 else -1)
    ends = [1.0] * (sign < 0) + [-1.0] * (sign * (-1) ** order < 0)
    # powers as exp(i m phi): a drift off the circle would mislead the
    # Newton steps once they are that short
    powers = _unit_powers(m)

    def trace(loop, power):
        # t and the sums of m_j |[P^-1]_jj| and of |[P^-1]_jj|, as columns
        try:
            diag = np.diagonal(np.linalg.inv(loop), axis1=1, axis2=2)
        except np.linalg.LinAlgError:
            if loop.shape[0] == 1:
                # t = L/2 reads as noise: step 0
                return np.array([[0.5 * order, 0.0, 0.0]], dtype=complex)
            return np.concatenate([trace(loop[k : k + 1], power[k : k + 1]) for k in range(loop.shape[0])])
        size = np.abs(diag)
        return np.stack(((diag * (m * power)).sum(axis=1), size @ m, size.sum(axis=1)), axis=1)

    def r_of(values):
        # values = sqrt(s) r, with r real
        return values.real if sign > 0 else values.imag

    for samples in _CIRCLE_SAMPLES:
        phi, rotated, bound = _circle_samples(u, m, den, _smooth_length(samples * order))
        values = r_of(rotated)
        keep = np.flatnonzero(np.abs(values[0]) > bound)
        change = np.flatnonzero(np.signbit(values[0, keep[1:]]) != np.signbit(values[0, keep[:-1]]))
        if 2 * change.size + len(ends) != order:
            continue
        left, right = keep[change], keep[change + 1]
        lo, hi = phi[left], phi[right]
        x = _hermite_starts(lo, hi, values[:, left], values[:, right])
        low, high, third = _start_slopes(lo, hi, values[:, left], values[:, right], x, den, bound)
        active = np.arange(x.size)
        sweeps = 0
        while active.size and sweeps < _MAX_SWEEPS:
            sweeps += 1
            t, weighted, spread = _loop_chunks(u, x[active], powers, trace).T
            # t = L/2 - i r'/r: where rounding moves its real part as far as
            # its imaginary part, the iterate sits at the noise floor of r
            noise = np.abs(t.real - 0.5 * order)
            noisy = noise >= np.abs(t.imag)
            with np.errstate(divide="ignore"):
                step = np.where(noisy, 0.0, 1.0 / t.imag)
            now = x[active]
            target = now + step
            out = (target <= lo[active]) | (target >= hi[active])
            if out.any():
                idx = active[out]
                dets = _loop_chunks(u, x[idx], powers, lambda loop, _: np.linalg.det(loop))
                r = r_of(dets * np.exp(-0.5j * order * x[idx]))
                # r keeps the sign of its bracket's left end up to the root
                right_of = np.signbit(r) == np.signbit(values[0, left[idx]])
                lo[idx] = np.where(right_of, x[idx], lo[idx])
                hi[idx] = np.where(right_of, hi[idx], x[idx])
                target[out] = 0.5 * (lo[idx] + hi[idx])
                step[out] = target[out] - now[out]
            x[active] = target
            moving = np.abs(step) > 4.0 * _EPS * np.pi
            if sweeps == 1:
                # every iterate is active and has stepped from its start
                size = np.abs(target - now)
                with np.errstate(divide="ignore", invalid="ignore"):
                    rounding = _EPS * (0.5 * now * weighted.real + spread.real) / np.abs(t) + step * step * noise
                    curve = (high + third * size) / low
                    room = 1.0 - curve * size
                    ahead = np.abs(target - now - step) + rounding + 0.5 * curve * size * size
                    settled = (room > 0.0) & (ahead <= (4.0 * _EPS * np.pi - rounding) * room)
                moving &= out | noisy | ~settled
            active = active[moving]
        if not active.size:
            pairs = gamma * np.exp(1j * x)
            return np.concatenate((pairs, pairs.conj(), gamma * np.array(ends, dtype=complex)))
    return None


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


def _loop_log_derivative(a, m, zeros, zr):
    """f'/f at each of ``zr`` for f(z) = det(diag(z**m) - A) / z**zeros, from
    the loop matrix P = diag(z**m) - A (:func:`_loop_chunks`), with an error
    scale for it: f'/f = (sum_i m_i z**m_i [P^-1]_ii - zeros) / z.  An
    inverse computed with relative error eps moves this trace by about
    eps max(m) (max|P| max|P^-1|)^2, returned over |z| as the error scale.
    It is infinite where a power z**m_i is zero or not finite, where P is
    exactly singular and where the ratio is not finite: the coefficients
    carry those iterates.
    """
    eye = np.eye(m.size)

    def terms(loop, power):
        bad = ~np.all(np.isfinite(power) & (power != 0.0), axis=1)
        largest = np.abs(loop).max(axis=(1, 2))
        # a power that under- or overflowed leaves no usable P; placeholders,
        # here and below, keep the other iterates' inverses finite
        loop[bad] = eye
        try:
            inv = np.linalg.inv(loop)
        except np.linalg.LinAlgError:
            # an iterate sits on a point where P is exactly singular
            exact = np.linalg.det(loop) == 0
            loop[exact] = eye
            bad |= exact
            inv = np.linalg.inv(loop)
        growth = (largest * np.abs(inv).max(axis=(1, 2))) ** 2
        growth[bad] = np.inf
        trace = (np.diagonal(inv, axis1=1, axis2=2) * (m * power)).sum(axis=1)
        return np.stack((trace, growth), axis=1)

    parts = _loop_chunks(a, zr, _point_powers(m), terms)
    logd = (parts[:, 0] - zeros) / zr
    error = (_EPS * m.max()) * parts[:, 1].real / np.abs(zr)
    error[~np.isfinite(logd)] = np.inf
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

    The Newton ratio comes from the plain loop matrix P = diag(z**m) - A
    (:func:`_loop_log_derivative`) wherever its error scale makes the step
    trustworthy: an estimated step error below a tenth of the step or below
    ``_LOOP_TRUST`` of |z|.  Such an iterate converges when its step is
    below ``_STEP_TOL`` of |z|.  Elsewhere P is too near singular or too
    badly scaled for its trace to mean anything.  That happens at multiple
    roots, but also away from any root wherever a rank-deficient part of A
    meets long lines (there z**m_i is tiny and P is nearly -A), and wherever
    a power z**m_i under- or overflows, which makes the error scale
    infinite.  Those iterates step by the coefficients of f
    (:func:`_poly_log_derivative`).  The coefficients settle them, and every
    iterate whose loop step is near its own noise floor (which can lie above
    ``_STEP_TOL``): it converges when their residual or step is at rounding
    level.  That stops multiple roots at their noise floor, and keeps a
    singular loop matrix away from any root from reading as one.
    ``loop_args`` is (A, m, zeros); with None instead (orders below
    ``_COEFF_ORDER_RATIO`` N^2) the coefficients carry every iterate.
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


def _regroup(z, nu, live, active, zr, gap, done, near, meet, bound):
    """Settle whether the roots behind some iterates are real or complex.

    ``live`` flags the iterates still sweeping and ``active`` lists those
    of this sweep, ``done`` those among them that converged in it.
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
    The iterates split or merged leave ``z`` and ``live``; the new ones
    join as live, merged pairs after the other pairs and split halves after
    the other reals.  Returns the new (z, nu, live), the given state when
    nothing splits or merges.
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
        return z, nu, live
    keep = np.ones(z.size, dtype=bool)
    keep[gone] = False
    fresh = np.ones(len(merged) + len(halves), dtype=bool)
    z = np.concatenate((z[:nu][keep[:nu]], merged, z[nu:][keep[nu:]], halves))
    live = np.concatenate((live[:nu][keep[:nu]], fresh[: len(merged)], live[nu:][keep[nu:]], fresh[len(merged) :]))
    return z, int(np.count_nonzero(keep[:nu])) + len(merged), live


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
    known.  One boolean mask ``live`` over the iterates is the sweep state:
    each sweep steps the live iterates, taking the Aberth sums in row chunks
    of at most ``_STACK_ENTRIES`` entries, and clears the mask where they
    converged; :func:`_regroup` removes the iterates it splits or merges
    and appends their successors as live."""
    deg = int(np.flatnonzero(np.abs(den) > floor)[-1])
    if deg == 0:
        return np.zeros(fdn.order, dtype=complex)
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
    chunk = max(1, _STACK_ENTRIES // max(deg + 1, fdn.a.size))
    loop_args = (fdn.a, fdn.delays.as_array(), fdn.order - deg) if deg >= _COEFF_ORDER_RATIO * fdn.a.size else None
    live = np.ones(z.size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore", under="ignore"):
        for sweeps in range(_MAX_SWEEPS + 1):
            active = live.nonzero()[0]
            if not active.size:
                break
            # live pairs come first; a pair stands for two roots
            na = int(np.count_nonzero(live[:nu]))
            if sweeps == _MAX_SWEEPS:
                raise ConditioningError(
                    f"pole solve left {active.size + na} of {deg} roots unconverged after {sweeps} sweeps",
                    residual=float(np.max(np.abs(step[~done]))),
                )
            full = np.concatenate((z, z[:nu].conj()))
            zr = full[active]
            parts = [
                _aberth_steps(loop_args, tables, full, zr[s : s + chunk], active[s : s + chunk], reach)
                for s in range(0, active.size, chunk)
            ]
            step, gap, done = map(np.concatenate, zip(*parts))
            step[na:].imag = 0.0
            z[active] = zr - step
            live[active[done]] = False
            near = np.abs(step[:na]) >= np.abs(zr[:na].imag)
            meet = _meetings(zr[na:].real.tolist(), np.abs(step[na:]).tolist()) if active.size - na > 1 else []
            if meet or near.any():
                z, nu, live = _regroup(z, nu, live, active, zr, gap, done, near, meet, reach)
    return np.concatenate((z[:nu], z[:nu].conj(), z[nu:], np.zeros(fdn.order - deg)))


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

    The reversal test checks that the numerator of det H equals the
    reversed denominator up to sign.  Both are loop determinants, the
    numerator bordered by the system's outputs (:func:`_circle_numerator`),
    and each comes from one inverse real FFT of its values on order / 2 + 1
    of the order + 1 uniform nodes (:func:`_node_coefficients`): no H, and
    no route sweeps principal minors.

    The grid test measures unitarity, the largest entry of |H H* - I|, on
    K = 2 order + 2 uniform and 8 seeded random unit-circle points.  H H* -
    I is a trigonometric polynomial of degree order in the angle, which
    2 order + 1 nodes determine, and for a real system its value at conj z
    is the conjugate of its value at z, so only the order + 2 nodes with 0
    <= omega <= pi are evaluated: one pass of H, reduced chunk by chunk, so
    its memory does not grow with the order.

    Stability is proven without a pole solve in two ways.  For every delay
    vector, when ||A||_2 (1 + N^2 eps) < 1, or when v = (I - |A|)^-1 1 is
    positive with fl(|A| v) (1 + (N + 2) eps) < v: either way
    diag(z**m_i)^-1 A is a strict contraction for |z| >= 1, in the 2-norm
    or in the diag(v)-scaled max norm, so det(diag(z**m_i) - A) has no root
    there (margins in :func:`_contraction_proof`).  Otherwise, for the
    system's own delays, when the Stein diagonal certifies the network and
    its lossless embedding keeps every loop matrix at its roots clear of
    singular (:func:`_lossless_proof`).  Where neither closes, the poles
    come from :func:`poles`, whose Aberth solve alone is limited to orders
    up to 2**15 and to N <= 20 (:class:`FdnError` beyond either), and an
    unstable system is rejected with the full pole list.  A homogeneous
    network A = U diag(gamma**m) has every pole within the pole radius of
    |z| = gamma (:func:`_pole_radius`), so it is stable when gamma plus
    that radius is below 1: its poles' computed moduli, gamma (1 +- eps)
    on a lossless network, do not decide it.  Any other system is unstable
    when a pole has computed modulus >= 1.
    """
    tol = check_tolerance(tol)
    # one system matrix for the lossless embedding and the numerator
    u = SystemMatrix.from_fdn(fdn).u
    if not (_contraction_proof(fdn.a) or _lossless_proof(fdn, u)):
        pole_values = poles(fdn)
        factor = _homogeneous_factor(fdn.a, fdn.delays.as_array())
        if factor is not None:
            gamma, _, radius = factor
            inside = gamma + radius < 1.0
        else:
            inside = np.all(np.abs(pole_values) < 1.0)
        if not inside:
            raise UnstableError(pole_values)
    den = _circle_denominator(fdn.a, fdn.delays.as_array())
    rev_dev, sign = reversal_check(_circle_numerator(fdn, u), den)
    half = fdn.order + 1
    extra = np.random.default_rng(_GRID_SEED).uniform(0.0, 2.0 * np.pi, _GRID_RANDOM)
    omega = np.concatenate([np.pi * np.arange(half + 1) / half, extra])
    eye = np.eye(fdn.n_io)

    def unitarity(_, h):
        return np.max(np.abs(h @ np.conj(np.swapaxes(h, 1, 2)) - eye), axis=(1, 2))

    grid_dev = float(np.max(_responses(fdn, omega, _unit_powers, unitarity)))
    return AllpassReport(
        allpass=bool(grid_dev < tol and rev_dev < tol),
        grid_deviation=grid_dev,
        reversal_deviation=rev_dev,
        sign=sign,
        tol=tol,
    )
