"""Completion: given a feedback matrix, choose the remaining gains so the
network is allpass for every delay vector.

Every completion is the SVD dilation of a corner: for A = U S V^T with the
P smallest singular values s as the defect, B = U_P sqrt(1 - s^2),
C = sqrt(1 - s^2) V_P^T and D = -diag(s) (Halmos, "Normal dilations and
extensions of operators", 1950).  The orthogonal route dilates an admissible
A directly.  The general SISO route finds the diagonal similarity dsim as a
real generalized eigenvector of an N x N pencil: for W = diag(w) the Stein
matrix W - A W A^T, which is A K(w) with K(w) = A^-1 W - W A^T for an
invertible A, equals b b^T at w = dsim, so it has rank one there, and it is
linear in w and needs no inverse of A (see :func:`siso_completion`).  Each
candidate dsim is dilated on the corner balanced by sqrt(dsim), the gains
are un-balanced, and the best certified candidate is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, check_tolerance
from .errors import CompletionError
from .system import ORTHO_TOL, FdnSystem, SystemMatrix, balance, orthogonality_residual
from .verify import apply_diagonal_similarity, certify_uniallpass

# seed of the two fixed probe vectors that pose the SISO pencil
_PENCIL_SEED = 0
# largest imaginary part of an eigenvector (largest entry 1) taken as real
_REAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    """Singular-value census of a candidate feedback matrix.

    ``ones`` counts singular values within ``tol`` of 1, ``below`` counts
    those smaller than 1 - tol.  The matrix embeds as the corner of an
    orthogonal matrix of size N + P exactly when ones == N - P and
    below == P; ``min_io`` is the smallest such P, or None when the census
    does not add up (values above 1, or stragglers between the bands).
    """

    singular_values: np.ndarray
    ones: int
    below: int
    min_io: int | None
    tol: float

    def admissible_for(self, p: int) -> bool:
        n = len(self.singular_values)
        return self.ones == n - p and self.below == p


@dataclass(frozen=True, eq=False)
class SisoCompletionTrace:
    """The SISO completion's direct gain d = |det A| (the smallest singular
    value of the balanced corner) and the certifying diagonal similarity dsim
    (max 1)."""

    d: float
    dsim: np.ndarray


def _census(a, p, tol=1e-9):
    """Admissibility report of ``a`` and the SVD (U, s, V^T) it reads."""
    n = a.shape[0]
    if not 1 <= p <= n:
        raise ValueError(f"channel count {p} out of range 1..{n}")
    svd = np.linalg.svd(a)
    sv = svd[1]
    ones = int(np.sum(np.abs(sv - 1.0) <= tol))
    below = int(np.sum(sv < 1.0 - tol))
    min_io = n - ones if ones + below == n else None
    report = AdmissibilityReport(
        singular_values=sv, ones=ones, below=below, min_io=min_io, tol=float(tol)
    )
    return report, svd


def _dilation(u, s, vt, p):
    """Blocks (B, C, D) of the rank-p dilation of A = U diag(s) V^T, s
    descending (see the module docstring).  Values above one, which only an
    inadmissible corner has, get a zero defect; the caller's check refuses
    the result."""
    s_p = s[-p:]
    w = np.sqrt(np.maximum(1.0 - s_p * s_p, 0.0))
    return u[:, -p:] * w, w[:, None] * vt[-p:], -np.diag(s_p)


def _square(a):
    """``a`` as a float array; anything but a square 2-D matrix raises ValueError."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"feedback matrix must be square, got shape {a.shape}")
    return a


def orthogonal_completion(a, p: int, delays=None) -> FdnSystem:
    """Complete an admissible A to an orthogonal block system matrix: the
    rank-P dilation, read from the SVD that also gives the singular-value
    census.  The assembled block matrix is checked for orthogonality.  A
    non-square ``a`` raises ValueError.
    """
    a = _square(a)
    n = a.shape[0]
    report, svd = _census(a, p)
    if not report.admissible_for(p):
        raise CompletionError(
            f"feedback matrix is not admissible for P = {p}: "
            f"{report.ones} unit singular values, {report.below} below one"
        )
    b, c, d = _dilation(*svd, p)
    u = SystemMatrix.from_blocks(a, b, c, d).u
    residual = orthogonality_residual(u)
    if residual > ORTHO_TOL:
        raise CompletionError(f"completed matrix failed orthogonality, residual {residual:.3g}")
    if delays is None:
        delays = [1] * n
    return FdnSystem(a, b, c, d, delays)


def _complete_balanced(a, dsim, delays, tol):
    """Dilate the corner T^-1 A T (T = sqrt(dsim)) with d = +|det A| and the
    dominant balanced input gain positive, then un-balance: b = T b_bal,
    c = c_bal T^-1.  Returns the system and its certificate against dsim."""
    t = np.sqrt(dsim)
    b, c, d = _dilation(*np.linalg.svd(balance(a, dsim)), 1)
    b, c, d = b.ravel(), -c.ravel(), -d[0, 0]
    if b[int(np.argmax(np.abs(b)))] < 0:
        b, c = -b, -c
    fdn = FdnSystem.siso(a, b * t, c / t, d, delays)
    return fdn, certify_uniallpass(fdn, dsim, tol)


def _pencil_vectors(a, probes):
    """Real, one-signed generalized eigenvectors w of C_1 w = lambda C_2 w,
    each scaled to a largest entry of 1, where C_h = diag(h) - A diag(A^T h)
    for the two probe vectors h, so C_h w = S(w) h for the Stein matrix
    S(w) = diag(w) - A diag(w) A^T (see :func:`siso_completion`).  The
    better-conditioned of C_1, C_2 is the one solved against (swapping them
    inverts lambda and keeps every w)."""
    c1, c2 = (np.diag(h) - a * (a.T @ h) for h in probes)
    if np.linalg.cond(c1) < np.linalg.cond(c2):
        c1, c2 = c2, c1
    try:
        vecs = np.linalg.eig(np.linalg.solve(c2, c1))[1].T
    except np.linalg.LinAlgError:
        return []
    vecs = vecs / vecs[np.arange(len(vecs)), np.argmax(np.abs(vecs), axis=1)][:, None]
    keep = np.all(np.abs(vecs.imag) <= _REAL_TOL, axis=1) & np.all(vecs.real > 0, axis=1)
    return list(vecs.real[keep])


def siso_completion(a, delays=None, tol=DEFAULT_TOL):
    """Complete a feedback matrix to a SISO allpass network valid for every
    delay vector.  Returns (system, trace).

    For a certified system with W = diag(dsim) the balanced system matrix is
    orthogonal, and the leading block of U diag(W, 1) U^T = diag(W, 1) is the
    Stein equation W - A W A^T = b b^T.  So S(w) = diag(w) - A diag(w) A^T,
    which is A K(w) with K(w) = A^-1 diag(w) - diag(w) A^T when A is
    invertible, has rank one at w = dsim (a line without input gain only
    zeroes a row and a column of b b^T).  S(w) needs no inverse of A, so a
    singular A, such as a chain with a zero-gain section, poses the same
    pencil.  S(w) h = C_h w is linear in w, so for two fixed probes C_1 w and
    C_2 w are parallel: dsim is a real generalized eigenvector of the pencil
    (C_1, C_2).  Each positive eigenvector w_0 is refined once to w_0 v, v
    the eigenvector nearest to ones of the same pencil on the corner
    balanced by sqrt(w_0).  Every refined candidate is dilated with
    d = +s_min of its balanced corner (|det A| when it certifies) and
    certified, which refuses spurious eigenvectors.  The candidate with the
    smallest certificate residual (the larger of the absolute and the
    balanced one) is returned if it certifies; otherwise
    :class:`CompletionError` is raised.

    The certifying dsim need not be unique: the feedback matrix of the N = 3
    Gardner chain from ``default_rng([3, 1])`` has two, whose completions
    have the same response, and the ranking picks one.  A non-square ``a`` raises ValueError.
    """
    tol = check_tolerance(tol)
    a = _square(a)
    n = a.shape[0]
    if delays is None:
        delays = [1] * n
    probes = np.random.default_rng(_PENCIL_SEED).standard_normal((2, n))
    candidates = []
    for w0 in _pencil_vectors(a, probes):
        refined = _pencil_vectors(balance(a, w0), probes)
        if not refined:
            continue
        w = w0 * min(refined, key=lambda v: np.max(np.abs(v - 1.0)))
        fdn, cert = _complete_balanced(a, w / np.max(w), delays, tol)
        candidates.append((max(cert.residual, cert.balanced_residual), fdn, cert))
    residual, fdn, cert = min(candidates, key=lambda c: c[0], default=(np.inf, None, None))
    if cert is None or not cert.verdict:
        raise CompletionError(
            "feedback matrix is not allpass admissible for single-channel completion: "
            f"{len(candidates)} pencil candidates, smallest certificate residual {residual:.3g}"
        )
    return fdn, SisoCompletionTrace(d=float(fdn.d[0, 0]), dsim=cert.dsim)


def random_orthogonal(size: int, rng) -> np.ndarray:
    """Haar-ish orthogonal matrix via sign-fixed QR of a Gaussian draw."""
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    return q * np.sign(np.diag(r))[None, :]


def random_uniallpass(n: int, p: int, seed, scaled=False, delays=None) -> FdnSystem:
    """Seeded random certified-allpass system: an orthogonal block matrix
    split at N, optionally hidden behind a random positive diagonal
    similarity (which leaves the transfer function unchanged)."""
    if n < 1 or p < 1:
        raise ValueError("need at least one delay line and one channel")
    rng = np.random.default_rng(seed)
    u = random_orthogonal(n + p, rng)
    if delays is None:
        delays = [1] * n
    fdn = SystemMatrix(u, n).to_fdn(delays)
    if scaled:
        t = np.exp(rng.uniform(-1.0, 1.0, n))
        fdn = apply_diagonal_similarity(fdn, t)
    return fdn
