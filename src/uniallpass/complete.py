"""Completion: given a feedback matrix, choose the remaining gains so the
network is allpass for every delay vector.

Every completion is the SVD dilation of a corner: for A = U S V^T with the
P smallest singular values s as the defect, B = U_P sqrt(1 - s^2),
C = sqrt(1 - s^2) V_P^T and D = -diag(s) (Halmos, "Normal dilations and
extensions of operators", 1950).  The orthogonal route dilates an admissible
A directly.  The general SISO route finds the diagonal similarity dsim as a
real generalized eigenvector of an N x N pencil built from A (see
:func:`siso_completion`), then dilates the corner balanced by sqrt(dsim) and
un-balances the gains.
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
    """The SISO completion's direct gain |det A| and the certifying diagonal
    similarity dsim (max 1)."""

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
    each scaled to a largest entry of 1, where C_h = A^-1 diag(h) - diag(A^T h)
    for the two probe vectors h.  The better-conditioned of C_1, C_2 is the
    one inverted (swapping them inverts lambda and keeps every w)."""
    a_inv = np.linalg.inv(a)
    c1, c2 = (a_inv * h - np.diag(a.T @ h) for h in probes)
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
    orthogonal, and its Schur complement gives A - bc/d = W A^-T W^-1, so
    K(w) = A^-1 W - W A^T = -W c^T b^T / d has rank one at w = dsim (a line
    without input gain only zeroes a column).  K(w) h = C_h w is linear in
    w, so for two fixed probes C_1 w and C_2 w are parallel: dsim is a real
    generalized eigenvector of the pencil (C_1, C_2).  Each positive
    eigenvector w_0 is refined once to w_0 v, v the eigenvector nearest to
    ones of the same pencil on the corner balanced by sqrt(w_0).  The
    singular-value census of the balanced corner (N - 1 unit values, one
    below) refuses spurious eigenvectors; the survivors are dilated with
    d = +|det A| and certified in order of census deviation.  Any failure
    raises :class:`CompletionError`.

    For one or two delay lines the completion is not unique; the first
    candidate that certifies is returned.  A non-square ``a`` raises
    ValueError.
    """
    tol = check_tolerance(tol)
    a = _square(a)
    n = a.shape[0]
    det_a = float(np.linalg.det(a))
    if abs(det_a) < 1e-12:
        raise CompletionError("feedback matrix is singular; no direct gain exists")
    if delays is None:
        delays = [1] * n
    probes = np.random.default_rng(_PENCIL_SEED).standard_normal((2, n))
    candidates = []
    for w0 in _pencil_vectors(a, probes):
        refined = _pencil_vectors(balance(a, w0), probes)
        if not refined:
            continue
        w = w0 * min(refined, key=lambda v: np.max(np.abs(v - 1.0)))
        w = w / np.max(w)
        report = _census(balance(a, w), 1)[0]
        if report.admissible_for(1):
            deviation = np.max(np.abs(report.singular_values[:-1] - 1.0), initial=0.0)
            candidates.append((float(deviation), w))
    failures = []
    for _, dsim in sorted(candidates, key=lambda c: c[0]):
        fdn, cert = _complete_balanced(a, dsim, delays, tol)
        if cert.verdict:
            return fdn, SisoCompletionTrace(d=abs(det_a), dsim=dsim)
        failures.append(
            f"completed system failed certification (residual {cert.residual:.3g}, "
            f"balanced {cert.balanced_residual:.3g})"
        )
    raise CompletionError(
        "feedback matrix is not allpass admissible for single-channel completion: "
        + ("; ".join(failures) or "no positive pencil eigenvector passes the singular-value census")
    )


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
