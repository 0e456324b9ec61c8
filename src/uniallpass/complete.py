"""Completion: given a feedback matrix, choose the remaining gains so the
network is allpass for every delay vector.

Every completion is the SVD dilation of a corner: for A = U S V^T with the
P smallest singular values s as the defect, B = U_P sqrt(1 - s^2),
C = sqrt(1 - s^2) V_P^T and D = -diag(s) (Halmos, "Normal dilations and
extensions of operators", 1950).  The orthogonal route dilates an admissible
A directly.  The general SISO route solves, entry by entry, the quadratic
system whose rank-1 solution X determines the diagonal similarity dsim, then
dilates the corner balanced by sqrt(dsim) and un-balances the gains.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL
from .errors import CompletionError
from .system import FdnSystem, SystemMatrix
from .verify import apply_diagonal_similarity, certify_uniallpass

# orthogonality tolerance of a completed block matrix
_ORTHO_TOL = 1e-9
# relative residual accepted for a root of a per-entry quadratic
_ROOT_TOL = 1e-6


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
    """Intermediate quantities of the SISO completion, kept for inspection:
    direct gain, diagonal gap vector, quadratic right-hand side, the rank-1
    solution X, and the recovered dsim (max 1)."""

    d: float
    a_gap: np.ndarray
    rhs: np.ndarray
    x: np.ndarray
    dsim: np.ndarray


def admissibility(a, p: int, tol=1e-9) -> AdmissibilityReport:
    """Classify the singular values of ``a`` against the embedding bands."""
    return _census(np.asarray(a, dtype=float), p, tol)[0]


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


def orthogonal_completion(a, p: int, delays=None) -> FdnSystem:
    """Complete an admissible A to an orthogonal block system matrix: the
    rank-P dilation, read from the SVD that also gives the singular-value
    census.  The assembled block matrix is checked for orthogonality.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    report, svd = _census(a, p)
    if not report.admissible_for(p):
        raise CompletionError(
            f"feedback matrix is not admissible for P = {p}: "
            f"{report.ones} unit singular values, {report.below} below one"
        )
    b, c, d = _dilation(*svd, p)
    u = SystemMatrix.from_blocks(a, b, c, d).u
    residual = float(np.max(np.abs(u @ u.T - np.eye(n + p))))
    if residual > _ORTHO_TOL:
        raise CompletionError(f"completed matrix failed orthogonality, residual {residual:.3g}")
    if delays is None:
        delays = [1] * n
    return FdnSystem(a, b, c, d, delays)


def _complete_balanced(a, dsim, delays, tol):
    """Dilate the corner T^-1 A T (T = sqrt(dsim)) with d = +|det A| and the
    dominant balanced input gain positive, then un-balance: b = T b_bal,
    c = c_bal T^-1.  Returns the system and its certificate against dsim."""
    t = np.sqrt(dsim)
    b, c, d = _dilation(*np.linalg.svd((a * t[None, :]) / t[:, None]), 1)
    b, c, d = b.ravel(), -c.ravel(), -d[0, 0]
    if b[int(np.argmax(np.abs(b)))] < 0:
        b, c = -b, -c
    fdn = FdnSystem.siso(a, b * t, c / t, d, delays)
    return fdn, certify_uniallpass(fdn, dsim, tol)


def _real_roots(p, q, r, tol):
    """Real roots of p x^2 + q x + r = 0, degenerating gracefully."""
    if abs(p) > 1e-14:
        disc = q * q - 4.0 * p * r
        scale = max(q * q, abs(4.0 * p * r), 1e-30)
        if disc < -tol * scale:
            return []
        disc = max(disc, 0.0)
        sq = np.sqrt(disc)
        if q >= 0:
            t = -0.5 * (q + sq)
        else:
            t = -0.5 * (q - sq)
        roots = [t / p]
        if abs(t) > 1e-300:
            roots.append(r / t)
        else:
            roots.append(-t / p)
        return roots
    if abs(q) > 1e-14:
        return [-r / q]
    return [] if abs(r) > tol else [0.0]


def _quad_resid(p, q, r, x):
    """Relative defect of x as a root of p x^2 + q x + r = 0."""
    scale = max(abs(p * x * x), abs(q * x), abs(r), 1e-30)
    return abs(p * x * x + q * x + r) / scale


def _rank1_candidates(p_coef, q_coef, r_coef, diag_target, tol):
    """Yield every rank-1 consistent root assignment.

    ``diag_target`` holds the known diagonal values (each diagonal quadratic
    has a double root there).  The pivot row/column is anchored at the
    largest diagonal entry.  For each off-pivot index the two admissible
    (row, column) root pairs both reproduce the rank-1 product
    x_ip * x_pi = x_pp * x_ii exactly, so branches are disambiguated by the
    cross quadratics against an already-fixed anchor index; for two delay
    lines no cross entries exist and both branches are genuine solutions,
    which is why this enumerates instead of picking.
    """
    n = p_coef.shape[0]
    order = np.argsort(-np.abs(diag_target))
    piv = int(order[0])
    x_pp = diag_target[piv]
    if abs(x_pp) <= 1e-12 * max(1.0, float(np.max(np.abs(diag_target)))) or x_pp == 0.0:
        raise CompletionError("pivot diagonal entry is numerically zero")

    def pair_candidates(i):
        """(row, col) root pairs for (x_ip, x_pi), best product match first."""
        row_roots = _real_roots(p_coef[i, piv], q_coef[i, piv], r_coef[i, piv], tol)
        col_roots = _real_roots(p_coef[piv, i], q_coef[piv, i], r_coef[piv, i], tol)
        if not row_roots or not col_roots:
            raise CompletionError(
                f"entry ({i}, {piv}) has no real root; the matrix structure "
                "does not support a rank-1 solution"
            )
        target = x_pp * diag_target[i]
        combos = sorted(
            ((abs(ri * ci - target), ri, ci) for ri in row_roots for ci in col_roots),
            key=lambda t: t[0],
        )
        keep = [c for c in combos if c[0] <= tol * max(abs(target), 1.0) + combos[0][0]]
        return [(ri, ci) for _, ri, ci in keep[:2]]

    def verified(cand):
        worst = max(
            _quad_resid(p_coef[i, j], q_coef[i, j], r_coef[i, j], cand[i, j])
            for i in range(n)
            for j in range(n)
        )
        return worst <= tol

    others = [int(i) for i in order[1:]]
    if not others:
        yield np.array([[x_pp]])
        return
    anchor = others[0]
    for ra, ca in pair_candidates(anchor):
        cand = np.zeros((n, n))
        cand[piv, piv] = x_pp
        cand[anchor, piv], cand[piv, anchor] = ra, ca
        ok = True
        for i in others[1:]:
            best = None
            for ri, ci in pair_candidates(i):
                # cross entries against the anchor decide the branch
                x_ia = ri * ca / x_pp
                x_ai = ra * ci / x_pp
                dev = _quad_resid(p_coef[i, anchor], q_coef[i, anchor], r_coef[i, anchor], x_ia)
                dev += _quad_resid(p_coef[anchor, i], q_coef[anchor, i], r_coef[anchor, i], x_ai)
                if best is None or dev < best[0]:
                    best = (dev, ri, ci)
            if best is None:
                ok = False
                break
            cand[i, piv], cand[piv, i] = best[1], best[2]
        if not ok:
            continue
        for i in range(n):
            for j in range(n):
                if i != piv and j != piv:
                    cand[i, j] = cand[i, piv] * cand[piv, j] / x_pp
        if verified(cand):
            yield cand


def select_rank1_roots(p_coef, q_coef, r_coef, diag_target, tol=_ROOT_TOL):
    """First rank-1 consistent root assignment (see :func:`_rank1_candidates`)."""
    for x in _rank1_candidates(p_coef, q_coef, r_coef, diag_target, tol):
        return x
    raise CompletionError("no rank-1 consistent root assignment")


def siso_completion(a, delays=None, tol=DEFAULT_TOL):
    """Complete a feedback matrix to a SISO allpass network valid for every
    delay vector.  Returns (system, trace).

    Steps: fix d = +|det A|; form the diagonal gap a_gap_i = A_ii - (A^-1)_ii;
    assemble the per-entry quadratics; select rank-1 consistent roots X; set
    dsim_i proportional to -(A X^T)_ii / ((X X^T)_ii d) with max(dsim) = 1;
    dilate the corner balanced by sqrt(dsim) and certify.  Negating d
    negates X and leaves dsim unchanged, so -|det A| would only flip (c, d).
    Any failure raises :class:`CompletionError`.

    For one or two delay lines the root branches are decoupled and the
    completion is not unique; the first candidate that certifies is
    returned.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    det_a = float(np.linalg.det(a))
    if abs(det_a) < 1e-12:
        raise CompletionError("feedback matrix is singular; no direct gain exists")
    a_inv = np.linalg.inv(a)
    a_gap = np.diag(a) - np.diag(a_inv)
    if delays is None:
        delays = [1] * n
    d = abs(det_a)
    rhs = d * (a * a.T - a_inv * a_inv.T - np.outer(a_gap, a_gap))
    r_coef = a_inv.T * (d * d) * np.outer(a_gap, a_gap)
    failures = []
    try:
        for x in _rank1_candidates(a_inv, -rhs, r_coef, d * a_gap, _ROOT_TOL):
            rows = np.einsum("ij,ij->i", x, x)
            if np.any(rows == 0.0):
                failures.append("rank-1 solution has a zero row")
                continue
            dsim = -np.einsum("ij,ij->i", a, x) / (rows * d)
            if np.any(dsim <= 0):
                failures.append("recovered similarity is not positive")
                continue
            dsim = dsim / np.max(dsim)
            fdn, cert = _complete_balanced(a, dsim, delays, tol)
            if cert.verdict:
                return fdn, SisoCompletionTrace(d=d, a_gap=a_gap, rhs=rhs, x=x, dsim=dsim)
            failures.append(
                f"completed system failed certification (residual {cert.residual:.3g})"
            )
    except CompletionError as exc:
        failures.append(str(exc))
    raise CompletionError(
        "feedback matrix is not allpass admissible for single-channel completion: "
        + ("; ".join(failures) or "no rank-1 consistent root assignment")
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
