"""Allpass certification independent of delay lengths.

A system is certified once a positive diagonal ``dsim`` makes the block
system matrix an isometry of the weighted inner product diag(dsim, I); the
certificate then covers every choice of delay lengths.  Two recovery routes
for ``dsim`` are provided (the diagonal of the Stein equation, one N x N
solve, and an Engel-Schneider style Hadamard quotient), plus the exhaustive
principal-minor condition that is necessary in general and equivalent for
single-input single-output systems.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, _stein_diagonal, check_tolerance
from .errors import NotCertifiableError
from .kernels import principal_minors_all
from .system import FdnSystem, SystemMatrix, balance, orthogonality_residual


@dataclass(frozen=True, eq=False)
class SchurPair:
    """Schur complements of the two diagonal blocks of the system matrix:
    ``s_d = A - B D^-1 C`` and ``s_a = D - C A^-1 B``."""

    s_d: np.ndarray
    s_a: np.ndarray


@dataclass(frozen=True, eq=False)
class UniallpassCertificate:
    """Result of the sufficient (delay-independent) allpass check.

    ``residual`` is max|U W U^T - W|, which damps the entries of a line with
    a tiny ``dsim`` entry; ``balanced_residual`` is max|V V^T - I| for the
    balanced V = T^-1 U T, T = sqrt(W), which does not (inf unless every
    entry of ``dsim`` is positive).  The verdict needs both below ``tol``.
    """

    dsim: np.ndarray
    residual: float
    balanced_residual: float
    verdict: bool
    tol: float


@dataclass(frozen=True)
class MinorCheck:
    """Result of the principal-minor matching condition.

    For P = 1 a pass is equivalent to the system being allpass for every
    delay vector; for P > 1 it is only necessary (``sufficient`` is False).
    """

    verdict: bool
    sign: int
    deviation: float
    worst_subset: tuple
    sufficient: bool
    tol: float


def _inverse(block, name):
    """``block``^-1; raises LinAlgError naming the block if it is singular."""
    try:
        return np.linalg.inv(block)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{name} is singular") from None


def _inverses(fdn: FdnSystem):
    """D^-1 and A^-1; raises naming the singular block."""
    return _inverse(fdn.d, "direct-gain block D"), _inverse(fdn.a, "feedback block A")


def schur_complements(fdn: FdnSystem) -> SchurPair:
    """Both Schur complements; raises naming the singular block."""
    d_inv, a_inv = _inverses(fdn)
    s_d = fdn.a - fdn.b @ d_inv @ fdn.c
    s_a = fdn.d - fdn.c @ a_inv @ fdn.b
    return SchurPair(s_d=s_d, s_a=s_a)


def apply_diagonal_similarity(fdn: FdnSystem, t) -> FdnSystem:
    """Equivalent realization with A -> T^-1 A T, B -> T^-1 B, C -> C T.

    The transfer function is unchanged for any nonzero diagonal T.
    """
    t = np.asarray(t, dtype=float).ravel()
    if t.size != fdn.n_delays:
        raise ValueError(f"similarity vector has length {t.size}, expected {fdn.n_delays}")
    if np.any(t == 0):
        raise ValueError("similarity vector must have nonzero entries")
    return FdnSystem(
        (fdn.a * t[None, :]) / t[:, None],
        fdn.b / t[:, None],
        fdn.c * t[None, :],
        fdn.d,
        fdn.delays,
    )


def dsim_from_lyapunov(a, b, tol=DEFAULT_TOL):
    """Diagonal similarity candidate from the Stein equation
    X - A X A^T = B B^T.

    A certifying ``dsim`` is a diagonal solution, so only the diagonal is
    solved: (I - A o A) d = rowsum(B o B), N unknowns.  ``d`` is accepted
    when the residual of A diag(d) A^T + B B^T - diag(d), whose diagonal
    vanishes by construction, is at most ``tol`` times ||d|| in the
    Frobenius norm and every entry is positive; otherwise raises
    :class:`NotCertifiableError` carrying ``d`` (None when I - A o A is
    singular).
    """
    tol = check_tolerance(tol)
    a = np.asarray(a, dtype=float)
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if b.shape[0] != a.shape[0]:
        b = b.T
    d = _stein_diagonal(a, b)
    if d is None:
        raise NotCertifiableError("Stein diagonal system I - A o A is singular")
    residual = float(np.linalg.norm((a * d[None, :]) @ a.T + b @ b.T - np.diag(d)))
    mass = float(np.linalg.norm(d))
    if not residual <= tol * mass:
        raise NotCertifiableError(
            f"Lyapunov solution is not diagonal (residual/mass {residual / max(mass, 1e-300):.3g})",
            candidate=d,
        )
    if np.any(d <= 0):
        raise NotCertifiableError("Lyapunov solution has nonpositive diagonal entries", candidate=d)
    return d


def dsim_from_hadamard_quotient(sys: SystemMatrix, tol=1e-6):
    """Diagonal similarity from the rank-1 structure of S_D^-1 (/) A^T.

    On the shared nonzero pattern the elementwise quotient of a certified
    system equals ``dsim_i / dsim_j``, so its logarithm is a difference of
    node potentials: these are recovered by least squares over the pattern
    graph (which must be connected).  A nonzero entry of S_D^-1 sitting on a
    zero of A^T means the patterns disagree and the recovery is rejected; so
    is a disconnected pattern.  The result is scale-free and normalized to
    ``dsim[0] = 1``.  S_D = A - B D^-1 C is formed directly, so A is never
    inverted; a singular D raises ``LinAlgError`` naming the block.
    """
    tol = check_tolerance(tol)
    a, b, c, d = sys.blocks
    s_inv = np.linalg.inv(a - b @ _inverse(d, "direct-gain block D") @ c)
    n = sys.split
    structural = 1e-9 * max(float(np.max(np.abs(a))), float(np.max(np.abs(s_inv))))
    support = np.abs(a.T) > structural
    if np.any(~support & (np.abs(s_inv) > structural)):
        raise NotCertifiableError(
            "zero feedback entries facing nonzero Schur-inverse entries; "
            "recovery on mismatched sparsity patterns is unsupported"
        )
    quot = np.where(support, s_inv, 0.0) / np.where(support, a.T, 1.0)
    if np.any(quot[support] <= 0):
        raise NotCertifiableError("Hadamard quotient has inconsistent signs")
    rows_i, cols_j = np.nonzero(support)
    logs = np.log(quot[rows_i, cols_j])
    design = np.zeros((len(logs), n))
    design[np.arange(len(logs)), rows_i] += 1.0
    design[np.arange(len(logs)), cols_j] -= 1.0
    # pin the gauge u_0 = 0
    design = design[:, 1:]
    u, _, rank, _ = np.linalg.lstsq(design, logs, rcond=None)
    # the pattern graph is connected exactly when its incidence matrix,
    # gauge column removed, has full column rank
    if rank < n - 1:
        raise NotCertifiableError("feedback pattern is disconnected; scales cannot be related")
    fit = design @ u
    if float(np.max(np.abs(fit - logs))) > tol:
        raise NotCertifiableError(
            f"Hadamard quotient is not similarity-consistent "
            f"(log residual {float(np.max(np.abs(fit - logs))):.3g})"
        )
    return np.exp(np.concatenate([[0.0], u]))


def certify_uniallpass(fdn: FdnSystem, dsim, tol=DEFAULT_TOL) -> UniallpassCertificate:
    """Sufficient certificate: with W = diag(dsim, I_P), test U W U^T = W for
    the block system matrix U, both as is and balanced by sqrt(W).  A pass
    (positive ``dsim``) certifies the allpass property for every delay
    vector."""
    tol = check_tolerance(tol)
    dsim = np.asarray(dsim, dtype=float).ravel()
    u = SystemMatrix.from_fdn(fdn).u
    w = np.concatenate([dsim, np.ones(fdn.n_io)])
    residual = float(np.max(np.abs((u * w[None, :]) @ u.T - np.diag(w))))
    balanced = np.inf
    if np.all(dsim > 0):
        balanced = orthogonality_residual(balance(u, w))
    verdict = bool(residual < tol and balanced < tol)
    return UniallpassCertificate(dsim, residual, balanced, verdict, tol)


def check_minor_condition(fdn: FdnSystem, tol=DEFAULT_TOL) -> MinorCheck:
    """Exhaustive principal-minor matching between S_D = A - B D^-1 C and
    A^-1.

    Finds the sign s in {+1, -1} minimizing
    max over subsets I of |det S_D(I) - s det A^-1(I)| and passes when the
    minimum is below ``tol``.  Both 2^N minor lists come from one sweep of
    the stack (S_D, A^-1) (:func:`principal_minors_all`), each minor
    within k^2 eps g of exact times the product of its rows' norms (see
    :func:`core._gcp_terms`).  Subset enumeration is capped at N = 20
    (:class:`FdnError` beyond it); a singular D or A raises
    ``LinAlgError`` naming the block.
    """
    tol = check_tolerance(tol)
    n = fdn.n_delays
    d_inv, a_inv = _inverses(fdn)
    s_d = fdn.a - fdn.b @ d_inv @ fdn.c
    minors_s, minors_ai = principal_minors_all(np.stack((s_d, a_inv)))
    best = None
    for sign in (+1, -1):
        diffs = np.abs(minors_s - sign * minors_ai)
        worst = int(np.argmax(diffs))
        dev = float(diffs[worst])
        if best is None or dev < best[0]:
            best = (dev, sign, worst)
    dev, sign, worst = best
    subset = tuple(i for i in range(n) if (worst >> i) & 1)
    return MinorCheck(
        verdict=bool(dev < tol),
        sign=sign,
        deviation=dev,
        worst_subset=subset,
        sufficient=fdn.is_siso,
        tol=tol,
    )
