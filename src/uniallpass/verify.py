"""Allpass certification independent of delay lengths.

A system is certified once a positive diagonal ``dsim`` makes the block
system matrix an isometry of the weighted inner product diag(dsim, I); the
certificate then covers every choice of delay lengths.  Two recovery routes
for ``dsim`` are provided (the diagonal of the Stein equation, one N x N
solve, and an Engel-Schneider style Hadamard quotient), plus the
principal-minor condition that is necessary in general and equivalent for
single-input single-output systems: proven in O(N^3) from the
diagonal similarity of a certified system, and by the exhaustive 2^N sweep
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import _EPS, DEFAULT_TOL, _stein_diagonal, check_tolerance
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
    ``route`` is ``"witness"`` when a diagonal similarity proved the
    condition (sign +1, ``worst_subset`` empty) and ``"sweep"`` when the
    2^N minors were compared.  ``deviation`` is in units of ``scale``:
    the witness residual over s^2, s the Frobenius norm of A^-1 in the
    balanced frame or larger, or the largest absolute minor difference
    (``scale`` 1).
    """

    verdict: bool
    sign: int
    deviation: float
    worst_subset: tuple
    sufficient: bool
    tol: float
    route: str
    scale: float


def _inverse(block, name):
    """``block``^-1; raises LinAlgError naming the block if it is singular."""
    try:
        return np.linalg.inv(block)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(f"{name} is singular") from None


def _schur_d(a, b, c, d):
    """S_D = A - B D^-1 C and D^-1; raises LinAlgError if D is singular."""
    d_inv = _inverse(d, "direct-gain block D")
    return a - b @ d_inv @ c, d_inv


def schur_complements(fdn: FdnSystem) -> SchurPair:
    """Both Schur complements; raises naming the singular block."""
    s_d, _ = _schur_d(fdn.a, fdn.b, fdn.c, fdn.d)
    return SchurPair(s_d=s_d, s_a=fdn.d - fdn.c @ _inverse(fdn.a, "feedback block A") @ fdn.b)


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
    s_inv = np.linalg.inv(_schur_d(a, b, c, d)[0])
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
    vector.  A ``dsim`` of a length other than N raises ValueError."""
    tol = check_tolerance(tol)
    dsim = np.asarray(dsim, dtype=float).ravel()
    if dsim.size != fdn.n_delays:
        raise ValueError(f"dsim has length {dsim.size}, expected {fdn.n_delays}")
    u = SystemMatrix.from_fdn(fdn).u
    w = np.concatenate([dsim, np.ones(fdn.n_io)])
    residual = float(np.max(np.abs((u * w[None, :]) @ u.T - np.diag(w))))
    balanced = np.inf
    if np.all(dsim > 0):
        balanced = orthogonality_residual(balance(u, w))
    verdict = bool(residual < tol and balanced < tol)
    return UniallpassCertificate(dsim, residual, balanced, verdict, tol)


def _certify(fdn: FdnSystem, dsim, tol):
    """(certificate, rejection): the certificate of ``dsim`` or, when it is
    None, of the Lyapunov dsim; where :func:`dsim_from_lyapunov` rejects,
    that of its candidate (None without one) and the rejection's message."""
    rejection = None
    if dsim is None:
        try:
            dsim = dsim_from_lyapunov(fdn.a, fdn.b, tol)
        except NotCertifiableError as exc:
            # the message, not the exception: a kept exception holds this
            # frame through its traceback, a cycle only the collector frees
            dsim, rejection = exc.candidate, str(exc)
    return (None if dsim is None else certify_uniallpass(fdn, dsim, tol)), rejection


def _minor_witness(fdn: FdnSystem, cert, tol):
    """(r / s^2, s^2) when the diagonal similarity of ``cert``, the
    caller's certificate of ``fdn`` (None: no witness), proves the minor
    condition, else None.  The CLI passes the certificate of the file's dsim
    (of the Lyapunov dsim when the file has none), and
    :func:`check_minor_condition` that of the Lyapunov dsim.

    The premise is both residuals of ``cert`` below min(``tol``, 1e-8);
    it needs a positive dsim, as the balanced residual is inf otherwise.
    A certificate makes the balanced system matrix V = [[A, B], [C, D]]
    (hats dropped) orthogonal, and the (1, 1) block of V^-1 = V^T gives
    S_D^-1 = A^T: S_D = A^-T in the balanced frame, so S_D = W A^-T W^-1
    with W = diag(dsim).  A diagonal similarity and a transpose keep every
    principal minor, so the minors of S_D and A^-1 match with sign +1
    (Engel & Schneider 1980; Hartfiel & Loewy 1984).

    The residual r = max|S_D - A^-T| of the computed balanced blocks is
    held to what the certificate and rounding allow; of the certificate,
    only its balanced residual delta enters.  With n = N + P, ||V V^T -
    I||_2 <= e = n (delta + (n + 1) eps), the rounding of delta included.
    V^-1 - V^T = -V^T E (I + E)^-1 bounds ||S_D^-1 - A^T||_2 by f = e
    sqrt(1 + e) / (1 - e), and S_D - A^-T = S_D (A^T - S_D^-1) A^-T bounds
    ||S_D - A^-T||_2 by ||S_D|| ||A^-1|| f.  With s the largest Frobenius norm of A^-1, S_D and D^-1
    (each at least its 2-norm; S_D = A^-T gives the first two the same
    norm) and s >= ||A^-1||_2 >= 1 / ||A||_2 >= (1 + e)^-0.5, the computed
    blocks add at most (first order, modest LU pivot growth):
    - inverting A and D: k eps ||M|| ||M^-1||^2 for a k x k block M, the
      D^-1 error carried through B and C, so (N + P) (1 + e)^1.5 eps s^2;
    - forming A - B D^-1 C: (2 P + 1) eps (|A| + |B| |D^-1| |C|), where
      each block of V has a Frobenius norm of at most sqrt(n (1 + e)), so
      at most 2 (2 P + 1) n (1 + e)^1.5 eps s^2.
    So

        r <= s^2 (f + (4 P + 3) n (1 + e)^1.5 eps).

    The witness proves an identity of the certified system, so it stands
    for the system given only as far as the certificate is tight: the
    premise is never looser than DEFAULT_TOL = 1e-8.  A loose ``tol``
    loosens the comparison, not the premise; a system certified only at,
    say, 0.05 has minors that differ by far more than its balanced
    residual, and takes the sweep.  On this route ``tol`` bounds the scaled
    residual r / s^2, as it bounds the absolute minor difference on the
    sweep.  The premise keeps e below n (1e-8 + (n + 1) eps), so e < 1 for
    any n that fits in memory.  Where the premise fails, a block is
    singular, or either test fails, there is no witness.
    """
    premise = min(tol, DEFAULT_TOL)
    if cert is None or not (cert.residual < premise and cert.balanced_residual < premise):
        return None
    size, p = fdn.n_delays + fdn.n_io, fdn.n_io
    e = size * (cert.balanced_residual + (size + 1) * _EPS)
    balanced = apply_diagonal_similarity(fdn, np.sqrt(cert.dsim))
    try:
        a_inv = np.linalg.inv(balanced.a)
        s_d, d_inv = _schur_d(balanced.a, balanced.b, balanced.c, balanced.d)
    except np.linalg.LinAlgError:
        return None
    scale = max(float(np.sum(x * x)) for x in (a_inv, s_d, d_inv))
    residual = float(np.max(np.abs(s_d - a_inv.T)))
    f = e * np.sqrt(1.0 + e) / (1.0 - e)
    rounding = (4 * p + 3) * size * (1.0 + e) ** 1.5 * _EPS
    if not (residual <= scale * (f + rounding) and residual / scale < tol):
        return None
    return residual / scale, scale


def check_minor_condition(fdn: FdnSystem, tol=DEFAULT_TOL) -> MinorCheck:
    """Principal-minor matching between S_D = A - B D^-1 C and A^-1.

    A system whose Lyapunov dsim (:func:`dsim_from_lyapunov`) has both
    certificate residuals below min(``tol``, 1e-8) is proven to pass by that
    diagonal similarity in O(N^3), at any N (:func:`_minor_witness`, route
    ``"witness"``; ``tol`` bounds its scaled residual r / s^2); the CLI
    passes the certificate of the file's dsim instead, through
    :func:`_minor_condition`.  Every other system takes
    the exhaustive sweep (route ``"sweep"``): it finds the sign s in {+1,
    -1} minimizing max over subsets I of |det S_D(I) - s det A^-1(I)| and
    passes when that absolute minor difference is below ``tol``.  Both 2^N
    minor lists come from one sweep of the stack (S_D, A^-1)
    (:func:`principal_minors_all`), each minor within k^2 eps g of exact
    times the product of its rows' norms (see :func:`core._gcp_terms`).
    The sweep is capped at N = 20 (:class:`FdnError` beyond it); a
    singular D or A raises ``LinAlgError`` naming the block.
    """
    tol = check_tolerance(tol)
    return _minor_condition(fdn, _certify(fdn, None, min(tol, DEFAULT_TOL))[0], tol)


def _minor_condition(fdn: FdnSystem, cert, tol) -> MinorCheck:
    """:func:`check_minor_condition` with the witness's premise taken from
    ``cert`` (None: the sweep alone)."""
    witness = _minor_witness(fdn, cert, tol)
    if witness is not None:
        (deviation, scale), sign, subset, route = witness, +1, (), "witness"
    else:
        s_d, _ = _schur_d(fdn.a, fdn.b, fdn.c, fdn.d)
        minors_s, minors_ai = principal_minors_all(np.stack((s_d, _inverse(fdn.a, "feedback block A"))))
        plus, minus = np.abs(minors_s - minors_ai), np.abs(minors_s + minors_ai)
        # a tie keeps +1
        sign, diffs = (-1, minus) if np.max(minus) < np.max(plus) else (+1, plus)
        worst = int(np.argmax(diffs))
        deviation, scale, route = float(diffs[worst]), 1.0, "sweep"
        subset = tuple(i for i in range(fdn.n_delays) if (worst >> i) & 1)
    return MinorCheck(
        verdict=bool(deviation < tol),
        sign=sign,
        deviation=deviation,
        worst_subset=subset,
        sufficient=fdn.is_siso,
        tol=tol,
        route=route,
        scale=scale,
    )
