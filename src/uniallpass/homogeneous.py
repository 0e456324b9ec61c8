"""Single-channel allpass networks whose poles all share one modulus.

The feedback matrix is A = U diag(decay) where decay_i = gamma**m_i and U is
orthogonal.  U is parameterized by a positive node vector ``dsim`` whose
entries strictly interleave the scaled nodes dq = decay^2 * dsim: the inverse
of the Cauchy matrix on (dsim, dq) has a closed form, and the interleaving
makes its scaling weights positive, which turns the Cauchy-like factor into a
real orthogonal matrix.

The same nodes complete the network: balanced by T = sqrt(dsim), A is the
corner of an orthogonal (N + 1) x (N + 1) matrix, and the SVD dilation of
that corner, un-balanced by T, certifies for every delay vector.

No pole is solved: det(diag(z^m) - U Gamma) = gamma^L det(diag(w^m) - U) with
w = z / gamma, the w-poles are eigenvalues of the lossless network's state
matrix, orthogonal for an orthogonal U (Schlecht & Habets, IEEE TSP 2017), so
Bauer-Fike bounds every | |z| - gamma | by gamma (||U U^T - I||_2 + N eps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .complete import _complete_balanced
from .core import DEFAULT_TOL, _pole_radius
from .errors import ConditioningError, InterleavingError
from .system import DelayVector, FdnSystem

# largest accepted bound on the deviation of a design pole modulus from gamma
_POLE_TOL = 1e-6
# smallest accepted gap between a node and a scaled node of the Cauchy factor
_GAP_TOL = 1e-10
# orthogonality tolerance of the Cauchy factor
_ORTHO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class HomogeneousDesign:
    """A completed homogeneous-decay design with its building blocks and a
    proven enclosure [pole_modulus_min, pole_modulus_max] = gamma -+ bound of
    every pole modulus (a bound, not measured extremes)."""

    fdn: FdnSystem
    gamma: float
    decay: np.ndarray
    dsim: np.ndarray
    dsim_hat: np.ndarray
    unitary: np.ndarray
    pole_modulus_min: float
    pole_modulus_max: float


def decay_gains(delays, gamma: float):
    """Per-line absorption gamma**m_i (diagonal of the decay matrix)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"decay rate must lie in (0, 1), got {gamma}")
    m = delays if isinstance(delays, DelayVector) else DelayVector(delays)
    return np.power(gamma, m.as_array().astype(float))


def choose_dsim(decay, slack=0.9):
    """Node vector satisfying the interleaving constraint by construction:
    d_1 = 1 and d_i = d_{i-1} / (slack * decay_i^2).  Smaller slack spreads
    the nodes further apart."""
    decay = np.asarray(decay, dtype=float).ravel()
    if not 0.0 < slack < 1.0:
        raise ValueError(f"slack must lie in (0, 1), got {slack}")
    if np.any((decay <= 0) | (decay >= 1)):
        raise ValueError("decay gains must lie strictly inside (0, 1)")
    d = np.empty(decay.size)
    d[0] = 1.0
    for i in range(1, decay.size):
        d[i] = d[i - 1] / (slack * decay[i] ** 2)
    return d


def validate_interleaving(d, dq):
    """Check dq_1 < d_1 < dq_2 < ... < dq_N < d_N after sorting pairs by d.

    Returns (ok, first_violating_index) with the index in sorted order, or
    (True, None).
    """
    d = np.asarray(d, dtype=float).ravel()
    dq = np.asarray(dq, dtype=float).ravel()
    if d.size != dq.size:
        raise ValueError("node vectors must have equal length")
    order = np.argsort(d)
    ds, dqs = d[order], dq[order]
    for i in range(d.size):
        if not dqs[i] < ds[i]:
            return False, i
        if i > 0 and not ds[i - 1] < dqs[i]:
            return False, i
    return True, None


def _log_products(nodes, others):
    """log |prod (x - others)| and its sign at each x in nodes, skipping
    exact self-pairings. Stays in log space so long products do not overflow."""
    diffs = nodes[:, None] - others[None, :]
    mask = diffs != 0.0
    signs = np.where(np.sum((diffs < 0) & mask, axis=1) % 2 == 1, -1.0, 1.0)
    logs = np.where(mask, np.log(np.abs(np.where(mask, diffs, 1.0))), 0.0).sum(axis=1)
    return logs, signs


def cauchy_unitary(d, dq):
    """Orthogonal matrix U_ij = sqrt(beta_i alpha_j) / (d_i - dq_j).

    With node polynomials A(x) = prod (x - d_k) and B(x) = prod (x - dq_k),
    alpha_i = -A(dq_i) / B'(dq_i) and beta_i = B(d_i) / A'(d_i); strict
    interleaving guarantees both are positive.  Products are evaluated in
    log-magnitude plus sign form so large N does not overflow.
    """
    d = np.asarray(d, dtype=float).ravel()
    dq = np.asarray(dq, dtype=float).ravel()
    ok, idx = validate_interleaving(d, dq)
    if not ok:
        raise InterleavingError(f"nodes are not strictly interleaved at sorted position {idx}", index=idx)
    gaps = np.abs(d[:, None] - dq[None, :])
    if float(gaps.min()) < _GAP_TOL:
        raise InterleavingError(f"near-coincident nodes, smallest gap {float(gaps.min()):.3g}")
    n = d.size
    log_a_at_dq, sign_a_at_dq = _log_products(dq, d)
    log_bp_at_dq, sign_bp_at_dq = _log_products(dq, dq)  # B'(dq_i) = prod_{k != i}
    log_b_at_d, sign_b_at_d = _log_products(d, dq)
    log_ap_at_d, sign_ap_at_d = _log_products(d, d)
    alpha_sign = -sign_a_at_dq * sign_bp_at_dq
    beta_sign = sign_b_at_d * sign_ap_at_d
    if np.any(alpha_sign <= 0) or np.any(beta_sign <= 0):
        raise InterleavingError("interleaving violated: nonpositive Cauchy weights")
    log_alpha = log_a_at_dq - log_bp_at_dq
    log_beta = log_b_at_d - log_ap_at_d
    u = np.sign(d[:, None] - dq[None, :]) * np.exp(
        0.5 * (log_beta[:, None] + log_alpha[None, :]) - np.log(gaps)
    )
    residual = float(np.max(np.abs(u @ u.T - np.eye(n))))
    if residual > _ORTHO_TOL:
        raise ConditioningError(
            f"Cauchy factor lost orthogonality, residual {residual:.3g}", residual=residual
        )
    return u


def design_homogeneous_siso(
    delays,
    gamma: float,
    dsim=None,
    slack=0.9,
    tol=DEFAULT_TOL,
) -> HomogeneousDesign:
    """Design and complete a homogeneous-decay single-channel network.

    The SVD dilation completes the balanced corner T^-1 A T (T = sqrt(dsim));
    un-balancing gives b = T b_bal and c = c_bal T^-1, with d = +|det A| and
    a positive dominant balanced input gain.  The result certifies against
    ``dsim`` for any delays, and every pole modulus lies within the proven
    bound gamma (||U U^T - I||_2 + N eps) of ``gamma``, without a pole solve;
    a bound above 1e-6 refuses the design.  When ``dsim`` is omitted it comes
    from :func:`choose_dsim`.
    """
    m = delays if isinstance(delays, DelayVector) else DelayVector(delays)
    decay = decay_gains(m, gamma)
    if dsim is None:
        d_nodes = choose_dsim(decay, slack)
    else:
        d_nodes = np.asarray(dsim, dtype=float).ravel()
        if d_nodes.size != len(m):
            raise ValueError(f"dsim has length {d_nodes.size}, expected {len(m)}")
        if np.any(d_nodes <= 0):
            raise ValueError("dsim entries must be positive")
    dq_nodes = decay**2 * d_nodes
    unitary = cauchy_unitary(d_nodes, dq_nodes)
    bound = _pole_radius(gamma, unitary)
    if bound > _POLE_TOL:
        raise ConditioningError(
            f"pole modulus bound {bound:.3g} about {gamma} exceeds {_POLE_TOL:g}", residual=bound
        )
    a = unitary * decay[None, :]
    fdn, cert = _complete_balanced(a, d_nodes, m, tol)
    if not cert.verdict:
        raise ConditioningError(
            f"design failed certification (residual {cert.residual:.3g})", residual=cert.residual
        )
    return HomogeneousDesign(
        fdn=fdn,
        gamma=float(gamma),
        decay=decay,
        dsim=d_nodes,
        dsim_hat=dq_nodes,
        unitary=unitary,
        pole_modulus_min=float(gamma) - bound,
        pole_modulus_max=float(gamma) + bound,
    )
