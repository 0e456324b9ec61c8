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
from .core import DEFAULT_TOL, _pole_radius, check_tolerance
from .errors import ConditioningError, InterleavingError
from .system import ORTHO_TOL, DelayVector, FdnSystem, orthogonality_residual

# largest accepted bound on the deviation of a design pole modulus from gamma
_POLE_TOL = 1e-6
# smallest accepted relative gap between a node and a scaled node of the
# Cauchy factor
_GAP_TOL = 1e-10


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
    d_i = d_{i-1} / (slack * decay_i^2), built as a cumulative sum of logs
    and scaled to a largest entry of 1.  Smaller slack spreads the nodes
    further apart.  The scale is free (it moves gain between b and c, not
    the transfer function), but the absolute certificate residual grows
    with max(dsim), so the largest node is pinned to 1."""
    decay = np.asarray(decay, dtype=float).ravel()
    if not 0.0 < slack < 1.0:
        raise ValueError(f"slack must lie in (0, 1), got {slack}")
    if np.any((decay <= 0) | (decay >= 1)):
        raise ValueError("decay gains must lie strictly inside (0, 1)")
    log_d = np.cumsum(np.concatenate([[0.0], -np.log(slack) - 2.0 * np.log(decay[1:])]))
    return np.exp(log_d - log_d[-1])


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
    bad = ~(dqs < ds)
    bad[1:] |= ~(ds[:-1] < dqs[1:])
    if np.any(bad):
        return False, int(np.argmax(bad))
    return True, None


def cauchy_unitary(d, dq):
    """Orthogonal matrix U_ij = sqrt(beta_i alpha_j) / (d_i - dq_j).

    With node polynomials A(x) = prod (x - d_k) and B(x) = prod (x - dq_k),
    alpha_j = -A(dq_j) / B'(dq_j) and beta_i = B(d_i) / A'(d_i); strict
    interleaving makes both positive, so only their logarithms are needed:
    the column and row sums of G = log|d_i - dq_j| less the self-gap sums
    sum_{k != j} log|dq_j - dq_k| and sum_{k != i} log|d_i - d_k|.  Staying
    in log space keeps long products from overflowing.  A relative node gap
    |d_i - dq_j| / max(|d_i|, |dq_j|) below ``_GAP_TOL`` is refused: rounding
    of dq = decay^2 d is relative, so that gap sets the accuracy.
    """
    d = np.asarray(d, dtype=float).ravel()
    dq = np.asarray(dq, dtype=float).ravel()
    ok, idx = validate_interleaving(d, dq)
    if not ok:
        raise InterleavingError(f"nodes are not strictly interleaved at sorted position {idx}", index=idx)
    diffs = d[:, None] - dq[None, :]
    gap = float(np.min(np.abs(diffs) / np.maximum(np.abs(d)[:, None], np.abs(dq)[None, :])))
    if gap < _GAP_TOL:
        raise InterleavingError(f"near-coincident nodes, smallest relative gap {gap:.3g}")
    n = d.size
    eye = np.eye(n)
    log_gaps = np.log(np.abs(diffs))
    log_alpha = log_gaps.sum(axis=0) - np.log(np.abs(dq[:, None] - dq[None, :]) + eye).sum(axis=1)
    log_beta = log_gaps.sum(axis=1) - np.log(np.abs(d[:, None] - d[None, :]) + eye).sum(axis=1)
    u = np.sign(diffs) * np.exp(0.5 * (log_beta[:, None] + log_alpha[None, :]) - log_gaps)
    residual = orthogonality_residual(u)
    if residual > ORTHO_TOL:
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
    tol = check_tolerance(tol)
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
