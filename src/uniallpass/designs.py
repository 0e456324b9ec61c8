"""Closed-form reference constructions: series and nested single-channel
allpass chains and the unitary multichannel reverberator, plus a bundled
counterexample that is allpass only for particular delay choices.

Each constructor returns (system, dsim) where dsim certifies the system via
:func:`uniallpass.verify.certify_uniallpass` regardless of delays.
"""

from __future__ import annotations

import numpy as np

from .system import ORTHO_TOL, DelayVector, FdnSystem, orthogonality_residual


def _check_gains(g):
    g = np.asarray(g, dtype=float).ravel()
    if not np.all(np.abs(g) < 1.0):
        raise ValueError("all section gains must satisfy |g| < 1")
    return g


def schroeder_series(gains, delays):
    """Series of first-order allpass sections as one network.

    The feedback matrix is lower triangular with -g_i on the diagonal; the
    certifying similarity is dsim_i = 1 / (1 - g_i^2).
    """
    g = _check_gains(gains)
    n = g.size
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = -g[i]
        for j in range(i):
            a[i, j] = (1.0 - g[j] ** 2) * np.prod(g[j + 1 : i])
    b = np.array([np.prod(g[:i]) for i in range(n)])
    c = np.array([(1.0 - g[i] ** 2) * np.prod(g[i + 1 :]) for i in range(n)])
    d = float(np.prod(g))
    dsim = 1.0 / (1.0 - g**2)
    return FdnSystem.siso(a, b, c, d, delays), dsim


def gardner_nested(gains, delays):
    """Recursively nested allpass sections; index 0 is the innermost.

    The feedback matrix is upper Hessenberg with a unit superdiagonal and the
    impulse enters through the last line.  The certifying similarity is
    dsim_i = 1 / prod_{k >= i} (1 - g_k^2).
    """
    g = _check_gains(gains)
    n = g.size
    eps = np.ones(n)
    eps[1:] = g[:-1]
    a = np.zeros((n, n))
    for i in range(n):
        a[i, i] = -g[i] * eps[i]
        if i + 1 < n:
            a[i, i + 1] = 1.0
        for j in range(i):
            a[i, j] = -g[i] * eps[j] * np.prod(1.0 - g[j:i] ** 2)
    b = np.zeros(n)
    b[n - 1] = 1.0
    c = np.array([eps[i] * np.prod(1.0 - g[i:] ** 2) for i in range(n)])
    d = float(g[n - 1])
    dsim = 1.0 / np.cumprod((1.0 - g**2)[::-1])[::-1]
    return FdnSystem.siso(a, b, c, d, delays), dsim


def poletti_unitary(unitary, gain: float, delays):
    """Full multichannel lattice: A = -g U, B = (1+g) I, C = (1-g) U,
    D = g I for an orthogonal U and loop gain |g| < 1.

    The certifying similarity is the scalar (1+g)/(1-g) on every line, i.e.
    the square of the balanced scaling (1+g)/sqrt(1-g^2).
    """
    u = np.asarray(unitary, dtype=float)
    n = u.shape[0]
    if u.shape != (n, n):
        raise ValueError("mixing matrix must be square")
    if n < 1:
        raise ValueError("need at least one delay line")
    if orthogonality_residual(u) > ORTHO_TOL:
        raise ValueError("mixing matrix is not orthogonal")
    gain = float(gain)
    if not abs(gain) < 1.0:
        raise ValueError("loop gain must satisfy |g| < 1")
    fdn = FdnSystem(
        -gain * u,
        (1.0 + gain) * np.eye(n),
        (1.0 - gain) * u,
        gain * np.eye(n),
        delays,
    )
    dsim = np.full(n, (1.0 + gain) / (1.0 - gain))
    return fdn, dsim


# A three-line network that passes the allpass test for delays [1,1,1] and
# [2,2,1] but fails for [2,1,1]; its principal-minor lists disagree, so no
# delay-independent certificate exists.  Values are fixed at three decimals.
_CE_A = [
    [1.241, 3.833, -6.028],
    [-0.859, -2.276, 3.582],
    [-0.048, -0.180, -0.332],
]
_CE_B = [1.833, -0.469, 0.826]
_CE_C = [0.430, 0.831, 0.452]
_CE_D = 0.288


def delay_dependent_allpass(delays=(1, 1, 1)) -> FdnSystem:
    """The bundled delay-dependent counterexample (allpass for some delay
    vectors, not allpass for others)."""
    return FdnSystem.siso(_CE_A, _CE_B, _CE_C, _CE_D, DelayVector(delays))
