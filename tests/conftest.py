import numpy as np
import pytest

from oracles import multiset_max_distance, poles_companion
from uniallpass import DelayVector, FdnSystem, gcp, poles
from uniallpass.kernels import block_size, impulse_kernel, lifted_map


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def no_pole_solve(monkeypatch):
    """Make every pole solve in the package raise."""
    import uniallpass.cli as cli
    import uniallpass.core as core

    def never(*args):
        raise AssertionError("a pole solve ran")

    for module, name in ((core, "poles"), (core, "_aberth_poles"), (cli, "poles")):
        monkeypatch.setattr(module, name, never)


def random_delays(rng, n, high=16):
    return DelayVector(rng.integers(1, high + 1, size=n))


def random_stable_fdn(rng, n=3, p=1, contraction=0.6, delays=None):
    """Generic stable system; almost surely not allpass."""
    a = rng.standard_normal((n, n))
    a *= contraction / np.linalg.norm(a, 2)
    b = rng.standard_normal((n, p))
    c = rng.standard_normal((p, n))
    d = rng.standard_normal((p, p))
    if delays is None:
        delays = random_delays(rng, n, 6)
    return FdnSystem(a, b, c, d, delays)


def unit_circle_points(rng, count):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, count))


def tf_max_diff(f1, f2, zs):
    from uniallpass import frequency_response

    h1 = frequency_response(f1, zs)
    h2 = frequency_response(f2, zs)
    return float(np.max(np.abs(h1 - h2)))


def circle_route_poles(fdn, companion=True):
    """The poles that ``poles`` returns for a homogeneous-decay system,
    checked to come from the circle route, to be exactly closed under
    conjugation and to match the Aberth solve and (unless ``companion`` is
    False) the companion-matrix eigenvalues as multisets to 1e-10."""
    import uniallpass.core as core

    m = fdn.delays.as_array()
    factor = core._homogeneous_factor(fdn.a, m)
    assert factor is not None, "not homogeneous to the route's radius"
    p = poles(fdn)
    gamma, u, _ = factor
    np.testing.assert_array_equal(p, core._circle_poles(u, m, gamma, core._circle_denominator(u, m)))
    assert np.array_equal(np.sort_complex(p), np.sort_complex(p.conj()))
    aberth = core._aberth_poles(fdn, *core._gcp_terms(fdn.a, m))
    assert multiset_max_distance(p, aberth) < 1e-10
    if companion:
        assert multiset_max_distance(p, poles_companion(gcp(fdn.a, fdn.delays))) < 1e-10
    return p


def _rounding_gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    u = np.finfo(np.float64).eps / 2
    return k * u / (1 - k * u)


def impulse_error_bound(fdn, length):
    """Bound on |impulse_kernel - impulse_loop| over a render of ``length``.

    Both renders compute the same linear recursion and differ by rounding
    alone.  Each computed render is the exact response of the network
    driven by local errors: errors of a line output s_i(n) act as an input
    to line i at sample n - m_i, and output errors add to y directly.

    - The loop oracle and the kernel's long lines compute every line input
      x = A s and output y = C s as N-term dot products: local errors at
      most gamma_N ||A||_inf s_max and gamma_N ||C||_inf s_max per entry
      [Higham, Accuracy and Stability of Numerical Algorithms, 3.1], where
      s_max is the largest line output of the render.
    - A lifted block computes the shorter lines' outputs as fl(F^ k), k the
      K entries of the known vector and F^ the computed map, where the exact
      map is F.  fl(F^ k) - F k = (fl(F^ k) - F^ k) + (F^ - F) k, so the
      error delta is at most (gamma_K ||F^||_inf + ||F^ - F||_inf) s_max.
      F is rebuilt in extended precision, whose own error is 2^-11 of
      F^'s.  The exact network reaches those outputs from k when driven by
      the input w_i(n - m_i) = delta_i(n) - (A delta(n - m_i))_i, so
      |w| <= (1 + ||A||_inf) max |delta|.
    - An input of size w on any line reaches any output with gain at most
      G = max_p sum_n sum_i |g_i[p](n)|, g_i the response of (A, e_i, C, 0)
      over the render.

    So |kernel - oracle| <= G (w_lifted + 2 gamma_N ||A||_inf s_max)
    + 2 gamma_N ||C||_inf s_max, the two renders' bounds added.  s_max and
    G are magnitudes read off the kernel's own renders of the line outputs
    and of the responses g_i.
    """
    a, b, c = fdn.a, fdn.b, fdn.c
    delays = fdn.delays.as_array()
    n, p = b.shape
    step = block_size(delays)
    known, _, f = lifted_map(a, delays, step)
    f_exact = lifted_map(a.astype(np.longdouble), delays, step)[2]
    s_max = float(np.max(np.abs(impulse_kernel(a, b, np.eye(n), np.zeros((n, p)), delays, length))))
    g = impulse_kernel(a, np.eye(n), c, np.zeros((c.shape[0], n)), delays, length)
    gain = float(np.max(np.abs(g).sum(axis=(0, 2))))
    a_inf = float(np.max(np.abs(a).sum(axis=1)))
    c_inf = float(np.max(np.abs(c).sum(axis=1)))
    f_inf = float(np.max(np.abs(f).sum(axis=1), initial=0.0))
    f_err = float(np.max(np.abs(f - f_exact).sum(axis=1), initial=0.0))
    lifted = (1 + a_inf) * (_rounding_gamma(len(known)) * f_inf + f_err) * s_max
    dots = _rounding_gamma(n) * s_max
    return gain * (lifted + 2 * a_inf * dots) + 2 * c_inf * dots
