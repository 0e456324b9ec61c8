import numpy as np
import pytest

from oracles import multiset_max_distance, poles_companion
from uniallpass import DelayVector, FdnSystem, gcp, poles


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
    np.testing.assert_array_equal(p, core._circle_poles(factor[1], m, factor[0]))
    assert np.array_equal(np.sort_complex(p), np.sort_complex(p.conj()))
    aberth = core._aberth_poles(fdn, *core._gcp_terms(fdn.a, m))
    assert multiset_max_distance(p, aberth) < 1e-10
    if companion:
        assert multiset_max_distance(p, poles_companion(gcp(fdn.a, fdn.delays))) < 1e-10
    return p
