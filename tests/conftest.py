import numpy as np
import pytest

from uniallpass import DelayVector, FdnSystem


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
