import numpy as np
import pytest

import fixture_values as fv
from conftest import random_delays, unit_circle_points
from oracles import gardner_recursion_tf, schroeder_product_tf
from uniallpass import (
    certify_uniallpass,
    delay_dependent_allpass,
    dsim_from_lyapunov,
    frequency_response,
    gardner_nested,
    gcp,
    is_allpass,
    poles,
    poletti_unitary,
    random_orthogonal,
    schroeder_series,
)


class TestSchroederSeries:
    def test_first_order(self, rng):
        fdn, dsim = schroeder_series([0.5], [3])
        np.testing.assert_allclose(fdn.a, [[-0.5]])
        np.testing.assert_allclose(fdn.b, [[1.0]])
        np.testing.assert_allclose(fdn.c, [[0.75]])
        assert fdn.d[0, 0] == 0.5
        assert is_allpass(fdn).allpass

    def test_classic_gains_structure_and_certificate(self):
        g = fv.CLASSIC_GAINS
        fdn, dsim = schroeder_series(g, [1] * 6)
        assert np.allclose(np.triu(fdn.a, 1), 0.0)  # feedback is lower triangular
        np.testing.assert_allclose(np.diag(fdn.a), -g)
        np.testing.assert_allclose(dsim, 1.0 / (1.0 - g**2))
        cert = certify_uniallpass(fdn, dsim)
        assert cert.verdict and cert.residual < 1e-12

    def test_product_form(self, rng):
        g = [0.3, -0.45, 0.62, 0.8]
        m = [5, 2, 9, 3]
        fdn, _ = schroeder_series(g, m)
        zs = unit_circle_points(rng, 16) * rng.uniform(0.9, 1.5, 16)
        h = frequency_response(fdn, zs)[:, 0, 0]
        np.testing.assert_allclose(h, schroeder_product_tf(g, m, zs), atol=1e-9)

    def test_triangular_unilossless_factorization(self):
        # A = (unit-diagonal triangular) @ diag(g): series chains have
        # delay-proportional absorption structure built in
        g = fv.CLASSIC_GAINS
        fdn, _ = schroeder_series(g, [1] * 6)
        tri = fdn.a @ np.diag(1.0 / g)
        np.testing.assert_allclose(np.diag(tri), -1.0)
        assert np.allclose(np.triu(tri, 1), 0.0)

    def test_gain_bound(self):
        with pytest.raises(ValueError):
            schroeder_series([1.0], [1])


class TestGardnerNested:
    def test_base_case_equals_series(self):
        s, _ = schroeder_series([0.6], [4])
        n, _ = gardner_nested([0.6], [4])
        np.testing.assert_allclose(s.a, n.a)
        np.testing.assert_allclose(s.b, n.b)
        np.testing.assert_allclose(s.c, n.c)
        np.testing.assert_allclose(s.d, n.d)

    def test_classic_gains_certificate(self):
        fdn, dsim = gardner_nested(fv.CLASSIC_GAINS, [1] * 6)
        # impulse enters at the innermost end of the nest
        np.testing.assert_allclose(fdn.b.ravel(), [0, 0, 0, 0, 0, 1])
        assert np.allclose(np.triu(fdn.a, 2), 0.0)  # Hessenberg
        np.testing.assert_allclose(np.diag(fdn.a, 1), 1.0)
        cert = certify_uniallpass(fdn, dsim)
        assert cert.verdict and cert.residual < 1e-12

    def test_lyapunov_matches_product_magnitude(self, rng):
        # the stated dsim_i = 1 / prod_{k >= i} (1 - g_k^2) is the Gram
        # solution's diagonal, which is positive by semidefiniteness
        for n in range(1, 9):
            g = rng.uniform(-0.9, 0.9, n)
            fdn, dsim = gardner_nested(g, [1] * n)
            np.testing.assert_allclose(dsim_from_lyapunov(fdn.a, fdn.b), dsim, rtol=1e-11, atol=0)
            assert np.all(dsim > 0)
            assert certify_uniallpass(fdn, dsim).residual < 1e-12

    def test_closed_form_certifies_long_chain(self):
        # N = 32: the Kronecker Lyapunov solve's diagonal test refused this
        # chain (off/diag mass 2.75e-6); the closed form certifies it
        fdn, dsim = gardner_nested(np.random.default_rng(13).uniform(-0.9, 0.9, 32), [1] * 32)
        assert certify_uniallpass(fdn, dsim).verdict

    def test_long_chain_refused_only_by_absolute_gauge(self):
        # dsim up to 1.9e8 lifts the absolute residual above tol although the
        # balanced system matrix is orthogonal to rounding
        fdn, dsim = gardner_nested(np.random.default_rng(35).uniform(-0.9, 0.9, 32), [1] * 32)
        cert = certify_uniallpass(fdn, dsim)
        assert cert.residual > 1e-8 and cert.balanced_residual < 1e-12
        assert not cert.verdict

    def test_recursion_form(self, rng):
        g = [0.35, -0.2, 0.55]
        m = [4, 7, 2]
        fdn, _ = gardner_nested(g, m)
        zs = unit_circle_points(rng, 16)
        h = frequency_response(fdn, zs)[:, 0, 0]
        np.testing.assert_allclose(h, gardner_recursion_tf(g, m, zs), atol=1e-9)

    def test_differs_from_series_beyond_one_section(self):
        g = [0.4, 0.6]
        series, _ = schroeder_series(g, [2, 3])
        nested, _ = gardner_nested(g, [2, 3])
        d_series = gcp(series.a, [2, 3])
        d_nested = gcp(nested.a, [2, 3])
        assert np.max(np.abs(d_series - d_nested)) > 1e-3


class TestPolettiUnitary:
    def test_zero_gain_is_pure_delay(self, rng):
        fdn, _ = poletti_unitary(np.eye(3), 0.0, [2, 4, 5])
        h = frequency_response(fdn, [2.0])[0]
        np.testing.assert_allclose(h, np.diag([2.0**-2, 2.0**-4, 2.0**-5]), atol=1e-12)

    def test_zero_gain_allpass_despite_singular_direct_block(self, rng):
        # D = 0 here: the determinant-reversal path must not require the
        # Schur complement, only the fitted numerator of det H
        fdn, dsim = poletti_unitary(random_orthogonal(3, rng), 0.0, [2, 4, 5])
        rep = is_allpass(fdn)
        assert rep.allpass and rep.reversal_deviation < 1e-9
        assert certify_uniallpass(fdn, dsim).verdict

    def test_matrix_allpass_on_circle(self, rng):
        fdn, dsim = poletti_unitary(random_orthogonal(4, rng), 0.7, [3, 5, 7, 2])
        zs = unit_circle_points(rng, 16)
        h = frequency_response(fdn, zs)
        prod = h @ np.conj(np.swapaxes(h, 1, 2))
        assert np.max(np.abs(prod - np.eye(4))) < 1e-9
        rep = is_allpass(fdn)
        assert rep.allpass and rep.grid_deviation < 1e-9

    def test_homogeneous_only_for_equal_delays(self, rng):
        u = random_orthogonal(3, rng)
        equal, _ = poletti_unitary(u, 0.6, [4, 4, 4])
        moduli = np.abs(poles(equal))
        assert np.max(moduli) - np.min(moduli) < 1e-9
        unequal, _ = poletti_unitary(u, 0.6, [4, 5, 3])
        moduli = np.abs(poles(unequal))
        assert np.max(moduli) - np.min(moduli) > 1e-3

    def test_orthogonality_required(self, rng):
        with pytest.raises(ValueError):
            poletti_unitary(rng.standard_normal((3, 3)), 0.5, [1, 1, 1])

    def test_empty_lattice_refused(self, rng):
        # the orthogonality check used to fail on a zero-size reduction
        with pytest.raises(ValueError, match="at least one delay line"):
            poletti_unitary(random_orthogonal(0, rng), 0.5, [])


class TestCounterexampleFixture:
    def test_printed_values(self):
        fdn = delay_dependent_allpass()
        assert fdn.n_delays == 3 and fdn.is_siso
        assert fdn.d[0, 0] == pytest.approx(0.288)
        assert fdn.a[0, 1] == pytest.approx(3.833)

    def test_direct_gain_magnitude_is_determinant(self):
        fdn = delay_dependent_allpass()
        assert abs(np.linalg.det(fdn.a)) == pytest.approx(0.288, abs=1e-3)


class TestDesignFamilyProperties:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: schroeder_series([0.5, np.nan], [1, 2]),
            lambda: gardner_nested([np.nan, 0.5], [1, 2]),
            lambda: poletti_unitary(np.eye(2), np.nan, [1, 2]),
        ],
    )
    def test_nan_gain_refused(self, make):
        with pytest.raises(ValueError, match=r"\|g\| < 1"):
            make()

    def test_fifty_random_draws_certify(self, rng):
        for k in range(50):
            n = int(rng.integers(1, 7))
            g = rng.uniform(-0.9, 0.9, n)
            g[np.abs(g) < 0.05] = 0.3  # keep chains away from degenerate gains
            delays = random_delays(rng, n, 8)
            series, dsim_s = schroeder_series(g, delays)
            assert certify_uniallpass(series, dsim_s).verdict
            nested, dsim_n = gardner_nested(g, delays)
            assert certify_uniallpass(nested, dsim_n).verdict
            if k < 15:
                u = random_orthogonal(n, rng)
                gain = float(rng.uniform(-0.9, 0.9))
                lattice, dsim_p = poletti_unitary(u, gain, delays)
                assert certify_uniallpass(lattice, dsim_p).verdict

    def test_lyapunov_recovery_matches_stated_dsim(self, rng):
        g = [0.25, 0.45, 0.65]
        series, stated = schroeder_series(g, [1, 2, 3])
        np.testing.assert_allclose(
            dsim_from_lyapunov(series.a, series.b), stated, atol=1e-10
        )
        lattice, stated_p = poletti_unitary(random_orthogonal(3, rng), 0.4, [1, 2, 3])
        np.testing.assert_allclose(
            dsim_from_lyapunov(lattice.a, lattice.b), stated_p, atol=1e-10
        )
