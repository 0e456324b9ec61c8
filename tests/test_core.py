import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fixture_values as fv
from conftest import random_delays, random_stable_fdn, unit_circle_points
from oracles import (
    dft_impulse,
    embedding_matrix,
    gcp_leibniz,
    multiset_max_distance,
    numerator_leibniz,
    numerator_vandermonde,
)
from uniallpass import (
    ConditioningError,
    FdnSystem,
    PoleEvaluationError,
    UnstableError,
    delay_dependent_allpass,
    delay_matrix,
    denominator_poly,
    frequency_response,
    gcp,
    impulse_response,
    is_allpass,
    numerator_poly,
    ordered_subsets,
    poles,
    polyval_zinv,
    principal_minor,
    principal_minor_list,
    random_uniallpass,
    schroeder_series,
    stability_certificate,
    transfer_function,
)
from uniallpass.core import reversal_check


def unit_delay():
    return FdnSystem.siso([[0.0]], [1.0], [1.0], 0.0, [1])


def schroeder_section(g=0.5, m=3):
    fdn, _ = schroeder_series([g], [m])
    return fdn


class TestDelayMatrix:
    def test_unit_z_is_identity(self):
        np.testing.assert_allclose(delay_matrix([1, 1], 1.0), np.eye(2))

    def test_scalar_power(self):
        np.testing.assert_allclose(delay_matrix([2], 2.0), [[0.25]])

    def test_unit_circle_moduli(self):
        m = [13, 22, 1, 10, 5, 3]
        z = np.exp(1j * np.pi / 4)
        d = delay_matrix(m, z)
        np.testing.assert_allclose(np.diag(d), np.exp(-1j * np.pi * np.array(m) / 4))
        np.testing.assert_allclose(np.abs(np.diag(d)), 1.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            delay_matrix([1], 0.0)


class TestTransferFunction:
    def test_unit_delay(self, rng):
        fdn = unit_delay()
        for z in [2.0, 0.5 + 0.1j, -1.3j]:
            assert transfer_function(fdn, z).h[0, 0] == pytest.approx(1.0 / z)

    def test_scalar_allpass_is_unimodular(self):
        fdn = schroeder_section()
        for w in [0.1, 1.0, 2.5]:
            h = transfer_function(fdn, np.exp(1j * w)).h[0, 0]
            assert abs(h) == pytest.approx(1.0, abs=1e-12)

    def test_matches_coefficient_form(self, rng):
        # full-precision numerator/denominator of the bundled counterexample
        fdn = delay_dependent_allpass()
        den = denominator_poly(fdn)
        num, _ = numerator_poly(fdn)
        zs = unit_circle_points(rng, 16)
        h = frequency_response(fdn, zs)[:, 0, 0]
        ratio = polyval_zinv(num[0, 0], zs) / polyval_zinv(den, zs)
        assert np.max(np.abs(h - ratio)) < 1e-6

    def test_pole_evaluation_error(self):
        # H(z) for the unit-gain feedback loop blows up at z = 1
        fdn = FdnSystem.siso([[1.0]], [1.0], [1.0], 0.0, [1])
        with pytest.raises(PoleEvaluationError):
            transfer_function(fdn, 1.0)


class TestImpulseResponse:
    def test_pure_delay(self):
        h = impulse_response(unit_delay(), 4)
        np.testing.assert_allclose(h[0, 0], [0.0, 1.0, 0.0, 0.0])

    def test_scalar_allpass_taps(self):
        g = 0.37
        h = impulse_response(schroeder_section(g, 3), 8)[0, 0]
        assert h[0] == pytest.approx(g)
        assert h[3] == pytest.approx(1 - g * g)
        assert h[6] == pytest.approx(-g * (1 - g * g))
        np.testing.assert_allclose(h[[1, 2, 4, 5, 7]], 0.0, atol=1e-15)

    def test_matches_inverse_dft(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            p = int(rng.integers(1, 3))
            fdn = random_stable_fdn(rng, n=n, p=p, contraction=0.5)
            length = int(rng.integers(8, 65))
            direct = impulse_response(fdn, length)
            oracle = dft_impulse(fdn, length)
            assert np.max(np.abs(direct - oracle)) < 1e-8

    def test_length_validation(self):
        with pytest.raises(ValueError):
            impulse_response(unit_delay(), 0)


class TestPrincipalMinors:
    def test_empty_subset(self, rng):
        a = rng.standard_normal((4, 4))
        assert principal_minor(a, ()) == 1.0

    def test_out_of_range(self, rng):
        a = rng.standard_normal((3, 3))
        with pytest.raises(ValueError):
            principal_minor(a, (3,))

    def test_counterexample_inverse_list(self):
        fdn = delay_dependent_allpass()
        subsets, values = principal_minor_list(np.linalg.inv(fdn.a))
        assert subsets == ordered_subsets(3)
        np.testing.assert_allclose(values, fv.CE_MINORS_A_INV, atol=fv.MINOR_TOL)

    def test_jacobi_identity(self, rng):
        # det A^-1(I) = det A(I^c) / det A for every subset
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
            a_inv = np.linalg.inv(a)
            det_a = np.linalg.det(a)
            for subset in ordered_subsets(4):
                comp = tuple(i for i in range(4) if i not in subset)
                lhs = principal_minor(a_inv, subset)
                rhs = principal_minor(a, comp) / det_a
                assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


class TestGcp:
    def test_unit_delays_equal_characteristic_polynomial(self, rng):
        for n in range(1, 7):
            a = rng.standard_normal((n, n))
            coeffs = gcp(a, [1] * n)
            eig = np.linalg.eigvals(a)
            ref = np.real(np.poly(eig))
            np.testing.assert_allclose(coeffs, ref, atol=1e-9)

    def test_counterexample_denominator(self):
        fdn = delay_dependent_allpass()
        coeffs = gcp(fdn.a, [1, 1, 1])
        np.testing.assert_allclose(coeffs, fv.CE_COEFFS[(1, 1, 1)]["den"], atol=fv.COEFF_TOL)

    def test_leibniz_oracle_fixed_case(self, rng):
        a = rng.standard_normal((3, 3))
        m = [2, 1, 3]
        np.testing.assert_allclose(gcp(a, m), gcp_leibniz(a, m), atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=4),
    )
    def test_leibniz_oracle_property(self, data, n):
        a = data.draw(
            arrays(np.float64, (n, n), elements=st.floats(-2, 2, allow_nan=False))
        )
        m = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        if sum(m) > 12:
            m = [1] * n
        np.testing.assert_allclose(gcp(a, m), gcp_leibniz(a, m), atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(min_value=1, max_value=5),
    )
    def test_always_monic_with_correct_degree(self, data, n):
        a = data.draw(
            arrays(np.float64, (n, n), elements=st.floats(-3, 3, allow_nan=False))
        )
        m = data.draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
        coeffs = gcp(a, m)
        assert coeffs[0] == pytest.approx(1.0)
        assert coeffs.size == sum(m) + 1
        # constant term carries the full determinant with alternating sign
        assert coeffs[-1] == pytest.approx(((-1.0) ** n) * np.linalg.det(a), abs=1e-9)


class TestRationalForm:
    def test_scalar_allpass_coefficients(self):
        fdn = schroeder_section(0.5, 3)
        den = denominator_poly(fdn)
        num, resid = numerator_poly(fdn)
        np.testing.assert_allclose(den, [1.0, 0.0, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(num[0, 0], [0.5, 0.0, 0.0, 1.0], atol=1e-12)
        assert resid < 1e-10

    @pytest.mark.parametrize("delays", [(1, 1, 1), (2, 1, 1), (2, 2, 1)])
    def test_counterexample_lists(self, delays):
        fdn = delay_dependent_allpass(delays)
        np.testing.assert_allclose(
            denominator_poly(fdn), fv.CE_COEFFS[delays]["den"], atol=fv.COEFF_TOL
        )
        num, _ = numerator_poly(fdn)
        np.testing.assert_allclose(
            num[0, 0], fv.CE_COEFFS[delays]["num"], atol=fv.COEFF_TOL
        )

    def test_evaluation_matches_transfer(self, rng):
        for _ in range(8):
            fdn = random_stable_fdn(rng, n=int(rng.integers(1, 5)))
            den = denominator_poly(fdn)
            num, _ = numerator_poly(fdn)
            zs = unit_circle_points(rng, 12)
            h = frequency_response(fdn, zs)[:, 0, 0]
            ratio = polyval_zinv(num[0, 0], zs) / polyval_zinv(den, zs)
            assert np.max(np.abs(h - ratio)) < 1e-8

    def test_cofactor_oracle_small(self, rng):
        for n in (2, 3, 4):
            fdn = random_stable_fdn(rng, n=n, delays=random_delays(rng, n, 3))
            num, _ = numerator_poly(fdn)
            np.testing.assert_allclose(num[0, 0], numerator_leibniz(fdn), atol=1e-9)


    def test_residual_above_tolerance_raises(self, rng):
        fdn = random_stable_fdn(rng, n=3)
        _, resid = numerator_poly(fdn)
        assert resid > 0
        with pytest.raises(ConditioningError) as exc:
            numerator_poly(fdn, tol=0.0)
        assert exc.value.residual == resid


class TestNumeratorFitGate:
    """The inverse-DFT numerator fit against the dense Vandermonde
    least-squares fit it replaced.  Coefficients, fit residuals and reversal
    deviations are compared relative to the largest sample magnitude."""

    def assert_matches_vandermonde(self, fdn):
        coeffs, resid = numerator_poly(fdn)
        ref, ref_resid, scale = numerator_vandermonde(fdn)
        assert coeffs.shape == ref.shape
        assert np.max(np.abs(coeffs - ref)) <= 1e-12 * scale
        assert abs(resid - ref_resid) <= 1e-12 * scale
        ref_det, _, det_scale = numerator_vandermonde(fdn, np.linalg.det)
        ref_dev, ref_sign = reversal_check(ref_det, denominator_poly(fdn))
        report = is_allpass(fdn)
        assert abs(report.reversal_deviation - ref_dev) <= 1e-12 * det_scale
        assert report.sign == ref_sign

    def test_random_certified_systems(self, rng):
        for p in (1, 2, 3):
            for _ in range(5):
                n = int(rng.integers(1, 7))
                seed = int(rng.integers(1 << 30))
                delays = random_delays(rng, n, 12)
                self.assert_matches_vandermonde(
                    random_uniallpass(n, p, seed, scaled=True, delays=delays)
                )

    def test_long_delay_design(self):
        # eight lines of 66..90 samples at gamma 0.999: system order 600
        from uniallpass import design_homogeneous_siso

        design = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999)
        assert design.fdn.order == 600
        self.assert_matches_vandermonde(design.fdn)


class TestPoles:
    def test_scalar_allpass_moduli(self):
        p = poles(schroeder_section(0.5, 3))
        assert len(p) == 3
        np.testing.assert_allclose(np.abs(p), 0.5 ** (1.0 / 3.0), atol=1e-12)

    def test_embedding_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 5))
            delays = random_delays(rng, n, 3)
            fdn = random_stable_fdn(rng, n=n, delays=delays)
            direct = poles(fdn)
            ref = np.linalg.eigvals(embedding_matrix(fdn.a, delays))
            assert multiset_max_distance(direct, ref) < 1e-6

    def test_degenerate_polynomial(self):
        from uniallpass.core import polynomial_roots

        with pytest.raises(ValueError):
            polynomial_roots(np.array([0.0, 1.0, 2.0]))


class TestStabilityCertificate:
    def test_contraction(self):
        assert stability_certificate(0.5 * np.eye(3), np.ones(3)) is True

    def test_expansive_spectrum_never_certifies(self, rng):
        # similarity preserves eigenvalues, so spectral radius > 1 forces
        # a norm above one for every scaling
        a = rng.standard_normal((3, 3))
        a *= 1.5 / np.max(np.abs(np.linalg.eigvals(a)))
        for _ in range(5):
            t = np.exp(rng.uniform(-1, 1, 3))
            assert stability_certificate(a, t) is False

    def test_positive_scaling_required(self):
        with pytest.raises(ValueError):
            stability_certificate(np.eye(2), [1.0, 0.0])

    def test_balanced_corner_norm_is_unity(self):
        # a certified 6-line design balances to the corner of an orthogonal
        # matrix, which has spectral norm exactly one: the strict certificate
        # is a knife edge there, so only the norm value itself is stable
        from uniallpass import design_homogeneous_siso, dsim_from_lyapunov

        design = design_homogeneous_siso(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA, dsim=fv.HOMOG_DSIM)
        t = np.sqrt(dsim_from_lyapunov(design.fdn.a, design.fdn.b))
        scaled = (design.fdn.a * t[None, :]) / t[:, None]
        assert abs(np.linalg.norm(scaled, 2) - 1.0) < 1e-9
        # shrinking the feedback strictly inside the ball certifies robustly
        assert stability_certificate(0.999 * design.fdn.a, t) is True


class TestIsAllpass:
    def test_counterexample_delay_dependence(self):
        fdn = delay_dependent_allpass()
        # three-decimal inputs: the reversal check resolves the verdict at
        # fixture precision, the unitarity grid only to ~2e-2
        rep = is_allpass(fdn.with_delays([1, 1, 1]), tol=fv.FIXTURE_TOL)
        assert rep.reversal_deviation < fv.FIXTURE_TOL
        assert rep.grid_deviation < 0.05
        rep = is_allpass(fdn.with_delays([2, 2, 1]), tol=fv.FIXTURE_TOL)
        assert rep.reversal_deviation < fv.FIXTURE_TOL
        assert rep.grid_deviation < 0.05
        # for delays (2, 1, 1) the coefficients are far from reversed and the
        # network is not even stable
        with pytest.raises(UnstableError):
            is_allpass(fdn.with_delays([2, 1, 1]))
        den = denominator_poly(fdn.with_delays([2, 1, 1]))
        num, _ = numerator_poly(fdn.with_delays([2, 1, 1]))
        dev, _ = reversal_check(num[0, 0], den)
        assert dev > 1.0

    def test_exact_allpass_passes_tight_tolerance(self):
        fdn, _ = schroeder_series([0.3, -0.5, 0.7], [3, 1, 4])
        rep = is_allpass(fdn)
        assert rep.allpass
        assert rep.grid_deviation < 1e-10
        assert rep.reversal_deviation < 1e-10

    def test_generic_system_fails(self, rng):
        fdn = random_stable_fdn(rng, n=3)
        rep = is_allpass(fdn)
        assert not rep.allpass


class TestConcurrencySafety:
    def test_values_are_immutable(self):
        fdn = unit_delay()
        with pytest.raises(ValueError):
            fdn.a[0, 0] = 1.0

    def test_batch_equals_sequential(self, rng):
        fdn = random_stable_fdn(rng, n=3)
        zs = unit_circle_points(rng, 7)
        batched = frequency_response(fdn, zs)
        single = np.stack([transfer_function(fdn, z).h for z in zs])
        np.testing.assert_allclose(batched, single, atol=1e-13)
