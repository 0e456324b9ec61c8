import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fixture_values as fv
from conftest import circle_route_poles, random_delays, random_stable_fdn, unit_circle_points
from oracles import (
    circle_count,
    circle_derivatives,
    circle_samples,
    dft_impulse,
    embedding_matrix,
    gcp_leibniz,
    multiset_max_distance,
    numerator_det_grid,
    numerator_leibniz,
    numerator_vandermonde,
    poles_companion,
    polyval_zinv,
    principal_minor,
)
from uniallpass import (
    ConditioningError,
    DelayVector,
    FdnError,
    FdnSystem,
    PoleEvaluationError,
    SystemMatrix,
    UnstableError,
    apply_diagonal_similarity,
    certify_uniallpass,
    check_minor_condition,
    delay_dependent_allpass,
    design_homogeneous_siso,
    dsim_from_hadamard_quotient,
    dsim_from_lyapunov,
    frequency_response,
    gardner_nested,
    gcp,
    impulse_response,
    is_allpass,
    numerator_poly,
    orthogonal_completion,
    poles,
    poletti_unitary,
    principal_minor_list,
    random_orthogonal,
    random_uniallpass,
    schroeder_series,
    siso_completion,
)
import uniallpass.core as core
from uniallpass.core import _ordered_subsets, reversal_check
from uniallpass.system import balance


@st.composite
def matrix_and_delays(draw, max_n, bound, max_delay):
    """(A, m): an n x n matrix of entries in [-bound, bound] and n delays in
    1..max_delay, n in 1..max_n."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    a = draw(arrays(np.float64, (n, n), elements=st.floats(-bound, bound, allow_nan=False)))
    m = draw(st.lists(st.integers(1, max_delay), min_size=n, max_size=n))
    return a, m


def unit_delay():
    return FdnSystem.siso([[0.0]], [1.0], [1.0], 0.0, [1])


def schroeder_section(g=0.5, m=3):
    fdn, _ = schroeder_series([g], [m])
    return fdn


class TestTransferFunction:
    def test_unit_delay(self, rng):
        fdn = unit_delay()
        for z in [2.0, 0.5 + 0.1j, -1.3j]:
            assert frequency_response(fdn, [z])[0][0, 0] == pytest.approx(1.0 / z)

    def test_scalar_allpass_is_unimodular(self):
        fdn = schroeder_section()
        for w in [0.1, 1.0, 2.5]:
            h = frequency_response(fdn, [np.exp(1j * w)])[0][0, 0]
            assert abs(h) == pytest.approx(1.0, abs=1e-12)

    def test_matches_coefficient_form(self, rng):
        # full-precision numerator/denominator of the bundled counterexample
        fdn = delay_dependent_allpass()
        den = gcp(fdn.a, fdn.delays)
        num, _ = numerator_poly(fdn)
        zs = unit_circle_points(rng, 16)
        h = frequency_response(fdn, zs)[:, 0, 0]
        ratio = polyval_zinv(num[0, 0], zs) / polyval_zinv(den, zs)
        assert np.max(np.abs(h - ratio)) < 1e-6

    def test_pole_evaluation_error(self):
        # H(z) for the unit-gain feedback loop blows up at z = 1
        fdn = FdnSystem.siso([[1.0]], [1.0], [1.0], 0.0, [1])
        with pytest.raises(PoleEvaluationError):
            frequency_response(fdn, [1.0])

    def test_pole_evaluation_error_in_a_later_chunk(self):
        # sixteen unit loops: diag(z) - I is singular at z = 1 alone, placed
        # just past the first stack of 16 x 16 loop matrices
        n = 16
        fdn = FdnSystem(np.eye(n), np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)), [1] * n)
        index = core._LOOP_ENTRIES // (n * n) + 3
        zs = np.exp(2j * np.pi * (np.arange(index + 100) + 0.5) / (index + 100))
        zs[index] = 1.0
        with pytest.raises(PoleEvaluationError) as exc:
            frequency_response(fdn, zs)
        assert exc.value.z == 1.0

    @pytest.mark.parametrize(
        "powers, points",
        [
            (core._point_powers, np.array([1j, 1.0])),
            (core._unit_powers, np.array([0.5 * np.pi, 0.0])),
            (lambda m: core._node_powers(m, 18), np.array([1, 0])),
        ],
    )
    def test_pole_evaluation_error_names_the_point(self, powers, points):
        # z**9 - 1 is singular at the second point, z = 1, of every kind:
        # the error names z itself, not the angle or node index
        fdn = FdnSystem.siso([[1.0]], [1.0], [1.0], 0.0, [9])
        with pytest.raises(PoleEvaluationError) as exc:
            core._responses(fdn, points, powers, lambda loop, h: h)
        assert exc.value.z == 1 + 0j

    def test_numerator_pole_evaluation_error(self):
        # the numerator nodes of K = 18 include z = 1, a root of z**9 - 1
        with pytest.raises(PoleEvaluationError) as exc:
            numerator_poly(FdnSystem([[1.0]], [[1.0]], [[1.0]], [[0.0]], [9]))
        assert exc.value.z == 1 + 0j


class TestZeroFeedbackResponse:
    """With A = 0, B = C = I and D = 0, H(z) is the delay matrix diag(z**-m)."""

    @staticmethod
    def delay_lines(delays):
        n = len(delays)
        return FdnSystem(np.zeros((n, n)), np.eye(n), np.eye(n), np.zeros((n, n)), delays)

    def test_unit_z_is_identity(self):
        h = frequency_response(self.delay_lines([1, 1]), [1.0])[0]
        np.testing.assert_allclose(h, np.eye(2))

    def test_scalar_power(self):
        h = frequency_response(self.delay_lines([2]), [2.0])[0]
        np.testing.assert_allclose(h, [[0.25]])

    def test_unit_circle_moduli(self):
        m = [13, 22, 1, 10, 5, 3]
        z = np.exp(1j * np.pi / 4)
        h = frequency_response(self.delay_lines(m), [z])[0]
        np.testing.assert_allclose(np.diag(h), np.exp(-1j * np.pi * np.array(m) / 4))
        np.testing.assert_allclose(np.abs(np.diag(h)), 1.0)
        np.testing.assert_array_equal(h[~np.eye(len(m), dtype=bool)], 0.0)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            frequency_response(self.delay_lines([1]), [0.5, 0.0])


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

    def test_unstable_network_refused(self):
        # largest pole modulus 2.49: the response overflows from sample 780
        with pytest.raises(FdnError, match="not finite from sample 780"):
            impulse_response(delay_dependent_allpass((2, 1, 1)), 2000)

    @pytest.mark.parametrize("length", [2.7, 2.0, True, np.float64(3.0), "4"])
    def test_length_must_be_an_integer(self, length):
        # 2.7 used to render 2 samples and True 1
        with pytest.raises(TypeError, match="length must be an integer"):
            impulse_response(unit_delay(), length)

    @pytest.mark.parametrize("length", [np.int64(5), np.int32(5), np.uint8(5), 5])
    def test_length_takes_numpy_integers(self, length):
        np.testing.assert_array_equal(impulse_response(unit_delay(), length)[0, 0], [0, 1, 0, 0, 0])


class TestDelayVector:
    @pytest.mark.parametrize(
        "values", [[1.5, 2.9], [True, 2], [np.bool_(True)], np.array([True, False]), [3, float("nan")], ["3"]]
    )
    def test_bools_and_fractions_refused(self, values):
        # [1.5, 2.9] used to give (1, 2) and [True, 2] (1, 2)
        with pytest.raises(ValueError, match="delay lengths must be integers"):
            DelayVector(values)

    @pytest.mark.parametrize(
        "values", [[3.0, 4], np.array([3.0, 4.0]), np.array([3, 4], dtype=np.int32), (3, np.int64(4))]
    )
    def test_integral_values_accepted(self, values):
        assert DelayVector(values).values == (3, 4)
        assert all(type(v) is int for v in DelayVector(values))

    @pytest.mark.parametrize(
        "values, message", [([], "at least one entry"), ([3, 0], ">= 1"), ([-2], ">= 1")]
    )
    def test_empty_and_nonpositive_refused(self, values, message):
        with pytest.raises(ValueError, match=message):
            DelayVector(values)


@pytest.mark.parametrize(
    "a, b, c, d, message",
    [
        (np.zeros((2, 3)), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), "must be square"),
        (np.zeros((2, 2)), np.ones((3, 1)), np.ones((1, 2)), np.zeros((1, 1)), "inconsistent gain shapes"),
        (np.zeros((2, 2)), np.ones((2, 1)), np.ones((2, 2)), np.zeros((1, 1)), "inconsistent gain shapes"),
        (np.zeros((2, 2)), np.ones((2, 2)), np.ones((2, 2)), np.zeros((1, 1)), "inconsistent gain shapes"),
    ],
)
def test_inconsistent_system_shapes_refused(a, b, c, d, message):
    with pytest.raises(ValueError, match=message):
        FdnSystem(a, b, c, d, [1, 2])


@pytest.mark.parametrize("split", [0, 3, -1])
def test_split_point_out_of_range_refused(split):
    with pytest.raises(ValueError, match="split point"):
        SystemMatrix(np.eye(3), split)


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
        assert subsets == _ordered_subsets(3)
        np.testing.assert_allclose(values, fv.CE_MINORS_A_INV, atol=fv.MINOR_TOL)

    def test_list_refuses_a_stack(self, rng):
        with pytest.raises(ValueError, match=r"\(2, 3, 3\)"):
            principal_minor_list(rng.standard_normal((2, 3, 3)))

    def test_mask_order_built_once_read_only(self):
        masks = core._ordered_masks(6)
        assert core._ordered_masks(6) is masks
        assert not masks.flags.writeable

    def test_jacobi_identity(self, rng):
        # det A^-1(I) = det A(I^c) / det A for every subset
        for _ in range(10):
            a = rng.standard_normal((4, 4)) + 2.0 * np.eye(4)
            a_inv = np.linalg.inv(a)
            det_a = np.linalg.det(a)
            for subset in _ordered_subsets(4):
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

    def test_delay_count_mismatch_raises_before_the_sweep(self, rng, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the minor sweep ran")

        monkeypatch.setattr(core, "principal_minors_all", no_sweep)
        with pytest.raises(ValueError, match=r"\(4, 4\) and 3 delays"):
            gcp(rng.standard_normal((4, 4)), [1, 2, 3])

    def test_counterexample_denominator(self):
        fdn = delay_dependent_allpass()
        coeffs = gcp(fdn.a, [1, 1, 1])
        np.testing.assert_allclose(coeffs, fv.CE_COEFFS[(1, 1, 1)]["den"], atol=fv.COEFF_TOL)

    def test_leibniz_oracle_fixed_case(self, rng):
        a = rng.standard_normal((3, 3))
        m = [2, 1, 3]
        np.testing.assert_allclose(gcp(a, m), gcp_leibniz(a, m), atol=1e-10)

    def test_leibniz_oracle_subnormal_minors(self):
        # a hypothesis draw: numpy's det warns "divide by zero" on this
        # matrix although the minors it returns are right
        s = 2.05882427e-308
        a = np.array([[0.0, s], [s, s]])
        for m in ([1, 1], [2, 1], [1, 3]):
            np.testing.assert_allclose(gcp(a, m), gcp_leibniz(a, m), atol=1e-9)

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
    @given(case=matrix_and_delays(5, 3.0, 5))
    # a subnormal entry under three zero rows: the sweep's pivots there are
    # zero or subnormal, and it must neither warn nor return NaN
    @example(case=(np.vstack([np.ones(5), np.zeros((3, 5)), [2.22507386e-311, 0, 0, 0, 0]]), [1] * 5))
    def test_always_monic_with_correct_degree(self, case):
        a, m = case
        n = a.shape[0]
        coeffs = gcp(a, m)
        with np.errstate(divide="ignore", under="ignore"):
            reference = np.linalg.det(a)
        assert coeffs[0] == pytest.approx(1.0)
        assert coeffs.size == sum(m) + 1
        # constant term carries the full determinant with alternating sign
        assert coeffs[-1] == pytest.approx(((-1.0) ** n) * reference, abs=1e-9)


    def test_terms_per_subset(self, rng):
        # each coefficient of z**-k sums (-1)**|J| det A(J) over the subsets
        # J with sum(m[J]) = k, its bound |J|^2 eps g_J prod_{i in J} ||a_i||
        for n in (1, 3, 6):
            a = rng.standard_normal((n, n))
            m = rng.integers(1, 5, n)
            minors, growth = core.principal_minors_all(a, growth=True)
            norms = np.linalg.norm(a, axis=1)
            coeffs, floor = np.zeros(m.sum() + 1), np.zeros(m.sum() + 1)
            for mask in range(1 << n):
                rows = [i for i in range(n) if mask >> i & 1]
                k = int(m[rows].sum())
                coeffs[k] += (-1) ** len(rows) * minors[mask]
                floor[k] += len(rows) ** 2 * core._EPS * growth[mask] * np.prod(norms[rows])
            got = core._gcp_terms(a, m)
            np.testing.assert_allclose(got[0], coeffs, rtol=0, atol=1e-14)
            np.testing.assert_allclose(got[1], floor, rtol=1e-14, atol=0)

    def test_peak_memory_near_the_sweep(self):
        # the signs and bounds are built in place on the sweep's own two
        # arrays: about eight 2^N arrays at once read 1.9 times the sweep here
        fdn = random_uniallpass(18, 1, 1, scaled=True, delays=range(1, 19))

        def peak(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        sweep = peak(lambda: core.principal_minors_all(fdn.a, growth=True))
        assert peak(lambda: gcp(fdn.a, fdn.delays)) <= 1.3 * sweep


class TestRationalForm:
    def test_scalar_allpass_coefficients(self):
        fdn = schroeder_section(0.5, 3)
        den = gcp(fdn.a, fdn.delays)
        num, resid = numerator_poly(fdn)
        np.testing.assert_allclose(den, [1.0, 0.0, 0.0, 0.5], atol=1e-12)
        np.testing.assert_allclose(num[0, 0], [0.5, 0.0, 0.0, 1.0], atol=1e-12)
        assert resid < 1e-10

    @pytest.mark.parametrize("delays", [(1, 1, 1), (2, 1, 1), (2, 2, 1)])
    def test_counterexample_lists(self, delays):
        fdn = delay_dependent_allpass(delays)
        np.testing.assert_allclose(
            gcp(fdn.a, fdn.delays), fv.CE_COEFFS[delays]["den"], atol=fv.COEFF_TOL
        )
        num, _ = numerator_poly(fdn)
        np.testing.assert_allclose(
            num[0, 0], fv.CE_COEFFS[delays]["num"], atol=fv.COEFF_TOL
        )

    def test_evaluation_matches_transfer(self, rng):
        for _ in range(8):
            fdn = random_stable_fdn(rng, n=int(rng.integers(1, 5)))
            den = gcp(fdn.a, fdn.delays)
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
            numerator_poly(fdn, tol=np.finfo(float).tiny)
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
        ref_dev, ref_sign = reversal_check(ref_det, gcp(fdn.a, fdn.delays))
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

    def test_above_the_sweep_budget(self, monkeypatch):
        # N = 24: the FFT denominator needs no principal minors, and a
        # certified network's numerator is its reversed denominator
        monkeypatch.setattr(core, "principal_minors_all", lambda a: pytest.fail("a minor sweep ran"))
        rng = np.random.default_rng(2400)
        fdn = random_uniallpass(24, 1, 0, scaled=True, delays=rng.integers(5, 40, 24).tolist())
        num, _ = numerator_poly(fdn)
        den = core._circle_denominator(fdn.a, fdn.delays.as_array())
        assert reversal_check(num[0, 0], den)[0] < core.DEFAULT_TOL


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

    @pytest.mark.parametrize("route", ["loop", "default"])
    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("delay", [4, 300, 4000])
    def test_singular_feedback_matrix(self, monkeypatch, route, delay, transpose):
        # a zero row (or column) of A factors z**m_i out of the loop
        # determinant; the rest are the poles of the other two lines.  Along
        # the long line z**m_i is far below the other entries (it underflows
        # at delay 4000), which must not read as a singular loop matrix.
        if route == "loop":
            monkeypatch.setattr(core, "_COEFF_ORDER_RATIO", 0)
        a = np.array([[0.3, 0.2, 0.1], [0.0, 0.0, 0.0], [0.1, -0.2, 0.4]])
        if transpose:
            a = a.T
        fdn = FdnSystem.siso(a, [1, 0, 0], [1, 0, 0], 0.0, [3, delay, 2])
        p = poles(fdn)
        assert np.sum(p == 0) == delay
        kept = [0, 2]
        ref = np.linalg.eigvals(embedding_matrix(a[np.ix_(kept, kept)], [3, 2]))
        assert multiset_max_distance(p[p != 0], ref) < 1e-12

    @pytest.mark.parametrize("route", ["loop", "default"])
    @pytest.mark.parametrize("delay", [400, 4000])
    def test_long_pure_delay_before_a_section(self, monkeypatch, route, delay):
        # gain 0 makes the first line a pure delay: z**delay (z**3 + 0.5)
        if route == "loop":
            monkeypatch.setattr(core, "_COEFF_ORDER_RATIO", 0)
        fdn, _ = schroeder_series([0.0, 0.5], [delay, 3])
        p = poles(fdn)
        assert np.sum(p == 0) == delay
        ref = 0.5 ** (1.0 / 3.0) * np.exp(1j * np.pi * np.array([1, 3, 5]) / 3)
        assert multiset_max_distance(p[p != 0], ref) < 1e-12

    @pytest.mark.parametrize("delays", [[40, 40, 3], [400, 400, 3]])
    def test_rank_deficient_block_on_long_lines(self, delays):
        # det = z**m (z**m - 1) (z**3 + 0.5): m exact zeros, the m-th roots
        # of unity and the cube roots of -0.5.  Where |z| < 1 the rank-one
        # block makes the loop matrix singular to working precision without
        # a root nearby (z**400 is about 1e-40 at the cube roots), so the
        # coefficients must carry those iterates.
        m = delays[0]
        a = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.3, 0.2, -0.5]])
        fdn = FdnSystem.siso(a, [1, 1, 1], [1, 1, 1], 0.0, delays)
        p = poles(fdn)
        assert np.sum(p == 0) == m
        unity = np.exp(2j * np.pi * np.arange(m) / m)
        cube = 0.5 ** (1.0 / 3.0) * np.exp(1j * np.pi * np.array([1, 3, 5]) / 3)
        assert multiset_max_distance(p[p != 0], np.concatenate([unity, cube])) < 1e-12

    def test_rank_one_feedback_matrix(self):
        # A = u v^T on delays 120, 50, 120: in exact arithmetic the loop
        # determinant is z**170 (z**120 - a22 z**70 - a11 - a33).  The rounded
        # 2 x 2 and 3 x 3 minors leave trailing coefficients of about 1e-16,
        # below their rounding bounds; they deflate to the 170 zero poles
        # rather than a spurious ring of modulus 0.70-0.75.  One root of this
        # system sat at the rounding noise of its loop matrix, just above the
        # step tolerance, and the coefficients must settle it.
        a = np.array(
            [
                [-0.3426893139204685, -0.16541651928141207, -0.006946490042319335],
                [2.669066023342511, 1.2883611871716067, 0.05410335192927708],
                [-2.2531181668072313, -1.0875826865423215, -0.04567187325113843],
            ]
        )
        fdn = FdnSystem.siso(a, [1, 1, 1], [1, 1, 1], 0.0, [120, 50, 120])
        p = poles(fdn)
        assert np.sum(p == 0) == 170
        factor = np.zeros(121)
        factor[[0, 50, 120]] = 1.0, -a[1, 1], -a[0, 0] - a[2, 2]
        assert multiset_max_distance(p[p != 0], poles_companion(factor)) < 1e-10

    @pytest.mark.parametrize(
        "a, delays, count, small",
        [([[1e-12]], [3], 3, 1e-4), ([[1.0, 1.0], [1.0, 1.0 + 1e-10]], [3, 2], 2, 1e-5)],
        ids=["1e-12", "near-singular-2x2"],
    )
    def test_tiny_constant_term_keeps_its_roots(self, a, delays, count, small):
        # z**3 - 1e-12, and z**5 - (1 + e) z**3 - z**2 + e with e = 1e-10:
        # each constant term lies far above the rounding bound of its minor,
        # so the roots of modulus 1e-4 (three) and 1e-5 (two) stay
        n = len(delays)
        fdn = FdnSystem.siso(a, np.eye(n)[0], np.eye(n)[0], 0.0, delays)
        p = assert_matches_companion(fdn)
        tiny = p[np.abs(p) < 1e-3]
        assert tiny.size == count
        np.testing.assert_allclose(np.abs(tiny), small, rtol=1e-4)

    def test_zero_feedback_matrix(self):
        fdn = FdnSystem.siso(np.zeros((3, 3)), [1, 0, 0], [1, 0, 0], 0.0, [3, 4, 2])
        p = poles(fdn)
        assert p.shape == (9,) and np.all(p == 0)

    @pytest.mark.parametrize("gain", [0.5, -0.5])
    def test_single_line_of_one_sample(self, gain):
        fdn = FdnSystem.siso([[gain]], [1.0], [1.0], 0.0, [1])
        p = poles(fdn)
        assert p.shape == (1,)
        assert abs(p[0] - gain) < 1e-15


def assert_matches_companion(fdn):
    """The Aberth poles equal the companion-matrix eigenvalues as multisets
    to 1e-10, and their sorted moduli to 1e-12; they are exactly closed
    under conjugation, real poles with imaginary part 0.0.  ``poles``
    returns them, or for a homogeneous-decay system the circle route's
    poles (see ``circle_route_poles``)."""
    m = fdn.delays.as_array()
    p = core._aberth_poles(fdn, *core._gcp_terms(fdn.a, m))
    ref = poles_companion(gcp(fdn.a, fdn.delays))
    assert p.shape == (fdn.order,)
    assert multiset_max_distance(p, ref) < 1e-10
    assert np.max(np.abs(np.sort(np.abs(p)) - np.sort(np.abs(ref)))) < 1e-12
    assert np.array_equal(np.sort_complex(p), np.sort_complex(p.conj()))
    if core._homogeneous_factor(fdn.a, m) is None:
        np.testing.assert_array_equal(poles(fdn), p)
    else:
        circle_route_poles(fdn)
    return p


class TestAberthAgainstCompanion:
    def test_random_certified_systems(self, rng):
        for n in range(1, 9):
            delays = random_delays(rng, n, 20)
            fdn = random_uniallpass(n, 1, int(rng.integers(1 << 30)), scaled=True, delays=delays)
            assert_matches_companion(fdn)

    @pytest.mark.parametrize("build", [schroeder_series, gardner_nested])
    @pytest.mark.parametrize(
        "delays", [[7, 7, 7], [1, 1, 1], [13, 22, 1], [9, 3, 5]], ids=["7-7-7", "1-1-1", "13-22-1", "9-3-5"]
    )
    def test_classic_chains(self, build, delays):
        fdn, _ = build([0.5, -0.6, 0.7], delays)
        assert_matches_companion(fdn)

    @pytest.mark.parametrize(
        "build, gains, delays",
        [
            (build, gains, delays)
            for build in (schroeder_series, gardner_nested)
            for gains, delays in (
                ([-0.5, 0.6, -0.7, -0.4, 0.3, -0.8], [2, 4, 6, 8, 10, 12]),
                ([-0.7, -0.6, 0.5, -0.8, 0.4], [2, 2, 6, 4, 8]),
                ([-0.5, 0.6, -0.7], [10, 4, 12]),
                ([-0.62, -0.37, 0.87, -0.81, 0.61, -0.61], [18, 18, 10, 16, 18, 10]),
            )
        ]
        + [
            (
                schroeder_series,
                [-0.8635257346728082, 0.8035381038421018, -0.628037364414959]
                + [0.09622063905446421, 0.3287661422199083, 0.5153510036917545],
                [12, 10, 18, 12, 6, 16],
            )
        ],
    )
    def test_even_delay_chains_with_real_poles(self, build, gains, delays):
        # with even delays each negative gain gives real poles.  These
        # determinants are even in z; in the 18-18-10-16-18-10 chains, start
        # pairs symmetric about the imaginary axis as well stayed so and
        # never reached the close poles on that axis.  In the last chain an
        # early split put a real iterate far beyond the largest start circle.
        p = assert_matches_companion(build(gains, delays)[0])
        assert np.any(p.imag == 0)

    def test_odd_order_with_one_real_pole(self):
        # z**9 + 0.6: one real pole, -0.6**(1/9), and four conjugate pairs
        p = assert_matches_companion(schroeder_series([0.6], [9])[0])
        np.testing.assert_array_equal(p[p.imag == 0], [-(0.6 ** (1.0 / 9.0))])

    def test_real_double_poles(self):
        # two sections z**4 - 0.5: double poles at +-0.5**(1/4) and
        # +-0.5**(1/4) i, defined only to about eps**(1/2)
        fdn, _ = schroeder_series([-0.5, -0.5], [4, 4])
        ref = np.linalg.eigvals(embedding_matrix(fdn.a, [4, 4]))
        assert multiset_max_distance(poles(fdn), ref) < 1e-7

    def test_exact_hit_is_a_converged_root(self, monkeypatch):
        # an iterate exactly on a root makes its loop matrix singular and the
        # stacked inverse raise; the coefficients confirm the root and the
        # iterate stays there.  Triangular A (Schroeder chains) hits this by
        # chance; here the real start of the one-sample section's circle is
        # put there.
        raised = []
        inv = np.linalg.inv
        starts = core._newton_polygon_starts

        def counting_inv(x):
            try:
                return inv(x)
            except np.linalg.LinAlgError:
                raised.append(1)
                raise

        def one_on_a_root(coeffs):
            upper, real = starts(coeffs)
            real[0] = -0.5
            return upper, real

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(core, "_newton_polygon_starts", one_on_a_root)
        fdn, _ = schroeder_series([0.5, -0.25, 0.7], [1, 4, 7])
        p = assert_matches_companion(fdn)
        assert raised
        assert np.min(np.abs(p + 0.5)) < 1e-15

    @pytest.mark.parametrize("ratio", [0, 10**9], ids=["loop", "coefficients"])
    def test_each_newton_ratio_alone(self, monkeypatch, rng, ratio):
        # the loop matrix and the coefficients each carry a whole solve
        monkeypatch.setattr(core, "_COEFF_ORDER_RATIO", ratio)
        for n in range(1, 9):
            delays = random_delays(rng, n, 20)
            fdn = random_uniallpass(n, 1, int(rng.integers(1 << 30)), scaled=True, delays=delays)
            assert_matches_companion(fdn)
        for build in (schroeder_series, gardner_nested):
            for delays in ([7, 7, 7], [1, 1, 1], [13, 22, 1]):
                assert_matches_companion(build([0.5, -0.6, 0.7], delays)[0])
        for delays in ([2, 1, 1], [3, 2, 1]):
            assert_matches_companion(delay_dependent_allpass(delays))
        design = design_homogeneous_siso(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        p = assert_matches_companion(design.fdn)
        assert np.max(np.abs(np.abs(p) - fv.HOMOG_GAMMA)) < 1e-12

    def test_badly_scaled_certified_networks(self):
        # certified networks behind a diagonal similarity of up to exp(+-3),
        # with one line of 200-900 samples: the loop matrix is badly scaled
        # and its powers span many decades, yet the poles match the state
        # matrix's eigenvalues
        rng = np.random.default_rng(2020)
        for n in range(2, 9):
            delays = rng.integers(1, 20, n)
            delays[rng.integers(n)] = rng.integers(200, 901)
            fdn = random_uniallpass(n, 1, int(rng.integers(1 << 30)), delays=delays.tolist())
            fdn = apply_diagonal_similarity(fdn, np.exp(rng.uniform(-3.0, 3.0, n)))
            assert fdn.order >= core._COEFF_ORDER_RATIO * n * n
            ref = np.linalg.eigvals(embedding_matrix(fdn.a, fdn.delays))
            assert multiset_max_distance(poles(fdn), ref) < 1e-10

    def test_poletti_lattice(self, rng):
        fdn, _ = poletti_unitary(random_orthogonal(4, rng), 0.7, [5, 7, 11, 13])
        assert fdn.n_io == 4
        assert_matches_companion(fdn)

    def test_design_with_one_sample_line(self):
        design = design_homogeneous_siso(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        assert min(fv.HOMOG_DELAYS) == 1
        p = assert_matches_companion(design.fdn)
        assert np.max(np.abs(np.abs(p) - fv.HOMOG_GAMMA)) < 1e-12

    @pytest.mark.parametrize("delays", [[2, 1, 1], [1, 2, 1], [2, 1, 2], [3, 2, 1]])
    def test_unstable_counterexample_delays(self, delays):
        fdn = delay_dependent_allpass(delays)
        p = assert_matches_companion(fdn)
        assert np.max(np.abs(p)) > 1.0
        with pytest.raises(UnstableError) as exc:
            is_allpass(fdn)
        assert multiset_max_distance(exc.value.poles, p) == 0.0

    def test_long_delay_design(self):
        design = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999)
        assert design.fdn.order == 600
        p = assert_matches_companion(design.fdn)
        assert np.max(np.abs(np.abs(p) - 0.999)) < 1e-12

    @pytest.mark.parametrize("count, delay, tol", [(2, 7, 1e-7), (3, 7, 1e-5), (6, 1, 5e-3)])
    def test_repeated_sections(self, count, delay, tol):
        # identical sections give poles of multiplicity ``count``, which are
        # only defined to about eps**(1 / count); the solve must stop there
        # instead of spinning to the sweep cap
        fdn, _ = schroeder_series([0.5] * count, [delay] * count)
        ref = np.linalg.eigvals(embedding_matrix(fdn.a, [delay] * count))
        assert multiset_max_distance(poles(fdn), ref) < tol


    @pytest.mark.parametrize("start", [1e-9, 3.0])
    def test_stray_start_recovers(self, monkeypatch, start):
        # One conjugate pair of starts is replaced by the real starts +-start,
        # which must find a complex pair.  1e-9: a step cap proportional to
        # |z| would let these iterates crawl out by a constant factor per
        # sweep, far beyond 30 sweeps.  3.0: z**m overflows there for
        # m >= 646; the row-scaled loop matrix of the outside form does not.
        design = design_homogeneous_siso([700, 650], 0.999)
        starts = core._newton_polygon_starts

        def two_stray(coeffs):
            upper, real = starts(coeffs)
            assert real.size == 0
            return upper[1:], np.array([start, -start], dtype=complex)

        monkeypatch.setattr(core, "_newton_polygon_starts", two_stray)
        monkeypatch.setattr(core, "_MAX_SWEEPS", 30)
        # the Aberth solve itself: poles takes the circle route here
        m = design.fdn.delays.as_array()
        p = core._aberth_poles(design.fdn, *core._gcp_terms(design.fdn.a, m))
        assert p.shape == (1350,)
        assert np.max(np.abs(np.abs(p) - 0.999)) < 1e-12
        assert multiset_max_distance(poles(design.fdn), p) < 1e-10


class TestCircleRoute:
    @pytest.mark.parametrize("gain", [0.6, -0.6])
    @pytest.mark.parametrize("delay", [1, 9])
    def test_odd_order_real_pole(self, gain, delay):
        # a single line of odd delay: z**m = gain has the one real root
        # gain**(1/m), exactly real, next to (m - 1) / 2 conjugate pairs
        fdn = FdnSystem.siso([[gain]], [1.0], [1.0], 0.0, [delay])
        p = circle_route_poles(fdn)
        root = np.sign(gain) * abs(gain) ** (1.0 / delay)
        np.testing.assert_array_equal(p[p.imag == 0], [root])

    def test_odd_order_design_real_pole(self):
        p = circle_route_poles(design_homogeneous_siso([2, 3], 0.9).fdn)
        assert np.sum(p.imag == 0) == 1

    def test_close_roots_fall_back_to_aberth(self):
        # nine lines on odd delays 61-77 at gamma 0.99999: roots nearly
        # coincide, so the sign changes miss some of the 621 poles
        design = design_homogeneous_siso(list(range(61, 78, 2)), 0.99999)
        fdn = design.fdn
        m = fdn.delays.as_array()
        gamma, u, _ = core._homogeneous_factor(fdn.a, m)
        assert core._circle_poles(u, m, gamma, core._circle_denominator(u, m)) is None
        np.testing.assert_array_equal(poles(fdn), core._aberth_poles(fdn, *core._gcp_terms(fdn.a, m)))

    def test_other_systems_never_enter_the_route(self, monkeypatch, rng):
        def never(*args):
            raise AssertionError("the circle route ran")

        monkeypatch.setattr(core, "_circle_poles", never)
        design = design_homogeneous_siso([3, 7, 2, 5], 0.93)
        systems = [
            schroeder_series([0.5, -0.6, 0.7], [3, 1, 4])[0],
            poletti_unitary(random_orthogonal(3, rng), 0.7, [5, 7, 11])[0],
            FdnSystem(design.fdn.a * (1.0 + 1e-9), design.fdn.b, design.fdn.c, design.fdn.d, design.fdn.delays),
        ]
        for fdn in systems:
            assert core._homogeneous_factor(fdn.a, fdn.delays.as_array()) is None
            assert poles(fdn).shape == (fdn.order,)
            is_allpass(fdn)

    def test_is_allpass_proves_stability_without_a_solve(self, monkeypatch, no_pole_solve):
        fdn = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999).fdn
        report = is_allpass(fdn)
        monkeypatch.undo()
        monkeypatch.setattr(core, "_contraction_proof", lambda a: False)
        monkeypatch.setattr(core, "_lossless_proof", lambda fdn: False)
        assert report == is_allpass(fdn)
        assert report.allpass

    def test_unstable_homogeneous_line_still_raises(self):
        # gamma = 1.5**(1/3) > 1: the solve runs and reports every pole
        fdn = FdnSystem.siso([[1.5]], [1.0], [1.0], 0.0, [3])
        with pytest.raises(UnstableError) as exc:
            is_allpass(fdn)
        assert multiset_max_distance(exc.value.poles, poles(fdn)) < 1e-12


def lossless_embedding(fdn):
    """(V, lines): the balanced system matrix of a certified network and
    the delays (m, 1_P) of its lossless embedding, as
    :func:`core._lossless_proof` counts them."""
    d = core._stein_diagonal(fdn.a, fdn.b)
    v = balance(SystemMatrix.from_fdn(fdn).u, np.concatenate((d, np.ones(fdn.n_io))))
    m = fdn.delays.as_array()
    return v, np.concatenate((m, np.ones(fdn.n_io, dtype=m.dtype)))


def circle_sampling_cases():
    """(U, m, samples per pole) for the FFT sampling gate: orthogonal U of
    homogeneous designs, N 1-16, with both signs of (-1)**N det U and
    orders up to about 10^4, and the balanced V of Gardner chains and of
    orthogonal splits with P < N, at both lossless sample counts."""
    rng = np.random.default_rng(2210)
    cases = []
    for n, low, high in ((1, 5, 40), (2, 1500, 3000), (3, 20, 60), (5, 1000, 2000), (8, 1150, 1250), (12, 100, 200), (16, 580, 640)):
        u = random_orthogonal(n, rng) if n > 1 else np.ones((1, 1))
        for flip in (1.0, -1.0):
            # a row of U times -1 flips the sign of det U
            v = u.copy()
            v[0] *= flip
            cases.append((v, rng.integers(low, high, n), 4))
    for n in (3, 8, 15):
        gains = rng.uniform(0.3, 0.8, n) * rng.choice([-1.0, 1.0], n)
        fdn, _ = gardner_nested(list(gains), rng.integers(5, 120, n).tolist())
        cases += [(*lossless_embedding(fdn), samples) for samples in core._CIRCLE_SAMPLES]
    for n, p in ((5, 2), (12, 3), (15, 1)):
        fdn = random_uniallpass(n, p, n, scaled=True, delays=rng.integers(100, 600, n).tolist())
        cases.append((*lossless_embedding(fdn), 4))
    return cases


def circle_args(fdn):
    """(U, m, gamma, den), the arguments of :func:`core._circle_poles` for a
    homogeneous-decay system."""
    m = fdn.delays.as_array()
    gamma, u, _ = core._homogeneous_factor(fdn.a, m)
    return u, m, gamma, core._circle_denominator(u, m)


def long_delay_designs(count, seed):
    """``count`` homogeneous designs as in the long-delay benchmark: N = 8,
    delays 30-95 summing to 540, 560, 580 or 600, gamma 0.999."""
    rng = np.random.default_rng(seed)
    designs = []
    for _ in range(count):
        order = int(rng.choice([540, 560, 580, 600]))
        delays = 30 + rng.multinomial(order - 240, np.full(8, 1 / 8))
        while delays.max() > 95:
            delays = 30 + rng.multinomial(order - 240, np.full(8, 1 / 8))
        designs.append(design_homogeneous_siso(delays.tolist(), 0.999).fdn)
    return designs


class TestCircleSampling:
    def test_fft_samples_within_their_bound(self):
        # the oracle's own determinants carry the per-determinant rounding
        # bound N^2 eps prod_i (1 + ||u_i||) on top of the FFT's bound
        signs, parities = set(), set()
        for u, m, samples in circle_sampling_cases():
            n, order = m.size, int(m.sum())
            den = core._circle_denominator(u, m)
            phi, r, bound = core._circle_samples(u, m, den, samples * order)
            ref_phi, ref = circle_samples(u, m, samples * order)
            np.testing.assert_array_equal(phi, ref_phi)
            own = n * n * core._EPS * np.prod(1.0 + np.linalg.norm(u, axis=1))
            assert np.max(np.abs(r[0] - ref)) <= bound + own
            if order <= 600:
                # r, r' and r'' from the same den: the rows' errors are trig
                # polynomials of degree L / 2, so Bernstein's inequality
                # scales the FFT's share of the bound by (L / 2)**j
                direct = circle_derivatives(den, samples * order)
                errors = np.max(np.abs(r - direct), axis=1)
                assert np.all(errors <= bound * (0.5 * order) ** np.arange(3))
            signs.add((-1) ** n * np.sign(np.linalg.det(u)))
            parities.add(order % 2)
        assert signs == {-1.0, 1.0} and parities == {0, 1}

    def test_count_closes_wherever_the_per_sample_count_does(self):
        systems = long_delay_designs(8, 2211)
        systems += [design_homogeneous_siso(np.random.default_rng(n).integers(20, 60, n).tolist(), 0.999).fdn for n in range(2, 17)]
        # N = 17-19: counts that a bound from the a priori row norms 1 + ||u_i||
        # leaves short
        systems += [
            design_homogeneous_siso(np.random.default_rng([seed, n]).integers(20, 60, n).tolist(), 0.999).fdn
            for n in (17, 18, 19)
            for seed in (1, 3)
        ]
        for fdn in systems:
            m = fdn.delays.as_array()
            gamma, u, _ = core._homogeneous_factor(fdn.a, m)
            # every design of this family closes on the per-sample count
            assert circle_count(u, m) == fdn.order
            assert core._circle_poles(u, m, gamma, core._circle_denominator(u, m)) is not None

    @pytest.fixture
    def loop_work(self, monkeypatch):
        """Records the points of every ``_loop_chunks`` call and the number
        of stacked determinants formed."""
        work = {"points": [], "dets": 0}
        chunks, det = core._loop_chunks, np.linalg.det

        def recording(x, points, powers, reduce):
            work["points"].append(np.array(points))
            return chunks(x, points, powers, reduce)

        def counting(a, *args, **kwargs):
            a = np.asarray(a)
            if a.ndim > 2:
                work["dets"] += a.shape[0]
            return det(a, *args, **kwargs)

        monkeypatch.setattr(core, "_loop_chunks", recording)
        monkeypatch.setattr(np.linalg, "det", counting)
        return work

    def test_one_count_forms_the_node_determinants_only(self, loop_work):
        fdn = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999).fdn
        m = fdn.delays.as_array()
        gamma, u, _ = core._homogeneous_factor(fdn.a, m)
        assert core._circle_poles(u, m, gamma, core._circle_denominator(u, m)) is not None
        nodes = fdn.order // 2 + 1
        assert loop_work["dets"] == nodes
        np.testing.assert_array_equal(loop_work["points"][0], np.arange(nodes))
        # the rest are Newton sweeps over the open brackets
        assert all(p.size < nodes for p in loop_work["points"][1:])

    @pytest.fixture
    def short_first(self, monkeypatch):
        """Makes the first pass of every circle count come up short, with
        no sample above its bound; records the samples per pole of each
        pass."""
        passes = []
        samples = core._circle_samples

        def short(u, m, den, count):
            passes.append(count // int(m.sum()))
            phi, r, bound = samples(u, m, den, count)
            return phi, r, np.inf if len(passes) == 1 else bound

        monkeypatch.setattr(core, "_circle_samples", short)
        return passes

    def test_both_lossless_passes_share_one_set(self, short_first, loop_work):
        fdn = gardner_sweep(1, 500, 600, 2212)[0]
        assert core._lossless_proof(fdn)
        assert short_first == list(core._CIRCLE_SAMPLES)
        nodes = (fdn.order + fdn.n_io) // 2 + 1
        assert loop_work["dets"] == nodes
        assert sum(np.array_equal(p, np.arange(nodes)) for p in loop_work["points"]) == 1

    def test_poles_take_the_second_pass(self, monkeypatch, short_first):
        # a count that fails at 8 L is retried at 32 L before any Aberth solve
        fdn = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999).fdn
        monkeypatch.setattr(core, "_aberth_poles", lambda *args: pytest.fail("an Aberth solve ran"))
        p = poles(fdn)
        assert short_first == list(core._CIRCLE_SAMPLES)
        monkeypatch.undo()
        # the same roots as the 8 L pass finds unpatched
        assert multiset_max_distance(p, poles(fdn)) < 1e-12

    @pytest.fixture
    def pass_sweeps(self, monkeypatch):
        """Records, per pass of a circle count, the number of points of each
        ``_loop_chunks`` call that the pass makes: its Newton sweeps, and
        the determinants of iterates whose step left their bracket."""
        passes = []
        samples, chunks = core._circle_samples, core._loop_chunks

        def starting(*args):
            passes.append([])
            return samples(*args)

        def recording(x, points, powers, reduce):
            if passes:
                passes[-1].append(points.size)
            return chunks(x, points, powers, reduce)

        monkeypatch.setattr(core, "_circle_samples", starting)
        monkeypatch.setattr(core, "_loop_chunks", recording)
        return passes

    def test_long_delay_designs_close_in_two_sweeps(self, pass_sweeps):
        # quintic Hermite starts: one sweep to converge, one to confirm
        for fdn in long_delay_designs(8, 2213):
            args = circle_args(fdn)
            pass_sweeps.clear()
            assert core._circle_poles(*args) is not None
            assert len(pass_sweeps) == 1 and len(pass_sweeps[0]) <= 2

    @pytest.mark.parametrize(
        "delays, passes, sweeps",
        [
            ([1199, 1195, 1218, 1194, 1204, 1204, 1197, 1205], 1, 2),
            # N = 32: at the 5-smooth 56250 samples of its first pass, two
            # pairs of close roots share a sample interval and the count
            # comes up 4 short; the 8 L pass at 56000 samples counted every
            # root but stalled for 100 sweeps from its secant starts
            (
                [543, 325, 353, 371, 354, 540, 560, 474, 311, 328, 399, 429, 486, 443, 379, 347]
                + [507, 520, 309, 334, 435, 417, 566, 455, 426, 429, 499, 476, 351, 521, 527, 586],
                2,
                4,
            ),
        ],
    )
    def test_ci_designs_close_without_aberth(self, monkeypatch, pass_sweeps, delays, passes, sweeps):
        monkeypatch.setattr(core, "_aberth_poles", lambda *args: pytest.fail("an Aberth solve ran"))
        fdn = design_homogeneous_siso(delays, 0.9995).fdn
        assert poles(fdn).shape == (fdn.order,)
        assert len(pass_sweeps) <= passes and len(pass_sweeps[-1]) <= sweeps

    def test_bracket_guard_closes_from_secant_starts(self, monkeypatch, loop_work):
        # N = 24, order 3435: from the secant points of the brackets a few
        # Newton steps would leave them; those bisect on the sign of det P,
        # formed for them alone, and the pass settles on the same roots
        delays = np.random.default_rng([2, 24]).integers(100, 200, 24).tolist()
        fdn = design_homogeneous_siso(delays, 0.999).fdn
        args = circle_args(fdn)
        expected = core._circle_poles(*args)
        formed = loop_work["dets"]
        monkeypatch.setattr(core, "_hermite_starts", lambda lo, hi, left, right: lo - left[0] * (hi - lo) / (right[0] - left[0]))
        p = core._circle_poles(*args)
        assert p is not None
        assert np.max(np.abs(np.sort(np.angle(p)) - np.sort(np.angle(expected)))) <= 1e-15
        assert 0 < loop_work["dets"] - formed <= 4

    def test_singular_stack_is_inverted_matrix_by_matrix(self, monkeypatch):
        # np.linalg.inv refuses a whole stack for one singular matrix: the
        # sweep retries it one matrix at a time and the pass closes as before
        fdn = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999).fdn
        args = circle_args(fdn)
        expected = core._circle_poles(*args)
        inv, raised = np.linalg.inv, []

        def once(a):
            if not raised and a.shape[0] > 1:
                raised.append(a.shape[0])
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", once)
        np.testing.assert_array_equal(core._circle_poles(*args), expected)
        assert raised

    def test_singular_iterate_is_taken_as_a_root(self, monkeypatch):
        # the first iterate's loop matrix made singular: it stops where it
        # stands, at its quintic start, and every other root is unchanged
        fdn = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999).fdn
        args = circle_args(fdn)
        expected = core._circle_poles(*args)
        inv, marked = np.linalg.inv, []

        def singular(a):
            if not marked:
                marked.append(a[0].copy())
            if np.any(np.all(a == marked[0], axis=(1, 2))):
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", singular)
        p = core._circle_poles(*args)
        assert p is not None
        # the conjugate pairs come first, then their conjugates
        conjugate = int(np.sum(expected.imag > 0))
        np.testing.assert_array_equal(np.delete(p, [0, conjugate]), np.delete(expected, [0, conjugate]))
        # quintic starts are within 3e-9 of their roots at this order
        assert abs(p[0] - expected[0]) < 1e-7


def contraction_sweep(family):
    """Four seeded networks of one family whose feedback matrix is a
    contraction, of order below 500 so that the Aberth solve stays cheap.
    "redrawn" gives the "homogeneous" designs on new delays."""
    rng = np.random.default_rng(1700)
    systems = []
    for _ in range(4):
        n = int(rng.integers(2, 7))
        delays = rng.integers(3, 60, n).tolist()
        if family in ("homogeneous", "redrawn"):
            fdn = design_homogeneous_siso(delays, float(rng.uniform(0.95, 0.999))).fdn
            redraw = rng.integers(3, 60, n).tolist()
            if family == "redrawn":
                fdn = fdn.with_delays(redraw)
        elif family == "poletti":
            fdn, _ = poletti_unitary(random_orthogonal(n, rng), float(rng.uniform(-0.9, 0.9)), delays)
        elif family == "schroeder":
            n = int(rng.integers(4, 9))
            gains = rng.uniform(0.5, 0.8, n) * rng.choice([-1.0, 1.0], n)
            fdn, _ = schroeder_series(gains, rng.integers(3, 60, n).tolist())
        else:
            a = rng.standard_normal((n, n))
            a *= rng.uniform(0.5, 0.95) / np.linalg.norm(a, 2)
            fdn = orthogonal_completion(a, n, delays)
        systems.append(fdn)
    return systems


class TestContractionProof:
    @pytest.mark.parametrize("family", ["homogeneous", "redrawn", "poletti", "schroeder", "completion"])
    def test_proof_agrees_with_the_solve(self, monkeypatch, no_pole_solve, family):
        systems = contraction_sweep(family)
        proven = [is_allpass(fdn) for fdn in systems]
        monkeypatch.undo()
        monkeypatch.setattr(core, "_contraction_proof", lambda a: False)
        monkeypatch.setattr(core, "_lossless_proof", lambda fdn: False)
        for fdn, report in zip(systems, proven):
            assert report == is_allpass(fdn)
            assert report.allpass
            a, m = fdn.a, fdn.delays.as_array()
            norm = np.linalg.norm(a, 2)
            if family == "schroeder":
                # these chains need the scaled max norm: ||A||_2 > 1
                assert norm > 1.0
                v = np.linalg.solve(np.eye(m.size) - np.abs(a), np.ones(m.size))
                norm = np.max(np.abs(a) @ v / v)
            else:
                assert norm < 1.0
            # ||A|| < 1 in a norm kept by diag(z**m_i) puts every pole
            # inside |z| = ||A||**(1 / max m)
            p = core._aberth_poles(fdn, *core._gcp_terms(a, m))
            assert np.max(np.abs(p)) <= norm ** (1.0 / m.max()) * (1.0 + 1e-12)

    @pytest.mark.parametrize("family", ["orthogonal", "schroeder"])
    def test_lossless_feedback_falls_back_and_raises(self, monkeypatch, rng, family):
        # ||A||_2 = 1 with poles on the circle, and a unit entry of |A|:
        # neither norm proves stability
        if family == "orthogonal":
            u = random_orthogonal(4, rng)
            fdn = FdnSystem(u, np.zeros((4, 1)), np.zeros((1, 4)), np.ones((1, 1)), [3, 5, 7, 2])
        else:
            # the constructor refuses |g| >= 1; a section of gain 1 puts its
            # line's poles on the circle
            import uniallpass.designs as designs

            monkeypatch.setattr(designs, "_check_gains", lambda g: np.asarray(g, dtype=float))
            with np.errstate(divide="ignore"):
                fdn, _ = designs.schroeder_series([0.6, -0.5, 0.7, 1.0], [9, 4, 6, 5])
        assert not core._contraction_proof(fdn.a)
        with pytest.raises(UnstableError) as exc:
            is_allpass(fdn)
        # the fallback takes the poles from poles(): circle poles of modulus
        # 1 for the orthogonal A = U diag(1**m), Aberth's for the chain
        np.testing.assert_array_equal(exc.value.poles, poles(fdn))
        m = fdn.delays.as_array()
        aberth = core._aberth_poles(fdn, *core._gcp_terms(fdn.a, m))
        assert multiset_max_distance(exc.value.poles, aberth) < 1e-12
        if family == "orthogonal":
            # the verdict is gamma + radius >= 1, not the moduli 1 +- eps
            gamma, _, radius = core._homogeneous_factor(fdn.a, m)
            assert gamma + radius >= 1.0
            assert np.all(np.abs(np.abs(exc.value.poles) - gamma) <= radius)
        else:
            # the gain-1 section's poles, the fifth roots of -1
            roots = np.exp(1j * np.pi * (2 * np.arange(5) + 1) / 5)
            nearest = exc.value.poles[np.argmin(np.abs(exc.value.poles[:, None] - roots), axis=0)]
            assert multiset_max_distance(nearest, roots) < 1e-12

    def test_long_single_line_needs_no_solve(self, no_pole_solve):
        # gain 0.5 on a line of 20000 samples: the rounding of gamma**m keeps
        # it off the circle route of poles, but ||A||_2 = 0.5
        fdn, _ = schroeder_series([0.5], [20000])
        assert is_allpass(fdn).allpass

    def test_proof_lifts_the_order_budget(self, no_pole_solve):
        fdn, _ = schroeder_series([0.5, -0.4], [core._MAX_ORDER - 100, 300])
        assert fdn.order > core._MAX_ORDER
        assert is_allpass(fdn).allpass


def gardner_sweep(count, low, high, seed):
    """``count`` seeded Gardner chains of N 3-8 and order in [low, high]."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        n = int(rng.integers(3, 9))
        order = int(rng.integers(low, high + 1))
        delays = 1 + rng.multinomial(order - n, np.full(n, 1.0 / n))
        gains = rng.uniform(0.3, 0.8, n) * rng.choice([-1.0, 1.0], n)
        systems.append(gardner_nested(list(gains), delays.tolist())[0])
    return systems


def wide_sweep(count, seed, perturb=0.0):
    """``count`` scaled random certified systems of N 12-14 and delays 1-4,
    as in the wide-verify benchmark; ``perturb`` adds a random matrix of
    that 2-norm to A."""
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        n = int(rng.integers(12, 15))
        fdn = random_uniallpass(n, 1, int(rng.integers(1 << 30)), scaled=True, delays=rng.integers(1, 5, n).tolist())
        if perturb:
            e = rng.standard_normal((n, n))
            fdn = FdnSystem(fdn.a + perturb / np.linalg.norm(e, 2) * e, fdn.b, fdn.c, fdn.d, fdn.delays)
        systems.append(fdn)
    return systems


class TestLosslessProof:
    def test_route_agrees_with_the_solve(self):
        # the gate: a proof only where every Aberth pole lies inside the
        # circle, and a proof for nearly all of these certified networks
        systems = gardner_sweep(20, 500, 3000, 1900) + wide_sweep(20, 1901)
        proven = 0
        for fdn in systems:
            assert not core._contraction_proof(fdn.a)
            route = core._lossless_proof(fdn)
            p = core._aberth_poles(fdn, *core._gcp_terms(fdn.a, fdn.delays.as_array()))
            assert np.max(np.abs(p)) < 1.0
            proven += route
        assert proven >= 30

    @pytest.mark.parametrize("family", ["gardner", "split"])
    def test_same_report_as_the_solve(self, monkeypatch, no_pole_solve, family):
        if family == "gardner":
            systems = gardner_sweep(4, 20, 200, 1902)
        else:
            # orthogonal splits with P < N: A has N - P unit singular values
            rng = np.random.default_rng(1903)
            systems = [
                random_uniallpass(5, p, seed, scaled=True, delays=random_delays(rng, 5, 30))
                for seed, p in enumerate((1, 2, 3))
            ]
        proven = [is_allpass(fdn) for fdn in systems]
        monkeypatch.undo()
        monkeypatch.setattr(core, "_lossless_proof", lambda fdn: False)
        for fdn, report in zip(systems, proven):
            assert not core._contraction_proof(fdn.a)
            assert report == is_allpass(fdn)
            assert report.allpass

    def test_other_systems_never_enter_the_route(self, monkeypatch):
        entered = []
        circle = core._circle_poles

        def recording(*args):
            entered.append(args)
            return circle(*args)

        monkeypatch.setattr(core, "_circle_poles", recording)
        rng = np.random.default_rng(1904)
        # non-contractive and uncertified: a random A of 2-norm 1.2
        generic = random_stable_fdn(rng, n=4, contraction=1.2)
        systems = wide_sweep(4, 1905, perturb=1e-3) + [generic]
        systems += [delay_dependent_allpass(d) for d in ([1, 1, 1], [2, 2, 1], [2, 1, 1])]
        for fdn in systems:
            assert not core._contraction_proof(fdn.a)
            try:
                is_allpass(fdn, tol=fv.FIXTURE_TOL)
            except UnstableError:
                pass
        assert entered == []

    def test_near_lossless_section_is_not_proven(self):
        # a gain of 1 - 1e-12 puts poles within about 1e-13 of the circle
        # and dsim near 1e12: the route must not claim them
        fdn, _ = gardner_nested([0.5, -0.6, 1.0 - 1e-12, 0.7], [5, 7, 3, 9])
        assert not core._lossless_proof(fdn)
        p = core._aberth_poles(fdn, *core._gcp_terms(fdn.a, fdn.delays.as_array()))
        assert np.max(np.abs(p)) < 1.0

    def test_certified_networks_above_the_sweep_budget(self, monkeypatch, no_pole_solve):
        def never(*args):
            raise AssertionError("a principal-minor sweep ran")

        monkeypatch.setattr(core, "principal_minors_all", never)
        rng = np.random.default_rng(1906)
        gains = rng.uniform(0.3, 0.8, 24) * rng.choice([-1.0, 1.0], 24)
        schroeder, _ = schroeder_series(gains, rng.integers(5, 40, 24).tolist())
        # the N = 32, order-14000 audio-decay design
        delays = [543, 325, 353, 371, 354, 540, 560, 474, 311, 328, 399, 429, 486, 443, 379, 347,
                  507, 520, 309, 334, 435, 417, 566, 455, 426, 429, 499, 476, 351, 521, 527, 586]
        homogeneous = design_homogeneous_siso(delays, 0.9995).fdn
        for fdn in (schroeder, homogeneous):
            assert fdn.n_delays > 20
            assert is_allpass(fdn).allpass

    def test_typed_refusal_above_the_sweep_budget(self):
        # N = 22, uncertified and not a contraction: only the sweep and the
        # Aberth solve could decide, and the sweep is out of budget
        big = random_uniallpass(22, 1, 5, scaled=True, delays=[1, 2, 3] * 7 + [1])
        e = np.random.default_rng(1908).standard_normal((22, 22))
        big = FdnSystem(big.a + 1e-3 * e / np.linalg.norm(e, 2), big.b, big.c, big.d, big.delays)
        assert not core._contraction_proof(big.a) and not core._lossless_proof(big)
        calls = (
            lambda: gcp(big.a, big.delays),
            lambda: poles(big),
            lambda: is_allpass(big),
        )
        for call in calls:
            with pytest.raises(FdnError, match=r"N <= 20, got 22"):
                call()
        # the numerator fit takes the FFT denominator, which has no N budget
        assert numerator_poly(big)[0].shape == (1, 1, big.order + 1)


def denominator_systems():
    """Certified networks of every design family, and wide-verify-like
    random ones, for the FFT denominator."""
    rng = np.random.default_rng(1909)
    systems = []
    for _ in range(6):
        n = int(rng.integers(2, 9))
        delays = rng.integers(1, 200, n).tolist()
        gains = list(rng.uniform(0.3, 0.9, n) * rng.choice([-1.0, 1.0], n))
        systems += [
            schroeder_series(gains, delays)[0],
            gardner_nested(gains, delays)[0],
            poletti_unitary(random_orthogonal(n, rng), float(rng.uniform(-0.9, 0.9)), delays)[0],
            orthogonal_completion(0.9 * random_orthogonal(n, rng), n, delays),
        ]
    systems.append(siso_completion(schroeder_series([0.5, -0.6, 0.7], [3, 1, 4])[0].a, [30, 50, 70])[0])
    return systems + wide_sweep(12, 1910)


class TestCircleDenominator:
    def test_matches_the_minor_sweep(self):
        # an absolute error of a few eps times the largest |den| on the circle
        for fdn in denominator_systems():
            m = fdn.delays.as_array()
            ref = core._gcp_terms(fdn.a, m)[0]
            scale = np.max(np.abs(np.fft.fft(ref)))
            den = core._circle_denominator(fdn.a, m)
            assert den[0] == 1.0
            assert np.max(np.abs(den - ref)) <= 16 * m.size * core._EPS * scale

    def test_reversal_verdicts_unchanged(self, monkeypatch):
        systems = denominator_systems() + [delay_dependent_allpass(d) for d in ([1, 1, 1], [2, 2, 1])]
        reports = [is_allpass(fdn, tol=fv.FIXTURE_TOL) for fdn in systems]
        monkeypatch.setattr(core, "_circle_denominator", lambda a, m: core._gcp_terms(a, m)[0])
        for fdn, report in zip(systems, reports):
            sweep = is_allpass(fdn, tol=fv.FIXTURE_TOL)
            assert report.allpass == sweep.allpass and report.sign == sweep.sign
            assert abs(report.reversal_deviation - sweep.reversal_deviation) < 1e-12


class TestBorderedNumerator:
    """The numerator of det H from bordered loop determinants on the FFT
    denominator's nodes, against the fits it replaced.  Errors are relative
    to the largest sample magnitude of det H times the denominator on the
    circle; the worst measured is 1.2e-15."""

    def systems(self, p, rng):
        for _ in range(4):
            n = int(rng.integers(1, 6))
            delays = random_delays(rng, n, 10)
            yield random_uniallpass(n, p, int(rng.integers(1 << 30)), scaled=True, delays=delays)
            yield random_stable_fdn(rng, n, p, delays=delays)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_vandermonde_fit(self, p):
        for fdn in self.systems(p, np.random.default_rng(2600 + p)):
            ref, _, scale = numerator_vandermonde(fdn, np.linalg.det)
            assert np.max(np.abs(core._circle_numerator(fdn) - ref)) <= 1e-13 * scale

    def test_matches_cofactor_expansion(self):
        for fdn in self.systems(1, np.random.default_rng(2604)):
            num = core._circle_numerator(fdn)
            assert np.max(np.abs(num - numerator_leibniz(fdn))) <= 1e-13 * np.max(np.abs(num))

    def test_matches_the_full_circle_fit_at_order_600(self):
        design = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999)
        ref, scale = numerator_det_grid(design.fdn, 4 * design.fdn.order)
        assert np.max(np.abs(core._circle_numerator(design.fdn) - ref)) <= 1e-13 * scale

    def test_one_determinant_per_node(self, monkeypatch):
        # (order + 1) // 2 + 1 bordered (N + P) x (N + P) loop matrices, no
        # solve
        fdn = random_uniallpass(3, 2, 5, scaled=True, delays=[4, 7, 2])
        sizes = []
        chunks = core._loop_chunks

        def counting(x, points, powers, reduce):
            sizes.append((x.shape, points.size))
            return chunks(x, points, powers, reduce)

        monkeypatch.setattr(core, "_loop_chunks", counting)
        monkeypatch.setattr(np.linalg, "solve", lambda *args: pytest.fail("a solve ran"))
        core._circle_numerator(fdn)
        assert sizes == [((5, 5), (fdn.order + 1) // 2 + 1)]

    def test_mimo_entries_match_siso_numerators(self):
        # entry (i, q) of numerator_poly, from det(P) H, against the bordered
        # numerator of the SISO subsystem (A, b_q, c_i, d_iq), up to order 5400
        rng = np.random.default_rng(2700)
        u = random_orthogonal(4, np.random.default_rng(3))
        systems = [poletti_unitary(u, 0.6, [1201, 1433, 1087, 1679])[0]]
        for p in (2, 3):
            for seed in range(3):
                n = int(rng.integers(p, 7))
                systems.append(random_uniallpass(n, p, seed, scaled=True, delays=random_delays(rng, n, 40)))
        for fdn in systems:
            coeffs, _ = numerator_poly(fdn)
            scale = np.max(np.abs(coeffs))
            for i in range(fdn.n_io):
                for q in range(fdn.n_io):
                    b, c, d = fdn.b[:, q : q + 1], fdn.c[i : i + 1], fdn.d[i : i + 1, q : q + 1]
                    sub = FdnSystem(fdn.a, b, c, d, fdn.delays)
                    assert np.max(np.abs(coeffs[i, q] - core._circle_numerator(sub))) <= 1e-12 * scale

    def test_numerator_poly_one_pass(self, monkeypatch):
        # one pass of det(P) H on the upper half of the least 5-smooth count
        # of nodes at or above order + 9: no FFT denominator and no
        # evaluation at rounded points z
        fdn = random_uniallpass(3, 2, 5, scaled=True, delays=[4, 7, 2])
        calls = []
        response = core._responses

        def counting(fdn, points, powers, reduce):
            calls.append(len(points))
            return response(fdn, points, powers, reduce)

        monkeypatch.setattr(core, "_responses", counting)
        monkeypatch.setattr(core, "_circle_denominator", lambda *args: pytest.fail("a denominator ran"))
        monkeypatch.setattr(core, "frequency_response", lambda *args: pytest.fail("H at rounded z ran"))
        numerator_poly(fdn)
        assert calls == [core._smooth_length(fdn.order + 1 + core._FIT_PAD) // 2 + 1]

    def test_smooth_node_count_keeps_the_coefficients(self, monkeypatch):
        # order 5400: 5625 nodes against order + 9 = 5409 = 3^2 601, on a SISO
        # design and on an N = P = 8 lattice
        delays = [601, 703, 655, 689, 702, 640, 710, 700]
        systems = [
            design_homogeneous_siso(delays, 0.999).fdn,
            poletti_unitary(random_orthogonal(8, np.random.default_rng(2701)), 0.6, delays)[0],
        ]
        assert core._smooth_length(sum(delays) + 1 + core._FIT_PAD) == 5625
        for fdn in systems:
            coeffs, resid = numerator_poly(fdn)
            with monkeypatch.context() as plain:
                plain.setattr(core, "_smooth_length", lambda n: n)
                ref, ref_resid = numerator_poly(fdn)
            assert np.max(np.abs(coeffs - ref)) <= resid + ref_resid


def test_smooth_lengths():
    def smooth(k):
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    lengths = [core._smooth_length(n) for n in range(1, 3001)]
    assert all(smooth(k) and k >= n for n, k in enumerate(lengths, 1))
    # no 5-smooth length is skipped
    assert sorted(set(lengths)) == [k for k in range(1, lengths[-1] + 1) if smooth(k)]


class TestLoopLogDerivative:
    # f = z**4000 (z**3 + 0.5) with the zero roots deflated: f'/f is
    # 3 z**2 / (z**3 + 0.5)
    fdn = schroeder_series([0.0, 0.5], [4000, 3])[0]
    tables = core._poly_tables(np.array([0.5, 0.0, 0.0, 1.0]))

    def loop_args(self):
        return self.fdn.a, self.fdn.delays.as_array(), 4000

    @pytest.mark.parametrize("radius", [0.8, 3.0])
    def test_powers_beyond_the_float_range(self, radius):
        # z**4000 under- or overflows here: the loop matrix's error scale is
        # infinite, and the coefficients carry these iterates
        z = radius * np.exp([0.3j, 2.0j])
        with np.errstate(all="ignore"):
            _, error = core._loop_log_derivative(*self.loop_args(), z)
            step, gap, done = core._aberth_steps(self.loop_args(), self.tables, z, z, np.arange(2), 10.0)
            repulsion = 1.0 / (z - z[::-1])
            expected = core._coefficient_steps(self.tables, z, np.abs(z), repulsion, 10.0)
        assert np.all(error == np.inf)
        for value, reference in zip((step, gap, done), expected):
            np.testing.assert_array_equal(value, reference)

    @pytest.mark.parametrize("radius", [0.9999, 1.0, 1.0001])
    def test_in_range_points(self, radius):
        z = radius * np.exp([0.3j, 2.0j])
        logd, error = core._loop_log_derivative(*self.loop_args(), z)
        np.testing.assert_allclose(logd, 3 * z**2 / (z**3 + 0.5), rtol=1e-12)
        assert np.all(error < 1e-10)


class TestPoleSolveLimits:
    def test_sweep_cap_raises(self, monkeypatch):
        monkeypatch.setattr(core, "_MAX_SWEEPS", 2)
        fdn = random_uniallpass(4, 1, 7, scaled=True, delays=[5, 9, 12, 7])
        with pytest.raises(ConditioningError, match=r"of 33 roots unconverged after 2 sweeps") as exc:
            poles(fdn)
        assert exc.value.residual > 0

    def test_order_budget_refused_before_solving(self, monkeypatch):
        def never(*args):
            raise AssertionError("solver started above the order budget")

        monkeypatch.setattr(core, "_newton_polygon_starts", never)
        monkeypatch.setattr(core, "principal_minors_all", never)
        # two lines of unequal decay: no circle route; is_allpass solves for
        # poles only where neither proof closes, as for a line of gain 1.5
        fdn = FdnSystem.siso(np.diag([1.5, 0.5]), [1.0, 1.0], [1.0, 1.0], 0.0, [core._MAX_ORDER, 1])
        assert core._homogeneous_factor(fdn.a, fdn.delays.as_array()) is None
        for call in (poles, is_allpass):
            with pytest.raises(FdnError, match="order"):
                call(fdn)

    @pytest.mark.parametrize("gain", [0.5, 1.5])
    def test_circle_route_has_no_order_budget(self, monkeypatch, gain):
        monkeypatch.setattr(core, "_aberth_poles", lambda *args: pytest.fail("an Aberth solve ran"))
        fdn = FdnSystem.siso([[gain]], [1.0], [1.0], 0.0, [core._MAX_ORDER + 1])
        p = poles(fdn)
        assert p.shape == (fdn.order,)
        assert np.max(np.abs(np.abs(p) - gain ** (1.0 / fdn.order))) < 1e-12
        if gain > 1.0:
            # no contraction, no certificate: the circle poles reject it
            with pytest.raises(UnstableError):
                is_allpass(fdn)


class TestAberthRowChunks:
    """The Aberth sums are taken in row chunks of the live iterates; the
    roots must not depend on the chunk, also across sweeps where pairs
    split into real iterates and real iterates merge into pairs."""

    @pytest.fixture(scope="class")
    def solves(self):
        systems = [
            random_uniallpass(4, 1, 7, scaled=True, delays=[5, 9, 12, 7]),
            schroeder_series([0.5, -0.6, 0.7], [8, 8, 8])[0],
            gardner_nested([0.5, -0.6, 0.7, 0.4], [6, 10, 4, 8])[0],
            schroeder_series([0.5, -0.6, 0.7, 0.55], [100, 120, 130, 90])[0],
            # a split and a merge in one solve
            schroeder_series([0.6, -0.7, 0.5], [18, 17, 8])[0],
        ]
        solves = []
        for fdn in systems:
            den, floor = core._gcp_terms(fdn.a, fdn.delays.as_array())
            deg = int(np.flatnonzero(np.abs(den) > floor)[-1])
            solves.append((fdn, den, floor, deg, core._aberth_poles(fdn, den, floor)))
        return solves

    def test_solves_split_and_merge(self, solves, monkeypatch):
        sizes = []

        def recording(z, *args, _original=core._regroup):
            out = _original(z, *args)
            sizes.append((z.size, out[0].size))
            return out

        monkeypatch.setattr(core, "_regroup", recording)
        for fdn, den, floor, _, _ in solves:
            core._aberth_poles(fdn, den, floor)
        assert any(after > before for before, after in sizes)
        assert any(after < before for before, after in sizes)

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_roots_bitwise_independent_of_chunk(self, solves, monkeypatch, rows):
        for fdn, den, floor, deg, expected in solves:
            monkeypatch.setattr(core, "_STACK_ENTRIES", rows * max(deg + 1, fdn.a.size))
            assert core._aberth_poles(fdn, den, floor).tobytes() == expected.tobytes(), fdn.order


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
        unstable = fdn.with_delays([2, 1, 1])
        den = gcp(unstable.a, unstable.delays)
        num, _ = numerator_poly(unstable)
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

    def test_one_transfer_function_pass(self, monkeypatch):
        # H once, on the upper half of 2 order + 2 uniform nodes and the
        # random points; the reversal test fits no samples of H
        calls = []
        response = core._responses

        def counting(fdn, points, powers, reduce):
            calls.append(len(points))
            return response(fdn, points, powers, reduce)

        monkeypatch.setattr(core, "_responses", counting)
        monkeypatch.setattr(core, "numerator_poly", lambda *args: pytest.fail("a numerator fit ran"))
        fdn, _ = schroeder_series([0.3, -0.5, 0.7], [3, 1, 4])
        assert is_allpass(fdn).allpass
        assert calls == [fdn.order + 2 + core._GRID_RANDOM]

    def test_reversal_deviation_matches_numerator_poly(self):
        # the bordered determinants measure what the numerator fit on
        # order + 9 nodes measures; for SISO det H = H
        rng = np.random.default_rng(16)
        systems = []
        for seed in range(10):
            n = int(rng.integers(1, 7))
            systems.append(random_uniallpass(n, 1, seed, scaled=True, delays=random_delays(rng, n, 30)))
        for build in (schroeder_series, gardner_nested):
            for _ in range(5):
                n = int(rng.integers(2, 7))
                gains = rng.uniform(0.2, 0.8, n) * rng.choice([-1.0, 1.0], n)
                systems.append(build(list(gains), list(rng.integers(1, 40, n)))[0])
        for fdn in systems:
            ref, _ = reversal_check(numerator_poly(fdn)[0][0, 0], gcp(fdn.a, fdn.delays))
            assert abs(is_allpass(fdn).reversal_deviation - ref) < 1e-11


    @pytest.mark.parametrize("p", [1, 2])
    def test_zero_direct_gain_delay_lines(self, p):
        # A = 0, B = C = I, D = 0: H = diag(z**-m), allpass with no D^-1
        fdn = FdnSystem(np.zeros((p, p)), np.eye(p), np.eye(p), np.zeros((p, p)), [5, 3][:p])
        rep = is_allpass(fdn)
        assert rep.allpass
        assert rep.grid_deviation < 1e-14 and rep.reversal_deviation < 1e-14

    def test_half_grid_equals_full_grid(self):
        # H(conj z) = conj H(z): the upper half of the 2 order + 2 nodes and
        # the random points give the maximum over all of them, up to
        # rounding; the full grid takes its powers as exp(i m phi) too
        rng = np.random.default_rng(2605)
        systems = [
            random_uniallpass(4, p, seed, scaled=True, delays=random_delays(rng, 4, 20))
            for p in (1, 2, 3)
            for seed in range(3)
        ]
        systems += [random_stable_fdn(rng, 3, p) for p in (1, 2)]
        for fdn in systems:
            k = 2 * fdn.order + 2
            extra = np.random.default_rng(core._GRID_SEED).uniform(0.0, 2.0 * np.pi, core._GRID_RANDOM)
            omega = np.concatenate([2.0 * np.pi * np.arange(k) / k, extra])
            h = core._responses(fdn, omega, core._unit_powers, lambda loop, h: h)
            full = np.max(np.abs(h @ np.conj(np.swapaxes(h, 1, 2)) - np.eye(fdn.n_io)))
            bound = 4 * fdn.order * core._EPS * max(1.0, full)
            assert abs(is_allpass(fdn).grid_deviation - full) <= bound

    def test_grid_powers_stay_on_the_circle(self):
        # z**m of a rounded z drifts off the circle by about m eps, which
        # read 2.2e-11 on this order-50000 chain and 3.7e-13 on the order-600
        # design; exp(i m phi) does not drift
        chain = schroeder_series([0.5, -0.4], [49700, 300])[0]
        design = design_homogeneous_siso([70, 80, 66, 75, 90, 72, 68, 79], 0.999)
        for fdn in (chain, design.fdn):
            assert is_allpass(fdn).grid_deviation <= 1e-13

    def test_perturbed_and_counterexample_systems_fail(self):
        rng = np.random.default_rng(2606)
        for p in (1, 2, 3):
            n = int(rng.integers(2, 7))
            fdn = random_uniallpass(n, p, p, scaled=True, delays=rng.integers(1, 20, n).tolist())
            assert is_allpass(fdn).allpass
            e = rng.standard_normal((n, n))
            bad = is_allpass(FdnSystem(fdn.a + 1e-6 * e / np.linalg.norm(e, 2), fdn.b, fdn.c, fdn.d, fdn.delays))
            assert not bad.allpass
            assert bad.grid_deviation > 1e-7 and bad.reversal_deviation > 1e-7
        counterexample = delay_dependent_allpass()
        for delays in ([1, 1, 2], [2, 2, 3], [3, 3, 1]):
            rep = is_allpass(counterexample.with_delays(delays))
            assert not rep.allpass and rep.reversal_deviation > 1e-3
        with pytest.raises(UnstableError):
            is_allpass(counterexample.with_delays([2, 1, 1]))

    def test_memory_does_not_grow_with_the_grid(self):
        # order 199700: a few order-length vectors (nodes, coefficients,
        # per-point deviations), no (K, N) powers or (K, P, P) responses;
        # the 4 order-point grid held about 520 bytes per order here
        fdn, _ = schroeder_series([0.5, -0.4], [199400, 300])
        tracemalloc.start()
        try:
            rep = is_allpass(fdn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.allpass
        assert peak <= 96 * fdn.order


class TestStackBudget:
    """No stacked LAPACK call gets more than ``_STACK_ENTRIES`` entries,
    at an order where one unchunked stack of loop matrices would."""

    @pytest.fixture
    def stack_sizes(self, monkeypatch):
        sizes = []
        for name in ("solve", "det", "inv"):

            def wrapped(a, *args, _original=getattr(np.linalg, name), **kwargs):
                a = np.asarray(a)
                if a.ndim > 2:
                    sizes.append(a.size)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, wrapped)
        return sizes

    @pytest.fixture(scope="class")
    def design(self):
        fdn = design_homogeneous_siso([600, 650, 610, 640, 620, 630, 615, 645], 0.9995).fdn
        assert fdn.order == 5010
        return fdn

    def assert_within_budget(self, sizes):
        assert sizes and max(sizes) <= core._STACK_ENTRIES

    def test_frequency_response(self, design, stack_sizes):
        zs = np.exp(2j * np.pi * np.arange(4 * design.order) / (4 * design.order))
        assert frequency_response(design, zs).shape == (zs.size, 1, 1)
        self.assert_within_budget(stack_sizes)

    def test_is_allpass(self, design, stack_sizes):
        assert is_allpass(design).allpass
        self.assert_within_budget(stack_sizes)

    def test_circle_poles(self, design, stack_sizes):
        m = design.delays.as_array()
        gamma, u, _ = core._homogeneous_factor(design.a, m)
        assert core._circle_poles(u, m, gamma, core._circle_denominator(u, m)).shape == (design.order,)
        self.assert_within_budget(stack_sizes)


class TestConcurrencySafety:
    def test_values_are_immutable(self):
        fdn = unit_delay()
        with pytest.raises(ValueError):
            fdn.a[0, 0] = 1.0

    def test_batch_equals_sequential(self, rng):
        fdn = random_stable_fdn(rng, n=3)
        zs = unit_circle_points(rng, 7)
        batched = frequency_response(fdn, zs)
        single = np.stack([frequency_response(fdn, [z])[0] for z in zs])
        np.testing.assert_allclose(batched, single, atol=1e-13)


_TOL_CALLS = {
    "is_allpass": lambda design, tol: is_allpass(design.fdn, tol),
    "numerator_poly": lambda design, tol: numerator_poly(design.fdn, tol),
    "certify_uniallpass": lambda design, tol: certify_uniallpass(design.fdn, design.dsim, tol),
    "check_minor_condition": lambda design, tol: check_minor_condition(design.fdn, tol),
    "dsim_from_lyapunov": lambda design, tol: dsim_from_lyapunov(design.fdn.a, design.fdn.b, tol),
    "dsim_from_hadamard_quotient": lambda design, tol: dsim_from_hadamard_quotient(
        SystemMatrix.from_fdn(design.fdn), tol
    ),
    "siso_completion": lambda design, tol: siso_completion(design.fdn.a, [3, 5], tol),
    "design_homogeneous_siso": lambda design, tol: design_homogeneous_siso([3, 5], 0.9, tol=tol),
}


class TestTolerances:
    @pytest.fixture(scope="class")
    def design(self):
        return design_homogeneous_siso([3, 5], 0.9)

    @pytest.mark.parametrize("name", sorted(_TOL_CALLS))
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0])
    def test_refused(self, design, name, tol):
        # nan used to read the certified design as not allpass, inf as
        # allpass whatever the residual, and -1 failed the design itself
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            _TOL_CALLS[name](design, tol)

    @pytest.mark.parametrize("name", sorted(_TOL_CALLS))
    def test_default_scale_accepted(self, design, name):
        _TOL_CALLS[name](design, 1e-6)

    def test_validator(self):
        assert core.check_tolerance(1e-8) == 1e-8
        assert type(core.check_tolerance(np.float32(0.5))) is float
        with pytest.raises(ValueError):
            core.check_tolerance(float("nan"))
