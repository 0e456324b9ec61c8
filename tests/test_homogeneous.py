import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fixture_values as fv
from conftest import circle_route_poles, random_delays, tf_max_diff, unit_circle_points
from oracles import balanced_form
from uniallpass import (
    ConditioningError,
    DelayVector,
    InterleavingError,
    certify_uniallpass,
    cauchy_unitary,
    choose_dsim,
    decay_gains,
    design_homogeneous_siso,
    is_allpass,
    schroeder_series,
    siso_completion,
    validate_interleaving,
)

_EPS = np.finfo(float).eps


def solved_moduli(design, companion=True):
    """Solved pole moduli, checked against gamma (to 1e-6) and against the
    design's proven enclosure widened by the solver's own rounding; the
    poles come from the circle route (see ``circle_route_poles``)."""
    moduli = np.abs(circle_route_poles(design.fdn, companion))
    np.testing.assert_allclose(moduli, design.gamma, atol=1e-6)
    assert np.all(moduli >= design.pole_modulus_min - 4 * _EPS)
    assert np.all(moduli <= design.pole_modulus_max + 4 * _EPS)
    return moduli


class TestDecayGains:
    def test_reference_values(self):
        decay = decay_gains(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        np.testing.assert_allclose(decay, fv.HOMOG_DECAY, atol=fv.FIXTURE_TOL)

    def test_limit_toward_unity(self):
        decay = decay_gains([5, 9], 1.0 - 1e-12)
        np.testing.assert_allclose(decay, 1.0, atol=1e-10)

    def test_single_line(self):
        assert decay_gains([1], 0.5)[0] == pytest.approx(0.5)

    def test_range_validation(self):
        for gamma in (0.0, 1.0, -0.2, 1.4):
            with pytest.raises(ValueError):
                decay_gains([1], gamma)


class TestChooseDsim:
    def test_reference_nodes_satisfy_constraint(self):
        # the bundled reference node vector obeys d_{i-1} / d_i < decay_i^2
        decay = decay_gains(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        d = fv.HOMOG_DSIM
        ratios = d[:-1] / d[1:]
        assert np.all(ratios > 0)
        assert np.all(ratios < decay[1:] ** 2)

    def test_single_line(self):
        assert choose_dsim(np.array([0.7])).tolist() == [1.0]

    def test_largest_node_is_one(self):
        decay = decay_gains(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        d = choose_dsim(decay)
        assert d[-1] == d.max() == 1.0
        np.testing.assert_allclose(d[1:] / d[:-1], 1.0 / (0.9 * decay[1:] ** 2), rtol=1e-13)

    def test_constructed_nodes_interleave(self):
        decay = decay_gains(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        d = choose_dsim(decay)
        ok, idx = validate_interleaving(d, decay**2 * d)
        assert ok and idx is None

    @settings(max_examples=50, deadline=None)
    @given(
        decay=arrays(
            np.float64, st.integers(1, 10), elements=st.floats(0.05, 0.99)
        ),
        slack=st.floats(0.05, 0.99),
    )
    def test_construction_always_interleaves(self, decay, slack):
        d = choose_dsim(decay, slack)
        ok, idx = validate_interleaving(d, decay**2 * d)
        assert ok and idx is None

    def test_slack_validation(self):
        with pytest.raises(ValueError):
            choose_dsim(np.array([0.5]), slack=1.0)


class TestValidateInterleaving:
    def test_reference_pair(self):
        decay = decay_gains(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        ok, idx = validate_interleaving(fv.HOMOG_DSIM, decay**2 * fv.HOMOG_DSIM)
        assert ok and idx is None

    def test_violation_reports_index(self):
        ok, idx = validate_interleaving([1.0, 2.0], [0.5, 3.0])
        assert not ok and idx == 1

    def test_unsorted_input(self):
        # validation happens on pairs sorted by the first node set
        ok, _ = validate_interleaving([2.0, 1.0], [1.5, 0.5])
        assert ok


class TestCauchyUnitary:
    def test_reference_matrix(self):
        decay = decay_gains(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        u = cauchy_unitary(fv.HOMOG_DSIM, decay**2 * fv.HOMOG_DSIM)
        np.testing.assert_allclose(u, fv.HOMOG_UNITARY, atol=fv.FIXTURE_TOL)

    def test_single_node(self):
        u = cauchy_unitary([1.0], [0.25])
        np.testing.assert_allclose(u, [[1.0]], atol=1e-12)

    def test_random_pair_orthogonal_with_sign_pattern(self, rng):
        for _ in range(5):
            n = 8
            decay = rng.uniform(0.3, 0.95, n)
            d = choose_dsim(decay, slack=float(rng.uniform(0.5, 0.95)))
            dq = decay**2 * d
            u = cauchy_unitary(d, dq)
            assert np.max(np.abs(u @ u.T - np.eye(n))) < 1e-9
            np.testing.assert_array_equal(np.sign(u), np.sign(d[:, None] - dq[None, :]))

    def test_interleaving_required(self):
        with pytest.raises(InterleavingError):
            cauchy_unitary([1.0, 2.0], [0.5, 3.0])

    def test_near_coincident_nodes_rejected(self):
        with pytest.raises(InterleavingError):
            cauchy_unitary([1.0, 2.0], [1.0 - 1e-12, 1.5])

    def test_gap_test_is_relative(self):
        # the same node pattern at any scale: gaps of 5e-19 pass when the
        # nodes themselves are about 1e-18
        for scale in (1.0, 1e-18, 1e18):
            u = cauchy_unitary(scale * np.array([1.0, 2.0]), scale * np.array([0.5, 1.5]))
            np.testing.assert_allclose(u, cauchy_unitary([1.0, 2.0], [0.5, 1.5]), rtol=1e-14, atol=1e-15)
        with pytest.raises(InterleavingError, match="relative"):
            cauchy_unitary([1e-18, 2e-18], [1e-18 * (1 - 1e-12), 1.5e-18])

    def test_large_order_stays_finite(self, rng):
        # log-domain products keep N = 24 well-conditioned
        decay = rng.uniform(0.5, 0.9, 24)
        d = choose_dsim(decay, slack=0.7)
        u = cauchy_unitary(d, decay**2 * d)
        assert np.all(np.isfinite(u))
        assert np.max(np.abs(u @ u.T - np.eye(24))) < 1e-9


class TestDesign:
    def test_reference_design(self, rng):
        design = design_homogeneous_siso(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA, dsim=fv.HOMOG_DSIM)
        np.testing.assert_allclose(design.fdn.a, fv.HOMOG_A, atol=fv.FIXTURE_TOL)
        assert len(solved_moduli(design)) == 54

    def test_single_line_matches_series_section(self, rng):
        # the single-line design realizes (g - z^-4) / (1 - g z^-4): the
        # first-order section with gain -g, globally negated
        from uniallpass import FdnSystem

        g = 0.5**4
        design = design_homogeneous_siso([4], 0.5)
        assert design.fdn.a[0, 0] == pytest.approx(g)
        reference, _ = schroeder_series([-g], [4])
        flipped = FdnSystem.siso(
            reference.a, reference.b.ravel(), -reference.c.ravel(), -reference.d[0, 0], [4]
        )
        zs = unit_circle_points(rng, 16)
        assert tf_max_diff(design.fdn, flipped, zs) < 1e-9
        assert is_allpass(design.fdn).allpass

    def test_random_specs_certify_everywhere(self, rng):
        for _ in range(5):
            n = 5
            delays = random_delays(rng, n, 20)
            design = design_homogeneous_siso(delays, 0.97)
            solved_moduli(design)
            assert is_allpass(design.fdn).allpass
            other = random_delays(rng, n, 20)
            assert is_allpass(design.fdn.with_delays(other)).allpass

    def test_singular_values_equal_decay(self, rng):
        design = design_homogeneous_siso([3, 7, 2], 0.9)
        sv = np.sort(np.linalg.svd(design.fdn.a, compute_uv=False))
        np.testing.assert_allclose(sv, np.sort(design.decay), atol=1e-12)

    def test_balanced_feedback_has_corner_census(self):
        # after balancing with the design nodes, the feedback block is the
        # corner of an orthogonal matrix: N - 1 unit singular values and one
        # equal to |det A|
        from uniallpass import dsim_from_lyapunov

        design = design_homogeneous_siso([3, 7, 2, 5], 0.93)
        balanced = balanced_form(design.fdn, dsim_from_lyapunov(design.fdn.a, design.fdn.b))
        sv = np.sort(np.linalg.svd(balanced.a, compute_uv=False))
        np.testing.assert_allclose(sv[1:], 1.0, atol=1e-9)
        assert sv[0] == pytest.approx(abs(np.linalg.det(design.fdn.a)), abs=1e-9)

    def test_displacement_rank_one(self):
        # node similarity displaces the orthogonal factor by a rank-1 matrix
        design = design_homogeneous_siso(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA, dsim=fv.HOMOG_DSIM)
        disp = np.diag(design.dsim) @ design.unitary - design.unitary @ np.diag(design.dsim_hat)
        sv = np.linalg.svd(disp, compute_uv=False)
        assert sv[1] / sv[0] < 1e-10

    def test_permuted_delays_still_certify(self, rng):
        delays = [9, 2, 6, 4]
        base = design_homogeneous_siso(delays, 0.95)
        perm = [2, 0, 3, 1]
        permuted = design_homogeneous_siso([delays[i] for i in perm], 0.95)
        for design in (base, permuted):
            solved_moduli(design)
            assert is_allpass(design.fdn).allpass

    def test_pole_count_matches_order(self):
        design = design_homogeneous_siso([2, 5], 0.8)
        assert len(solved_moduli(design)) == DelayVector([2, 5]).system_order

    def test_unsorted_but_valid_dsim_accepted(self, rng):
        # node pairs are canonically re-sorted, so an unsorted vector whose
        # pair set interleaves is fine
        design = design_homogeneous_siso([2, 3], 0.9, dsim=[1.0, 0.5])
        assert is_allpass(design.fdn).allpass

    def test_bad_dsim_rejected(self):
        with pytest.raises(InterleavingError):
            design_homogeneous_siso([2, 3], 0.9, dsim=[1.0, 1.05])
        with pytest.raises(ValueError):
            design_homogeneous_siso([2, 3], 0.9, dsim=[1.0, -2.0])

    def test_design_matches_general_siso_completion(self, rng):
        # the general per-entry completion of the designed feedback matrix
        # realizes the same transfer function as the balanced orthogonal route
        specs = [(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA, fv.HOMOG_DSIM)]
        for _ in range(20):
            n = int(rng.integers(3, 7))
            specs.append((random_delays(rng, n, 20), float(rng.uniform(0.98, 0.999)), None))
        zs = unit_circle_points(rng, 32)
        for delays, gamma, dsim in specs:
            design = design_homogeneous_siso(delays, gamma, dsim=dsim)
            general, _ = siso_completion(design.fdn.a, delays=design.fdn.delays)
            assert tf_max_diff(design.fdn, general, zs) < 1e-10
            # sign convention: positive direct gain, positive dominant
            # balanced input gain
            assert design.fdn.d[0, 0] > 0
            b_bal = design.fdn.b.ravel() / np.sqrt(design.dsim)
            assert b_bal[int(np.argmax(np.abs(b_bal)))] > 0

    @pytest.mark.parametrize(
        "delays, gamma",
        [
            ([4, 19, 22, 29], 0.9),
            ([6, 7, 21, 13, 24], 0.9),
            ([4, 8, 7, 18, 28, 21], 0.935),
            ([63, 143], 0.958),
            ([161, 143], 0.936),
        ],
    )
    def test_strongly_decaying_specs_design(self, delays, gamma):
        # strong decay: dsim spans five to eight decades, and the
        # completion must stay accurate relative to each node
        design = design_homogeneous_siso(delays, gamma)
        assert certify_uniallpass(design.fdn, design.dsim).verdict
        solved_moduli(design)
        assert is_allpass(design.fdn).allpass

    def test_nine_decade_spec_designs(self):
        # dsim spans nine decades; nodes scaled to a largest entry of 1 keep
        # the absolute certificate residual at rounding level
        design = design_homogeneous_siso([1009, 1151, 1277, 1361, 1453, 1583, 1693, 1787], 0.999)
        assert design.dsim.max() == 1.0
        assert certify_uniallpass(design.fdn, design.dsim).verdict
        assert is_allpass(design.fdn).allpass

    def test_unscaled_nodes_refused(self):
        # the same spec's nodes grown from d_1 = 1 reach 1.9e9, and the
        # absolute certificate residual refuses the design
        delays = [1009, 1151, 1277, 1361, 1453, 1583, 1693, 1787]
        decay = decay_gains(delays, 0.999)
        nodes = np.cumprod(np.concatenate([[1.0], 1.0 / (0.9 * decay[1:] ** 2)]))
        with pytest.raises(ConditioningError, match="certification") as exc:
            design_homogeneous_siso(delays, 0.999, dsim=nodes)
        assert exc.value.residual > 1e-8

    @pytest.mark.parametrize(
        "n, low, high, gamma",
        [(8, 1000, 1800, 0.999), (16, 500, 1800, 0.9995), (16, 1000, 1800, 0.999), (32, 300, 600, 0.9995)],
    )
    def test_audio_decay_specs_design(self, n, low, high, gamma, no_pole_solve):
        # orders 10995, 16014, 20929 and 14000, nodes spanning 9e6 to 3e17:
        # all were refused while the nodes grew from d_1 = 1
        delays = np.random.default_rng(3).integers(low, high, n)
        design = design_homogeneous_siso(delays, gamma)
        assert certify_uniallpass(design.fdn, design.dsim).verdict
        assert gamma - 1e-12 < design.pole_modulus_min <= design.pole_modulus_max < gamma + 1e-12
        if n <= 16:
            assert is_allpass(design.fdn).allpass

    def test_enclosure_holds_at_order_3000(self):
        # the companion eigensolve takes about 30 s at order 3000, twice the
        # whole suite; the Aberth solve alone checks the route here
        design = design_homogeneous_siso([347, 353, 359, 367, 373, 379, 383, 439], 0.9995)
        assert len(solved_moduli(design, companion=False)) == 3000

    @pytest.mark.parametrize(
        "delays, gamma",
        [
            ([1117, 1151, 1187, 1213, 1237, 1259, 1223, 1285], 0.9995),
            (
                [2201, 2241, 2006, 2242, 2140, 2154, 2189, 2085,
                 2293, 2016, 2083, 2115, 2171, 2122, 2039, 2013],
                0.99999,
            ),
        ],
    )
    def test_audio_orders_design_without_pole_solve(self, delays, gamma, no_pole_solve):
        # orders 9672 and 34110; the second is above the pole solver's order
        # budget, so only the proven bound can vouch for its poles
        design = design_homogeneous_siso(delays, gamma)
        assert certify_uniallpass(design.fdn, design.dsim).verdict
        assert gamma - 1e-13 < design.pole_modulus_min < gamma
        assert gamma < design.pole_modulus_max < gamma + 1e-13

    def test_bound_refuses_perturbed_unitary(self, monkeypatch):
        import uniallpass.homogeneous as homogeneous

        perturbed = []

        def scaled_column(d, dq):
            u = cauchy_unitary(d, dq).copy()
            u[:, 0] *= 1 + 1e-5
            perturbed.append(u)
            return u

        monkeypatch.setattr(homogeneous, "cauchy_unitary", scaled_column)
        with pytest.raises(ConditioningError, match="bound") as exc:
            design_homogeneous_siso([3, 7, 2], 0.9)
        (u,) = perturbed
        expected = 0.9 * np.linalg.norm(u @ u.T - np.eye(3), 2)
        assert exc.value.residual == pytest.approx(expected, rel=1e-6)
