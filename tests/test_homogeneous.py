import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fixture_values as fv
from conftest import random_delays, tf_max_diff, unit_circle_points
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
    poles,
    schroeder_series,
    siso_completion,
    validate_interleaving,
)


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
        moduli = np.abs(poles(design.fdn))
        assert len(moduli) == 54
        np.testing.assert_allclose(moduli, fv.HOMOG_GAMMA, atol=1e-6)

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
            moduli = np.abs(poles(design.fdn))
            np.testing.assert_allclose(moduli, 0.97, atol=1e-6)
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
        from uniallpass import balanced_form, dsim_from_lyapunov

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
            np.testing.assert_allclose(np.abs(poles(design.fdn)), 0.95, atol=1e-6)
            assert is_allpass(design.fdn).allpass

    def test_pole_count_matches_order(self):
        design = design_homogeneous_siso([2, 5], 0.8)
        assert len(poles(design.fdn)) == DelayVector([2, 5]).system_order

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
        np.testing.assert_allclose(np.abs(poles(design.fdn)), gamma, atol=1e-6)
        assert is_allpass(design.fdn).allpass

    def test_ill_conditioned_spec_refused(self):
        # dsim spans nine decades, so the absolute certificate residual
        # (about 9e-7) refuses the design before any pole solve
        with pytest.raises(ConditioningError, match="certification") as exc:
            design_homogeneous_siso([1009, 1151, 1277, 1361, 1453, 1583, 1693, 1787], 0.999)
        assert exc.value.residual > 1e-8

    def test_pole_check_failure_raises(self, monkeypatch):
        import uniallpass.homogeneous as homogeneous

        monkeypatch.setattr(homogeneous, "poles", lambda fdn: 1.001 * poles(fdn))
        with pytest.raises(ConditioningError) as exc:
            design_homogeneous_siso([3, 7, 2], 0.9)
        assert exc.value.residual == pytest.approx(0.0009, rel=1e-6)
