import numpy as np
import pytest

from conftest import random_delays, tf_max_diff, unit_circle_points
from oracles import orthogonal_completion_eigh
from uniallpass import (
    CompletionError,
    FdnSystem,
    admissibility,
    apply_diagonal_similarity,
    certify_uniallpass,
    check_minor_condition,
    decay_gains,
    choose_dsim,
    cauchy_unitary,
    frequency_response,
    gardner_nested,
    is_allpass,
    orthogonal_completion,
    poletti_unitary,
    random_orthogonal,
    random_uniallpass,
    schroeder_series,
    select_rank1_roots,
    siso_completion,
)


class TestAdmissibility:
    def test_uniform_contraction_full_mimo(self):
        report = admissibility(0.6 * np.eye(4), 4)
        assert report.admissible_for(4)
        assert report.below == 4 and report.ones == 0
        assert report.min_io == 4

    def test_orthogonal_corner_single_channel(self, rng):
        big = random_orthogonal(6, rng)
        a = big[:5, :5]
        report = admissibility(a, 1)
        assert report.ones == 4 and report.below == 1
        assert report.admissible_for(1)
        assert report.min_io == 1

    def test_orthogonal_matrix_inadmissible_for_one(self, rng):
        report = admissibility(random_orthogonal(4, rng), 1)
        assert report.below == 0
        assert not report.admissible_for(1)

    def test_expansive_matrix_never_adds_up(self, rng):
        report = admissibility(1.5 * random_orthogonal(3, rng), 1)
        assert report.min_io is None


class TestOrthogonalCompletion:
    def test_first_order_section(self):
        g = 0.55
        fdn = orthogonal_completion(np.array([[g]]), 1)
        s = np.sqrt(1 - g * g)
        assert abs(abs(fdn.b[0, 0]) - s) < 1e-12
        assert abs(abs(fdn.c[0, 0]) - s) < 1e-12
        assert abs(abs(fdn.d[0, 0]) - g) < 1e-12
        assert certify_uniallpass(fdn, np.ones(1)).verdict

    def test_scaled_orthogonal_full_mimo(self, rng):
        u = random_orthogonal(3, rng)
        a = u @ np.diag([0.9, 0.8, 0.7])
        fdn = orthogonal_completion(a, 3)
        cert = certify_uniallpass(fdn, np.ones(3))
        assert cert.verdict and cert.residual < 1e-9
        for _ in range(3):
            delays = random_delays(rng, 3)
            assert is_allpass(fdn.with_delays(delays)).allpass

    def test_random_corners_certify(self, rng):
        for seed in range(20):
            n = int(np.random.default_rng(seed).integers(2, 6))
            p = 1 if seed % 2 else n
            big = random_orthogonal(n + p, np.random.default_rng(100 + seed))
            a = big[:n, :n]
            fdn = orthogonal_completion(a, p)
            assert certify_uniallpass(fdn, np.ones(n)).verdict

    def test_lattice_feedback_extends_beyond_lattice(self, rng):
        # the lattice construction and the orthogonal completion share the
        # feedback matrix -g U but realize distinct transfer functions, both
        # certified for arbitrary delays
        g = 0.7
        u = random_orthogonal(4, rng)
        lattice, dsim_lat = poletti_unitary(u, g, [2, 3, 5, 7])
        completed = orthogonal_completion(-g * u, 4, delays=[2, 3, 5, 7])
        assert certify_uniallpass(lattice, dsim_lat).verdict
        assert certify_uniallpass(completed, np.ones(4)).verdict
        zs = unit_circle_points(rng, 8)
        assert tf_max_diff(lattice, completed, zs) > 1e-2
        for fdn in (lattice, completed):
            delays = random_delays(rng, 4)
            assert is_allpass(fdn.with_delays(delays)).allpass

    def test_inadmissible_rejected(self, rng):
        a = random_orthogonal(3, rng) @ np.diag([0.9, 0.8, 0.7])
        with pytest.raises(CompletionError):
            orthogonal_completion(a, 1)

    def test_single_channel_dilation_matches_eigh_oracle(self, rng):
        # a P = 1 completion is unique up to the signs of b and c, so the
        # SVD dilation and the eigen-factor completion agree up to the sign
        # of H: on random corners and on balanced homogeneous feedback
        corners = []
        for seed in range(20):
            gen = np.random.default_rng(200 + seed)
            n = int(gen.integers(2, 7))
            corners.append(random_orthogonal(n + 1, gen)[:n, :n])
        for seed in range(10):
            gen = np.random.default_rng(300 + seed)
            n = int(gen.integers(2, 7))
            decay = decay_gains(random_delays(gen, n, 12), float(gen.uniform(0.9, 0.99)))
            nodes = choose_dsim(decay)
            t = np.sqrt(nodes)
            a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
            corners.append((a * t[None, :]) / t[:, None])
        zs = unit_circle_points(rng, 16)
        for a in corners:
            delays = random_delays(rng, a.shape[0], 8)
            fdn = orthogonal_completion(a, 1, delays=delays)
            reference = FdnSystem(a, *orthogonal_completion_eigh(a, 1), delays)
            h = frequency_response(fdn, zs)
            h_ref = frequency_response(reference, zs)
            err = min(float(np.max(np.abs(h - s * h_ref))) for s in (1.0, -1.0))
            assert err < 1e-9

    def test_multichannel_dilations_certify(self, rng):
        for seed in range(10):
            gen = np.random.default_rng(400 + seed)
            n = int(gen.integers(2, 6))
            p = int(gen.integers(2, n + 1))
            a = random_orthogonal(n + p, gen)[:n, :n]
            delays = random_delays(gen, n, 8)
            fdn = orthogonal_completion(a, p, delays=delays)
            assert certify_uniallpass(fdn, np.ones(n)).verdict
            assert is_allpass(fdn).allpass
            reference = FdnSystem(a, *orthogonal_completion_eigh(a, p), delays)
            assert certify_uniallpass(reference, np.ones(n)).verdict


class TestSisoCompletion:
    def test_first_order(self):
        g = 0.5
        fdn, trace = siso_completion(np.array([[g]]))
        assert abs(trace.d) == pytest.approx(g)
        rep = is_allpass(fdn)
        assert rep.allpass

    def test_series_chain_equivalence(self, rng):
        gains = [0.3, 0.5, 0.7]
        delays = [3, 1, 4]
        reference, _ = schroeder_series(gains, delays)
        fdn, trace = siso_completion(reference.a, delays=delays)
        assert certify_uniallpass(fdn, trace.dsim).verdict
        zs = unit_circle_points(rng, 16)
        assert tf_max_diff(reference, fdn, zs) < 1e-9

    def test_homogeneous_feedback_matrix(self, rng):
        decay = decay_gains([3, 1, 5, 2], 0.95)
        nodes = choose_dsim(decay)
        a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
        fdn, trace = siso_completion(a, delays=[3, 1, 5, 2])
        assert certify_uniallpass(fdn, trace.dsim).verdict
        assert check_minor_condition(fdn).verdict

    def test_direct_gain_is_determinant(self, rng):
        decay = decay_gains([2, 4, 3], 0.9)
        nodes = choose_dsim(decay)
        a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
        fdn, trace = siso_completion(a)
        assert abs(trace.d) == pytest.approx(abs(np.linalg.det(a)), rel=1e-10)

    def test_generic_interior_singular_values_rejected(self, rng):
        # two or more singular values strictly inside (0, 1) admit no
        # single-channel completion for a generic matrix
        for seed in range(5):
            gen = np.random.default_rng(seed)
            a = (
                random_orthogonal(3, gen)
                @ np.diag(gen.uniform(0.4, 0.95, 3))
                @ random_orthogonal(3, gen)
            )
            with pytest.raises(CompletionError):
                siso_completion(a)

    def test_singular_matrix_rejected(self):
        with pytest.raises(CompletionError):
            siso_completion(np.zeros((2, 2)))

    def test_zero_row_solution_rejected(self):
        # the nested chain's input gain is zero on all lines but one, so the
        # rank-1 solution has zero rows that fix no similarity entry; this
        # is a typed refusal, not a 0/0
        fdn, _ = gardner_nested([0.3, 0.4, 0.5, 0.6], [1, 1, 1, 1])
        with pytest.raises(CompletionError, match="zero row"):
            siso_completion(fdn.a)

    def test_sign_of_direct_gain_is_a_gauge(self, rng):
        # negating d negates every quadratic root, hence X, and leaves dsim
        # unchanged; the completion with d = -|det A| is the returned one
        # with (c, d) negated, which certifies with the same residual
        delays = [3, 1, 5, 2]
        decay = decay_gains(delays, 0.95)
        nodes = choose_dsim(decay)
        a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
        fdn, trace = siso_completion(a, delays=delays)
        assert np.max(trace.dsim) == 1.0
        a_inv = np.linalg.inv(a)
        d = -trace.d
        x = select_rank1_roots(
            a_inv,
            -d * (a * a.T - a_inv * a_inv.T - np.outer(trace.a_gap, trace.a_gap)),
            a_inv.T * d * d * np.outer(trace.a_gap, trace.a_gap),
            d * trace.a_gap,
        )
        np.testing.assert_allclose(x, -trace.x, rtol=1e-12, atol=0)
        flipped = FdnSystem.siso(a, fdn.b.ravel(), -fdn.c.ravel(), -fdn.d[0, 0], delays)
        residual = certify_uniallpass(fdn, trace.dsim).residual
        assert certify_uniallpass(flipped, trace.dsim).residual == residual
        zs = unit_circle_points(rng, 16)
        np.testing.assert_array_equal(frequency_response(flipped, zs), -frequency_response(fdn, zs))

    def test_decoupled_matrix_rejected(self):
        # two uncoupled lines force a diagonal, hence rank-2, solution matrix
        with pytest.raises(CompletionError):
            siso_completion(np.diag([0.5, 0.4]))

    def test_completions_are_transfer_unique(self, rng):
        # two successful completions of one matrix realize the same response:
        # the per-entry one and the eigen-factor oracle's, on the same dsim
        decay = decay_gains([2, 3, 1], 0.9)
        nodes = choose_dsim(decay, slack=0.8)
        a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
        fdn1, trace = siso_completion(a, delays=[2, 3, 1])
        balanced_a = (a * np.sqrt(trace.dsim)[None, :]) / np.sqrt(trace.dsim)[:, None]
        b2, c2, d2 = orthogonal_completion_eigh(balanced_a, 1)
        b2, c2, d2 = b2.ravel(), c2.ravel(), d2[0, 0]
        if d2 * trace.d < 0:
            c2, d2 = -c2, -d2
        fdn2 = apply_diagonal_similarity(
            FdnSystem.siso(balanced_a, b2, c2, d2, [2, 3, 1]), 1.0 / np.sqrt(trace.dsim)
        )
        zs = unit_circle_points(rng, 16)
        assert tf_max_diff(fdn1, fdn2, zs) < 1e-9


class TestSelectRank1Roots:
    def test_forward_constructed_system(self, rng):
        # build quadratics from a known certified completion and recover X
        gains = [0.35, 0.55, 0.75]
        reference, dsim = schroeder_series(gains, [1, 1, 1])
        a = reference.a
        # make the matrix fully connected by a random similarity-of-basis trick:
        # use the homogeneous construction instead
        decay = decay_gains([2, 1, 3], 0.92)
        nodes = choose_dsim(decay)
        a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
        fdn, trace = siso_completion(a)
        a_inv = np.linalg.inv(a)
        a_gap = np.diag(a) - np.diag(a_inv)
        d = trace.d
        rhs = d * (a * a.T - a_inv * a_inv.T - np.outer(a_gap, a_gap))
        x = select_rank1_roots(
            a_inv, -rhs, a_inv.T * d * d * np.outer(a_gap, a_gap), d * a_gap
        )
        # recovery up to the scalar split: compare projectively
        ratio = x / trace.x
        assert np.max(np.abs(ratio - 1.0)) < 1e-8

    def test_single_entry(self):
        x = select_rank1_roots(
            np.array([[2.0]]), np.array([[-6.0]]), np.array([[4.5]]), np.array([1.5])
        )
        assert x[0, 0] == pytest.approx(1.5)


class TestRandomUniallpass:
    def test_determinism(self):
        f1 = random_uniallpass(4, 1, seed=7)
        f2 = random_uniallpass(4, 1, seed=7)
        np.testing.assert_array_equal(f1.a, f2.a)
        np.testing.assert_array_equal(f1.b, f2.b)
        np.testing.assert_array_equal(f1.c, f2.c)
        np.testing.assert_array_equal(f1.d, f2.d)

    def test_certifies_for_any_seed(self, rng):
        for seed in range(8):
            n, p = int(rng.integers(1, 6)), int(rng.integers(1, 3))
            fdn = random_uniallpass(n, p, seed=seed)
            assert certify_uniallpass(fdn, np.ones(n)).verdict

    def test_scaling_preserves_transfer(self, rng):
        plain = random_uniallpass(4, 2, seed=9, delays=[2, 5, 3, 1])
        scaled = random_uniallpass(4, 2, seed=9, scaled=True, delays=[2, 5, 3, 1])
        zs = unit_circle_points(rng, 16)
        assert tf_max_diff(plain, scaled, zs) < 1e-9


class TestFiedlerCount:
    def test_corner_unit_singular_values(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n + 1))
            big = random_orthogonal(n + p, rng)
            sv = np.linalg.svd(big[:n, :n], compute_uv=False)
            assert int(np.sum(np.abs(sv - 1.0) <= 1e-9)) == n - p
            assert int(np.sum(sv < 1.0 - 1e-9)) == p
