import numpy as np
import pytest

from conftest import random_delays, tf_max_diff, unit_circle_points
from oracles import orthogonal_completion_eigh
from uniallpass import (
    CompletionError,
    FdnSystem,
    SystemMatrix,
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
    siso_completion,
)
from uniallpass.complete import _census, _complete_balanced
from uniallpass.core import DEFAULT_TOL


def _tf_diff_up_to_sign(f1, f2, zs):
    negated = FdnSystem(f2.a, f2.b, -f2.c, -f2.d, f2.delays)
    return min(tf_max_diff(f1, f2, zs), tf_max_diff(f1, negated, zs))


class TestAdmissibility:
    def test_uniform_contraction_full_mimo(self):
        report = _census(0.6 * np.eye(4), 4)[0]
        assert report.admissible_for(4)
        assert report.below == 4 and report.ones == 0
        assert report.min_io == 4

    def test_orthogonal_corner_single_channel(self, rng):
        big = random_orthogonal(6, rng)
        a = big[:5, :5]
        report = _census(a, 1)[0]
        assert report.ones == 4 and report.below == 1
        assert report.admissible_for(1)
        assert report.min_io == 1

    def test_orthogonal_matrix_inadmissible_for_one(self, rng):
        report = _census(random_orthogonal(4, rng), 1)[0]
        assert report.below == 0
        assert not report.admissible_for(1)

    def test_expansive_matrix_never_adds_up(self, rng):
        report = _census(1.5 * random_orthogonal(3, rng), 1)[0]
        assert report.min_io is None


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
def test_non_square_matrix_refused(shape):
    a = np.full(shape, 0.1)
    with pytest.raises(ValueError, match=r"must be square, got shape"):
        orthogonal_completion(a, 1)
    with pytest.raises(ValueError, match=r"must be square, got shape"):
        siso_completion(a)


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

    def test_nested_chain_completes(self, rng):
        # the nested chain's input gain is zero on all lines but one; that
        # only zeroes columns of the rank-one pencil matrix K(dsim)
        gains, delays = [0.3, 0.4, 0.5, 0.6], [1, 2, 3, 4]
        reference, _ = gardner_nested(gains, delays)
        fdn, trace = siso_completion(reference.a, delays=delays)
        assert certify_uniallpass(fdn, trace.dsim).verdict
        zs = unit_circle_points(rng, 16)
        assert _tf_diff_up_to_sign(reference, fdn, zs) < 1e-8

    def test_sign_of_direct_gain_is_a_gauge(self, rng):
        # dsim does not depend on the sign of d: the completion with
        # d = -|det A| is the returned one with (c, d) negated, which
        # certifies with the same residual
        delays = [3, 1, 5, 2]
        decay = decay_gains(delays, 0.95)
        nodes = choose_dsim(decay)
        a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
        fdn, trace = siso_completion(a, delays=delays)
        assert np.max(trace.dsim) == 1.0
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


class TestPencilCompletion:
    def test_paper_chains_complete_with_constructor_response(self, rng):
        # Schroeder's series and Gardner's nested chains, N 2-6, plus nested
        # chains of twelve lines: each completes to its constructor's H
        gen = np.random.default_rng(7)
        zs = unit_circle_points(rng, 8)
        sizes = [int(n) for n in gen.integers(2, 7, 24)] + [12] * 4
        for i, n in enumerate(sizes):
            build = gardner_nested if i % 2 or n == 12 else schroeder_series
            delays = random_delays(gen, n, 6)
            reference, _ = build(gen.uniform(-0.9, 0.9, n), delays)
            fdn, trace = siso_completion(reference.a, delays=delays)
            assert certify_uniallpass(fdn, trace.dsim).verdict
            assert _tf_diff_up_to_sign(reference, fdn, zs) < 1e-8, (build.__name__, n)

    def test_hidden_similarity_recovered(self):
        # a scaled random system hides dsim = 1 / t^2 behind its similarity;
        # beyond two lines the certifying dsim is unique and comes back to
        # rounding
        for n in [1, *range(3, 17)]:
            for seed in range(3):
                gen = np.random.default_rng(seed)
                plain = SystemMatrix(random_orthogonal(n + 1, gen), n).to_fdn([1] * n)
                t = np.exp(gen.uniform(-1.0, 1.0, n))
                scaled = apply_diagonal_similarity(plain, t)
                _, trace = siso_completion(scaled.a)
                expected = 1.0 / t**2
                expected /= np.max(expected)
                np.testing.assert_allclose(trace.dsim, expected, rtol=1e-10, atol=0)

    def test_wide_node_span_recovered(self):
        # acceptance seed 20030: N = 6 with nodes spanning 7.8 decades, which
        # needs the balanced refinement to reach the smallest entry
        gen = np.random.default_rng(20_030)
        n = int(gen.integers(2, 7))
        delays = random_delays(gen, n, 12)
        gamma = float(gen.uniform(0.8, 0.99))
        decay = decay_gains(delays, gamma)
        nodes = choose_dsim(decay, slack=float(gen.uniform(0.6, 0.95)))
        a = cauchy_unitary(nodes, decay**2 * nodes) * decay[None, :]
        assert n == 6 and np.log10(np.max(nodes) / np.min(nodes)) > 7.5
        _, trace = siso_completion(a, delays=delays)
        np.testing.assert_allclose(trace.dsim, nodes / np.max(nodes), rtol=1e-10, atol=0)

    def test_spurious_eigenvector_refused_by_certificate(self):
        # the pencil also has the eigenvector (0, 1, 0.615) of the chain with
        # its first line cut off; with a rounding-level positive first entry
        # (3.9e-15 on the A^-1 pencil) it is a candidate, its completion
        # fails the certificate, and the chain's own dsim is returned
        gains, delays = [0.786, -0.621, 0.026], [3, 1, 2]
        reference, dsim = schroeder_series(gains, delays)
        spurious = np.array([3.9e-15, 1.0, 0.614774588])
        assert not _complete_balanced(reference.a, spurious, delays, DEFAULT_TOL)[1].verdict
        _, trace = siso_completion(reference.a, delays=delays)
        np.testing.assert_allclose(trace.dsim, dsim / np.max(dsim), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n", [24, 32, 48, 64])
    def test_long_series_chains_complete(self, rng, n):
        # a chain's direct gain is the product of its gains, 6e-20 to 5e-6
        # here; the pencil forms no inverse of A, so no determinant threshold
        # refuses the long chains, and each completion keeps its
        # constructor's H
        zs = unit_circle_points(rng, 8)
        for seed in range(10):
            gen = np.random.default_rng([n, seed])
            gains = gen.uniform(0.3, 0.8, n) * gen.choice([-1, 1], n)
            delays = gen.integers(300, 700, n)
            reference, _ = schroeder_series(gains, delays)
            fdn, trace = siso_completion(reference.a, delays=delays)
            assert certify_uniallpass(fdn, trace.dsim).verdict
            assert _tf_diff_up_to_sign(reference, fdn, zs) < 1e-8, (n, seed)

    @pytest.mark.parametrize("gains", [[0.0, 0.5], [0.5, 0.0, -0.4]])
    def test_zero_gain_chains_complete(self, gains):
        # a zero-gain section makes A singular; its completion has d = 0
        reference, dsim = schroeder_series(gains, [4, 3, 2][: len(gains)])
        fdn, trace = siso_completion(reference.a, delays=reference.delays)
        assert trace.d == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(trace.dsim, dsim / np.max(dsim), rtol=1e-10, atol=0)
        assert is_allpass(fdn).allpass

    def test_tiny_gain_chain_completes(self, rng):
        # a section gain of 1e-8 leaves the last line an input gain of
        # 1.5e-9 and d = 9e-10; the completion still certifies
        gains, delays = [0.3, -0.5, 1e-8, 0.6], [3, 1, 4, 2]
        reference, _ = schroeder_series(gains, delays)
        fdn, trace = siso_completion(reference.a, delays=delays)
        assert certify_uniallpass(fdn, trace.dsim).verdict
        assert _tf_diff_up_to_sign(reference, fdn, unit_circle_points(rng, 8)) < 1e-8

    def test_no_inverse_formed(self, monkeypatch):
        def no_inverse(*args, **kwargs):
            raise AssertionError("np.linalg.inv called")

        monkeypatch.setattr(np.linalg, "inv", no_inverse)
        reference, _ = gardner_nested([0.3, -0.5, 0.7, 0.2], [3, 5, 7, 2])
        fdn, trace = siso_completion(reference.a, delays=[3, 5, 7, 2])
        assert certify_uniallpass(fdn, trace.dsim).verdict


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
