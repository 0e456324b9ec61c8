import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fixture_values as fv
from conftest import random_delays, random_stable_fdn, tf_max_diff, unit_circle_points
from oracles import balanced_form, balanced_residuals, lyapunov_gram
from uniallpass import (
    FdnError,
    FdnSystem,
    NotCertifiableError,
    SystemMatrix,
    UnstableError,
    apply_diagonal_similarity,
    certify_uniallpass,
    check_minor_condition,
    delay_dependent_allpass,
    design_homogeneous_siso,
    dsim_from_hadamard_quotient,
    dsim_from_lyapunov,
    gardner_nested,
    is_allpass,
    poletti_unitary,
    principal_minor_list,
    random_orthogonal,
    random_uniallpass,
    schroeder_series,
    schur_complements,
)
from uniallpass import verify
from uniallpass.complete import _complete_balanced


class TestSchurComplements:
    def test_no_coupling(self, rng):
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        fdn = FdnSystem(a, np.zeros((3, 1)), np.zeros((1, 3)), np.eye(1), [1, 1, 1])
        pair = schur_complements(fdn)
        np.testing.assert_allclose(pair.s_d, a)
        np.testing.assert_allclose(pair.s_a, np.eye(1))

    def test_counterexample_minor_list(self):
        pair = schur_complements(delay_dependent_allpass())
        _, values = principal_minor_list(pair.s_d)
        np.testing.assert_allclose(values, fv.CE_MINORS_SCHUR, atol=fv.MINOR_TOL)

    def test_inverse_identity(self, rng):
        # S_D^-1 = A^-1 + A^-1 B S_A^-1 C A^-1 whenever the blocks invert
        for _ in range(10):
            n, p = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            a = rng.standard_normal((n, n)) + 3 * np.eye(n)
            b = rng.standard_normal((n, p))
            c = rng.standard_normal((p, n))
            d = rng.standard_normal((p, p)) + 3 * np.eye(p)
            fdn = FdnSystem(a, b, c, d, [1] * n)
            pair = schur_complements(fdn)
            a_inv = np.linalg.inv(a)
            rhs = a_inv + a_inv @ b @ np.linalg.inv(pair.s_a) @ c @ a_inv
            np.testing.assert_allclose(np.linalg.inv(pair.s_d), rhs, atol=1e-9)

    def test_singular_block_named(self):
        fdn = FdnSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), [1, 1])
        with pytest.raises(np.linalg.LinAlgError, match="direct-gain block"):
            schur_complements(fdn)


class TestDiagonalSimilarity:
    def test_identity_transform(self, rng):
        fdn = random_stable_fdn(rng)
        image = apply_diagonal_similarity(fdn, np.ones(3))
        np.testing.assert_allclose(image.a, fdn.a)
        np.testing.assert_allclose(image.b, fdn.b)
        np.testing.assert_allclose(image.c, fdn.c)

    def test_transfer_invariance(self, rng):
        for _ in range(8):
            fdn = random_stable_fdn(rng, n=int(rng.integers(2, 5)), p=int(rng.integers(1, 3)))
            t = np.exp(rng.uniform(-1.5, 1.5, fdn.n_delays)) * rng.choice([-1.0, 1.0], fdn.n_delays)
            image = apply_diagonal_similarity(fdn, t)
            zs = unit_circle_points(rng, 16)
            assert tf_max_diff(fdn, image, zs) < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        exponents=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        seed=st.integers(0, 2**31),
    )
    def test_transfer_invariance_property(self, exponents, seed):
        rng = np.random.default_rng(seed)
        fdn = random_stable_fdn(rng, n=3)
        image = apply_diagonal_similarity(fdn, np.exp(np.asarray(exponents)))
        zs = unit_circle_points(rng, 8)
        assert tf_max_diff(fdn, image, zs) < 1e-9

    def test_zero_entry_rejected(self, rng):
        with pytest.raises(ValueError):
            apply_diagonal_similarity(random_stable_fdn(rng), [1.0, 0.0, 1.0])

    def test_balanced_identities_for_scaled_chain(self):
        fdn, dsim = schroeder_series([0.4, 0.6], [2, 3])
        balanced = balanced_form(fdn, dsim)
        assert max(balanced_residuals(balanced)) < 1e-12

    def test_already_balanced_unchanged(self):
        fdn = random_uniallpass(3, 1, seed=4)
        image = balanced_form(fdn, np.ones(3))
        np.testing.assert_allclose(image.a, fdn.a)
        np.testing.assert_allclose(image.b, fdn.b)
        np.testing.assert_allclose(image.c, fdn.c)

    def test_positive_dsim_required(self):
        fdn = random_uniallpass(3, 1, seed=4)
        with pytest.raises(ValueError):
            balanced_form(fdn, [1.0, -1.0, 1.0])


class TestLyapunovRoute:
    def test_zero_feedback(self):
        assert np.allclose(dsim_from_lyapunov(np.zeros((2, 2)), np.eye(2)), np.ones(2))

    def test_series_chain_formula(self):
        g = fv.CLASSIC_GAINS
        fdn, _ = schroeder_series(g, [1] * 6)
        np.testing.assert_allclose(
            dsim_from_lyapunov(fdn.a, fdn.b), 1.0 / (1.0 - g**2), atol=1e-12
        )

    def test_unitary_lattice_scalar(self, rng):
        g = 0.7
        fdn, stated = poletti_unitary(random_orthogonal(4, rng), g, [1, 2, 3, 4])
        gram = lyapunov_gram(fdn.a, fdn.b)
        expected = ((1.0 + g) / np.sqrt(1.0 - g * g)) ** 2
        np.testing.assert_allclose(gram, expected * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(stated, expected, atol=1e-12)

    def test_counterexample_not_certifiable(self):
        fdn = delay_dependent_allpass()
        with pytest.raises(NotCertifiableError) as err:
            dsim_from_lyapunov(fdn.a, fdn.b)
        candidate = err.value.candidate
        assert candidate is not None
        assert not certify_uniallpass(fdn, candidate).verdict

    def test_unstable_rejected(self):
        with pytest.raises(UnstableError):
            lyapunov_gram(2.0 * np.eye(2), np.eye(2))
        with pytest.raises(NotCertifiableError, match="nonpositive"):
            dsim_from_lyapunov(2.0 * np.eye(2), np.eye(2))

    def test_nonpositive_solution_rejected(self):
        # the second line is never reached: its diagonal entry solves to 0
        with pytest.raises(NotCertifiableError, match="nonpositive") as err:
            dsim_from_lyapunov(np.diag([0.5, 0.5]), [[1.0], [0.0]])
        np.testing.assert_allclose(err.value.candidate, [4.0 / 3.0, 0.0], atol=1e-15)

    def test_singular_stein_diagonal_rejected(self):
        with pytest.raises(NotCertifiableError, match="singular") as err:
            dsim_from_lyapunov([[1.0]], [[1.0]])
        assert err.value.candidate is None

    def test_matches_full_gram_oracle(self, rng):
        # the N x N diagonal solve against the N^2 x N^2 Kronecker solve on
        # 60 seeded certified systems of every family
        systems = []
        for seed in range(45):
            n, p = 1 + seed % 12, 1 + seed % 3
            systems.append(random_uniallpass(n, p, seed=100 + seed, scaled=True))
        for n in range(1, 6):
            gains = rng.uniform(-0.9, 0.9, n)
            systems.append(schroeder_series(gains, [1] * n)[0])
            systems.append(gardner_nested(gains, [1] * n)[0])
            systems.append(poletti_unitary(random_orthogonal(n, rng), float(gains[0]), [1] * n)[0])
        for fdn in systems:
            np.testing.assert_allclose(
                dsim_from_lyapunov(fdn.a, fdn.b), np.diag(lyapunov_gram(fdn.a, fdn.b)), rtol=1e-9, atol=0
            )


class TestHadamardRoute:
    def test_balanced_quotient_is_all_ones(self, rng):
        fdn = random_uniallpass(4, 1, seed=3)
        sys = SystemMatrix.from_fdn(fdn)
        a, b, c, d = sys.blocks
        s_inv = np.linalg.inv(a - b @ np.linalg.inv(d) @ c)
        np.testing.assert_allclose(s_inv / a.T, np.ones((4, 4)), atol=1e-9)
        np.testing.assert_allclose(dsim_from_hadamard_quotient(sys), np.ones(4), atol=1e-8)

    def test_round_trip_recovery(self, rng):
        for seed in range(5):
            fdn = random_uniallpass(5, 1, seed=seed)
            t = np.exp(rng.uniform(-1.0, 1.0, 5))
            scaled = apply_diagonal_similarity(fdn, t)
            recovered = dsim_from_hadamard_quotient(SystemMatrix.from_fdn(scaled))
            target = t**-2
            ratio = recovered / target
            assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-8

    def test_agreement_with_lyapunov(self, rng):
        fdn, _ = schroeder_series([0.3, 0.5, 0.7], [1, 1, 1])
        lyap = dsim_from_lyapunov(fdn.a, fdn.b)
        hada = dsim_from_hadamard_quotient(SystemMatrix.from_fdn(fdn))
        ratio = lyap / hada
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-9

    def test_triangular_pattern_supported(self):
        # coincident zero patterns are fine; the chain's triangular feedback
        # still determines all scale ratios through the upper-triangle graph
        fdn, _ = schroeder_series([0.25, 0.5, 0.75], [1, 1, 1])
        recovered = dsim_from_hadamard_quotient(SystemMatrix.from_fdn(fdn))
        assert np.all(recovered > 0)

    def test_pattern_mismatch_rejected(self):
        # zeroing one feedback entry of a certified system leaves a nonzero
        # Schur-inverse entry facing a structural zero
        fdn = random_uniallpass(4, 1, seed=2)
        a = fdn.a.copy()
        a[2, 1] = 0.0
        broken = FdnSystem(a, fdn.b, fdn.c, fdn.d, fdn.delays)
        with pytest.raises(NotCertifiableError, match="sparsity|consistent"):
            dsim_from_hadamard_quotient(SystemMatrix.from_fdn(broken))

    def test_only_d_and_the_schur_complement_are_inverted(self, monkeypatch):
        fdn = random_uniallpass(5, 2, seed=4)
        inverted = []
        inv = np.linalg.inv

        def recording(x):
            inverted.append(np.array(x))
            return inv(x)

        monkeypatch.setattr(np.linalg, "inv", recording)
        dsim_from_hadamard_quotient(SystemMatrix.from_fdn(fdn))
        monkeypatch.undo()
        assert len(inverted) == 2
        np.testing.assert_array_equal(inverted[0], fdn.d)
        np.testing.assert_array_equal(inverted[1], schur_complements(fdn).s_d)

    def test_singular_direct_gain_named(self):
        fdn = FdnSystem(np.eye(2) * 0.5, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), [1, 1])
        with pytest.raises(np.linalg.LinAlgError, match="direct-gain block D is singular"):
            dsim_from_hadamard_quotient(SystemMatrix.from_fdn(fdn))

    def test_inconsistent_system_rejected(self):
        with pytest.raises(NotCertifiableError):
            dsim_from_hadamard_quotient(SystemMatrix.from_fdn(delay_dependent_allpass()))

    def test_disconnected_pattern_rejected(self):
        # an identity mixing matrix leaves three uncoupled lines
        fdn, _ = poletti_unitary(np.eye(3), 0.5, [1, 2, 3])
        with pytest.raises(NotCertifiableError, match="disconnected"):
            dsim_from_hadamard_quotient(SystemMatrix.from_fdn(fdn))


class TestCertificate:
    def test_orthogonal_block_matrix(self, rng):
        for seed in range(5):
            n, p = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            fdn = random_uniallpass(n, p, seed=seed)
            cert = certify_uniallpass(fdn, np.ones(n))
            assert cert.verdict and cert.residual < 1e-12

    def test_counterexample_candidate_fails(self):
        fdn = delay_dependent_allpass()
        candidate = np.diag(lyapunov_gram(fdn.a, fdn.b))
        assert not certify_uniallpass(fdn, candidate).verdict

    def test_negative_dsim_fails_even_with_zero_residual(self):
        fdn = random_uniallpass(3, 1, seed=1)
        cert = certify_uniallpass(fdn, -np.ones(3))
        assert not cert.verdict

    def test_zero_dsim_entry_fails_even_with_small_residual(self):
        # a line that no gain reaches has an all-zero row in U, so a zero
        # dsim entry on it leaves the residual at rounding level
        inner = random_uniallpass(2, 1, seed=3)
        u = np.zeros((4, 4))
        u[1:, 1:] = SystemMatrix.from_fdn(inner).u
        u[1:, 0] = [0.5, -0.2, 0.7]
        fdn = FdnSystem(u[:3, :3], u[:3, 3:], u[3:, :3], u[3:, 3:], [4, 2, 3])
        cert = certify_uniallpass(fdn, [0.0, 1.0, 1.0])
        assert cert.residual < 1e-12
        assert not cert.verdict

    def test_tiny_dsim_entry_seen_by_balanced_residual(self):
        # a spurious similarity with a 1e-17 entry damps that line out of the
        # absolute residual; the balanced residual refuses it
        reference, _ = schroeder_series([0.786, -0.621, 0.026], [3, 1, 2])
        dsim = [7.54754241e-17, 1.0, 0.614774588]
        fdn, cert = _complete_balanced(reference.a, dsim, [3, 1, 2], 1e-8)
        assert cert.residual < 1e-9
        assert cert.balanced_residual > 0.1
        assert not cert.verdict
        assert check_minor_condition(fdn).deviation > 1.0
        assert not is_allpass(fdn).allpass

    def test_expansive_feedback_never_certifies(self, rng):
        # U W U^T = W with positive W gives A D A^T <= D, a spectral radius of
        # at most one, so no positive scaling certifies a radius of 1.5
        a = rng.standard_normal((3, 3))
        a *= 1.5 / np.max(np.abs(np.linalg.eigvals(a)))
        fdn = FdnSystem(a, rng.standard_normal((3, 1)), rng.standard_normal((1, 3)), [[0.3]], [1, 2, 3])
        for _ in range(5):
            assert not certify_uniallpass(fdn, np.exp(rng.uniform(-1, 1, 3))).verdict

    def test_wrong_length_dsim_named(self):
        # numpy used to fail on the weight broadcast, naming neither length
        fdn, _ = schroeder_series([0.5, -0.6, 0.7], [3, 5, 7])
        with pytest.raises(ValueError, match="dsim has length 2, expected 3"):
            certify_uniallpass(fdn, [1.0, 2.0])


class TestMinorCondition:
    def test_counterexample(self):
        check = check_minor_condition(delay_dependent_allpass(), tol=0.05)
        assert not check.verdict
        assert check.sufficient  # single channel: condition is two-sided
        # differing subsets sit at ordered-list positions 1, 2, 5, 6
        diffs = np.abs(fv.CE_MINORS_A_INV - fv.CE_MINORS_SCHUR)
        assert set(np.nonzero(diffs > 0.05)[0]) == {1, 2, 5, 6}
        worst_mask = sum(1 << i for i in check.worst_subset)
        assert worst_mask in (0b010, 0b100, 0b101, 0b110)
        # no certificate, so no witness: the deviation is absolute
        assert check.route == "sweep" and check.scale == 1.0

    def test_no_coupling_generic_failure(self, rng):
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        fdn = FdnSystem(a, np.zeros((3, 1)), np.zeros((1, 3)), np.eye(1), [1, 1, 1])
        assert not check_minor_condition(fdn).verdict

    def test_certified_system_passes(self):
        fdn = random_uniallpass(4, 1, seed=11)
        check = check_minor_condition(fdn)
        assert check.verdict and check.deviation < 1e-10
        assert check.route == "witness" and check.sign == 1 and check.worst_subset == ()

    def test_witness_and_sweep_agree(self, rng, monkeypatch):
        # certified systems take the witness, perturbed ones the sweep; the
        # sweep alone reaches the same verdict on every one
        systems = [
            schroeder_series(fv.CLASSIC_GAINS, [1] * 6)[0],
            gardner_nested([0.3, -0.5, 0.7], [3, 5, 7])[0],
            poletti_unitary(random_orthogonal(4, rng), 0.7, [1, 2, 3, 4])[0],
        ]
        for seed in range(24):
            n = 1 + seed % 12
            p = 1 if seed % 2 == 0 else int(rng.integers(1, n + 1))
            systems.append(random_uniallpass(n, p, seed=seed, scaled=bool(seed % 3), delays=[1] * n))
        perturbed = [
            FdnSystem(f.a + 1e-3 * rng.standard_normal(f.a.shape), f.b, f.c, f.d, f.delays)
            for f in systems[::2]
        ]
        checks = [check_minor_condition(f) for f in systems + perturbed]
        assert [c.route for c in checks] == ["witness"] * len(systems) + ["sweep"] * len(perturbed)
        assert all(c.verdict for c in checks[: len(systems)])
        assert not any(c.verdict for c in checks[len(systems) :])
        monkeypatch.setattr(verify, "_minor_witness", lambda *args: None)
        swept = [check_minor_condition(f) for f in systems + perturbed]
        assert [c.verdict for c in swept] == [c.verdict for c in checks]
        assert all(c.route == "sweep" for c in swept)

    def test_loose_tol_keeps_witness_premise(self, rng, monkeypatch):
        # at tol = 0.05 a system perturbed by 1e-2 still certifies, but its
        # minors differ by up to several units: the witness premise stays at
        # DEFAULT_TOL, so it takes the sweep, and both routes agree
        systems = [
            random_uniallpass(n, 1 + n % 3, seed=n, scaled=bool(n % 2), delays=[1] * n) for n in range(1, 13)
        ]
        perturbed = []
        for amp in (1e-10, 1e-2):
            for f in systems:
                e = rng.standard_normal(f.a.shape)
                perturbed.append(FdnSystem(f.a + amp * e / np.linalg.norm(e, 2), f.b, f.c, f.d, f.delays))
        for f in perturbed[len(systems) :]:
            assert certify_uniallpass(f, dsim_from_lyapunov(f.a, f.b, 0.05), 0.05).verdict
        checks = [check_minor_condition(f, 0.05) for f in systems + perturbed]
        assert [c.route for c in checks] == ["witness"] * 2 * len(systems) + ["sweep"] * len(systems)
        assert all(c.deviation < 0.05 for c in checks if c.verdict)
        monkeypatch.setattr(verify, "_minor_witness", lambda *args: None)
        swept = [check_minor_condition(f, 0.05) for f in systems + perturbed]
        assert [c.verdict for c in swept] == [c.verdict for c in checks]
        # both verdicts occur among the 1e-2 perturbations
        assert {c.verdict for c in swept[2 * len(systems) :]} == {True, False}

    @pytest.mark.parametrize(
        "n, low, high, gamma, seed",
        [(16, 1000, 1800, 0.999, 3), (32, 300, 600, 0.9995, 3), (64, 300, 700, 0.999, 64)],
    )
    def test_audio_decay_designs_pass_by_witness(self, n, low, high, gamma, seed, monkeypatch):
        # orders 20929, 14000 and 32889: the absolute sweep read False on the
        # first (|det A^-1| = gamma^-order is about 1e9) and cannot run on the
        # others (N > 20)
        monkeypatch.setattr(verify, "principal_minors_all", lambda *args: pytest.fail("a minor sweep ran"))
        design = design_homogeneous_siso(np.random.default_rng(seed).integers(low, high, n), gamma)
        check = check_minor_condition(design.fdn)
        assert check.verdict and check.route == "witness" and check.sign == 1
        assert check.deviation < 1e-12 and check.scale >= 1.0

    def test_size_guard(self):
        fdn = random_uniallpass(2, 1, seed=0, delays=[1, 1])
        big = FdnSystem(np.eye(21) * 0.5, np.ones((21, 1)), np.ones((1, 21)), np.eye(1), [1] * 21)
        with pytest.raises(FdnError, match=r"N <= 20, got 21"):
            check_minor_condition(big)
        assert check_minor_condition(fdn).verdict

    def test_mimo_flagged_necessary_only(self):
        fdn = random_uniallpass(3, 3, seed=5)
        check = check_minor_condition(fdn)
        assert check.verdict and not check.sufficient

    def test_witness_takes_the_given_certificate(self, monkeypatch):
        # the witness makes no certificate of its own: it closes on the one
        # it is given, and its premise is that certificate's two residuals
        design = design_homogeneous_siso([31, 37, 41, 43, 47, 53, 59, 61], 0.99)
        cert = certify_uniallpass(design.fdn, design.dsim)
        loose = certify_uniallpass(design.fdn, design.dsim * (1 + 1e-4), 0.05)
        assert loose.verdict and loose.residual > 1e-8

        def no_proof(*args):
            pytest.fail("the witness recovered or certified a dsim")

        monkeypatch.setattr(verify, "dsim_from_lyapunov", no_proof)
        monkeypatch.setattr(verify, "certify_uniallpass", no_proof)
        deviation, scale = verify._minor_witness(design.fdn, cert, 1e-8)
        assert deviation < 1e-15 and scale >= 1.0
        assert verify._minor_witness(design.fdn, None, 1e-8) is None
        assert verify._minor_witness(design.fdn, loose, 0.05) is None
        check = verify._minor_condition(design.fdn, cert, 1e-8)
        assert check.route == "witness" and check.deviation == deviation

    def test_schur_complement_keeps_its_product_order(self, rng):
        # every S_D is A - B D^-1 C in this order, so minors stay bitwise equal
        fdn = random_stable_fdn(rng, 4, 1)
        d_inv = np.linalg.inv(fdn.d)
        s_d, inverse = verify._schur_d(fdn.a, fdn.b, fdn.c, fdn.d)
        np.testing.assert_array_equal(inverse, d_inv)
        np.testing.assert_array_equal(s_d, fdn.a - fdn.b @ d_inv @ fdn.c)
        np.testing.assert_array_equal(schur_complements(fdn).s_d, s_d)

    def test_singular_blocks_rejected(self, rng):
        singular_d = FdnSystem(0.5 * np.eye(2), np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)), [1, 1])
        with pytest.raises(np.linalg.LinAlgError, match="direct-gain"):
            check_minor_condition(singular_d)
        singular_a = FdnSystem(np.zeros((2, 2)), np.ones((2, 1)), np.ones((1, 2)), np.eye(1), [1, 1])
        with pytest.raises(np.linalg.LinAlgError):
            check_minor_condition(singular_a)
        # a certified lattice of zero loop gain (A = 0, D = 0) has no witness
        # either: the sweep names the singular block
        certified, dsim = poletti_unitary(random_orthogonal(3, rng), 0.0, [2, 4, 5])
        assert certify_uniallpass(certified, dsim).verdict
        with pytest.raises(np.linalg.LinAlgError, match="direct-gain"):
            check_minor_condition(certified)


class TestTheoremChain:
    def test_certificate_implies_allpass_and_minors(self, rng):
        for seed in range(10):
            n = int(rng.integers(2, 6))
            p = 1 if seed % 2 == 0 else n
            fdn = random_uniallpass(n, p, seed=seed, scaled=bool(seed % 3))
            dsim = dsim_from_lyapunov(fdn.a, fdn.b)
            assert certify_uniallpass(fdn, dsim).verdict
            for _ in range(3):
                delays = random_delays(rng, n)
                assert is_allpass(fdn.with_delays(delays)).allpass
            assert check_minor_condition(fdn).verdict

    def test_siso_minor_condition_matches_separating_delays(self, rng):
        # delays 1, 2, 4, ... make every polynomial coefficient a single
        # minor, so the allpass verdict and the minor condition coincide
        for seed in range(4):
            good = random_uniallpass(3, 1, seed=seed)
            sep = [1, 2, 4]
            assert (
                check_minor_condition(good).verdict
                == is_allpass(good.with_delays(sep)).allpass
                is True
            )
        bad = delay_dependent_allpass()
        assert not check_minor_condition(bad, tol=0.05).verdict
        try:
            verdict = is_allpass(bad.with_delays([1, 2, 4]), tol=0.05).allpass
        except UnstableError:
            verdict = False
        assert not verdict

    def test_balanced_form_orthogonal(self, rng):
        g = fv.CLASSIC_GAINS
        fdn, dsim = schroeder_series(g, [1] * 6)
        balanced = balanced_form(fdn, dsim)
        assert max(balanced_residuals(balanced)) < 1e-9
        u = SystemMatrix.from_fdn(balanced).u
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-9
        # direct gain and feedback determinants agree in magnitude
        assert abs(abs(np.linalg.det(balanced.d)) - abs(np.linalg.det(balanced.a))) < 1e-9

    def test_lattice_balanced(self, rng):
        fdn, dsim = poletti_unitary(random_orthogonal(4, rng), 0.7, [1, 1, 1, 1])
        balanced = balanced_form(fdn, dsim)
        u = SystemMatrix.from_fdn(balanced).u
        np.testing.assert_allclose(u @ u.T, np.eye(8), atol=1e-9)
