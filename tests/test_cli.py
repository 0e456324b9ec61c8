import json

import numpy as np
import pytest

import fixture_values as fv
from conftest import impulse_error_bound
from oracles import impulse_loop
from uniallpass import (
    delay_dependent_allpass,
    design_homogeneous_siso,
    impulse_response,
    schroeder_series,
)
from uniallpass.complete import _complete_balanced
from uniallpass.cli import main
from uniallpass.serialize import dumps_system, load_system, save_system, write_wav


# an N = 8 homogeneous design of order 372
SPEC_DELAYS = "31,37,41,43,47,53,59,61"


def run_cli(*argv):
    return main(list(argv))


def delays_arg(values):
    return ",".join(str(v) for v in values)


class TestDesignCommand:
    def test_homogeneous_reference(self, tmp_path, capsys):
        out = tmp_path / "design.json"
        code = run_cli(
            "design", "homogeneous",
            "--delays", delays_arg(fv.HOMOG_DELAYS),
            "--gamma", str(fv.HOMOG_GAMMA),
            "--dsim", ",".join(str(v) for v in fv.HOMOG_DSIM),
            "-o", str(out),
        )
        assert code == 0
        fdn, dsim, payload = load_system(out)
        np.testing.assert_allclose(fdn.a, fv.HOMOG_A, atol=fv.FIXTURE_TOL)
        np.testing.assert_allclose(dsim, fv.HOMOG_DSIM)
        assert payload["verify"]["certificate"]["verdict"] is True
        minor = payload["verify"]["minor_condition"]
        assert minor["verdict"] is True and minor["route"] == "witness" and minor["scale"] >= 1.0
        assert payload["meta"]["pole_modulus_max"] == pytest.approx(0.99, abs=1e-6)

    def test_homogeneous_design_solves_no_poles(self, tmp_path, no_pole_solve):
        out = tmp_path / "design.json"
        assert run_cli(
            "design", "homogeneous", "--delays", "3,7,5", "--gamma", "0.95", "-o", str(out)
        ) == 0
        design = design_homogeneous_siso([3, 7, 5], 0.95)
        meta = load_system(out)[2]["meta"]
        assert meta["pole_modulus_min"] == design.pole_modulus_min
        assert meta["pole_modulus_max"] == design.pole_modulus_max

    def test_design_then_verify_closed_loop(self, tmp_path, capsys):
        out = tmp_path / "sch.json"
        assert run_cli(
            "design", "schroeder",
            "--gains", "0.3,0.4,0.5,0.6,0.7,0.8",
            "--delays", "13,22,1,10,5,3",
            "-o", str(out),
        ) == 0
        assert run_cli("verify", str(out)) == 0
        captured = capsys.readouterr()
        assert "allpass" in captured.out

    def test_singular_direct_block_still_reports(self, tmp_path, capsys):
        # zero loop gain gives D = 0: the minor condition is unavailable but
        # the certificate and grid tests still decide the verdict
        out = tmp_path / "p0.json"
        assert run_cli(
            "design", "poletti", "--size", "3", "--gain", "0.0", "--seed", "1",
            "--delays", "2,4,5", "-o", str(out),
        ) == 0
        assert run_cli("verify", str(out)) == 0
        text = capsys.readouterr().out
        assert "minor condition: unavailable" in text
        assert "verdict=True" in text

    def test_gardner_and_poletti(self, tmp_path):
        assert run_cli(
            "design", "gardner", "--gains", "0.3,0.5", "--delays", "2,3",
            "-o", str(tmp_path / "g.json"),
        ) == 0
        assert run_cli(
            "design", "poletti", "--size", "4", "--gain", "0.7", "--seed", "3",
            "--delays", "1,2,3,4", "-o", str(tmp_path / "p.json"),
        ) == 0
        _, _, payload = load_system(tmp_path / "p.json")
        assert payload["verify"]["minor_condition"]["sufficient"] is False

    def test_empty_poletti_lattice_refused(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        assert run_cli("design", "poletti", "--size", "0", "--gain", "0.5", "-o", str(out)) == 2
        assert "error: need at least one delay line" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("schroeder", "--gains", "0.5,nan", "--delays", "2,3"),
            ("gardner", "--gains", "nan,0.5", "--delays", "2,3"),
            ("poletti", "--size", "2", "--gain", "nan", "--delays", "2,3"),
        ],
    )
    def test_nan_gain_refused_before_any_output(self, tmp_path, capsys, argv):
        # |g| >= 1 is False for NaN: the NaN system certified, then failed to serialize
        out = tmp_path / "nan.json"
        assert run_cli("design", *argv, "-o", str(out)) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                "design", "poletti", "--size", "3", "--gain", "0.5",
                "--seed", "9", "-o", str(path),
            )
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_counterexample_delay_override(self, tmp_path, capsys):
        path = tmp_path / "ce.json"
        save_system(path, delay_dependent_allpass())
        code = run_cli("verify", str(path), "--delays", "2,1,1")
        captured = capsys.readouterr()
        assert code != 0
        assert "not allpass" in captured.out

    def test_certified_file_passes(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        design = design_homogeneous_siso([3, 5], 0.9)
        save_system(path, design.fdn, dsim=design.dsim)
        assert run_cli("verify", str(path)) == 0
        out = capsys.readouterr().out
        assert "verdict=True" in out

    def test_balanced_residual_explains_refusal(self, tmp_path, capsys):
        # the spurious Schroeder completion: its absolute residual lies far
        # below tol, and the printed balanced residual is what refuses it
        reference, _ = schroeder_series([0.786, -0.621, 0.026], [3, 1, 2])
        dsim = [7.54754241e-17, 1.0, 0.614774588]
        fdn, _ = _complete_balanced(reference.a, dsim, [3, 1, 2], 1e-8)
        path = tmp_path / "spurious.json"
        save_system(path, fdn, dsim=dsim)
        assert run_cli("verify", str(path)) == 1
        line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("certificate:"))
        fields = dict(field.split("=") for field in line.split()[1:])
        assert fields["verdict"] == "False"
        assert float(fields["residual"]) < float(fields["tol"]) < float(fields["balanced"])

    def test_uncertified_network_above_the_sweep_budget_refused(self, tmp_path, capsys):
        # N = 22, not certified and not a contraction: a typed refusal
        # (exit 1), not a usage error
        from uniallpass import FdnSystem, random_uniallpass

        fdn = random_uniallpass(22, 1, 5, scaled=True, delays=[1, 2, 3] * 7 + [1])
        e = np.random.default_rng(1908).standard_normal((22, 22))
        path = tmp_path / "n22.json"
        save_system(path, FdnSystem(fdn.a + 1e-3 * e / np.linalg.norm(e, 2), fdn.b, fdn.c, fdn.d, fdn.delays))
        assert run_cli("verify", str(path)) == 1
        assert "N <= 20, got 22" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, capsys):
        assert run_cli("verify", "/nonexistent/x.json") == 2

    def test_mimo_minor_condition_labeled(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        run_cli(
            "design", "poletti", "--size", "3", "--gain", "0.6", "--seed", "2",
            "--delays", "2,3,4", "-o", str(out),
        )
        assert run_cli("verify", str(out)) == 0
        text = capsys.readouterr().out
        assert "(necessary condition only)" in text
        assert "minor condition: verdict=True route=witness sign=+1" in text

    def test_no_similarity_candidate_reported(self, tmp_path, capsys):
        # A = 1 makes the Stein diagonal system singular: no dsim to certify
        from uniallpass import FdnSystem

        path = tmp_path / "lossless.json"
        save_system(path, FdnSystem([[1.0]], [[1.0]], [[1.0]], [[1.0]], [2]))
        run_cli("verify", str(path))
        text = capsys.readouterr().out
        assert "certificate: no similarity candidate" in text
        # S_D = A - B D^-1 C = 0 against A^-1 = 1
        assert "minor condition: verdict=False route=sweep sign=+1 deviation=1 scale=1" in text

    def test_tolerance_override(self, tmp_path, capsys):
        path = tmp_path / "ce.json"
        save_system(path, delay_dependent_allpass())
        # the bundled counterexample is allpass for its own delays only at
        # fixture precision, so loosening the default tolerance flips verify
        assert run_cli("verify", str(path)) == 1
        assert run_cli("verify", str(path), "--tol", "0.05") == 0
        assert "tol=0.05" in capsys.readouterr().out

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
    def test_tolerance_must_be_finite_and_positive(self, tmp_path, capsys, tol):
        # a NaN tolerance used to read the certified reference design as not
        # allpass, and a negative one to report a failed certification at a
        # rounding-level residual
        path = tmp_path / "h.json"
        design = design_homogeneous_siso(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        save_system(path, design.fdn, dsim=design.dsim)
        commands = [
            ("verify", str(path)),
            ("design", "homogeneous", "--delays", delays_arg(fv.HOMOG_DELAYS), "--gamma", str(fv.HOMOG_GAMMA)),
        ]
        for command in commands:
            with pytest.raises(SystemExit) as exc:
                run_cli(*command, "--tol", tol)
            assert exc.value.code == 2
            assert "tolerance must be finite and positive" in capsys.readouterr().err

    def test_uncertified_output_names_the_tolerance(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        code = run_cli(
            "design", "schroeder", "--gains", "0.5,-0.6", "--delays", "3,5", "--tol", "1e-30", "-o", str(out)
        )
        assert code == 1
        assert "did not certify at tolerance 1e-30" in capsys.readouterr().err

    def test_file_dsim_carries_the_witness(self, tmp_path, capsys, monkeypatch):
        # with no Stein diagonal to recover, the minor condition is still
        # proven by the witness, from the dsim the file carries
        from uniallpass import core, verify

        path = tmp_path / "h.json"
        assert run_cli("design", "homogeneous", "--delays", SPEC_DELAYS, "--gamma", "0.99", "-o", str(path)) == 0
        monkeypatch.setattr(core, "_stein_diagonal", lambda *args: None)
        monkeypatch.setattr(verify, "_stein_diagonal", lambda *args: None)
        assert run_cli("verify", str(path)) == 0
        assert "minor condition: verdict=True route=witness sign=+1" in capsys.readouterr().out

    def test_one_certificate_per_system(self, tmp_path, capsys, monkeypatch):
        # counted through wrappers around every reference to the two proofs:
        # the design's own certificate is the only one made twice
        from uniallpass import cli, complete, verify

        counts = {}

        def counted(name):
            fn = getattr(verify, name)

            def wrapper(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        for name in ("certify_uniallpass", "dsim_from_lyapunov"):
            wrapper = counted(name)
            for module in (verify, complete, cli):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, wrapper)
        path = tmp_path / "h.json"
        commands = [
            (("design", "homogeneous", "--delays", SPEC_DELAYS, "--gamma", "0.99", "-o", str(path)), 2, 0),
            (("verify", str(path)), 1, 0),
            (("complete", "--random", "8", "--scaled", "--seed", "3"), 1, 1),
        ]
        for argv, certificates, recoveries in commands:
            counts.clear()
            assert run_cli(*argv) == 0
            assert counts.get("certify_uniallpass", 0) == certificates, argv
            assert counts.get("dsim_from_lyapunov", 0) == recoveries, argv
        capsys.readouterr()


class TestCompleteCommand:
    def test_siso_from_text_matrix(self, tmp_path):
        design = design_homogeneous_siso([2, 4, 3], 0.9)
        matrix = tmp_path / "a.txt"
        np.savetxt(matrix, design.fdn.a)
        out = tmp_path / "done.json"
        assert run_cli(
            "complete", str(matrix), "--mode", "siso", "--delays", "2,4,3",
            "-o", str(out),
        ) == 0
        _, _, payload = load_system(out)
        assert payload["verify"]["certificate"]["verdict"] is True

    def test_orthogonal_from_json_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        from uniallpass import random_orthogonal

        a = random_orthogonal(3, rng) @ np.diag([0.9, 0.8, 0.7])
        matrix = tmp_path / "a.json"
        matrix.write_text(json.dumps({"A": a.tolist()}))
        out = tmp_path / "done.json"
        assert run_cli(
            "complete", str(matrix), "--mode", "orthogonal", "--p", "3", "-o", str(out)
        ) == 0
        _, dsim, payload = load_system(out)
        np.testing.assert_allclose(dsim, 1.0)
        assert payload["verify"]["certificate"]["verdict"] is True

    def test_mimo_general_mode_refused(self, tmp_path, capsys):
        matrix = tmp_path / "a.txt"
        np.savetxt(matrix, 0.5 * np.eye(2))
        assert run_cli("complete", str(matrix), "--mode", "siso", "--p", "2") == 2
        assert "orthogonal" in capsys.readouterr().err

    def test_random_generation(self, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli("complete", "--random", "4", "--p", "1", "--seed", "3", "-o", str(out)) == 0
        _, _, payload = load_system(out)
        assert payload["verify"]["certificate"]["verdict"] is True

    @pytest.mark.parametrize("mode", ["siso", "orthogonal"])
    @pytest.mark.parametrize(
        "name, text, shape",
        [
            ("wide.json", "[[1, 2, 3], [4, 5, 6]]", "(2, 3)"),
            ("wide.txt", "0.1 0.2 0.3\n0.4 0.5 0.6\n", "(2, 3)"),
            ("empty.json", "[]", "(0,)"),
            ("vector.json", '{"A": [0.5, 0.5]}', "(2,)"),
            ("empty.txt", "", "(1, 0)"),
            ("comment.txt", "# no numbers\n", "(1, 0)"),
        ],
    )
    def test_non_square_matrix_refused(self, tmp_path, capsys, mode, name, text, shape):
        # a 2 x 3 matrix used to print numpy's "must be square" (exit 2) or,
        # in orthogonal mode, be called inadmissible; an empty text file warned
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("complete", str(path), "--mode", mode) == 1
        assert f"got shape {shape}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("ragged.json", "[[0.5, 0.1], [0.2]]", "rows of numbers of equal length"),
            ("ragged.txt", "1 2\n3\n", "rows of numbers of equal length"),
            ("word.txt", "0.5 x\n0.1 0.5\n", "rows of numbers of equal length"),
            ("b_only.json", '{"B": [[1.0]]}', 'needs an "A" field'),
        ],
    )
    def test_malformed_matrix_refused(self, tmp_path, capsys, name, text, message):
        # ragged files used to print numpy's parse error and exit 2
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("complete", str(path)) == 1
        assert message in capsys.readouterr().err

    def test_inadmissible_matrix_fails(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        matrix = tmp_path / "bad.txt"
        np.savetxt(matrix, rng.standard_normal((3, 3)) * 0.3)
        assert run_cli("complete", str(matrix), "--mode", "orthogonal", "--p", "1") == 1
        assert "error" in capsys.readouterr().err


class TestSimulateAndPoles:
    def test_pure_delay_csv(self, tmp_path, capsys):
        from uniallpass import FdnSystem

        path = tmp_path / "delay.json"
        save_system(path, FdnSystem.siso([[0.0]], [1.0], [1.0], 0.0, [1]))
        csv_path = tmp_path / "ir.csv"
        assert run_cli("simulate", str(path), "--length", "4", "--csv", str(csv_path)) == 0
        assert csv_path.read_text().splitlines() == ["n,y", "0,0", "1,1", "2,0", "3,0"]

    def test_wav_with_sidecar_scale(self, tmp_path):
        design = design_homogeneous_siso([3, 5], 0.8)
        path = tmp_path / "h.json"
        save_system(path, design.fdn, dsim=design.dsim)
        wav = tmp_path / "ir.wav"
        assert run_cli(
            "simulate", str(path), "--length", "256", "--csv", str(tmp_path / "ir.csv"),
            "--wav", str(wav), "--rate", "44100",
        ) == 0
        assert wav.exists()
        meta = json.loads((tmp_path / "ir.wav.meta.json").read_text())
        assert meta["rate"] == 44100
        assert meta["scale"] > 0

    @pytest.mark.parametrize("rate", ["0", "-44100", "44100.5", str(2**31)])
    def test_wav_rate_refused_before_the_render(self, tmp_path, capsys, rate):
        # a rate of 0 used to leave the CSV and a 0-byte WAV behind, and
        # exit 1 with a wave.Error traceback
        design = design_homogeneous_siso([3, 5], 0.8)
        path = tmp_path / "h.json"
        save_system(path, design.fdn, dsim=design.dsim)
        csv_path, wav = tmp_path / "ir.csv", tmp_path / "ir.wav"
        with pytest.raises(SystemExit) as exc:
            run_cli("simulate", str(path), "--length", "64", "--csv", str(csv_path), "--wav", str(wav), "--rate", rate)
        assert exc.value.code == 2
        assert "--rate" in capsys.readouterr().err
        assert not csv_path.exists() and not wav.exists()

    def test_unstable_render_refused_before_any_file(self, tmp_path, capsys):
        # largest pole modulus 2.49: the response overflows; it used to be
        # written as nan rows and a full-scale WAV, exit 0
        path = tmp_path / "u.json"
        save_system(path, delay_dependent_allpass((2, 1, 1)))
        csv_path, wav = tmp_path / "x.csv", tmp_path / "x.wav"
        assert run_cli(
            "simulate", str(path), "--length", "48000", "--csv", str(csv_path), "--wav", str(wav)
        ) == 1
        captured = capsys.readouterr()
        assert "not finite from sample" in captured.err
        assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["u.json"]

    def test_multichannel_wav_rate_refused_before_the_render(self, tmp_path, capsys):
        # 2^30 Hz fits one channel's header but not the byte rate of two
        from uniallpass import poletti_unitary, random_orthogonal

        fdn, dsim = poletti_unitary(random_orthogonal(2, np.random.default_rng(1)), 0.5, [2, 3])
        path = tmp_path / "p.json"
        save_system(path, fdn, dsim=dsim)
        csv_path, wav = tmp_path / "x.csv", tmp_path / "ir.wav"
        code = run_cli(
            "simulate", str(path), "--length", "64", "--csv", str(csv_path),
            "--wav", str(wav), "--multichannel", "--rate", str(2**30),
        )
        assert code == 2
        assert "WAV sample rate" in capsys.readouterr().err
        assert not csv_path.exists() and not list(tmp_path.glob("*.wav"))

    def test_reference_render_bytes_within_oracle_bound(self, tmp_path):
        # the reference design's 1-sample line puts it on the lifted blocks,
        # so the render meets the per-sample oracle within the kernel gate's
        # rounding bound, and the files hold exactly that render
        design = design_homogeneous_siso(fv.HOMOG_DELAYS, fv.HOMOG_GAMMA)
        path = tmp_path / "ref.json"
        save_system(path, design.fdn, dsim=design.dsim)
        csv_path, wav = tmp_path / "ir.csv", tmp_path / "ir.wav"
        assert run_cli(
            "simulate", str(path), "--length", "2000", "--csv", str(csv_path), "--wav", str(wav),
        ) == 0
        fdn, _, _ = load_system(path)
        h = impulse_response(fdn, 2000)[0, 0]
        loop = impulse_loop(fdn.a, fdn.b, fdn.c, fdn.d, list(fdn.delays), 2000)[:, 0, 0]
        assert np.max(np.abs(h - loop)) <= impulse_error_bound(fdn, 2000)
        expected = "n,y\n" + "".join(f"{n},{format(float(v), '.17g')}\n" for n, v in enumerate(h))
        assert csv_path.read_bytes() == expected.encode()
        write_wav(tmp_path / "render.wav", h, 48000)
        assert wav.read_bytes() == (tmp_path / "render.wav").read_bytes()

    def test_mimo_wav_files(self, tmp_path):
        from uniallpass import poletti_unitary, random_orthogonal

        rng = np.random.default_rng(1)
        fdn, dsim = poletti_unitary(random_orthogonal(2, rng), 0.5, [2, 3])
        path = tmp_path / "p.json"
        save_system(path, fdn, dsim=dsim)
        wav = tmp_path / "ir.wav"
        assert run_cli(
            "simulate", str(path), "--length", "64", "--csv", str(tmp_path / "x.csv"),
            "--wav", str(wav), "--multichannel",
        ) == 0
        # one multichannel file per input channel
        assert (tmp_path / "ir_in0.wav").exists()
        assert (tmp_path / "ir_in1.wav").exists()
        import wave as wave_mod

        with wave_mod.open(str(tmp_path / "ir_in0.wav")) as fh:
            assert fh.getnchannels() == 2
        # one mono file, with its scale beside it, per output-input pair
        assert run_cli("simulate", str(path), "--length", "64", "--wav", str(wav)) == 0
        for name in ("ir_out0_in0", "ir_out0_in1", "ir_out1_in0", "ir_out1_in1"):
            with wave_mod.open(str(tmp_path / f"{name}.wav")) as fh:
                assert fh.getnchannels() == 1
            assert json.loads((tmp_path / f"{name}.wav.meta.json").read_text())["rate"] == 48000

    def test_poles_csv(self, tmp_path):
        design = design_homogeneous_siso([2, 3], 0.9)
        path = tmp_path / "h.json"
        save_system(path, design.fdn, dsim=design.dsim)
        csv_path = tmp_path / "poles.csv"
        assert run_cli("poles", str(path), "--csv", str(csv_path)) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "re,im,modulus"
        moduli = np.array([float(l.split(",")[2]) for l in lines[1:]])
        assert len(moduli) == 5
        np.testing.assert_allclose(moduli, 0.9, atol=1e-6)


class TestExportCommand:
    def test_round_trip(self, tmp_path):
        design = design_homogeneous_siso([2, 3], 0.9)
        src = tmp_path / "in.json"
        save_system(src, design.fdn, dsim=design.dsim, meta={"k": 1})
        dst = tmp_path / "out.json"
        assert run_cli("export", str(src), "-o", str(dst)) == 0
        assert src.read_bytes() == dst.read_bytes()


class TestNonFiniteInput:
    """Python's json reads NaN and Infinity; the loaders refuse them, as the
    writer does, with a schema error (exit 1)."""

    @pytest.fixture
    def system_file(self, tmp_path):
        fdn, dsim = schroeder_series([0.5], [2])
        payload = json.loads(dumps_system(fdn, dsim=dsim))
        payload["A"] = [[float("inf")]]
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize(
        "argv",
        [("verify",), ("simulate", "--length", "4"), ("poles",), ("export",)],
    )
    def test_system_file_refused(self, system_file, capsys, argv):
        command, *rest = argv
        assert run_cli(command, str(system_file), *rest) == 1
        captured = capsys.readouterr()
        assert "non-finite value Infinity" in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize(
        "name, text",
        [("a.json", '{"A": [[0.5, NaN], [0.0, 0.5]]}'), ("a.txt", "0.5 nan\n0.0 0.5\n"), ("b.json", "[[1e999]]")],
    )
    def test_matrix_file_refused(self, tmp_path, capsys, name, text):
        path = tmp_path / name
        path.write_text(text)
        assert run_cli("complete", str(path), "--mode", "orthogonal") == 1
        assert "finite" in capsys.readouterr().err


class TestNonNumericInput:
    """A block that is not an array of numbers is a schema error (exit 1)."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("A", {"x": 1.0}, "a must be an array of numbers"),
            ("dsim", {"x": 1.0}, "dsim must be an array of numbers"),
            ("dsim", "x", "could not convert string to float"),
            ("dsim", ["x"], "could not convert string to float"),
        ],
    )
    @pytest.mark.parametrize("argv", [("verify",), ("simulate", "--length", "4"), ("poles",), ("export",)])
    def test_block_refused_as_a_schema_error(self, tmp_path, capsys, field, value, message, argv):
        # a JSON object raised TypeError out of main; a string dsim exited 2
        fdn, dsim = schroeder_series([0.5], [2])
        payload = json.loads(dumps_system(fdn, dsim=dsim))
        payload[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        command, *rest = argv
        assert run_cli(command, str(path), *rest) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == ""
