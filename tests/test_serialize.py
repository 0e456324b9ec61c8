import json
import wave

import numpy as np
import pytest

from uniallpass import SchemaError, random_uniallpass
from uniallpass.serialize import (
    canonical_json,
    dumps_system,
    impulse_csv,
    load_system,
    loads_system,
    poles_csv,
    save_system,
    write_wav,
)


class TestSystemJson:
    def test_round_trip_bit_exact(self):
        fdn = random_uniallpass(4, 1, seed=7, delays=[3, 1, 4, 1])
        text = dumps_system(fdn, dsim=np.ones(4), meta={"note": "x"})
        loaded, dsim, payload = loads_system(text)
        np.testing.assert_array_equal(loaded.a, fdn.a)
        np.testing.assert_array_equal(loaded.b, fdn.b)
        np.testing.assert_array_equal(loaded.c, fdn.c)
        np.testing.assert_array_equal(loaded.d, fdn.d)
        assert list(loaded.delays) == [3, 1, 4, 1]
        np.testing.assert_array_equal(dsim, np.ones(4))
        assert payload["meta"] == {"note": "x"}

    def test_serialization_is_byte_stable(self, tmp_path):
        fdn = random_uniallpass(3, 2, seed=11)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_system(p1, fdn)
        save_system(p2, fdn)
        assert p1.read_bytes() == p2.read_bytes()
        # round trip through load keeps bytes identical too
        loaded, _, _ = load_system(p1)
        assert dumps_system(loaded).encode() == p1.read_bytes()

    def test_keys_sorted_and_lf_terminated(self):
        fdn = random_uniallpass(2, 1, seed=0)
        text = dumps_system(fdn, meta={"z": 1, "a": 2})
        assert text.endswith("\n") and "\r" not in text
        payload = json.loads(text)
        assert list(payload.keys()) == sorted(payload.keys())
        meta_section = text[text.index('"meta"'):]
        assert meta_section.index('"a"') < meta_section.index('"z"')

    def test_dimension_mismatch_rejected(self):
        fdn = random_uniallpass(3, 1, seed=1)
        payload = json.loads(dumps_system(fdn))
        payload["delays"] = [1, 2]
        with pytest.raises(SchemaError, match="delays"):
            loads_system(json.dumps(payload))

    def test_unknown_schema_rejected(self):
        fdn = random_uniallpass(2, 1, seed=2)
        payload = json.loads(dumps_system(fdn))
        payload["schema"] = "uniallpass/99"
        with pytest.raises(SchemaError, match="schema"):
            loads_system(json.dumps(payload))

    def test_malformed_json_reports_location(self):
        with pytest.raises(SchemaError, match="line 1"):
            loads_system("{not json")

    def test_canonical_float_format(self):
        text = canonical_json({"x": 1.0 / 3.0})
        assert format(1.0 / 3.0, ".17g") in text


class TestCsv:
    def test_impulse_rows(self, tmp_path):
        response = np.zeros((1, 1, 4))
        response[0, 0, 1] = 1.0
        path = tmp_path / "ir.csv"
        impulse_csv(path, response)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,y"
        assert lines[1:] == ["0,0", "1,1", "2,0", "3,0"]

    def test_mimo_header(self, tmp_path):
        response = np.zeros((2, 2, 2))
        text = impulse_csv(tmp_path / "ir.csv", response)
        assert text.splitlines()[0] == "n,y_out0_in0,y_out0_in1,y_out1_in0,y_out1_in1"

    @pytest.mark.parametrize("p", [1, 2])
    def test_impulse_bytes_match_per_value_format(self, tmp_path, p):
        values = [-0.0, 5e-324, 1e300, 1.0 / 3.0, 2.0, -7.0, 1e16, 0.1, -2.5e-308]
        length = 2 * len(values) + 1
        response = np.resize(np.array(values), p * p * length).reshape(p, p, length)
        if p == 1:
            header = "n,y"
        else:
            header = ",".join(["n"] + [f"y_out{i}_in{j}" for i in range(p) for j in range(p)])
        expected = header + "\n" + "".join(
            ",".join([str(n)] + [format(float(response[i, j, n]), ".17g") for i in range(p) for j in range(p)])
            + "\n"
            for n in range(length)
        )
        path = tmp_path / "ir.csv"
        assert impulse_csv(path, response) == expected
        assert path.read_bytes() == expected.encode()

    def test_pole_bytes_match_per_value_format(self, tmp_path):
        pole_values = np.array([-0.0 + 5e-324j, 1e300 - 0.0j, 1.0 / 3.0 + 2.0j, -7.0 + 0.0j])
        expected = "re,im,modulus\n" + "".join(
            f"{format(float(z.real), '.17g')},{format(float(z.imag), '.17g')},{format(float(abs(z)), '.17g')}\n"
            for z in pole_values
        )
        path = tmp_path / "p.csv"
        assert poles_csv(path, pole_values) == expected
        assert path.read_bytes() == expected.encode()

    def test_pole_table(self, tmp_path):
        text = poles_csv(tmp_path / "p.csv", np.array([1j, -0.5 + 0.0j]))
        lines = text.splitlines()
        assert lines[0] == "re,im,modulus"
        assert lines[1].split(",")[2] == "1"


class TestWav:
    def test_peak_normalized_int16(self, tmp_path):
        path = tmp_path / "out.wav"
        data = np.zeros(64)
        data[0] = 0.25
        scale = write_wav(path, data, 48000)
        assert scale == pytest.approx(10 ** (-1 / 20) / 0.25)
        with wave.open(str(path)) as fh:
            assert fh.getnchannels() == 1
            assert fh.getsampwidth() == 2
            assert fh.getframerate() == 48000
            frames = np.frombuffer(fh.readframes(64), dtype="<i2")
        assert frames[0] == int(round(10 ** (-1 / 20) * 32767))
        assert np.all(frames[1:] == 0)

    def test_multichannel(self, tmp_path):
        path = tmp_path / "st.wav"
        write_wav(path, np.vstack([np.ones(8), -np.ones(8)]), 8000)
        with wave.open(str(path)) as fh:
            assert fh.getnchannels() == 2
