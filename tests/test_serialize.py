import io
import json
import wave
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import csv_per_value, impulse_csv_per_value, poles_csv_per_value
from uniallpass import SchemaError, impulse_response, poletti_unitary, random_orthogonal, random_uniallpass
from uniallpass.serialize import (
    _pow10_table,
    canonical_json,
    dumps_system,
    impulse_csv,
    load_system,
    loads_system,
    poles_csv,
    save_system,
    write_csv,
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

    @pytest.mark.parametrize("delays", [[3.7, 4.2], [True, 2], [3, 4.5]])
    def test_non_integer_delays_rejected(self, delays):
        # [3.7, 4.2] used to load as (3, 4)
        payload = json.loads(dumps_system(random_uniallpass(2, 1, seed=1)))
        payload["delays"] = delays
        with pytest.raises(SchemaError, match="delay lengths must be integers"):
            loads_system(json.dumps(payload))

    def test_integral_float_delays_load(self):
        payload = json.loads(dumps_system(random_uniallpass(2, 1, seed=1)))
        payload["delays"] = [3.0, 4]
        assert loads_system(json.dumps(payload))[0].delays.values == (3, 4)

    def test_unknown_schema_rejected(self):
        fdn = random_uniallpass(2, 1, seed=2)
        payload = json.loads(dumps_system(fdn))
        payload["schema"] = "uniallpass/99"
        with pytest.raises(SchemaError, match="schema"):
            loads_system(json.dumps(payload))

    @pytest.mark.parametrize("field, value", [("A", "NaN"), ("dsim", "-Infinity"), ("delays", "Infinity")])
    def test_non_finite_literals_rejected(self, field, value):
        fdn = random_uniallpass(1, 1, seed=2)
        payload = json.loads(dumps_system(fdn, dsim=[1.0]))
        payload[field] = [[value]] if field == "A" else [value]
        text = json.dumps(payload).replace(f'"{value}"', value)
        with pytest.raises(SchemaError, match=f"non-finite value {value}"):
            loads_system(text)

    def test_overflowing_literal_rejected(self):
        # 1e999 is valid JSON that parses to inf
        payload = json.loads(dumps_system(random_uniallpass(1, 1, seed=2)))
        payload["D"] = "big"
        with pytest.raises(SchemaError, match="finite"):
            loads_system(json.dumps(payload).replace('"big"', "[[1e999]]"))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda payload: [payload], "top-level JSON value must be an object"),
            (lambda payload: {k: payload[k] for k in ("schema", "delays", "A", "C")}, "missing required fields: B, D"),
            (lambda payload: {**payload, "dsim": [1.0, 1.0]}, r"dsim has shape \(2,\), expected \(1,\)"),
            (lambda payload: {**payload, "dsim": "big"}, "dsim must be finite"),
            # non-numeric blocks: numpy raised TypeError, or ValueError outside SchemaError
            (lambda payload: {**payload, "A": {"x": 1.0}}, "a must be an array of numbers"),
            (lambda payload: {**payload, "dsim": {"x": 1.0}}, "dsim must be an array of numbers"),
            (lambda payload: {**payload, "dsim": "x"}, "could not convert string to float"),
            (lambda payload: {**payload, "dsim": ["x"]}, "could not convert string to float"),
        ],
    )
    def test_malformed_payload_rejected(self, edit, message):
        payload = json.loads(dumps_system(random_uniallpass(1, 1, seed=2), dsim=[1.0]))
        # "big" becomes 1e999, valid JSON that parses to inf
        text = json.dumps(edit(payload)).replace('"big"', "[1e999]")
        with pytest.raises(SchemaError, match=message):
            loads_system(text)

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
        values = [-0.0, 5e-324, 1e300, 1.0 / 3.0, 2.0, -7.0, 1e16, 0.1, -2.5e-308, np.inf, -np.inf, np.nan]
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


def table_per_value(table):
    """CSV text of a 2-D float table by the per-row "%.17g" oracle."""
    cols = table.shape[1]
    return csv_per_value(io.StringIO(), ["h"] * cols, ",".join(["%.17g"] * cols), map(tuple, table.tolist()))


def table_text(table):
    return write_csv(io.StringIO(), ["h"] * table.shape[1], table)


class TestCsvFormatter:
    """Every cell of the vectorized writer against Python's "%.17g"."""

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(0, 5), st.integers(1, 4)), elements=st.floats(width=64)))
    def test_any_table_matches_per_value(self, table):
        assert table_text(table) == table_per_value(table)

    def test_random_bit_patterns(self):
        # every float64 bit pattern is equally likely: all exponents, both
        # signs, subnormals, infinities and NaNs
        bits = np.random.default_rng(13).integers(0, 2**64, size=1 << 17, dtype=np.uint64, endpoint=False)
        table = bits.view(np.float64).reshape(-1, 4)
        assert table_text(table) == table_per_value(table)

    def test_edge_values(self):
        ties = [(2.0**53 - k) / 4 for k in range(1, 64, 2)]  # exact halves at the 17th digit
        powers = [float(f"1e{j}") for j in range(-323, 309)]  # 1e-14 and 1e-305 carry to 10**17
        neighbours = [float(np.nextafter(v, w)) for v in powers for w in (0.0, np.inf)]
        values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
        values += [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, np.inf, -np.inf, np.nan]
        table = np.array(values + ties + powers + neighbours).reshape(-1, 1)
        text = table_text(table)
        assert text == table_per_value(table)
        lines = text.splitlines()[1:]
        assert lines[:14] == [
            "0", "-0", "4.9406564584124654e-324", "-4.9406564584124654e-324",
            "2.2250738585072014e-308", "1.7976931348623157e+308", "1.0000000000000001e-05",
            "0.0001", "10000000000000000", "1e+17", "1e+17", "inf", "-inf", "nan",
        ]
        assert lines[14] == "2251799813685247.8"
        assert "1e-14" in lines and "1e-305" in lines

    def test_poletti_render_bytes(self, tmp_path):
        # the N = P = 4 lattice of the CI step: 48000 rows of 16 responses
        u = random_orthogonal(4, np.random.default_rng(3))
        fdn, _ = poletti_unitary(u, 0.6, [1201, 1433, 1087, 1699])
        response = impulse_response(fdn, 48000)
        path = tmp_path / "ir.csv"
        text = impulse_csv(path, response)
        assert text == impulse_csv_per_value(io.StringIO(), response)
        assert path.read_bytes() == text.encode()

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.complex128, st.integers(0, 6), elements=st.complex_numbers(allow_infinity=True, allow_nan=True)))
    def test_poles_match_per_value(self, pole_values):
        assert poles_csv(io.StringIO(), pole_values) == poles_csv_per_value(io.StringIO(), pole_values)

    def test_pow10_table_is_exact(self):
        hi, hi_high, hi_low, lo, ex = _pow10_table()
        assert np.array_equal(hi_high + hi_low, hi)
        for i, s in enumerate(range(-295, 346)):
            rest = Fraction(10) ** s / Fraction(2) ** int(ex[i])
            assert hi[i] == float(rest) and 1.0 <= hi[i] < 2.0
            assert lo[i] == float(rest - Fraction(hi[i]))


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

    @pytest.mark.parametrize(
        "rate, channels",
        [(0, 1), (-48000, 1), (True, 1), (44100.5, 1), (48000.0, 1), (2**31, 1), (2**30, 2), (2**32, 1)],
    )
    def test_rate_refused_before_the_file_opens(self, tmp_path, rate, channels):
        # the header holds the rate and the byte rate, rate * channels * 2,
        # as unsigned 32-bit fields
        path = tmp_path / "bad.wav"
        with pytest.raises(ValueError, match="WAV sample rate"):
            write_wav(path, np.ones((channels, 8)), rate)
        assert not path.exists()

    @pytest.mark.parametrize("rate, channels", [(1, 1), (2**31 - 1, 1), (2**30 - 1, 2), (np.int64(44100), 1)])
    def test_rate_at_the_header_limits(self, tmp_path, rate, channels):
        path = tmp_path / "ok.wav"
        write_wav(path, np.ones((channels, 8)), rate)
        with wave.open(str(path)) as fh:
            assert fh.getframerate() == rate and fh.getnchannels() == channels

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_data_refused_before_the_file_opens(self, tmp_path, bad):
        # an overflowed render used to be written as full-scale noise
        path = tmp_path / "bad.wav"
        data = np.ones((2, 8))
        data[1, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            write_wav(path, data, 48000)
        assert not path.exists()

    def test_multichannel(self, tmp_path):
        path = tmp_path / "st.wav"
        write_wav(path, np.vstack([np.ones(8), -np.ones(8)]), 8000)
        with wave.open(str(path)) as fh:
            assert fh.getnchannels() == 2
