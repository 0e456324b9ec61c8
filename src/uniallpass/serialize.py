"""Stable on-disk formats: canonical system JSON, CSV tables, PCM WAV.

The JSON writer is byte-stable: keys are sorted, floats carry 17 significant
digits (enough for bit-exact float64 round trips), lines end with LF.  Every
subcommand and module consumes and produces this one schema:

    {
      "schema": "uniallpass/1",
      "delays": [13, 22, ...],
      "A": [[...], ...], "B": [[...], ...], "C": [[...], ...], "D": [[...]],
      "dsim": [...],          # optional certificate similarity
      "meta": {...},          # optional free-form
      "verify": {...}         # optional certification report
    }

Every CSV cell is byte-exactly ``"%.17g" % v`` (a sample index prints as
``%d`` would).  A table is written in one vectorized numpy pass per chunk of
cells; the few cells whose last digit the pass cannot prove, and
non-finite cells, fall back to Python's exact formatting.
"""

from __future__ import annotations

import functools
import json
import math
import wave

import numpy as np

from .errors import SchemaError
from .system import FdnSystem, _frozen_array

SCHEMA = "uniallpass/1"


def _canon(value):
    if isinstance(value, dict):
        items = sorted(value.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + _canon(v) for k, v in items) + "}"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in value) + "]"
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            raise SchemaError(f"non-finite value {v} cannot be serialized")
        return format(v, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    raise SchemaError(f"cannot serialize value of type {type(value).__name__}")


def canonical_json(payload: dict) -> str:
    """Deterministic JSON text for a nested dict of plain values."""
    return _canon(payload) + "\n"


def system_payload(fdn: FdnSystem, dsim=None, meta=None, verify=None) -> dict:
    payload = {
        "schema": SCHEMA,
        "delays": [int(v) for v in fdn.delays],
        "A": fdn.a.tolist(),
        "B": fdn.b.tolist(),
        "C": fdn.c.tolist(),
        "D": fdn.d.tolist(),
    }
    if dsim is not None:
        payload["dsim"] = [float(v) for v in np.asarray(dsim).ravel()]
    if meta is not None:
        payload["meta"] = meta
    if verify is not None:
        payload["verify"] = verify
    return payload


def dumps_system(fdn: FdnSystem, dsim=None, meta=None, verify=None) -> str:
    return canonical_json(system_payload(fdn, dsim=dsim, meta=meta, verify=verify))


def save_system(path, fdn: FdnSystem, dsim=None, meta=None, verify=None):
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_system(fdn, dsim=dsim, meta=meta, verify=verify))


def _reject_constant(name):
    raise SchemaError(f"non-finite value {name} is not allowed")


def _parse_json(text: str):
    """json.loads without the NaN and Infinity literals that Python accepts
    and the writer never emits; malformed text raises SchemaError."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


def loads_system(text: str):
    """Parse system JSON; returns (system, dsim-or-None, full payload)."""
    payload = _parse_json(text)
    if not isinstance(payload, dict):
        raise SchemaError("top-level JSON value must be an object")
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise SchemaError(f"unknown schema version {schema!r}, expected {SCHEMA!r}")
    missing = [k for k in ("delays", "A", "B", "C", "D") if k not in payload]
    if missing:
        raise SchemaError(f"missing required fields: {', '.join(missing)}")
    dsim = payload.get("dsim")
    # an overflowing literal such as 1e999 parses to inf, which the blocks
    # and dsim refuse as they are built
    try:
        fdn = FdnSystem(payload["A"], payload["B"], payload["C"], payload["D"], payload["delays"])
        if dsim is not None:
            dsim = _frozen_array(dsim, name="dsim")
    except (ValueError, OverflowError) as exc:
        raise SchemaError(str(exc)) from None
    if dsim is not None and dsim.shape != (fdn.n_delays,):
        raise SchemaError(f"dsim has shape {dsim.shape}, expected ({fdn.n_delays},)")
    return fdn, dsim, payload


def load_system(path):
    with open(path) as fh:
        return loads_system(fh.read())


# Byte-exact "%.17g" over float64 arrays, after Loitsch's Grisu pattern
# (PLDI 2010): fast digits with a proven error bound, exact formatting only
# where the bound cannot decide.  |v| = f * 2**e (f in [0.5, 1)) times
# 10**s = (hi + lo) * 2**E is formed as a double-double (Dekker's product,
# no FMA) and scaled to D in [1e16, 1e17) with an absolute error below
# 2**-47, and D rounds to the 17 significant digits.  Cells whose fraction
# of D lies within _TIE of 1/2 (exact ties included) and non-finite cells
# are formatted by Python.
_S_MIN, _S_MAX = -295, 345  # s = 16 - floor(log10|v|) +- 1 for every nonzero finite double
_TIE = 2.0**-30
_SPLIT = 134217729.0  # 2**27 + 1
_CHUNK = 1 << 15  # cells per pass, so that scratch stays at a few MB
# One column of text slots per cell: sign, "0.000" prefix, 18 slots for the
# 17 digits and a point, "e+308", separator.  Unused slots stay NUL and are
# dropped.
_PREFIX, _MANTISSA, _EXPONENT, _SLOTS = 1, 6, 24, 30
_ROWS = np.arange(18, dtype=np.int32)[:, None]
_RANKS = np.arange(1, 18, dtype=np.uint8)[:, None]
# "%02d" of each exponent size below 330 in three slots, NUL in front below 100
_EXPONENT_DIGITS = np.arange(330, dtype=np.int32) // np.array([[100], [10], [1]], dtype=np.int32) % 10
_EXPONENT_DIGITS = (_EXPONENT_DIGITS + ord("0")).astype(np.uint8)
_EXPONENT_DIGITS[0, :100] = 0


@functools.cache
def _pow10_table():
    """(hi, high and low Dekker halves of hi, lo, E) with
    10**s = (hi + lo) * 2**E for s = _S_MIN.._S_MAX; hi and lo are correctly
    rounded from exact integer ratios."""
    count = _S_MAX - _S_MIN + 1
    hi = np.empty(count, dtype=np.float64)
    lo = np.empty(count, dtype=np.float64)
    ex = np.empty(count, dtype=np.int32)
    for i, s in enumerate(range(_S_MIN, _S_MAX + 1)):
        if s >= 0:
            ex[i] = (10**s).bit_length() - 1
            num, den = 10**s, 1 << int(ex[i])
        else:
            ex[i] = -((10**-s).bit_length())
            num, den = 1 << -int(ex[i]), 10**-s
        hi[i] = num / den
        a, b = float(hi[i]).as_integer_ratio()
        lo[i] = (num * b - a * den) / (den * b)
    cut = _SPLIT * hi
    hi_high = cut - (cut - hi)
    table = (hi, hi_high, hi - hi_high, lo, ex)
    for column in table:
        column.flags.writeable = False
    return table


def _scaled(f, e, k):
    """D = f * 2**e * 10**(16 - k) as a double-double (high, low)."""
    row = (16 - _S_MIN - k).astype(np.intp)
    hi, hi_high, hi_low, lo, ex = (column[row] for column in _pow10_table())
    cut = _SPLIT * f
    f_high = cut - (cut - f)
    f_low = f - f_high
    p = f * hi
    t = (((f_high * hi_high - p) + f_high * hi_low + f_low * hi_high) + f_low * hi_low) + f * lo
    high = p + t
    low = t - (high - p)
    shift = e + ex
    return np.ldexp(high, shift), np.ldexp(low, shift)


def _outside(high, low):
    """Masks D < 1e16 and D >= 1e17 for the double-double D = high + low."""
    below = (high < 1e16) | ((high == 1e16) & (low < 0.0))
    above = (high > 1e17) | ((high == 1e17) & (low >= 0.0))
    return below, above


def _digits(mag):
    """(17-digit significand n, decimal exponent k, exact-fallback mask) of
    the finite positive float64 vector mag, n rounded to nearest."""
    f, e = np.frexp(mag)
    # log10 may miss the decimal exponent by one
    k = np.floor(np.log10(mag)).astype(np.int32)
    high, low = _scaled(f, e, k)
    below, above = _outside(high, low)
    moved = below | above
    if moved.any():
        k[moved] += np.where(above[moved], np.int32(1), np.int32(-1))
        high[moved], low[moved] = _scaled(f[moved], e[moved], k[moved])
        below, above = _outside(high, low)
    # high >= 2**53 is an integer, so D = high + floor(low) + frac
    low_floor = np.floor(low)
    frac = low - low_floor
    n = high.astype(np.int64) + low_floor.astype(np.int64) + (frac > 0.5)
    carry = n == np.int64(10**17)
    n[carry] = np.int64(10**16)
    k += carry
    return n, k, (np.abs(frac - 0.5) < _TIE) | below | above


def _cells(x, sep):
    """ASCII bytes of format(v, ".17g") for each v of the float64 vector x,
    each followed by its separator byte from ``sep``."""
    finite = np.isfinite(x)
    live = finite & (x != 0.0)
    n = np.zeros(x.size, dtype=np.int64)
    k = np.zeros(x.size, dtype=np.int32)
    n[live], k[live], undecided = _digits(np.abs(x[live]))
    exact = np.concatenate([np.flatnonzero(~finite), np.flatnonzero(live)[undecided]])

    # digit j of n, from two halves below 10**9 (uint32 division)
    digits = np.empty((17, x.size), dtype=np.uint8)
    top = (n // np.int64(10**9)).astype(np.uint32)
    bottom = (n - top * np.int64(10**9)).astype(np.uint32)
    for rest, rows in ((top, range(7, -1, -1)), (bottom, range(16, 7, -1))):
        for j in rows:
            quotient = rest // np.uint32(10)
            digits[j] = rest - quotient * np.uint32(10)
            rest = quotient
    count = np.maximum(np.max((digits != 0) * _RANKS, axis=0), np.uint8(1)).astype(np.int32)
    sci = (k < -4) | (k > 16)
    lead = ~sci & (k < 0)
    shown = np.where(sci | lead, count, np.maximum(count, k + np.int32(1)))
    # the point follows digit `point`; 17 means no point
    point = np.where(sci, np.int32(0), np.where(lead, np.int32(17), k))
    point[count <= point + 1] = 17
    chars = np.zeros((18, x.size), dtype=np.uint8)
    chars[:17] = (digits + np.uint8(ord("0"))) * (_ROWS[:17] < shown)

    out = np.zeros((_SLOTS, x.size), dtype=np.uint8)
    out[0] = np.signbit(x) * np.uint8(ord("-"))
    prefix = out[_PREFIX:_MANTISSA]
    prefix[0] = lead * np.uint8(ord("0"))
    prefix[1] = lead * np.uint8(ord("."))
    for j in range(2, 5):
        prefix[j] = (lead & (k <= -j)) * np.uint8(ord("0"))
    mantissa = out[_MANTISSA:_EXPONENT]
    mantissa[:] = chars * (_ROWS <= point)
    mantissa += (_ROWS == point + 1) * np.uint8(ord("."))
    mantissa[1:] += chars[:-1] * (_ROWS[1:] > point + 1)
    exponent = out[_EXPONENT:-1]
    exponent[0] = sci * np.uint8(ord("e"))
    exponent[1] = sci * (np.uint8(ord("+")) + (k < 0) * np.uint8(ord("-") - ord("+")))
    exponent[2:] = _EXPONENT_DIGITS.take(np.abs(k), axis=1) * sci
    out[-1] = sep
    for i in exact:
        text = np.frombuffer(("%.17g" % float(x[i])).encode("ascii"), dtype=np.uint8)
        out[:-1, i] = 0
        out[: text.size, i] = text
    return out.T.tobytes().translate(None, b"\0")


def write_csv(path_or_handle, header, table):
    """Comma-separated table with a header row and LF line endings.

    Every cell of the 2-D float ``table`` reads exactly as
    ``format(v, ".17g")``; the cells are formatted in vectorized passes of
    about _CHUNK values.
    """
    table = np.asarray(table, dtype=np.float64)
    cols = table.shape[1]
    flat = table.ravel()
    step = max(1, _CHUNK // cols) * cols
    seps = np.tile(np.array([ord(",")] * (cols - 1) + [ord("\n")], dtype=np.uint8), step // cols)
    data = bytearray((",".join(header) + "\n").encode())
    for i in range(0, flat.size, step):
        data += _cells(flat[i : i + step], seps[: flat.size - i])
    if hasattr(path_or_handle, "write"):
        text = data.decode()
        path_or_handle.write(text)
        return text
    with open(path_or_handle, "wb") as fh:
        fh.write(data)
    return data.decode()


def impulse_csv(path_or_handle, response):
    """Impulse response tensor (P, P, length) as one row per sample."""
    p_out, p_in, length = response.shape
    if p_out == 1 and p_in == 1:
        header = ["n", "y"]
    else:
        header = ["n"] + [f"y_out{i}_in{j}" for i in range(p_out) for j in range(p_in)]
    # "%.17g" spells a sample index below 1e17 as "%d" does
    table = np.empty((length, 1 + p_out * p_in), dtype=np.float64)
    table[:, 0] = np.arange(length, dtype=np.float64)
    table[:, 1:] = np.reshape(response, (p_out * p_in, length)).T
    return write_csv(path_or_handle, header, table)


def poles_csv(path_or_handle, pole_values):
    z = np.asarray(pole_values)
    # hypot is abs() of one complex; the vectorized np.abs can differ in the last bit
    with np.errstate(over="ignore", invalid="ignore"):
        modulus = np.hypot(z.real, z.imag)
    return write_csv(path_or_handle, ["re", "im", "modulus"], np.stack([z.real, z.imag, modulus], axis=1))


PEAK_TARGET = 10.0 ** (-1.0 / 20.0)  # -1 dBFS


def check_wav_rate(rate, channels=1) -> int:
    """``rate`` as an int; raises ValueError unless it is an integer, not a
    bool, of at least 1 Hz that fits the WAV header of a 16-bit file with
    ``channels`` channels: the sample rate and the byte rate, rate *
    channels * 2, are unsigned 32-bit fields."""
    limit = (2**32 - 1) // (2 * channels)
    if isinstance(rate, bool) or not isinstance(rate, (int, np.integer)) or not 1 <= rate <= limit:
        raise ValueError(f"WAV sample rate must be an integer from 1 to {limit} Hz, got {rate!r}")
    return int(rate)


def write_wav(path, data, rate: int):
    """16-bit PCM WAV, peak-normalized to -1 dBFS.

    ``data`` is (channels, samples) or (samples,).  Returns the normalization
    scale so the caller can record it alongside the file.  A ``rate`` that
    :func:`check_wav_rate` refuses, or a non-finite sample, raises
    ValueError before the file is opened.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    rate = check_wav_rate(rate, data.shape[0])
    if not np.all(np.isfinite(data)):
        raise ValueError("WAV data must be finite")
    peak = float(np.max(np.abs(data)))
    scale = PEAK_TARGET / peak if peak > 0 else 1.0
    samples = np.clip(np.round(data * scale * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(samples.shape[0])
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(samples.T.tobytes())
    return scale
