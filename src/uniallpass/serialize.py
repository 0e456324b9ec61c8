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
"""

from __future__ import annotations

import json
import math
import wave

import numpy as np

from .errors import SchemaError
from .system import FdnSystem

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


def loads_system(text: str):
    """Parse system JSON; returns (system, dsim-or-None, full payload)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(payload, dict):
        raise SchemaError("top-level JSON value must be an object")
    schema = payload.get("schema")
    if schema != SCHEMA:
        raise SchemaError(f"unknown schema version {schema!r}, expected {SCHEMA!r}")
    missing = [k for k in ("delays", "A", "B", "C", "D") if k not in payload]
    if missing:
        raise SchemaError(f"missing required fields: {', '.join(missing)}")
    try:
        fdn = FdnSystem(payload["A"], payload["B"], payload["C"], payload["D"], payload["delays"])
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    dsim = payload.get("dsim")
    if dsim is not None:
        dsim = np.asarray(dsim, dtype=float)
        if dsim.shape != (fdn.n_delays,):
            raise SchemaError(f"dsim has shape {dsim.shape}, expected ({fdn.n_delays},)")
    return fdn, dsim, payload


def load_system(path):
    with open(path) as fh:
        return loads_system(fh.read())


def write_csv(path_or_handle, header, row_format, rows):
    """Comma-separated table with a header row and LF line endings.

    Each row is one tuple formatted by ``row_format``; ``%.17g`` spells a
    float exactly as ``format(v, ".17g")`` does.
    """
    text = "\n".join([",".join(header)] + [row_format % row for row in rows]) + "\n"
    if hasattr(path_or_handle, "write"):
        path_or_handle.write(text)
    else:
        with open(path_or_handle, "w", newline="\n") as fh:
            fh.write(text)
    return text


def impulse_csv(path_or_handle, response):
    """Impulse response tensor (P, P, length) as one row per sample."""
    p_out, p_in, length = response.shape
    if p_out == 1 and p_in == 1:
        header = ["n", "y"]
    else:
        header = ["n"] + [f"y_out{i}_in{j}" for i in range(p_out) for j in range(p_in)]
    columns = np.reshape(response, (p_out * p_in, length)).T.tolist()
    rows = ((n, *values) for n, values in enumerate(columns))
    return write_csv(path_or_handle, header, "%d" + ",%.17g" * (p_out * p_in), rows)


def poles_csv(path_or_handle, pole_values):
    rows = ((p.real, p.imag, abs(p)) for p in pole_values)
    return write_csv(path_or_handle, ["re", "im", "modulus"], "%.17g,%.17g,%.17g", rows)


PEAK_TARGET = 10.0 ** (-1.0 / 20.0)  # -1 dBFS


def write_wav(path, data, rate: int):
    """16-bit PCM WAV, peak-normalized to -1 dBFS.

    ``data`` is (channels, samples) or (samples,).  Returns the normalization
    scale so the caller can record it alongside the file.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    peak = float(np.max(np.abs(data)))
    scale = PEAK_TARGET / peak if peak > 0 else 1.0
    samples = np.clip(np.round(data * scale * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(samples.shape[0])
        fh.setsampwidth(2)
        fh.setframerate(int(rate))
        fh.writeframes(samples.T.tobytes())
    return scale
