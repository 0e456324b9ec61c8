"""Output checks derived from the paper's invariants.

Every check is tolerance based and computed from the program's outputs and
the benchmark's own inputs, never compared with stored bytes, so it holds for
any seed, any BLAS thread count and any future fast path that keeps the
mathematics.  A failed check raises :class:`CheckFailed`.

Positive checks also return the residuals they tested, as ``(residual, tol)``
pairs; :func:`margin_decades` turns them into the ``min_margin_decades``
metric.
"""

from __future__ import annotations

import math
import re
import wave

import numpy as np

CERT_TOL = 1e-8  # certificate, minor and allpass tolerance (the package default)
POLE_TOL = 1e-6  # homogeneous pole-modulus tolerance (the design's own check)
ENERGY_SLACK = 1e-9  # per-input impulse energy may exceed 1 by this much
REFERENCE_TOL = 1e-9  # impulse response against the benchmark's section cascade
FIXTURE_TOL = 5e-3  # the counterexample's entries are quoted to three decimals


class CheckFailed(AssertionError):
    """An output broke one of the invariants the benchmark checks."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def certificate(cert, tol=CERT_TOL):
    """Certified item: residual below tol and a strictly positive dsim."""
    dsim = np.asarray(cert.dsim, dtype=float)
    require(np.all(np.isfinite(dsim)) and np.all(dsim > 0), "dsim is not strictly positive")
    require(cert.residual < tol, f"certificate residual {cert.residual:.3g} >= {tol:g}")
    require(cert.verdict, "certificate verdict is False")
    return [(cert.residual, tol)]


def minor_condition(check, tol=CERT_TOL):
    """Certified item: the principal-minor lists match with sign +-1."""
    require(check.sign in (1, -1), f"minor sign {check.sign} is not +-1")
    require(check.deviation < tol, f"minor deviation {check.deviation:.3g} >= {tol:g}")
    require(check.verdict, "minor condition verdict is False")
    return [(check.deviation, tol)]


def minor_list(subsets, values, a):
    """All 2^N principal minors: the empty one is 1 and the full one is det A."""
    n = a.shape[0]
    require(len(subsets) == 1 << n and len(values) == 1 << n, f"{len(values)} minors for N = {n}")
    require(values[0] == 1.0, "minor of the empty subset is not 1")
    det = float(np.linalg.det(a))
    require(
        abs(values[-1] - det) <= 1e-9 * max(1.0, abs(det)),
        f"full principal minor {values[-1]:.17g} differs from det A {det:.17g}",
    )


def allpass(report, tol=CERT_TOL):
    """Item that must be allpass at the tested delays."""
    require(report.grid_deviation < tol, f"allpass grid deviation {report.grid_deviation:.3g}")
    require(
        report.reversal_deviation < tol,
        f"allpass reversal deviation {report.reversal_deviation:.3g}",
    )
    require(report.allpass, "allpass verdict is False")
    return [(report.grid_deviation, tol), (report.reversal_deviation, tol)]


def fixture_verdict(report):
    """Allpass verdict for the three-decimal counterexample: the coefficient
    reversal resolves it at fixture precision."""
    return report.reversal_deviation < FIXTURE_TOL and report.grid_deviation < 0.05


def fixture_allpass(report):
    """The counterexample at a delay vector where it is allpass."""
    require(
        fixture_verdict(report),
        f"counterexample not allpass at fixture precision "
        f"(reversal {report.reversal_deviation:.3g}, grid {report.grid_deviation:.3g})",
    )


def poles(values, order, gamma=None, tol=POLE_TOL):
    """``order`` finite poles; for a homogeneous design every modulus is gamma."""
    values = np.asarray(values)
    require(values.shape == (order,), f"{values.size} poles for order {order}")
    require(np.all(np.isfinite(values)), "non-finite pole")
    if gamma is None:
        return []
    err = float(np.max(np.abs(np.abs(values) - gamma)))
    require(err < tol, f"pole moduli deviate from gamma = {gamma} by {err:.3g}")
    return [(err, tol)]


def gcp(coeffs, order, det_a):
    """Monic generalized characteristic polynomial of degree ``order`` whose
    constant term is (-1)^N det A (the full-set principal minor)."""
    coeffs = np.asarray(coeffs, dtype=float)
    require(coeffs.shape == (order + 1,), f"gcp has {coeffs.size} coefficients for order {order}")
    require(coeffs[0] == 1.0, "gcp is not monic")
    require(
        abs(abs(coeffs[-1]) - abs(det_a)) <= 1e-9 * max(1.0, abs(det_a)),
        f"gcp constant term {coeffs[-1]:.17g} differs from |det A| {abs(det_a):.17g}",
    )


def numerator_reversal(num, den, tol=CERT_TOL):
    """SISO allpass: the numerator is +- the order-reversed denominator."""
    num = np.asarray(num, dtype=float).reshape(-1)
    den = np.asarray(den, dtype=float)
    require(num.shape == den.shape, f"numerator has {num.size} coefficients, expected {den.size}")
    dev = min(float(np.max(np.abs(num - s * den[::-1]))) for s in (1.0, -1.0))
    require(dev < tol, f"numerator is not the reversed denominator (deviation {dev:.3g})")
    return [(dev, tol)]


def impulse(h, d, delays):
    """Response tensor (P, P, length) of an allpass system: h[0] = D, silence
    until the shortest line returns, and per-input energy at most 1."""
    h = np.asarray(h)
    p = np.asarray(d).shape[0]
    require(h.ndim == 3 and h.shape[:2] == (p, p), f"response shape {h.shape} for P = {p}")
    require(np.all(np.isfinite(h)), "non-finite response sample")
    require(np.allclose(h[:, :, 0], d, rtol=0.0, atol=1e-12), "h[0] differs from D")
    gap = min(int(m) for m in delays)
    if gap > 1:
        lead = float(np.max(np.abs(h[:, :, 1:gap])))
        require(lead <= 1e-12, f"response is {lead:.3g} before the shortest delay {gap}")
    energy = np.einsum("pqn,pqn->q", h, h)
    require(
        float(energy.max()) <= 1.0 + ENERGY_SLACK,
        f"per-input energy {float(energy.max()):.12g} exceeds 1",
    )
    return energy


def section_cascade(gains, delays, length):
    """Impulse response of first-order allpass sections
    (g + z^-m) / (1 + g z^-m) in series, computed one section at a time in
    blocks of m samples.  Independent of the package's network recursion."""
    x = np.zeros(length)
    x[0] = 1.0
    for g, m in zip(gains, delays):
        m = int(m)
        y = np.empty(length)
        y[:m] = g * x[:m]
        for start in range(m, length, m):
            stop = min(start + m, length)
            prev = slice(start - m, stop - m)
            y[start:stop] = g * x[start:stop] + x[prev] - g * y[prev]
        x = y
    return x


def schroeder_impulse(h, gains, delays):
    """A Schroeder chain's response equals its section cascade, and its
    energy is at least 1 minus the energy the chain still holds at the last
    sample.

    The held energy is taken from the cascade rather than bounded from the
    slowest pole max |g|^(1/m): with gains 0.5-0.7 and delays 1000-1800 the
    chain still holds 1e-8 to 1e-6 after 48k samples, which a bound of the
    form C rho^(2L) only reaches with a constant too loose to catch a
    truncated response.
    """
    ref = section_cascade(gains, delays, h.shape[-1])
    dev = float(np.max(np.abs(h[0, 0] - ref)))
    require(dev < REFERENCE_TOL, f"response deviates from the section cascade by {dev:.3g}")
    held = 1.0 - float(ref @ ref)
    energy = float(h[0, 0] @ h[0, 0])
    require(
        energy >= 1.0 - held - ENERGY_SLACK,
        f"energy {energy:.12g} is below 1 minus the held energy {held:.3g}",
    )
    return [(dev, REFERENCE_TOL)]


# dumps_system writes -0.0 as "-0", which json reads back as the integer 0:
# the values survive (-0.0 == 0.0) but the text loses the sign.  Until the
# writer is fixed, the byte comparison reads a "-0" entry as "0".
_NEGATIVE_ZERO = re.compile(r"(?<=[\[,])-0(?=[,\]])")


def round_trip(text, loaded, fdn, dsim, dumps):
    """Canonical JSON round trip: equal arrays and byte-stable text."""
    fdn2, dsim2, _ = loaded
    for name in ("a", "b", "c", "d"):
        require(np.array_equal(getattr(fdn, name), getattr(fdn2, name)), f"{name} changed in round trip")
    require(tuple(fdn.delays) == tuple(fdn2.delays), "delays changed in round trip")
    if dsim is not None:
        require(np.array_equal(np.asarray(dsim, dtype=float).ravel(), dsim2), "dsim changed in round trip")
    again = dumps(fdn2, dsim=dsim2)
    require(again == _NEGATIVE_ZERO.sub("0", text), "re-serialized text differs")


def wav_file(path, channels, frames, scale, peak):
    """16-bit PCM file with the expected shape, peak-normalized to -1 dBFS."""
    with wave.open(str(path), "rb") as fh:
        require(fh.getnchannels() == channels, f"wav has {fh.getnchannels()} channels, expected {channels}")
        require(fh.getnframes() == frames, f"wav has {fh.getnframes()} frames, expected {frames}")
        require(fh.getsampwidth() == 2, "wav is not 16-bit")
        samples = np.frombuffer(fh.readframes(frames), dtype="<i2")
    target = 10.0 ** (-1.0 / 20.0)
    require(math.isclose(scale * peak, target, rel_tol=1e-12), f"wav scale {scale:.6g} misses -1 dBFS")
    top = int(np.max(np.abs(samples.astype(np.int32))))
    require(abs(top - round(target * 32767.0)) <= 1, f"wav peak sample {top} misses -1 dBFS")


def impulse_table(text, h):
    """CSV of the response: one header and one row per sample, rows exact."""
    p_out, p_in, length = h.shape
    lines = text.split("\n")
    require(len(lines) == length + 2 and lines[-1] == "", f"csv has {len(lines) - 2} rows, expected {length}")
    for n in (0, length // 2, length - 1):
        row = [float(v) for v in lines[n + 1].split(",")]
        want = [n] + [h[i, j, n] for i in range(p_out) for j in range(p_in)]
        require(row == want, f"csv row {n} differs from the response")


def expect_false(verdict, what):
    """Negative item: the verdict must be False."""
    require(not verdict, f"{what} accepted a system it must reject")


def margin_decades(pairs):
    """min over (residual, tol) of log10(tol / residual); exact zeros count as
    1e-30 so one exact result does not make the margin infinite."""
    return min(math.log10(tol / max(float(res), 1e-30)) for res, tol in pairs)
