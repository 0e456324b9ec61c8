"""Seeded workload inputs and the items that run them against uniallpass.

:func:`cycle` turns (workload, seed, cycle index) into plain numbers only:
the program receives nothing but these inputs.  A cycle is a fixed sequence
of item kinds and sizes whose parameters the seed draws; fixing the
composition of a cycle keeps the work per cycle the same for every seed, so
throughput and latency compare across seeds and commits.

:func:`run_item` runs one item's stages through a :class:`trace.Tracer`,
checks every output with :mod:`checks`, and returns the (residual, tol)
pairs behind ``min_margin_decades``.  Items of the counterexample and the
perturbed wide systems are negative: they pass when the program rejects them.
"""

from __future__ import annotations

import os

import numpy as np

from uniallpass import FdnSystem, SystemMatrix, complete, core, designs, homogeneous, serialize, verify
from uniallpass.errors import NotCertifiableError, UnstableError

from . import checks

WORKLOADS = ("paper-scale", "long-delay", "wide-verify", "audio-render")

REFERENCE_DELAYS = (13, 22, 1, 10, 5, 3)  # the paper's N = 6, order 54 design
REFERENCE_GAMMA = 0.99
PAPER_LENGTH = 4800
AUDIO_LENGTH = 48000
AUDIO_RATE = 48000
# One long-delay cycle, N = 8: orders around 567, where the package was
# profiled.  Items of nearly equal cost make the median item a real median;
# with orders spread over 450-690 (4x in cost) it was one noisy item.
LONG_ORDERS = (540, 560, 580, 600)
LONG_GAMMA = 0.999
# One wide-verify cycle: (N, perturbed); a quarter of the items are perturbed.
WIDE_CYCLE = ((12, False), (13, False), (14, False), (13, True))
WIDE_PERTURBATION = 1e-3

# Minor sweeps and polynomial solves/fits that one call makes in the package
# version this benchmark was written against.  The per-layer counts kernels.minor_subsets (sum of 2^N per sweep)
# and core.poly_order (sum of the order per solve or fit) are computed from
# this table, not measured inside the package.
WORK = {
    "homogeneous.design_homogeneous_siso": (1, 1),
    "verify.check_minor_condition": (2, 0),
    "core.principal_minor_list": (1, 0),
    "core.gcp": (1, 0),
    "core.poles": (1, 1),
    "core.is_allpass": (2, 2),
    "core.numerator_poly": (1, 1),
}


def cycle(name, seed, index):
    """Item specs of cycle ``index`` of a workload; same arguments, same specs.
    Random sources outside :func:`_well_conditioned` are redrawn."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([int(seed), WORKLOADS.index(name), int(index)])
    make = {
        "paper-scale": _paper_cycle,
        "long-delay": _long_cycle,
        "wide-verify": _wide_cycle,
        "audio-render": _audio_cycle,
    }[name]
    return make(rng)


def _ints(rng, low, high, n):
    return [int(v) for v in rng.integers(low, high + 1, n)]


def _seed(rng):
    return int(rng.integers(0, 2**31))


def _paper_cycle(rng):
    def size():
        return int(rng.integers(3, 7))

    def gains(n):
        return [float(v) for v in rng.choice([-1.0, 1.0], n) * rng.uniform(0.3, 0.8, n)]

    def delays(n):
        return _ints(rng, 1, 30, n)

    cycle = [
        {
            "kind": "homogeneous",
            "delays": list(REFERENCE_DELAYS),
            "gamma": REFERENCE_GAMMA,
            "redraw": delays(6),
        }
    ]
    n = size()
    cycle.append(
        {"kind": "homogeneous", "delays": delays(n), "gamma": float(rng.uniform(0.98, 0.999)), "redraw": delays(n)}
    )
    for kind in ("schroeder", "gardner"):
        n = size()
        cycle.append({"kind": kind, "gains": gains(n), "delays": delays(n), "redraw": delays(n)})
    cycle.append(
        {
            "kind": "poletti",
            "gain": gains(1)[0],
            "unitary_seed": _seed(rng),
            "delays": delays(2),
            "redraw": delays(2),
        }
    )
    for kind in ("siso_completion", "orthogonal_completion"):
        while True:
            n = size()
            p = 1 if kind == "siso_completion" else int(rng.integers(1, 3))
            spec = {"kind": kind, "n": n, "p": p, "seed": _seed(rng), "delays": delays(n), "redraw": delays(n)}
            source = complete.random_uniallpass(n, p, spec["seed"], scaled=kind == "siso_completion")
            if _well_conditioned(source.a, spec["delays"], spec["redraw"]):
                break
        cycle.append(spec)
    # allpass at (1,1,1) and (2,2,1) to fixture precision, unstable at (2,1,1)
    for ce, ok in (((1, 1, 1), True), ((2, 2, 1), True), ((2, 1, 1), False)):
        cycle.append({"kind": "counterexample", "delays": list(ce), "allpass": ok})
    return cycle


def _long_cycle(rng):
    cycle = []
    for order in LONG_ORDERS:
        while True:  # split order into 8 delays of 30..95
            delays = 30 + rng.multinomial(order - 8 * 30, np.full(8, 1 / 8))
            if delays.max() <= 95:
                break
        cycle.append(
            {
                "kind": "homogeneous",
                "delays": [int(v) for v in delays],
                "gamma": LONG_GAMMA,
                "redraw": [int(v) for v in rng.permutation(delays)],
            }
        )
    return cycle


def _wide_cycle(rng):
    cycle = []
    for n, perturbed in WIDE_CYCLE:
        while True:
            spec = {"kind": "random", "n": n, "seed": _seed(rng), "delays": _ints(rng, 1, 4, n), "perturb": None}
            source = complete.random_uniallpass(n, 1, spec["seed"], scaled=True)
            if perturbed or _well_conditioned(source.a, spec["delays"]):
                break
        if perturbed:
            e = rng.standard_normal((n, n))
            spec["perturb"] = (WIDE_PERTURBATION / np.linalg.norm(e, 2) * e).tolist()
        cycle.append(spec)
    return cycle


def _audio_cycle(rng):
    # two chains per lattice, so the median item is a chain, not a value
    # between the two latency modes
    chains = [
        {
            "kind": "schroeder",
            "gains": [float(v) for v in rng.uniform(0.5, 0.7, 8)],
            "delays": _ints(rng, 1000, 1800, 8),
        }
        for _ in range(2)
    ]
    lattice = {
        "kind": "poletti",
        "gain": float(rng.uniform(0.5, 0.7)),
        "unitary_seed": _seed(rng),
        "delays": _ints(rng, 1000, 1800, 4),
    }
    return chains + [lattice]


def _well_conditioned(a, *delay_vectors):
    """Whether a random source lies in the range where the package's absolute
    1e-8 tolerances are meaningful: A is neither near-singular nor
    near-lossless (0.05 <= |det A| <= 0.95; the test suite redraws
    |det A| >= 0.99 for the same reason), and every pole stays 1e-4 inside
    the unit circle at each delay vector the item tests.  Outside that range
    the minor and allpass verdicts are limited by conditioning: scanning 3000
    unfiltered completions, about 0.5% failed them at tol 1e-8.

    The poles are eigenvalues of the delay-register transition matrix, which
    shares no code with the package's polynomial route.
    """
    if not 0.05 <= abs(np.linalg.det(a)) <= 0.95:
        return False
    for delays in delay_vectors:
        offsets = np.concatenate([[0], np.cumsum(delays)])
        step = np.zeros((offsets[-1], offsets[-1]))
        for i, m in enumerate(delays):
            head, tail = offsets[i], offsets[i + 1] - 1
            step[np.arange(head, tail), np.arange(head + 1, tail + 1)] = 1.0  # shift toward the line output
            step[tail, offsets[:-1]] = a[i]  # the line input mixes every line output
        if 1.0 - np.max(np.abs(np.linalg.eigvals(step))) < 1e-4:
            return False
    return True


# ---------------------------------------------------------------- items


def _call(tr, fn, *args, work=None, **kwargs):
    """Traced call of a public function.  ``work`` is the (N, order) of the
    system it processes, for the computed counts of :data:`WORK`."""
    if work is not None:
        sweeps, solves = WORK[tr.name(fn)]
        tr.count("kernels.minor_subsets", sweeps << work[0])
        tr.count("core.poly_order", solves * work[1])
    return tr.call(fn, *args, **kwargs)


def _size(fdn):
    return fdn.n_delays, fdn.order


def _construct(spec, tr):
    """(system, dsim or None, gamma or None) from a positive paper-scale spec."""
    kind = spec["kind"]
    if kind == "homogeneous":
        delays = spec["delays"]
        work = (len(delays), sum(delays))
        design = _call(tr, homogeneous.design_homogeneous_siso, delays, spec["gamma"], work=work)
        return design.fdn, design.dsim, spec["gamma"]
    if kind == "schroeder":
        return *_call(tr, designs.schroeder_series, spec["gains"], spec["delays"]), None
    if kind == "gardner":
        return *_call(tr, designs.gardner_nested, spec["gains"], spec["delays"]), None
    if kind == "poletti":
        return *_poletti(spec, tr), None
    tr.count("complete.attempts")
    if kind == "siso_completion":
        src = _call(tr, complete.random_uniallpass, spec["n"], 1, spec["seed"], scaled=True)
        fdn, trace = _call(tr, complete.siso_completion, src.a, delays=spec["delays"])
        dsim = trace.dsim
    else:
        src = _call(tr, complete.random_uniallpass, spec["n"], spec["p"], spec["seed"])
        fdn = _call(tr, complete.orthogonal_completion, src.a, spec["p"], delays=spec["delays"])
        dsim = None
    tr.count("complete.successes")
    return fdn, dsim, None


def _poletti(spec, tr):
    rng = np.random.default_rng(spec["unitary_seed"])
    u = _call(tr, complete.random_orthogonal, len(spec["delays"]), rng)
    return _call(tr, designs.poletti_unitary, u, spec["gain"], spec["delays"])


def _lyapunov(fdn, tr):
    """dsim from the Lyapunov route, or None when the route rejects the system."""
    tr.count("verify.dsim_attempts")
    try:
        dsim = _call(tr, verify.dsim_from_lyapunov, fdn.a, fdn.b)
    except (NotCertifiableError, UnstableError):
        return None
    tr.count("verify.dsim_recovered")
    return dsim


def _hadamard(fdn, tr):
    """dsim from the Hadamard-quotient route, or None when it rejects the system.

    The route returns similarity ratios normalized to dsim[0] = 1; for P = 1
    the output row of U W U^T = W, c diag(dsim) c^T + d^2 = 1, fixes the scale.
    """
    tr.count("verify.dsim_attempts")
    try:
        ratio = _call(tr, verify.dsim_from_hadamard_quotient, SystemMatrix.from_fdn(fdn))
    except (NotCertifiableError, np.linalg.LinAlgError):
        return None
    c = fdn.c.ravel()
    scale = (1.0 - float(fdn.d[0, 0]) ** 2) / float(c @ (ratio * c))
    if not scale > 0:
        return None
    tr.count("verify.dsim_recovered")
    return scale * ratio


def _impulse(fdn, length, tr):
    tr.count("kernels.impulse_line_samples", length * fdn.n_delays)
    return _call(tr, core.impulse_response, fdn, length)


def _round_trip(fdn, dsim, tr):
    text = _call(tr, serialize.dumps_system, fdn, dsim=dsim)
    tr.count("serialize.bytes", len(text))
    loaded = _call(tr, serialize.loads_system, text)
    checks.round_trip(text, loaded, fdn, dsim, serialize.dumps_system)


def _paper_item(spec, tr, out_dir):
    if spec["kind"] == "counterexample":
        return _counterexample_item(spec, tr)
    fdn, dsim, gamma = _construct(spec, tr)
    if dsim is None:
        dsim = _lyapunov(fdn, tr)
        checks.require(dsim is not None, "Lyapunov route rejected a certified system")
    redrawn = fdn.with_delays(spec["redraw"])
    margins = checks.certificate(_call(tr, verify.certify_uniallpass, fdn, dsim))
    margins += checks.minor_condition(_call(tr, verify.check_minor_condition, fdn, work=_size(fdn)))
    margins += checks.allpass(_call(tr, core.is_allpass, redrawn, work=_size(redrawn)))
    margins += checks.poles(_call(tr, core.poles, fdn, work=_size(fdn)), fdn.order, gamma)
    checks.impulse(_impulse(fdn, PAPER_LENGTH, tr), fdn.d, fdn.delays)
    _round_trip(fdn, dsim, tr)
    return margins


def _counterexample_item(spec, tr):
    fdn = _call(tr, designs.delay_dependent_allpass, spec["delays"])
    checks.require(_lyapunov(fdn, tr) is None, "counterexample recovered a certifying dsim")
    minors = _call(tr, verify.check_minor_condition, fdn, work=_size(fdn))
    checks.expect_false(minors.verdict, "minor condition")
    try:
        report = _call(tr, core.is_allpass, fdn, tol=checks.FIXTURE_TOL, work=_size(fdn))
    except UnstableError:
        report = None
    if spec["allpass"]:
        checks.require(report is not None, "counterexample unstable where it is allpass")
        checks.fixture_allpass(report)
    elif report is not None:
        checks.expect_false(checks.fixture_verdict(report), "allpass test where the counterexample is not allpass")
    checks.poles(_call(tr, core.poles, fdn, work=_size(fdn)), fdn.order)
    if spec["allpass"]:  # the unstable case would overflow
        checks.impulse(_impulse(fdn, PAPER_LENGTH, tr), fdn.d, fdn.delays)
    _round_trip(fdn, None, tr)
    return []


def _long_item(spec, tr, out_dir):
    delays = spec["delays"]
    design = _call(tr, homogeneous.design_homogeneous_siso, delays, spec["gamma"], work=(len(delays), sum(delays)))
    fdn = design.fdn
    redrawn = fdn.with_delays(spec["redraw"])
    margins = checks.certificate(_call(tr, verify.certify_uniallpass, fdn, design.dsim))
    margins += checks.allpass(_call(tr, core.is_allpass, redrawn, work=_size(redrawn)))
    margins += checks.poles(_call(tr, core.poles, fdn, work=_size(fdn)), fdn.order, spec["gamma"])
    den = _call(tr, core.gcp, fdn.a, fdn.delays, work=_size(fdn))
    checks.gcp(den, fdn.order, float(np.linalg.det(fdn.a)))
    num, _ = _call(tr, core.numerator_poly, fdn, work=_size(fdn))
    margins += checks.numerator_reversal(num[0, 0], den)
    return margins


def _wide_item(spec, tr, out_dir):
    fdn = _call(tr, complete.random_uniallpass, spec["n"], 1, spec["seed"], scaled=True, delays=spec["delays"])
    negative = spec["perturb"] is not None
    if negative:
        fdn = FdnSystem(fdn.a + np.asarray(spec["perturb"]), fdn.b, fdn.c, fdn.d, fdn.delays)
    dsim = _hadamard(fdn, tr)
    if dsim is None:
        dsim = _lyapunov(fdn, tr)
    cert = _call(tr, verify.certify_uniallpass, fdn, dsim) if dsim is not None else None
    minors = _call(tr, verify.check_minor_condition, fdn, work=_size(fdn))
    subsets, values = _call(tr, core.principal_minor_list, fdn.a, work=_size(fdn))
    checks.minor_list(subsets, values, fdn.a)
    if not negative:
        checks.require(cert is not None, "no route recovered a dsim for a certified system")
        margins = checks.certificate(cert)
        margins += checks.minor_condition(minors)
        margins += checks.allpass(_call(tr, core.is_allpass, fdn, work=_size(fdn)))
        return margins
    checks.expect_false(cert is not None and cert.verdict, "certificate")
    checks.expect_false(minors.verdict, "minor condition")
    try:
        checks.expect_false(_call(tr, core.is_allpass, fdn, work=_size(fdn)).allpass, "allpass test")
    except UnstableError:
        pass
    return []


def _audio_item(spec, tr, out_dir):
    if spec["kind"] == "schroeder":
        fdn, dsim = _call(tr, designs.schroeder_series, spec["gains"], spec["delays"])
    else:
        fdn, dsim = _poletti(spec, tr)
    margins = checks.certificate(_call(tr, verify.certify_uniallpass, fdn, dsim))
    h = _impulse(fdn, AUDIO_LENGTH, tr)
    checks.impulse(h, fdn.d, fdn.delays)
    if spec["kind"] == "schroeder":
        margins += checks.schroeder_impulse(h, spec["gains"], spec["delays"])
    p = fdn.n_io
    for q in range(p):
        path = os.path.join(out_dir, f"render_in{q}.wav")
        scale = _call(tr, serialize.write_wav, path, h[:, q, :], AUDIO_RATE)
        tr.count("serialize.bytes", os.path.getsize(path))
        checks.wav_file(path, p, AUDIO_LENGTH, scale, float(np.max(np.abs(h[:, q, :]))))
    text = _call(tr, serialize.impulse_csv, os.path.join(out_dir, "render.csv"), h)
    tr.count("serialize.bytes", len(text))
    checks.impulse_table(text, h)
    return margins


RUNNERS = {
    "paper-scale": _paper_item,
    "long-delay": _long_item,
    "wide-verify": _wide_item,
    "audio-render": _audio_item,
}


def run_item(workload, spec, tr, out_dir):
    """Run and check one item; returns its (residual, tol) margin pairs."""
    return RUNNERS[workload](spec, tr, out_dir)
