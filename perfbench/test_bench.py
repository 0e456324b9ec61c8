"""Tests of the benchmark itself: the generator is deterministic and in range,
every output check rejects a corrupted result, and items pass on a seed that
was not used while the benchmark was tuned.

Run:  PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, run, workloads
from perfbench.trace import Tracer
from uniallpass import core, design_homogeneous_siso, designs, serialize, verify

HELD_OUT_SEED = 90210


def rejects(fn, *args, **kwargs):
    with pytest.raises(checks.CheckFailed):
        fn(*args, **kwargs)
    return True


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.cycle(name, 7, 3) == workloads.cycle(name, 7, 3)
    assert workloads.cycle(name, 7, 3) != workloads.cycle(name, 8, 3)
    assert workloads.cycle(name, 7, 3) != workloads.cycle(name, 7, 4)


def held_out(name, cycles=8):
    return [workloads.cycle(name, HELD_OUT_SEED, k) for k in range(cycles)]


def test_generator_sizes_stay_in_range_for_held_out_seed():
    for cycle in held_out("paper-scale"):
        for spec in cycle:
            if spec["kind"] == "counterexample":
                continue
            assert all(1 <= m <= 30 for m in spec["delays"] + spec["redraw"])
            n = len(spec["delays"])
            assert n == 2 if spec["kind"] == "poletti" else 3 <= n <= 6
    for cycle in held_out("long-delay"):
        assert [sum(s["delays"]) for s in cycle] == list(workloads.LONG_ORDERS)
        for spec in cycle:
            assert len(spec["delays"]) == 8 and all(30 <= m <= 95 for m in spec["delays"])
            assert sorted(spec["redraw"]) == sorted(spec["delays"])
    for cycle in held_out("wide-verify"):
        assert [(s["n"], s["perturb"] is not None) for s in cycle] == list(workloads.WIDE_CYCLE)
        for spec in cycle:
            assert all(1 <= m <= 4 for m in spec["delays"])
            if spec["perturb"] is not None:
                assert np.linalg.norm(spec["perturb"], 2) == pytest.approx(workloads.WIDE_PERTURBATION)
    for cycle in held_out("audio-render"):
        for spec in cycle:
            assert all(1000 <= m <= 1800 for m in spec["delays"])
        chains, lattices = cycle[:2], cycle[2:]
        assert [s["kind"] for s in cycle] == ["schroeder", "schroeder", "poletti"]
        assert all(len(s["delays"]) == 8 and all(0.5 <= g <= 0.7 for g in s["gains"]) for s in chains)
        assert all(len(s["delays"]) == 4 and 0.5 <= s["gain"] <= 0.7 for s in lattices)


def test_paper_scale_cycle_passes_on_held_out_seed(tmp_path):
    tr = Tracer(enabled=True)
    margins = []
    for spec in workloads.cycle("paper-scale", HELD_OUT_SEED, 0):
        margins += workloads.run_item("paper-scale", spec, tr, str(tmp_path))
    assert checks.margin_decades(margins) > 0
    names = {span[0] for span in tr.spans}
    assert {"core.is_allpass", "complete.siso_completion", "designs.delay_dependent_allpass"} <= names
    assert tr.counts["kernels.minor_subsets"] > 0


@pytest.mark.parametrize("perturbed", [False, True])
def test_wide_item_verdicts(perturbed, tmp_path):
    spec = workloads.cycle("wide-verify", HELD_OUT_SEED, 0)[3 if perturbed else 0]
    spec = dict(spec, n=6, delays=spec["delays"][:6])
    if perturbed:
        e = np.random.default_rng(1).standard_normal((6, 6))
        spec["perturb"] = (1e-3 / np.linalg.norm(e, 2) * e).tolist()
    margins = workloads.run_item("wide-verify", spec, Tracer(enabled=False), str(tmp_path))
    assert bool(margins) != perturbed


@pytest.fixture(scope="module")
def schroeder():
    gains, delays = [0.6, 0.55, 0.7], [11, 7, 19]
    fdn, dsim = designs.schroeder_series(gains, delays)
    return fdn, dsim, gains, delays


def test_certificate_and_minor_checks_reject_corruption(schroeder):
    fdn, dsim, _, _ = schroeder
    cert = verify.certify_uniallpass(fdn, dsim)
    checks.certificate(cert)
    assert rejects(checks.certificate, dataclasses.replace(cert, residual=2e-8))
    assert rejects(checks.certificate, dataclasses.replace(cert, dsim=-cert.dsim))
    minors = verify.check_minor_condition(fdn)
    checks.minor_condition(minors)
    assert rejects(checks.minor_condition, dataclasses.replace(minors, deviation=1e-6, verdict=False))
    assert rejects(checks.minor_condition, dataclasses.replace(minors, sign=0))
    subsets, values = core.principal_minor_list(fdn.a)
    checks.minor_list(subsets, values, fdn.a)
    assert rejects(checks.minor_list, subsets, values * (1 + 1e-6), fdn.a)
    assert rejects(checks.expect_false, True, "test")


def test_allpass_and_polynomial_checks_reject_corruption(schroeder):
    fdn, _, _, _ = schroeder
    report = core.is_allpass(fdn)
    checks.allpass(report)
    assert rejects(checks.allpass, dataclasses.replace(report, reversal_deviation=1e-7))
    assert rejects(checks.allpass, dataclasses.replace(report, allpass=False))
    poles = core.poles(fdn)
    checks.poles(poles, fdn.order)
    assert rejects(checks.poles, poles[1:], fdn.order)
    den = core.gcp(fdn.a, fdn.delays)
    det_a = float(np.linalg.det(fdn.a))
    checks.gcp(den, fdn.order, det_a)
    assert rejects(checks.gcp, den * 1.001, fdn.order, det_a)
    assert rejects(checks.gcp, np.append(den[:-1], den[-1] * 1.001), fdn.order, det_a)
    num, _ = core.numerator_poly(fdn)
    checks.numerator_reversal(num[0, 0], den)
    assert rejects(checks.numerator_reversal, num[0, 0] + 1e-7, den)


def test_homogeneous_pole_check_rejects_wrong_modulus():
    fdn = design_homogeneous_siso(workloads.REFERENCE_DELAYS, workloads.REFERENCE_GAMMA).fdn
    poles = core.poles(fdn)
    checks.poles(poles, fdn.order, workloads.REFERENCE_GAMMA)
    assert rejects(checks.poles, poles * (1 + 2e-6), fdn.order, workloads.REFERENCE_GAMMA)


def test_impulse_checks_reject_corruption(schroeder):
    fdn, _, gains, delays = schroeder
    h = core.impulse_response(fdn, 4800)
    checks.impulse(h, fdn.d, delays)
    checks.schroeder_impulse(h, gains, delays)
    bad = h.copy()
    bad[0, 0, 0] += 1e-6
    assert rejects(checks.impulse, bad, fdn.d, delays)
    bad = h.copy()
    bad[0, 0, 5] = 1e-9
    assert rejects(checks.impulse, bad, fdn.d, delays)
    assert rejects(checks.impulse, h * 1.001, fdn.d * 1.001, delays)
    assert rejects(checks.schroeder_impulse, h * (1 - 1e-6), gains, delays)
    truncated = h.copy()
    truncated[..., 200:] = 0.0
    assert rejects(checks.schroeder_impulse, truncated, gains, delays)


def test_file_checks_reject_corruption(schroeder, tmp_path):
    fdn, dsim, _, _ = schroeder
    text = serialize.dumps_system(fdn, dsim=dsim)
    loaded = serialize.loads_system(text)
    checks.round_trip(text, loaded, fdn, dsim, serialize.dumps_system)
    assert rejects(checks.round_trip, text.replace("[", "[ ", 1), loaded, fdn, dsim, serialize.dumps_system)
    moved = (fdn.with_delays([1, 2, 3]),) + loaded[1:]
    assert rejects(checks.round_trip, text, moved, fdn, dsim, serialize.dumps_system)

    h = core.impulse_response(fdn, 480)
    path = tmp_path / "x.wav"
    scale = serialize.write_wav(path, h[:, 0, :], 48000)
    peak = float(np.max(np.abs(h)))
    checks.wav_file(path, 1, 480, scale, peak)
    assert rejects(checks.wav_file, path, 2, 480, scale, peak)
    assert rejects(checks.wav_file, path, 1, 480, scale * 1.01, peak)
    table = serialize.impulse_csv(str(tmp_path / "x.csv"), h)
    checks.impulse_table(table, h)
    assert rejects(checks.impulse_table, table, h * 1.0000001)


def test_round_trip_accepts_negative_zero_entries():
    u = np.array([[0.0, 1.0], [1.0, 0.0]])
    fdn, dsim = designs.poletti_unitary(u, -0.5, [3, 4])
    text = serialize.dumps_system(fdn, dsim=dsim)
    assert "-0," in text or "-0]" in text
    checks.round_trip(text, serialize.loads_system(text), fdn, dsim, serialize.dumps_system)


def test_low_margin_keeps_ten_items_below():
    assert run.low_margin(list(range(100))) == 10
    assert run.low_margin([5.0, 3.0, 4.0]) == 4.0


def test_margin_decades():
    assert checks.margin_decades([(1e-12, 1e-8), (1e-10, 1e-8)]) == pytest.approx(2.0)
    assert checks.margin_decades([(0.0, 1e-8)]) == pytest.approx(22.0)


def test_tracer_records_spans_only_when_enabled():
    off = Tracer(enabled=False)
    assert off.call(max, 1, 2) == 2 and off.spans == []
    on = Tracer(enabled=True)
    on.item = "0.0"
    with on.span("item.x"):
        on.call(core.gcp, np.eye(2) * 0.5, [1, 2])
    (outer, _, _, parent0, _), (inner, start, end, parent1, item) = on.spans
    assert (outer, parent0, inner, parent1, item) == ("item.x", -1, "core.gcp", 0, "0.0")
    assert end >= start


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(100))) == (89, 90.0, 10)
    assert run.tail(list(range(270)))[1:] == (95.0, 13)
    assert run.tail(list(range(380)))[1:] == (95.0, 19)
    assert run.tail([3.0, 1.0, 2.0])[:2] == (2.0, 50.0)


def test_per_layer_names_are_unique():
    names = [n for n, _ in run.per_layer_names()]
    assert len(names) == len(set(names)) <= 128


def test_fails_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(__file__), tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "paper-scale", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
