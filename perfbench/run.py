"""Layered benchmark of uniallpass: one workload per run, closed loop, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper-scale --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout and nowhere else; the
run fails at once, without a result, when ``src/uniallpass`` is missing.
Items run one after another for ``--seconds`` (whole cycles, see
``workloads``), each followed by its output check; then the CLI chain runs
``CLI_REPS`` times as subprocesses.  Set-up time is measured separately in
``SETUP_REPS`` fresh processes.  End-to-end times are scaled to a reference
machine speed (see ``REFERENCE_CAL_S``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
items untraced for half the time and traced for the other half, prints the
per-layer metrics from the traced half, and reports the difference between
the halves as ``trace.overhead_frac``.  The last line of standard output is
the JSON result; the environment, the seed and the spans are written under
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import wave

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# One process with single-threaded BLAS (set before numpy loads): on two
# cores, two BLAS threads were no faster for these matrix sizes and made every
# LAPACK call wait for the slower of two shared cores.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Interleaved calibration.  On the shared 2-vCPU virtual machine this
# benchmark was built on, the same code ran up to 1.5x faster or slower from
# one few-second stretch to the next, and run-to-run spreads of raw wall
# times reached 20-35%.  A fixed kernel timed between items measures the
# machine's current speed, and every end-to-end time is scaled by
# REFERENCE_CAL_S / (mean of the calibrations around it): seconds at the
# speed where the kernel takes REFERENCE_CAL_S, a typical speed of that
# machine.  Raw wall times go to the result file next to the scaled ones.
REFERENCE_CAL_S = 0.004

SETUP_REPS = 5
CLI_REPS = 3
CLI_IMPORT_REPS = 3
CLI_SUBCOMMANDS = ("design", "verify", "simulate", "poles", "export")
CLI_LENGTH = 48000

# Every function the items call, as <module>.<function>; each gets .calls,
# .busy_s and .p50_s in the traced run, zero where a workload skips it.
LAYER_FUNCTIONS = (
    "kernels.principal_minors_all",
    "kernels.impulse_kernel",
    "core.principal_minor_list",
    "core.gcp",
    "core.poles",
    "core.is_allpass",
    "core.numerator_poly",
    "core.impulse_response",
    "verify.dsim_from_lyapunov",
    "verify.dsim_from_hadamard_quotient",
    "verify.certify_uniallpass",
    "verify.check_minor_condition",
    "complete.random_orthogonal",
    "complete.random_uniallpass",
    "complete.siso_completion",
    "complete.orthogonal_completion",
    "homogeneous.design_homogeneous_siso",
    "designs.schroeder_series",
    "designs.gardner_nested",
    "designs.poletti_unitary",
    "designs.delay_dependent_allpass",
    "serialize.dumps_system",
    "serialize.loads_system",
    "serialize.write_wav",
    "serialize.impulse_csv",
)
LAYER_COUNTS = (
    ("kernels.minor_subsets", "count"),
    ("kernels.impulse_line_samples", "count"),
    ("core.poly_order", "count"),
    ("serialize.bytes", "bytes"),
    ("verify.dsim_recovered_ratio", "ratio"),
    ("complete.success_ratio", "ratio"),
)
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_s", "s"),
    ("item_tail_s", "s"),
    ("checked_frac", "fraction"),
    ("peak_rss_mb", "MB"),
    ("min_margin_decades", "decades"),
    ("cli_chain_s", "s"),
)


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for fn in LAYER_FUNCTIONS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.busy_s", "s"), (f"{fn}.p50_s", "s")]
    out += list(LAYER_COUNTS)
    out += [(f"cli.{sub}.wall_s", "s") for sub in CLI_SUBCOMMANDS]
    out += [("cli.import_s", "s"), ("trace.overhead_frac", "fraction")]
    return out


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def wall(cmd, env):
    """Wall time of a subprocess that must succeed; returns (seconds, stdout)."""
    start = time.perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[:4])} ... exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return elapsed, proc.stdout


def environment(seed, workload, trace):
    import numpy as np
    from uniallpass.kernels import HAVE_NUMBA

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "have_numba": bool(HAVE_NUMBA),
    }


class Clock:
    """Scales wall times to the reference machine speed (REFERENCE_CAL_S)."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._matrix = rng.standard_normal((80, 80))
        self._small = rng.standard_normal((4, 4)) / 4
        self._values = rng.standard_normal(800).tolist()
        self._kernel()  # the first call pays one-time loading; keep it out
        self.calibrations = []
        self.mark()

    def _kernel(self):
        # the three kinds of work the items spend their time in: LAPACK,
        # numpy calls on tiny arrays inside Python loops, float formatting
        self._np.linalg.eigvals(self._matrix)
        v = self._small[:, 0]
        for _ in range(800):
            v = self._np.dot(self._small, v) + 1.0
        ",".join(format(x, ".17g") for x in self._values)

    def calibrate(self):
        """Median of three wall times of a fixed kernel."""
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def mark(self):
        """Calibrate; call right before an interval that :meth:`scale` ends."""
        self.calibrations.append(self.calibrate())

    def scale(self, wall):
        """Scale a wall time measured since the last calibration by the mean
        of that calibration and a fresh one (which marks the next interval)."""
        self.mark()
        return wall * REFERENCE_CAL_S / statistics.fmean(self.calibrations[-2:])


def measure_setup(workload, seed, env, clock):
    """Median (scaled, wall) time of a fresh process importing uniallpass and
    generating the workload's first cycle of inputs (later cycles are
    generated between cycles, outside the item timings)."""
    code = f"import uniallpass\nfrom perfbench import workloads\nworkloads.cycle({workload!r}, {seed}, 0)"
    scaled, walls = [], []
    for _ in range(SETUP_REPS):
        walls.append(wall([sys.executable, "-c", code], env)[0])
        scaled.append(clock.scale(walls[-1]))
    return statistics.median(scaled), statistics.median(walls)


class Loop:
    """Closed loop with one client over whole cycles of a workload plan."""

    def __init__(self, workload, seed, tracer, clock, out_dir):
        self.workload, self.seed, self.tracer, self.clock, self.out_dir = workload, seed, tracer, clock, out_dir
        self.latencies = []  # scaled item latencies
        self.walls = []  # raw item latencies
        self.cycle_s = []  # scaled cycle times
        self.margins = []  # per positive item: min log10(tol / residual)
        self.attempted = 0
        self.failures = []

    def run(self, seconds):
        """Start a cycle while at least half of one fits in ``seconds``, so a
        run lasts ``seconds`` give or take half a cycle; at least one cycle
        runs."""
        from perfbench import checks, workloads

        start = time.perf_counter()
        cycle_walls = []
        while True:
            index = len(self.cycle_s)
            specs = workloads.cycle(self.workload, self.seed, index)
            self.clock.mark()
            cycle_start = time.perf_counter()
            for pos, spec in enumerate(specs):
                item = f"{index}.{pos}"
                self.tracer.item = item
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    with self.tracer.span("item." + spec["kind"]):
                        pairs = workloads.run_item(self.workload, spec, self.tracer, self.out_dir)
                    if pairs:
                        self.margins.append(checks.margin_decades(pairs))
                except checks.CheckFailed as exc:
                    self.failures.append(f"item {item} ({spec['kind']}): check failed: {exc}")
                except Exception:  # the loop must go on; the item counts as failed
                    self.failures.append(f"item {item} ({spec['kind']}): {traceback.format_exc()}")
                self.walls.append(time.perf_counter() - t0)
                self.latencies.append(self.clock.scale(self.walls[-1]))
            self.cycle_s.append(sum(self.latencies[-len(specs) :]))
            cycle_walls.append(time.perf_counter() - cycle_start)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(cycle_walls) / 2 > seconds:
                return


def cli_chain(env, tracer, clock, out_dir):
    """design homogeneous -> verify -> simulate -> poles -> export as
    subprocesses, each output checked; returns {step: (scaled, wall)}."""
    from perfbench import checks
    from perfbench.workloads import REFERENCE_DELAYS, REFERENCE_GAMMA

    system = os.path.join(out_dir, "cli_system.json")
    csv = os.path.join(out_dir, "cli_impulse.csv")
    wav = os.path.join(out_dir, "cli_impulse.wav")
    poles = os.path.join(out_dir, "cli_poles.csv")
    export = os.path.join(out_dir, "cli_export.json")
    delays = ",".join(str(m) for m in REFERENCE_DELAYS)
    steps = (
        ("design", ["design", "homogeneous", "--delays", delays, "--gamma", str(REFERENCE_GAMMA), "-o", system]),
        ("verify", ["verify", system]),
        ("simulate", ["simulate", system, "--length", str(CLI_LENGTH), "--csv", csv, "--wav", wav]),
        ("poles", ["poles", system, "--csv", poles]),
        ("export", ["export", system, "-o", export]),
    )
    outputs, times = {}, {}
    tracer.item = "cli-chain"
    with tracer.span("cli.chain"):
        for name, args in steps:
            with tracer.span(f"cli.{name}"):
                elapsed, outputs[name] = wall([sys.executable, "-m", "uniallpass.cli", *args], env)
            times[name] = (clock.scale(elapsed), elapsed)
    order = sum(REFERENCE_DELAYS)
    checks.require(outputs["verify"].rstrip().endswith("\nallpass"), "cli verify did not print allpass")
    with open(csv) as fh:
        checks.require(sum(1 for _ in fh) == CLI_LENGTH + 1, "cli simulate csv has the wrong length")
    with wave.open(wav, "rb") as fh:
        checks.require(fh.getnframes() == CLI_LENGTH, "cli simulate wav has the wrong length")
    with open(poles) as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:] if line]
    checks.require(len(rows) == order, f"cli poles lists {len(rows)} poles for order {order}")
    worst = max(abs(float(r[2]) - REFERENCE_GAMMA) for r in rows)
    checks.require(worst < checks.POLE_TOL, f"cli pole moduli deviate from gamma by {worst:.3g}")
    with open(system, "rb") as a, open(export, "rb") as b:
        checks.require(a.read() == b.read(), "cli export is not byte-identical to the design output")
    return times


TAIL_PERCENTILES = (99, 98, 95, 90, 80)


def tail(latencies):
    """(value, percentile, samples beyond) at the highest percentile of
    TAIL_PERCENTILES that leaves at least ten samples beyond it
    (nearest rank), else the median.  The fixed ladder keeps the percentile
    the same across runs whose item counts differ a little."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        k = math.ceil(pct * n / 100) - 1
        if n - 1 - k >= 10:
            return ordered[k], float(pct), n - 1 - k
    return statistics.median(ordered), 50.0, n // 2


def chain_time(chains, which):
    """Sum over the CLI steps of each step's median over the chains run
    (``which`` 0: scaled, 1: wall); 0 when no chain completed."""
    if not chains:
        return 0.0
    return sum(statistics.median(c[step][which] for c in chains) for step in CLI_SUBCOMMANDS)


def low_margin(margins):
    """The item margin at the lowest percentile of 100 - TAIL_PERCENTILES
    that leaves at least ten items below it, else the median: the mirror of
    :func:`tail`, since the minimum over seed-drawn items is an extreme value
    that moves with the seed."""
    ordered = sorted(margins)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        k = n - math.ceil(pct * n / 100)
        if k >= 10:
            return ordered[k]
    return statistics.median(ordered)


def kernel_probe(tracer):
    """The two kernel timings of the old kernel script: the impulse recursion
    on the reference design (48k samples) and the minor sweep at N = 13."""
    import numpy as np
    from perfbench.workloads import REFERENCE_DELAYS, REFERENCE_GAMMA
    from uniallpass import design_homogeneous_siso, kernels

    fdn = design_homogeneous_siso(REFERENCE_DELAYS, REFERENCE_GAMMA).fdn
    tracer.item = "kernel-probe"
    tracer.call(kernels.impulse_kernel, fdn.a, fdn.b, fdn.c, fdn.d, fdn.delays.as_array(), CLI_LENGTH)
    m = np.random.default_rng(0).standard_normal((13, 13))
    tracer.call(kernels.principal_minors_all, m)


def run_workload(args):
    from perfbench import checks, workloads
    from perfbench.trace import Tracer

    env = subprocess_env()
    os.makedirs(OUT, exist_ok=True)
    out_dir = os.path.join(OUT, f"{args.workload}-{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    record = {"env": environment(args.seed, args.workload, args.trace)}
    print("env: " + json.dumps(record["env"], sort_keys=True), flush=True)

    clock = Clock()
    setup_s, setup_wall = measure_setup(args.workload, args.seed, env, clock)
    tracer = Tracer(enabled=False)
    loops = [Loop(args.workload, args.seed, tracer, clock, out_dir)]
    if args.trace:
        loops[0].run(args.seconds / 2)
        tracer = Tracer(enabled=True)
        loops.append(Loop(args.workload, args.seed, tracer, clock, out_dir))
        loops[1].run(args.seconds / 2)
    else:
        loops[0].run(args.seconds)

    chains, failures = [], [f for loop in loops for f in loop.failures]
    for _ in range(CLI_REPS):
        try:
            chains.append(cli_chain(env, tracer, clock, out_dir))
        except (checks.CheckFailed, RuntimeError, subprocess.TimeoutExpired) as exc:
            failures.append(f"cli chain: {exc}")
    attempted = sum(loop.attempted for loop in loops) + CLI_REPS
    for line in failures[:5]:
        print("FAILED " + line, file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, loops, env)
    else:
        loop = loops[0]
        tail_s, tail_pct, beyond = tail(loop.latencies)
        record.update(
            tail={"percentile": tail_pct, "samples_beyond": beyond, "samples": len(loop.latencies)},
            cycles=len(loop.cycle_s),
            failed_frac=len(failures) / attempted,
            calibration_s=statistics.median(clock.calibrations),
            wall={
                "setup_s": setup_wall,
                "items_per_s": len(loop.walls) / sum(loop.walls),
                "item_p50_s": statistics.median(loop.walls),
                "item_tail_s": tail(loop.walls)[0],
                "cli_chain_s": chain_time(chains, 1),
            },
            min_item_margin_decades=min(loop.margins, default=0.0),
        )
        values = {
            "setup_s": setup_s,
            "items_per_s": len(loop.latencies) / sum(loop.latencies),
            "item_p50_s": statistics.median(loop.latencies),
            "item_tail_s": tail_s,
            "checked_frac": 1.0 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "min_margin_decades": low_margin(loop.margins) if loop.margins else 0.0,
            "cli_chain_s": chain_time(chains, 0),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(
            f"{args.workload} seed {args.seed}: {len(loop.latencies)} items in {len(loop.cycle_s)} cycles, "
            f"tail at p{tail_pct:.1f} with {beyond} samples beyond, failed_frac {record['failed_frac']:g}, "
            f"calibration {1000 * record['calibration_s']:.2f} ms (reference {1000 * REFERENCE_CAL_S:g} ms)"
        )
        for name, value in record["wall"].items():
            print(f"  wall {name:<43} {value:.6g}")
    for name, m in metrics.items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    record["metrics"] = metrics
    record["failures"] = failures
    stem = os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    if args.trace:
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def layer_metrics(tracer, loops, env):
    """Per-layer metrics from the traced loop, the CLI spans and two probes."""
    kernel_probe(tracer)
    import_s = statistics.median(
        wall([sys.executable, "-c", "import uniallpass"], env)[0] for _ in range(CLI_IMPORT_REPS)
    )
    spans = tracer.durations()
    counts = tracer.counts
    values = {}
    for fn in LAYER_FUNCTIONS:
        d = spans.get(fn, [])
        values[f"{fn}.calls"] = len(d)
        values[f"{fn}.busy_s"] = sum(d)
        values[f"{fn}.p50_s"] = statistics.median(d) if d else 0.0
    for name in ("kernels.minor_subsets", "kernels.impulse_line_samples", "core.poly_order", "serialize.bytes"):
        values[name] = counts.get(name, 0.0)
    values["verify.dsim_recovered_ratio"] = _ratio(counts, "verify.dsim_recovered", "verify.dsim_attempts")
    values["complete.success_ratio"] = _ratio(counts, "complete.successes", "complete.attempts")
    for sub in CLI_SUBCOMMANDS:
        d = spans.get(f"cli.{sub}", [])
        values[f"cli.{sub}.wall_s"] = statistics.median(d) if d else 0.0
    values["cli.import_s"] = import_s
    # same items, same order: compare the cycles both halves completed
    plain, traced = loops
    k = min(len(plain.cycle_s), len(traced.cycle_s))
    values["trace.overhead_frac"] = sum(traced.cycle_s[:k]) / sum(plain.cycle_s[:k]) - 1.0
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in per_layer_names()}


def _ratio(counts, hits, attempts):
    return counts.get(hits, 0.0) / counts[attempts] if counts.get(attempts) else 0.0


def run_all(args):
    """Every workload in its own process; prints each one's report and a
    combined result keyed <workload>.<metric>."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "uniallpass", "__init__.py")):
        print(f"error: no uniallpass sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import uniallpass
    from perfbench.workloads import WORKLOADS

    if not os.path.abspath(uniallpass.__file__).startswith(SRC + os.sep):
        print(f"error: uniallpass imported from {uniallpass.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    elif args.workload in WORKLOADS:
        result = run_workload(args)
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
