"""Command-line front end.

Subcommands: design (homogeneous | schroeder | gardner | poletti), complete,
verify, simulate, poles, export.  Systems travel as the canonical JSON schema
of :mod:`uniallpass.serialize`; design and complete outputs embed their
certification report under the ``verify`` key.  The certification
tolerance (default 1e-8) is set per invocation with ``--tol``.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import serialize
from .complete import (
    orthogonal_completion,
    random_orthogonal,
    random_uniallpass,
    siso_completion,
)
from .core import DEFAULT_TOL, check_tolerance, impulse_response, is_allpass, poles
from .designs import gardner_nested, poletti_unitary, schroeder_series
from .errors import FdnError, UnstableError
from .homogeneous import design_homogeneous_siso
from .system import DelayVector
from .verify import _certify, _minor_condition


def _tolerance(text):
    try:
        return check_tolerance(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _wav_rate(text):
    try:
        return serialize.check_wav_rate(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text):
    return [int(v) for v in text.replace(",", " ").split()]


def _float_list(text):
    return [float(v) for v in text.replace(",", " ").split()]


def _verify_report(fdn, dsim, tol):
    """Certification summary dict embedded in output JSON, and the
    certificate it reports: of ``dsim``, or of the Lyapunov dsim (or its
    rejected candidate) when ``dsim`` is None; None without a candidate.
    The minor condition's witness takes this certificate."""
    cert, rejection = _certify(fdn, dsim, tol)
    report = {}
    if rejection is not None:
        report["lyapunov"] = {"ok": False, "detail": rejection}
    if cert is not None:
        report["certificate"] = {
            "verdict": cert.verdict,
            "residual": cert.residual,
            "dsim": [float(v) for v in cert.dsim],
            "tol": tol,
        }
    try:
        minor = _minor_condition(fdn, cert, tol)
        report["minor_condition"] = {
            "verdict": minor.verdict,
            "route": minor.route,
            "sign": minor.sign,
            "deviation": minor.deviation,
            "scale": minor.scale,
            "sufficient": minor.sufficient,
        }
    except (np.linalg.LinAlgError, FdnError) as exc:
        report["minor_condition"] = {"verdict": False, "detail": str(exc)}
    return report, cert


def _write(path, text):
    """Write ``text`` to the file ``path``, or to stdout without one."""
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_system(args, fdn, dsim, meta=None):
    verify, cert = _verify_report(fdn, dsim, args.tol)
    dsim = None if cert is None else cert.dsim
    _write(args.output, serialize.dumps_system(fdn, dsim=dsim, meta=meta, verify=verify))
    if cert is None or not cert.verdict:
        print(f"warning: output did not certify at tolerance {args.tol:g}", file=sys.stderr)
        return 1
    return 0


def _cmd_design(args):
    if args.kind == "homogeneous":
        delays = DelayVector(args.delays)
        design = design_homogeneous_siso(
            delays, args.gamma, dsim=args.dsim, slack=args.slack, tol=args.tol
        )
        meta = {
            "design": "homogeneous",
            "gamma": args.gamma,
            "pole_modulus_min": design.pole_modulus_min,
            "pole_modulus_max": design.pole_modulus_max,
        }
        return _emit_system(args, design.fdn, design.dsim, meta=meta)
    if args.kind in ("schroeder", "gardner"):
        chain = schroeder_series if args.kind == "schroeder" else gardner_nested
        fdn, dsim = chain(args.gains, args.delays)
        return _emit_system(args, fdn, dsim, meta={"design": args.kind})
    if args.kind == "poletti":
        rng = np.random.default_rng(args.seed)
        u = random_orthogonal(args.size, rng)
        delays = args.delays if args.delays else [1] * args.size
        fdn, dsim = poletti_unitary(u, args.gain, delays)
        meta = {"design": "poletti", "gain": args.gain, "seed": args.seed}
        return _emit_system(args, fdn, dsim, meta=meta)
    raise ValueError(f"unknown design kind {args.kind}")


def _read_matrix(path):
    """Feedback matrix from JSON (bare 2-D array or {"A": ...}) or text.
    Anything but a non-empty, square, finite matrix raises SchemaError."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    try:
        if stripped.startswith("[") or stripped.startswith("{"):
            data = serialize._parse_json(text)
            if isinstance(data, dict):
                if "A" not in data:
                    raise serialize.SchemaError('matrix JSON object needs an "A" field')
                data = data["A"]
            matrix = np.asarray(data, dtype=float)
        else:
            with warnings.catch_warnings():
                # a file without numbers warns and reads as empty: refused below
                warnings.simplefilter("ignore", UserWarning)
                matrix = np.atleast_2d(np.loadtxt(path))
    except (ValueError, TypeError):
        # ragged rows, or an entry that is not a number
        raise serialize.SchemaError(f"matrix file {path} must hold rows of numbers of equal length") from None
    if matrix.ndim != 2 or matrix.size == 0 or matrix.shape[0] != matrix.shape[1]:
        raise serialize.SchemaError(f"matrix must be square and non-empty, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise serialize.SchemaError("matrix entries must be finite")
    return matrix


def _cmd_complete(args):
    if args.random is not None:
        fdn = random_uniallpass(
            args.random, args.p, args.seed, scaled=args.scaled, delays=args.delays
        )
        dsim = None
        meta = {"source": "random", "seed": args.seed}
    else:
        if args.matrix is None:
            raise ValueError("provide a matrix file or --random N")
        a = _read_matrix(args.matrix)
        delays = args.delays if args.delays else [1] * a.shape[0]
        if args.mode == "siso":
            if args.p != 1:
                raise ValueError(
                    "general completion is implemented for single-channel systems only; "
                    "use --mode orthogonal for P > 1"
                )
            fdn, trace = siso_completion(a, delays=delays, tol=args.tol)
            dsim = trace.dsim
        else:
            fdn = orthogonal_completion(a, args.p, delays=delays)
            dsim = np.ones(a.shape[0])
        meta = {"source": "completion", "mode": args.mode}
    return _emit_system(args, fdn, dsim, meta=meta)


def _cmd_verify(args):
    tol = args.tol
    fdn, dsim, _ = serialize.load_system(args.input)
    if args.delays:
        fdn = fdn.with_delays(args.delays)
    report, cert = _verify_report(fdn, dsim, tol)
    if cert is not None:
        print(
            f"certificate: verdict={cert.verdict} residual={cert.residual:.6g} "
            f"balanced={cert.balanced_residual:.6g} tol={tol:g}"
        )
    else:
        print(f"certificate: no similarity candidate ({report['lyapunov']['detail']})")
    minor = report["minor_condition"]
    if "deviation" in minor:
        label = "" if minor["sufficient"] else " (necessary condition only)"
        print(
            f"minor condition: verdict={minor['verdict']} route={minor['route']} sign={minor['sign']:+d} "
            f"deviation={minor['deviation']:.6g} scale={minor['scale']:.6g}{label}"
        )
    else:
        print(f"minor condition: unavailable ({minor['detail']})")
    try:
        rep = is_allpass(fdn, tol)
        print(
            f"allpass for delays {list(fdn.delays)}: verdict={rep.allpass} "
            f"grid={rep.grid_deviation:.6g} reversal={rep.reversal_deviation:.6g} sign={rep.sign:+d}"
        )
        ok = rep.allpass
    except UnstableError as exc:
        worst = max(abs(p) for p in exc.poles)
        print(
            f"allpass for delays {list(fdn.delays)}: verdict=False "
            f"(unstable, max pole modulus {worst:.6g})"
        )
        ok = False
    if not ok:
        print("not allpass")
        return 1
    print("allpass")
    return 0


def _cmd_simulate(args):
    fdn, _, _ = serialize.load_system(args.input)
    if args.wav and args.multichannel:
        # one channel per output in each file: the header's byte rate limit
        serialize.check_wav_rate(args.rate, fdn.n_io)
    # rendered before any file opens: an unstable network raises FdnError
    response = impulse_response(fdn, args.length)
    serialize.impulse_csv(args.csv or sys.stdout, response)
    if args.wav:
        p_out, p_in, _ = response.shape
        if args.multichannel:
            tracks = [(f"_in{j}", response[:, j, :]) for j in range(p_in)]
        else:
            tracks = [(f"_out{i}_in{j}", response[i, j]) for i in range(p_out) for j in range(p_in)]
        for suffix, track in tracks:
            path = args.wav if len(tracks) == 1 else _suffixed(args.wav, suffix)
            scale = serialize.write_wav(path, track, args.rate)
            meta = {"rate": args.rate, "scale": scale, "peak_target_dbfs": -1.0}
            _write(path + ".meta.json", serialize.canonical_json(meta))
    return 0


def _suffixed(path, suffix):
    root, ext = os.path.splitext(str(path))
    return root + suffix + ext


def _cmd_poles(args):
    fdn, _, _ = serialize.load_system(args.input)
    values = poles(fdn)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    serialize.poles_csv(args.csv or sys.stdout, values)
    return 0


def _cmd_export(args):
    fdn, dsim, payload = serialize.load_system(args.input)
    text = serialize.dumps_system(
        fdn, dsim=dsim, meta=payload.get("meta"), verify=payload.get("verify")
    )
    _write(args.output, text)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uniallpass",
        description="Design, complete and verify delay-independent allpass delay networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_design = sub.add_parser("design", help="construct a certified design")
    design_sub = p_design.add_subparsers(dest="kind", required=True)

    p_homog = design_sub.add_parser("homogeneous", help="uniform pole modulus design")
    p_homog.add_argument("--delays", type=_int_list, required=True)
    p_homog.add_argument("--gamma", type=float, required=True)
    p_homog.add_argument("--dsim", type=_float_list, default=None)
    p_homog.add_argument("--slack", type=float, default=0.9)

    p_sch = design_sub.add_parser("schroeder", help="series allpass chain")
    p_gar = design_sub.add_parser("gardner", help="nested allpass chain")
    for p in (p_sch, p_gar):
        p.add_argument("--gains", type=_float_list, required=True)
        p.add_argument("--delays", type=_int_list, required=True)

    p_pol = design_sub.add_parser("poletti", help="unitary multichannel lattice")
    p_pol.add_argument("--size", type=int, required=True)
    p_pol.add_argument("--gain", type=float, required=True)
    p_pol.add_argument("--delays", type=_int_list, default=None)
    p_pol.add_argument("--seed", type=int, default=0)

    for p in (p_homog, p_sch, p_gar, p_pol):
        p.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
        p.add_argument("-o", "--output", default=None)
    p_design.set_defaults(func=_cmd_design)

    p_comp = sub.add_parser("complete", help="complete a feedback matrix")
    p_comp.add_argument("matrix", nargs="?", default=None, help="matrix file (JSON or text)")
    p_comp.add_argument("--mode", choices=["siso", "orthogonal"], default="siso")
    p_comp.add_argument("--p", type=int, default=1)
    p_comp.add_argument("--delays", type=_int_list, default=None)
    p_comp.add_argument("--random", type=int, default=None, help="generate a random N-line system instead")
    p_comp.add_argument("--scaled", action="store_true", help="hide the random system behind a diagonal similarity")
    p_comp.add_argument("--seed", type=int, default=0)
    p_comp.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_comp.add_argument("-o", "--output", default=None)
    p_comp.set_defaults(func=_cmd_complete)

    p_ver = sub.add_parser("verify", help="certify a system file")
    p_ver.add_argument("input")
    p_ver.add_argument("--delays", type=_int_list, default=None)
    p_ver.add_argument("--tol", type=_tolerance, default=DEFAULT_TOL)
    p_ver.set_defaults(func=_cmd_verify)

    p_sim = sub.add_parser("simulate", help="render an impulse response")
    p_sim.add_argument("input")
    p_sim.add_argument("--length", type=int, required=True)
    p_sim.add_argument("--csv", default=None)
    p_sim.add_argument("--wav", default=None)
    p_sim.add_argument("--rate", type=_wav_rate, default=48000)
    p_sim.add_argument("--multichannel", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_pole = sub.add_parser("poles", help="list system poles as CSV")
    p_pole.add_argument("input")
    p_pole.add_argument("--csv", default=None)
    p_pole.set_defaults(func=_cmd_poles)

    p_exp = sub.add_parser("export", help="round-trip a system file to canonical form")
    p_exp.add_argument("input")
    p_exp.add_argument("-o", "--output", default=None)
    p_exp.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FdnError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
