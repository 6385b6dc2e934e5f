"""Command-line surface.

Subcommands: decompose, check, l, evolve, sample, cutoff, verify.
Operators stream as JSON lines ({"basis": "wedge4", "upper": [21 numbers]});
trajectories leave as CSV.  Exit codes: 0 success, 1 semantic failure
(non-member under --require-member, failing suite, failing cutoff bound),
2 input/format error, 3 numerical abort (step underflow, or a step past
the largest float under --t-max inf).

Behaviour is a pure function of (argv, input files, seed): no clocks and no
environment dependence, except that CURVCONE_SEED is the default --seed.
An optional config file (plain ``key = value`` lines, # comments) sets the
chosen subcommand's flag defaults, parsed as the flags are (a bad value
exits 2; ``true``/``false`` for --require-member); keys naming no flag of
it are ignored.  Precedence: flag (even abbreviated) > config > env > 0.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

import numpy as np

from . import verify as vf
from .cone import (
    ConeParams,
    hat_f,
    implies_wpic,
    is_member,
    l_face,
    lower_bound_l,
    ricci_pinch_check,
    two_nonneg_flag,
    uniform_pic_check,
)
from .cutoff import CutoffFunction, CutoffSpec, theorem_variant_check, verify_cutoff
from .decomposition import block_spectra, decompose
from .flow import StepUnderflowError, TrajectoryConfig, integrate
from .sampling import SamplerConfig, boundary_member, random_bianchi, random_member
from .verify import _finite_or_none
from .wedge import (
    frobenius,
    operator_from_json_dict,
    operator_to_json_dict,
    upper_triangle,
)

EXIT_OK, EXIT_SEMANTIC, EXIT_FORMAT, EXIT_NUMERIC = 0, 1, 2, 3

_CSV_COLUMNS = (
    ["t"]
    + [f"r{i+1}{j+1}" for i in range(6) for j in range(i, 6)]
    + ["l", "scalar", "bianchi", "member"]
)


def _err(msg: str) -> None:
    print(f"curvcone: {msg}", file=sys.stderr)


@contextlib.contextmanager
def _output(path):
    """The output stream: stdout for None or '-', else the file, closed after."""
    out = sys.stdout if path in (None, "-") else open(path, "w", encoding="utf-8")
    try:
        yield out
    finally:
        if out is not sys.stdout:
            out.close()


def _read_operators(path):
    """Yield (line_number, operator) from a JSON-lines file or stdin."""
    stream = sys.stdin if path in (None, "-") else open(path, "r", encoding="utf-8")
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                yield lineno, operator_from_json_dict(obj)
            except ValueError as exc:
                raise _LineError(lineno, str(exc)) from exc
    finally:
        if stream is not sys.stdin:
            stream.close()


class _LineError(Exception):
    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


def _cone_params(args) -> ConeParams:
    return ConeParams(eta=args.eta, mu=args.mu)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    with _output(args.output) as out:
        for _, m in _read_operators(args.input):
            out.write(json.dumps(decompose(m).to_json_dict()) + "\n")
    return EXIT_OK


def _check_record(m, params):
    # one block_spectra serves every field; a non-finite number (NaN where a
    # condition does not apply) is written as null, since strict JSON has no
    # NaN or infinity
    spectra = block_spectra(m)
    f1, f2, f3 = hat_f(m, params, blocks=spectra)
    _, cert = two_nonneg_flag(m, 1, seed=0, blocks=spectra)
    return {
        "member": is_member(m, params, blocks=spectra),
        "F1": _finite_or_none(f1),
        "F2": _finite_or_none(f2),
        "F3": _finite_or_none(f3),
        "l": _finite_or_none(lower_bound_l(m, params, blocks=spectra)),
        "l_face": l_face(m, params, blocks=spectra),
        "wpic": implies_wpic(m, params, blocks=spectra),
        "flag2_certificate": _finite_or_none(cert),
        "ricci_pinch_slack": _finite_or_none(ricci_pinch_check(m, params, blocks=spectra)),
        "upic_slack": _finite_or_none(uniform_pic_check(m, params, blocks=spectra)),
    }


def cmd_check(args) -> int:
    params = _cone_params(args)
    all_member = True
    with _output(args.output) as out:
        for _, m in _read_operators(args.input):
            rec = _check_record(m, params)
            all_member = all_member and rec["member"]
            out.write(json.dumps(rec) + "\n")
    if args.require_member and not all_member:
        return EXIT_SEMANTIC
    return EXIT_OK


def cmd_l(args) -> int:
    params = _cone_params(args)
    with _output(args.output) as out:
        for _, m in _read_operators(args.input):
            lv = lower_bound_l(m, params)
            out.write(json.dumps({"l": _finite_or_none(lv)}) + "\n")
    return EXIT_OK


def _csv_row(sample) -> str:
    vals = [repr(float(sample.t))]
    vals += [repr(float(x)) for x in upper_triangle(sample.operator)]
    vals.append(repr(float(sample.l)))
    vals.append(repr(float(sample.scalar)))
    vals.append(repr(float(sample.bianchi)))
    vals.append("1" if sample.member else "0")
    return ",".join(vals)


def cmd_evolve(args) -> int:
    params = _cone_params(args)
    ops = list(_read_operators(args.input))
    if not ops:
        raise _LineError(0, "no operator supplied")
    m = ops[0][1]
    cfg = TrajectoryConfig(
        dt=args.dt, t_max=args.t_max, rtol=args.tol, blowup_norm=args.blowup_norm
    )
    traj = integrate(m, cfg, params=params)
    with _output(args.output) as out:
        out.write(",".join(_CSV_COLUMNS) + "\n")
        for s in traj.samples:
            out.write(_csv_row(s) + "\n")
    max_l = max(s.l for s in traj.samples)
    final_norm = frobenius(traj.final.operator)
    print(
        f"status={traj.status} steps={len(traj.samples) - 1} "
        f"max_l={max_l!r} final_norm={final_norm!r} rejected={traj.rejected}",
        file=sys.stderr,
    )
    # a run whose next step would pass the largest float stops at its last finite time
    return EXIT_NUMERIC if traj.status == "time-overflow" else EXIT_OK


def cmd_sample(args) -> int:
    if args.samples < 0:
        raise ValueError(f"samples must be nonnegative, got {args.samples}")
    cfg = SamplerConfig(seed=args.seed, margin=args.margin)
    idx = np.arange(args.samples)
    if args.kind == "raw":
        ms = random_bianchi(cfg, index=idx)
    elif args.kind == "member":
        ms = random_member(cfg, _cone_params(args), index=idx)
    else:
        face = {"boundary-f1": "F1", "boundary-f2": "F2", "boundary-f3": "F3"}[args.kind]
        ms, _ = boundary_member(cfg, _cone_params(args), face, index=idx)
    with _output(args.output) as out:
        for m in ms:
            out.write(json.dumps(operator_to_json_dict(m)) + "\n")
    return EXIT_OK


def cmd_cutoff(args) -> int:
    spec = CutoffSpec(eps=args.eps, sigma=args.sigma, r=args.r, grid_n=args.grid)
    fn = CutoffFunction(spec)
    rep = verify_cutoff(fn)
    variant = theorem_variant_check(spec)
    print(json.dumps(
        {
            "eps": spec.eps,
            "sigma": spec.sigma,
            "r": spec.r,
            "grid_n": spec.grid_n,
            "passed": rep.passed,
            "bounds": [
                {"name": b.name, "margin": b.margin, "worst_x": b.worst_x}
                for b in rep.bounds
            ],
            "variant_c0": variant.c0,
        },
        indent=2, sort_keys=True,
    ))
    if args.output is not None:
        x = np.linspace(spec.r - spec.sigma, spec.r + 2.0 * spec.sigma, spec.grid_n)
        with _output(args.output) as out:
            out.write("x,phi,dphi,d2phi\n")
            for xi, v, d1, d2 in zip(x, fn.value(x), fn.d1(x), fn.d2(x)):
                out.write(f"{xi!r},{v!r},{d1!r},{d2!r}\n")
    return EXIT_OK if rep.passed else EXIT_SEMANTIC


def cmd_verify(args) -> int:
    report = vf.run(args.suite, seed=args.seed, samples=args.samples)
    sys.stdout.write(vf.report_table(report))
    with _output(args.output) as out:
        out.write(vf.report_json(report))
    return EXIT_OK if report["all_passed"] else EXIT_SEMANTIC


# ---------------------------------------------------------------------------
# parser and config plumbing
# ---------------------------------------------------------------------------

def _add_cone_flags(p):
    p.add_argument("--eta", type=float, default=1.0,
                   help="cone parameter eta (default 1.0); at eta = 0 the mixed-block test is exact, "
                        "so a mixed block that is zero only up to rounding reads as a non-member with l = inf")
    p.add_argument("--mu", type=float, default=2.0, help="cone parameter mu (default 2.0)")


def _add_io_flags(p, with_input=True):
    if with_input:
        p.add_argument("--input", default="-", help="operator JSON-lines file ('-' = stdin)")
    p.add_argument("--output", default="-", help="output file ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="curvcone",
        description="4D curvature operators: decomposition, cone membership, reaction flow, certification suites.",
    )
    p.add_argument("--config", default=None, help="optional key = value config file; explicit flags win")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="block data (A, B, C and spectra) per operator")
    _add_io_flags(d)
    d.set_defaults(func=cmd_decompose)

    c = sub.add_parser("check", help="cone membership report per operator")
    _add_io_flags(c)
    _add_cone_flags(c)
    c.add_argument("--require-member", action="store_true", help="exit 1 unless every operator is a member")
    c.set_defaults(func=cmd_check)

    lp = sub.add_parser("l", help="lower-bound functional l per operator")
    _add_io_flags(lp)
    _add_cone_flags(lp)
    lp.set_defaults(func=cmd_l)

    e = sub.add_parser("evolve", help="integrate the reaction ODE from the first input operator")
    _add_io_flags(e)
    _add_cone_flags(e)
    e.add_argument("--dt", type=float, default=1e-3, help="initial step (default 1e-3)")
    e.add_argument("--t-max", type=float, default=0.1, dest="t_max")
    e.add_argument("--tol", type=float, default=1e-9, help="relative local-error tolerance")
    e.add_argument("--blowup-norm", type=float, default=1e8, dest="blowup_norm")
    e.set_defaults(func=cmd_evolve)

    s = sub.add_parser("sample", help="emit seeded random operators as JSON lines")
    _add_io_flags(s, with_input=False)
    _add_cone_flags(s)
    s.add_argument("--kind", default="raw",
                   choices=["member", "boundary-f1", "boundary-f2", "boundary-f3", "raw"])
    s.add_argument("--seed", type=int, default=os.environ.get("CURVCONE_SEED", "0"))
    s.add_argument("--samples", type=int, default=10)
    s.add_argument("--margin", type=float, default=0.1)
    s.set_defaults(func=cmd_sample)

    cu = sub.add_parser("cutoff", help="grid-certify a cutoff function")
    cu.add_argument("--eps", type=float, required=True)
    cu.add_argument("--sigma", type=float, required=True)
    cu.add_argument("--r", type=float, required=True)
    cu.add_argument("--grid", type=int, default=10_000)
    cu.add_argument("--output", default=None,
                    help="optional CSV of (x, phi, phi', phi''); '-' writes it to stdout after the report")
    cu.set_defaults(func=cmd_cutoff)

    v = sub.add_parser("verify", help="run the certification suites")
    v.add_argument("--suite", default="all",
                   choices=["all", "algebra", "cone", "nullvector", "flow", "cutoff"])
    v.add_argument("--seed", type=int, default=os.environ.get("CURVCONE_SEED", "0"))
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
    v.set_defaults(func=cmd_verify)

    return p


def _load_config(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise _LineError(lineno, "expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


def _set_config_defaults(parser, command, config) -> None:
    """Make the config values for ``command``'s flags that subparser's defaults.

    argparse checks neither ``choices`` nor a flag that takes no value
    against a default, so those two are checked here.
    """
    (sub,) = (a.choices[command] for a in parser._actions if a.dest == "command")
    for action in sub._actions:
        raw = config.get(action.dest)
        if raw is None or action.default is argparse.SUPPRESS:
            continue
        if action.nargs == 0:
            if raw.lower() not in ("true", "false"):
                sub.error(f"config {action.dest}: expected true or false, got {raw!r}")
            raw = raw.lower() == "true"
        elif action.choices is not None and raw not in action.choices:
            sub.error(f"config {action.dest}: invalid choice {raw!r} "
                      f"(choose from {', '.join(action.choices)})")
        sub.set_defaults(**{action.dest: raw})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config is not None:
            _set_config_defaults(parser, args.command, _load_config(args.config))
            args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on a bad flag or config value: the format-error code
        return EXIT_FORMAT if exc.code else EXIT_OK
    except (_LineError, ValueError, OSError) as exc:
        _err(str(exc))
        return EXIT_FORMAT
    except StepUnderflowError as exc:
        _err(str(exc))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
