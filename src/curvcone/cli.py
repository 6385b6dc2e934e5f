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
exits 2, even where a flag overrides it; ``true``/``false`` for
--require-member); keys naming no flag of it, or a required flag, are
ignored.  Precedence: flag (even abbreviated) > config > env > 0.

The parser is built once per process, on the first ``main`` call, and never
changed.  The config file and CURVCONE_SEED are read on every call and
parsed as flags of the chosen subcommand, ahead of the command line's own.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import verify as vf
from .cone import (
    ConeParams,
    _flag2_certificate,
    hat_f,
    implies_wpic,
    is_member,
    l_face,
    lower_bound_l,
    ricci_pinch_check,
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
    """Yield each operator of a JSON-lines file or stdin."""
    stream = sys.stdin if path in (None, "-") else open(path, "r", encoding="utf-8")
    try:
        for lineno, line in enumerate(stream, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                yield operator_from_json_dict(obj)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
    finally:
        if stream is not sys.stdin:
            stream.close()


def _cone_params(args) -> ConeParams:
    return ConeParams(eta=args.eta, mu=args.mu)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_decompose(args) -> int:
    with _output(args.output) as out:
        for m in _read_operators(args.input):
            out.write(json.dumps(decompose(m).to_json_dict()) + "\n")
    return EXIT_OK


def _check_record(m, params):
    # one block_spectra serves every field; a non-finite number (NaN where a
    # condition does not apply) is written as null, since strict JSON has no
    # NaN or infinity
    spectra = block_spectra(m)
    f1, f2, f3 = hat_f(m, params, blocks=spectra)
    return {
        "member": is_member(m, params, blocks=spectra),
        "F1": _finite_or_none(f1),
        "F2": _finite_or_none(f2),
        "F3": _finite_or_none(f3),
        "l": _finite_or_none(lower_bound_l(m, params, blocks=spectra)),
        "l_face": l_face(m, params, blocks=spectra),
        "wpic": implies_wpic(m, params, blocks=spectra),
        "flag2_certificate": _finite_or_none(_flag2_certificate(m, spectra)),
        "ricci_pinch_slack": _finite_or_none(ricci_pinch_check(m, params, blocks=spectra)),
        "upic_slack": _finite_or_none(uniform_pic_check(m, params, blocks=spectra)),
    }


def cmd_check(args) -> int:
    params = _cone_params(args)
    all_member = True
    with _output(args.output) as out:
        for m in _read_operators(args.input):
            rec = _check_record(m, params)
            all_member = all_member and rec["member"]
            out.write(json.dumps(rec) + "\n")
    if args.require_member and not all_member:
        return EXIT_SEMANTIC
    return EXIT_OK


def cmd_l(args) -> int:
    params = _cone_params(args)
    with _output(args.output) as out:
        for m in _read_operators(args.input):
            lv = lower_bound_l(m, params)
            out.write(json.dumps({"l": _finite_or_none(lv)}) + "\n")
    return EXIT_OK


def cmd_evolve(args) -> int:
    params = _cone_params(args)
    ops = list(_read_operators(args.input))
    if not ops:
        raise ValueError("line 0: no operator supplied")
    m = ops[0]
    cfg = TrajectoryConfig(
        dt=args.dt, t_max=args.t_max, rtol=args.tol, blowup_norm=args.blowup_norm
    )
    traj = integrate(m, cfg, params=params)
    s = traj.samples
    with _output(args.output) as out:
        out.write(",".join(_CSV_COLUMNS) + "\n")
        for t, upper, l, sc, bianchi, member in zip(s.t.tolist(), upper_triangle(s.operator).tolist(), s.l.tolist(),
                                                    s.scalar.tolist(), s.bianchi.tolist(), s.member.tolist()):
            out.write(",".join(map(repr, [t, *upper, l, sc, bianchi])) + (",1\n" if member else ",0\n"))
    max_l = max(s.l.tolist())
    final_norm = frobenius(s.operator[-1])
    print(
        f"status={traj.status} steps={len(s) - 1} "
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
                {"name": b.name, "margin": _finite_or_none(b.margin), "worst_x": _finite_or_none(b.worst_x)}
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

    c = sub.add_parser("check", help="cone membership report per operator")
    _add_io_flags(c)
    _add_cone_flags(c)
    c.add_argument("--require-member", action="store_true", help="exit 1 unless every operator is a member")

    lp = sub.add_parser("l", help="lower-bound functional l per operator")
    _add_io_flags(lp)
    _add_cone_flags(lp)

    e = sub.add_parser("evolve", help="integrate the reaction ODE from the first input operator")
    _add_io_flags(e)
    _add_cone_flags(e)
    e.add_argument("--dt", type=float, default=1e-3, help="initial step (default 1e-3)")
    e.add_argument("--t-max", type=float, default=0.1, dest="t_max")
    e.add_argument("--tol", type=float, default=1e-9, help="relative local-error tolerance")
    e.add_argument("--blowup-norm", type=float, default=1e8, dest="blowup_norm")

    s = sub.add_parser("sample", help="emit seeded random operators as JSON lines")
    _add_io_flags(s, with_input=False)
    _add_cone_flags(s)
    s.add_argument("--kind", default="raw",
                   choices=["member", "boundary-f1", "boundary-f2", "boundary-f3", "raw"])
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--samples", type=int, default=10)
    s.add_argument("--margin", type=float, default=0.1)

    cu = sub.add_parser("cutoff", help="grid-certify a cutoff function")
    cu.add_argument("--eps", type=float, required=True)
    cu.add_argument("--sigma", type=float, required=True)
    cu.add_argument("--r", type=float, required=True)
    cu.add_argument("--grid", type=int, default=10_000)
    cu.add_argument("--output", default=None,
                    help="optional CSV of (x, phi, phi', phi''); '-' writes it to stdout after the report")

    v = sub.add_parser("verify", help="run the certification suites")
    v.add_argument("--suite", default="all", choices=["all", *vf.SUITE_NAMES])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--samples", type=int, default=1000)
    v.add_argument("--output", default=None, help="write the JSON report here instead of stdout")

    return p


def _load_config(path) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value'")
            key, _, raw = line.partition("=")
            values[key.strip().replace("-", "_")] = raw.strip()
    return values


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # the process's one parser, never changed after it is built
    return build_parser()


# dispatched by name rather than stored in the shared parser, so that
# whoever wraps this module's functions (a span tracer) also wraps the table
_COMMANDS = {
    "decompose": cmd_decompose, "check": cmd_check, "l": cmd_l, "evolve": cmd_evolve,
    "sample": cmd_sample, "cutoff": cmd_cutoff, "verify": cmd_verify,
}


def _parse(argv):
    """Parse ``argv`` with CURVCONE_SEED, then the config file's values, as
    flags of the chosen subcommand ahead of the command line's own."""
    parser = _parser()
    args = parser.parse_args(argv)
    env_seed = os.environ.get("CURVCONE_SEED")
    pairs = [] if env_seed is None else [("seed", env_seed)]
    if args.config is not None:
        pairs += _load_config(args.config).items()
    if not pairs:
        return args
    (subs,) = (a.choices for a in parser._actions if a.dest == "command")
    sub = subs[args.command]
    actions = {a.dest: a for a in sub._actions}
    flags = []
    for key, raw in pairs:
        action = actions.get(key)
        if action is None or action.default is argparse.SUPPRESS or action.required:
            continue
        if action.nargs != 0:
            flags.append(f"{action.option_strings[0]}={raw}")
        elif raw.lower() not in ("true", "false"):
            sub.error(f"config {key}: expected true or false, got {raw!r}")
        elif raw.lower() == "true":
            flags.append(action.option_strings[0])
    if not flags:
        return args
    # the top level takes only --config and -h, so the subcommand is the first
    # token naming it that is not the value of --config or of an abbreviation
    # of it written without '='
    i = 0
    while argv[i] != args.command:
        i += 2 if len(argv[i]) > 2 and "--config".startswith(argv[i]) else 1
    return parser.parse_args(argv[:i + 1] + flags + argv[i + 1:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        # argparse exits 2 on a bad flag or config value: the format-error code
        return EXIT_FORMAT if exc.code else EXIT_OK
    except (ValueError, OSError) as exc:
        _err(str(exc))
        return EXIT_FORMAT
    except StepUnderflowError as exc:
        _err(str(exc))
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
