"""Kernel timings of curvcone: microseconds per operator, single and stacked.

    python3 bench/run.py --label batched --baseline-src OTHER/src --baseline-label 4261e7c

Run from the root of a source checkout.  Each kernel is timed with
``time.perf_counter`` as the best of REPEATS runs: once as a loop of
N_SINGLE single-operator calls, and once as one call on a stack of N_STACKED
operators (indices for the samplers).  The CLI rows have only the single
form: one in-process ``cli.main`` call of ``check`` and of ``l`` on one
member record, and ``cli.build_parser()`` alone, which shows how much of
such a call building the parser takes.  ``philox`` gives the µs of one
evaluation of the samplers' Philox kernel on 1 block and on N_STACKED
blocks (packages without the kernel have no such row).  The ``integrate`` row counts a
whole trajectory as one operator: N_TRAJ member starts integrated one by
one, and as one stack.  Wall times are taken for each ``verify`` suite at the CLI
default ``--samples 1000``, for ``verify --suite all`` at ``--samples 100`` (the
size the certify benchmark runs), for ``evolve``'s integration of a blow-up from
|R| = 3e7, and for one Tier-1 run (``pytest`` in the checkout that holds the
package).  With ``--baseline-src`` the single-operator kernels and the wall
times are also taken for another checkout's package, in a subprocess, and
stored next to this one's.  Writes ``BENCH_<label>.json``; a full run takes
two or three minutes.

Not a test and not a gate: the numbers depend on the machine and its load.
BLAS is pinned to one thread, as in ``perfbench/run.py``.
"""

from __future__ import annotations

import os

os.environ.update({v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("algebra", "cone", "nullvector", "flow", "cutoff")
SUITE_SAMPLES = 1000
CERTIFY_SAMPLES = 100  # the sample count of perfbench's certify workload
N_SINGLE = 1000
N_STACKED = 10_000
N_TRAJ = 30  # as many member starts as certify's member-invariance checks
REPEATS = 5
SUITE_REPEATS = 3


def best_of(fn, repeats: int) -> float:
    """Least wall time of ``repeats`` calls of ``fn``, in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def inputs(n: int):
    """Members, non-members and the cone parameters, all from seed 0."""
    from curvcone import cone, sampling

    cfg = sampling.SamplerConfig(seed=0)
    params = cone.ConeParams(1.0, 2.0)
    members = sampling.random_member(cfg, params, index=np.arange(n))
    raw = sampling.random_bianchi(cfg, index=np.arange(n))
    nonmembers = raw - 3.0 * np.eye(6)  # shifted so that every one has l > 0
    return cfg, params, members, nonmembers


def cli_call(argv, line: str) -> None:
    """One in-process ``cli.main(argv)`` with ``line`` as stdin; the output is dropped."""
    from curvcone import cli

    saved = sys.stdin
    sys.stdin = io.StringIO(line)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"curvcone {' '.join(argv)} exited {code}")


def kernels(cfg, params, members, nonmembers):
    """name -> (single-operator call on operator/index i, stacked call)."""
    from curvcone import cli, cone, decomposition, flow, sampling, wedge

    idx = np.arange(len(members))
    ea, ec, sb = spectra = decomposition.block_spectra(nonmembers)
    ric = wedge.ricci(members)
    eye4 = np.eye(4)
    # Ricci pinching needs eta < 9/16, and members of that cone
    p05 = cone.ConeParams(0.5, 1.5)
    pinched = sampling.random_member(cfg, p05, index=idx)
    lines = [json.dumps(wedge.operator_to_json_dict(m)) + "\n" for m in members[:N_SINGLE]]
    return {
        "q_operator": (lambda i: wedge.q_operator(members[i]), lambda: wedge.q_operator(members)),
        "sharp (M#M)": (lambda i: wedge.sharp(members[i], members[i]), lambda: wedge.sharp(members, members)),
        "sharp (M#N)": (lambda i: wedge.sharp(members[i], nonmembers[i]),
                        lambda: wedge.sharp(members, nonmembers)),
        "block_spectra": (lambda i: decomposition.block_spectra(members[i]),
                          lambda: decomposition.block_spectra(members)),
        "decompose": (lambda i: decomposition.decompose(members[i]), lambda: decomposition.decompose(members)),
        "ricci": (lambda i: wedge.ricci(members[i]), lambda: wedge.ricci(members)),
        "scalar": (lambda i: wedge.scalar(members[i]), lambda: wedge.scalar(members)),
        "hat_f": (lambda i: cone.hat_f(members[i], params), lambda: cone.hat_f(members, params)),
        "is_member": (lambda i: cone.is_member(members[i], params), lambda: cone.is_member(members, params)),
        "lower_bound_l (member)": (lambda i: cone.lower_bound_l(members[i], params),
                                   lambda: cone.lower_bound_l(members, params)),
        "lower_bound_l (non-member)": (lambda i: cone.lower_bound_l(nonmembers[i], params),
                                       lambda: cone.lower_bound_l(nonmembers, params)),
        "lower_bound_l (non-member, blocks=)": (
            lambda i: cone.lower_bound_l(nonmembers[i], params, blocks=(ea[i], ec[i], sb[i])),
            lambda: cone.lower_bound_l(nonmembers, params, blocks=spectra)),
        "random_member": (lambda i: sampling.random_member(cfg, params, index=i),
                          lambda: sampling.random_member(cfg, params, index=idx)),
        "boundary_member": (lambda i: sampling.boundary_member(cfg, params, "F1", index=i),
                            lambda: sampling.boundary_member(cfg, params, "F1", index=idx)),
        "cli.main check (one record)": (lambda i: cli_call(["check"], lines[i]), None),
        "cli.main l (one record)": (lambda i: cli_call(["l"], lines[i]), None),
        "cli.build_parser": (lambda i: cli.build_parser(), None),
        "rk4_step": (lambda i: flow._rk4_step(members[i], 1e-3), lambda: flow._rk4_step(members, 1e-3)),
        "kulkarni_nomizu (Ric, g)": (lambda i: wedge.kulkarni_nomizu(ric[i], eye4),
                                     lambda: wedge.kulkarni_nomizu(ric, eye4)),
        "block_sharp_identity": (lambda i: decomposition.block_sharp_identity(members[i]),
                                 lambda: decomposition.block_sharp_identity(members)),
        "two_nonneg_flag (50 frames)": (lambda i: cone.two_nonneg_flag(members[i], 50, i),
                                        lambda: cone.two_nonneg_flag(members, 50, idx)),
        "uniform_pic_check": (lambda i: cone.uniform_pic_check(members[i], params),
                              lambda: cone.uniform_pic_check(members, params)),
        "ricci_pinch_check (eta 0.5)": (lambda i: cone.ricci_pinch_check(pinched[i], p05),
                                        lambda: cone.ricci_pinch_check(pinched, p05)),
        "random_bianchi": (lambda i: sampling.random_bianchi(cfg, index=i),
                           lambda: sampling.random_bianchi(cfg, index=idx)),
    }


def time_kernels(stacked: bool) -> dict:
    cfg, params, members, nonmembers = inputs(N_STACKED if stacked else N_SINGLE)
    single = kernels(cfg, params, members[:N_SINGLE], nonmembers[:N_SINGLE])
    out = {}
    for name, (one, _) in single.items():
        secs = best_of(lambda: [one(i) for i in range(N_SINGLE)], REPEATS)
        out[name] = {"per_operator_us": 1e6 * secs / N_SINGLE}
    if stacked:
        many = kernels(cfg, params, members, nonmembers)
        for name, (_, stack) in many.items():
            if stack is not None:
                out[name]["stacked_us"] = 1e6 * best_of(stack, REPEATS) / N_STACKED
    return out


def time_integrate(stacked: bool) -> dict:
    """µs per trajectory: N_TRAJ member starts one by one, and as one stack."""
    from curvcone import cone, flow, sampling, wedge

    params = cone.ConeParams(1.0, 2.0)
    cfg = sampling.SamplerConfig(seed=0)
    starts = sampling.random_member(cfg, params, index=np.arange(N_TRAJ))
    cfgs = [flow.TrajectoryConfig(dt=1e-3, t_max=min(0.05, 0.5 / nrm), rtol=1e-8, blowup_norm=1e6)
            for nrm in wedge.frobenius(starts).tolist()]
    row = {"per_operator_us": 1e6 * best_of(
        lambda: [flow.integrate(r0, c) for r0, c in zip(starts, cfgs)], REPEATS) / N_TRAJ}
    if stacked:
        row["stacked_us"] = 1e6 * best_of(lambda: flow._integrate_stack(starts, cfgs), REPEATS) / N_TRAJ
    return row


def time_philox() -> dict:
    """µs per evaluation of the Philox kernel, on 1 block and on N_STACKED blocks."""
    from curvcone import sampling

    if not hasattr(sampling, "philox"):
        return {}
    key = np.array([1, 2], dtype=np.uint64)
    out = {}
    for n, reps in ((1, 100), (N_STACKED, 10)):
        ctr = np.zeros((n, 4), dtype=np.uint64)
        ctr[:, 0] = np.arange(n)
        out[f"{n} blocks"] = 1e6 * best_of(lambda: [sampling.philox(key, ctr) for _ in range(reps)], REPEATS) / reps
    return out


def time_tier1(src: str) -> float:
    """Seconds of one Tier-1 run in the checkout whose package is ``src``."""
    src_dir = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=src_dir.parent, env=env, capture_output=True, text=True)
    secs = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"Tier-1 failed in {src_dir.parent}:\n{proc.stdout[-2000:]}")
    return secs


def time_wall() -> dict:
    from curvcone import cone, flow, sampling, verify, wedge

    out = {}
    for name in SUITES:
        out[f"verify {name} (samples={SUITE_SAMPLES})"] = best_of(
            lambda: verify.run(name, 1, SUITE_SAMPLES), SUITE_REPEATS)
    out[f"verify all (samples={CERTIFY_SAMPLES})"] = best_of(
        lambda: verify.run("all", 1, CERTIFY_SAMPLES), SUITE_REPEATS)
    params = cone.ConeParams(1.0, 2.0)
    m = sampling.random_nonmember(sampling.SamplerConfig(seed=0), params, index=0)
    start = m * (3e7 / wedge.frobenius(m))
    cfg = flow.TrajectoryConfig(dt=1e-3, t_max=100.0)
    out["evolve blow-up from |R| = 3e7"] = best_of(lambda: flow.integrate(start, cfg, params=params), SUITE_REPEATS)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure(src: str, stacked: bool) -> dict:
    sys.path.insert(0, str(Path(src).resolve()))
    kernels = time_kernels(stacked)
    kernels[f"integrate ({N_TRAJ} member starts, per trajectory)"] = time_integrate(stacked)
    wall = time_wall()
    wall["tier-1 pytest (one run)"] = time_tier1(src)
    return {"kernels": kernels, "philox_us_per_evaluation": time_philox(), "wall_s": wall}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="local")
    ap.add_argument("--src", default=str(ROOT / "src"), help="package source to time")
    ap.add_argument("--single-only", action="store_true", dest="single_only",
                    help="skip the stacked calls (for packages without them)")
    ap.add_argument("--baseline-src", default=None, dest="baseline_src")
    ap.add_argument("--baseline-label", default="baseline", dest="baseline_label")
    ap.add_argument("--output", default=None, help="default BENCH_<label>.json; '-' prints")
    args = ap.parse_args(argv)

    result = {
        "label": args.label,
        "method": (f"best of {REPEATS} perf_counter runs; per-operator: a loop of "
                   f"{N_SINGLE} single calls; stacked: one call on {N_STACKED} operators "
                   f"(indices for the samplers); integrate: per trajectory, {N_TRAJ} starts; "
                   f"wall_s: best of {SUITE_REPEATS}, Tier-1 one run"),
        "environment": environment(),
        **measure(args.src, not args.single_only),
    }
    if args.baseline_src:
        cmd = [sys.executable, __file__, "--src", args.baseline_src, "--single-only", "--output", "-"]
        base = json.loads(subprocess.run(cmd, capture_output=True, text=True, check=True).stdout)
        result["baseline"] = {"label": args.baseline_label, "kernels": base["kernels"], "wall_s": base["wall_s"]}
    text = json.dumps(result, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output or ROOT / f"BENCH_{args.label}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
