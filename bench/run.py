"""Kernel timings of curvcone: microseconds per operator, single and stacked.

    python3 bench/run.py --label batched --baseline-src OTHER/src --baseline-label 4261e7c

Run from the root of a source checkout.  Each kernel is timed with
``time.perf_counter`` as the best of REPEATS runs: once as a loop of
N_SINGLE single-operator calls, and once as one call on a stack of N_STACKED
operators (indices for the samplers).  The CLI rows have only the single
form: one in-process ``cli.main`` call of ``check`` and of ``l`` on one
member record, one of ``evolve --t-max 100`` on the blow-up start of the
wall-time row below (N_EVOLVE calls per run), and ``cli.build_parser()``
alone, a fresh build each time, which shows what building the parser
costs (``cli.main`` builds it once per process).  ``philox`` gives the µs of one
evaluation of the samplers' Philox kernel on 1 block and on N_STACKED
blocks (packages without the kernel have no such row).  The ``integrate`` row counts a
whole trajectory as one operator: N_TRAJ member starts integrated one by
one, and as one stack.  Wall times are taken for each ``verify`` suite at the CLI
default ``--samples 1000``, for ``verify --suite all`` at ``--samples 100`` (the
size the certify benchmark runs), for ``evolve``'s integration of a blow-up from
|R| = 3e7, and for one Tier-1 run (``pytest`` in the checkout that holds the
package).  With ``--baseline-src`` the single-operator kernels are also
taken for another checkout's package, in a subprocess, and stored next to
this one's.  Wall times are taken in worker subprocesses, one per package,
which time the rows they are sent: each row gets one untimed warm-up run per
package and then PAIRS timed runs per package, the two packages taking
turns and the first side alternating from pair to pair (AB, BA, AB, ...), so
that load drift falls on both sides alike.  Each side's min and quartiles and
the per-pair ratio (this / baseline) are recorded, with the count of pairs
this package won; a row whose ratios fall on both sides of 1 is marked
``noisy``.  Tier-1 runs one pair.  Writes ``BENCH_<label>.json``; a full run
with a baseline takes three or four minutes.

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
N_EVOLVE = 20
REPEATS = 5
PAIRS = 10
TIER1_ROW = "tier-1 pytest (one run)"
WALL_ROWS = (*(f"verify {name} (samples={SUITE_SAMPLES})" for name in SUITES),
             f"verify all (samples={CERTIFY_SAMPLES})", "evolve blow-up from |R| = 3e7", TIER1_ROW)


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
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
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
        row["stacked_us"] = 1e6 * best_of(lambda: flow.integrate(starts, cfgs), REPEATS) / N_TRAJ
    return row


def blowup_start():
    """The cone parameters and a seed-0 non-member scaled to |R| = 3e7, like extreme-scale's evolve start."""
    from curvcone import cone, sampling, wedge

    params = cone.ConeParams(1.0, 2.0)
    m = sampling.random_nonmember(sampling.SamplerConfig(seed=0), params, index=0)
    return params, m * (3e7 / wedge.frobenius(m))


def time_cli_evolve() -> dict:
    """µs per in-process ``evolve --t-max 100`` call from the blow-up start."""
    from curvcone import wedge

    line = json.dumps(wedge.operator_to_json_dict(blowup_start()[1])) + "\n"
    secs = best_of(lambda: [cli_call(["evolve", "--t-max", "100"], line) for _ in range(N_EVOLVE)], REPEATS)
    return {"per_operator_us": 1e6 * secs / N_EVOLVE}


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


def wall_rows(src: str) -> dict:
    """WALL_ROWS name -> a call that runs that row once, for the package ``src``."""
    from curvcone import flow, verify

    params, start = blowup_start()
    cfg = flow.TrajectoryConfig(dt=1e-3, t_max=100.0)
    calls = [lambda name=name: verify.run(name, 1, SUITE_SAMPLES) for name in SUITES] + [
        lambda: verify.run("all", 1, CERTIFY_SAMPLES),
        lambda: flow.integrate(start, cfg, params=params),
        lambda: time_tier1(src),
    ]
    return dict(zip(WALL_ROWS, calls))


def serve(src: str) -> None:
    """Worker loop: for each request on stdin, one JSON line back.

    A wall-time row name gets ``{"s": seconds}`` of one run of that row;
    ``kernels`` gets the single-operator kernel timings.  Anything the rows
    print goes to stderr, so stdout carries only replies.
    """
    reply = sys.stdout
    sys.stdout = sys.stderr
    rows = wall_rows(src)
    for line in sys.stdin:
        name = line.strip()
        if name == "kernels":
            out = measure(stacked=False)
        else:
            t0 = time.perf_counter()
            rows[name]()
            out = {"s": time.perf_counter() - t0}
        reply.write(json.dumps(out) + "\n")
        reply.flush()


class Worker:
    """A subprocess that imports the package ``src`` and times rows on request."""

    def __init__(self, src: str):
        self.proc = subprocess.Popen([sys.executable, __file__, "--src", src, "--worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def request(self, name: str) -> dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker for {name!r} exited with code {self.proc.wait()}")
        return json.loads(line)

    def time(self, row: str) -> float:
        return self.request(row)["s"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def spread(runs) -> dict:
    """min and quartiles of a list of seconds, with the runs themselves."""
    q1, med, q3 = np.percentile(runs, [25, 50, 75]).tolist()
    return {"min": min(runs), "q1": q1, "median": med, "q3": q3, "runs": list(runs)}


def time_wall(workers) -> dict:
    """Each wall-time row, PAIRS times per worker: this package's, then
    optionally the baseline's.

    With a baseline the two take turns on each row: one untimed warm-up run
    each, then PAIRS pairs whose first side alternates (AB, BA, AB, ...).
    The Tier-1 row runs one pair, with no warm-up.  A row whose pair ratios
    (this / baseline) fall on both sides of 1 is marked noisy.
    """
    out = {}
    for row in WALL_ROWS:
        tier1 = row == TIER1_ROW
        if not tier1:
            for w in workers:
                w.time(row)
        runs = [[] for _ in workers]
        for i in range(1 if tier1 else PAIRS):
            for j in (range(len(workers)) if i % 2 == 0 else reversed(range(len(workers)))):
                runs[j].append(workers[j].time(row))
        entry = {"this": spread(runs[0])}
        if len(workers) > 1:
            ratios = [a / b for a, b in zip(*runs)]
            entry["baseline"] = spread(runs[1])
            entry["pair_ratio"] = spread(ratios)
            entry["wins"] = sum(r < 1.0 for r in ratios)
            entry["noisy"] = min(ratios) < 1.0 < max(ratios)
        out[row] = entry
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


def measure(stacked: bool) -> dict:
    kernels = time_kernels(stacked)
    kernels[f"integrate ({N_TRAJ} member starts, per trajectory)"] = time_integrate(stacked)
    kernels["cli.main evolve (blow-up from |R| = 3e7)"] = time_cli_evolve()
    return {"kernels": kernels, "philox_us_per_evaluation": time_philox()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="local")
    ap.add_argument("--src", default=str(ROOT / "src"), help="package source to time")
    ap.add_argument("--single-only", action="store_true", dest="single_only",
                    help="skip the stacked calls (for packages without them)")
    ap.add_argument("--baseline-src", default=None, dest="baseline_src")
    ap.add_argument("--baseline-label", default="baseline", dest="baseline_label")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--output", default=None, help="default BENCH_<label>.json; '-' prints")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    if args.worker:
        serve(args.src)
        return 0

    result = {
        "label": args.label,
        "method": (f"kernels: best of {REPEATS} perf_counter runs; per-operator: a loop of "
                   f"{N_SINGLE} single calls; stacked: one call on {N_STACKED} operators "
                   f"(indices for the samplers); integrate: per trajectory, {N_TRAJ} starts; "
                   f"cli.main evolve: a loop of {N_EVOLVE} calls; "
                   f"wall_s: one worker subprocess per package, a warm-up run then {PAIRS} "
                   "timed runs per row, the packages alternating and the first side alternating "
                   "per pair; Tier-1 one run each; pair_ratio is this / baseline"),
        "environment": environment(),
        **measure(not args.single_only),
    }
    workers = [Worker(args.src)] + ([Worker(args.baseline_src)] if args.baseline_src else [])
    try:
        if args.baseline_src:
            result["baseline"] = {"label": args.baseline_label, "kernels": workers[1].request("kernels")["kernels"]}
        result["wall_s"] = time_wall(workers)
    finally:
        for w in workers:
            w.close()
    text = json.dumps(result, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output or ROOT / f"BENCH_{args.label}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
