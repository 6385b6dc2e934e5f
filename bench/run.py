"""Timings of curvcone, this checkout against a baseline, in interleaved pairs.

    python3 bench/run.py --label batched --baseline-src OTHER/src --baseline-label 4261e7c

Run from the root of a source checkout.  Each package is imported by one
worker subprocess, which builds a table of rows (``rows``) and times one run
of a row, with ``time.perf_counter``, each time it is sent the row's name.
Every row is timed the same way (``time_rows``): PAIRS timed runs per
package, the two packages taking turns and the first side alternating from
pair to pair (AB, BA, AB, ...), so that load drift falls on both sides
alike.  The pairs run in BLOCKS blocks, each on a fresh pair of workers that
gives every row one untimed warm-up run per package first, so that an offset
of one worker process shows as a disagreement between blocks.  Tier-1
(``pytest`` in the checkout that holds the package) runs one pair, in the
first block, with no warm-up.  Each side's min and quartiles and the
per-pair ratio (this / baseline) are recorded, with the count of pairs this
package won; a row whose ratios fall on both sides of 1 is marked ``noisy``,
and one whose blocks' median ratios fall on opposite sides of 1 ``split``.
Without ``--baseline-src`` only this package's runs are taken.

Kernel rows are recorded in µs per operator.  Each kernel has two rows: a
loop of N_SINGLE single-operator calls, and one call on a stack of N_STACKED
operators (indices for the samplers), named ``<kernel> [stacked]``.  The CLI
rows have only the single form: one in-process ``cli.main`` call of
``check`` and of ``l`` on one member record, of ``check`` on one member
record scaled by 1e-300 (where the scale rescue runs),
``cli.build_parser()`` alone (a fresh build each time, which shows what
building the parser costs; ``cli.main`` builds it once per process), and a loop of N_EVOLVE calls of
``evolve --t-max 100`` on the blow-up start of the wall-time row below.  The
``integrate`` rows count a whole trajectory as one operator: N_TRAJ member
starts integrated one by one, and as one stack.  The ``philox`` rows count
one evaluation of the samplers' Philox kernel, on 1 block and on N_STACKED
blocks.  Wall-time rows are recorded in seconds: each ``verify`` suite at the
CLI default ``--samples 1000``, ``verify --suite all`` at ``--samples 100``
(the size the certify benchmark runs), ``evolve``'s integration of a blow-up
from |R| = 3e7, and Tier-1.  Writes ``BENCH_<label>.json``; a full run with
a baseline takes about five minutes.

Not a test and not a gate: the numbers depend on the machine and its load.
The workers pin BLAS to one thread, as ``perfbench/run.py`` does.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("algebra", "cone", "nullvector", "flow", "cutoff")
SUITE_SAMPLES = 1000
CERTIFY_SAMPLES = 100  # the sample count of perfbench's certify workload
N_SINGLE = 1000
N_STACKED = 10_000
N_TRAJ = 30  # as many member starts as certify's member-invariance checks
N_EVOLVE = 20
PAIRS = 10
BLOCKS = 2  # PAIRS // BLOCKS pairs per fresh pair of workers
TIER1_ROW = "tier-1 pytest (one run)"


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
    tiny_lines = [json.dumps(wedge.operator_to_json_dict(1e-300 * m)) + "\n" for m in members[:N_SINGLE]]
    return {
        "frobenius": (lambda i: wedge.frobenius(members[i]), lambda: wedge.frobenius(members)),
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
        "cli.main check (one record at 1e-300)": (lambda i: cli_call(["check"], tiny_lines[i]), None),
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
        "is_c01": (lambda i: cone.is_c01(members[i], 1e-8), lambda: cone.is_c01(members, 1e-8)),
        "random_bianchi": (lambda i: sampling.random_bianchi(cfg, index=i),
                           lambda: sampling.random_bianchi(cfg, index=idx)),
    }


def blowup_start():
    """The cone parameters and a seed-0 non-member scaled to |R| = 3e7, like extreme-scale's evolve start."""
    from curvcone import cone, sampling, wedge

    params = cone.ConeParams(1.0, 2.0)
    m = sampling.random_nonmember(sampling.SamplerConfig(seed=0), params, index=0)
    return params, m * (3e7 / wedge.frobenius(m))


def tier1(src: str) -> None:
    """One Tier-1 run in the checkout whose package is ``src``."""
    src_dir = Path(src).resolve()
    env = dict(os.environ, PYTHONPATH=str(src_dir))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
                          cwd=src_dir.parent, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"Tier-1 failed in {src_dir.parent}:\n{proc.stdout[-2000:]}")


def rows(src: str) -> dict:
    """Row name -> (a call that runs the row once, the operators it covers).

    A wall-time row covers None operators: it is recorded in seconds.
    """
    from curvcone import flow, sampling, verify, wedge

    cfg, params, members, nonmembers = inputs(N_STACKED)
    table = {}
    for name, (one, stack) in kernels(cfg, params, members, nonmembers).items():
        table[name] = (lambda one=one: [one(i) for i in range(N_SINGLE)], N_SINGLE)
        if stack is not None:
            table[f"{name} [stacked]"] = (stack, N_STACKED)

    starts = members[:N_TRAJ]
    cfgs = [flow.TrajectoryConfig(dt=1e-3, t_max=min(0.05, 0.5 / nrm), rtol=1e-8, blowup_norm=1e6)
            for nrm in wedge.frobenius(starts).tolist()]
    traj = f"integrate ({N_TRAJ} member starts, per trajectory)"
    table[traj] = (lambda: [flow.integrate(r0, c) for r0, c in zip(starts, cfgs)], N_TRAJ)
    table[f"{traj} [stacked]"] = (lambda: flow.integrate(starts, cfgs), N_TRAJ)

    blowup_params, blowup = blowup_start()
    line = json.dumps(wedge.operator_to_json_dict(blowup)) + "\n"
    table["cli.main evolve (blow-up from |R| = 3e7)"] = (
        lambda: [cli_call(["evolve", "--t-max", "100"], line) for _ in range(N_EVOLVE)], N_EVOLVE)

    key = np.array([1, 2], dtype=np.uint64)
    for n, reps in ((1, 100), (N_STACKED, 10)):
        ctr = np.zeros((n, 4), dtype=np.uint64)
        ctr[:, 0] = np.arange(n)
        table[f"philox ({n}-block evaluation)"] = (
            lambda ctr=ctr, reps=reps: [sampling.philox(key, ctr) for _ in range(reps)], reps)

    for name in SUITES:
        table[f"verify {name} (samples={SUITE_SAMPLES})"] = (
            lambda name=name: verify.run(name, 1, SUITE_SAMPLES), None)
    table[f"verify all (samples={CERTIFY_SAMPLES})"] = (lambda: verify.run("all", 1, CERTIFY_SAMPLES), None)
    evolve_cfg = flow.TrajectoryConfig(dt=1e-3, t_max=100.0)
    table["evolve blow-up from |R| = 3e7"] = (
        lambda: flow.integrate(blowup, evolve_cfg, params=blowup_params), None)
    table[TIER1_ROW] = (lambda: tier1(src), None)
    return table


def serve(src: str) -> None:
    """Worker loop: announce the row table, then time one run of each row named on stdin.

    The first line out maps each row name to the operators it covers; each
    request gets back the seconds of one run.  Anything the rows print goes
    to stderr, so stdout carries only replies.
    """
    reply = sys.stdout
    sys.stdout = sys.stderr

    def send(obj) -> None:
        reply.write(json.dumps(obj) + "\n")
        reply.flush()

    table = rows(src)
    send({name: ops for name, (_, ops) in table.items()})
    for line in sys.stdin:
        call = table[line.strip()][0]
        t0 = time.perf_counter()
        call()
        send(time.perf_counter() - t0)


class Worker:
    """A subprocess that imports the package ``src`` and times rows on request.

    ``rows`` is the table it announced: row name -> operators covered.
    """

    def __init__(self, src: str):
        # BLAS reads these when numpy loads, so they go in the worker's environment
        env = dict(os.environ, **{v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        self.proc = subprocess.Popen([sys.executable, __file__, "--src", src, "--worker"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env)
        self.rows = self._read()

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def time(self, row: str) -> float:
        """Seconds of one run of ``row``."""
        self.proc.stdin.write(row + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def spread(runs) -> dict:
    """min and quartiles of a list of runs, with the runs themselves."""
    q1, med, q3 = np.percentile(runs, [25, 50, 75]).tolist()
    return {"min": min(runs), "q1": q1, "median": med, "q3": q3, "runs": list(runs)}


def time_rows(srcs, spawn=Worker) -> dict:
    """Every row of the first worker's table, timed on one worker per package
    in ``srcs`` (this package first) in interleaved pairs.

    The PAIRS pairs run in BLOCKS blocks.  Each block starts a fresh worker
    per package with ``spawn(src)`` and closes them at its end; in it every
    row gets one untimed warm-up run per worker, then its PAIRS // BLOCKS
    pairs, whose first side alternates from pair to pair across the blocks
    (AB, BA, AB, ...).  The Tier-1 row runs one pair, in the first block,
    with no warm-up.  A row covering ``ops`` operators is recorded in µs per
    operator under ``us_per_operator``, a wall-time row (``ops`` None) in
    seconds under ``wall_s``.  A row whose pair ratios (this / baseline)
    fall on both sides of 1 is marked noisy; each block's median ratio is
    recorded under ``block_ratios``, and a row whose blocks fall on opposite
    sides of 1 is marked split.
    """
    per_block = PAIRS // BLOCKS
    table, runs = {}, {}
    for block in range(BLOCKS):
        workers = []
        try:
            for src in srcs:
                workers.append(spawn(src))
            table = workers[0].rows
            for row, ops in table.items():
                tier1_row = row == TIER1_ROW
                if tier1_row and block > 0:
                    continue
                if not tier1_row:
                    for w in workers:
                        w.time(row)
                scale = 1.0 if ops is None else 1e6 / ops
                sides = runs.setdefault(row, [[] for _ in workers])
                first = block * per_block
                for i in range(first, first + (1 if tier1_row else per_block)):
                    for j in (range(len(workers)) if i % 2 == 0 else reversed(range(len(workers)))):
                        sides[j].append(scale * workers[j].time(row))
        finally:
            for w in workers:
                w.close()
    out = {"us_per_operator": {}, "wall_s": {}}
    for row, sides in runs.items():
        entry = {"this": spread(sides[0])}
        if len(sides) > 1:
            ratios = [a / b for a, b in zip(*sides)]
            blocks = [float(np.median(ratios[k:k + per_block])) for k in range(0, len(ratios), per_block)]
            entry["baseline"] = spread(sides[1])
            entry["pair_ratio"] = spread(ratios)
            entry["wins"] = sum(r < 1.0 for r in ratios)
            entry["noisy"] = min(ratios) < 1.0 < max(ratios)
            entry["block_ratios"] = blocks
            entry["split"] = min(blocks) < 1.0 < max(blocks)
        out["wall_s" if table[row] is None else "us_per_operator"][row] = entry
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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="local")
    ap.add_argument("--src", default=str(ROOT / "src"), help="package source to time")
    ap.add_argument("--baseline-src", default=None, dest="baseline_src")
    ap.add_argument("--baseline-label", default="baseline", dest="baseline_label")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--output", default=None, help="default BENCH_<label>.json; '-' prints")
    args = ap.parse_args(argv)
    if args.worker:
        sys.path.insert(0, str(Path(args.src).resolve()))
        serve(args.src)
        return 0

    timed = time_rows([args.src] + ([args.baseline_src] if args.baseline_src else []))
    result = {
        "label": args.label,
        "baseline_label": args.baseline_label if args.baseline_src else None,
        "method": (f"{PAIRS} timed runs per side in {BLOCKS} blocks, each block on a fresh worker "
                   "subprocess per package, with a warm-up run per row on each side; the sides alternate and "
                   "the first side alternates per pair; Tier-1 one pair, in the first block, no warm-up; "
                   "pair_ratio is this / baseline, block_ratios each block's median; us_per_operator: "
                   f"a run is {N_SINGLE} single-operator calls or one call on {N_STACKED} operators "
                   f"([stacked]), {N_TRAJ} trajectories for integrate, {N_EVOLVE} calls for cli.main "
                   "evolve, 100 or 10 evaluations for philox"),
        "environment": environment(),
        **timed,
    }
    text = json.dumps(result, indent=2) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        Path(args.output or ROOT / f"BENCH_{args.label}.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
