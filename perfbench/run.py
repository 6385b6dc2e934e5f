"""Benchmark of curvcone: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The workload drives ``curvcone.cli.main`` in-process from
one closed-loop caller in this single-threaded process, with BLAS pinned to
one thread.  Inputs are made from ``--seed`` before timing starts.

``--trace 0`` times passes of the workload and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` runs one untraced pass, then traced
passes, and reports the per-layer metrics.  The last line of stdout is the
JSON result; the line before it records the environment.
"""

from __future__ import annotations

import os

# BLAS reads these when numpy loads, so they are set before any import of it.
BLAS_THREAD_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREAD_PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from harness import FAIL_REASONS  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
#: a run starts no pass after this long, however short --seconds was
MAX_RUN_S = 120.0

SETUP_CODE = """
import time
t0 = time.perf_counter()
import curvcone
curvcone.q_operator(curvcone.identity_operator())
curvcone.ricci(curvcone.identity_operator())
curvcone.base_profile()
print(time.perf_counter() - t0)
"""

MODULES = ("wedge", "decomposition", "cone", "sampling", "flow", "cutoff", "verify", "cli")
SUITES = ("algebra", "cone", "nullvector", "flow", "cutoff")
RETRY_REASONS = ("trace-shift", "member-verify", "boundary-ray", "boundary-verify")


def measure_setup() -> float:
    """Seconds a fresh interpreter takes to import curvcone and fill its caches."""
    out = subprocess.run([sys.executable, "-c", SETUP_CODE],
                         env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_thread_pin": BLAS_THREAD_PIN,
    }


def run_passes(run_pass, seconds: float, between=None) -> list:
    """Repeat ``run_pass()`` until another pass of average length would end
    after ``seconds``; always at least once.  ``between(elapsed)``, if given,
    runs before each pass, outside its timing."""
    passes = []
    t0 = time.perf_counter()
    while True:
        if between is not None:
            between(time.perf_counter() - t0)
        passes.append(run_pass())
        elapsed = time.perf_counter() - t0
        if elapsed >= MAX_RUN_S or elapsed * (1 + 1 / len(passes)) > seconds:
            return passes


def end_to_end(passes) -> dict:
    attempted = sum(p.attempted for p in passes)
    failed = sum(sum(p.failures.values()) for p in passes)
    ops_per_s = attempted / sum(p.seconds for p in passes)
    # per pass, then averaged: the machine's speed changes within a run, and a
    # percentile of the pooled latencies jumps between its speed levels
    p50, p90 = np.mean([np.percentile(p.latencies, [50, 90]) for p in passes], axis=0)
    return {
        "wall_s": statistics.mean(p.seconds for p in passes),
        "ops_per_s": ops_per_s,
        "op_p50_ms": 1e3 * p50,
        "op_p90_ms": 1e3 * p90,
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(first, rest, first_pass, retries) -> dict:
    """Per-layer metrics: counts from the first traced pass, times from all."""
    n_passes = 1 + len(rest)
    calls_all = first.calls + sum((s.calls for s in rest), 0)
    total_all = first.total_s + sum((s.total_s for s in rest), 0.0)
    self_all = first.self_s + sum((s.self_s for s in rest), 0.0)
    index = {n: i for i, n in enumerate(first.names)}

    def calls(name):
        return int(first.get(name))

    def us_per_call(name):
        i = index.get(name)
        return 1e6 * total_all[i] / calls_all[i] if i is not None and calls_all[i] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    def mean_us(seconds):
        return 1e6 * float(np.mean(seconds)) if len(seconds) else 0.0

    m = {}
    for name in ("wedge.q_operator", "decomposition.block_spectra", "decomposition.decompose",
                 "cone.lower_bound_l", "flow.integrate"):
        m[f"{name}.calls"] = calls(name)
    for name in ("wedge.q_operator", "wedge.sharp", "wedge.operator_from_json_dict",
                 "decomposition.block_spectra", "decomposition.decompose",
                 "cone.is_member", "cone.hat_f", "cone.two_nonneg_flag", "cone.null_vector_verify",
                 "sampling.random_member", "sampling.boundary_member", "sampling.random_bianchi",
                 "flow.integrate", "flow.invariance_monitor", "flow.l_inequality_monitor",
                 "cutoff.verify_cutoff"):
        m[f"{name}.us_per_call"] = us_per_call(name)
    m["decomposition.block_spectra.calls_per_op"] = ratio(
        calls("decomposition.block_spectra"), first_pass.attempted)

    durations, l_values = _hooked(first, rest, "cone.lower_bound_l")
    member, nonmember = l_values == 0.0, l_values > 0.0
    m["cone.lower_bound_l.us_per_call_member"] = mean_us(durations[member])
    m["cone.lower_bound_l.us_per_call_nonmember"] = mean_us(durations[nonmember])
    first_l = first.spans.get("cone.lower_bound_l", (None, np.zeros(0)))[1]
    m["cone.lower_bound_l.positive_share"] = ratio(int((first_l > 0.0).sum()), len(first_l))

    for reason in RETRY_REASONS:
        m[f"sampling.retries.{reason}"] = retries.get(reason, 0)
    draws = calls("sampling.random_member") + calls("sampling.boundary_member")
    m["sampling.accept_ratio"] = ratio(draws, draws + sum(retries.values()))

    steps = first.spans.get("flow.integrate", (None, np.zeros(0)))[1]
    m["flow.accepted_steps"] = int(np.nansum(steps))
    m["flow.rhs_evals"] = calls("flow.reaction_rhs")
    m["flow.rhs_evals_per_step"] = ratio(m["flow.rhs_evals"], m["flow.accepted_steps"])

    for suite in SUITES:
        i = index.get(f"verify.suite_{suite}")
        m[f"verify.suite_{suite}.s"] = float(total_all[i]) / n_passes if i is not None else 0.0
    for reason in FAIL_REASONS:
        m[f"cli.fail.{reason}"] = first_pass.failures.get(reason, 0)
    for mod in MODULES:
        m[f"{mod}.self_s"] = float(sum(self_all[i] for n, i in index.items()
                                       if n.startswith(mod + "."))) / n_passes
    return m


def _hooked(first, rest, name):
    parts = [s.spans[name] for s in (first, *rest) if name in s.spans]
    if not parts:
        return np.zeros(0), np.zeros(0)
    return np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])


def run_traced(workload, seconds: float):
    from curvcone import cli, sampling

    t0 = time.perf_counter()
    plain = workload.run_pass(cli.main)
    tracer = Tracer("curvcone", hooks={
        "cone.lower_bound_l": float,
        "flow.integrate": lambda traj: len(traj.samples) - 1,
    })

    def traced_main(argv):
        try:
            return cli.main(argv)
        finally:
            tracer.unwind()

    before = dict(sampling.RETRY_COUNTS)
    stats = []

    def traced_pass():
        res = workload.run_pass(traced_main)
        stats.append(tracer.take())
        return res

    with tracer:
        first_pass = traced_pass()
        retries = {k: v - before.get(k, 0) for k, v in sampling.RETRY_COUNTS.items()}
        traced_passes = [first_pass] + run_passes(traced_pass, seconds - (time.perf_counter() - t0))
    metrics = per_layer(stats[0], stats[1:], first_pass, retries)
    traced_s = statistics.median(p.seconds for p in traced_passes)
    metrics["trace.overhead_share"] = 1.0 - plain.seconds / traced_s
    return [plain, *traced_passes], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    for needed in (SRC / "curvcone" / "__init__.py", spec_path):
        if not needed.is_file():
            print(f"run.py: no {needed}: run from a source checkout", file=sys.stderr)
            return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import curvcone

    if Path(curvcone.__file__).resolve().parent != SRC / "curvcone":
        print(f"run.py: imported curvcone from {curvcone.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        passes, values = run_traced(workload, args.seconds)
        wanted = spec["per_layer"]
    else:
        from curvcone import cli

        setups = []

        def sample_setup(elapsed):
            # spread over the run: the machine's speed level changes every few
            # seconds, so samples taken together all land on one level
            while (len(setups) < SETUP_REPEATS
                   and elapsed >= len(setups) * args.seconds / SETUP_REPEATS):
                setups.append(measure_setup())

        passes = run_passes(lambda: workload.run_pass(cli.main), args.seconds, sample_setup)
        setups += [measure_setup() for _ in range(SETUP_REPEATS - len(setups))]
        values = dict(end_to_end(passes), setup_s=statistics.mean(setups))
        wanted = spec["end_to_end"]

    attempted = sum(p.attempted for p in passes)
    failures = sum((p.failures for p in passes), start=Counter())
    for line in dict.fromkeys(line for p in passes for line in p.details):
        print(f"run.py: {args.workload}: {line}", file=sys.stderr)
    if failures:
        print(f"run.py: {args.workload}: failed ops by reason: {dict(failures)}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"run.py: no value for {missing}", file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment(), "workload": args.workload,
                      "seed": args.seed, "passes": len(passes)}))
    print(json.dumps({
        # extreme-scale exists to count the program's known failures, which
        # are reported in "failed"; on the other workloads any failure is wrong
        "correct": args.workload == "extreme-scale" or not failures,
        "attempted": attempted,
        "failed": sum(failures.values()),
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
