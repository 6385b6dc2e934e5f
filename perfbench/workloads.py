"""The workloads: inputs from a seed, one pass of work, and its checks.

Each workload has a fixed input set, and a run repeats passes over all of it
until its time is up:

* ``certify``: a pass is one ``verify --suite all`` call; an op is one check
  record.
* ``stream-check``: a pass is one ``check`` call over a JSON-lines stream; an
  op is one record.
* ``extreme-scale``: a pass is one ``check``, ``l`` or ``evolve`` call per
  input operator, each under a deadline; an op is a call.

Every op of every pass is checked; a failed op is counted under one reason
of :data:`harness.FAIL_REASONS` and never dropped.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import call_cli
from streamgen import record_error, stream_records

CERTIFY_SAMPLES = 100
CERTIFY_REFERENCE = Path(__file__).with_name("certify_reference.json")
STREAM_RECORDS = 600
EXTREME_DECADES = range(-300, 301, 25)
#: generous next to the 2-6 ms such a call takes, traced or not
EXTREME_CALL_DEADLINE_S = 0.25
#: |R| of the evolve start: at unit scale about a third of non-member starts
#: reach the default --blowup-norm 1e8 before l passes the bisection's hang
#: threshold, which would make the pass time depend on the seed; from 3e7 on,
#: l is past it at the first sample
EXTREME_EVOLVE_NORM = 3e7
#: a legitimate blow-up from EXTREME_EVOLVE_NORM to 1e8 takes a few steps
EXTREME_EVOLVE_DEADLINE_S = 1.0
#: l/c must match the c = 1 value to this relative error
EXTREME_L_RTOL = 1e-6


@dataclass
class PassResult:
    """Ops attempted in one pass, their latencies and failures by reason."""

    seconds: float
    attempted: int
    latencies: list[float]
    failures: Counter = field(default_factory=Counter)
    details: list[str] = field(default_factory=list)

    def fail(self, reason: str, detail: str, n: int = 1) -> None:
        self.failures[reason] += n
        if len(self.details) < 5:
            self.details.append(f"{reason}: {detail}")


def _params():
    from curvcone.cone import ConeParams

    return ConeParams(eta=1.0, mu=2.0)


def _json_line(m) -> str:
    from curvcone.wedge import operator_to_json_dict

    return json.dumps(operator_to_json_dict(m)) + "\n"


class Certify:
    """``verify --suite all`` at a fixed sample count; compared to a reference."""

    name = "certify"

    def __init__(self, seed: int):
        self.argv = ["verify", "--suite", "all", "--seed", str(seed),
                     "--samples", str(CERTIFY_SAMPLES)]
        ref = json.loads(CERTIFY_REFERENCE.read_text())
        if ref["samples"] != CERTIFY_SAMPLES:
            raise ValueError(f"{CERTIFY_REFERENCE.name} is for samples={ref['samples']}")
        self.reference = [tuple(c) for c in ref["checks"]]
        self.first_payload = None

    def run_pass(self, main) -> PassResult:
        n = len(self.reference)
        r = call_cli(main, self.argv)
        res = PassResult(r.seconds, n, [r.seconds])
        if r.failure in ("deadline", "raised"):
            res.fail(r.failure, r.detail, n)
            return res
        payload = r.stdout[r.stdout.find("\n{") + 1:]
        try:
            checks = json.loads(payload)["checks"]
        except (ValueError, KeyError):
            res.fail("wrong", "no JSON report", n)
            return res
        if self.first_payload is None:
            self.first_payload = payload
        elif payload != self.first_payload:
            res.fail("wrong", "repeat is not byte-identical", n)
            return res
        wrong = abs(len(checks) - n)
        for c, want in zip(checks, self.reference):
            if (c["id"], c["samples"]) != want or not c["passed"]:
                wrong += 1
                if len(res.details) < 5:
                    res.details.append(f"wrong: {c['id']} passed={c['passed']}, expected {want}")
        if wrong:
            res.failures["wrong"] += min(wrong, n)
        elif r.failure:
            res.fail(r.failure, r.detail, n)
        return res


class StreamCheck:
    """``check`` over a JSON-lines stream of operators with known answers."""

    name = "stream-check"

    def __init__(self, seed: int):
        self.records = stream_records(seed, STREAM_RECORDS, _params())
        self.stdin = "".join(_json_line(r.operator) for r in self.records)

    def run_pass(self, main) -> PassResult:
        r = call_cli(main, ["check"], self.stdin)
        # one write per record: latency is the gap since the previous record
        edges = [r.start] + r.stamps
        res = PassResult(r.seconds, len(self.records),
                         [b - a for a, b in zip(edges, edges[1:])])
        lines = r.stdout.splitlines()
        for i, rec in enumerate(self.records):
            if i >= len(lines):
                res.fail(r.failure or "wrong", f"record {i}: no output {r.detail}")
                continue
            try:
                err = record_error(rec, json.loads(lines[i]))
            except ValueError as exc:
                err = str(exc)
            if err is not None:
                res.fail("wrong", f"record {i} ({rec.kind} {rec.face or ''}): {err}")
        if r.failure and not res.failures:
            res.fail(r.failure, r.detail, len(self.records))
        return res


@dataclass(frozen=True)
class _Call:
    argv: tuple
    stdin: str
    deadline_s: float
    expect_code: int
    check: object  # callable(stdout, stderr) -> error string or None


def _scaled_check(c: float, member1: bool, l1: float, with_member: bool):
    def check(stdout, stderr):
        try:
            out = json.loads(stdout)
        except ValueError:
            return f"unparsable output {stdout[:80]!r}"
        if with_member and out.get("member") is not member1:
            return f"c={c:.0e}: member={out.get('member')}, expected {member1}"
        lv = out.get("l")
        if not isinstance(lv, (int, float)) or not math.isfinite(lv / c):
            return f"c={c:.0e}: l={lv!r}"
        if abs(lv / c - l1) > EXTREME_L_RTOL * l1:
            return f"c={c:.0e}: l/c={lv / c!r}, expected {l1!r}"
        return None

    return check


def _no_check(stdout, stderr):
    return None


def _blowup_check(stdout, stderr):
    return None if "status=blowup-stopped" in stderr else stderr.strip()[:80]


class ExtremeScale:
    """``check`` and ``l`` on c*R for c across 1e-300..1e300, non-finite
    input, and a blow-up ``evolve`` of a large non-member at the default
    --blowup-norm, one operator per call and each call under a deadline."""

    name = "extreme-scale"

    def __init__(self, seed: int):
        from curvcone import cone, sampling, wedge

        cfg, params = sampling.SamplerConfig(seed=seed), _params()
        bases = (sampling.random_member(cfg, params, index=0),
                 sampling.random_nonmember(cfg, params, index=0))
        self.calls = []
        for m in bases:
            member1 = cone.is_member(m, params)
            l1 = cone.lower_bound_l(m, params, tol=1e-12)
            for k in EXTREME_DECADES:
                c = 10.0 ** k
                line = _json_line(c * m)
                for cmd in ("check", "l"):
                    self.calls.append(_Call((cmd,), line, EXTREME_CALL_DEADLINE_S, 0,
                                            _scaled_check(c, member1, l1, cmd == "check")))
        rng = np.random.default_rng([seed, 0xBAD])
        upper = wedge.upper_triangle(bases[1]).tolist()
        for bad in (math.nan, math.inf, -math.inf):
            vals = list(upper)
            vals[int(rng.integers(len(vals)))] = bad
            line = json.dumps({"basis": "wedge4", "upper": vals}) + "\n"
            for cmd in ("check", "l"):
                self.calls.append(_Call((cmd,), line, EXTREME_CALL_DEADLINE_S, 2, _no_check))
        start = bases[1] * (EXTREME_EVOLVE_NORM / wedge.frobenius(bases[1]))
        self.calls.append(_Call(("evolve", "--t-max", "100"), _json_line(start),
                                EXTREME_EVOLVE_DEADLINE_S, 0, _blowup_check))
        # spread the quick calls among the deadline misses, so that a pass's
        # median latency samples the machine's speed over the whole pass
        self.calls = [self.calls[i] for i in rng.permutation(len(self.calls))]

    def run_pass(self, main) -> PassResult:
        res = PassResult(0.0, len(self.calls), [])
        for call in self.calls:
            r = call_cli(main, list(call.argv), call.stdin, call.deadline_s, call.expect_code)
            res.seconds += r.seconds
            res.latencies.append(r.seconds)
            if r.failure:
                res.fail(r.failure, f"{call.argv[0]}: {r.detail}")
                continue
            err = call.check(r.stdout, r.stderr)
            if err is not None:
                res.fail("wrong", f"{call.argv[0]}: {err}")
        return res


WORKLOADS = {w.name: w for w in (Certify, StreamCheck, ExtremeScale)}
