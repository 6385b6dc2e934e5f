"""Tests of the benchmark's own machinery: tracer, deadline and stream oracle.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import curvcone  # noqa: E402
from curvcone import cli, cone, verify, wedge  # noqa: E402

from harness import call_cli  # noqa: E402
from streamgen import FACES, record_error, stream_records  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import ExtremeScale, StreamCheck  # noqa: E402

PARAMS = cone.ConeParams(eta=1.0, mu=2.0)


def _namespaces():
    mods = [m for n, m in sys.modules.items() if n == "curvcone" or n.startswith("curvcone.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    snap.update({("suites", k): v for k, v in verify._SUITE_FUNCS.items()})
    return snap


def _traced_counts(stdin):
    tracer = Tracer("curvcone", hooks={"cone.lower_bound_l": float})
    with tracer:
        assert call_cli(cli.main, ["verify", "--suite", "algebra", "--samples", "3"]).failure is None
        assert call_cli(cli.main, ["check"], stdin).failure is None
        stats = tracer.take()
    return stats


def test_tracer_wraps_every_reference_and_restores_originals():
    before = _namespaces()
    tracer = Tracer("curvcone")
    with tracer:
        assert cli.lower_bound_l is not before[("curvcone.cone", "lower_bound_l")]
        assert cli.lower_bound_l is cone.lower_bound_l is curvcone.lower_bound_l
        assert verify._SUITE_FUNCS["algebra"] is verify.suite_algebra
        assert verify.suite_algebra is not before[("curvcone.verify", "suite_algebra")]
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_counts_repeat_and_self_time_adds_up():
    stdin = "".join(json.dumps(wedge.operator_to_json_dict(r.operator)) + "\n"
                    for r in stream_records(3, 6, PARAMS))
    a, b = _traced_counts(stdin), _traced_counts(stdin)
    assert a.names == b.names
    assert np.array_equal(a.calls, b.calls)
    assert a.get("decomposition.block_spectra") > 0 and a.get("verify.suite_algebra") == 1
    assert np.all(a.self_s <= a.total_s + 1e-12)
    # self times telescope to the duration of the top-level spans
    roots = a.get("cli.main", "total_s")
    assert abs(a.self_s.sum() - roots) <= 1e-9 * max(1.0, roots)
    durations, l_values = a.spans["cone.lower_bound_l"]
    assert len(durations) == a.get("cone.lower_bound_l") and np.all(l_values >= 0.0)


def test_deadline_cuts_a_spinning_call_and_restores_the_handler():
    def sentinel(signum, frame):  # pragma: no cover - must never fire
        raise AssertionError("previous handler fired")

    def spin(argv):
        while True:
            pass

    previous = signal.signal(signal.SIGALRM, sentinel)
    try:
        r = call_cli(spin, [], deadline_s=0.05)
        assert r.failure == "deadline" and r.seconds < 1.0
        assert signal.getsignal(signal.SIGALRM) is sentinel
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)

        w = ExtremeScale(0)
        w.calls = w.calls[:2]
        res = w.run_pass(spin)
        assert res.failures == {"deadline": 2} and res.attempted == 2
        assert signal.getsignal(signal.SIGALRM) is sentinel
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_stream_oracle_on_every_face():
    records = [r for r in stream_records(11, 27, PARAMS) if r.kind == "boundary"]
    assert {r.face for r in records} == set(FACES)
    for rec in records:
        # l = beta exactly: just above the shift is inside, just below is not
        lv = rec.l
        assert lv > 0.0
        assert cone.is_member(rec.operator + lv * (1 + 1e-6) * np.eye(6), PARAMS)
        assert not cone.is_member(rec.operator + lv * (1 - 1e-6) * np.eye(6), PARAMS)
        assert record_error(rec, {"member": False, "l": lv}) is None
        assert record_error(rec, {"member": False, "l": lv + 1e-6 * max(1.0, lv)}) is not None
        assert record_error(rec, {"member": True, "l": 0.0}) is not None


def test_stream_check_pass_is_correct_at_this_commit():
    w = StreamCheck(5)
    w.records = w.records[:30]
    w.stdin = "".join(w.stdin.splitlines(keepends=True)[:30])
    res = w.run_pass(cli.main)
    assert res.attempted == 30 and not res.failures, res.details
    assert len(res.latencies) == 30
