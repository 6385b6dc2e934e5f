"""The timing harness ``bench/run.py``: pair order, units and the worker protocol."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "run.py"
_SPEC = importlib.util.spec_from_file_location("curvcone_bench_run", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


class FakeWorker:
    """Records each ``time`` call in a shared log and answers
    ``seconds(side, row, n)`` for its n-th call of that row."""

    def __init__(self, side, rows, seconds, log):
        self.side, self.rows, self.seconds, self.log = side, rows, seconds, log

    def time(self, row):
        self.log.append((self.side, row))
        return self.seconds(self.side, row, self.log.count((self.side, row)))


def test_time_rows_interleaves_warm_up_and_pairs():
    rows = {"k": 1000, "w": None, bench.TIER1_ROW: None}

    def seconds(side, row, nth):
        # "k": A always the faster; "w": A's runs alternate about B's constant 1.5 s
        if row == "w":
            return 1.5 if side == "B" else 1.0 + nth % 2
        return {"A": 2e-3, "B": 4e-3}[side]

    log = []
    a, b = FakeWorker("A", rows, seconds, log), FakeWorker("B", rows, seconds, log)
    out = bench.time_rows([a, b])

    for row in ("k", "w"):
        calls = [side for side, r in log if r == row]
        pairs = [("AB" if i % 2 == 0 else "BA") for i in range(bench.PAIRS)]
        assert "".join(calls) == "AB" + "".join(pairs)
    assert [side for side, r in log if r == bench.TIER1_ROW] == ["A", "B"]

    k = out["us_per_operator"]["k"]
    assert k["this"]["runs"] == pytest.approx([2.0] * bench.PAIRS)  # µs per operator
    assert k["baseline"]["runs"] == pytest.approx([4.0] * bench.PAIRS)
    assert k["pair_ratio"]["median"] == pytest.approx(0.5)
    assert k["wins"] == bench.PAIRS and k["noisy"] is False
    w = out["wall_s"]["w"]
    assert len(w["this"]["runs"]) == bench.PAIRS
    assert w["wins"] == bench.PAIRS // 2 and w["noisy"] is True
    t1 = out["wall_s"][bench.TIER1_ROW]
    assert len(t1["this"]["runs"]) == 1 and len(t1["pair_ratio"]["runs"]) == 1
    assert set(out["us_per_operator"]) == {"k"} and set(out["wall_s"]) == {"w", bench.TIER1_ROW}


def test_time_rows_without_a_baseline_records_one_side():
    log = []
    w = FakeWorker("A", {"k": 10}, lambda side, row, nth: 1e-5, log)
    out = bench.time_rows([w])
    assert len(log) == 1 + bench.PAIRS
    assert out["us_per_operator"]["k"] == {"this": bench.spread([1.0] * bench.PAIRS)}


def test_worker_round_trip():
    kernels = bench.kernels(*bench.inputs(2))
    w = bench.Worker(str(bench.ROOT / "src"))
    try:
        for name, (_, stack) in kernels.items():
            assert w.rows[name] == bench.N_SINGLE
            assert w.rows.get(f"{name} [stacked]") == (None if stack is None else bench.N_STACKED)
        wall = [name for name, ops in w.rows.items() if ops is None]
        assert len(wall) == len(bench.SUITES) + 3 and wall[-1] == bench.TIER1_ROW
        assert sum("integrate" in name for name in w.rows) == 2
        assert sum(name.startswith("philox") for name in w.rows) == 2
        seconds = w.time("scalar [stacked]")
        assert isinstance(seconds, float) and seconds > 0.0
    finally:
        w.close()
    assert w.proc.poll() is not None
