"""The timing harness ``bench/run.py``: pair order, units and the worker protocol."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "bench" / "run.py"
_SPEC = importlib.util.spec_from_file_location("curvcone_bench_run", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


class FakeWorker:
    """Logs its start, each ``time`` call and its close in a shared log, and
    answers ``seconds(side, row, block, nth)`` for its n-th call of that row,
    ``block`` being the number of workers of its side started before it."""

    def __init__(self, side, rows, seconds, log):
        self.block = log.count(("start", side))
        log.append(("start", side))
        self.side, self.rows, self.seconds, self.log, self.calls = side, rows, seconds, log, {}

    def time(self, row):
        self.log.append((self.side, row))
        self.calls[row] = self.calls.get(row, 0) + 1
        return self.seconds(self.side, row, self.block, self.calls[row])

    def close(self):
        self.log.append(("close", self.side))


def test_time_rows_interleaves_warm_up_and_pairs():
    rows = {"k": 1000, "w": None, "s": 1, "m": 1, bench.TIER1_ROW: None}

    def seconds(side, row, block, nth):
        # "k": A always the faster; "w": A's runs alternate about B's constant
        # 1.5 s; "s": A faster on the first workers, slower on the second;
        # "m": like "s" in the first three pairs of a block, the reverse after
        if row == "w":
            return 1.5 if side == "B" else 1.0 + nth % 2
        if row == "s":
            return 2e-6 if side == "B" else (1e-6, 3e-6)[block]
        if row == "m":
            return 2e-6 if side == "B" else (1e-6, 3e-6)[block ^ (nth > 4)]
        return {"A": 2e-3, "B": 4e-3}[side]

    log = []
    out = bench.time_rows(["A", "B"], spawn=lambda side: FakeWorker(side, rows, seconds, log))

    per_block = bench.PAIRS // bench.BLOCKS
    order = ["AB" if i % 2 == 0 else "BA" for i in range(bench.PAIRS)]
    for row in ("k", "w", "s", "m"):
        calls = "".join(side for side, r in log if r == row)
        # each block: a warm-up run per side, then its pairs
        assert calls == "".join("AB" + "".join(order[b * per_block:(b + 1) * per_block]) for b in range(bench.BLOCKS))
    assert [side for side, r in log if r == bench.TIER1_ROW] == ["A", "B"]
    # each block runs on freshly started workers, closed when it ends
    events = [e for e in log if e[0] in ("start", "close")]
    assert events == [("start", "A"), ("start", "B"), ("close", "A"), ("close", "B")] * bench.BLOCKS
    assert log.index(("A", bench.TIER1_ROW)) < log.index(("close", "A"))  # Tier-1 in the first block

    k = out["us_per_operator"]["k"]
    assert k["this"]["runs"] == pytest.approx([2.0] * bench.PAIRS)  # µs per operator
    assert k["baseline"]["runs"] == pytest.approx([4.0] * bench.PAIRS)
    assert k["pair_ratio"]["median"] == pytest.approx(0.5)
    assert k["wins"] == bench.PAIRS and k["noisy"] is False and k["split"] is False
    assert k["block_ratios"] == pytest.approx([0.5] * bench.BLOCKS)
    w = out["wall_s"]["w"]
    assert len(w["this"]["runs"]) == bench.PAIRS
    # each block's timed runs start on its workers' second call, a fast one
    assert w["wins"] == bench.BLOCKS * ((per_block + 1) // 2)
    assert w["noisy"] is True and w["split"] is False  # every block alike
    s = out["us_per_operator"]["s"]
    assert s["block_ratios"] == pytest.approx([0.5, 1.5]) and s["split"] is True and s["noisy"] is True
    assert s["wins"] == per_block
    m = out["us_per_operator"]["m"]
    # block medians on both sides of 1, but each block mixes wins and losses
    assert m["block_ratios"] == pytest.approx([0.5, 1.5]) and m["split"] is False and m["noisy"] is True
    t1 = out["wall_s"][bench.TIER1_ROW]
    assert len(t1["this"]["runs"]) == 1 and len(t1["pair_ratio"]["runs"]) == 1
    assert set(out["us_per_operator"]) == {"k", "s", "m"} and set(out["wall_s"]) == {"w", bench.TIER1_ROW}


def test_time_rows_without_a_baseline_records_one_side():
    log = []
    out = bench.time_rows(["A"], spawn=lambda side: FakeWorker(side, {"k": 10}, lambda *a: 1e-5, log))
    assert sum(e == ("A", "k") for e in log) == bench.BLOCKS + bench.PAIRS
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
