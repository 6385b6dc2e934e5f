import hashlib
import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from curvcone import cli
from curvcone import verify as vf
from curvcone.cone import ConeParams
from curvcone.sampling import SamplerConfig, random_nonmember
from curvcone.wedge import operator_from_upper, operator_to_json_dict

I6 = np.eye(6)
#: S^3 x R: A = B = C = I/2, a non-member that fails F1 alone at eta < 1
S3_X_R = np.diag([1.0, 1.0, 0.0, 1.0, 0.0, 0.0])
#: sha256 of the ``verify --suite all --seed 1 --samples 100`` JSON, report version 4
REPORT_V4_SHA256 = "610748e777dbf43551f98f1b69df30c4df948005ab54c5f949e73d82477ba879"
#: sha256 of the ``verify --suite cone --seed 1 --samples 20`` JSON, report version 4
CONE_20_V4_SHA256 = "dedcea3d4adbdb64329b9e1c689e080e3e3b87a4c4e32baf4e6e435fc319f361"


def write_ops(path, *ops):
    with open(path, "w", encoding="utf-8") as fh:
        for m in ops:
            fh.write(json.dumps(operator_to_json_dict(m)) + "\n")


@pytest.fixture()
def ops_file(tmp_path):
    p = tmp_path / "ops.jsonl"
    write_ops(p, I6, -I6)
    return p


class TestDecompose:
    def test_identity(self, tmp_path, ops_file):
        out = tmp_path / "dec.jsonl"
        rc = cli.main(["decompose", "--input", str(ops_file), "--output", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert set(rec) == {"A", "B", "C", "eigsA", "eigsC", "svalsB"}
        np.testing.assert_allclose(rec["eigsA"], [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(rec["eigsC"], [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(rec["svalsB"], [0, 0, 0], atol=1e-12)

    def test_wrong_length_rejected(self, tmp_path, capsys):
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"basis": "wedge4", "upper": [0.0] * 20}) + "\n")
        rc = cli.main(["decompose", "--input", str(p)])
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_round_trip_through_json(self, tmp_path):
        rng = np.random.default_rng(5)
        m = operator_from_upper(rng.standard_normal(21))
        p = tmp_path / "one.jsonl"
        write_ops(p, m)
        back = json.loads(p.read_text())
        np.testing.assert_array_equal(
            operator_from_upper(back["upper"]), m
        )


class TestCheck:
    def test_reports(self, tmp_path, ops_file):
        out = tmp_path / "chk.jsonl"
        rc = cli.main(["check", "--input", str(ops_file), "--eta", "1", "--mu", "2", "--output", str(out)])
        assert rc == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        keys = {"member", "F1", "F2", "F3", "l", "l_face", "wpic", "flag2_certificate",
                "ricci_pinch_slack", "upic_slack"}
        assert set(recs[0]) == keys
        assert recs[0]["member"] is True and recs[0]["l"] == 0.0
        assert recs[0]["l_face"] is None
        assert recs[0]["upic_slack"] == pytest.approx(7.0, abs=1e-9)
        assert recs[1]["member"] is False
        assert recs[1]["l"] == pytest.approx(1.0, abs=1e-8)
        assert recs[1]["l_face"] in ("F1", "F2", "F3")
        assert recs[1]["wpic"] is False

    def test_eta_zero_multiples_of_identity_are_members_with_l_zero(self, tmp_path):
        p = tmp_path / "ki.jsonl"
        write_ops(p, 1e-5 * I6, 3.0 * I6, 1e300 * I6)
        out = tmp_path / "chk.jsonl"
        assert cli.main(["check", "--input", str(p), "--eta", "0", "--mu", "1.5", "--output", str(out)]) == 0
        recs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [(r["member"], r["l"], r["l_face"]) for r in recs] == [(True, 0.0, None)] * 3

    def test_invalid_parameters_exit_2(self, ops_file, capsys):
        rc = cli.main(["check", "--input", str(ops_file), "--eta", "2", "--mu", "2"])
        assert rc == 2
        assert "mu - 1 >= eta >= 0 and mu > 1" in capsys.readouterr().err

    def test_require_member(self, tmp_path, ops_file):
        out = tmp_path / "chk.jsonl"
        rc = cli.main(["check", "--input", str(ops_file), "--require-member", "--output", str(out)])
        assert rc == 1
        p = tmp_path / "good.jsonl"
        write_ops(p, I6, 2.0 * I6)
        rc = cli.main(["check", "--input", str(p), "--require-member", "--output", str(out)])
        assert rc == 0


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestCheckAtExtremeScale:
    @pytest.mark.parametrize("c", [1e160, 1e300])
    def test_output_is_strict_json(self, tmp_path, c):
        from curvcone.sampling import boundary_member, random_member

        cfg, params = SamplerConfig(seed=3), ConeParams(1.0, 2.0)
        member = random_member(cfg, params, index=0)
        ops = [member, boundary_member(cfg, params, "F1", index=0)[0], random_nonmember(cfg, params, index=0)]
        p = tmp_path / "big.jsonl"
        write_ops(p, *(c * m for m in ops))
        out = tmp_path / "out.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or Bianchi warning on the way
            assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 0
        recs = [json.loads(line, parse_constant=_no_constants) for line in out.read_text().splitlines()]
        assert [r["member"] for r in recs] == [True, True, False]
        assert recs[0]["upic_slack"] is not None and recs[0]["upic_slack"] > 0.0
        assert recs[2]["l_face"] in ("F1", "F2", "F3")

    @pytest.mark.parametrize("c", [1e160, 1e300])
    def test_ricci_pinch_fields_warn_nothing(self, tmp_path, c):
        from curvcone.sampling import random_member

        cfg, params = SamplerConfig(seed=3), ConeParams(0.5, 1.5)
        p = tmp_path / "big.jsonl"
        write_ops(p, *(c * m for m in (random_member(cfg, params, index=0), random_nonmember(cfg, params, index=0), -I6)))
        out = tmp_path / "out.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", "--eta", "0.5", "--mu", "1.5", "--input", str(p), "--output", str(out)]) == 0
        recs = [json.loads(line, parse_constant=_no_constants) for line in out.read_text().splitlines()]
        assert recs[0]["ricci_pinch_slack"] > 0.0
        assert recs[1]["ricci_pinch_slack"] is None and recs[2]["ricci_pinch_slack"] is None

    def test_tiny_f1_only_non_member(self, tmp_path):
        # at 1e-170 a squared F1 test underflows to 0 <= 0, and F1 itself to -0.0
        p = tmp_path / "tiny.jsonl"
        write_ops(p, 1e-170 * S3_X_R)
        out = tmp_path / "out.jsonl"
        assert cli.main(["check", "--eta", "0.5", "--mu", "1.5", "--input", str(p), "--output", str(out)]) == 0
        rec = json.loads(out.read_text())
        assert rec["member"] is False and rec["l_face"] == "F1"
        assert np.signbit(rec["F1"]) and rec["ricci_pinch_slack"] is None

    @pytest.mark.parametrize("eta_mu", [(0.5, 1.5), (1.0, 2.0), (0.0, 1.5), (0.5, 1e10)], ids=str)
    def test_records_warn_nothing_at_any_scale(self, eta_mu):
        from curvcone.sampling import random_member

        params = ConeParams(*eta_mu)
        cfg = SamplerConfig(seed=3)
        member = random_member(cfg, params, index=0) if params.eta > 0.0 else 3.0 * I6
        bases = (member, random_nonmember(cfg, params, index=0), S3_X_R, -I6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli._check_record(np.zeros((6, 6)), params)
            for m in bases:
                m = m / np.linalg.norm(m)  # so that 1e300 m is finite
                for k in range(-300, 301):
                    cli._check_record(10.0 ** k * m, params)

    def test_one_block_spectra_per_record(self, tmp_path, monkeypatch):
        from curvcone import cone as cn
        from curvcone import decomposition as dc

        calls = []

        def counted(m):
            calls.append(1)
            return dc.block_spectra(m)

        p = tmp_path / "ops.jsonl"
        write_ops(p, I6, -I6, random_nonmember(SamplerConfig(seed=4), ConeParams(0.5, 1.5), index=1))
        monkeypatch.setattr(cli, "block_spectra", counted)
        monkeypatch.setattr(cn, "block_spectra", counted)
        out = tmp_path / "out.jsonl"
        assert cli.main(["check", "--eta", "0.5", "--mu", "1.5", "--input", str(p), "--output", str(out)]) == 0
        assert len(calls) == 3

    def test_no_record_draws_a_frame(self, tmp_path, monkeypatch):
        # the flag certificate is a closed form of the spectra: check builds
        # no substream for a sampled frame
        from curvcone import sampling

        def refuse(*args, **kwargs):
            raise AssertionError("check built a substream")

        p = tmp_path / "ops.jsonl"
        write_ops(p, I6, -I6, 1e300 * random_nonmember(SamplerConfig(seed=4), ConeParams(1.0, 2.0), index=1))
        monkeypatch.setattr(sampling, "substream", refuse)
        out = tmp_path / "out.jsonl"
        assert cli.main(["check", "--input", str(p), "--output", str(out)]) == 0
        assert [json.loads(line)["flag2_certificate"] for line in out.read_text().splitlines()][:2] == [2.0, -2.0]


class TestRobustInput:
    @pytest.mark.parametrize("cmd", ["check", "l"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_exits_2(self, tmp_path, capsys, cmd, bad):
        vals = [0.0] * 21
        vals[3] = bad
        p = tmp_path / "bad.jsonl"
        p.write_text(json.dumps({"basis": "wedge4", "upper": vals}) + "\n")
        assert cli.main([cmd, "--input", str(p)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["check", "l"])
    def test_large_non_member_is_quick(self, tmp_path, cmd):
        m = operator_from_upper(np.random.default_rng(9).standard_normal(21))
        m = -1e9 * (m @ m + I6)
        p = tmp_path / "big.jsonl"
        write_ops(p, m)
        out = tmp_path / "out.jsonl"
        t0 = time.perf_counter()
        assert cli.main([cmd, "--input", str(p), "--output", str(out)]) == 0
        assert time.perf_counter() - t0 < 1.0
        assert json.loads(out.read_text())["l"] > 1e9


class TestEvolve:
    def test_identity_trajectory_csv(self, tmp_path, ops_file):
        out = tmp_path / "traj.csv"
        rc = cli.main(["evolve", "--input", str(ops_file), "--t-max", "0.1", "--output", str(out)])
        assert rc == 0
        rows = out.read_text().splitlines()
        header = rows[0].split(",")
        assert header[:4] == ["t", "r11", "r12", "r13"]
        assert header[-4:] == ["l", "scalar", "bianchi", "member"]
        assert len(header) == 26
        last = rows[-1].split(",")
        assert float(last[0]) == pytest.approx(0.1, rel=1e-12)
        assert float(last[-3]) == pytest.approx(30.0, rel=1e-6)  # scalar = 12/(1-0.6)
        assert last[-1] == "1"

    def test_zero_constant_rows(self, tmp_path):
        p = tmp_path / "zero.jsonl"
        write_ops(p, np.zeros((6, 6)))
        out = tmp_path / "traj.csv"
        rc = cli.main(["evolve", "--input", str(p), "--t-max", "0.05", "--output", str(out)])
        assert rc == 0
        for row in out.read_text().splitlines()[1:]:
            assert all(float(v) == 0.0 for v in row.split(",")[1:22])

    def test_blowup_status_exit_zero(self, tmp_path, capsys):
        p = tmp_path / "big.jsonl"
        write_ops(p, 5.0 * I6)
        out = tmp_path / "traj.csv"
        rc = cli.main([
            "evolve", "--input", str(p), "--t-max", "5.0", "--blowup-norm", "1000",
            "--output", str(out),
        ])
        assert rc == 0
        assert "status=blowup-stopped" in capsys.readouterr().err

    def test_status_line_reports_rejected_steps(self, tmp_path, capsys):
        m = random_nonmember(SamplerConfig(seed=1), ConeParams(1.0, 2.0), index=0)
        p = tmp_path / "big.jsonl"
        write_ops(p, m * (3e7 / np.linalg.norm(m)))
        rc = cli.main(["evolve", "--input", str(p), "--t-max", "100", "--output", str(tmp_path / "t.csv")])
        assert rc == 0
        fields = dict(kv.split("=", 1) for kv in capsys.readouterr().err.split())
        assert list(fields) == ["status", "steps", "max_l", "final_norm", "rejected"]
        assert int(fields["rejected"]) > 0

    def test_infinite_horizon_stops_at_a_finite_time(self, tmp_path, capsys):
        # from 0 the step doubles until the next time would pass the largest
        # float (from --dt 1e-3 that takes 1033 steps)
        p = tmp_path / "zero.jsonl"
        write_ops(p, np.zeros((6, 6)))
        out = tmp_path / "traj.csv"
        rc = cli.main(["evolve", "--input", str(p), "--t-max", "inf", "--dt", "1e300", "--output", str(out)])
        assert rc == cli.EXIT_NUMERIC
        assert "status=time-overflow" in capsys.readouterr().err
        rows = out.read_text().splitlines()[1:]
        assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))
        assert float(rows[-1].split(",")[0]) > 1e307

    @pytest.mark.parametrize("scale, argv, csv_sha256, stderr_sha256", [
        (3e7, ["--t-max", "100"],
         "e90c481c8dd67888b7cf9d61f580be29e82fad9718bc4c789e452fba37631721",
         "a9035d69f6da8bfd96ac0bc080de67b8f20e57686420471d0e05fda43d15392b"),
        (None, ["--t-max", "0.05", "--dt", "1e-4", "--eta", "1", "--mu", "2"],
         "ac2571775b2ff5db820b9c6e12da08104d2d74dff87c13e57164186602cab4f4",
         "202b73f00776b0f403d7f6c2130ef6c0eff8207d8eed264266919fa4a6afad50"),
    ], ids=["blowup-3e7", "nonmember"])
    def test_csv_and_status_line_bytes_are_pinned(self, tmp_path, capsys, scale, argv, csv_sha256, stderr_sha256):
        m = random_nonmember(SamplerConfig(seed=1), ConeParams(1.0, 2.0), index=0)
        p, out = tmp_path / "start.jsonl", tmp_path / "t.csv"
        write_ops(p, m if scale is None else m * (scale / np.linalg.norm(m)))
        assert cli.main(["evolve", "--input", str(p), *argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha256
        assert hashlib.sha256(capsys.readouterr().err.encode()).hexdigest() == stderr_sha256

    def test_overflowing_trial_step_shrinks(self, tmp_path, capsys):
        # a non-member at |R| = 3e7 overflows trial steps on its way to the
        # default blow-up norm 1e8; those steps must be rejected, not kept
        m = random_nonmember(SamplerConfig(seed=1), ConeParams(1.0, 2.0), index=0)
        p = tmp_path / "big.jsonl"
        write_ops(p, m * (3e7 / np.linalg.norm(m)))
        rc = cli.main(["evolve", "--input", str(p), "--t-max", "100", "--output", str(tmp_path / "t.csv")])
        assert rc == 0
        assert "status=blowup-stopped" in capsys.readouterr().err


class TestSample:
    def test_kinds_and_reproducibility(self, tmp_path):
        for kind in ("raw", "member", "boundary-f1", "boundary-f2", "boundary-f3"):
            a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
            argv = ["sample", "--kind", kind, "--eta", "0.5", "--mu", "1.5",
                    "--samples", "3", "--seed", "9"]
            assert cli.main(argv + ["--output", str(a)]) == 0
            assert cli.main(argv + ["--output", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes()
            assert len(a.read_text().splitlines()) == 3

    @pytest.mark.parametrize("kind", ["raw", "member", "boundary-f1", "boundary-f2", "boundary-f3"])
    def test_one_stacked_call_writes_the_per_index_draws(self, tmp_path, kind):
        from curvcone.sampling import boundary_member, random_bianchi, random_member

        out = tmp_path / "ops.jsonl"
        argv = ["sample", "--kind", kind, "--eta", "0.5", "--mu", "1.5", "--samples", "6", "--seed", "9",
                "--margin", "0.2", "--output", str(out)]
        assert cli.main(argv) == 0
        cfg, params = SamplerConfig(seed=9, margin=0.2), ConeParams(0.5, 1.5)
        if kind == "raw":
            ops = [random_bianchi(cfg, index=i) for i in range(6)]
        elif kind == "member":
            ops = [random_member(cfg, params, index=i) for i in range(6)]
        else:
            ops = [boundary_member(cfg, params, kind[-2:].upper(), index=i)[0] for i in range(6)]
        assert out.read_text() == "".join(json.dumps(operator_to_json_dict(m)) + "\n" for m in ops)

    @pytest.mark.parametrize("kind, eta, mu, samples, seed, digest", [
        ("member", "2", "4", 200, 5, "9233b27b693162e78b9032fe412d6a7c31472cb35b5a47dfa7a3bb34d6e87949"),
        ("boundary-f1", "2", "4", 200, 5, "b3fbd9a204955c0b60e986c123941e9780059bd18f3f7c4bee7aa354ad741f1e"),
        ("boundary-f2", "2", "4", 200, 5, "4c48ac95ac96845b9d784f95872cdb4e62e2f37215d649bd4d390d8b76d7f704"),
        ("boundary-f3", "2", "4", 200, 5, "f79a76ffc4a690078fd7df74118d3cf1657e76b2257b1956866df89cb86adc89"),
        # indices 1439 and 1645 first pass the trace shift after ROUND attempts
        ("member", "1", "2", 1700, 1, "1832ec876b539a7031f9cc49d3169258d7b82eb1621e183bc5c33fb97d2cc3bc"),
    ])
    def test_sample_bytes_are_pinned(self, tmp_path, kind, eta, mu, samples, seed, digest):
        # at (eta, mu) = (2, 4) most draws reject attempts at the trace shift
        out = tmp_path / "ops.jsonl"
        assert cli.main(["sample", "--kind", kind, "--eta", eta, "--mu", mu, "--samples", str(samples),
                         "--seed", str(seed), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_infeasible_margin_exits_2(self, capsys):
        # admissible only because 1e20 - 1 == 1e20: no attempt lands on the face
        argv = ["sample", "--kind", "boundary-f1", "--eta", "1e20", "--mu", "1e20", "--samples", "3"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("curvcone: ") and "no draw in" in err and err.count("\n") == 1

    def test_negative_sample_count_exits_2(self, tmp_path, capsys):
        out = tmp_path / "ops.jsonl"
        assert cli.main(["sample", "--samples", "-3", "--output", str(out)]) == 2
        assert "samples must be nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestCutoffCommand:
    def test_report(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        rc = cli.main(["cutoff", "--eps", "0.5", "--sigma", "1", "--r", "0",
                       "--grid", "2000", "--output", str(out)])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is True
        assert len(rep["bounds"]) == 6
        rows = out.read_text().splitlines()
        assert rows[0] == "x,phi,dphi,d2phi"
        assert len(rows) == 2001

    def test_non_finite_margin_is_null(self, capsys):
        # eps**2 sigma**2 is just above the least normal double: the curvature
        # bound and phi'' pass the largest double, so the margin is NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["cutoff", "--eps", "1", "--sigma", "1.5e-154", "--r", "0", "--grid", "200"]) == 1
        rep = json.loads(capsys.readouterr().out, parse_constant=lambda c: pytest.fail(f"non-JSON {c}"))
        assert {b["name"]: b["margin"] for b in rep["bounds"]}["curvature-power-bound"] is None

    @pytest.mark.parametrize("eps_sigma", [("1e-300", "1"), ("0.5", "1e-155"), ("1.0", "1e-160")], ids=str)
    def test_tiny_eps_sigma_exits_2(self, capsys, eps_sigma):
        eps, sigma = eps_sigma
        assert cli.main(["cutoff", "--eps", eps, "--sigma", sigma, "--r", "0", "--grid", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("curvcone: ") and err.count("\n") == 1

    def test_dash_writes_the_csv_to_stdout_after_the_report(self, capsys):
        argv = ["cutoff", "--eps", "0.5", "--sigma", "1", "--r", "1", "--grid", "200"]
        assert cli.main(argv) == 0
        json.loads(capsys.readouterr().out)  # no --output: the report alone
        assert cli.main(argv + ["--output", "-"]) == 0
        report, _, csv = capsys.readouterr().out.partition("x,phi,dphi,d2phi\n")
        assert json.loads(report)["grid_n"] == 200
        rows = csv.splitlines()
        assert len(rows) == 200 and all(len(r.split(",")) == 4 for r in rows)


class TestVerifyCommand:
    def test_small_run_passes(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = cli.main(["verify", "--suite", "algebra", "--seed", "3", "--samples", "10",
                       "--output", str(out)])
        assert rc == 0
        table = capsys.readouterr().out
        assert "PASS" in table and "FAIL" not in table
        rep = json.loads(out.read_text())
        assert rep["all_passed"] is True

    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["verify", "--suite", "algebra", "--seed", "5", "--samples", "10"]
        assert cli.main(argv + ["--output", str(a)]) == 0
        assert cli.main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_sample_count_exits_2(self, capsys):
        assert cli.main(["verify", "--suite", "cutoff", "--samples", "-3"]) == 2
        captured = capsys.readouterr()
        assert "samples must be nonnegative" in captured.err
        assert "checks passed" not in captured.out
        with pytest.raises(ValueError):
            vf.run("algebra", seed=1, samples=-1)

    @pytest.mark.parametrize("kind", ["residual", "slack", "count"])
    @pytest.mark.parametrize("values", [[0.0, math.nan, 0.0], [math.nan, 0.0, 0.0]], ids=["middle", "first"])
    def test_nan_sample_fails_the_check(self, kind, values):
        chk = vf._Check("algebra", "probe", "claim", kind, 1e-10, 0)
        for i, v in enumerate(values):
            chk.add(v, i)
        rec = chk.done()
        assert rec["passed"] is False
        assert [(f["index"], f["value"]) for f in rec["failures"]] == [(values.index(math.nan), None)]
        assert rec["worst"] is None
        json.dumps(rec, allow_nan=False)  # strict JSON

    @pytest.mark.parametrize("kind", ["residual", "slack", "count"])
    def test_array_add_equals_one_add_per_value(self, kind):
        vals = np.array([0.0, 2.0, -2.0, 0.0, 5.0, -1.0])
        ops = np.arange(len(vals) * 36, dtype=float).reshape(-1, 6, 6)
        one = vf._Check("algebra", "probe", "claim", kind, 1.0, 0)
        one.add(vals, np.arange(len(vals)) + 10, ops, [f"k={k}" for k in range(len(vals))])
        each = vf._Check("algebra", "probe", "claim", kind, 1.0, 0)
        for k, v in enumerate(vals):
            each.add(v, k + 10, ops[k], f"k={k}")
        assert one.done() == each.done()
        assert one.record["failures"]

    def test_report_carries_its_version(self):
        assert vf.run("cutoff", seed=1, samples=0)["report_version"] == 4

    def test_report_bytes_are_pinned(self):
        # a change that moves any number of a report bumps report_version and
        # this digest together
        report = vf.report_json(vf.run("all", seed=1, samples=100))
        assert hashlib.sha256(report.encode("utf-8")).hexdigest() == REPORT_V4_SHA256

    def test_cone_suite_draws_its_frames_once_for_every_parameter_set(self, monkeypatch):
        # 20 flag seeds and 2 octet seeds, each one substream for all three
        # (eta, mu), with the bits of one substream per seed and set
        from curvcone import sampling

        built, substream = [], sampling.substream

        def counted(*args):
            built.append(args)
            return substream(*args)

        monkeypatch.setattr(sampling, "substream", counted)
        report = vf.report_json(vf.run("cone", seed=1, samples=20))
        assert len(built) == 22
        assert hashlib.sha256(report.encode("utf-8")).hexdigest() == CONE_20_V4_SHA256

    def test_certify_checks_match_the_benchmark_reference(self, tmp_path):
        # the (id, samples) list the certify benchmark expects, read only
        ref_path = Path(__file__).resolve().parent.parent / "perfbench" / "certify_reference.json"
        ref = json.loads(ref_path.read_text())
        out = tmp_path / "rep.json"
        rc = cli.main(["verify", "--suite", "all", "--seed", "1", "--samples", str(ref["samples"]),
                       "--output", str(out)])
        rep = json.loads(out.read_text())
        assert rc == 0 and rep["all_passed"]
        assert [[c["id"], c["samples"]] for c in rep["checks"]] == ref["checks"]
        assert all(c["passed"] for c in rep["checks"])

    def test_injected_fault_fails_with_replayable_artifact(self, tmp_path, monkeypatch):
        # corrupt the #-square sign inside the null-vector evaluation
        from curvcone import cone as cn
        from curvcone import wedge as wg

        def corrupt_q(m):
            return np.asarray(m, float) @ np.asarray(m, float) - wg.sharp(m, m)

        monkeypatch.setattr(cn, "q_operator", corrupt_q)
        rep = vf.run("nullvector", seed=5, samples=3)
        assert not rep["all_passed"]
        failing = [c for c in rep["checks"] if not c["passed"] and c["failures"]]
        assert failing
        art = failing[0]["failures"][0]
        assert "operator" in art and "index" in art
        # the artifact replays: deserialize and reproduce the violation
        m = wg.operator_from_json_dict(art["operator"])
        assert m.shape == (6, 6)


class TestConfigAndEnv:
    def test_config_file_fills_defaults(self, tmp_path, ops_file):
        cfgf = tmp_path / "conf"
        cfgf.write_text("eta = 0.5\nmu = 1.5\n# comment\n")
        out = tmp_path / "chk.jsonl"
        rc = cli.main(["--config", str(cfgf), "check", "--input", str(ops_file),
                       "--output", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text().splitlines()[0])
        # eta=0.5, mu=1.5 closed forms for the identity operator
        assert rec["F1"] == pytest.approx(2.0, abs=1e-9)
        assert rec["F2"] == pytest.approx(1.0, abs=1e-9)

    def test_explicit_flag_beats_config(self, tmp_path, ops_file):
        cfgf = tmp_path / "conf"
        cfgf.write_text("eta = 0.5\n")
        out = tmp_path / "chk.jsonl"
        rc = cli.main(["--config", str(cfgf), "check", "--input", str(ops_file),
                       "--eta", "1", "--mu", "2", "--output", str(out)])
        assert rc == 0
        rec = json.loads(out.read_text().splitlines()[0])
        assert rec["F1"] == pytest.approx(4.0, abs=1e-9)

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CURVCONE_SEED", "9")
        a = tmp_path / "a.jsonl"
        assert cli.main(["sample", "--samples", "2", "--output", str(a)]) == 0
        monkeypatch.delenv("CURVCONE_SEED")
        b = tmp_path / "b.jsonl"
        assert cli.main(["sample", "--samples", "2", "--seed", "9", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_flag_rejected(self):
        assert cli.main(["check", "--frobnicate"]) == 2

    def test_abbreviated_flag_beats_config(self, tmp_path):
        cfgf = tmp_path / "conf"
        cfgf.write_text("samples = 7\n")
        out = tmp_path / "v.json"
        rc = cli.main(["--config", str(cfgf), "verify", "--suite", "cutoff", "--sam", "2",
                       "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["samples"] == 2

    @pytest.mark.parametrize("line,argv,flag", [
        ("samples = abc", ["verify", "--suite", "cutoff"], "--samples"),
        ("eta = abc", ["check"], "--eta"),
        ("kind = bogus", ["sample"], "kind"),
        ("require_member = maybe", ["check"], "require_member"),
    ])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, ops_file, line, argv, flag):
        cfgf = tmp_path / "conf"
        cfgf.write_text(line + "\n")
        out = tmp_path / "out"
        rc = cli.main(["--config", str(cfgf)] + argv + ["--output", str(out)]
                      + (["--input", str(ops_file)] if argv == ["check"] else []))
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err and flag in err
        assert not out.exists()

    def test_bad_env_seed_exits_2(self, monkeypatch, capsys):
        monkeypatch.setenv("CURVCONE_SEED", "abc")
        assert cli.main(["sample", "--samples", "1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_config_seed_beats_env(self, tmp_path, monkeypatch):
        cfgf = tmp_path / "conf"
        cfgf.write_text("seed = 3\n")
        monkeypatch.setenv("CURVCONE_SEED", "9")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli.main(["--config", str(cfgf), "sample", "--samples", "2", "--output", str(a)]) == 0
        assert cli.main(["sample", "--samples", "2", "--seed", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("value,code", [("true", 1), ("false", 0), ("True", 1)])
    def test_require_member_from_config(self, tmp_path, ops_file, value, code):
        cfgf = tmp_path / "conf"
        cfgf.write_text(f"require_member = {value}\n")
        out = tmp_path / "chk.jsonl"
        # ops_file holds -I, a non-member
        assert cli.main(["--config", str(cfgf), "check", "--input", str(ops_file),
                         "--output", str(out)]) == code

    def test_shared_config_ignores_other_subcommands_keys(self, tmp_path, ops_file):
        cfgf = tmp_path / "conf"
        cfgf.write_text("samples = abc\nkind = bogus\nsuite = none\neta = 0.5\nmu = 1.5\n")
        out = tmp_path / "chk.jsonl"
        rc = cli.main(["--config", str(cfgf), "check", "--input", str(ops_file), "--output", str(out)])
        assert rc == 0
        assert json.loads(out.read_text().splitlines()[0])["F1"] == pytest.approx(2.0, abs=1e-9)

    def test_config_defaults_last_one_call(self, tmp_path, ops_file):
        # the parser is shared by every call of the process; a config's
        # defaults must not reach the next call
        cfgf = tmp_path / "conf"
        cfgf.write_text("eta = 0.5\n")
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli.main(["--config", str(cfgf), "check", "--input", str(ops_file), "--output", str(a)]) == 0
        assert json.loads(a.read_text().splitlines()[0])["F1"] == pytest.approx(2.0, abs=1e-9)
        assert cli.main(["check", "--input", str(ops_file), "--output", str(b)]) == 0
        assert json.loads(b.read_text().splitlines()[0])["F1"] == pytest.approx(4.0, abs=1e-9)

    def test_env_seed_read_on_every_call(self, tmp_path, monkeypatch):
        for seed in ("9", "4"):
            monkeypatch.setenv("CURVCONE_SEED", seed)
            env, flag = tmp_path / f"env{seed}.jsonl", tmp_path / f"flag{seed}.jsonl"
            assert cli.main(["sample", "--samples", "2", "--output", str(env)]) == 0
            assert cli.main(["sample", "--samples", "2", "--seed", seed, "--output", str(flag)]) == 0
            assert env.read_bytes() == flag.read_bytes()
        assert (tmp_path / "env9.jsonl").read_bytes() != (tmp_path / "env4.jsonl").read_bytes()

    def test_bad_config_value_leaves_next_call_defaults(self, tmp_path, ops_file):
        # eta is set before require_member is rejected; the exit must undo it
        cfgf = tmp_path / "conf"
        cfgf.write_text("eta = 0.5\nrequire_member = maybe\n")
        assert cli.main(["--config", str(cfgf), "check", "--input", str(ops_file)]) == 2
        out = tmp_path / "chk.jsonl"
        # ops_file holds -I, a non-member: exit 0 only while --require-member is off
        assert cli.main(["check", "--input", str(ops_file), "--output", str(out)]) == 0
        assert json.loads(out.read_text().splitlines()[0])["F1"] == pytest.approx(4.0, abs=1e-9)

    def test_parser_built_once_per_process(self, tmp_path, ops_file, monkeypatch):
        import argparse
        import types

        built = []

        def counting(*args, **kwargs):
            built.append(kwargs.get("prog"))
            return argparse.ArgumentParser(*args, **kwargs)

        # cli sees an argparse whose ArgumentParser counts its calls
        monkeypatch.setattr(cli, "argparse",
                            types.SimpleNamespace(**{**vars(argparse), "ArgumentParser": counting}))
        cli._parser.cache_clear()
        out = str(tmp_path / "out")
        for argv in (["check", "--input", str(ops_file)], ["l", "--input", str(ops_file)],
                     ["sample", "--samples", "1"], ["check", "--frobnicate"]):
            cli.main(argv + ["--output", out])
        assert built == ["curvcone"]
        # build_parser itself still builds a new parser on every call
        assert cli.build_parser() is not cli.build_parser()
        assert len(built) == 3

    def test_missing_or_malformed_config_exits_2(self, tmp_path, ops_file, capsys):
        assert cli.main(["--config", str(tmp_path / "absent"), "check", "--input", str(ops_file)]) == 2
        cfgf = tmp_path / "conf"
        cfgf.write_text("eta 0.5\n")
        assert cli.main(["--config", str(cfgf), "check", "--input", str(ops_file)]) == 2
        assert "line 1" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    p = tmp_path / "ops.jsonl"
    write_ops(p, I6)
    res = subprocess.run(
        [sys.executable, "-m", "curvcone.cli", "decompose", "--input", str(p)],
        capture_output=True, text=True,
    )
    assert res.returncode == 0
    assert json.loads(res.stdout.splitlines()[0])["eigsA"] == [pytest.approx(1.0)] * 3
