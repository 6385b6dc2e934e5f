"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Sample counts, tolerances and runtime ceilings are pinned here;
nothing is deferred to later calibration.
"""

import math
import time

import numpy as np
import pytest

from curvcone import cli
from curvcone import cone as cn
from curvcone import cutoff as co
from curvcone import decomposition as dc
from curvcone import flow as fl
from curvcone import sampling as smp
from curvcone import wedge as wg

SEED = 20240
CFG = smp.SamplerConfig(seed=SEED)
PARAM_SETS = (cn.ConeParams(0.5, 1.5), cn.ConeParams(1.0, 2.0), cn.ConeParams(0.1, 1.1))
I6 = np.eye(6)


def _report(tag, passed, detail):
    print(f"[{tag}] {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, f"{tag}: {detail}"


def _bianchi_batch(n, offset=0):
    return smp.random_bianchi(CFG, index=offset + np.arange(n))


def test_ac01_sharp_identity_pair():
    t0 = time.perf_counter()
    exact = np.array_equal(wg.sharp(I6, I6), 2.0 * I6)
    worst = 0.0
    for m in _bianchi_batch(1000):
        lhs = wg.sharp(m, I6)
        rhs = 0.5 * wg.kulkarni_nomizu(wg.ricci(m), np.eye(4)) - m
        worst = max(worst, wg.frobenius(lhs - rhs) / max(1.0, wg.frobenius(m) ** 2))
    elapsed = time.perf_counter() - t0
    _report(
        "AC-01", exact and worst <= 1e-10 and elapsed < 5.0,
        f"identity #-pair: I#=2I exact={exact}, worst rel residual {worst:.2e} <= 1e-10, {elapsed:.2f}s < 5s",
    )


def test_ac02_dual_sharp_routes_agree():
    worst = 0.0
    for i in range(1000):
        g = smp.substream(SEED, "ac02", i).standard_normal((6, 6))
        m = 0.5 * (g + g.T)
        worst = max(
            worst,
            wg.frobenius(wg.sharp(m, m) - wg.sharp_coord(m)) / max(1.0, wg.frobenius(m) ** 2),
        )
    _report("AC-02", worst <= 1e-12, f"dual #-routes: worst rel diff {worst:.2e} <= 1e-12")


def test_ac03_block_sharp_identity():
    worst = 0.0
    for m in _bianchi_batch(1000, offset=2000):
        worst = max(worst, dc.block_sharp_identity(m) / max(1.0, wg.frobenius(m) ** 2))
    _report("AC-03", worst <= 1e-10, f"block #-identity: worst rel residual {worst:.2e} <= 1e-10")


def test_ac04_norm_identity_and_weyl():
    star = dc.hodge_star()
    worst_n = worst_w = 0.0
    for m in _bianchi_batch(1000, offset=4000):
        nrm = max(1.0, wg.frobenius(m))
        worst_n = max(worst_n, dc.norm_identity_check(m) / nrm)
        wy = dc.weyl(m)
        worst_w = max(worst_w, wg.frobenius(star @ wy - wy @ star) / nrm)
    _report(
        "AC-04", worst_n <= 1e-10 and worst_w <= 1e-12,
        f"|traceless Ricci|=2|B| worst {worst_n:.2e} <= 1e-10; Weyl-star commutator {worst_w:.2e} <= 1e-12",
    )


def test_ac05_null_vector_condition():
    t0 = time.perf_counter()
    worst_nv = math.inf
    worst_ham = math.inf
    for params in PARAM_SETS:
        for face in ("F1", "F2", "F3"):
            deg = cn.FACE_DEGREE[face] + 1
            ms, _ = smp.boundary_member(CFG, params, face, index=np.arange(1000))
            rep = cn.null_vector_verify(ms, params, face)
            assert rep.precondition_ok.all(), rep.message[~rep.precondition_ok].tolist()
            nrm = wg.frobenius(ms)
            worst_nv = min(worst_nv, float(np.min(rep.slack / np.maximum(1.0, np.float_power(nrm, deg)))))
            worst_ham = min(
                worst_ham,
                float(np.min(cn.hamilton_intermediate_slack(ms) / np.maximum(1.0, np.float_power(nrm, 2)))),
            )
    elapsed = time.perf_counter() - t0
    _report(
        "AC-05", worst_nv >= -1e-8 and worst_ham >= -1e-8 and elapsed < 60.0,
        f"null-vector slack {worst_nv:.2e} >= -1e-8 (homogeneity-scaled), "
        f"intermediate X^Q bound slack {worst_ham:.2e} >= -1e-8, {elapsed:.1f}s < 60s",
    )


def test_ac06_barrier_expansion():
    worst = 0.0
    for i in range(1000):
        rng = smp.substream(SEED, "ac06", i)
        g = rng.uniform(-10.0, 10.0, (6, 6))
        m = wg.project_bianchi(0.5 * (g + g.T))
        big, small = rng.uniform(-10.0, 10.0, 2)
        worst = max(
            worst,
            wg.barrier_q_expansion(m, big, small) / (1.0 + wg.frobenius(m) ** 2 + small**2),
        )
    _report("AC-06", worst <= 1e-10, f"barrier expansion: worst rel residual {worst:.2e} <= 1e-10")


def test_ac07_reaction_exactness_and_order():
    traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.1, rtol=1e-10))
    worst = 0.0
    for t, op in zip(traj.samples.t, traj.samples.operator):
        c = 1.0 / (1.0 - 6.0 * t)
        worst = max(worst, wg.frobenius(op - c * I6) / (c * math.sqrt(6.0)))
    errs = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        t = fl.integrate(I6, fl.TrajectoryConfig(dt=dt, t_max=0.1, adaptive=False))
        errs.append(wg.frobenius(t.samples.operator[-1] - 2.5 * I6))
    ratios = (errs[0] / errs[1], errs[1] / errs[2])
    ok = worst <= 1e-8 and all(12.0 <= r <= 20.0 for r in ratios)
    _report(
        "AC-07", ok,
        f"identity-ray error {worst:.2e} <= 1e-8; step-halving ratios {ratios[0]:.1f}, {ratios[1]:.1f} in [12, 20]",
    )


def test_ac08_empirical_cone_invariance():
    t0 = time.perf_counter()
    worst = 0.0
    for params in PARAM_SETS:
        r0s = smp.random_member(CFG, params, index=8000 + np.arange(100))
        cfgs = [fl.TrajectoryConfig(dt=1e-3, t_max=min(0.05, 0.5 / nrm), rtol=1e-8, blowup_norm=1e6)
                for nrm in wg.frobenius(r0s).tolist()]
        trajs = fl.integrate(r0s, cfgs)
        scale = np.maximum(1.0, np.maximum.reduceat(wg.frobenius(trajs.samples.operator), trajs.first()))
        worst = max([worst] + (fl.invariance_monitor(trajs, params) / scale).tolist())
    elapsed = time.perf_counter() - t0
    _report(
        "AC-08", worst <= 1e-6 and elapsed < 120.0,
        f"cone invariance: max l/scale {worst:.2e} <= 1e-6 over 300 member trajectories, {elapsed:.1f}s < 120s",
    )


def test_ac09_lower_bound_functional():
    p = cn.ConeParams(1.0, 2.0)
    l_neg = cn.lower_bound_l(-I6, p, tol=1e-9)
    ok_neg = abs(l_neg - 1.0) <= 1e-8
    worst_hom = 0.0
    for m in smp.random_bianchi(CFG, index=9000 + np.arange(50)):
        lv = cn.lower_bound_l(m, p, tol=1e-9)
        for c in (0.1, 10.0):
            worst_hom = max(worst_hom, abs(cn.lower_bound_l(c * m, p, tol=1e-9) - c * lv))
    ok_bound = True
    for params in PARAM_SETS:
        for m in smp.random_bianchi(CFG, index=10_000 + np.arange(1000)):
            lv = cn.lower_bound_l(m, params, tol=1e-9)
            ok_bound = ok_bound and lv <= (1.0 + 2.0 / params.eta) * wg.frobenius(m) + 1e-6
    _report(
        "AC-09", ok_neg and worst_hom <= 1e-6 and ok_bound,
        f"l(-I)={l_neg:.9f} within 1e-8; homogeneity error {worst_hom:.2e} <= 1e-6; "
        f"linear bound l <= (1+2/eta)|R| on 3x1000 operators: {ok_bound}",
    )


def test_ac10_implied_conditions():
    worst = {"wpic": 0.0, "flag": math.inf, "pinch": math.inf, "upic": math.inf}
    idx = np.arange(1000)
    for params in PARAM_SETS:
        ms = smp.random_member(CFG, params, index=12_000 + idx)
        nrm = wg.frobenius(ms)
        tol = 1e-10 * np.maximum(1.0, nrm)
        worst["wpic"] += float(np.count_nonzero(~cn.implies_wpic(ms, params)))
        smin, cert = cn.two_nonneg_flag(ms, 50, seed=SEED + idx)
        worst["flag"] = min(worst["flag"], float(np.min(np.minimum(cert + tol, smin - cert + tol) / nrm)))
        worst["upic"] = min(worst["upic"], float(np.min((cn.uniform_pic_check(ms, params) + tol) / nrm)))
        if params.eta == 0.5:
            worst["pinch"] = min(worst["pinch"], float(np.min((cn.ricci_pinch_check(ms, params) + tol) / nrm)))
    ok = (
        worst["wpic"] == 0.0
        and worst["flag"] >= 0.0
        and worst["pinch"] >= 0.0
        and worst["upic"] >= 0.0
    )
    _report(
        "AC-10", ok,
        "members: wpic violations "
        f"{int(worst['wpic'])}, flag-certificate margin {worst['flag']:.2e}, "
        f"ricci-pinch margin {worst['pinch']:.2e}, uniform-pic margin {worst['upic']:.2e} (all >= -1e-10|R|)",
    )


def test_ac11_cutoff_certification():
    t0 = time.perf_counter()
    violations = 0
    for eps in (0.1, 0.5, 1.0):
        for sigma in (0.5, 1.0, 2.0):
            rep = co.verify_cutoff(co.CutoffFunction(co.CutoffSpec(eps=eps, sigma=sigma, r=1.0)))
            violations += sum(b.margin < 0.0 for b in rep.bounds)
    elapsed = time.perf_counter() - t0
    _report(
        "AC-11", violations == 0 and elapsed < 5.0,
        f"cutoff conclusions: {violations} violations over 9 (eps, sigma) pairs on 1e4-point grids, {elapsed:.2f}s < 5s",
    )


def test_ac12_l_differential_inequality():
    p = cn.ConeParams(1.0, 2.0)
    r0s = smp.random_nonmember(CFG, p, index=14_000 + np.arange(100))
    assert not np.any(cn.is_member(r0s, p))
    cfgs = [fl.TrajectoryConfig(dt=2e-4, t_max=min(0.02, 0.3 / nrm), adaptive=False)
            for nrm in wg.frobenius(r0s).tolist()]
    worst = min(rep.worst_slack for rep in fl.l_inequality_monitor(fl.integrate(r0s, cfgs), p))
    _report(
        "AC-12", worst >= 0.0,
        f"reaction inequality for l: worst slack {worst:.2e} >= 0 over 100 non-member starts",
    )


def test_ac13_verify_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "--suite", "all", "--seed", "17", "--samples", "10"]
    rc1 = cli.main(argv + ["--output", str(a)])
    rc2 = cli.main(argv + ["--output", str(b)])
    same = a.read_bytes() == b.read_bytes()
    _report(
        "AC-13", rc1 == 0 and rc2 == 0 and same,
        f"verify determinism: exit codes ({rc1}, {rc2}), byte-identical JSON: {same}",
    )
