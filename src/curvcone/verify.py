"""Seeded certification suites: every algebraic claim becomes a check.

Five suites (algebra, cone, nullvector, flow, cutoff) draw seeded samples,
evaluate the corresponding identities or inequalities, and report one
record per claim: a worst observed value, the tolerance it must meet, and
replayable failure artifacts (sample index plus the offending operator
serialized as JSON).  Reports contain no timestamps, and every draw is a
Philox block keyed by (seed, tag) at a counter that starts with the sample
index, so a fixed seed yields byte-identical JSON across runs regardless of
execution order.  Suites draw each index array in one sampler call and then
evaluate each check over the stack of draws; the samplers and the stacked
kernels give each operator the bits of a single call, so the report does
not depend on how the work is batched.

Check kinds:
* ``residual`` passes when worst <= tol,
* ``slack``    passes when worst >= -tol,
* ``count``    passes when worst == 0 (number of violating samples).

A NaN sample fails its check, and a non-finite worst or failure value is
written as null, so that the report stays strict JSON.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import cone as cn
from . import cutoff as co
from . import decomposition as dc
from . import flow as fl
from . import sampling as smp
from . import wedge as wg

SUITE_NAMES = ("algebra", "cone", "nullvector", "flow", "cutoff")
PARAM_SETS = ((0.5, 1.5), (1.0, 2.0), (0.1, 1.1))

_MAX_FAILURES = 3

# check kind -> (fold of the values into the worst one, pass test of a value
# against tol); a NaN value compares false, so it fails, and each fold keeps it
_KINDS = {
    "residual": (np.max, lambda v, tol: v <= tol),
    "slack": (np.min, lambda v, tol: v >= -tol),
    "count": (np.sum, lambda v, tol: v == 0.0),
}


class _Check:
    def __init__(self, suite, check_id, claim, kind, tol, seed):
        self.record = {
            "suite": suite,
            "id": check_id,
            "claim": claim,
            "kind": kind,
            "tol": tol,
            "seed": seed,
            "samples": 0,
            "worst": None,
            "passed": True,
            "failures": [],
        }

    def add(self, values, indices=None, operators=None, contexts=None):
        """Fold a value, or an array of values in order, into the record.

        ``indices`` and ``operators`` hold each value's replay data (one each
        for a single value), ``contexts`` one string per value or one for all;
        the first failures keep them.  A NaN value fails the check.
        """
        rec = self.record
        vals = np.asarray(values, dtype=float)
        if vals.ndim == 0:
            indices = None if indices is None else [indices]
            operators = None if operators is None else [operators]
        vals = vals.ravel()
        rec["samples"] += vals.size
        fold, passes = _KINDS[rec["kind"]]
        bad = ~passes(vals, rec["tol"])
        if vals.size:
            rec["worst"] = float(fold(np.append(vals, [] if rec["worst"] is None else rec["worst"])))
        for k in np.flatnonzero(bad)[: _MAX_FAILURES - len(rec["failures"])].tolist():
            failure = {"index": None if indices is None else int(indices[k]), "value": _finite_or_none(vals[k])}
            context = contexts if contexts is None or isinstance(contexts, str) else contexts[k]
            if context:
                failure["context"] = context
            if operators is not None:
                failure["operator"] = wg.operator_to_json_dict(operators[k])
            rec["failures"].append(failure)

    def done(self):
        rec = self.record
        worst = 0.0 if rec["worst"] is None else rec["worst"]
        # a Python bool, which json can write
        rec["passed"] = bool(_KINDS[rec["kind"]][1](worst, rec["tol"]))
        # strict JSON has no NaN or infinity
        rec["worst"] = _finite_or_none(worst)
        return rec


def _finite_or_none(x):
    return float(x) if math.isfinite(x) else None


def _params(eta_mu):
    return cn.ConeParams(*eta_mu)


def _tag(eta_mu):
    return f"eta{eta_mu[0]}-mu{eta_mu[1]}"


def _l(spectra, params):
    # l over a stack, from its block_spectra, by the stacked body of
    # cone.lower_bound_l
    return cn._l(cn._spectra(None, spectra), params)


def _dot(u, v):
    # <u, v> over the last axis, one BLAS dot per vector as ``u @ v`` takes it
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

def suite_algebra(seed: int, n: int) -> list[dict]:
    cfg = smp.SamplerConfig(seed=seed)
    i6 = np.eye(6)

    c_exact = _Check("algebra", "identity-sharp-exact", "I # I equals 2 I exactly", "residual", 0.0, seed)
    c_exact.add(wg.frobenius(wg.sharp(i6, i6) - 2.0 * i6))

    c_a1 = _Check("algebra", "sharp-with-identity", "R # I = Ric^id/2 - R on Bianchi operators", "residual", 1e-10, seed)
    c_dual = _Check("algebra", "sharp-dual-route", "structure-constant and coordinate #-squares agree", "residual", 1e-12, seed)
    c_blk = _Check("algebra", "block-sharp-identity", "R#R = 2(A#, B#; (B#)^T, C#) in the SD basis", "residual", 1e-10, seed)
    c_nrm = _Check("algebra", "traceless-ricci-norm", "|traceless Ricci| = 2 |B|", "residual", 1e-10, seed)
    c_wey = _Check("algebra", "weyl-star-commute", "Weyl part commutes with the Hodge star", "residual", 1e-12, seed)
    c_bar = _Check("algebra", "barrier-expansion", "Q(F R + f I) = F^2 Q(R) + f F Ric^id + 3 f^2 I", "residual", 1e-10, seed)
    c_jac = _Check("algebra", "lie-jacobi", "Jacobi identity of the 2-form bracket", "residual", 1e-12, seed)
    c_adi = _Check("algebra", "bracket-pairing", "<[u,v],w> is fully antisymmetric", "residual", 1e-12, seed)
    c_ray = _Check("algebra", "ricci-kn-on-rays", "(Ric^id)(z,z) = scal/2 on unit (anti)self-dual z", "residual", 1e-10, seed)
    star = dc.hodge_star()
    basis = dc.canonical_selfdual_basis()

    idx = np.arange(n)
    ms = smp.random_bianchi(cfg, index=idx)
    nrm = wg.frobenius(ms)
    # squares by pow (np.float_power), as Python's x**2 takes them, so that
    # each sample keeps the bits of a one-operator evaluation
    scale1, scale2 = np.maximum(1.0, nrm), np.maximum(1.0, np.float_power(nrm, 2))
    lhs = wg.sharp(ms, i6)
    kn = wg.kulkarni_nomizu(wg.ricci(ms), np.eye(4))
    c_a1.add(wg.frobenius(lhs - (0.5 * kn - ms)) / scale2, idx, ms)
    c_blk.add(dc.block_sharp_identity(ms) / scale2, idx, ms)
    c_nrm.add(dc.norm_identity_check(ms) / scale1, idx, ms)
    wy = dc.weyl(ms)
    c_wey.add(wg.frobenius(star @ wy - wy @ star) / scale1, idx, ms)

    # 24 blocks per index: 57 normals (from 58 uniforms), then 38 uniforms
    u = smp._uniforms(seed, "algebra-misc", idx, 0, range(24))
    normals = smp._gaussians(u[:, :58])
    g, uvz, w3 = normals[:, :36].reshape(n, 6, 6), normals[:, 36:54].reshape(n, 3, 6), normals[:, 54:57]
    mb = -10.0 + 20.0 * u[:, 58:94].reshape(n, 6, 6)
    phis = -10.0 + 20.0 * u[:, 94:96]

    sym = 0.5 * (g + g.swapaxes(-1, -2))
    c_dual.add(wg.frobenius(wg.sharp(sym, sym) - wg.sharp_coord(sym))
               / np.maximum(1.0, np.float_power(wg.frobenius(sym), 2)), idx, sym)

    mb = wg.project_bianchi(mb)
    mb = wg.project_bianchi(0.5 * (mb + mb.swapaxes(-1, -2)))
    big, small = phis[:, 0], phis[:, 1]
    c_bar.add(
        wg.barrier_q_expansion(mb, big, small)
        / (1.0 + np.float_power(wg.frobenius(mb), 2) + np.float_power(small, 2)),
        idx, mb, [f"Phi={b!r}, phi={s_!r}" for b, s_ in zip(big.tolist(), small.tolist())],
    )

    u, v, z = uvz[:, 0], uvz[:, 1], uvz[:, 2]
    norms = [np.sqrt(_dot(x, x)) for x in (u, v, z)]
    scale = np.maximum(1.0, norms[0] * norms[1] * norms[2])
    jac = (
        wg.lie_bracket(u, wg.lie_bracket(v, z))
        + wg.lie_bracket(v, wg.lie_bracket(z, u))
        + wg.lie_bracket(z, wg.lie_bracket(u, v))
    )
    c_jac.add(np.sqrt(_dot(jac, jac)) / scale, idx)
    p1 = _dot(wg.lie_bracket(u, v), z)
    c_adi.add(np.maximum(np.abs(p1 + _dot(wg.lie_bracket(u, z), v)),
                         np.abs(p1 + _dot(wg.lie_bracket(v, u), z))) / scale, idx)

    w3 = w3 / np.sqrt(_dot(w3, w3))[:, None]
    zeta_p = w3[:, None, :] @ basis.plus
    zeta_m = w3[:, None, :] @ basis.minus
    half_scal = 0.5 * wg.scalar(ms)
    c_ray.add(
        np.maximum(np.abs((zeta_p @ kn @ zeta_p.swapaxes(-1, -2))[:, 0, 0] - half_scal),
                   np.abs((zeta_m @ kn @ zeta_m.swapaxes(-1, -2))[:, 0, 0] - half_scal)) / scale1,
        idx, ms,
    )

    return [c.done() for c in (c_exact, c_a1, c_dual, c_blk, c_nrm, c_wey, c_bar, c_jac, c_adi, c_ray)]


# ---------------------------------------------------------------------------
# cone suite
# ---------------------------------------------------------------------------

def suite_cone(seed: int, n: int) -> list[dict]:
    cfg = smp.SamplerConfig(seed=seed)
    checks: list[dict] = []
    small = max(2, n // 10)
    i6 = np.eye(6)
    sets = [_params(eta_mu) for eta_mu in PARAM_SETS]

    c = _Check("cone", "l-minus-identity", "l(-I) = 1", "residual", 1e-8, seed)
    c.add(abs(cn.lower_bound_l(-i6, cn.ConeParams(1.0, 2.0)) - 1.0))
    checks.append(c.done())

    # draws, rotations and spectra that do not depend on (eta, mu), taken once
    # for every parameter set: Bianchi operators R, their multiples 0.1 R and
    # 10 R, their rotations, and the Bianchi operators of the linear bound
    sidx = np.arange(small)
    bms = smp.random_bianchi(cfg, index=1000 + sidx)
    bnorms = wg.frobenius(bms)
    bspec = dc.block_spectra(bms)
    scaled = {c_: dc.block_spectra(c_ * bms) for c_ in (0.1, 10.0)}
    rbms = wg.rotate_operator(bms, smp._rotations(smp._normals(seed, "cone-rot", sidx, (4, 4))))
    rspec = dc.block_spectra(rbms)
    idx = np.arange(n)
    mbs = smp.random_bianchi(cfg, index=3000 + idx)
    mbnorms, mbspec = wg.frobenius(mbs), dc.block_spectra(mbs)

    # one sampler call per set for its members, their midpoint partners and
    # the members of the frame-sampling checks; the flag oracle takes every
    # set's members in one call, each operator j meeting the frames of seed
    # + j in every set, and the octet oracle draws each seed's octets once
    n_mid = min(small, n)
    draws = [np.split(smp.random_member(cfg, params, index=np.concatenate([idx, n + idx[:n_mid], 5000 + sidx])),
                      [n, n + n_mid]) for params in sets]
    members = np.stack([d[0] for d in draws])
    mspec = dc.block_spectra(members)
    mnorms = wg.frobenius(members)
    smins, certs = cn.two_nonneg_flag(members, 50, seed + idx, blocks=mspec)
    inf_ms = np.stack([d[2] for d in draws])
    ests = cn._sampled_minima(inf_ms, sets, 500, seed + sidx)

    for p, (eta_mu, params) in enumerate(zip(PARAM_SETS, sets)):
        tag = _tag(eta_mu)

        c_scale = _Check("cone", f"membership-scaling-{tag}", "is_member(c R) = is_member(R) for c > 0", "count", 0.0, seed)
        c_mono = _Check("cone", f"shift-monotonicity-{tag}", "alpha -> is_member(R + alpha I) is monotone", "count", 0.0, seed)
        c_rot = _Check("cone", f"rotation-invariance-{tag}", "membership and l are rotation invariant", "count", 0.0, seed)
        c_homl = _Check("cone", f"l-homogeneity-{tag}", "l(c R) = c l(R) for c in {0.1, 10}", "residual", 1e-6, seed)
        base = cn.is_member(bms, params, blocks=bspec)
        lv = _l(bspec, params)
        c_scale.add(
            (cn.is_member(0.1 * bms, params, blocks=scaled[0.1]) != base)
            | (cn.is_member(10.0 * bms, params, blocks=scaled[10.0]) != base), sidx, bms,
        )
        alphas = np.linspace(0.0, 2.0 * lv + 1.0, 100, axis=-1)
        inside = cn.is_member(bms[:, None] + alphas[..., None, None] * i6, params)
        # once a shift is inside, every larger shift must be too
        after_first = np.arange(100) >= np.argmax(inside, axis=-1)[:, None]
        c_mono.add(inside.any(axis=-1) & ~(inside | ~after_first).all(axis=-1), sidx, bms)
        lv2 = _l(rspec, params)
        c_rot.add(
            (cn.is_member(rbms, params, blocks=rspec) != base)
            | (np.abs(lv - lv2) > 1e-10 * np.maximum(1.0, bnorms) + 2e-12),
            sidx, bms,
        )
        c_homl.add(
            np.stack([np.abs(_l(scaled[c_], params) - c_ * lv) / np.maximum(1.0, c_ * bnorms)
                      for c_ in (0.1, 10.0)], axis=-1),
            np.repeat(sidx, 2), np.repeat(bms, 2, axis=0), ["c=0.1", "c=10.0"] * len(sidx),
        )
        checks += [c.done() for c in (c_scale, c_mono, c_rot, c_homl)]

        c_mid = _Check("cone", f"member-midpoints-{tag}", "midpoints of member pairs are members", "count", 0.0, seed)
        c_wpic = _Check("cone", f"wpic-shadow-{tag}", "members have A1+A2 >= 0 and C1+C2 >= 0", "count", 0.0, seed)
        c_flag = _Check("cone", f"flag2-certificate-{tag}", "members: flag certificate >= 0 and sampled min >= certificate", "slack", 0.0, seed)
        c_upic = _Check("cone", f"uniform-pic-{tag}", "members: max(A3,B3,C3) <= Lambda min(A1+A2, C1+C2)", "slack", 0.0, seed)
        c_linb = _Check("cone", f"l-linear-bound-{tag}", "l(R) <= (1 + 2/eta) |R|", "slack", 0.0, seed)
        c_pinch = None
        if params.eta < 9.0 / 16.0:
            c_pinch = _Check("cone", f"ricci-pinch-{tag}", "members with eta < 9/16: Ric >= (1 - 4 sqrt(eta)/3) scal/4", "slack", 0.0, seed)
        ms, m2s = draws[p][:2]
        spectra = tuple(e[p] for e in mspec)
        c_mid.add(~cn.is_member(0.5 * (ms[:n_mid] + m2s), params), idx, ms)
        c_wpic.add(~cn.implies_wpic(ms, params, blocks=spectra), idx, ms)
        scale1 = np.maximum(1.0, mnorms[p])
        tol = 1e-10 * scale1
        cert = certs[p]
        c_flag.add((np.minimum(cert, smins[p] - cert) + tol) / scale1, idx, ms)
        c_upic.add((cn.uniform_pic_check(ms, params, blocks=spectra) + tol) / scale1, idx, ms)
        if c_pinch is not None:
            c_pinch.add((cn.ricci_pinch_check(ms, params, blocks=spectra) + tol) / scale1, idx, ms)
        c_linb.add(params.c_eta * mbnorms + 1e-6 - _l(mbspec, params), idx, mbs)
        checks += [c.done() for c in (c_mid, c_wpic, c_flag, c_upic)]
        if c_pinch is not None:
            checks.append(c_pinch.done())
        checks.append(c_linb.done())

        c_inf = _Check("cone", f"sampled-inf-dominates-{tag}", "frame sampling never beats the closed forms on members", "slack", 1e-10, seed)
        c_ext = _Check("cone", f"extremal-attains-{tag}", "extremal frames reproduce the closed forms", "residual", 1e-10, seed)
        ims = inf_ms[p]
        cf = cn.hat_f(ims, params)
        # the square by pow, as Python's x**2 takes it (see suite_algebra)
        scale2 = np.maximum(1.0, np.float_power(wg.frobenius(ims), 2))
        c_inf.add(np.minimum.reduce([(e - c_) / scale2 for e, c_ in zip(ests[p], cf)]), sidx, ims)
        bd = dc.decompose(ims)
        fr1 = cn.frame_functionals(ims, cn.extremal_frame(ims, "F1", blocks=bd))
        fr2 = cn.frame_functionals(ims, cn.extremal_frame(ims, "F2", blocks=bd))
        c_ext.add(
            np.maximum.reduce([
                np.abs(params.eta * fr1.x * fr1.y - np.float_power(fr1.z, 2) - cf[0]),
                np.abs(params.mu * fr2.x - fr2.w - cf[1]),
                np.abs(params.mu * fr2.y - fr2.v - cf[2]),
            ]) / scale2,
            sidx, ims,
        )
        checks += [c.done() for c in (c_inf, c_ext)]

    c01 = _Check("cone", "isotropic-ray-detection", "multiples of I: k I detected iff k >= 0", "count", 0.0, seed)
    ks = (-2.0, -0.5, 0.0, 0.5, 3.0)
    pert = np.zeros((6, 6))
    pert[0, 0], pert[1, 1] = 1.0, -1.0  # Weyl direction in the SD basis sense
    c01.add(
        np.append(cn.is_c01(np.multiply.outer(ks, i6), 1e-8) != (np.array(ks) >= 0.0),
                  cn.is_c01(i6 + 1e-3 * pert, 1e-6)),
        contexts=[f"k={k}" for k in ks] + ["perturbed identity"],
    )
    checks.append(c01.done())

    c_zero = _Check("cone", "vanishing-xsum-nonmember", "nonzero operators with A1+A2 = 0 are never members", "count", 0.0, seed)
    idx = np.arange(small)
    a3 = 0.5 + 1.5 * smp._uniforms(seed, "xsum-zero", idx, 0, range(1))[:, 0]
    eigs_a = np.stack([-a3 * 0.3, a3 * 0.3, a3], axis=-1)
    eigs_c = np.array([0.1, 0.2, 0.3])
    eigs_c = eigs_c + (eigs_a.sum(axis=-1, keepdims=True) - eigs_c.sum()) / 3.0
    ms = dc.reassemble(smp._diag(eigs_a), np.zeros((small, 3, 3)), smp._diag(eigs_c))
    c_zero.add(
        np.stack([cn.is_member(ms, _params(eta_mu)) for eta_mu in PARAM_SETS], axis=-1),
        np.repeat(idx, len(PARAM_SETS)), np.repeat(ms, len(PARAM_SETS), axis=0),
        [_tag(eta_mu) for _ in idx for eta_mu in PARAM_SETS],
    )
    checks.append(c_zero.done())

    return checks


# ---------------------------------------------------------------------------
# null-vector suite
# ---------------------------------------------------------------------------

def suite_nullvector(seed: int, n: int) -> list[dict]:
    cfg = smp.SamplerConfig(seed=seed)
    checks = []
    for eta_mu in PARAM_SETS:
        params = _params(eta_mu)
        tag = _tag(eta_mu)
        c_ham = _Check("nullvector", f"hamilton-x-bound-{tag}",
                       "X^Q >= A1^2 + A2^2 + 2(A1+A2)A3 + 2B1^2 at extremal frames", "slack", 1e-8, seed)
        for face in ("F1", "F2", "F3"):
            deg = cn.FACE_DEGREE[face] + 1
            c_nv = _Check("nullvector", f"null-vector-{face.lower()}-{tag}",
                          f"boundary face {face}: reaction inequality has nonnegative slack", "slack", 1e-8, seed)
            c_pre = _Check("nullvector", f"boundary-window-{face.lower()}-{tag}",
                           "boundary sampler lands on the face as a member", "count", 0.0, seed)
            idx = np.arange(n)
            ms, _ = smp.boundary_member(cfg, params, face, index=idx)
            bd = dc.decompose(ms)
            q = cn.q_operator(ms)
            rep = cn.null_vector_verify(ms, params, face, blocks=bd, q=q)
            norms = wg.frobenius(ms)
            c_pre.add(~rep.precondition_ok, idx, ms, rep.message)
            # norm powers by pow, as Python's x**k takes them (see suite_algebra)
            c_nv.add(rep.slack / np.maximum(1.0, np.float_power(norms, deg)), idx, ms)
            ham = cn.hamilton_intermediate_slack(ms, blocks=bd, q=q)
            c_ham.add(ham / np.maximum(1.0, np.float_power(norms, 2)), idx, ms)
            checks += [c_nv.done(), c_pre.done()]
        checks.append(c_ham.done())
    return checks


# ---------------------------------------------------------------------------
# flow suite
# ---------------------------------------------------------------------------

def suite_flow(seed: int, n: int) -> list[dict]:
    cfg = smp.SamplerConfig(seed=seed)
    checks = []
    small = max(2, n // 10)
    i6 = np.eye(6)

    # one stack of every start: I for the closed form, the scaling pairs, the
    # member starts of all three (eta, mu), and the fixed-step starts for
    # step halving and from non-members
    eq_r0s = smp.random_member(cfg, cn.ConeParams(1.0, 2.0), index=9000 + np.arange(3))
    idx = 7000 + np.arange(small)
    member_r0s = np.concatenate([smp.random_member(cfg, _params(eta_mu), index=idx) for eta_mu in PARAM_SETS])
    lineq_params = cn.ConeParams(1.0, 2.0)
    lineq_r0s = smp.random_nonmember(cfg, lineq_params, index=np.arange(small))
    dts = (1e-2, 5e-3, 2.5e-3)
    trajs = fl.integrate(
        np.concatenate([i6[None], 2.0 * eq_r0s, eq_r0s, member_r0s, np.stack([i6] * len(dts)), lineq_r0s]),
        [fl.TrajectoryConfig(dt=1e-3, t_max=0.1, rtol=1e-10)]
        + [fl.TrajectoryConfig(dt=1e-4, t_max=0.01, rtol=1e-11)] * 3
        + [fl.TrajectoryConfig(dt=1e-4, t_max=0.02, rtol=1e-11)] * 3
        + [fl.TrajectoryConfig(dt=1e-3, t_max=min(0.05, 0.5 / nrm), rtol=1e-8, blowup_norm=1e6)
           for nrm in wg.frobenius(member_r0s).tolist()]
        + [fl.TrajectoryConfig(dt=dt, t_max=0.1, adaptive=False) for dt in dts]
        + [fl.TrajectoryConfig(dt=2e-4, t_max=min(0.02, 0.3 / nrm), adaptive=False)
           for nrm in wg.frobenius(lineq_r0s).tolist()],
    )
    bounds = np.cumsum([0, 1, 6, 3 * small, len(dts), small]).tolist()
    exact, scaled, members, halved, lineq = (trajs[a:b] for a, b in zip(bounds, bounds[1:]))

    c_exact = _Check("flow", "reaction-closed-form", "from I the flow matches 1/(1-6t) times I", "residual", 1e-8, seed)
    ops, t = exact.samples.operator, exact.samples.t
    c_fac = 1.0 / (1.0 - 6.0 * t)
    c_exact.add(wg.frobenius(ops - c_fac[:, None, None] * i6) / (c_fac * math.sqrt(6.0)))
    checks.append(c_exact.done())

    c_ord = _Check("flow", "rk4-order", "halving the fixed step cuts the error ~16x", "residual", 4.0, seed)
    # each trajectory's end operator is its last row, first + accepted
    errs = wg.frobenius(halved.samples.operator[halved.first() + halved.accepted] - (1.0 / 0.4) * i6)
    c_ord.add(np.abs(errs[:-1] / errs[1:] - 16.0), contexts="error ratio")
    checks.append(c_ord.done())

    c_scaleq = _Check("flow", "scaling-equivariance", "integrating c R to t matches c times (R to c t)", "residual", 1e-8, seed)
    ends = scaled.samples.operator[scaled.first() + scaled.accepted]
    c_scaleq.add(wg.frobenius(ends[:3] - 2.0 * ends[3:]) / np.maximum(1.0, wg.frobenius(ends[:3])), np.arange(3))
    checks.append(c_scaleq.done())

    for p, eta_mu in enumerate(PARAM_SETS):
        params = _params(eta_mu)
        tag = _tag(eta_mu)
        c_inv = _Check("flow", f"member-invariance-{tag}", "trajectories from members keep l at zero", "residual", 1e-6, seed)
        c_drift = _Check("flow", f"bianchi-drift-{tag}", "Bianchi residual stays at rounding level along trajectories", "residual", 1e-9, seed)
        c_tr = _Check("flow", f"trace-balance-{tag}", "tr A = tr C is maintained along trajectories", "residual", 1e-10, seed)
        trs = members[p * small:(p + 1) * small]
        r0s = member_r0s[p * small:(p + 1) * small]
        ops, first = trs.samples.operator, trs.first()
        norms = wg.frobenius(ops)
        scale = np.maximum(1.0, np.maximum.reduceat(norms, first))
        c_inv.add(fl.invariance_monitor(trs, params) / scale, np.arange(small), r0s)
        c_drift.add(np.maximum.reduceat(trs.samples.bianchi, first) / scale, np.arange(small), r0s)
        a, _, c3 = dc._blocks_of(ops)
        gaps = np.abs(np.trace(a, axis1=-2, axis2=-1) - np.trace(c3, axis1=-2, axis2=-1))
        c_tr.add(np.maximum(0.0, np.maximum.reduceat(gaps / np.maximum(1.0, norms), first)), np.arange(small), r0s)
        checks += [c.done() for c in (c_inv, c_drift, c_tr)]

    c_lineq = _Check("flow", "l-reaction-inequality",
                     "D+ l <= (scal) l + 6 l^2 + 1e-3 (1+|R|^3) dt from non-member starts", "slack", 0.0, seed)
    c_lineq.add([rep.worst_slack for rep in fl.l_inequality_monitor(lineq, lineq_params)],
                np.arange(small), lineq_r0s)
    checks.append(c_lineq.done())

    return checks


# ---------------------------------------------------------------------------
# cutoff suite
# ---------------------------------------------------------------------------

def suite_cutoff(seed: int, n: int) -> list[dict]:
    del n  # the sweep is a fixed grid of parameter combinations
    c_grid = _Check("cutoff", "cutoff-grid-certification",
                    "all four cutoff conclusions hold at every grid point", "slack", 0.0, seed)
    for eps in (0.1, 0.5, 1.0):
        for sigma in (0.5, 1.0, 2.0):
            fn = co.CutoffFunction(co.CutoffSpec(eps=eps, sigma=sigma, r=1.0))
            rep = co.verify_cutoff(fn)
            worst = rep.worst()
            c_grid.add(worst.margin, contexts=f"eps={eps}, sigma={sigma}, bound={worst.name}")
    c_var = _Check("cutoff", "cutoff-variant-constant",
                   "squared-slope variant admits a finite constant C0 >= 1", "slack", 0.0, seed)
    rep = co.theorem_variant_check(co.CutoffSpec(eps=0.5, sigma=1.0, r=0.0))
    c_var.add(rep.c0 - 1.0, contexts=f"C0={rep.c0!r}")
    return [c_grid.done(), c_var.done()]


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_SUITE_FUNCS = {
    "algebra": suite_algebra,
    "cone": suite_cone,
    "nullvector": suite_nullvector,
    "flow": suite_flow,
    "cutoff": suite_cutoff,
}


def run(suites, seed: int, samples: int) -> dict:
    """Run the named suites and return the machine-readable report."""
    if samples < 0:
        raise ValueError(f"samples must be nonnegative, got {samples}")
    if isinstance(suites, str):
        suites = SUITE_NAMES if suites == "all" else (suites,)
    checks = []
    for name in suites:
        if name not in _SUITE_FUNCS:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES} or 'all'")
        checks.extend(_SUITE_FUNCS[name](seed, samples))
    return {
        "report_version": 4,  # bumped whenever a seed's numbers may move
        "seed": seed,
        "samples": samples,
        "suites": list(suites),
        "all_passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def report_table(report: dict) -> str:
    lines = []
    width = max(len(c["id"]) for c in report["checks"]) if report["checks"] else 10
    for c in report["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        lines.append(
            f"{status}  {c['id']:<{width}}  worst={c['worst']:+.3e}  tol={c['tol']:.1e}"
            f"  n={c['samples']}  [{c['suite']}]"
        )
    total = len(report["checks"])
    good = sum(c["passed"] for c in report["checks"])
    lines.append(f"{good}/{total} checks passed (seed={report['seed']}, samples={report['samples']})")
    return "\n".join(lines) + "\n"
