"""Stacked (..., 6, 6) input gives, entry for entry, the bits of single calls.

Every kernel that takes a stack must not depend on the batch size: a stack
of n operators (2-forms, 4x4 tensors, rotations) equals n single calls bit
for bit, for n in {1, 7, 1000}, across members, non-members and scales from
1e-300 to 1e300, with NaN slices where a condition does not apply.  The
samplers take index arrays and must match per-index draws, retry counts
included.  The frame oracles, octet validation, flow stacks and monitors
are held to per-operator and per-sample reference loops kept here.
"""

import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import flow as fl
from curvcone import sampling as smp
from curvcone import wedge as wg

import samplers

P12 = cn.ConeParams(1.0, 2.0)
P_ETA0 = cn.ConeParams(0.0, 1.5)
SCALES = (1e-300, 1.0, 1e300)
SIZES = (1, 7, 1000)


def _mixed_stack(n: int = 1000) -> np.ndarray:
    """Members, boundary points, raw operators and their -I shifts at three scales."""
    cfg = smp.SamplerConfig(seed=21)
    k = np.arange(n // (4 * len(SCALES)) + 1)
    bnd = np.empty((len(k), 6, 6))
    for f, face in enumerate(("F1", "F2", "F3")):
        bnd[k % 3 == f] = smp.boundary_member(cfg, P12, face, index=k[k % 3 == f])[0]
    base = np.stack([smp.random_member(cfg, P12, index=k), bnd, smp.random_bianchi(cfg, index=k),
                     smp.random_member(cfg, P12, index=500 + k) - 0.7 * np.eye(6)], axis=1)
    ops = [c * m for m in base.reshape(-1, 6, 6) for c in SCALES]
    return np.array(ops[:n])


STACK = _mixed_stack()


def _equal(a, b):
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def _same_bits(stacked, singles):
    stacked, singles = np.asarray(stacked), np.array(singles)
    assert stacked.shape == singles.shape
    assert stacked.tobytes() == singles.tobytes()  # signed zeros and NaN included


@pytest.mark.parametrize("n", SIZES)
class TestBatchSizeIndependence:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_q_operator(self, n):
        ms = STACK[:n]
        _equal(wg.q_operator(ms), [wg.q_operator(m) for m in ms])

    def test_block_spectra(self, n):
        ms = STACK[:n]
        stacked = dc.block_spectra(ms)
        singles = [dc.block_spectra(m) for m in ms]
        for k in range(3):
            _equal(stacked[k], [s[k] for s in singles])

    def test_decompose(self, n):
        ms = STACK[:n]
        stacked = dc.decompose(ms)
        singles = [dc.decompose(m) for m in ms]
        for name in ("a", "b", "c", "eigs_a", "eigs_c", "svals_b",
                     "vecs_a", "vecs_c", "left_b", "right_b"):
            _equal(getattr(stacked, name), [getattr(s, name) for s in singles])

    @pytest.mark.parametrize("params", [P12, P_ETA0], ids=["eta1", "eta0"])
    def test_hat_f(self, n, params):
        ms = STACK[:n]
        stacked = cn.hat_f(ms, params)
        singles = [cn.hat_f(m, params) for m in ms]
        for k in range(3):
            _equal(stacked[k], [s[k] for s in singles])

    @pytest.mark.parametrize("params", [P12, P_ETA0], ids=["eta1", "eta0"])
    def test_is_member(self, n, params):
        ms = STACK[:n]
        _equal(cn.is_member(ms, params), [cn.is_member(m, params) for m in ms])

    @pytest.mark.parametrize("params", [P12, P_ETA0], ids=["eta1", "eta0"])
    def test_lower_bound_l(self, n, params):
        ms = STACK[:n]
        _equal(cn.lower_bound_l(ms, params), [cn.lower_bound_l(m, params) for m in ms])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_curvature_contractions(n):
    ms = STACK[:n]
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)  # every operator of STACK is Bianchi
        for fn in (wg.four_index, wg.ricci, wg.scalar, wg.traceless_ricci, wg.bianchi_residual):
            _same_bits(fn(ms), [fn(m) for m in ms])


def _dense_sharp(m, n):
    """The #-product as the three-einsum contraction over all of C[a, g, h]."""
    c = wg.structure_constants()

    def raw(x, y):
        t = np.einsum("bdt,...gd->...bgt", c, x)
        t = np.einsum("...bgt,...ht->...bgh", t, y)
        return 0.5 * np.einsum("agh,...bgh->...ab", c, t)

    out = raw(m, m) if m is n else 0.5 * (raw(m, n) + raw(n, m))
    return 0.5 * (out + out.swapaxes(-1, -2))


def _with_nonfinite(ms: np.ndarray) -> np.ndarray:
    """A copy with one symmetric pair of entries per operator set to inf, -inf or NaN."""
    rng = np.random.default_rng(len(ms))
    out, k = ms.copy(), np.arange(len(ms))
    i, j = rng.integers(0, 6, (2, len(ms)))
    out[k, i, j] = out[k, j, i] = np.array([np.inf, -np.inf, np.nan])[k % 3]
    return out


def _warnings_of(fn) -> set[str]:
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        fn()
    return {str(w.message) for w in seen}


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("pair", ["M#M", "M#N"])
@pytest.mark.parametrize("finite", [True, False], ids=["finite", "nonfinite"])
def test_sharp_matches_the_dense_contraction(n, pair, finite):
    ms = STACK[:n] if finite else _with_nonfinite(STACK[:n])
    ns = ms if pair == "M#M" else STACK[::-1][:n]  # N from the other end: other scales
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # like the contraction, no overflow or invalid warnings
        out = wg.sharp(ms, ns)
    # the sign of a NaN from NaN + NaN follows the add loop numpy picks for a
    # layout, so non-finite input is compared with every NaN as one NaN
    bits = (lambda x: x) if finite else (lambda x: np.where(np.isnan(x), np.nan, x))
    _same_bits(bits(out), bits(np.array([wg.sharp(m, k) for m, k in zip(ms, ns)])))
    _same_bits(bits(wg.sharp(ns, ms)), bits(out))
    # against the contraction on the finite entries (the contraction spreads a
    # non-finite entry to every output through C's zeros): non-finite only
    # where the contraction is, and equal to rounding where both are finite
    clean = np.where(np.isfinite(ms), ms, 0.0)
    with np.errstate(all="ignore"):
        other = clean if pair == "M#M" else ns
        dense = _dense_sharp(clean, other)
        tol = 1e-14 * (wg.frobenius(clean) * wg.frobenius(other))[:, None, None]
    assert not np.any(~np.isfinite(out) & np.isfinite(dense) & np.isfinite(ms).all(axis=(-2, -1))[:, None, None])
    both = np.isfinite(out) & np.isfinite(dense)
    assert np.all((np.abs(out - dense) <= tol)[both])
    assert np.count_nonzero(both) >= out.size // (3 if finite else 6)
    if pair == "M#M":
        def dense_q():
            sq = ms @ ms
            return 0.5 * (sq + sq.swapaxes(-1, -2)) + _dense_sharp(ms, ms)

        assert _warnings_of(lambda: wg.q_operator(ms)) <= _warnings_of(dense_q)


def _rotations(n: int) -> np.ndarray:
    return np.array([samplers.random_rotation(smp.substream(4, "rot", i), 4) for i in range(n)])


P05 = cn.ConeParams(0.5, 1.5)


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestStackedAlgebraKernels:
    def test_two_form_kernels(self, n):
        u, v = STACK[:n, 0], STACK[:n, 3]
        _same_bits(wg.skew_matrix(u), [wg.skew_matrix(x) for x in u])
        _same_bits(wg.two_form_of_skew(wg.skew_matrix(u)), [wg.two_form_of_skew(wg.skew_matrix(x)) for x in u])
        _same_bits(wg.lie_bracket(u, v), [wg.lie_bracket(a, b) for a, b in zip(u, v)])

    def test_four_index_and_sharp_routes(self, n):
        ms = STACK[:n]
        _same_bits(wg.from_four_index(wg.four_index(ms)), [wg.from_four_index(wg.four_index(m)) for m in ms])
        _same_bits(wg.sharp_coord(ms), [wg.sharp_coord(m) for m in ms])

    def test_kulkarni_nomizu(self, n):
        h, k = wg.ricci(STACK[:n]), wg.ricci(STACK[::-1][:n])
        _same_bits(wg.kulkarni_nomizu(h, k), [wg.kulkarni_nomizu(a, b) for a, b in zip(h, k)])
        _same_bits(wg.kulkarni_nomizu(h, np.eye(4)), [wg.kulkarni_nomizu(a, np.eye(4)) for a in h])

    def test_bianchi_projection_and_barrier(self, n):
        ms = STACK[:n].copy()
        ms[:, 0, 5] += 1.0  # off the Bianchi hyperplane
        _same_bits(wg.project_bianchi(ms), [wg.project_bianchi(m) for m in ms])
        rng = np.random.default_rng(n)
        big, small = rng.uniform(-10.0, 10.0, (2, n))
        ms = STACK[:n]
        _same_bits(wg.barrier_q_expansion(ms, big, small),
                   [wg.barrier_q_expansion(m, b, s) for m, b, s in zip(ms, big, small)])

    def test_rotations(self, n):
        ms, qs = STACK[:n], _rotations(n)
        _same_bits(wg.induced_wedge_rotation(qs), [wg.induced_wedge_rotation(q) for q in qs])
        _same_bits(wg.rotate_operator(ms, qs), [wg.rotate_operator(m, q) for m, q in zip(ms, qs)])

    def test_block_products_and_identities(self, n):
        ms = STACK[:n]
        bd = dc.decompose(ms)
        _same_bits(dc.block_sharp3(bd.a), [dc.block_sharp3(a) for a in bd.a])
        _same_bits(dc.mixed_sharp3(bd.b), [dc.mixed_sharp3(b) for b in bd.b])
        for fn in (dc.block_sharp_identity, dc.weyl, dc.norm_identity_check):
            _same_bits(fn(ms), [fn(m) for m in ms])


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestStackedImpliedConditions:
    def test_two_nonneg_flag_with_one_seed_per_operator(self, n):
        ms = STACK[:n]
        seeds = 100 + np.arange(n)
        smin, cert = cn.two_nonneg_flag(ms, 5, seeds)
        singles = [cn.two_nonneg_flag(m, 5, int(s)) for m, s in zip(ms, seeds)]
        _same_bits(smin, [s[0] for s in singles])
        _same_bits(cert, [s[1] for s in singles])
        # one integer seed: every operator takes the same frames
        _same_bits(cn.two_nonneg_flag(ms, 5, 7)[0], [cn.two_nonneg_flag(m, 5, 7)[0] for m in ms])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_oracle_seeds_broadcast_over_a_stack_of_slices(self, n, monkeypatch):
        # (n,) seeds against a (3, n, 6, 6) stack: operator j of every slice
        # meets the frames (octets) of seed j, drawn once, with the bits of
        # one call per slice
        ms = np.stack([STACK[:n], STACK[::-1][:n], 0.5 * STACK[:n]])
        seeds = 100 + np.arange(n)
        spectra = dc.block_spectra(ms)
        singles = [cn.two_nonneg_flag(m, 5, seeds) for m in ms]
        inf_singles = [np.stack(cn.sampled_inf(m, P12, 5, seeds)) for m in ms]
        built = []
        substream = smp.substream
        monkeypatch.setattr(smp, "substream", lambda *args: built.append(args) or substream(*args))
        for blocks in (None, spectra):
            smin, cert = cn.two_nonneg_flag(ms, 5, seeds, blocks=blocks)
            _same_bits(smin, [s[0] for s in singles])
            _same_bits(cert, [s[1] for s in singles])
        assert len(built) == 2 * n
        _same_bits(np.stack(cn.sampled_inf(ms, P12, 5, seeds), axis=1), inf_singles)
        assert len(built) == 3 * n

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_sampled_inf_with_one_seed_per_operator(self, n):
        ms = STACK[:n]
        seeds = 200 + np.arange(n)
        est = np.stack(cn.sampled_inf(ms, P12, 5, seeds), axis=-1)
        _same_bits(est, [_sampled_inf_reference(m, P12, 5, int(s)) for m, s in zip(ms, seeds)])
        _same_bits(est, [cn.sampled_inf(m, P12, 5, int(s)) for m, s in zip(ms, seeds)])
        # one integer seed: every operator takes the same octets
        _same_bits(cn.sampled_inf(ms, P12, 5, 7)[1], [cn.sampled_inf(m, P12, 5, 7)[1] for m in ms])

    def test_is_c01_with_multiples_of_identity(self, n):
        ms = STACK[:n].copy()
        ks = np.linspace(-2.0, 3.0, len(ms[::3]))
        ms[::3] = np.multiply.outer(ks, np.eye(6))
        for tol in (1e-8, 1e-6):
            flags = cn.is_c01(ms, tol)
            _same_bits(flags, [cn.is_c01(m, tol) for m in ms])
            _equal(flags[::3], ks >= 0.0)

    def test_uniform_pic_with_a_zero_operator(self, n):
        ms = STACK[:n].copy()
        ms[n // 2] = 0.0
        upic = cn.uniform_pic_check(ms, P12)
        _same_bits(upic, [cn.uniform_pic_check(m, P12) for m in ms])
        assert np.isnan(upic[n // 2])

    def test_ricci_pinch_with_minus_identity(self, n):
        ms = STACK[:n].copy()
        ms[n // 2] = -np.eye(6)
        pinch = cn.ricci_pinch_check(ms, P05)
        _same_bits(pinch, [cn.ricci_pinch_check(m, P05) for m in ms])
        assert np.isnan(pinch[n // 2])
        _same_bits(cn.ricci_pinch_check(ms, P12), np.full(n, np.nan))  # eta >= 9/16

    def test_bianchi_and_nonmember_samplers(self, n):
        cfg = smp.SamplerConfig(seed=5)
        idx = np.arange(n)[::-1] * 3
        _same_bits(smp.random_bianchi(cfg, index=idx), [smp.random_bianchi(cfg, index=i) for i in idx])
        _same_bits(smp.random_nonmember(cfg, P05, index=idx), [smp.random_nonmember(cfg, P05, index=i) for i in idx])


def _orthonormalize_reference(g):
    # Gram-Schmidt on the (..., 2, 3) rows by numpy's norm and sum
    v1 = g[..., 0, :]
    v1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    v2 = g[..., 1, :]
    v2 = v2 - np.sum(v2 * v1, axis=-1, keepdims=True) * v1
    v2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
    return np.stack([v1, v2], axis=-2)


def _sampled_inf_reference(m, params, n, seed):
    # the single-operator oracle as a loop-free copy of its first form: one
    # substream, one (n, 4, 2, 3) draw, one 3x3 quadratic form per functional
    bd = dc.decompose(m)
    pairs = _orthonormalize_reference(smp.substream(seed, "sampled-inf").standard_normal((n, 4, 2, 3)))
    (p1, p2), (q1, q2), (r1, r2), (s1, s2) = (pairs[:, k].swapaxes(0, 1) for k in range(4))

    def form(u, mat, v):
        return np.einsum("ni,ij,nj->n", u, mat, v)

    x = form(p1, bd.a, p1) + form(p2, bd.a, p2)
    w = form(q1, bd.a, q1) + form(q2, bd.a, q2)
    y = form(r1, bd.c, r1) + form(r2, bd.c, r2)
    v = form(s1, bd.c, s1) + form(s2, bd.c, s2)
    z = form(q1, bd.b, s1) + form(q2, bd.b, s2)
    return (float((params.eta * x * y - z * z).min()), float((params.mu * x - w).min()),
            float((params.mu * y - v).min()))


def test_orthonormalized_pairs_equal_numpy_norm_and_sum():
    g = np.random.default_rng(14).standard_normal((7, 50, 4, 2, 3))
    g[0, 0, 0] *= 1e-300
    g[0, 0, 1] *= 1e300
    for draw in (g, g[0], g[0, 0, 0]):
        with np.errstate(all="ignore"):  # the scaled row overflows and underflows
            out, ref = smp._orthonormalize_pair(draw), _orthonormalize_reference(draw)
        assert out.flags.c_contiguous
        _same_bits(out, ref)


def test_stacked_sampled_inf_keeps_nested_minima():
    ms = smp.random_member(smp.SamplerConfig(seed=9), P12, index=np.arange(4)).reshape(2, 2, 6, 6)
    seeds = np.arange(4).reshape(2, 2)
    coarse, fine = (cn.sampled_inf(ms, P12, k, seeds) for k in (50, 400))
    for a, b in zip(coarse, fine):
        assert a.shape == (2, 2) and (b <= a).all()


def test_sampled_inf_over_several_chunks_equals_per_operator_calls():
    # a stack of more operators than one chunk holds, in a (k, 5) leading
    # shape that splits rows across chunks, with one seed per operator
    k = cn._INF_CHUNK // 5 + 3
    ms = smp.random_member(smp.SamplerConfig(seed=11), P12, index=np.arange(5 * k)).reshape(k, 5, 6, 6)
    seeds = 300 + np.arange(5 * k).reshape(k, 5)
    est = cn.sampled_inf(ms, P12, 20, seeds)
    singles = [cn.sampled_inf(m, P12, 20, int(s)) for m, s in zip(ms.reshape(-1, 6, 6), seeds.ravel())]
    for f, col in zip(est, zip(*singles)):
        assert f.shape == (k, 5)
        _same_bits(f.ravel(), col)
    assert [f.shape for f in cn.sampled_inf(ms[:0], P12, 20, seeds[:0])] == [(0, 5)] * 3


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_sampled_minima_of_several_parameter_sets_share_the_octets(monkeypatch):
    # the cone suite's route: one octet draw per seed and chunk serves every
    # parameter set, with the bits of one sampled_inf call per set
    k = cn._INF_CHUNK + 5
    sets = [P05, P12, cn.ConeParams(0.1, 1.1)]
    cfg = smp.SamplerConfig(seed=12)
    ms = np.stack([smp.random_member(cfg, p, index=np.arange(k)) for p in sets])
    seeds = 40 + np.arange(k)
    singles = [np.stack(cn.sampled_inf(m, p, 20, seeds)) for m, p in zip(ms, sets)]
    built = []
    substream = smp.substream
    monkeypatch.setattr(smp, "substream", lambda *args: built.append(args) or substream(*args))
    _same_bits(cn._sampled_minima(ms, sets, 20, seeds), singles)
    assert len(built) == k


def test_stacked_octet_validation_rejects_one_bad_octet():
    ms = smp.random_member(smp.SamplerConfig(seed=10), P12, index=np.arange(12)).reshape(3, 4, 6, 6)
    xi = cn.extremal_frame(ms, "F1").xi
    cn.FrameOctet(xi).validate()
    cn.frame_functionals(ms, cn.FrameOctet(xi))
    for row, new, msg in [
        (2, 1.001 * xi[1, 2, 2], "frame vector 3 is not unit length"),
        (5, xi[1, 2, 0], "frame vector 6 is not anti-self-dual"),
        (1, xi[1, 2, 0], r"frame pair \(1, 2\) is not orthogonal"),
    ]:
        bad = xi.copy()
        bad[1, 2, row] = new
        with pytest.raises(ValueError, match=msg):
            cn.FrameOctet(bad).validate()
        with pytest.raises(ValueError, match=msg):
            cn.frame_functionals(ms, cn.FrameOctet(bad))
        with pytest.raises(ValueError, match=msg):
            cn.FrameOctet(bad[1, 2]).validate()
        cn.FrameOctet(np.delete(bad.reshape(12, 8, 6), 6, axis=0)).validate()
    with pytest.raises(ValueError, match="must be"):
        cn.FrameOctet(xi[..., :7, :]).validate()


def _l_inequality_reference(traj, params):
    # the monitor as a loop over steps, with l from one public call per sample
    ts, ops, scal = (traj.samples.t.tolist(), traj.samples.operator, traj.samples.scalar.tolist())
    ls = [cn.lower_bound_l(op, params) for op in ops]
    norms = [wg.frobenius(op) for op in ops]
    rhs = [sc * li + 6.0 * li * li for sc, li in zip(scal, ls)]
    worst = worst_left = np.inf
    steps = 0
    for i in range(len(ts) - 1):
        dt_i = ts[i + 1] - ts[i]
        if dt_i <= 0.0 or not (np.isfinite(ls[i]) and np.isfinite(ls[i + 1])):
            continue
        quot = (ls[i + 1] - ls[i]) / dt_i
        tol_slack = 1e-3 * (1.0 + norms[i] ** 3) * dt_i
        worst = min(worst, max(rhs[i], rhs[i + 1]) + tol_slack - quot)
        worst_left = min(worst_left, rhs[i] + tol_slack - quot)
        steps += 1
    return fl.LInequalityReport(float(worst), float(worst_left), steps)


def _monitored_trajectories():
    cfg = smp.SamplerConfig(seed=12)
    nonmembers = smp.random_nonmember(cfg, P12, index=np.arange(4))
    members = smp.random_member(cfg, P12, index=np.arange(3))
    # B of rounding size: l = inf at eta = 0 (see the cone module)
    rotated = wg.rotate_operator(0.3 * np.eye(6), samplers.random_rotation(smp.substream(12, "rot"), 4))
    starts = np.concatenate([nonmembers, members, [3.0 * nonmembers[0], rotated, -np.eye(6), np.zeros((6, 6))]])
    cfgs = [fl.TrajectoryConfig(dt=1e-3, t_max=min(0.02, 0.3 / max(1.0, wg.frobenius(m))), rtol=1e-8)
            for m in starts]
    # a start past its blow-up norm: a trajectory of one sample and no step
    cfgs[7] = fl.TrajectoryConfig(dt=1e-3, t_max=0.02, blowup_norm=1.0)
    return starts, cfgs, fl.integrate(starts, cfgs)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", [P12, P05, cn.ConeParams(0.0, 1.5)], ids=str)
def test_monitors_match_per_sample_loops(params):
    starts, cfgs, trajs = _monitored_trajectories()
    assert trajs.accepted[7] == 0
    l_refs, inv_refs = [], []
    skipped = 0
    for r0, c in zip(starts, cfgs):
        traj = fl.integrate(r0, c)
        l_refs.append(repr(_l_inequality_reference(traj, params)))
        inv_refs.append(repr(max(cn.lower_bound_l(op, params) for op in traj.samples.operator)))
        rep = fl.l_inequality_monitor(traj, params)
        assert repr(rep) == l_refs[-1]
        skipped += rep.steps < len(traj.samples) - 1
        assert repr(fl.invariance_monitor(traj, params)) == inv_refs[-1]
    # at eta = 0 an infinite l skips steps
    assert (skipped > 0) == (params.eta == 0.0)
    # the whole stack in one call: no step pairs rows of two trajectories
    assert [repr(r) for r in fl.l_inequality_monitor(trajs, params)] == l_refs
    assert [repr(x) for x in fl.invariance_monitor(trajs, params).tolist()] == inv_refs
    assert fl.l_inequality_monitor(trajs[:0], params) == []
    assert fl.invariance_monitor(trajs[:0], params).shape == (0,)


def _same_trajectory(a, b):
    # a is a stack of one trajectory, b its start integrated alone
    assert (a.status.tolist(), a.accepted.tolist(), a.rejected.tolist(), len(a.samples)) == (
        [b.status], [b.accepted], [b.rejected], len(b.samples))
    for name in ("t", "operator", "scalar", "bianchi", "l", "member"):
        va, vb = getattr(a.samples, name), getattr(b.samples, name)
        assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), name


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", ["adaptive", "fixed", "mixed"])
def test_mixed_config_stack_gives_each_trajectory_its_solo_bits(mode):
    # as in the flow suite: starts with their own rtol, t_max and blow-up
    # norm, a blow-up start among them, integrated as one stack; the mixed
    # stack alternates adaptive and fixed-step rows, and its last row takes
    # fixed steps from the blow-up start until they overflow.  No mode warns:
    # an overflowing step shows only in the stored state and the status, and
    # the stored non-finite state has l NaN and no membership.
    cfg = smp.SamplerConfig(seed=13)
    members = smp.random_member(cfg, P12, index=np.arange(4))
    far = smp.random_nonmember(cfg, P12, index=0)
    far = 3e7 * far / wg.frobenius(far)
    starts = np.concatenate([2.0 * members, members, [np.eye(6), far]])
    cfgs = ([fl.TrajectoryConfig(dt=1e-4, t_max=0.01, rtol=1e-11)] * 4
            + [fl.TrajectoryConfig(dt=1e-3, t_max=min(0.05, 0.5 / wg.frobenius(m)), rtol=1e-8, blowup_norm=1e6)
               for m in members]
            + [fl.TrajectoryConfig(dt=1e-2, t_max=0.1), fl.TrajectoryConfig(dt=1e-4, t_max=1.0, rtol=1e-9)])
    flags = [mode == "adaptive" or (mode == "mixed" and k % 2 == 1) for k in range(len(cfgs))]
    cfgs = [dataclasses.replace(c, adaptive=a) for c, a in zip(cfgs, flags)]
    if mode == "mixed":
        starts = np.concatenate([starts, [far]])
        cfgs.append(fl.TrajectoryConfig(dt=1e-4, t_max=1.0, blowup_norm=1e300, adaptive=False))
    stacked = fl.integrate(starts, cfgs, P12)
    solo = [fl.integrate(r0, c, P12) for r0, c in zip(starts, cfgs)]
    assert set(stacked.status.tolist()) == {"completed", "blowup-stopped"}
    for k, b in enumerate(solo):
        _same_trajectory(stacked[k:k + 1], b)
    if mode != "fixed":
        assert stacked.rejected[9] > 0  # the adaptive blow-up row
    if mode == "mixed":
        overflowed = stacked[-1:].samples
        assert not np.isfinite(overflowed.operator[-1]).all()
        finite = np.isfinite(overflowed.operator).all(axis=(-2, -1))
        assert np.isnan(overflowed.l[~finite]).all() and not overflowed.member[~finite].any()
    # the stacked l of the stored finite samples equals one public call per sample
    s = (stacked[:-1] if mode != "mixed" else stacked).samples
    finite = np.isfinite(s.operator).all(axis=(-2, -1))
    assert s.l[finite].tolist() == [cn.lower_bound_l(op, P12) for op in s.operator[finite]]


def test_pinch_on_members_and_empty_stacks():
    # members pass the pinch preconditions, so the stacked Ricci route runs
    cfg = smp.SamplerConfig(seed=6)
    ms = smp.random_member(cfg, P05, index=np.arange(20))
    ms[3] = -np.eye(6)
    pinch = cn.ricci_pinch_check(ms, P05)
    assert np.isnan(pinch[3]) and np.isfinite(np.delete(pinch, 3)).all()
    assert smp.random_nonmember(cfg, P05, index=np.arange(0)).shape == (0, 6, 6)
    assert cn.two_nonneg_flag(ms[:0], 3, np.arange(0))[0].shape == (0,)


def test_contractions_on_signed_zeros_and_nonfinite_entries():
    ms = np.zeros((5, 6, 6))
    ms[1] = -0.0
    ms[2, 0, 0] = np.inf
    ms[3, 2, 2] = np.nan
    ms[4] = -1e-320 * np.eye(6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fn in (wg.ricci, wg.scalar, wg.traceless_ricci):
            _same_bits(fn(ms), [fn(m) for m in ms])


def test_stacked_ricci_warns_when_any_slice_breaks_bianchi():
    ms = STACK[:3].copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wg.ricci(ms)
    ms[1, 0, 5] += 1.0
    with pytest.warns(UserWarning, match="Bianchi"):
        wg.ricci(ms)


def test_l_on_nonfinite_and_signed_zero_spectra():
    # the largest face root is taken with fmax and kept only where it is
    # positive: single calls and stacks agree on every bit, and l is never
    # NaN or -0.0, whatever the spectra hold
    rng = np.random.default_rng(3)
    e = rng.normal(size=(4000, 3, 3))
    mask = rng.random(e.shape) < 0.15
    e[mask] = rng.choice([np.inf, -np.inf, np.nan, -0.0, 0.0, 1e308, -1e308], size=mask.sum())
    e = np.sort(e, axis=-1)
    blocks = (e[:, 0], e[:, 1], np.abs(e[:, 2]))
    for params in (P12, P_ETA0):
        lv = cn.lower_bound_l(None, params, blocks=blocks)
        singles = [cn.lower_bound_l(None, params, blocks=tuple(b[i] for b in blocks)) for i in range(len(e))]
        assert lv.tobytes() == np.array(singles).tobytes()
        assert not np.isnan(lv).any() and not np.signbit(lv).any()
        assert (lv > 0.0).any() and np.isinf(lv).any()


def test_f1_square_stack_matches_singles():
    # z values whose z * z differs in the last bit from the C library's
    # pow(z, 2): a stack gives F1 = -z * z with the bits of single calls
    z = np.random.default_rng(0).uniform(0.5, 2.0, 20000)
    z = z[np.array([np.float64(v) ** 2 for v in z]) != z * z]
    assert z.size
    ea = np.tile([0.0, 0.0, 1.0], (z.size, 1))  # x = 0, so F1 = -z * z exactly
    sb = np.zeros((z.size, 3))
    sb[:, 2] = z
    f1 = cn.hat_f(None, P12, blocks=(ea, ea, sb))[0]
    _equal(f1, [cn.hat_f(None, P12, blocks=(ea[i], ea[i], sb[i]))[0] for i in range(z.size)])
    _equal(f1, -(z * z))


def test_l_hypot_stack_matches_singles():
    # pairs on which np.hypot and the correctly rounded math.hypot differ in
    # the last bit: l's F1 root of a stack has the bits of single calls
    import math

    rng = np.random.default_rng(1)
    t, z = rng.uniform(0.1, 0.5, 20000), rng.uniform(1.0, 2.0, 20000)
    keep = np.hypot(2 * t, 2 * z) != [math.hypot(2 * a, 2 * b) for a, b in zip(t, z)]
    t, z = t[keep], z[keep]
    assert t.size
    # x = A1 + A2 = t, y = C1 + C2 = -t, B2 + B3 = z: the F1 root binds
    zero = 0.0 * t
    ea = np.stack([zero, t, t], axis=-1)
    ec = np.stack([-t, zero, zero], axis=-1)
    sb = np.stack([zero, zero, z], axis=-1)
    lv = cn.lower_bound_l(None, P12, blocks=(ea, ec, sb))
    _equal(lv, [cn.lower_bound_l(None, P12, blocks=(ea[i], ec[i], sb[i])) for i in range(t.size)])
    _equal(lv, np.hypot(2 * t, 2 * z) / 4.0)


def test_stack_covers_members_nonmembers_and_infinite_l():
    member = cn.is_member(STACK, P12)
    assert member.any() and not member.all()
    assert np.isinf(cn.lower_bound_l(STACK, P_ETA0)).any()
    norms = wg.frobenius(STACK)
    assert norms.min() < 1e-290 and norms.max() > 1e290


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_nested_leading_axes():
    ms = STACK[:12].reshape(3, 4, 6, 6)
    assert cn.lower_bound_l(ms, P12).shape == (3, 4)
    _equal(cn.lower_bound_l(ms, P12).ravel(), cn.lower_bound_l(STACK[:12], P12))
    _equal(cn.is_member(ms, P12).ravel(), cn.is_member(STACK[:12], P12))
    _equal(wg.q_operator(ms).reshape(12, 6, 6), wg.q_operator(STACK[:12]))
    assert dc.decompose(ms).vecs_a.shape == (3, 4, 3, 3)


def test_single_operator_returns_scalar_types():
    m = STACK[0]
    assert isinstance(wg.q_operator(m), np.ndarray) and wg.q_operator(m).shape == (6, 6)
    assert type(wg.frobenius(m)) is float
    assert type(wg.scalar(m)) is float and type(wg.bianchi_residual(m)) is float
    assert wg.ricci(m).shape == (4, 4) and wg.four_index(m).shape == (4, 4, 4, 4)
    spectra = dc.block_spectra(m)
    assert isinstance(spectra, tuple) and [s.shape for s in spectra] == [(3,)] * 3
    bd = dc.decompose(m)
    assert isinstance(bd, dc.BlockData) and bd.a.shape == (3, 3)
    f = cn.hat_f(m, P12)
    assert type(f) is tuple and all(type(v) is float for v in f)
    assert type(cn.is_member(m, P12)) is bool
    assert type(cn.lower_bound_l(m, P12)) is float
    assert type(cn.lower_bound_l(m - 5.0 * np.eye(6), P_ETA0)) is float
    assert type(cn.implies_wpic(m, P12)) is bool
    assert cn.l_face(m, P12) is None
    assert all(type(v) is float for v in cn.two_nonneg_flag(m, 3, 0))
    assert type(cn.uniform_pic_check(m, P12)) is float
    assert type(cn.ricci_pinch_check(m, P05)) is float and type(cn.ricci_pinch_check(m, P12)) is float
    assert type(dc.block_sharp_identity(m)) is float and type(dc.norm_identity_check(m)) is float
    assert type(wg.barrier_q_expansion(m, 2.0, 0.5)) is float
    assert smp.random_bianchi(smp.SamplerConfig(seed=1)).shape == (6, 6)
    assert wg.lie_bracket(m[0], m[1]).shape == (6,) and wg.skew_matrix(m[0]).shape == (4, 4)


def test_spectra_triple_and_blockdata_serve_as_blocks():
    for m in STACK[:30]:
        spectra = dc.block_spectra(m)
        assert cn.hat_f(m, P12, blocks=spectra) == cn.hat_f(m, P12)
        assert cn.lower_bound_l(m, P12, blocks=spectra) == cn.lower_bound_l(m, P12)
        assert cn.is_member(m, P12, blocks=spectra) == cn.is_member(m, P12)
        assert cn.l_face(m, P12, blocks=spectra) == cn.l_face(m, P12)
        assert cn.implies_wpic(m, P12, blocks=spectra) == cn.implies_wpic(m, P12)
        assert cn.two_nonneg_flag(m, 5, 0, blocks=spectra) == cn.two_nonneg_flag(m, 5, 0)


def _boundary_message_reference(f, nrm, which):
    # the precondition message of one operator, in Python floats
    msgs = []
    for face, val in zip(("F1", "F2", "F3"), f):
        if val < -1e-8 * max(1.0, nrm ** cn.FACE_DEGREE[face]):
            msgs.append(f"{face} = {val:.3e} < 0: not a cone member")
    named = f[("F1", "F2", "F3").index(which)]
    face_tol = 1e-8 * max(1.0, nrm ** cn.FACE_DEGREE[which])
    if abs(named) > face_tol:
        msgs.append(f"{which} = {named:.3e} is not on the boundary (tol {face_tol:.1e})")
    return "; ".join(msgs)


def test_null_vector_and_hamilton_stacks_match_single_calls():
    cfg = smp.SamplerConfig(seed=8)
    for face in ("F1", "F2", "F3"):
        ms, _ = smp.boundary_member(cfg, P12, face, index=np.arange(9))
        ms[4] = ms[4] - np.eye(6)  # one operator off the face, with a message
        ms[5] = ms[5] + 0.01 * np.eye(6)  # a member off the face
        ms[6], ms[7] = 1e100 * ms[6], -1e-200 * ms[7]
        rep = cn.null_vector_verify(ms, P12, face)
        singles = [cn.null_vector_verify(m, P12, face) for m in ms]
        _equal(rep.slack, [s.slack for s in singles])
        _equal(rep.precondition_ok, [s.precondition_ok for s in singles])
        assert list(rep.message) == [s.message for s in singles]
        assert list(rep.message) == [_boundary_message_reference(f, wg.frobenius(m), face)
                                     for f, m in zip(np.stack(rep.fhat, axis=-1).tolist(), ms)]
        assert not rep.precondition_ok[4] and rep.message[4]
        assert rep.message[5] and not rep.message[6]
        _equal(cn.hamilton_intermediate_slack(ms), [cn.hamilton_intermediate_slack(m) for m in ms])


# ---------------------------------------------------------------------------
# samplers over index arrays
# ---------------------------------------------------------------------------

def _retry_delta(fn):
    before = dict(smp.RETRY_COUNTS)
    out = fn()
    return out, {k: v - before.get(k, 0) for k, v in smp.RETRY_COUNTS.items() if v != before.get(k, 0)}


def _odd_bits(x) -> np.ndarray:
    # a deterministic coin per number: the last bit of its mantissa
    return (np.asarray(x, dtype=float).view(np.int64) & 1).astype(bool)


@pytest.fixture
def flaky_verification(monkeypatch):
    """Reject about half of all draws at each retry point, decided per draw."""
    member, ray = smp.is_member, smp._boundary_ray

    def is_member(m, params, *args, **kwargs):
        ok = np.asarray(member(m, params, *args, **kwargs)) & ~_odd_bits(np.asarray(m)[..., 0, 1])
        return bool(ok) if ok.ndim == 0 else ok

    def boundary_ray(eigs_a, eigs_c, svals, params, face):
        *moved, ok = ray(eigs_a, eigs_c, svals, params, face)
        return (*moved, ok & ~_odd_bits(eigs_a[..., 2]))

    monkeypatch.setattr(smp, "is_member", is_member)
    monkeypatch.setattr(smp, "_boundary_ray", boundary_ray)


@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced-retries"])
def test_random_member_index_array_matches_per_index(forced, request):
    if forced:
        request.getfixturevalue("flaky_verification")
    cfg = smp.SamplerConfig(seed=17)
    idx = np.array([5, 0, 33, 12, 7, 21, 2, 40, 19, 8, 3, 27])
    stacked, d_stack = _retry_delta(lambda: smp.random_member(cfg, P12, index=idx))
    singles, d_single = _retry_delta(lambda: [smp.random_member(cfg, P12, index=i) for i in idx])
    _equal(stacked, singles)
    assert d_stack == d_single
    assert d_stack.get("trace-shift", 0) > 0
    if forced:
        assert d_stack.get("member-verify", 0) > 0


@pytest.mark.parametrize("face", ["F1", "F2", "F3"])
@pytest.mark.parametrize("forced", [False, True], ids=["plain", "forced-retries"])
def test_boundary_member_index_array_matches_per_index(face, forced, request):
    if forced:
        request.getfixturevalue("flaky_verification")
    cfg = smp.SamplerConfig(seed=23)
    idx = np.arange(15)
    (stacked, certs), d_stack = _retry_delta(lambda: smp.boundary_member(cfg, P12, face, index=idx))
    singles, d_single = _retry_delta(lambda: [smp.boundary_member(cfg, P12, face, index=i) for i in idx])
    _equal(stacked, [m for m, _ in singles])
    assert certs == [c for _, c in singles]
    assert d_stack == d_single
    if forced:
        assert d_stack.get("boundary-ray", 0) > 0 and d_stack.get("boundary-verify", 0) > 0


SAMPLERS = {
    "bianchi": lambda cfg, idx: smp.random_bianchi(cfg, index=idx),
    "member": lambda cfg, idx: smp.random_member(cfg, P12, index=idx),
    "boundary-F1": lambda cfg, idx: smp.boundary_member(cfg, P12, "F1", index=idx)[0],
    "boundary-F2": lambda cfg, idx: smp.boundary_member(cfg, P12, "F2", index=idx)[0],
    "boundary-F3": lambda cfg, idx: smp.boundary_member(cfg, P12, "F3", index=idx)[0],
}


@pytest.mark.parametrize("name", list(SAMPLERS))
def test_stack_equals_per_index_permuted_and_split_stacks(name):
    draw, cfg, idx = SAMPLERS[name], smp.SamplerConfig(seed=31), np.arange(200)
    stacked, d_stack = _retry_delta(lambda: draw(cfg, idx))
    singles, d_single = [], Counter()
    for i in idx.tolist():
        m, d = _retry_delta(lambda: draw(cfg, i))
        singles.append(m)
        d_single.update(d)
    _same_bits(stacked, singles)
    assert d_stack == dict(d_single)
    perm = np.random.default_rng(0).permutation(len(idx))
    _same_bits(draw(cfg, idx[perm]), stacked[perm])
    _same_bits(np.concatenate([draw(cfg, idx[:73]), draw(cfg, idx[73:])]), stacked)


def test_a_sampler_call_costs_two_kernel_evaluations(monkeypatch):
    # one evaluation settles the first ROUND attempts of every index, one
    # draws the rotations of the accepted attempts; with seed 3 no index of
    # these calls needs more than ROUND attempts or fails its final check
    shapes = []
    kernel = smp.philox

    def counted(key, counter):
        shapes.append(np.shape(counter))
        return kernel(key, counter)

    monkeypatch.setattr(smp, "philox", counted)
    cfg, idx = smp.SamplerConfig(seed=3), np.arange(100)
    for face in (None, "F1", "F2", "F3"):
        shapes.clear()
        if face is None:
            smp.random_member(cfg, P12, index=idx)
        else:
            smp.boundary_member(cfg, P12, face, index=idx)
        assert shapes == [(100, smp.ROUND, 3, 4), (100, 9, 4)]
    for draw in (lambda: smp.random_bianchi(cfg, index=idx), lambda: smp.random_nonmember(cfg, P12, index=idx)):
        shapes.clear()
        draw()
        assert shapes == [(100, 9, 4)]


def test_index_array_shape_and_scalar_index():
    cfg = smp.SamplerConfig(seed=2)
    stack = smp.random_member(cfg, P12, index=np.arange(6).reshape(2, 3))
    assert stack.shape == (2, 3, 6, 6)
    _equal(stack[1, 2], smp.random_member(cfg, P12, index=5))
    m, cert = smp.boundary_member(cfg, P12, "F2", index=np.int64(4))
    assert m.shape == (6, 6) and cert["face"] == "F2"
    assert smp.random_member(cfg, P12, index=np.arange(0)).shape == (0, 6, 6)
