"""Stacked (..., 6, 6) input gives, entry for entry, the bits of single calls.

Every kernel that takes a stack must not depend on the batch size: a stack
of n operators equals n single calls bit for bit, for n in {1, 7, 1000},
across members, non-members and scales from 1e-300 to 1e300.  The samplers
take index arrays and must match per-index draws, retry counts included.
"""

import warnings

import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import sampling as smp
from curvcone import wedge as wg

P12 = cn.ConeParams(1.0, 2.0)
P_ETA0 = cn.ConeParams(0.0, 1.5)
SCALES = (1e-300, 1.0, 1e300)
SIZES = (1, 7, 1000)


def _mixed_stack(n: int = 1000) -> np.ndarray:
    """Members, boundary points, raw operators and their -I shifts at three scales."""
    cfg = smp.SamplerConfig(seed=21)
    base = []
    for i in range(n // (4 * len(SCALES)) + 1):
        base.append(smp.random_member(cfg, P12, index=i))
        base.append(smp.boundary_member(cfg, P12, ("F1", "F2", "F3")[i % 3], index=i)[0])
        base.append(smp.random_bianchi(cfg, index=i))
        base.append(smp.random_member(cfg, P12, index=500 + i) - 0.7 * np.eye(6))
    ops = [c * m for m in base for c in SCALES]
    return np.array(ops[:n])


STACK = _mixed_stack()


def _equal(a, b):
    np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


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
            stacked = np.asarray(fn(ms))
            singles = np.array([fn(m) for m in ms])
            assert stacked.shape == singles.shape
            assert stacked.tobytes() == singles.tobytes()  # signed zeros and NaN included


def test_contractions_on_signed_zeros_and_nonfinite_entries():
    ms = np.zeros((5, 6, 6))
    ms[1] = -0.0
    ms[2, 0, 0] = np.inf
    ms[3, 2, 2] = np.nan
    ms[4] = -1e-320 * np.eye(6)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for fn in (wg.ricci, wg.scalar, wg.traceless_ricci):
            stacked = np.asarray(fn(ms))
            singles = np.array([fn(m) for m in ms])
            assert stacked.tobytes() == singles.tobytes()


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


def test_spectra_triple_and_blockdata_serve_as_blocks():
    for m in STACK[:30]:
        spectra = dc.block_spectra(m)
        assert cn.hat_f(m, P12, blocks=spectra) == cn.hat_f(m, P12)
        assert cn.lower_bound_l(m, P12, blocks=spectra) == cn.lower_bound_l(m, P12)
        assert cn.is_member(m, P12, blocks=spectra) == cn.is_member(m, P12)
        assert cn.l_face(m, P12, blocks=spectra) == cn.l_face(m, P12)
        assert cn.implies_wpic(m, P12, blocks=spectra) == cn.implies_wpic(m, P12)
        assert cn.two_nonneg_flag(m, 5, 0, blocks=spectra) == cn.two_nonneg_flag(m, 5, 0)


def test_null_vector_and_hamilton_stacks_match_single_calls():
    cfg = smp.SamplerConfig(seed=8)
    for face in ("F1", "F2", "F3"):
        ms, _ = smp.boundary_member(cfg, P12, face, index=np.arange(9))
        ms[4] = ms[4] - np.eye(6)  # one operator off the face, with a message
        rep = cn.null_vector_verify(ms, P12, face)
        singles = [cn.null_vector_verify(m, P12, face) for m in ms]
        _equal(rep.slack, [s.slack for s in singles])
        _equal(rep.precondition_ok, [s.precondition_ok for s in singles])
        assert list(rep.message) == [s.message for s in singles]
        assert not rep.precondition_ok[4] and rep.message[4]
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
        return None if _odd_bits(eigs_a[2]) else ray(eigs_a, eigs_c, svals, params, face)

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


def test_index_array_shape_and_scalar_index():
    cfg = smp.SamplerConfig(seed=2)
    stack = smp.random_member(cfg, P12, index=np.arange(6).reshape(2, 3))
    assert stack.shape == (2, 3, 6, 6)
    _equal(stack[1, 2], smp.random_member(cfg, P12, index=5))
    m, cert = smp.boundary_member(cfg, P12, "F2", index=np.int64(4))
    assert m.shape == (6, 6) and cert["face"] == "F2"
    assert smp.random_member(cfg, P12, index=np.arange(0)).shape == (0, 6, 6)


def test_draws_match_four_separate_rotation_draws():
    a = smp.substream(3, "member", 0).standard_normal((4, 3, 3))
    rng = smp.substream(3, "member", 0)
    _equal(a, [rng.standard_normal((3, 3)) for _ in range(4)])
