import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import sampling as smp
from curvcone import wedge as wg

PARAM_SETS = (cn.ConeParams(0.5, 1.5), cn.ConeParams(1.0, 2.0), cn.ConeParams(0.1, 1.1))


def test_config_validation():
    with pytest.raises(ValueError):
        smp.SamplerConfig(seed=1, margin=0.0)
    with pytest.raises(ValueError):
        smp.SamplerConfig(seed=1, margin=1.5)


def test_determinism_golden_seed_42():
    # frozen outputs pin the generator (PCG64 over SeedSequence keys)
    cfg = smp.SamplerConfig(seed=42)
    upper = wg.upper_triangle(smp.random_bianchi(cfg, index=0))
    np.testing.assert_array_equal(
        upper[:5],
        np.array([
            0.37732552898926386, -0.08269308452216118, 0.6383896600959083,
            -0.39457985517706157, 0.8471748375597692,
        ]),
    )
    member = wg.upper_triangle(smp.random_member(cfg, cn.ConeParams(0.5, 1.5), index=0))
    np.testing.assert_array_equal(
        member[:5],
        np.array([
            0.5583993652949129, 0.056431981488996474, -0.05535988767357542,
            0.03153395476707707, 0.07367590169951664,
        ]),
    )


def test_streams_are_order_independent():
    cfg = smp.SamplerConfig(seed=7)
    a_then_b = (smp.random_bianchi(cfg, index=0), smp.random_bianchi(cfg, index=1))
    b_then_a = (smp.random_bianchi(cfg, index=1), smp.random_bianchi(cfg, index=0))
    assert np.array_equal(a_then_b[0], b_then_a[1])
    assert np.array_equal(a_then_b[1], b_then_a[0])


def test_substream_separation():
    assert not np.array_equal(
        smp.substream(1, "a", 0).standard_normal(4),
        smp.substream(1, "b", 0).standard_normal(4),
    )
    assert not np.array_equal(
        smp.substream(1, "a", 0).standard_normal(4),
        smp.substream(2, "a", 0).standard_normal(4),
    )


def test_random_bianchi_properties():
    cfg = smp.SamplerConfig(seed=11)
    acc = np.zeros((6, 6))
    n = 2000
    for i in range(n):
        m = smp.random_bianchi(cfg, index=i)
        assert wg.bianchi_residual(m) <= 1e-12
        acc += m
    # entrywise mean within 5 standard errors of zero
    stderr = 1.0 / np.sqrt(n)
    assert np.max(np.abs(acc / n)) <= 5.0 * stderr


def test_random_member_all_parameter_sets():
    cfg = smp.SamplerConfig(seed=13)
    for p in PARAM_SETS:
        for i in range(300):
            m = smp.random_member(cfg, p, index=i)
            assert cn.is_member(m, p)
            assert cn.lower_bound_l(m, p) == 0.0
            bd = dc.decompose(m)
            assert abs(np.trace(bd.a) - np.trace(bd.c)) <= 1e-12 * max(1.0, np.linalg.norm(m))


def test_random_member_interior_margins():
    cfg = smp.SamplerConfig(seed=17, margin=0.2)
    p = cn.ConeParams(0.5, 1.5)
    for i in range(100):
        m = smp.random_member(cfg, p, index=i)
        f1, f2, f3 = cn.hat_f(m, p)
        ea, ec, _ = dc.block_spectra(m)
        # strictly interior with a quantified gap
        assert f2 >= 0.19 * (p.mu - 1.0) * (ea[0] + ea[1])
        assert f3 >= 0.19 * (p.mu - 1.0) * (ec[0] + ec[1])
        assert f1 > 0.0


def test_random_member_requires_positive_eta():
    with pytest.raises(ValueError):
        smp.random_member(smp.SamplerConfig(seed=1), cn.ConeParams(0.0, 2.0))


@pytest.mark.parametrize("face", ["F1", "F2", "F3"])
def test_boundary_member_faces(face):
    cfg = smp.SamplerConfig(seed=19)
    for p in PARAM_SETS:
        for i in range(40):
            m, cert = smp.boundary_member(cfg, p, face, index=i)
            nrm = np.linalg.norm(m)
            deg = 2 if face == "F1" else 1
            f = cn.hat_f(m, p)
            named = f[("F1", "F2", "F3").index(face)]
            assert 0.0 <= named <= 1e-10 * max(1.0, nrm**deg)
            assert cn.is_member(m, p)
            assert cert["face"] == face
            # the ray keeps tr A = tr C: boundary points are curvature operators
            assert wg.bianchi_residual(m) <= 1e-12 * max(1.0, nrm)


def test_boundary_member_f2_hits_eigenvalue_relation():
    cfg = smp.SamplerConfig(seed=23)
    p = cn.ConeParams(1.0, 2.0)
    for i in range(30):
        m, _ = smp.boundary_member(cfg, p, "F2", index=i)
        ea, _, _ = dc.block_spectra(m)
        assert ea[1] + ea[2] == pytest.approx(
            p.mu * (ea[0] + ea[1]), abs=1e-10 * max(1.0, np.linalg.norm(m))
        )


def test_frame_octet_invariants():
    cfg = smp.SamplerConfig(seed=29)
    for i in range(300):
        oct_i = smp.random_frame_octet(cfg, index=i)
        oct_i.validate(1e-12)


def test_three_frames():
    cfg = smp.SamplerConfig(seed=31)
    for i in range(100):
        fr = smp.random_3frame(cfg, index=i)
        np.testing.assert_allclose(fr @ fr.T, np.eye(3), atol=1e-12)


def test_random_rotation_is_special_orthogonal():
    rng = smp.substream(37, "rot")
    for n in (3, 4):
        for _ in range(20):
            q = smp.random_rotation(rng, n)
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


def test_random_nonmember():
    cfg = smp.SamplerConfig(seed=41)
    p = cn.ConeParams(1.0, 2.0)
    for i in range(100):
        m = smp.random_nonmember(cfg, p, index=i)
        assert not cn.is_member(m, p)


def _uniform_draw(rng, params, margin):
    """The member draw as six scalar ``Generator.uniform`` calls per attempt.

    The formulation the sampler had before it took one ``rng.random(6)`` per
    attempt; returns the eigenvalue data and the number of trace-shift retries.
    """
    gap = 1.0 + (1.0 - margin) * (params.mu - 1.0)

    def sums_triplet():
        s = rng.uniform(margin, 1.0)
        mid = rng.uniform(0.5 * s, 0.5 * gap * s)
        lo = s - mid
        hi = rng.uniform(mid, gap * s - mid)
        return np.array([lo, mid, hi])

    for retries in range(1000):
        eigs_a = sums_triplet()
        eigs_c = sums_triplet()
        eigs_c = eigs_c + (eigs_a.sum() - eigs_c.sum()) / 3.0
        sum_c = eigs_c[0] + eigs_c[1]
        f3 = params.mu * sum_c - (eigs_c[1] + eigs_c[2])
        if sum_c < 0.5 * margin or f3 < margin * (params.mu - 1.0) * sum_c:
            continue
        sum_a = eigs_a[0] + eigs_a[1]
        cap = (1.0 - margin) * params.eta * sum_a * sum_c
        raw = np.sort(np.abs(rng.standard_normal(3)))
        target = rng.uniform(0.1, 1.0) * cap
        svals = raw * np.sqrt(target / (raw[1] + raw[2]) ** 2)
        return (eigs_a, eigs_c, svals), retries
    raise AssertionError("no draw in 1000 attempts")


@pytest.mark.parametrize("seed", [1, 2, 3, 77])
@pytest.mark.parametrize(
    "params,margin",
    [(PARAM_SETS[1], 0.1), (PARAM_SETS[2], 0.5), (cn.ConeParams(2.0, 4.0), 0.1)],
    ids=["eta1-mu2", "eta0.1-mu1.1", "eta2-mu4-many-retries"],
)
def test_member_draw_equals_six_scalar_uniform_calls(seed, params, margin):
    retries = 0
    for i in range(200):
        rng, ref_rng = smp.substream(seed, "member", i), smp.substream(seed, "member", i)
        before = smp.RETRY_COUNTS.get("trace-shift", 0)
        data = smp._draw_member_data(rng, params, margin)
        ref, ref_retries = _uniform_draw(ref_rng, params, margin)
        for got, want in zip(data, ref):
            assert got.tobytes() == want.tobytes()
        assert smp.RETRY_COUNTS.get("trace-shift", 0) - before == ref_retries
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        retries += ref_retries
    if params.mu == 4.0:
        assert retries > 100
