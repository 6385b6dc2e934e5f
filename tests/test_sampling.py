import zlib

import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import sampling as smp
from curvcone import wedge as wg

import samplers

PARAM_SETS = (cn.ConeParams(0.5, 1.5), cn.ConeParams(1.0, 2.0), cn.ConeParams(0.1, 1.1))


def test_config_validation():
    with pytest.raises(ValueError):
        smp.SamplerConfig(seed=1, margin=0.0)
    with pytest.raises(ValueError):
        smp.SamplerConfig(seed=1, margin=1.5)


def test_determinism_golden_seed_42():
    # frozen outputs pin the generator (Philox4x64-10 at (seed, crc32(tag)))
    cfg = smp.SamplerConfig(seed=42)
    upper = wg.upper_triangle(smp.random_bianchi(cfg, index=0))
    np.testing.assert_array_equal(
        upper[:5],
        np.array([
            0.5181481622789171, 0.47291086551020667, 0.6090106186225424,
            0.39677876367448917, 0.2937746046733033,
        ]),
    )
    member = wg.upper_triangle(smp.random_member(cfg, cn.ConeParams(0.5, 1.5), index=0))
    np.testing.assert_array_equal(
        member[:5],
        np.array([
            0.5854482918069138, 0.15549291200427612, 0.031850698210755715,
            -0.16271339521519387, -0.05621495870438111,
        ]),
    )


@pytest.mark.parametrize("key", [(0, 0), (42, zlib.crc32(b"member")), (2**63 + 5, 2**64 - 1)])
def test_philox_matches_numpy_reference(key):
    # numpy's Philox emits the block of counter c + 1 first; the starts
    # cover a carry out of the low word, one through two words, and a
    # counter whose low word is 2**64 - 1
    key = np.array(key, dtype=np.uint64)
    for start in ([0, 0, 0, 0], [2**64 - 1, 7, 0, 0], [2**64 - 2, 2**64 - 1, 3, 1], [5, 1, 2, 2**64 - 1]):
        words = np.random.Philox(key=key, counter=np.array(start, dtype=np.uint64)).random_raw(12)
        c = sum(w << (64 * j) for j, w in enumerate(start))
        ctr = np.array([[((c + b) >> (64 * j)) & (2**64 - 1) for j in range(4)] for b in (1, 2, 3)],
                       dtype=np.uint64)
        assert smp.philox(key, ctr).tobytes() == words.tobytes()
    # one key per counter broadcasts like one key for all
    keys = np.stack([key, key ^ np.uint64(1)])
    ctr = np.array([[3, 0, 0, 0], [4, 0, 0, 0]], dtype=np.uint64)
    both = smp.philox(keys, ctr)
    assert both[0].tobytes() == smp.philox(keys[0], ctr[0]).tobytes()
    assert both[1].tobytes() == smp.philox(keys[1], ctr[1]).tobytes()


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
    for m in smp.random_bianchi(cfg, index=np.arange(n)):
        assert wg.bianchi_residual(m) <= 1e-12
        acc += m
    # entrywise mean within 5 standard errors of zero
    stderr = 1.0 / np.sqrt(n)
    assert np.max(np.abs(acc / n)) <= 5.0 * stderr


def test_random_member_all_parameter_sets():
    cfg = smp.SamplerConfig(seed=13)
    for p in PARAM_SETS:
        for m in smp.random_member(cfg, p, index=np.arange(300)):
            assert cn.is_member(m, p)
            assert cn.lower_bound_l(m, p) == 0.0
            bd = dc.decompose(m)
            assert abs(np.trace(bd.a) - np.trace(bd.c)) <= 1e-12 * max(1.0, np.linalg.norm(m))


def test_random_member_interior_margins():
    cfg = smp.SamplerConfig(seed=17, margin=0.2)
    p = cn.ConeParams(0.5, 1.5)
    for m in smp.random_member(cfg, p, index=np.arange(100)):
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
        for m, cert in zip(*smp.boundary_member(cfg, p, face, index=np.arange(40))):
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
    for m in smp.boundary_member(cfg, p, "F2", index=np.arange(30))[0]:
        ea, _, _ = dc.block_spectra(m)
        assert ea[1] + ea[2] == pytest.approx(
            p.mu * (ea[0] + ea[1]), abs=1e-10 * max(1.0, np.linalg.norm(m))
        )


def test_frame_octet_invariants():
    cfg = smp.SamplerConfig(seed=29)
    for i in range(300):
        oct_i = samplers.random_frame_octet(cfg, index=i)
        oct_i.validate(1e-12)


def test_three_frames():
    cfg = smp.SamplerConfig(seed=31)
    for i in range(100):
        fr = samplers.random_3frame(cfg, index=i)
        np.testing.assert_allclose(fr @ fr.T, np.eye(3), atol=1e-12)


def test_random_rotation_is_special_orthogonal():
    rng = smp.substream(37, "rot")
    for n in (3, 4):
        for _ in range(20):
            q = samplers.random_rotation(rng, n)
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)
            assert np.linalg.det(q) == pytest.approx(1.0, abs=1e-12)


def test_random_nonmember():
    cfg = smp.SamplerConfig(seed=41)
    p = cn.ConeParams(1.0, 2.0)
    for m in smp.random_nonmember(cfg, p, index=np.arange(100)):
        assert not cn.is_member(m, p)


def _scalar_draw(word_rows, params, margin):
    """One index's member draw, one attempt at a time in Python floats.

    ``word_rows(attempt)`` gives the attempt's twelve Philox words.  Each
    attempt maps six of them to uniforms and those by six scalar uniform
    maps lo + (hi - lo) * u to the block eigenvalues.  The Box-Muller radii
    and angles take numpy's log, cos and sin, as the sampler does.  Returns
    the first attempt the trace shift keeps and its eigenvalue data.
    """
    gap = 1.0 + (1.0 - margin) * (params.mu - 1.0)

    def sums_triplet(u0, u1, u2):
        s = margin + (1.0 - margin) * u0
        mid = 0.5 * s + (0.5 * gap * s - 0.5 * s) * u1
        return [s - mid, mid, mid + ((gap * s - mid) - mid) * u2]

    for attempt in range(smp.MAX_ATTEMPTS):
        u = [((int(w) >> 11) + 0.5) * 2.0**-53 for w in word_rows(attempt)]
        eigs_a = sums_triplet(*u[0:3])
        eigs_c = sums_triplet(*u[3:6])
        shift = (sum(eigs_a) - sum(eigs_c)) / 3.0
        eigs_c = [c + shift for c in eigs_c]
        sum_c = eigs_c[0] + eigs_c[1]
        f3 = params.mu * sum_c - (eigs_c[1] + eigs_c[2])
        if sum_c < 0.5 * margin or f3 < margin * (params.mu - 1.0) * sum_c:
            continue
        sum_a = eigs_a[0] + eigs_a[1]
        cap = (1.0 - margin) * params.eta * sum_a * sum_c
        r = [float(np.sqrt(-2.0 * np.log(x))) for x in u[8:10]]
        theta = [float(2.0 * np.pi * x) for x in u[10:12]]
        normals = (r[0] * float(np.cos(theta[0])), r[1] * float(np.cos(theta[1])), r[0] * float(np.sin(theta[0])))
        raw = sorted(abs(g) for g in normals)
        target = (0.1 + 0.9 * u[6]) * cap
        z = raw[1] + raw[2]
        scale = float(np.sqrt(target / (z * z)))  # numpy squares by a product, Python's ** by pow
        return attempt, (eigs_a, eigs_c, [x * scale for x in raw])
    raise AssertionError(f"no draw in {smp.MAX_ATTEMPTS} attempts")


def _attempt_words(seed, i):
    # the twelve Philox words of member attempt a of index i, one attempt alone
    key = np.array([seed, zlib.crc32(b"member")], dtype=np.uint64)
    return lambda a: smp.philox(key, np.array([[i, a, b, 0] for b in range(3)], dtype=np.uint64)).ravel()


def _scalar_member(seed, i, word_rows, params, margin):
    """(attempt, operator) of index i: the scalar reference's attempt,
    assembled from its rotation blocks as one index alone."""
    attempt, ref = _scalar_draw(word_rows, params, margin)
    g = smp._normals(seed, "member", i, (4, 3, 3), attempt, first_block=3)
    return attempt, smp._assemble(g, *map(np.array, ref))


@pytest.mark.parametrize("seed", [1, 2, 3, 77])
@pytest.mark.parametrize(
    "params,margin",
    [(PARAM_SETS[1], 0.1), (PARAM_SETS[2], 0.5), (cn.ConeParams(2.0, 4.0), 0.1)],
    ids=["eta1-mu2", "eta0.1-mu1.1", "eta2-mu4-many-retries"],
)
def test_member_draw_equals_six_scalar_uniform_calls(seed, params, margin):
    n, ahead = 200, 32
    key = np.array([seed, zlib.crc32(b"member")], dtype=np.uint64)
    ctr = np.zeros((n, ahead, 3, 4), dtype=np.uint64)
    ctr[..., 0] = np.arange(n)[:, None, None]
    ctr[..., 1] = np.arange(ahead)[:, None]
    ctr[..., 2] = np.arange(3)
    words = smp.philox(key, ctr).reshape(n, ahead, 12)

    def word_rows(i):
        # the attempts evaluated above, and any later one on its own
        return lambda a: words[i, a] if a < ahead else _attempt_words(seed, i)(a)

    before = smp.RETRY_COUNTS.get("trace-shift", 0)
    cfg = smp.SamplerConfig(seed=seed, margin=margin)
    ms = smp.random_member(cfg, params, index=np.arange(n))
    retries = 0
    for i in range(n):
        ref_attempt, ref = _scalar_member(seed, i, word_rows(i), params, margin)
        assert ms[i].tobytes() == ref.tobytes()
        retries += ref_attempt
    assert smp.RETRY_COUNTS.get("trace-shift", 0) - before == retries
    if params.mu == 4.0:
        assert retries > 100


def test_member_draws_past_the_first_round():
    # these indices first pass the trace shift at attempts 10, 8, 11 and 8,
    # so each takes a second round of ROUND attempts; every rejected attempt
    # counts once, in a stacked call and in a call per index
    cfg, params, idx = smp.SamplerConfig(seed=1, margin=0.1), cn.ConeParams(1.0, 2.0), [1439, 1645, 4726, 5224]
    refs = [_scalar_member(1, i, _attempt_words(1, i), params, 0.1) for i in idx]
    assert [a for a, _ in refs] == [10, 8, 11, 8]
    assert all(a >= smp.ROUND for a, _ in refs)
    before = smp.RETRY_COUNTS.get("trace-shift", 0)
    ms = smp.random_member(cfg, params, index=np.array(idx))
    assert smp.RETRY_COUNTS.get("trace-shift", 0) - before == 10 + 8 + 11 + 8
    for m, (_, ref) in zip(ms, refs):
        assert m.tobytes() == ref.tobytes()
    for i, (attempt, ref) in zip(idx, refs):
        before = smp.RETRY_COUNTS.get("trace-shift", 0)
        assert smp.random_member(cfg, params, index=i).tobytes() == ref.tobytes()
        assert smp.RETRY_COUNTS.get("trace-shift", 0) - before == attempt


@pytest.mark.parametrize("seeds", [np.array([[3, 1, 4], [1, 5, 9]]), 26])
def test_oracle_normals_are_one_substream_per_seed_entry(seeds, monkeypatch):
    built = []
    substream = smp.substream
    monkeypatch.setattr(smp, "substream", lambda *args: built.append(args) or substream(*args))
    g = smp._oracle_normals(seeds, "flag3", (5, 4, 3))
    assert g.shape == np.shape(seeds) + (5, 4, 3)
    assert built == [(s, "flag3") for s in np.ravel(seeds).tolist()]
    want = [substream(s, "flag3").standard_normal((5, 4, 3)) for s in np.ravel(seeds).tolist()]
    assert g.tobytes() == np.array(want).tobytes()
