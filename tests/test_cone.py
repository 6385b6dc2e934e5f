import math

import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import wedge as wg
from curvcone.sampling import SamplerConfig, boundary_member, random_bianchi, random_member, substream
from samplers import random_frame_octet, random_rotation

I6 = np.eye(6)
CFG = SamplerConfig(seed=303)
P12 = cn.ConeParams(1.0, 2.0)
PARAM_SETS = (cn.ConeParams(0.5, 1.5), cn.ConeParams(1.0, 2.0), cn.ConeParams(0.1, 1.1))
#: S^3 x R and the metric cone over S^3(a): A = B = C = I/2, non-members that
#: fail F1 alone for every eta < 1
F1_ONLY = (np.diag([1.0, 1.0, 0.0, 1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]))


def _member_within(m, p, tol):
    """Membership slackened by tol on every closed form (at eta = 0, F1 is
    -(B_2+B_3)^2, so F1 >= -tol forgives a rounding-size mixed block)."""
    return min(cn.hat_f(m, p)) >= -tol


class TestConeParams:
    def test_derived_constants(self):
        p = cn.ConeParams(1.0, 2.0)
        assert p.c_eta == 3.0
        assert p.lambda_pic == 4.0  # max(2, sqrt(2), 4)
        assert cn.ConeParams(0.0, 1.5).c_eta == math.inf

    @pytest.mark.parametrize("eta,mu", [(2.0, 2.0), (-0.1, 2.0), (0.0, 1.0), (0.5, 1.2), (math.inf, math.inf),
                                        (1.0, math.inf)])
    def test_rejects_bad_parameters(self, eta, mu):
        with pytest.raises(ValueError, match="mu - 1 >= eta >= 0 and mu > 1"):
            cn.ConeParams(eta, mu)


class TestFrameFunctionals:
    def test_identity_values(self):
        for i in range(20):
            f = cn.frame_functionals(I6, random_frame_octet(CFG, index=i))
            assert f.x == pytest.approx(2.0, abs=1e-12)
            assert f.y == pytest.approx(2.0, abs=1e-12)
            assert f.w == pytest.approx(2.0, abs=1e-12)
            assert f.v == pytest.approx(2.0, abs=1e-12)
            assert f.z == pytest.approx(0.0, abs=1e-12)

    def test_scaling_linearity(self):
        oct0 = random_frame_octet(CFG, index=99)
        m = random_bianchi(CFG, index=1)
        f1 = cn.frame_functionals(m, oct0)
        f3 = cn.frame_functionals(3.0 * m, oct0)
        for name in ("x", "y", "z", "w", "v"):
            assert getattr(f3, name) == pytest.approx(3.0 * getattr(f1, name), abs=1e-12)

    def test_x_dominates_smallest_eigen_pair(self):
        for i, m in enumerate(random_bianchi(CFG, index=100 + np.arange(200))):
            ea, _, _ = dc.block_spectra(m)
            f = cn.frame_functionals(m, random_frame_octet(CFG, index=300 + i))
            assert f.x >= ea[0] + ea[1] - 1e-12 * max(1.0, np.linalg.norm(m))

    def test_rejects_invalid_octets(self):
        bad = cn.FrameOctet(np.eye(8, 6))
        with pytest.raises(ValueError):
            cn.frame_functionals(I6, bad)


class TestHatFAndMembership:
    def test_closed_form_examples(self):
        np.testing.assert_allclose(cn.hat_f(I6, P12), (4.0, 2.0, 2.0), atol=1e-12)
        f = cn.hat_f(-I6, P12)
        assert f[1] == pytest.approx(-2.0, abs=1e-12)
        assert f[2] == pytest.approx(-2.0, abs=1e-12)
        np.testing.assert_allclose(cn.hat_f(np.zeros((6, 6)), P12), (0.0, 0.0, 0.0), atol=0)

    def test_isotropic_ray_membership(self):
        for k in (-3.0, -0.1, 0.0, 0.2, 5.0):
            for p in PARAM_SETS:
                assert cn.is_member(k * I6, p) == (k >= 0.0)

    def test_vanishing_xsum_forces_nonmembership(self):
        # nonzero operators with A1 + A2 = 0 are never members
        for i in range(20):
            rng = substream(31, "xsum", i)
            a2 = float(rng.uniform(0.2, 1.0))
            eigs_a = np.array([-a2, a2, a2 + rng.uniform(0.0, 1.0)])
            c = rng.standard_normal((3, 3))
            c = 0.5 * (c + c.T)
            c += (eigs_a.sum() - np.trace(c)) / 3.0 * np.eye(3)
            m = dc.reassemble(np.diag(eigs_a), np.zeros((3, 3)), c)
            assert np.linalg.norm(m) > 0.1
            for p in PARAM_SETS:
                assert not cn.is_member(m, p)

    def test_scaling_invariance(self):
        for m in random_bianchi(CFG, index=2000 + np.arange(100)):
            base = cn.is_member(m, P12)
            for c in (0.1, 10.0):
                assert cn.is_member(c * m, P12) == base

    def test_hat_f_commutes_with_powers_of_two(self):
        ops = np.concatenate([boundary_member(CFG, P12, "F1", index=6400 + np.arange(10))[0],
                              random_member(CFG, P12, index=6500 + np.arange(10)), F1_ONLY[0][None] - 0.5 * I6])
        spectra = dc.block_spectra(ops)
        ref = np.array(cn.hat_f(ops, P12, blocks=spectra))
        for k in range(-1000, 1001, 20):
            f = np.array(cn.hat_f(ops, P12, blocks=tuple(np.ldexp(s, k) for s in spectra)))
            with np.errstate(over="ignore"):
                want = np.ldexp(ref, np.array([2 * k, k, k])[:, None])
            normal = np.isfinite(want) & (np.abs(want) >= np.finfo(float).tiny)
            np.testing.assert_array_equal(f[normal], want[normal])
            assert (np.signbit(f[0]) == np.signbit(ref[0])).all()

    def test_member_midpoints(self):
        for p in PARAM_SETS:
            pairs = zip(random_member(CFG, p, index=np.arange(50)), random_member(CFG, p, index=1000 + np.arange(50)))
            for m1, m2 in pairs:
                assert cn.is_member(0.5 * (m1 + m2), p)

    def test_rotation_invariance(self):
        rng = substream(32, "rot")
        for m in random_bianchi(CFG, index=2300 + np.arange(50)):
            q = random_rotation(rng, 4)
            m2 = wg.rotate_operator(m, q)
            assert cn.is_member(m, P12) == cn.is_member(m2, P12)
            l1 = cn.lower_bound_l(m, P12, tol=1e-12)
            l2 = cn.lower_bound_l(m2, P12, tol=1e-12)
            assert abs(l1 - l2) <= 1e-10 * max(1.0, np.linalg.norm(m)) + 1e-11


class TestExtremalFrames:
    def test_diagonal_block_example(self):
        a = np.diag([1.0, 2.0, 3.0])
        c = np.diag([1.0, 2.0, 3.0])
        m = dc.reassemble(a, np.zeros((3, 3)), c)
        f = cn.frame_functionals(m, cn.extremal_frame(m, "F2"))
        assert f.x == pytest.approx(3.0, abs=1e-12)
        assert f.w == pytest.approx(5.0, abs=1e-12)

    def test_attains_closed_forms(self):
        for m in random_bianchi(CFG, index=2600 + np.arange(100)):
            bd = dc.decompose(m)
            f1, f2, f3 = cn.hat_f(m, P12, blocks=bd)
            scale = max(1.0, np.linalg.norm(m) ** 2)
            fr = cn.frame_functionals(m, cn.extremal_frame(m, "F1", blocks=bd))
            assert abs(P12.eta * fr.x * fr.y - fr.z**2 - f1) <= 1e-10 * scale
            assert fr.z == pytest.approx(bd.svals_b[1] + bd.svals_b[2], abs=1e-10 * scale)
            fr = cn.frame_functionals(m, cn.extremal_frame(m, "F2", blocks=bd))
            assert abs(P12.mu * fr.x - fr.w - f2) <= 1e-10 * scale
            fr = cn.frame_functionals(m, cn.extremal_frame(m, "F3", blocks=bd))
            assert abs(P12.mu * fr.y - fr.v - f3) <= 1e-10 * scale

    def test_sampled_inf_never_beats_extremal(self):
        for i, m in enumerate(random_member(CFG, P12, index=4000 + np.arange(10))):
            est = cn.sampled_inf(m, P12, 2000, seed=55 + i)
            cf = cn.hat_f(m, P12)
            for e, c in zip(est, cf):
                assert e >= c - 1e-10

    def test_sampled_inf_nested_minima_shrink(self):
        m = random_member(CFG, P12, index=4100)
        cf = cn.hat_f(m, P12)
        gaps = []
        for n in (100, 1000, 10000):
            est = cn.sampled_inf(m, P12, n, seed=7)
            gaps.append(est[0] - cf[0])
        # prefix sampling makes the estimates monotone in n
        assert gaps[0] >= gaps[1] >= gaps[2] >= -1e-10


class TestLowerBound:
    def test_examples(self):
        assert cn.lower_bound_l(I6, P12) == 0.0
        assert cn.lower_bound_l(-I6, P12, tol=1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_member_shift_examples(self):
        assert cn.is_member(-I6 + 1.0 * I6, P12)
        assert not cn.is_member(-I6 + 0.5 * I6, P12)

    def test_shifted_membership_matches_fast_path(self):
        for m in random_bianchi(CFG, index=2900 + np.arange(50)):
            lv = cn.lower_bound_l(m, P12, tol=1e-10)
            assert cn.is_member(m + (lv + 1e-8) * I6, P12)
            if lv > 1e-6:
                assert not cn.is_member(m + max(0.0, lv - 1e-6) * I6, P12)

    def test_homogeneity(self):
        for m in random_bianchi(CFG, index=3200 + np.arange(30)):
            lv = cn.lower_bound_l(m, P12, tol=1e-10)
            for c in (0.1, 10.0):
                assert cn.lower_bound_l(c * m, P12, tol=1e-10) == pytest.approx(c * lv, abs=1e-6)

    def test_linear_bound(self):
        for p in PARAM_SETS:
            for m in random_bianchi(CFG, index=3500 + np.arange(100)):
                assert cn.lower_bound_l(m, p) <= p.c_eta * np.linalg.norm(m) + 1e-6

    def test_shift_monotonicity(self):
        for m in random_bianchi(CFG, index=3800 + np.arange(20)):
            lv = cn.lower_bound_l(m, P12)
            seen = False
            for alpha in np.linspace(0.0, 2.0 * lv + 1.0, 100):
                now = cn.is_member(m + alpha * I6, P12)
                assert now or not seen
                seen = seen or now

    def test_eta_zero_semantics(self):
        p0 = cn.ConeParams(0.0, 2.0)
        # nonzero mixed block: no identity shift can ever help
        m, _ = np.zeros((6, 6)), None
        h = np.diag([1.0, -1.0, 0.0, 0.0])
        m = 0.5 * wg.kulkarni_nomizu(h, np.eye(4))
        assert cn.lower_bound_l(m, p0) == math.inf
        # without a mixed block the F2/F3 bracket applies
        a = np.diag([-1.0, 0.5, 2.0])
        c = np.diag([0.4, 0.5, 0.6])
        m = dc.reassemble(a, np.zeros((3, 3)), c)
        lv = cn.lower_bound_l(m, p0, tol=1e-10)
        assert math.isfinite(lv) and lv > 0.0
        assert _member_within(m + (lv + 1e-8) * I6, p0, 1e-12)


class TestEtaZeroMembership:
    """At eta = 0, F1 asks for a zero mixed block: members are exactly l = 0."""

    P0 = cn.ConeParams(0.0, 1.5)

    @pytest.mark.parametrize("c", [1e-300, 1.0, 1e300])
    def test_multiples_of_identity(self, c):
        for k in (1e-5, 1.0, 3.0):
            m = (c * k) * I6
            assert dc.block_spectra(m)[2].tolist() == [0.0, 0.0, 0.0]
            assert cn.is_member(m, self.P0)
            assert cn.lower_bound_l(m, self.P0) == 0.0
            assert cn.l_face(m, self.P0) is None

    @pytest.mark.parametrize("c", [1e-300, 1.0, 1e300])
    def test_zero_mixed_block_reassemblies(self, c):
        rng = substream(35, "eta0-reassembly")
        members = 0
        for i in range(40):
            q_a, q_c = random_rotation(rng, 3), random_rotation(rng, 3)
            ea = np.sort(rng.uniform(0.5, 1.5, 3))
            ec = np.sort(rng.uniform(0.5, 1.5, 3))
            ec += (ea.sum() - ec.sum()) / 3.0  # tr A = tr C
            m = c * dc.reassemble(q_a @ np.diag(ea) @ q_a.T, np.zeros((3, 3)), q_c @ np.diag(ec) @ q_c.T)
            member = cn.is_member(m, self.P0)
            lv = cn.lower_bound_l(m, self.P0)
            assert math.isfinite(lv)
            assert member == (lv == 0.0) == (cn.l_face(m, self.P0) is None)
            members += member
        assert 0 < members < 40

    def test_rounding_size_mixed_block_is_not_a_member(self):
        # the mixed-block test at eta = 0 is exact: a rotated 3 I, whose B is
        # zero only up to rounding, is a non-member with l = inf, while 3 I
        # itself is a member and eta > 0 accepts the rotated operator
        q = random_rotation(substream(36, "eta0-rotated"), 4)
        m = wg.rotate_operator(3.0 * I6, q)
        assert 0.0 < dc.block_spectra(m)[2][2] < 1e-13
        assert not cn.is_member(m, self.P0)
        assert cn.lower_bound_l(m, self.P0) == math.inf
        assert cn.l_face(m, self.P0) == "F1"
        p = cn.ConeParams(0.5, 1.5)
        assert cn.is_member(m, p) and cn.lower_bound_l(m, p) == 0.0


class TestLFace:
    def test_members_have_none(self):
        for m in random_member(CFG, P12, index=6400 + np.arange(20)):
            assert cn.l_face(m, P12) is None

    def test_shift_by_l_lands_on_the_named_face(self):
        for p in PARAM_SETS:
            for m in random_bianchi(CFG, index=6500 + np.arange(100)):
                face = cn.l_face(m, p)
                if face is None:
                    continue
                lv = cn.lower_bound_l(m, p)
                f = cn.hat_f(m + lv * I6, p)[("F1", "F2", "F3").index(face)]
                scale = max(1.0, np.linalg.norm(m)) ** cn.FACE_DEGREE[face]
                assert abs(f) <= 1e-9 * scale

    def test_boundary_shift_binds_its_face(self):
        for face in ("F2", "F3"):
            for m in boundary_member(CFG, P12, face, index=6600 + np.arange(10))[0]:
                assert cn.l_face(m - 0.5 * I6, P12) == face

    def test_eta_zero_mixed_block_binds_f1(self):
        h = np.diag([1.0, -1.0, 0.0, 0.0])
        m = 0.5 * wg.kulkarni_nomizu(h, np.eye(4))
        assert cn.l_face(m, cn.ConeParams(0.0, 2.0)) == "F1"


def _bisected_l(m, p, tol=None):
    """Independent oracle for l: bisection over is_member(R + alpha I), or
    over _member_within(R + alpha I, p, tol) when tol is given."""
    def inside(a):
        return cn.is_member(a, p) if tol is None else _member_within(a, p, tol)

    if inside(m):
        return 0.0
    hi = max(1.0, np.linalg.norm(m))
    for _ in range(64):
        if inside(m + hi * I6):
            break
        hi *= 2.0
    else:
        return math.inf
    lo = 0.0
    while hi - lo > 1e-13 * hi:
        mid = 0.5 * (lo + hi)
        if inside(m + mid * I6):
            hi = mid
        else:
            lo = mid
    return hi


class TestLowerBoundClosedForm:
    @pytest.mark.parametrize("p", PARAM_SETS + (cn.ConeParams(4.0, 5.0),), ids=str)
    def test_matches_bisection_oracle(self, p):
        positive = 0
        for i, m in enumerate(random_bianchi(CFG, index=5000 + np.arange(60))):
            if i % 3 == 0:
                m = m + 2.0 * I6
            lv = cn.lower_bound_l(m, p)
            positive += lv > 0.0
            assert abs(lv - _bisected_l(m, p)) <= 1e-11 * max(1.0, np.linalg.norm(m))
        assert positive >= 30

    def test_eta_zero_against_oracle(self):
        p0 = cn.ConeParams(0.0, 1.5)
        for m in random_bianchi(CFG, index=5100 + np.arange(20)):
            assert cn.lower_bound_l(m, p0) == math.inf == _bisected_l(m, p0)
        rng = substream(34, "eta0")
        for i in range(20):
            q_a, q_c = random_rotation(rng, 3), random_rotation(rng, 3)
            a = q_a @ np.diag(np.sort(rng.normal(size=3))) @ q_a.T
            c = q_c @ np.diag(np.sort(rng.normal(size=3))) @ q_c.T
            m = dc.reassemble(a, np.zeros((3, 3)), c)
            lv = cn.lower_bound_l(m, p0)
            # reassembly leaves a rounding-level mixed block, which eta = 0
            # only forgives with a slack on F1
            assert math.isfinite(lv)
            assert abs(lv - _bisected_l(m, p0, tol=1e-24)) <= 1e-11 * max(1.0, np.linalg.norm(m))

    @pytest.mark.parametrize("c", [1e-300, 1e-150, 1e6, 1e12, 1e300])
    def test_scale_homogeneity_across_range(self, c):
        for p in PARAM_SETS:
            idx = 5200 + np.arange(20)  # raw operators at odd indices, members at even ones
            odd = (idx % 2 == 1)[:, None, None]
            ms = np.where(odd, random_bianchi(CFG, index=idx), random_member(CFG, p, index=idx))
            for m in ms:
                base = cn.is_member(m, p)
                assert cn.is_member(c * m, p) == base
                lv = cn.lower_bound_l(m, p)
                assert (lv == 0.0) == base
                assert abs(cn.lower_bound_l(c * m, p) / c - lv) <= 1e-12 * lv
        p0 = cn.ConeParams(0.0, 1.5)
        m = random_bianchi(CFG, index=5300)
        assert cn.lower_bound_l(c * m, p0) == math.inf
        m = dc.reassemble(np.diag([-1.0, 0.5, 2.0]), np.zeros((3, 3)), np.diag([0.4, 0.5, 0.6]))
        lv = cn.lower_bound_l(m, p0)
        assert 0.0 < lv < math.inf
        assert abs(cn.lower_bound_l(c * m, p0) / c - lv) <= 1e-12 * lv
        # F1-only non-members at every decade 1e-300..1e300, where a squared
        # F1 test under- or overflows
        cs = 10.0 ** np.arange(-300, 301)
        for p in (cn.ConeParams(0.5, 1.5), cn.ConeParams(0.1, 1.1), cn.ConeParams(0.9, 2.0)):
            for m in F1_ONLY:
                lv = cn.lower_bound_l(m, p)
                assert lv > 0.0 and cn.l_face(m, p) == "F1"
                ms = cs[:, None, None] * m
                assert not cn.is_member(ms, p).any()
                assert (cn.l_face(ms, p) == "F1").all()
                assert np.abs(cn.lower_bound_l(ms, p) / cs - lv).max() <= 1e-14 * lv


class TestNullVector:
    @pytest.mark.parametrize("face", ["F1", "F2", "F3"])
    def test_boundary_slack(self, face):
        for p in PARAM_SETS:
            for m, cert in zip(*boundary_member(CFG, p, face, index=np.arange(30))):
                assert cert["face"] == face
                rep = cn.null_vector_verify(m, p, face)
                assert rep.precondition_ok, rep.message
                deg = cn.FACE_DEGREE[face] + 1
                assert rep.slack >= -1e-8 * max(1.0, np.linalg.norm(m) ** deg)

    def test_precondition_reported_not_raised(self):
        rep = cn.null_vector_verify(I6, P12, "F2")
        assert not rep.precondition_ok
        assert "boundary" in rep.message

    def test_hamilton_intermediate_bound(self):
        # holds for arbitrary Bianchi operators at the A-extremal frame
        for m in random_bianchi(CFG, index=4200 + np.arange(200)):
            slack = cn.hamilton_intermediate_slack(m)
            assert slack >= -1e-10 * max(1.0, np.linalg.norm(m) ** 2)

    def test_equality_on_identity(self):
        assert cn.hamilton_intermediate_slack(I6) == pytest.approx(0.0, abs=1e-12)


class TestImpliedConditions:
    def test_wpic(self):
        assert cn.implies_wpic(I6, P12)
        assert not cn.implies_wpic(-I6, P12)
        for p in PARAM_SETS:
            for m in random_member(CFG, p, index=5000 + np.arange(100)):
                assert cn.implies_wpic(m, p)

    def test_two_nonneg_flag_identity(self):
        smin, cert = cn.two_nonneg_flag(I6, 200, seed=3)
        assert smin == pytest.approx(2.0, abs=1e-12)
        assert cert == pytest.approx(2.0, abs=1e-12)
        smin, _ = cn.two_nonneg_flag(-I6, 200, seed=3)
        assert smin == pytest.approx(-2.0, abs=1e-12)

    def test_two_nonneg_flag_members(self):
        for p in PARAM_SETS:  # all have eta <= 1
            for i, m in enumerate(random_member(CFG, p, index=5300 + np.arange(60))):
                tol = 1e-10 * max(1.0, np.linalg.norm(m))
                smin, cert = cn.two_nonneg_flag(m, 60, seed=11 + i)
                assert cert >= -tol
                assert smin >= cert - tol

    def test_ricci_pinch(self):
        p = cn.ConeParams(0.25, 1.5)
        assert cn.ricci_pinch_check(I6, p) == pytest.approx(2.0, abs=1e-12)
        p5 = cn.ConeParams(0.5, 1.5)
        for m in random_member(CFG, p5, index=5600 + np.arange(100)):
            assert cn.ricci_pinch_check(m, p5) >= -1e-10 * max(1.0, np.linalg.norm(m))

    def test_ricci_pinch_eta_zero_members_are_einstein(self):
        rng = substream(33, "einpinch")
        p0 = cn.ConeParams(0.0, 2.0)
        for _ in range(20):
            eigs = np.sort(rng.uniform(0.5, 1.0, 3))
            a = np.diag(eigs)
            m = dc.reassemble(a, np.zeros((3, 3)), a)
            # reassembly rounding leaves |B| ~ 1e-17, so F1 = -(B2+B3)^2 sits
            # a hair below the exact eta = 0 boundary; allow for that
            assert _member_within(m, p0, 1e-12)
            assert cn.ricci_pinch_check(m, p0) == pytest.approx(0.0, abs=1e-10)

    def test_ricci_pinch_preconditions(self):
        # eta >= 9/16, and negative scalar curvature: the bound does not apply
        assert math.isnan(cn.ricci_pinch_check(I6, cn.ConeParams(0.6, 2.0)))
        assert math.isnan(cn.ricci_pinch_check(-I6, cn.ConeParams(0.5, 1.5)))

    def test_uniform_pic(self):
        assert cn.uniform_pic_check(I6, P12) == pytest.approx(7.0, abs=1e-12)
        for p in PARAM_SETS:
            for m in random_member(CFG, p, index=5900 + np.arange(100)):
                assert cn.uniform_pic_check(m, p) >= -1e-10 * max(1.0, np.linalg.norm(m))
        assert math.isnan(cn.uniform_pic_check(np.zeros((6, 6)), P12))

    @pytest.mark.parametrize("c", [1e160, 1e300])
    def test_uniform_pic_past_norm_overflow(self, c):
        for p in PARAM_SETS:
            for m in random_member(CFG, p, index=6100 + np.arange(20)):
                ref = cn.uniform_pic_check(m, p)
                scaled = cn.uniform_pic_check(c * m, p) / c
                assert math.isfinite(scaled)
                assert scaled == pytest.approx(ref, rel=1e-12, abs=1e-12 * np.linalg.norm(m))

    @pytest.mark.parametrize("c", [1e160, 1e300, 1e-170, 1e-300])
    def test_f1_sign_past_product_overflow(self, c):
        # and past its underflow, where F1 is a signed zero
        for face in ("F1", "F2", "F3"):
            for m, m2 in zip(boundary_member(CFG, P12, face, index=6200 + np.arange(10))[0],
                             random_member(CFG, P12, index=6300 + np.arange(10))):
                for op in (m, m2, m - 0.5 * I6):
                    f1 = cn.hat_f(c * op, P12)[0]
                    assert not math.isnan(f1)
                    ref = cn.hat_f(op, P12)[0]
                    if abs(ref) > 1e-12:
                        assert np.signbit(f1) == np.signbit(ref)

    def test_c01(self):
        assert cn.is_c01(3.0 * I6, 1e-8)
        assert not cn.is_c01(-I6, 1e-8)
        assert cn.is_c01(np.zeros((6, 6)), 1e-8)
        pert = dc.reassemble(np.diag([1.0, -1.0, 0.0]), np.zeros((3, 3)), np.zeros((3, 3)))
        assert not cn.is_c01(I6 + 1e-3 * pert, 1e-6)

    def test_tolerances_relative_to_norm_at_every_scale(self):
        cs = 10.0 ** np.arange(-300, 301)[:, None, None]
        assert cn.is_c01(cs * I6, 1e-8).all()
        assert not cn.is_c01(-cs * I6, 1e-8).any()
        assert not cn.is_c01(cs * random_bianchi(CFG, index=7000), 1e-8).any()
        assert not cn.implies_wpic(-cs * I6, P12).any()
        m = random_member(CFG, P12, index=7000)
        upic = cn.uniform_pic_check(cs * m, P12) / cs[:, 0, 0]
        assert np.abs(upic - cn.uniform_pic_check(m, P12)).max() <= 1e-12 * np.linalg.norm(m)
        # scalar curvature -1e-8 |R|: the pinching bound does not apply
        p5 = cn.ConeParams(0.5, 1.5)
        m = random_member(CFG, p5, index=7001)
        m = m - (wg.scalar(m) + 1e-8 * np.linalg.norm(m)) / 12.0 * I6
        assert np.isnan(cn.ricci_pinch_check(cs * m, p5)).all()
        # S^3 x R fails F1 alone, also where its F1 underflows (below |R| ~ 1e-162)
        assert np.isnan(cn.ricci_pinch_check(cs * F1_ONLY[0], p5)).all()
