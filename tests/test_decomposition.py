import numpy as np
import pytest

from curvcone import decomposition as dc
from curvcone import wedge as wg
from curvcone.sampling import SamplerConfig, random_bianchi, substream
from samplers import random_rotation, random_symmetric_tensor

I6 = np.eye(6)
CFG = SamplerConfig(seed=202)
SQ2 = np.sqrt(2.0)


class TestCanonicalBasis:
    def test_orthonormal_and_star_eigen(self):
        basis = dc.canonical_selfdual_basis()
        p = basis.matrix
        np.testing.assert_allclose(p.T @ p, I6, atol=1e-15)
        star = dc.hodge_star()
        for i in range(3):
            np.testing.assert_allclose(star @ basis.plus[i], basis.plus[i], atol=1e-15)
            np.testing.assert_allclose(star @ basis.minus[i], -basis.minus[i], atol=1e-15)

    def test_cyclic_brackets(self):
        basis = dc.canonical_selfdual_basis()
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            np.testing.assert_allclose(
                wg.lie_bracket(basis.plus[i], basis.plus[j]), SQ2 * basis.plus[k], atol=1e-14
            )
            np.testing.assert_allclose(
                wg.lie_bracket(basis.minus[i], basis.minus[j]), SQ2 * basis.minus[k], atol=1e-14
            )

    def test_cross_brackets_vanish(self):
        basis = dc.canonical_selfdual_basis()
        for i in range(3):
            for j in range(3):
                assert np.all(wg.lie_bracket(basis.plus[i], basis.minus[j]) == 0.0)


class TestHodgeStar:
    def test_definition_and_involution(self):
        star = dc.hodge_star()
        np.testing.assert_allclose(star @ wg.basis_two_form(0, 1), wg.basis_two_form(2, 3), atol=0)
        np.testing.assert_allclose(star @ star, I6, atol=0)
        np.testing.assert_allclose(star, star.T, atol=0)

    def test_star_commutes_with_bracket(self):
        star = dc.hodge_star()
        rng = substream(21, "star")
        for _ in range(100):
            u, v = rng.standard_normal((2, 6))
            left = wg.lie_bracket(u, star @ v)
            mid = star @ wg.lie_bracket(u, v)
            right = wg.lie_bracket(star @ u, v)
            assert np.linalg.norm(left - mid) <= 1e-12 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v))
            assert np.linalg.norm(right - mid) <= 1e-12 * max(1.0, np.linalg.norm(u) * np.linalg.norm(v))

    def test_spectrum(self):
        vals = np.linalg.eigvalsh(dc.hodge_star())
        np.testing.assert_allclose(np.sort(vals), [-1, -1, -1, 1, 1, 1], atol=1e-14)


class TestEigh3:
    def test_against_numpy(self):
        rng = substream(22, "jac")
        for _ in range(500):
            g = rng.standard_normal((3, 3))
            s = 0.5 * (g + g.T)
            vals, vecs = dc.eigh3(s)
            np.testing.assert_allclose(vals, np.linalg.eigvalsh(s), atol=1e-13 * max(1, np.linalg.norm(s)))
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(s @ vecs, vecs @ np.diag(vals), atol=1e-10 * max(1, np.linalg.norm(s)))

    def test_degenerate_spectra(self):
        for s in (np.eye(3), np.zeros((3, 3)), np.diag([2.0, 2.0, -1.0])):
            vals, vecs = dc.eigh3(s)
            np.testing.assert_allclose(np.sort(np.diag(s)), vals, atol=1e-15)
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-14)

    def test_deterministic(self):
        g = substream(23, "det").standard_normal((3, 3))
        s = 0.5 * (g + g.T)
        v1, w1 = dc.eigh3(s)
        v2, w2 = dc.eigh3(s.copy())
        assert np.array_equal(v1, v2) and np.array_equal(w1, w2)

    def test_sign_rule(self):
        g = substream(23, "sign").standard_normal((3, 3))
        _, vecs = dc.eigh3(0.5 * (g + g.T))
        assert np.all(vecs[np.argmax(np.abs(vecs), axis=0), [0, 1, 2]] > 0.0)

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_extreme_scales(self, c):
        rng = substream(25, "jac-scale")
        for _ in range(50):
            g = rng.standard_normal((3, 3))
            s = 0.5 * (g + g.T)
            vals, vecs = dc.eigh3(c * s)
            ref, _ = dc.eigh3(s)
            np.testing.assert_allclose(vals / c, ref, atol=1e-13 * np.linalg.norm(s))
            np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(s @ vecs, vecs @ np.diag(vals / c), atol=1e-10 * np.linalg.norm(s))


class TestSvd3:
    def test_against_numpy(self):
        rng = substream(24, "svd")
        for _ in range(500):
            b = rng.standard_normal((3, 3))
            s, u, v = dc.svd3(b)
            np.testing.assert_allclose(s, np.sort(np.linalg.svd(b, compute_uv=False)), atol=1e-12 * max(1, np.linalg.norm(b)))
            np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-11)
            np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-11)
            np.testing.assert_allclose(u.T @ b @ v, np.diag(s), atol=1e-11 * max(1, np.linalg.norm(b)))
        assert np.all(s >= 0)

    def test_rank_deficient(self):
        b = np.outer([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
        s, u, v = dc.svd3(b)
        assert s[0] == 0.0 and s[1] == 0.0 and s[2] == pytest.approx(np.sqrt(14.0))
        np.testing.assert_allclose(u.T @ b @ v, np.diag(s), atol=1e-13)
        s, u, v = dc.svd3(np.zeros((3, 3)))
        assert np.all(s == 0.0)
        np.testing.assert_allclose(u.T @ u, np.eye(3), atol=0)

    def test_deterministic_with_sign_rule(self):
        b = substream(26, "svd-det").standard_normal((3, 3))
        s1, u1, v1 = dc.svd3(b)
        s2, u2, v2 = dc.svd3(b.copy())
        assert np.array_equal(s1, s2) and np.array_equal(u1, u2) and np.array_equal(v1, v2)
        assert np.all(v1[np.argmax(np.abs(v1), axis=0), [0, 1, 2]] > 0.0)

    @pytest.mark.parametrize("c", [1e-300, 1e300])
    def test_extreme_scales(self, c):
        rng = substream(27, "svd-scale")
        for _ in range(50):
            b = rng.standard_normal((3, 3))
            s, u, v = dc.svd3(c * b)
            ref = np.sort(np.linalg.svd(b, compute_uv=False))
            np.testing.assert_allclose(s / c, ref, atol=1e-12 * np.linalg.norm(b))
            np.testing.assert_allclose(u.T @ u, np.eye(3), atol=1e-11)
            np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-11)
            np.testing.assert_allclose(u.T @ b @ v, np.diag(s / c), atol=1e-11 * np.linalg.norm(b))
            np.testing.assert_allclose(dc.block_spectra(c * dc.reassemble(np.eye(3), b, np.eye(3)))[2] / c,
                                       ref, atol=1e-12 * np.linalg.norm(b))


class TestDecompose:
    def test_identity(self):
        bd = dc.decompose(I6)
        np.testing.assert_allclose(bd.a, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(bd.c, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(bd.b, np.zeros((3, 3)), atol=1e-14)
        np.testing.assert_allclose(bd.eigs_a, [1, 1, 1], atol=1e-14)
        np.testing.assert_allclose(bd.eigs_c, [1, 1, 1], atol=1e-14)
        np.testing.assert_allclose(bd.svals_b, [0, 0, 0], atol=1e-14)

    def test_traceless_kn_is_pure_mixed_block(self):
        h = random_symmetric_tensor(CFG, index=0, traceless=True)
        m = 0.5 * wg.kulkarni_nomizu(h, np.eye(4))
        bd = dc.decompose(m)
        assert np.linalg.norm(bd.a) <= 1e-13
        assert np.linalg.norm(bd.c) <= 1e-13
        assert np.linalg.norm(bd.b) > 0.1

    def test_roundtrip_and_traces(self):
        for m in random_bianchi(CFG, index=np.arange(300)):
            nrm = max(1.0, np.linalg.norm(m))
            bd = dc.decompose(m)
            np.testing.assert_allclose(dc.reassemble(bd.a, bd.b, bd.c), m, atol=1e-12 * nrm)
            assert abs(np.trace(bd.a) - np.trace(bd.c)) <= 1e-12 * nrm
            assert abs(np.trace(bd.a) - wg.scalar(m) / 4.0) <= 1e-12 * nrm

    def test_bianchi_residual_matches_trace_gap(self):
        # the two formulas differ by the fixed factor 1/2
        rng = substream(25, "res")
        for _ in range(100):
            g = rng.standard_normal((6, 6))
            m = 0.5 * (g + g.T)
            bd = dc.decompose(m)
            gap = abs(np.trace(bd.a) - np.trace(bd.c))
            assert wg.bianchi_residual(m) == pytest.approx(0.5 * gap, abs=1e-13 * max(1, gap))

    def test_frames_are_orthonormal_eigenframes(self):
        for m in random_bianchi(CFG, index=400 + np.arange(100)):
            bd = dc.decompose(m)
            for mat, vals, vecs in ((bd.a, bd.eigs_a, bd.vecs_a), (bd.c, bd.eigs_c, bd.vecs_c)):
                np.testing.assert_allclose(vecs.T @ vecs, np.eye(3), atol=1e-12)
                np.testing.assert_allclose(
                    mat @ vecs, vecs @ np.diag(vals), atol=1e-10 * max(1.0, np.linalg.norm(mat))
                )
            np.testing.assert_allclose(
                bd.left_b.T @ bd.b @ bd.right_b, np.diag(bd.svals_b),
                atol=1e-10 * max(1.0, np.linalg.norm(bd.b)),
            )

    def test_rotation_invariance_of_spectra(self):
        rng = substream(26, "rotinv")
        for m in random_bianchi(CFG, index=700 + np.arange(100)):
            q = random_rotation(rng, 4)
            m2 = wg.rotate_operator(m, q)
            for e1, e2 in zip(dc.block_spectra(m), dc.block_spectra(m2)):
                np.testing.assert_allclose(e1, e2, atol=1e-10 * max(1.0, np.linalg.norm(m)))

    def test_block_spectra_matches_decompose(self):
        for m in random_bianchi(CFG, index=800 + np.arange(50)):
            bd = dc.decompose(m)
            ea, ec, sb = dc.block_spectra(m)
            np.testing.assert_allclose(ea, bd.eigs_a, atol=1e-13)
            np.testing.assert_allclose(ec, bd.eigs_c, atol=1e-13)
            np.testing.assert_allclose(sb, bd.svals_b, atol=1e-13)


class TestBlockSharp:
    def test_display_examples(self):
        np.testing.assert_allclose(dc.block_sharp3(np.diag([2.0, 3.0, 5.0])), np.diag([15.0, 10.0, 6.0]), atol=0)
        np.testing.assert_allclose(dc.block_sharp3(np.eye(3)), np.eye(3), atol=0)
        assert np.all(dc.block_sharp3(np.zeros((3, 3))) == 0.0)

    def test_mixed_reduces_to_display_on_symmetric(self):
        rng = substream(27, "blk")
        for _ in range(100):
            g = rng.standard_normal((3, 3))
            s = 0.5 * (g + g.T)
            np.testing.assert_allclose(dc.mixed_sharp3(s), dc.block_sharp3(s), atol=1e-12)
            # the display is the adjugate: S# S = det(S) I
            np.testing.assert_allclose(
                dc.block_sharp3(s) @ s, np.linalg.det(s) * np.eye(3), atol=1e-11
            )

    def test_block_sharp_identity(self):
        assert dc.block_sharp_identity(I6) <= 1e-13
        worst = 0.0
        for m in random_bianchi(CFG, index=1200 + np.arange(300)):
            worst = max(worst, dc.block_sharp_identity(m) / max(1.0, np.linalg.norm(m) ** 2))
        assert worst <= 1e-10

    def test_vanishing_mixed_block_gives_block_diagonal_sharp(self):
        rng = substream(28, "bd")
        eigs = rng.standard_normal(3)
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        c = np.diag(eigs) + (np.trace(a) - eigs.sum()) / 3.0 * np.eye(3)
        m = dc.reassemble(a, np.zeros((3, 3)), c)
        sharp_blocks = dc._blocks_of(wg.sharp_coord(m))
        assert np.linalg.norm(sharp_blocks[1]) <= 1e-12 * max(1.0, np.linalg.norm(m) ** 2)


class TestWeylAndNorms:
    def test_weyl_examples(self):
        assert np.linalg.norm(dc.weyl(I6)) <= 1e-14
        h = random_symmetric_tensor(CFG, index=5, traceless=True)
        m = 0.5 * wg.kulkarni_nomizu(h, np.eye(4))
        assert np.linalg.norm(dc.weyl(m)) <= 1e-12

    def test_weyl_commutes_with_star(self):
        star = dc.hodge_star()
        for m in random_bianchi(CFG, index=1600 + np.arange(300)):
            wy = dc.weyl(m)
            assert np.linalg.norm(star @ wy - wy @ star) <= 1e-12 * max(1.0, np.linalg.norm(m))

    def test_weyl_blocks(self):
        for m in random_bianchi(CFG, index=1900 + np.arange(50)):
            bd = dc.decompose(dc.weyl(m))
            nrm = max(1.0, np.linalg.norm(m))
            assert abs(np.trace(bd.a)) <= 1e-12 * nrm
            assert abs(np.trace(bd.c)) <= 1e-12 * nrm
            assert np.linalg.norm(bd.b) <= 1e-12 * nrm

    def test_norm_identity(self):
        assert dc.norm_identity_check(I6) <= 1e-14
        for m in random_bianchi(CFG, index=2200 + np.arange(300)):
            assert dc.norm_identity_check(m) <= 1e-10 * max(1.0, np.linalg.norm(m))

    def test_einstein_iff_no_mixed_block(self):
        # algebraic direction: all B singular values ~ 0 forces traceless Ricci ~ 0
        rng = substream(29, "einstein")
        a = rng.standard_normal((3, 3))
        a = 0.5 * (a + a.T)
        c = rng.standard_normal((3, 3))
        c = 0.5 * (c + c.T)
        c += (np.trace(a) - np.trace(c)) / 3.0 * np.eye(3)
        m = dc.reassemble(a, np.zeros((3, 3)), c)
        assert np.all(dc.decompose(m).svals_b <= 1e-12)
        assert np.linalg.norm(wg.traceless_ricci(m)) <= 1e-10
