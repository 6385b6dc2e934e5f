import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvcone import wedge as wg
from curvcone.sampling import SamplerConfig, random_bianchi, substream
from samplers import random_rotation, random_symmetric_tensor

I6 = np.eye(6)
CFG = SamplerConfig(seed=101)


def sym6(rng, scale=1.0):
    g = rng.standard_normal((6, 6)) * scale
    return 0.5 * (g + g.T)


def sym4(rng):
    g = rng.standard_normal((4, 4))
    return 0.5 * (g + g.T)


entries = st.floats(-10.0, 10.0, allow_nan=False)


def test_bracket_closed_formula_examples():
    b = wg.basis_two_form
    np.testing.assert_allclose(wg.lie_bracket(b(0, 1), b(0, 2)), -b(1, 2), atol=0)
    np.testing.assert_allclose(wg.lie_bracket(b(0, 1), b(2, 3)), np.zeros(6), atol=0)


def test_bracket_matches_delta_formula_on_all_basis_pairs():
    # delta_jk (ei^el) - delta_jl (ei^ek) - delta_ik (ej^el) + delta_il (ej^ek)
    for (i, j) in wg.WEDGE_PAIRS:
        for (k, l) in wg.WEDGE_PAIRS:
            expected = np.zeros(6)
            for (d, pair) in (
                (int(j == k), (i, l)), (-int(j == l), (i, k)),
                (-int(i == k), (j, l)), (int(i == l), (j, k)),
            ):
                if d and pair[0] != pair[1]:
                    expected += d * wg.basis_two_form(*pair)
            got = wg.lie_bracket(wg.basis_two_form(i, j), wg.basis_two_form(k, l))
            np.testing.assert_allclose(got, expected, atol=0)


@given(st.lists(entries, min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry(coeffs):
    u = np.array(coeffs)
    assert np.all(wg.lie_bracket(u, u) == 0.0)


def test_form_norm_is_coefficient_norm():
    rng = substream(3, "forms")
    for _ in range(50):
        u = rng.standard_normal(6)
        assert wg.form_inner(u, u) == pytest.approx(float(u @ u), rel=1e-14)


def test_structure_constants_reproduce_bracket():
    c = wg.structure_constants()
    rng = substream(4, "struct")
    for _ in range(100):
        u, v = rng.standard_normal((2, 6))
        via_c = np.einsum("agh,g,h->a", c, u, v)
        np.testing.assert_allclose(via_c, wg.lie_bracket(u, v), atol=1e-12)


def test_structure_constants_single_slot_and_diagonal():
    c = wg.structure_constants()
    g = wg.PAIR_INDEX[(0, 1)]
    h = wg.PAIR_INDEX[(0, 2)]
    col = c[:, g, h]
    assert col[wg.PAIR_INDEX[(1, 2)]] == -1.0
    assert np.count_nonzero(col) == 1
    for a in range(6):
        assert np.all(c[:, a, a] == 0.0)


def test_jacobi_identity_and_ad_invariance():
    rng = substream(5, "jacobi")
    for _ in range(300):
        u, v, z = rng.standard_normal((3, 6))
        scale = max(1.0, np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(z))
        jac = (
            wg.lie_bracket(u, wg.lie_bracket(v, z))
            + wg.lie_bracket(v, wg.lie_bracket(z, u))
            + wg.lie_bracket(z, wg.lie_bracket(u, v))
        )
        assert np.linalg.norm(jac) <= 1e-12 * scale
        p = float(wg.lie_bracket(u, v) @ z)
        assert abs(p + float(wg.lie_bracket(u, z) @ v)) <= 1e-12 * scale
        assert abs(p + float(wg.lie_bracket(v, u) @ z)) <= 1e-12 * scale


def test_sharp_on_identity_is_exact():
    assert np.array_equal(wg.sharp(I6, I6), 2.0 * I6)
    assert np.array_equal(wg.sharp_coord(I6), 2.0 * I6)


def test_sharp_identity_relation():
    for m in random_bianchi(CFG, index=np.arange(100)):
        lhs = wg.sharp(m, I6)
        rhs = 0.5 * wg.kulkarni_nomizu(wg.ricci(m), np.eye(4)) - m
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(1.0, np.linalg.norm(m) ** 2)


def test_sharp_zero_and_commutativity():
    rng = substream(6, "sharp")
    for _ in range(25):
        m, n = sym6(rng), sym6(rng)
        assert np.all(wg.sharp(np.zeros((6, 6)), n) == 0.0)
        assert np.array_equal(wg.sharp(m, n), wg.sharp(n, m))
        out = wg.sharp(m, n)
        assert np.array_equal(out, out.T)


def test_sharp_coord_agrees_with_sharp():
    rng = substream(7, "dual")
    worst = 0.0
    for _ in range(1000):
        m = sym6(rng)
        rel = np.linalg.norm(wg.sharp(m, m) - wg.sharp_coord(m)) / max(1.0, np.linalg.norm(m) ** 2)
        worst = max(worst, rel)
    assert worst <= 1e-12


def test_q_operator_examples():
    np.testing.assert_allclose(wg.q_operator(I6), 3.0 * I6, atol=1e-14)
    for c in (0.5, -2.0, 7.0):
        np.testing.assert_allclose(wg.q_operator(c * I6), 3.0 * c * c * I6, atol=1e-12)
    assert np.all(wg.q_operator(np.zeros((6, 6))) == 0.0)


def test_q_preserves_bianchi():
    for m in random_bianchi(CFG, index=500 + np.arange(200)):
        q = wg.q_operator(m)
        assert wg.bianchi_residual(q) <= 1e-12 * max(1.0, np.linalg.norm(m) ** 2)


def test_kulkarni_nomizu_identity_and_symmetry():
    np.testing.assert_allclose(wg.kulkarni_nomizu(np.eye(4), np.eye(4)), 2.0 * I6, atol=0)
    rng = substream(8, "kn")
    for _ in range(50):
        h, k = sym4(rng), sym4(rng)
        kn = wg.kulkarni_nomizu(h, k)
        np.testing.assert_allclose(kn, wg.kulkarni_nomizu(k, h), atol=1e-13)
        assert wg.bianchi_residual(kn) <= 1e-13 * max(1.0, np.linalg.norm(kn))


def test_kn_norm_identity():
    # |rc0 ^ g|^2 = 2 |rc0|^2 for traceless rc0
    for i in range(100):
        h = random_symmetric_tensor(CFG, index=i, traceless=True)
        kn = wg.kulkarni_nomizu(h, np.eye(4))
        assert np.linalg.norm(kn) ** 2 == pytest.approx(2.0 * np.linalg.norm(h) ** 2, rel=1e-12)


def test_ricci_scalar_examples():
    np.testing.assert_allclose(wg.ricci(I6), 3.0 * np.eye(4), atol=0)
    assert wg.scalar(I6) == 12.0
    assert np.all(wg.traceless_ricci(I6) == 0.0)
    for m in random_bianchi(CFG, index=900 + np.arange(50)):
        assert abs(np.trace(wg.traceless_ricci(m))) <= 1e-12 * max(1.0, np.linalg.norm(m))


def test_ricci_and_scalar_match_the_four_index_contraction():
    # the reference contraction Ric_jl = sum_i R_ijil of the dense tensor,
    # on Bianchi and on non-Bianchi symmetric input
    rng = substream(12, "ricci-ref")
    ops = list(random_bianchi(CFG, index=950 + np.arange(30))) + [sym6(rng) for _ in range(30)]
    for m in ops:
        ref = np.einsum("...ijil->...jl", wg.four_index(m))
        scale = 1e-12 * max(1.0, np.linalg.norm(m))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            assert np.abs(wg.ricci(m) - ref).max() <= scale
        assert abs(wg.scalar(m) - np.trace(ref)) <= scale
        assert wg.scalar(m) == 2.0 * np.trace(m)


def test_ricci_warns_off_bianchi():
    m = np.zeros((6, 6))
    m[0, 5] = m[5, 0] = 1.0  # residual 1, far from the Bianchi plane
    with pytest.warns(UserWarning):
        wg.ricci(m)


def test_bianchi_residual_and_projection():
    assert wg.bianchi_residual(I6) == 0.0
    rng = substream(9, "proj")
    for _ in range(50):
        m = sym6(rng)
        p = wg.project_bianchi(m)
        assert wg.bianchi_residual(p) <= 1e-13 * max(1.0, np.linalg.norm(m))
        np.testing.assert_allclose(wg.project_bianchi(p), p, atol=1e-14)
        # orthogonal projection: difference is normal to the Bianchi plane
        assert np.linalg.norm(m - p) ** 2 == pytest.approx(
            6.0 * ((m[0, 5] - m[1, 4] + m[2, 3]) / 3.0) ** 2, rel=1e-10, abs=1e-13
        )


def test_barrier_q_expansion_bounds():
    rng = substream(10, "barrier")
    for i in range(200):
        m = wg.project_bianchi(0.5 * (lambda g: g + g.T)(rng.uniform(-10, 10, (6, 6))))
        big, small = rng.uniform(-10, 10, 2)
        res = wg.barrier_q_expansion(m, big, small)
        assert res <= 1e-10 * (1.0 + np.linalg.norm(m) ** 2 + small**2)
    assert wg.barrier_q_expansion(random_bianchi(CFG, 3), 1.0, 0.0) <= 1e-12
    m = random_bianchi(CFG, 4)
    assert wg.barrier_q_expansion(m, 0.0, 3.0) <= 1e-12 * (1.0 + np.linalg.norm(m) ** 2)


@given(st.lists(entries, min_size=21, max_size=21))
@settings(max_examples=40, deadline=None)
def test_json_round_trip(vals):
    m = wg.operator_from_upper(vals)
    back = wg.operator_from_json_dict(wg.operator_to_json_dict(m))
    assert np.array_equal(m, back)


@pytest.mark.parametrize(
    "obj",
    [
        {"basis": "wedge4", "upper": [0.0] * 20},
        {"basis": "wedge4", "upper": [0.0] * 22},
        {"basis": "wedge3", "upper": [0.0] * 21},
        {"upper": [0.0] * 21},
        {"basis": "wedge4", "upper": ["x"] * 21},
        [0.0] * 21,
    ],
)
def test_json_rejects_malformed(obj):
    with pytest.raises(ValueError):
        wg.operator_from_json_dict(obj)


def test_rotation_action_is_orthogonal():
    rng = substream(11, "rot")
    for _ in range(20):
        q = random_rotation(rng, 4)
        w = wg.induced_wedge_rotation(q)
        np.testing.assert_allclose(w.T @ w, I6, atol=1e-13)
        # the identity operator is rotation invariant
        np.testing.assert_allclose(wg.rotate_operator(I6, q), I6, atol=1e-13)


@pytest.mark.parametrize("c", [1e155, 1e160, 1e300])
def test_frobenius_past_square_overflow(c):
    rng = np.random.default_rng(44)
    m = sym6(rng)
    assert wg.frobenius(c * m) / c == pytest.approx(wg.frobenius(m), rel=1e-14)
    stack = np.stack([m, c * m, np.zeros((6, 6))])
    np.testing.assert_allclose(wg.frobenius(stack) / [1.0, c, 1.0], [wg.frobenius(m)] * 2 + [0.0], rtol=1e-14)


def test_frobenius_keeps_norm_bits_and_non_finite_input():
    rng = np.random.default_rng(45)
    for _ in range(50):
        m = sym6(rng, scale=10.0 ** rng.uniform(-100, 100))
        assert wg.frobenius(m) == float(np.linalg.norm(m))
    assert wg.frobenius(np.full((6, 6), np.inf)) == np.inf
    assert np.isnan(wg.frobenius(np.full((6, 6), np.nan)))
