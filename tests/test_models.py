"""Exact answers on named geometries: the eight model operators and the
warped-product slice dr^2 + f(r)^2 g_{S^3}.

Each model is built from its block spectra by ``decomposition.reassemble``
(B with nonnegative determinant; with B = -I/2, S^3 x R's Q(R) is not 2R).
Its Bianchi residual, Q(R) = lambda R, membership, l and the face of l are
checked against closed forms on the model, on 20 rotated copies and on
10^k copies for k = -300..300 in steps of 50 (l scales by 10^k).
"""

import math

import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import wedge as wg
from samplers import random_rotation

PARAMS = ((0.5, 1.5), (1.0, 2.0), (0.1, 1.1), (2.0, 3.0))
#: the faces whose roots tie, so that rounding picks the face of l
ANY_FACE = {"F1", "F2", "F3"}

#: name -> (diag A, diag B, diag C) in the canonical self-dual basis; lambda
#: with Q(R) = lambda R (None where Q(R) is no multiple of R); then, each a
#: function of (eta, mu): the admissible memberships, l, and the admissible
#: faces of l (None on members).  Two answers are admissible where rounding
#: decides: on a face of the cone, or where face roots tie (F2 and F3 tie
#: wherever A and C have equal spectra)
MODELS = {
    "S4": ((1, 1, 1), (0, 0, 0), (1, 1, 1), 3.0,
           lambda e, m: {True}, lambda e, m: 0.0, lambda e, m: {None}),
    "H4": ((-1, -1, -1), (0, 0, 0), (-1, -1, -1), -3.0,
           lambda e, m: {False}, lambda e, m: 1.0, lambda e, m: ANY_FACE),
    # on the F1 face at eta = 1
    "S3xR": ((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (0.5, 0.5, 0.5), 2.0,
             lambda e, m: {True, False} if e == 1.0 else {e > 1.0},
             lambda e, m: max(0.0, (1.0 / math.sqrt(e) - 1.0) / 2.0),
             lambda e, m: {None, "F1"} if e == 1.0 else ({"F1"} if e < 1.0 else {None})),
    "S2xS2": ((0, 0, 1), (0, 0, 0), (0, 0, 1), 1.0,
              lambda e, m: {False}, lambda e, m: 1.0 / (2.0 * (m - 1.0)), lambda e, m: {"F2", "F3"}),
    # F2's (and F3's) root is the larger where sqrt(eta) > mu - 1, F1's where it is smaller
    "S2xR2": ((0, 0, 0.5), (0, 0, 0.5), (0, 0, 0.5), 1.0,
              lambda e, m: {False}, lambda e, m: max(1.0 / (4.0 * (m - 1.0)), 1.0 / (4.0 * math.sqrt(e))),
              lambda e, m: {"F2", "F3"} if math.sqrt(e) > m - 1.0 else ({"F1"} if math.sqrt(e) < m - 1.0 else ANY_FACE)),
    "S2xH2": ((0, 0, 0), (0, 0, 1), (0, 0, 0), None,
              lambda e, m: {False}, lambda e, m: 1.0 / (2.0 * math.sqrt(e)), lambda e, m: {"F1"}),
    "CP2": ((0, 0, 6), (0, 0, 0), (2, 2, 2), 6.0,
            lambda e, m: {False}, lambda e, m: 3.0 / (m - 1.0), lambda e, m: {"F2"}),
    "reversed CP2": ((2, 2, 2), (0, 0, 0), (0, 0, 6), 6.0,
                     lambda e, m: {False}, lambda e, m: 3.0 / (m - 1.0), lambda e, m: {"F3"}),
}

_RNG = np.random.default_rng(17)
ROTATIONS = np.array([random_rotation(_RNG, 4) for _ in range(20)])
DECADES = 10.0 ** np.arange(-300, 301, 50)


def _model(name):
    a, b, c = (np.diag(np.asarray(d, dtype=float)) for d in MODELS[name][:3])
    return dc.reassemble(a, b, c)


def _copies(m):
    """m, its rotated copies and its 10^k copies, with the scale of each."""
    stack = np.concatenate([m[None], wg.rotate_operator(m, ROTATIONS), DECADES[:, None, None] * m])
    return stack, np.concatenate([np.ones(1 + len(ROTATIONS)), DECADES])


@pytest.mark.parametrize("name", MODELS)
def test_model_bianchi_and_q(name):
    stack, _ = _copies(_model(name))
    assert np.all(wg.bianchi_residual(stack) <= 1e-15 * wg.frobenius(stack))
    # Q on the unscaled copies only: |R|^2 leaves the doubles at 10^(+-300)
    unscaled = stack[:1 + len(ROTATIONS)]
    q, norm2 = wg.q_operator(unscaled), wg.frobenius(unscaled) ** 2
    lam = MODELS[name][3]
    if lam is None:
        # the best multiple of R leaves half of |R|^2 or more
        best = np.sum(q * unscaled, axis=(-2, -1)) / norm2
        assert np.all(wg.frobenius(q - best[:, None, None] * unscaled) >= 0.5 * norm2)
    else:
        assert np.all(wg.frobenius(q - lam * unscaled) <= 1e-14 * norm2)


@pytest.mark.parametrize("eta_mu", PARAMS)
@pytest.mark.parametrize("name", MODELS)
def test_model_cone_answers(name, eta_mu):
    params = cn.ConeParams(*eta_mu)
    members, l_exact, faces = (f(*eta_mu) for f in MODELS[name][4:])
    stack, scale = _copies(_model(name))
    lv = cn.lower_bound_l(stack, params)
    assert np.all(np.abs(lv - scale * l_exact) <= 1e-13 * scale * max(l_exact, 1.0))
    assert set(cn.is_member(stack, params).tolist()) <= members
    assert set(cn.l_face(stack, params).tolist()) <= faces


def _slice(kr, kt):
    """diag(K_r, K_r, K_r, K_t, K_t, K_t): the radial planes e1^e2, e1^e3,
    e1^e4 first, then the tangential ones."""
    kr, kt = np.broadcast_arrays(np.asarray(kr, dtype=float), np.asarray(kt, dtype=float))
    m = np.zeros(kr.shape + (6, 6))
    i = np.arange(3)
    m[..., i, i] = kr[..., None]
    m[..., i + 3, i + 3] = kt[..., None]
    return m


class TestWarpedSlice:
    """K_r = -f''/f on the radial planes, K_t = (1 - f'^2)/f^2 on the
    tangential ones; with s = K_r + K_t the cone is the sector
    |K_r - K_t| <= sqrt(eta) s, whatever mu."""

    DRAWS = np.random.default_rng(21).standard_normal((2, 5000))

    @pytest.mark.parametrize("eta_mu", PARAMS)
    def test_membership_and_l(self, eta_mu):
        params = cn.ConeParams(*eta_mu)
        kr, kt = self.DRAWS
        m, s, d, root = _slice(kr, kt), kr + kt, np.abs(kr - kt), math.sqrt(eta_mu[0])
        member = cn.is_member(m, params)
        assert np.array_equal(member, (s >= 0.0) & (d <= root * s))
        # the draws fall on both sides
        assert 0 < member.sum() < len(kr)
        lv = cn.lower_bound_l(m, params)
        l_exact = np.maximum(0.0, (d / root - s) / 2.0)
        assert np.all(np.abs(lv - l_exact) <= 1e-14 * (np.abs(kr) + np.abs(kt)) / root)

    def test_q_stays_on_the_slice(self):
        kr, kt = self.DRAWS
        q = wg.q_operator(_slice(kr, kt))
        q_exact = _slice(kr * kr + 2.0 * kr * kt, kr * kr + 2.0 * kt * kt)
        assert np.all(wg.frobenius(q - q_exact) <= 1e-14 * (kr * kr + kt * kt))

    @pytest.mark.parametrize("eta_mu", PARAMS)
    def test_f1_null_vector_slack_at_the_boundary(self, eta_mu):
        # |K_r - K_t| = sqrt(eta) s, with K_r above K_t or below it
        params = cn.ConeParams(*eta_mu)
        rng = np.random.default_rng(22)
        s = rng.uniform(0.1, 3.0, 200)
        d = math.sqrt(eta_mu[0]) * s * np.where(rng.random(200) < 0.5, 1.0, -1.0)
        kr, kt = (s + d) / 2.0, (s - d) / 2.0
        rep = cn.null_vector_verify(_slice(kr, kt), params, "F1")
        assert rep.precondition_ok.all()
        assert np.all(np.abs(rep.slack - 4.0 * eta_mu[0] * s * kr * kr) <= 1e-13 * s ** 3)
