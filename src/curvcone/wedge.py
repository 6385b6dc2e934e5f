"""Algebra of 2-forms on R^4 and curvature operators in the wedge basis.

Conventions, fixed once and used by every other module:

* Ordered orthonormal basis of the 2-forms::

      b0 = e1^e2,  b1 = e1^e3,  b2 = e1^e4,
      b3 = e2^e3,  b4 = e2^e4,  b5 = e3^e4

  orthonormal for the inner product <u, v> = -tr(uv)/2 under the
  identification ei^ej -> E_ij - E_ji with skew matrices.
* A curvature operator is a symmetric 6x6 matrix M in this basis,
  M[a, b] = R(b_a, b_b).  The diagonal entry for ei^ej is the sectional
  curvature of the (i, j) coordinate plane; np.eye(6) is the operator of
  constant sectional curvature 1.
* First Bianchi identity: R_1234 - R_1324 + R_1423 = 0, which reads
  M[0, 5] - M[1, 4] + M[2, 3] = 0 here.

Eigenvalue normalizations downstream (block eigenvalues A_i, C_i, B_i)
inherit this inner product; treatments that normalize <u, v> = -tr(uv)
instead carry an extra factor of 2 in those quantities.

All functions are pure and never mutate their inputs.

The #-product is a sum of 2x2 minors of M, gathered at positions taken
once from the structure constants (:func:`sharp`).

Contractions are closed forms in M: the scalar curvature is 2 tr M (each
coordinate plane's sectional curvature counted as R_ijij and R_jiji), and
the Ricci tensor is one product of M with a constant (6, 6, 4, 4) map built
from the bivector matrices.  The dense (4, 4, 4, 4) tensor of
:func:`four_index` serves only :func:`sharp_coord`, the #-product's
independent route.

Stacks: every kernel takes operators ``(..., 6, 6)``, 2-forms ``(..., 6)``
or 4x4 tensors ``(..., 4, 4)``, and numbers as arrays of the leading shape.  A
single input gives the single-input types (a float for a norm or residual), a
stack gives arrays over the leading axes, and each slice carries the bits of
the single call on it.  Only the JSON serialization takes one operator.

Scale: each function whose products of entries can over- or underflow for
1e-300 <= |R| <= 1e300 runs its fast path first; only where that raises an
over- or underflow flag is the input rescaled by :func:`_unit_scale`, the one
scale rescue.  So results at ordinary scale keep the fast path's bits, and
the rescued arithmetic is exact: :func:`frobenius` of 2^k M is 2^k times
that of M, bit for bit, wherever both are normal doubles.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

#: Index pairs (i, j), i < j, of the ordered wedge basis (0-based).
WEDGE_PAIRS: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
)
PAIR_INDEX: dict[tuple[int, int], int] = {p: a for a, p in enumerate(WEDGE_PAIRS)}

_ROW = np.array([p[0] for p in WEDGE_PAIRS])
_COL = np.array([p[1] for p in WEDGE_PAIRS])
_UPPER = np.triu_indices(6)

# Flat 4x4 positions (i, j) of each ei^ej, and (i, p), (j, q), (i, q), (j, p)
# pairing row ei^ej with column ep^eq; one np.take keeps a stack C-ordered.
_IJ = _ROW * 4 + _COL
_IP = _ROW[:, None] * 4 + _ROW[None, :]
_JQ = _COL[:, None] * 4 + _COL[None, :]
_IQ = _ROW[:, None] * 4 + _COL[None, :]
_JP = _COL[:, None] * 4 + _ROW[None, :]
#: flat positions (ij, pq) of the wedge-basis entries in a 4x4x4x4 tensor
_IJPQ = _IJ[:, None] * 16 + _IJ[None, :]

# Direction spanning the Bianchi-violating line inside symmetric matrices:
# <M, _BIANCHI_DIR>_F = 2 * (M[0,5] - M[1,4] + M[2,3]).
_BIANCHI_DIR = np.zeros((6, 6))
_BIANCHI_DIR[0, 5] = _BIANCHI_DIR[5, 0] = 1.0
_BIANCHI_DIR[1, 4] = _BIANCHI_DIR[4, 1] = -1.0
_BIANCHI_DIR[2, 3] = _BIANCHI_DIR[3, 2] = 1.0

#: skew matrix F_a = E_ij - E_ji of each basis 2-form b_a = ei^ej
_BIVECTORS = np.zeros((6, 4, 4))
_BIVECTORS[np.arange(6), _ROW, _COL] = 1.0
_BIVECTORS[np.arange(6), _COL, _ROW] = -1.0
#: Ric_jl = sum_ab M_ab sum_i F_a[i, j] F_b[i, l]: the (6, 6, 4, 4) map
#: flattened to (36, 16), so that Ric is one matmul
_RICCI_MAP = np.einsum("aij,bil->abjl", _BIVECTORS, _BIVECTORS).reshape(36, 16)


def frobenius(m):
    """Frobenius norm over the last two axes, alike at every scale (see Scale)."""
    m = np.asarray(m, dtype=float)
    flat = m.reshape(*m.shape[:-2], 1, m.shape[-2] * m.shape[-1])
    try:
        with np.errstate(over="raise", under="raise"):
            nrm = np.sqrt(flat @ flat.swapaxes(-1, -2))[..., 0, 0]
    except FloatingPointError:
        flat, e = _unit_scale(flat, (-2, -1))
        nrm = np.ldexp(np.sqrt(flat @ flat.swapaxes(-1, -2)), e)[..., 0, 0]
    return float(nrm) if nrm.ndim == 0 else nrm


def _unit_scale(a, axes):
    """(a * 2**-e, e), e the exponent of the largest |entry| over ``axes``
    (kept as axes of length 1): an exact division."""
    e = np.frexp(np.abs(a).max(axis=axes, keepdims=True))[1]
    return np.ldexp(a, -e), e


def identity_operator() -> np.ndarray:
    """The curvature operator of constant sectional curvature 1."""
    return np.eye(6)


def skew_matrix(u) -> np.ndarray:
    """4x4 skew matrices of 2-forms under ei^ej -> E_ij - E_ji."""
    u = np.asarray(u, dtype=float)
    m = np.zeros(u.shape[:-1] + (4, 4))
    m[..., _ROW, _COL] = u
    m[..., _COL, _ROW] = -u
    return m


def _take(a, flat, axes: int = 2) -> np.ndarray:
    # entries of the trailing ``axes`` axes of a at the given flat positions
    a = np.asarray(a, dtype=float)
    cut = a.ndim - axes
    return np.take(a.reshape(a.shape[:cut] + (math.prod(a.shape[cut:]),)), flat, axis=-1)


def two_form_of_skew(m) -> np.ndarray:
    """Inverse of :func:`skew_matrix`."""
    return _take(m, _IJ)


def wedge_coefficients(v, w) -> np.ndarray:
    """Coefficient vector of v^w for v, w in R^4; batched over leading axes."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    return v[..., _ROW] * w[..., _COL] - v[..., _COL] * w[..., _ROW]


def lie_bracket(u, v) -> np.ndarray:
    """Lie bracket [u, v] on 2-forms, via the skew-matrix commutator.

    Independent of :func:`structure_constants`, which is built from the
    Kronecker-delta closed formula; the two routes are cross-checked in
    the test suite.
    """
    a = skew_matrix(u)
    b = skew_matrix(v)
    return two_form_of_skew(a @ b - b @ a)


def _eye2(i: int, j: int, p: int, q: int) -> int:
    # I^{ij}_{pq} = d_ip d_jq - d_iq d_jp
    return (1 if (i == p and j == q) else 0) - (1 if (i == q and j == p) else 0)


#: C[a, g, h], built from the closed formula of :func:`structure_constants`
_STRUCT = np.array([[[(j == k) * _eye2(i, l, p, q) - (j == l) * _eye2(i, k, p, q)
                      - (i == k) * _eye2(j, l, p, q) + (i == l) * _eye2(j, k, p, q)
                      for k, l in WEDGE_PAIRS] for i, j in WEDGE_PAIRS] for p, q in WEDGE_PAIRS],
                   dtype=float)


def structure_constants() -> np.ndarray:
    """C[a, g, h] with [b_g, b_h] = sum_a C[a, g, h] b_a.

    Built at import from the closed formula
    C^{(ij)(kl)}_{(pq)} = d_jk I^{il}_{pq} - d_jl I^{ik}_{pq}
                          - d_ik I^{jl}_{pq} + d_il I^{jk}_{pq}.
    Antisymmetric in (g, h); fully antisymmetric as a 3-tensor because the
    basis is orthonormal and the inner product is ad-invariant.
    """
    return _STRUCT


def _minor_positions() -> np.ndarray:
    # Each b_a is the bracket of exactly two unordered pairs of basis forms,
    # with C = +-1; (g_p, h_p), p = 0, 1, orients pair p so that C[a, g, h] = +1.
    _, g, h = np.nonzero(_STRUCT > 0.0)
    g, h = g.reshape(6, 2), h.reshape(6, 2)
    # pair combinations (p, q) in the order 00, 11, 01, 10; rows a take pair p,
    # columns b pair q
    p, q = [0, 1, 0, 1], [0, 1, 1, 0]
    ga, ha = g[:, p].T[:, :, None], h[:, p].T[:, :, None]
    gb, hb = g[:, q].T[:, None, :], h[:, q].T[:, None, :]
    # flat positions of the minor entries (g d, h t, g t, h d): (4, 4, 36)
    return np.stack([6 * ga + gb, 6 * ha + hb, 6 * ga + hb, 6 * ha + gb]).reshape(4, 4, 36)


_MINOR = _minor_positions()


def sharp(m, n) -> np.ndarray:
    """Hamilton #-product (M#N)_ab = C_a^{gh} C_b^{dt} M_gd N_ht / 2.

    Defined for all symmetric bilinear forms on the 2-forms; the first
    Bianchi identity is not required.  C[a] is nonzero on two pairs of basis
    forms only, so (M#M)_ab is the sum of four 2x2 minors
    M_gd M_ht - M_gt M_hd, one for each pair (g, h) of b_a and (d, t) of b_b,
    oriented so that C = +1.  M#N is the polarized minor
    ((M_gd N_ht - M_gt N_hd) + (N_gd M_ht - N_gt M_hd)) / 2, so it is
    commutative in (M, N) bit for bit.  The minors are gathered from the
    structure constants at import, independently of :func:`sharp_coord` and
    of the block #-products.  Like a contraction, it warns of no overflow or
    invalid value: non-finite entries give non-finite output silently.
    """
    ma = np.asarray(m, dtype=float)
    na = np.asarray(n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        if ma is na or np.array_equal(ma, na):
            lead = ma.shape[:-2]
            gd, ht, gt, hd = _minors(ma, lead)
            x = gd * ht - gt * hd
        else:
            lead = np.broadcast_shapes(ma.shape[:-2], na.shape[:-2])
            gd, ht, gt, hd = _minors(ma, lead)
            ngd, nht, ngt, nhd = _minors(na, lead)
            x = 0.5 * ((gd * nht - gt * nhd) + (ngd * ht - ngt * hd))
        # (00 + 11) + (01 + 10) is symmetric under a <-> b, as the minors are
        out = ((x[0] + x[1]) + (x[2] + x[3])).T.reshape(lead + (6, 6))
        return 0.5 * (out + out.swapaxes(-1, -2))


def _minors(a, lead) -> np.ndarray:
    # the minor entries (4, 4, 36, k) of the k operators of a, gathered along
    # the transposed (36, k) stack so that each entry is a contiguous row;
    # k = 1 for one operator against a stack of the broadcast shape ``lead``
    if a.shape[:-2] != lead and a.size > 36:
        a = np.broadcast_to(a, lead + (6, 6))
    return np.take(a.reshape(-1, 36).T, _MINOR, axis=0)


def four_index(m) -> np.ndarray:
    """(..., 4, 4, 4, 4) component tensors R_ijkl of wedge-basis operators."""
    return np.einsum("...ab,aij,bkl->...ijkl", np.asarray(m, dtype=float), _BIVECTORS, _BIVECTORS)


def from_four_index(t) -> np.ndarray:
    """6x6 wedge-basis matrices from (..., 4, 4, 4, 4) component tensors."""
    return _take(t, _IJPQ, axes=4)


def sharp_coord(m) -> np.ndarray:
    """R#R through the 4-index contraction R_ipkw R_jplw - R_jpkw R_iplw.

    Deliberately independent of :func:`sharp`; acceptance checks require the
    two routes to agree to 1e-12 relative.
    """
    t = four_index(m)
    s = np.einsum("...ipkw,...jplw->...ijkl", t, t)
    s = s - s.swapaxes(-4, -3)
    out = from_four_index(s)
    return 0.5 * (out + out.swapaxes(-1, -2))


def q_operator(m) -> np.ndarray:
    """Reaction term Q(R) = R^2 + R#R of the curvature evolution equation."""
    m = np.asarray(m, dtype=float)
    sq = m @ m
    sq = 0.5 * (sq + sq.swapaxes(-1, -2))
    # inf - inf arises only where m @ m has overflowed or met a non-finite
    # entry, which the product has already reported
    with np.errstate(invalid="ignore"):
        return sq + sharp(m, m)


def kulkarni_nomizu(h, k) -> np.ndarray:
    """Kulkarni-Nomizu product of two symmetric 2-tensors, as an operator.

    (h^k)_ijkl = h_ik k_jl + h_jl k_ik - h_il k_jk - h_jk k_il; the output
    always satisfies the first Bianchi identity, and kulkarni_nomizu(id, id)
    equals twice the identity operator.
    """
    out = (
        _take(h, _IP) * _take(k, _JQ)
        + _take(h, _JQ) * _take(k, _IP)
        - _take(h, _IQ) * _take(k, _JP)
        - _take(h, _JP) * _take(k, _IQ)
    )
    return 0.5 * (out + out.swapaxes(-1, -2))


def bianchi_residual(m):
    """|R_1234 - R_1324 + R_1423|; zero iff M is a curvature operator."""
    m = np.asarray(m, dtype=float)
    r = np.abs(m[..., 0, 5] - m[..., 1, 4] + m[..., 2, 3])
    return float(r) if r.ndim == 0 else r


def project_bianchi(m) -> np.ndarray:
    """Orthogonal projection onto the Bianchi hyperplane.

    Subtracts the component along the one violating direction; symmetric
    input is returned otherwise unchanged.  Constructors accept raw data,
    so this step is explicit rather than silent.
    """
    m = np.asarray(m, dtype=float)
    coef = np.sum(m * _BIANCHI_DIR, axis=(-2, -1)) / 6.0
    return m - coef[..., None, None] * _BIANCHI_DIR


def ricci(m) -> np.ndarray:
    """Ricci contraction Ric_jl = sum_i R_ijil of wedge-basis operators.

    The contraction convention is tied to R_ijij = sectional curvature;
    on a non-Bianchi input the result is convention-dependent, hence the
    warning.
    """
    m = np.asarray(m, dtype=float)
    if np.any(bianchi_residual(m) > 1e-8 * np.fmax(1.0, frobenius(m))):
        warnings.warn(
            "operator violates the first Bianchi identity; "
            "Ricci contraction is convention-dependent",
            stacklevel=2,
        )
    # a (1, 36) row per operator, so that each slice takes the same matmul
    r = (m.reshape(*m.shape[:-2], 1, 36) @ _RICCI_MAP).reshape(*m.shape[:-2], 4, 4)
    return 0.5 * (r + r.swapaxes(-1, -2))


def scalar(m):
    """Scalar curvature tr Ric = 2 tr M; equals 12 on the identity operator."""
    s = 2.0 * np.trace(np.asarray(m, dtype=float), axis1=-2, axis2=-1)
    return float(s) if s.ndim == 0 else s


def traceless_ricci(m) -> np.ndarray:
    """Ric - (tr Ric / 4) g, the (..., 4, 4) traceless part of :func:`ricci`."""
    r = ricci(m)
    return r - (np.trace(r, axis1=-2, axis2=-1) / 4.0)[..., None, None] * np.eye(4)


def barrier_q_expansion(m, big_phi, small_phi):
    """Residual of Q(F*R + f*I) = F^2 Q(R) + f*F Ric^id + 3 f^2 I.

    Returns the Frobenius norm of the difference; for Bianchi input this is
    pure rounding noise, bounded by 1e-10 * (1 + |R|^2 + f^2).  F and f are
    numbers, or arrays of the stack's leading shape.
    """
    m = np.asarray(m, dtype=float)
    big = np.asarray(big_phi, dtype=float)[..., None, None]
    small = np.asarray(small_phi, dtype=float)[..., None, None]
    lam = big * m + small * np.eye(6)
    # squares by pow, as Python's x**2 takes them: x * x differs in the last
    # bit on about one input in a thousand
    rhs = (
        np.float_power(big, 2) * q_operator(m)
        + small * big * kulkarni_nomizu(ricci(m), np.eye(4))
        + 3.0 * np.float_power(small, 2) * np.eye(6)
    )
    return frobenius(q_operator(lam) - rhs)


def induced_wedge_rotation(q) -> np.ndarray:
    """6x6 action on 2-forms induced by rotations q of R^4."""
    return _take(q, _IP) * _take(q, _JQ) - _take(q, _IQ) * _take(q, _JP)


def rotate_operator(m, q) -> np.ndarray:
    """Pull back operators by rotations q of R^4."""
    w = induced_wedge_rotation(q)
    out = w.swapaxes(-1, -2) @ np.asarray(m, dtype=float) @ w
    return 0.5 * (out + out.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# serialization: {"basis": "wedge4", "upper": [21 numbers]}
# ---------------------------------------------------------------------------

def upper_triangle(m) -> np.ndarray:
    """The 21 upper-triangle entries, row-major: (0,0),(0,1),...,(5,5); (..., 21) for a stack."""
    return np.asarray(m, dtype=float)[(..., *_UPPER)]


def operator_from_upper(vals) -> np.ndarray:
    vals = np.asarray(vals, dtype=float)
    if vals.shape != (21,):
        raise ValueError(f"expected 21 upper-triangle entries, got {vals.size}")
    m = np.zeros((6, 6))
    m[_UPPER] = vals
    return m + m.T - np.diag(np.diag(m))


def operator_to_json_dict(m) -> dict:
    return {"basis": "wedge4", "upper": [float(x) for x in upper_triangle(m)]}


def operator_from_json_dict(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValueError("operator record must be a JSON object")
    if obj.get("basis") != "wedge4":
        raise ValueError('operator record must carry "basis": "wedge4"')
    upper = obj.get("upper")
    if not isinstance(upper, (list, tuple)) or len(upper) != 21:
        n = len(upper) if isinstance(upper, (list, tuple)) else "no"
        raise ValueError(f'"upper" must hold exactly 21 numbers, got {n}')
    try:
        vals = [float(x) for x in upper]
    except (TypeError, ValueError) as exc:
        raise ValueError(f'"upper" must hold exactly 21 numbers: {exc}') from exc
    if not np.all(np.isfinite(vals)):
        raise ValueError('"upper" must hold finite numbers (no NaN or infinity)')
    return operator_from_upper(vals)
