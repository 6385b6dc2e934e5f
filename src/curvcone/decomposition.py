"""Self-dual / anti-self-dual splitting and block data of 4D operators.

The Hodge star on 2-forms of R^4 has eigenvalues +-1 with 3-dimensional
eigenspaces.  In a basis adapted to that splitting every curvature operator
takes the block form

    [ A   B  ]
    [ B^T C  ]

with A, C symmetric 3x3 and B general 3x3.  This module fixes one canonical
adapted basis, extracts blocks and their spectral data, and implements the
block-level #-products together with the identities tying them back to the
full 6x6 picture (sharp block identity, Weyl extraction, |traceless Ricci|
= 2 |B|).

The blocks are P^T M P for the canonical basis matrix P = S / sqrt(2),
taken as (S^T / 2) M S: S has entries 0 and +-1, so the products are exact,
and a multiple of the identity has a mixed block of exactly zero.

Spectral data comes from LAPACK (``eigh``/``eigvalsh`` for A and C, ``svd``
for B), which scales its input internally and so stays accurate for |R|
anywhere from 1e-300 to 1e300.  One sign rule -- the largest-magnitude
component of each frame column is positive -- makes the frames
deterministic, so repeated runs are bit-identical.

Stacks: :func:`decompose`, :func:`block_spectra`, :func:`reassemble`,
:func:`eigh3` and :func:`svd3` take operators of shape ``(..., 6, 6)`` (blocks
``(..., 3, 3)``) and return the same structure with the leading axes in
front of every array.  A stack of n operators gives, slice for slice, the
bits of n single calls: LAPACK and the matrix products run per 6x6 (or 3x3)
slice, and everything else is elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .wedge import (
    frobenius,
    kulkarni_nomizu,
    scalar,
    sharp_coord,
    traceless_ricci,
)

_SQ2 = 1.0 / math.sqrt(2.0)

_HODGE_STAR = np.zeros((6, 6))
_HODGE_STAR[0, 5] = _HODGE_STAR[5, 0] = 1.0
_HODGE_STAR[1, 4] = _HODGE_STAR[4, 1] = -1.0
_HODGE_STAR[2, 3] = _HODGE_STAR[3, 2] = 1.0

_LEVI = np.zeros((3, 3, 3))
for _i, _j, _k, _s in (
    (0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
    (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0),
):
    _LEVI[_i, _j, _k] = _s


def hodge_star() -> np.ndarray:
    """Hodge star as a symmetric 6x6 involution on wedge coefficients."""
    return _HODGE_STAR.copy()


@dataclass(frozen=True, eq=False)
class SelfDualBasis:
    """Orthonormal bases of the +-1 eigenspaces of the Hodge star.

    Rows of ``plus``/``minus`` are wedge-coefficient vectors.  Both triples
    satisfy the cyclic bracket relations [phi_1, phi_2] = sqrt(2) phi_3 within
    their factor and all cross brackets vanish.
    """

    plus: np.ndarray   # (3, 6)
    minus: np.ndarray  # (3, 6)

    @property
    def matrix(self) -> np.ndarray:
        """Orthogonal 6x6 change of basis; columns are phi+_1..3, phi-_1..3."""
        return np.vstack([self.plus, self.minus]).T


# Built from w1 = e3^e1, w2 = e2^e3, w3 = e1^e2 (ordered so the bracket
# triple is cyclic with the +sqrt(2) sign) via phi+-_i = (w_i +- *w_i)/sqrt2.
_PLUS_SIGNS = np.array([[0, -1, 0, 0, 1, 0], [0, 0, 1, 1, 0, 0], [1, 0, 0, 0, 0, 1]], dtype=float)
_MINUS_SIGNS = np.array([[0, -1, 0, 0, -1, 0], [0, 0, -1, 1, 0, 0], [1, 0, 0, 0, 0, -1]], dtype=float)
_CANONICAL = SelfDualBasis(plus=_PLUS_SIGNS * _SQ2, minus=_MINUS_SIGNS * _SQ2)


#: the canonical change of basis (columns phi+_1..3, phi-_1..3), built once
_P = _CANONICAL.matrix
_P.flags.writeable = False
#: the signs S = sqrt(2) P, in which the blocks are taken (module docstring)
_S = np.vstack([_PLUS_SIGNS, _MINUS_SIGNS]).T
_HALF_ST = 0.5 * _S.T


def canonical_selfdual_basis() -> SelfDualBasis:
    return _CANONICAL


# ---------------------------------------------------------------------------
# 3x3 spectral frames (LAPACK) with one deterministic sign rule
# ---------------------------------------------------------------------------

def _column_signs(v: np.ndarray) -> np.ndarray:
    # +-1 per column of each (..., 3, 3) frame, shaped to multiply it, making
    # the column's largest-magnitude component positive (first index wins ties)
    cols = v.swapaxes(-1, -2).reshape(-1, 3)
    pivots = cols[np.arange(len(cols)), np.abs(cols).argmax(axis=-1)]
    return np.where(pivots < 0.0, -1.0, 1.0).reshape(v.shape[:-2] + (1, 3))


def eigh3(m):
    """Eigenvalues (ascending) and eigenvector columns of symmetric (..., 3, 3)."""
    w, v = np.linalg.eigh(m)
    return w, v * _column_signs(v)


def svd3(b):
    """Singular values (ascending) and frames with u_i^T B v_i = s_i.

    The sign rule fixes each right vector; its left partner flips with it.
    """
    u, s, vt = np.linalg.svd(b)
    right = vt[..., ::-1, :].swapaxes(-1, -2)
    sign = _column_signs(right)
    return s[..., ::-1], u[..., ::-1] * sign, right * sign


# ---------------------------------------------------------------------------
# block extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BlockData:
    """Blocks and spectral data of an operator in the canonical SD basis.

    ``vecs_a``/``vecs_c`` hold eigenvector columns (coordinates in the
    phi+ / phi- triples), matched to ``eigs_a``/``eigs_c``; ``left_b`` /
    ``right_b`` are singular frames with left^T B right = diag(svals_b).
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    eigs_a: np.ndarray
    eigs_c: np.ndarray
    svals_b: np.ndarray
    vecs_a: np.ndarray
    vecs_c: np.ndarray
    left_b: np.ndarray
    right_b: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "A": [float(x) for x in self.a.ravel()],
            "B": [float(x) for x in self.b.ravel()],
            "C": [float(x) for x in self.c.ravel()],
            "eigsA": [float(x) for x in self.eigs_a],
            "eigsC": [float(x) for x in self.eigs_c],
            "svalsB": [float(x) for x in self.svals_b],
        }


def _blocks_of(m: np.ndarray):
    blk = _HALF_ST @ np.asarray(m, dtype=float) @ _S
    a = blk[..., :3, :3]
    c = blk[..., 3:, 3:]
    a = 0.5 * (a + a.swapaxes(-1, -2))
    c = 0.5 * (c + c.swapaxes(-1, -2))
    b = 0.5 * (blk[..., :3, 3:] + blk[..., 3:, :3].swapaxes(-1, -2))
    return a, b, c


def decompose(m) -> BlockData:
    """Block decomposition with sorted spectra and spectral frames."""
    a, b, c = _blocks_of(m)
    eigs_a, vecs_a = eigh3(a)
    eigs_c, vecs_c = eigh3(c)
    svals, left, right = svd3(b)
    return BlockData(a, b, c, eigs_a, eigs_c, svals, vecs_a, vecs_c, left, right)


def block_spectra(m):
    """(eigs_a, eigs_c, svals_b), each ascending; cheaper than decompose."""
    a, b, c = _blocks_of(m)
    svals = np.linalg.svd(b, compute_uv=False)[..., ::-1]
    return np.linalg.eigvalsh(a), np.linalg.eigvalsh(c), svals


def reassemble(a, b, c) -> np.ndarray:
    """Wedge-basis operator with the given blocks in the canonical SD basis."""
    b = np.asarray(b, dtype=float)
    blk = np.block([
        [np.asarray(a, dtype=float), b],
        [b.swapaxes(-1, -2), np.asarray(c, dtype=float)],
    ])
    m = _P @ blk @ _P.T
    return 0.5 * (m + m.swapaxes(-1, -2))


# ---------------------------------------------------------------------------
# block #-products and identities
# ---------------------------------------------------------------------------

def block_sharp3(s) -> np.ndarray:
    """3D #-product of a symmetric 3x3 matrix, by the cofactor-type display.

    For rows (a,b,c; b,e,f; c,f,k) the result is
    (ek-f^2, cf-bk, bf-ce; cf-bk, ak-c^2, bc-af; bf-ce, bc-af, ae-b^2).
    """
    a, b, c = float(s[0][0]), float(s[0][1]), float(s[0][2])
    e, f = float(s[1][1]), float(s[1][2])
    k = float(s[2][2])
    return np.array(
        [
            [e * k - f * f, c * f - b * k, b * f - c * e],
            [c * f - b * k, a * k - c * c, b * c - a * f],
            [b * f - c * e, b * c - a * f, a * e - b * b],
        ]
    )


def mixed_sharp3(b) -> np.ndarray:
    """#-square of the mixed block via structure constants of the SD triples.

    (B#)_ab = eps_agh eps_bdt B_gd B_ht / 2, where eps is exactly the
    bracket coefficient array of either eigenspace triple divided by
    sqrt(2).  Applies to non-symmetric input; reduces to
    :func:`block_sharp3` on symmetric input.
    """
    b = np.asarray(b, dtype=float)
    return 0.5 * np.einsum("agh,bdt,gd,ht->ab", _LEVI, _LEVI, b, b)


def block_sharp_identity(m) -> float:
    """Residual of R#R = 2 * (A#, B#; (B#)^T, C#) in the SD basis.

    The left side comes from the 4-index coordinate route, the right side
    from the 3x3 block products; contract <= 1e-10 * |R|^2 for Bianchi input.
    """
    bd = decompose(m)
    lhs = _P.T @ sharp_coord(m) @ _P
    bsharp = mixed_sharp3(bd.b)
    rhs = 2.0 * np.block(
        [
            [block_sharp3(bd.a), bsharp],
            [bsharp.T, block_sharp3(bd.c)],
        ]
    )
    return frobenius(lhs - rhs)


def weyl(m) -> np.ndarray:
    """Weyl part: R minus its scalar and traceless-Ricci pieces.

    Commutes with the Hodge star and has trace-free diagonal blocks with a
    vanishing mixed block.
    """
    m = np.asarray(m, dtype=float)
    sc = scalar(m)
    return m - (sc / 12.0) * np.eye(6) - 0.5 * kulkarni_nomizu(traceless_ricci(m), np.eye(4))


def norm_identity_check(m) -> float:
    """| |traceless Ricci| - 2 |B| |; <= 1e-10 * |R| for Bianchi input."""
    _, b, _ = _blocks_of(np.asarray(m, dtype=float))
    return abs(frobenius(traceless_ricci(m)) - 2.0 * frobenius(b))
