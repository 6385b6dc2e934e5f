"""The invariant curvature cone, its functionals, and implied conditions.

An operator with block spectra A_1<=A_2<=A_3, C_1<=C_2<=C_3 and singular
values 0<=B_1<=B_2<=B_3 belongs to the cone with parameters (eta, mu),
mu - 1 >= eta >= 0 and mu > 1, iff

    (B_2+B_3)^2 <= eta (A_1+A_2)(C_1+C_2),
    A_2+A_3 <= mu (A_1+A_2),
    C_2+C_3 <= mu (C_1+C_2).

Equivalently F1, F2, F3 >= 0 where the F's are infima over the frame set
Theta of eta*X*Y - Z^2, mu*X - W and mu*Y - V.  F2 and F3 always equal their
closed forms mu(A_1+A_2)-(A_2+A_3) and mu(C_1+C_2)-(C_2+C_3); the closed
form eta(A_1+A_2)(C_1+C_2)-(B_2+B_3)^2 for F1 is the true infimum exactly
when A_1+A_2 >= 0 and C_1+C_2 >= 0, which F2, F3 >= 0 guarantees -- so
membership tests F2, F3 first and only then F1.  Membership is closed:
boundary points count as inside.

The lower-bound functional l(R) is the least alpha >= 0 with R + alpha*I in
the cone.  Shifting by the identity moves every block eigenvalue by alpha
and leaves B alone, so after a single decomposition each closed form is a
linear (F2, F3) or quadratic (F1) function of alpha, and l is the largest
of their explicit roots.

Stacks: every function takes operators of shape ``(..., 6, 6)`` except
:func:`shifted_membership` and :func:`is_c01`.  A
single 6x6 operator gives the single-operator types (floats, bools, a tuple,
a report of floats); a stack gives arrays over the leading axes in the same
places, each entry with the bits of the single call on that slice.  Where a
condition does not apply to an operator its entry is NaN, not an exception.
The spectra-based functions also take ``blocks=``: a :class:`BlockData` or
the triple :func:`block_spectra` returns, so that one decomposition serves
several of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (
    BlockData,
    block_spectra,
    canonical_selfdual_basis,
    decompose,
    hodge_star,
)
from .wedge import frobenius, q_operator, ricci, scalar

_FACES = ("F1", "F2", "F3")
#: homogeneity degree of each face functional in the operator
FACE_DEGREE = {"F1": 2, "F2": 1, "F3": 1}


def _scalar_or_array(v, kind=float):
    # a Python scalar for the result of one operator, an array for a stack
    v = np.asarray(v)
    return kind(v) if v.ndim == 0 else v


def _spectra(m, blocks=None):
    # (eigs_a, eigs_c, svals_b) from a BlockData, a block_spectra triple, or m,
    # eigenvalue axis first: e[k] is a number for one operator (cheaper than 0-d)
    if blocks is None:
        blocks = block_spectra(m)
    elif isinstance(blocks, BlockData):
        blocks = (blocks.eigs_a, blocks.eigs_c, blocks.svals_b)
    return [e.T if e.ndim <= 2 else np.moveaxis(e, -1, 0) for e in blocks]


@dataclass(frozen=True)
class ConeParams:
    """Cone parameters (eta, mu) with the two derived constants.

    c_eta = 1 + 2/eta dominates both branch constants in the proof of the
    linear bound l <= c_eta |R| for eta <= 1 (and up to eta = 4); it is
    infinite at eta = 0, where no finite identity-shift can repair a
    nonzero mixed block.  lambda_pic = max(mu, sqrt(eta mu), mu^2) is the
    uniform-isotropic-curvature pinching constant.
    """

    eta: float
    mu: float
    c_eta: float = field(init=False)
    lambda_pic: float = field(init=False)

    def __post_init__(self):
        if not (self.mu - 1.0 >= self.eta >= 0.0 and self.mu > 1.0):
            raise ValueError(
                "cone parameters must satisfy mu - 1 >= eta >= 0 and mu > 1 "
                f"(got eta={self.eta}, mu={self.mu})"
            )
        object.__setattr__(
            self, "c_eta", 1.0 + 2.0 / self.eta if self.eta > 0.0 else math.inf
        )
        object.__setattr__(
            self,
            "lambda_pic",
            max(self.mu, math.sqrt(self.eta * self.mu), self.mu * self.mu),
        )


@dataclass(frozen=True, eq=False)
class FrameOctet:
    """Eight 2-forms: four orthonormal pairs, the first two pairs self-dual.

    Rows of ``xi`` are wedge-coefficient vectors (xi_1..xi_4 self-dual,
    xi_5..xi_8 anti-self-dual); the only constraints are unit length and
    orthogonality within each consecutive pair.
    """

    xi: np.ndarray  # (8, 6), or (..., 8, 6) for the frames of a stack

    def validate(self, tol: float = 1e-10) -> None:
        """Raise ValueError unless every octet of ``xi`` (..., 8, 6) meets
        the constraints to ``tol``; the message names the first failing
        vector or pair, in the order unit length, duality, orthogonality."""
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape[-2:] != (8, 6):
            raise ValueError(f"frame octet must be (..., 8, 6), got {xi.shape}")
        sign = np.repeat([1.0, -1.0], 4)[:, None]
        # NaN compares false and so passes, as in a scalar comparison
        unit = (np.abs(np.einsum("...ij,...ij->...i", xi, xi) - 1.0) > tol).reshape(-1, 8).any(axis=0)
        dual = (np.linalg.norm(xi @ hodge_star().T - sign * xi, axis=-1) > tol).reshape(-1, 8).any(axis=0)
        orth = (np.abs(np.einsum("...ij,...ij->...i", xi[..., 0::2, :], xi[..., 1::2, :])) > tol
                ).reshape(-1, 4).any(axis=0)
        for i in range(8):
            if unit[i]:
                raise ValueError(f"frame vector {i + 1} is not unit length")
            if dual[i]:
                kind = "self-dual" if i < 4 else "anti-self-dual"
                raise ValueError(f"frame vector {i + 1} is not {kind}")
        if orth.any():
            k = int(np.argmax(orth))
            raise ValueError(f"frame pair ({2 * k + 1}, {2 * k + 2}) is not orthogonal")


@dataclass(frozen=True)
class ConeFunctionals:
    """The five frame functionals of a bilinear form at a frame octet."""

    x: float
    y: float
    z: float
    w: float
    v: float


def frame_functionals(m, octet: FrameOctet, validate: bool = True) -> ConeFunctionals:
    """X, Y, Z, W, V of a symmetric form at an octet.

    X pairs (xi_1, xi_2), W pairs (xi_3, xi_4), Y pairs (xi_5, xi_6),
    V pairs (xi_7, xi_8), and Z = R(xi_7, xi_3) + R(xi_8, xi_4).  The
    octets of a stack (from :func:`extremal_frame` on it) are validated
    together; ``validate=False`` skips the check for frames known to be
    octets.
    """
    if validate:
        octet.validate(1e-10)
    m = np.asarray(m, dtype=float)
    xi = octet.xi
    mx = xi @ m @ xi.swapaxes(-1, -2)
    return ConeFunctionals(
        x=_scalar_or_array(mx[..., 0, 0] + mx[..., 1, 1]),
        y=_scalar_or_array(mx[..., 4, 4] + mx[..., 5, 5]),
        z=_scalar_or_array(mx[..., 6, 2] + mx[..., 7, 3]),
        w=_scalar_or_array(mx[..., 2, 2] + mx[..., 3, 3]),
        v=_scalar_or_array(mx[..., 6, 6] + mx[..., 7, 7]),
    )


def hat_f(m, params: ConeParams, blocks=None):
    """(F1, F2, F3) closed forms from the block spectra.

    The F1 value is the true frame infimum only where F2, F3 >= 0; callers
    that need a membership decision should use :func:`is_member`, which
    orders the tests accordingly.  Past |R| ~ 1e154 the products in F1
    overflow; only where that leaves F1 non-finite for finite spectra is it
    recomputed from the sums divided by their largest magnitude, which gives
    its sign, and its value wherever that fits in a double.
    """
    x, y, z, w, v = _sums(*_spectra(m, blocks))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f1 = params.eta * x * y - z * z
        if not np.isfinite(f1).all():
            redo = ~np.isfinite(f1) & np.isfinite(x) & np.isfinite(y) & np.isfinite(z)
            s = np.maximum(np.maximum(np.abs(x), np.abs(y)), z)
            xs, ys, zs = x / s, y / s, z / s
            f1 = np.where(redo, (params.eta * xs * ys - zs * zs) * s * s, f1)
    f2 = params.mu * x - w
    f3 = params.mu * y - v
    return _scalar_or_array(f1), _scalar_or_array(f2), _scalar_or_array(f3)


# The private helpers below work on spectra; the public functions calling
# them silence overflow warnings, since past |R| ~ 1e154 a product may
# overflow to inf on its way to a correct comparison.

def _sums(ea, ec, sb):
    # x = A_1+A_2, y = C_1+C_2, z = B_2+B_3, w = A_2+A_3, v = C_2+C_3
    return ea[0] + ea[1], ec[0] + ec[1], sb[1] + sb[2], ea[1] + ea[2], ec[1] + ec[2]


def _member_from_sums(sums, params: ConeParams, tol_abs: float = 0.0):
    x, y, z, w, v = sums
    faces = ~((params.mu * x - w < -tol_abs) | (params.mu * y - v < -tol_abs))
    # F1 as (z - s)(z + s) <= tol_abs with s = sqrt(eta x y), which forms no
    # square and so cannot overflow to inf - inf
    s = math.sqrt(params.eta) * np.sqrt(np.maximum(x, 0.0)) * np.sqrt(np.maximum(y, 0.0))
    return faces & ((z <= s) | ((z - s) * (z + s) <= tol_abs))


def is_member(m, params: ConeParams, tol_abs: float = 0.0, blocks=None):
    """Closed-cone membership; boundary points (F = 0) count as inside.

    ``tol_abs`` slackens all three inequalities additively; the default 0
    gives exact-boundary semantics.  At eta = 0, F1 reads -(B_2+B_3)^2 >= 0,
    so the mixed-block test is exact: an operator whose mixed block is zero
    only up to rounding (a rotated multiple of I) is not a member.
    """
    spectra = _spectra(m, blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        return _scalar_or_array(_member_from_sums(_sums(*spectra), params, tol_abs), bool)


def shifted_membership(m, alpha0: float, params: ConeParams) -> bool:
    """Membership of R + alpha0 * I, for a nonnegative shift alpha0."""
    if alpha0 < 0:
        raise ValueError("shift alpha0 must be nonnegative")
    return is_member(np.asarray(m, dtype=float) + alpha0 * np.eye(6), params)


def extremal_frame(m, target: str, blocks=None) -> FrameOctet:
    """Frame octet at which the named closed form is attained.

    F2: (xi_1, xi_2) are A-eigenvectors for A_1, A_2 and (xi_3, xi_4) for
    A_2, A_3 (so X = A_1+A_2, W = A_2+A_3); F3 mirrors with C.  F1 uses the
    A_1, A_2 and C_1, C_2 eigenvectors for X and Y, and the singular pairs
    of B for B_3, B_2 as (xi_3, xi_7), (xi_4, xi_8), with signs making
    Z = B_2 + B_3.
    """
    if target not in _FACES:
        raise ValueError(f"target must be one of {_FACES}, got {target!r}")
    bd = decompose(m) if blocks is None else blocks
    basis = canonical_selfdual_basis()

    def sd(frame, k):
        return (frame[..., None, :, k] @ basis.plus)[..., 0, :]

    def asd(frame, k):
        return (frame[..., None, :, k] @ basis.minus)[..., 0, :]

    va, vc = bd.vecs_a, bd.vecs_c
    if target == "F1":
        rows = [
            sd(va, 0), sd(va, 1),
            sd(bd.left_b, 2), sd(bd.left_b, 1),
            asd(vc, 0), asd(vc, 1),
            asd(bd.right_b, 2), asd(bd.right_b, 1),
        ]
    else:
        # one frame attains both eigenvalue-sum closed forms (F2 and F3)
        rows = [
            sd(va, 0), sd(va, 1),
            sd(va, 1), sd(va, 2),
            asd(vc, 0), asd(vc, 1),
            asd(vc, 1), asd(vc, 2),
        ]
    return FrameOctet(np.stack(rows, axis=-2))


#: operators whose octets :func:`sampled_inf` draws and holds at once
_INF_CHUNK = 16


def sampled_inf(m, params: ConeParams, n: int, seed):
    """Monte-Carlo estimates of the three frame infima over n random octets.

    A brute-force oracle for the closed forms: each estimate dominates the
    corresponding closed form (where that closed form is the true infimum)
    and converges toward it as n grows.  Deterministic given (seed, n), and
    estimates are nested: growing n only lowers them.  ``seed`` broadcasts
    against the stack's leading shape, as in :func:`two_nonneg_flag`: each
    seed entry's octets are drawn once, from its own substream, and serve
    every operator that meets that entry (one integer gives every operator
    the same octets).  The stack is evaluated a fixed number of operators at
    a time, so its memory does not grow with its size.
    """
    if n < 1:
        raise ValueError("need at least one sample frame")
    m = np.asarray(m, dtype=float)
    seeds = np.asarray(seed)
    lead = np.broadcast_shapes(m.shape[:-2], seeds.shape)
    # stack k of ms holds the operators that meet the seed entries in turn
    # (for one integer seed, every operator)
    own = lead[len(lead) - seeds.ndim:] if seeds.ndim else lead
    seeds = np.broadcast_to(seeds, own).ravel() if seeds.ndim else seeds
    ms = np.broadcast_to(m, lead + (6, 6)).reshape(math.prod(lead[:len(lead) - len(own)]), math.prod(own), 6, 6)
    mins = _sampled_minima(ms, [params] * len(ms), n, seeds)
    return tuple(_scalar_or_array(f) for f in np.moveaxis(mins, 1, 0).reshape((3,) + lead))


def _inf_octets(seeds: np.ndarray, n: int) -> np.ndarray:
    # the n octets (..., n, 4, 2, 3) of each entry of ``seeds``, as its own
    # substream gives them
    from .sampling import orthonormal_pair_batch, substream

    rngs = [substream(s, "sampled-inf") for s in seeds.ravel().tolist()]
    return orthonormal_pair_batch(rngs, n, 4).reshape(seeds.shape + (n, 4, 2, 3))


def _sampled_minima(ms: np.ndarray, params, n: int, seeds: np.ndarray) -> np.ndarray:
    # (len(params), 3, N) sampled minima of F1, F2, F3 for the stacks ms
    # (len(params), N, 6, 6), stack k under params[k]; operator j of every
    # stack meets the n octets of seeds[j] ((N,) seeds), or all meet those of
    # one integer seed.  Each seed's octets are drawn once per chunk of
    # _INF_CHUNK operators and serve every parameter set
    shared = _inf_octets(seeds, n) if seeds.ndim == 0 else None
    mins = np.empty((len(params), 3, ms.shape[1]))
    for k in range(0, ms.shape[1], _INF_CHUNK):
        part = slice(k, k + _INF_CHUNK)
        pairs = _inf_octets(seeds[part], n) if shared is None else shared
        for out, m, p in zip(mins, ms, params):
            out[:, part] = _octet_minima(m[part], p, pairs)
    return mins


def _octet_minima(m, params: ConeParams, pairs) -> np.ndarray:
    # (3, ...) minima of F1, F2, F3 over the octets ``pairs`` (..., n, 4, 2, 3)
    bd = decompose(m)
    # the octets' vectors as contiguous (3, ..., n) component arrays
    p1, p2, q1, q2, r1, r2, s1, s2 = np.ascontiguousarray(
        np.moveaxis(pairs, (-3, -2, -1), (0, 1, 2)).reshape((8, 3) + pairs.shape[:-3]))

    def form(u, mat, v):
        # u^T mat v for each of the n frames: the nine terms (u_i mat_ij) v_j
        # added to 0 in the order np.einsum("...ni,...ij,...nj->...n") adds
        # them
        acc = 0.0
        for i in range(3):
            for j in range(3):
                acc = acc + (u[i] * mat[..., i, j, None]) * v[j]
        return acc

    x = form(p1, bd.a, p1) + form(p2, bd.a, p2)
    w = form(q1, bd.a, q1) + form(q2, bd.a, q2)
    y = form(r1, bd.c, r1) + form(r2, bd.c, r2)
    v = form(s1, bd.c, s1) + form(s2, bd.c, s2)
    z = form(q1, bd.b, s1) + form(q2, bd.b, s2)
    f1 = params.eta * x * y - z * z
    f2 = params.mu * x - w
    f3 = params.mu * y - v
    return np.stack([f.min(axis=-1) for f in (f1, f2, f3)])


# ---------------------------------------------------------------------------
# lower-bound functional l
# ---------------------------------------------------------------------------

def _face_roots(sums, params: ConeParams):
    # identity shifts (alpha_1, alpha_2, alpha_3) past which F1, F2, F3 hold;
    # at eta = 0, F1 is -z^2 >= 0, so alpha_1 is inf for a nonzero mixed block
    # and -inf (never binding) for a zero one: the test is_member makes
    x, y, z, w, v = sums
    mu = params.mu
    a2 = (w - mu * x) / (2.0 * (mu - 1.0))
    a3 = (v - mu * y) / (2.0 * (mu - 1.0))
    if params.eta > 0.0:
        a1 = (np.hypot(x - y, 2.0 * z / math.sqrt(params.eta)) - (x + y)) / 4.0
    else:
        a1 = np.where(z > 0.0, math.inf, -math.inf)
    return a1, a2, a3


def lower_bound_l(m, params: ConeParams, tol: float | None = None, blocks=None):
    """Least alpha >= 0 with R + alpha*I in the cone, in closed form.

    Zero exactly on members, else the largest root of the shifted faces (see
    module docstring); with x = A_1+A_2, y = C_1+C_2, z = B_2+B_3 the F1
    root, past which both factors of eta x y stay nonnegative, is
    (hypot(x-y, 2z/sqrt(eta)) - (x+y))/4.  At eta = 0, F1 is -z^2 >= 0 and
    the mixed-block test is exact: any nonzero B, even one of rounding size
    (a rotated multiple of I has B_3 ~ 1e-15), makes l infinite, as it makes
    :func:`is_member` false.
    ``tol`` is accepted and ignored; it stays only because the benchmark's
    workload script (perfbench/workloads.py) still passes it.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _scalar_or_array(_l(_spectra(m, blocks), params))


def _l(spectra, params: ConeParams) -> np.ndarray:
    # the stacked body of lower_bound_l, on spectra as _spectra gives them;
    # the benchmark's tracer tags each lower_bound_l call with float(result),
    # so stacks take this private route, and callers silence overflow
    sums = _sums(*spectra)
    a1, a2, a3 = _face_roots(sums, params)
    # the largest root (fmax skips NaN), kept only where it is positive:
    # a positive maximum has one bit pattern, whatever the order
    lv = np.fmax(np.fmax(a2, a3), a1)
    return np.where(~_member_from_sums(sums, params) & (lv > 0.0), lv, 0.0)


def l_face(m, params: ConeParams, blocks=None):
    """The face whose root sets l: "F1", "F2" or "F3", or None on members.

    Ties go to the first face in that order.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sums = _sums(*_spectra(m, blocks))
        roots = np.stack(_face_roots(sums, params), axis=-1)
        member = _member_from_sums(sums, params)
    faces = np.where(member, None, np.array(_FACES, dtype=object)[np.argmax(roots, axis=-1)])
    return faces.item() if faces.ndim == 0 else faces


# ---------------------------------------------------------------------------
# boundary (null-vector) verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NullVectorReport:
    face: str
    slack: float
    precondition_ok: bool
    message: str
    fhat: tuple[float, float, float]


def _boundary_messages(f, norms, which: str) -> list[str]:
    # why each operator with closed forms f (a triple of arrays) and norm
    # (array) is not a member on the face ``which``, or "" when it is; the
    # tests are array expressions, and only the rows they flag build text
    fs = np.stack(np.broadcast_arrays(*f), axis=-1).reshape(-1, 3)
    # 1e-8 max(1, |R|^deg), the power by pow as Python's x**deg takes it
    # (inf where that overflows); fmax(1, x) is Python's max(1.0, x)
    with np.errstate(over="ignore"):
        tols = 1e-8 * np.fmax(1.0, np.float_power(np.reshape(norms, (-1, 1)), [FACE_DEGREE[f_] for f_ in _FACES]))
    named = _FACES.index(which)
    negative = fs < -tols
    off = np.abs(fs[:, named]) > tols[:, named]
    msgs = [""] * len(fs)
    for k in np.flatnonzero(negative.any(axis=-1) | off).tolist():
        parts = [f"{face} = {fs[k, j]:.3e} < 0: not a cone member" for j, face in enumerate(_FACES) if negative[k, j]]
        if off[k]:
            parts.append(f"{which} = {fs[k, named]:.3e} is not on the boundary (tol {tols[k, named]:.1e})")
        msgs[k] = "; ".join(parts)
    return msgs


def null_vector_verify(m, params: ConeParams, which: str, blocks=None, q=None) -> NullVectorReport:
    """Slack of the reaction-term inequality at a boundary operator.

    For an operator on the F1 face (eta X Y = Z^2) the quantity
    eta Y X^Q + eta X Y^Q - 2 Z Z^Q, evaluated with Q = Q(R) at the
    extremal frame of R, is nonnegative; on the F2 (resp. F3) face the
    quantity is mu X^Q - W^Q (resp. mu Y^Q - V^Q).  Precondition failures
    are reported in the result, not raised.  ``blocks`` (from
    :func:`decompose`) and ``q`` (Q(R)) are used when given.  For a stack,
    ``slack``, ``precondition_ok`` and ``message`` are arrays.
    """
    if which not in _FACES:
        raise ValueError(f"which must be one of {_FACES}, got {which!r}")
    m = np.asarray(m, dtype=float)
    bd = decompose(m) if blocks is None else blocks
    f = hat_f(m, params, blocks=bd)
    msgs = _boundary_messages(f, frobenius(m), which)
    octet = extremal_frame(m, which, blocks=bd)
    fr = frame_functionals(m, octet, validate=False)
    fq = frame_functionals(q_operator(m) if q is None else q, octet, validate=False)
    if which == "F1":
        slack = params.eta * (fr.y * fq.x + fr.x * fq.y) - 2.0 * fr.z * fq.z
    elif which == "F2":
        slack = params.mu * fq.x - fq.w
    else:
        slack = params.mu * fq.y - fq.v
    if m.ndim == 2:
        return NullVectorReport(which, float(slack), not msgs[0], msgs[0], f)
    message = np.array(msgs, dtype=object).reshape(m.shape[:-2])
    return NullVectorReport(which, slack, message == "", message, f)


def hamilton_intermediate_slack(m, blocks=None, q=None):
    """Slack of X^Q >= A_1^2 + A_2^2 + 2(A_1+A_2)A_3 + 2B_1^2.

    X^Q is evaluated at a frame whose first pair consists of the A_1, A_2
    eigenvectors; the bound holds for every Bianchi operator there.
    ``blocks`` (from :func:`decompose`) and ``q`` (Q(R)) are used when given.
    """
    bd = decompose(m) if blocks is None else blocks
    octet = extremal_frame(m, "F2", blocks=bd)
    xq = frame_functionals(q_operator(m) if q is None else q, octet, validate=False).x
    a1, a2, a3 = bd.eigs_a[..., 0], bd.eigs_a[..., 1], bd.eigs_a[..., 2]
    b1 = bd.svals_b[..., 0]
    return _scalar_or_array(xq - (a1 * a1 + a2 * a2 + 2.0 * (a1 + a2) * a3 + 2.0 * b1 * b1))


# ---------------------------------------------------------------------------
# implied curvature conditions
# ---------------------------------------------------------------------------

def implies_wpic(m, params: ConeParams, blocks=None):
    """Weak positive-isotropic-curvature shadow: A_1+A_2, C_1+C_2 >= -tol.

    Always true for cone members (F2, F3 >= 0 force both sums nonnegative
    since mu > 1); computed directly so non-members get an honest answer.
    """
    del params  # the test itself is parameter-free; members always pass
    ea, ec, _ = _spectra(m, blocks)
    tol = 1e-10 * np.maximum(1.0, frobenius(m))
    return _scalar_or_array((ea[0] + ea[1] >= -tol) & (ec[0] + ec[1] >= -tol), bool)


def two_nonneg_flag(m, n_frames: int, seed, blocks=None):
    """(sampled minimum, certificate) for two-nonnegative flag curvature.

    Samples R_1313 + R_2323 over random orthonormal 3-frames and returns the
    minimum together with the closed-form lower bound
    (A_1+A_2+C_1+C_2-2B_2-2B_3)/2, which is nonnegative for members with
    eta <= 1.  ``seed`` is an integer array that broadcasts against the
    stack's leading shape: each seed entry's frames are drawn once, from its
    own substream, and serve every operator that meets that entry.  So one
    seed per operator gives each operator its own frames, one integer gives
    every operator the same frames, and (n,) seeds against a (k, n, 6, 6)
    stack give operator j of every slice the frames of seed j, with the bits
    of k separate calls.
    """
    if n_frames < 1:
        raise ValueError("need at least one sample frame")
    from .sampling import _three_frames, substream
    from .wedge import wedge_coefficients

    m = np.asarray(m, dtype=float)
    seeds = np.asarray(seed)
    g = np.empty(seeds.shape + (n_frames, 4, 3))
    for s, out in zip(seeds.ravel().tolist(), g.reshape(-1, n_frames, 4, 3)):
        substream(s, "flag3").standard_normal(out=out)
    frames = _three_frames(g)  # rows
    w13 = wedge_coefficients(frames[..., 0, :], frames[..., 2, :])
    w23 = wedge_coefficients(frames[..., 1, :], frames[..., 2, :])
    vals = np.einsum("...na,...ab,...nb->...n", w13, m, w13) + np.einsum(
        "...na,...ab,...nb->...n", w23, m, w23
    )
    return _scalar_or_array(vals.min(axis=-1)), _scalar_or_array(_flag2_certificate(m, blocks))


def _flag2_certificate(m, blocks=None):
    # two_nonneg_flag's closed-form lower bound (A_1+A_2+C_1+C_2-2B_2-2B_3)/2
    ea, ec, sb = _spectra(m, blocks)
    return 0.5 * (ea[0] + ea[1] + ec[0] + ec[1] - 2.0 * (sb[1] + sb[2]))


def ricci_pinch_check(m, params: ConeParams, blocks=None):
    """Slack of Ric >= (1 - 4 sqrt(eta)/3) (scal/4) g, for eta < 9/16.

    Requires nonnegative scalar curvature and the first cone inequality;
    NaN where a requirement fails, and everywhere when eta >= 9/16.
    """
    if not params.eta < 9.0 / 16.0:
        return _scalar_or_array(np.full(np.shape(m)[:-2], math.nan))
    m = np.asarray(m, dtype=float)
    nrm = frobenius(m)
    sc = scalar(m)
    ea, ec, sb = _spectra(m, blocks)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = (sc >= -1e-10 * np.maximum(1.0, nrm)) & ~(
            np.float_power(sb[1] + sb[2], 2) > params.eta * (ea[0] + ea[1]) * (ec[0] + ec[1])
            + 1e-10 * np.maximum(1.0, nrm * nrm)
        )
    lam_min = np.full(m.shape[:-2], math.nan)
    lam_min[ok] = np.linalg.eigvalsh(ricci(m[ok]))[..., 0]
    const = 1.0 - (4.0 / 3.0) * math.sqrt(params.eta)
    return _scalar_or_array(lam_min - const * sc / 4.0)


def uniform_pic_check(m, params: ConeParams, blocks=None):
    """Slack of max(A_3, B_3, C_3) <= lambda_pic * min(A_1+A_2, C_1+C_2).

    Nonzero members have max(A_3, B_3, C_3) > 0; NaN on a (numerically) zero
    operator, where the strict positivity clause is empty.
    """
    ea, ec, sb = _spectra(m, blocks)
    mx = np.maximum(np.maximum(ea[2], ec[2]), sb[2])
    slack = params.lambda_pic * np.minimum(ea[0] + ea[1], ec[0] + ec[1]) - mx
    return _scalar_or_array(np.where(mx <= 1e-12 * np.maximum(1.0, frobenius(m)), math.nan, slack))


def is_c01(m, tol: float) -> bool:
    """Whether R is a nonnegative multiple of the identity, to tolerance.

    The intersection of all the cones over mu > 1 at eta = 0 is exactly
    {k * I : k >= 0}.
    """
    m = np.asarray(m, dtype=float)
    k = float(np.trace(m)) / 6.0
    return bool(
        frobenius(m - k * np.eye(6)) <= tol * frobenius(m)
        and float(np.trace(m)) >= -tol
    )
