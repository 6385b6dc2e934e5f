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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (
    block_spectra,
    canonical_selfdual_basis,
    decompose,
    hodge_star,
)
from .wedge import frobenius, q_operator, ricci, scalar

_FACES = ("F1", "F2", "F3")
#: homogeneity degree of each face functional in the operator
FACE_DEGREE = {"F1": 2, "F2": 1, "F3": 1}


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

    xi: np.ndarray  # (8, 6)

    def validate(self, tol: float = 1e-10) -> None:
        xi = np.asarray(self.xi, dtype=float)
        if xi.shape != (8, 6):
            raise ValueError(f"frame octet must be (8, 6), got {xi.shape}")
        star = hodge_star()
        for i in range(8):
            if abs(float(xi[i] @ xi[i]) - 1.0) > tol:
                raise ValueError(f"frame vector {i + 1} is not unit length")
            sign = 1.0 if i < 4 else -1.0
            if float(np.linalg.norm(star @ xi[i] - sign * xi[i])) > tol:
                kind = "self-dual" if i < 4 else "anti-self-dual"
                raise ValueError(f"frame vector {i + 1} is not {kind}")
        for i in range(0, 8, 2):
            if abs(float(xi[i] @ xi[i + 1])) > tol:
                raise ValueError(f"frame pair ({i + 1}, {i + 2}) is not orthogonal")


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
    V pairs (xi_7, xi_8), and Z = R(xi_7, xi_3) + R(xi_8, xi_4).
    """
    if validate:
        octet.validate(1e-10)
    m = np.asarray(m, dtype=float)
    xi = octet.xi
    mx = xi @ m @ xi.T
    return ConeFunctionals(
        x=float(mx[0, 0] + mx[1, 1]),
        y=float(mx[4, 4] + mx[5, 5]),
        z=float(mx[6, 2] + mx[7, 3]),
        w=float(mx[2, 2] + mx[3, 3]),
        v=float(mx[6, 6] + mx[7, 7]),
    )


def hat_f(m, params: ConeParams, blocks=None):
    """(F1, F2, F3) closed forms from the block spectra.

    The F1 value is the true frame infimum only where F2, F3 >= 0; callers
    that need a membership decision should use :func:`is_member`, which
    orders the tests accordingly.
    """
    if blocks is not None:
        ea, ec, sb = blocks.eigs_a, blocks.eigs_c, blocks.svals_b
    else:
        ea, ec, sb = block_spectra(m)
    f1 = params.eta * (ea[0] + ea[1]) * (ec[0] + ec[1]) - (sb[1] + sb[2]) ** 2
    f2 = params.mu * (ea[0] + ea[1]) - (ea[1] + ea[2])
    f3 = params.mu * (ec[0] + ec[1]) - (ec[1] + ec[2])
    return float(f1), float(f2), float(f3)


def _member_from_spectra(ea, ec, sb, params: ConeParams, tol_abs: float = 0.0) -> bool:
    x, y, z = ea[0] + ea[1], ec[0] + ec[1], sb[1] + sb[2]
    if params.mu * x - (ea[1] + ea[2]) < -tol_abs or params.mu * y - (ec[1] + ec[2]) < -tol_abs:
        return False
    # F1 as (z - s)(z + s) <= tol_abs with s = sqrt(eta x y), which forms no
    # square and so cannot overflow to inf - inf
    s = math.sqrt(params.eta) * math.sqrt(max(x, 0.0)) * math.sqrt(max(y, 0.0))
    return bool(z <= s or (z - s) * (z + s) <= tol_abs)


def is_member(m, params: ConeParams, tol_abs: float = 0.0, blocks=None) -> bool:
    """Closed-cone membership; boundary points (F = 0) count as inside.

    ``tol_abs`` slackens all three inequalities additively; the default 0
    gives exact-boundary semantics.
    """
    if blocks is not None:
        return _member_from_spectra(blocks.eigs_a, blocks.eigs_c, blocks.svals_b, params, tol_abs)
    return _member_from_spectra(*block_spectra(m), params, tol_abs)


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

    def sd(vec3):
        return vec3 @ basis.plus

    def asd(vec3):
        return vec3 @ basis.minus

    va, vc = bd.vecs_a, bd.vecs_c
    if target == "F1":
        rows = [
            sd(va[:, 0]), sd(va[:, 1]),
            sd(bd.left_b[:, 2]), sd(bd.left_b[:, 1]),
            asd(vc[:, 0]), asd(vc[:, 1]),
            asd(bd.right_b[:, 2]), asd(bd.right_b[:, 1]),
        ]
    else:
        # one frame attains both eigenvalue-sum closed forms (F2 and F3)
        rows = [
            sd(va[:, 0]), sd(va[:, 1]),
            sd(va[:, 1]), sd(va[:, 2]),
            asd(vc[:, 0]), asd(vc[:, 1]),
            asd(vc[:, 1]), asd(vc[:, 2]),
        ]
    return FrameOctet(np.array(rows))


def sampled_inf(m, params: ConeParams, n: int, seed: int):
    """Monte-Carlo estimates of the three frame infima over n random octets.

    A brute-force oracle for the closed forms: each estimate dominates the
    corresponding closed form (where that closed form is the true infimum)
    and converges toward it as n grows.  Deterministic given (seed, n), and
    estimates are nested: growing n only lowers them.
    """
    if n < 1:
        raise ValueError("need at least one sample frame")
    from .sampling import orthonormal_pair_batch, substream

    bd = decompose(m)
    rng = substream(seed, "sampled-inf")
    pairs = orthonormal_pair_batch(rng, n, 4)  # (n, 4, 2, 3)
    p1, p2 = pairs[:, 0, 0], pairs[:, 0, 1]
    q1, q2 = pairs[:, 1, 0], pairs[:, 1, 1]
    r1, r2 = pairs[:, 2, 0], pairs[:, 2, 1]
    s1, s2 = pairs[:, 3, 0], pairs[:, 3, 1]

    def quad(mat, u):
        return np.einsum("ni,ij,nj->n", u, mat, u)

    x = quad(bd.a, p1) + quad(bd.a, p2)
    w = quad(bd.a, q1) + quad(bd.a, q2)
    y = quad(bd.c, r1) + quad(bd.c, r2)
    v = quad(bd.c, s1) + quad(bd.c, s2)
    z = np.einsum("ni,ij,nj->n", q1, bd.b, s1) + np.einsum("ni,ij,nj->n", q2, bd.b, s2)
    f1 = params.eta * x * y - z * z
    f2 = params.mu * x - w
    f3 = params.mu * y - v
    return float(f1.min()), float(f2.min()), float(f3.min())


# ---------------------------------------------------------------------------
# lower-bound functional l
# ---------------------------------------------------------------------------

def lower_bound_l(m, params: ConeParams, tol: float | None = None) -> float:
    """Least alpha >= 0 with R + alpha*I in the cone, in closed form.

    Zero exactly on members, else the largest root of the shifted faces (see
    module docstring); with x = A_1+A_2, y = C_1+C_2, z = B_2+B_3 the F1
    root, past which both factors of eta x y stay nonnegative, is
    (hypot(x-y, 2z/sqrt(eta)) - (x+y))/4.  At eta = 0 a mixed block that is
    nonzero relative to the spectra makes l infinite.  ``tol`` is accepted
    and ignored; it stays only because the benchmark's workload script
    (perfbench/workloads.py) still passes it.
    """
    ea, ec, sb = block_spectra(m)
    if _member_from_spectra(ea, ec, sb, params):
        return 0.0
    x, y, z = ea[0] + ea[1], ec[0] + ec[1], sb[1] + sb[2]
    mu = params.mu
    alpha = max(
        0.0,
        (ea[1] + ea[2] - mu * x) / (2.0 * (mu - 1.0)),
        (ec[1] + ec[2] - mu * y) / (2.0 * (mu - 1.0)),
    )
    if params.eta > 0.0:
        return float(max(alpha, (math.hypot(x - y, 2.0 * z / math.sqrt(params.eta)) - (x + y)) / 4.0))
    scale = max(np.abs(ea).max(), np.abs(ec).max(), sb[2])
    return math.inf if z > 1e-10 * scale else float(alpha)


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


def null_vector_verify(m, params: ConeParams, which: str) -> NullVectorReport:
    """Slack of the reaction-term inequality at a boundary operator.

    For an operator on the F1 face (eta X Y = Z^2) the quantity
    eta Y X^Q + eta X Y^Q - 2 Z Z^Q, evaluated with Q = Q(R) at the
    extremal frame of R, is nonnegative; on the F2 (resp. F3) face the
    quantity is mu X^Q - W^Q (resp. mu Y^Q - V^Q).  Precondition failures
    are reported in the result, not raised.
    """
    if which not in _FACES:
        raise ValueError(f"which must be one of {_FACES}, got {which!r}")
    m = np.asarray(m, dtype=float)
    bd = decompose(m)
    f = hat_f(m, params, blocks=bd)
    nrm = frobenius(m)
    named = f[_FACES.index(which)]
    deg = FACE_DEGREE[which]
    face_tol = 1e-8 * max(1.0, nrm**deg)
    msgs = []
    for face, val in zip(_FACES, f):
        dtol = 1e-8 * max(1.0, nrm ** FACE_DEGREE[face])
        if val < -dtol:
            msgs.append(f"{face} = {val:.3e} < 0: not a cone member")
    if abs(named) > face_tol:
        msgs.append(f"{which} = {named:.3e} is not on the boundary (tol {face_tol:.1e})")
    octet = extremal_frame(m, which, blocks=bd)
    fr = frame_functionals(m, octet, validate=False)
    fq = frame_functionals(q_operator(m), octet, validate=False)
    if which == "F1":
        slack = params.eta * (fr.y * fq.x + fr.x * fq.y) - 2.0 * fr.z * fq.z
    elif which == "F2":
        slack = params.mu * fq.x - fq.w
    else:
        slack = params.mu * fq.y - fq.v
    return NullVectorReport(
        face=which,
        slack=float(slack),
        precondition_ok=not msgs,
        message="; ".join(msgs),
        fhat=f,
    )


def hamilton_intermediate_slack(m, blocks=None) -> float:
    """Slack of X^Q >= A_1^2 + A_2^2 + 2(A_1+A_2)A_3 + 2B_1^2.

    X^Q is evaluated at a frame whose first pair consists of the A_1, A_2
    eigenvectors; the bound holds for every Bianchi operator there.
    """
    bd = decompose(m) if blocks is None else blocks
    octet = extremal_frame(m, "F2", blocks=bd)
    xq = frame_functionals(q_operator(m), octet, validate=False).x
    a1, a2, a3 = (float(v) for v in bd.eigs_a)
    b1 = float(bd.svals_b[0])
    return float(xq - (a1 * a1 + a2 * a2 + 2.0 * (a1 + a2) * a3 + 2.0 * b1 * b1))


# ---------------------------------------------------------------------------
# implied curvature conditions
# ---------------------------------------------------------------------------

def implies_wpic(m, params: ConeParams) -> bool:
    """Weak positive-isotropic-curvature shadow: A_1+A_2, C_1+C_2 >= -tol.

    Always true for cone members (F2, F3 >= 0 force both sums nonnegative
    since mu > 1); computed directly so non-members get an honest answer.
    """
    del params  # the test itself is parameter-free; members always pass
    ea, ec, _ = block_spectra(m)
    tol = 1e-10 * max(1.0, frobenius(m))
    return bool(ea[0] + ea[1] >= -tol and ec[0] + ec[1] >= -tol)


def two_nonneg_flag(m, n_frames: int, seed: int):
    """(sampled minimum, certificate) for two-nonnegative flag curvature.

    Samples R_1313 + R_2323 over random orthonormal 3-frames and returns the
    minimum together with the closed-form lower bound
    (A_1+A_2+C_1+C_2-2B_2-2B_3)/2, which is nonnegative for members with
    eta <= 1.
    """
    if n_frames < 1:
        raise ValueError("need at least one sample frame")
    from .sampling import substream, three_frame_batch
    from .wedge import wedge_coefficients

    m = np.asarray(m, dtype=float)
    rng = substream(seed, "flag3")
    frames = three_frame_batch(rng, n_frames)  # (n, 3, 4) rows
    w13 = wedge_coefficients(frames[:, 0], frames[:, 2])
    w23 = wedge_coefficients(frames[:, 1], frames[:, 2])
    vals = np.einsum("na,ab,nb->n", w13, m, w13) + np.einsum(
        "na,ab,nb->n", w23, m, w23
    )
    ea, ec, sb = block_spectra(m)
    cert = 0.5 * (ea[0] + ea[1] + ec[0] + ec[1] - 2.0 * (sb[1] + sb[2]))
    return float(vals.min()), float(cert)


def ricci_pinch_check(m, params: ConeParams) -> float:
    """Slack of Ric >= (1 - 4 sqrt(eta)/3) (scal/4) g, for eta < 9/16.

    Requires nonnegative scalar curvature and the first cone inequality;
    violations raise with a message rather than returning a number.
    """
    if not params.eta < 9.0 / 16.0:
        raise ValueError("Ricci pinching requires eta < 9/16")
    m = np.asarray(m, dtype=float)
    nrm = frobenius(m)
    sc = scalar(m)
    if sc < -1e-10 * max(1.0, nrm):
        raise ValueError(f"requires nonnegative scalar curvature, got {sc:.3e}")
    ea, ec, sb = block_spectra(m)
    lhs = (sb[1] + sb[2]) ** 2
    rhs = params.eta * (ea[0] + ea[1]) * (ec[0] + ec[1])
    if lhs > rhs + 1e-10 * max(1.0, nrm * nrm):
        raise ValueError("requires the first cone inequality (isotropic bound)")
    lam_min = float(np.linalg.eigvalsh(ricci(m))[0])
    const = 1.0 - (4.0 / 3.0) * math.sqrt(params.eta)
    return lam_min - const * sc / 4.0


def uniform_pic_check(m, params: ConeParams) -> float:
    """Slack of max(A_3, B_3, C_3) <= lambda_pic * min(A_1+A_2, C_1+C_2).

    Nonzero members have max(A_3, B_3, C_3) > 0; a (numerically) zero
    operator is rejected because the strict positivity clause is empty.
    """
    m = np.asarray(m, dtype=float)
    ea, ec, sb = block_spectra(m)
    mx = max(float(ea[2]), float(ec[2]), float(sb[2]))
    if mx <= 1e-12 * max(1.0, frobenius(m)):
        raise ValueError("uniform-isotropic check needs max(A_3, B_3, C_3) > 0")
    return float(
        params.lambda_pic * min(ea[0] + ea[1], ec[0] + ec[1]) - mx
    )


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
