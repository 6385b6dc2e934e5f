"""Seeded generators for operators, cone members, boundary points and frames.

All randomness flows through numpy PCG64 generators keyed by a SeedSequence
over (seed, stream tag, sample index): every sample owns its substream, so
suites are reproducible bit-for-bit and order-independent regardless of how
they iterate or parallelize.  String tags enter the key via CRC-32.

Member sampling is rejection-free by construction: block eigenvalues are
drawn directly inside the three cone inequalities with a configurable
interior margin, the C-eigenvalues are shifted to match tr A = tr C (the
Bianchi constraint), the mixed block's singular values are capped by the
isotropic inequality, and the blocks are conjugated by independent random
rotations.  The one caveat is the trace-matching shift, which can erode the
C margins; those draws are resampled (bounded retries) rather than solved
for, and retry counts are exposed for diagnostics.  Each attempt takes its
six eigenvalue uniforms from one ``rng.random(6)`` call and keeps them as
Python floats until it is accepted; the stream and the values are those of
six scalar ``uniform`` calls.

Boundary points move a member along a ray that keeps tr A = tr C, so they
are curvature operators too: the mixed block is scaled onto F1, or the
smallest A (resp. C) eigenvalue is lowered and the largest raised by the
same amount onto F2 (resp. F3).

Stacks: the operator samplers take an array of indices and return a stack
of shape ``index.shape + (6, 6)``; the frame, rotation and tensor samplers
draw one object.  Each index still draws from its own substream, in the same
order as alone; only the arithmetic after the draws runs over the stack, the
member samplers in rounds over the indices still pending.  So every operator
and every retry count equals the one-index result.
"""

from __future__ import annotations

import logging
import zlib
from dataclasses import dataclass

import numpy as np

from .cone import FACE_DEGREE, ConeParams, FrameOctet, hat_f, is_member
from .decomposition import block_spectra, canonical_selfdual_basis, reassemble
from .wedge import frobenius, project_bianchi

log = logging.getLogger(__name__)

#: generator algorithm used everywhere, recorded for reproducibility audits
GENERATOR_NAME = "numpy PCG64 seeded by SeedSequence((seed, crc32(tag), index...))"

FACE_TAGS = ("F1", "F2", "F3")

#: resample statistics for the trace-matching shift, keyed by reason
RETRY_COUNTS: dict[str, int] = {}


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and interior margin for the generators, which draw at unit scale.

    Identical configs yield identical streams; for another magnitude,
    multiply the output.  ``margin`` in (0, 1) sets how strictly member
    draws sit inside the cone: each inequality is satisfied with a relative
    gap of at least ``margin`` (measured against mu - 1 for the
    eigenvalue-sum inequalities, so small mu stays feasible).
    """

    seed: int
    margin: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.margin < 1.0:
            raise ValueError("margin must lie in (0, 1)")


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path...); strings hash via CRC-32."""
    key = [int(seed) & 0xFFFFFFFFFFFFFFFF]
    for part in path:
        if isinstance(part, str):
            key.append(zlib.crc32(part.encode("utf-8")))
        else:
            key.append(int(part) & 0xFFFFFFFFFFFFFFFF)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rotation matrix (det +1) from the QR of a Gaussian draw."""
    return _rotations(rng.standard_normal((n, n)))


def _rotations(g: np.ndarray) -> np.ndarray:
    # rotations (det +1) from the QRs of Gaussian draws g of shape (..., n, n)
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]
    q[..., -1] = np.where((np.linalg.det(q) < 0.0)[..., None], -q[..., -1], q[..., -1])
    return q


def _orthonormalize_pair(g: np.ndarray) -> np.ndarray:
    # g: (..., 2, k) Gaussian rows -> orthonormal rows, batched
    v1 = g[..., 0, :]
    v1 = v1 / np.linalg.norm(v1, axis=-1, keepdims=True)
    v2 = g[..., 1, :]
    v2 = v2 - np.sum(v2 * v1, axis=-1, keepdims=True) * v1
    v2 = v2 / np.linalg.norm(v2, axis=-1, keepdims=True)
    return np.stack([v1, v2], axis=-2)


def orthonormal_pair_batch(rng: np.random.Generator, n: int, pairs: int) -> np.ndarray:
    """(n, pairs, 2, 3) orthonormal pairs in R^3, one draw per pair.

    Degenerate draws (second vector parallel to the first) have probability
    zero but are redrawn if they occur.
    """
    out = _orthonormalize_pair(rng.standard_normal((n, pairs, 2, 3)))
    bad = ~np.isfinite(out).all(axis=(-1, -2))
    while np.any(bad):  # pragma: no cover - probability-zero guard
        out[bad] = _orthonormalize_pair(rng.standard_normal((int(bad.sum()), 2, 3)))
        bad = ~np.isfinite(out).all(axis=(-1, -2))
    return out


def _three_frames(g: np.ndarray) -> np.ndarray:
    # 3-frames (..., 3, 4), as rows, from the QRs of Gaussian draws (..., 4, 3)
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]
    return q.swapaxes(-1, -2)


def random_bianchi(cfg: SamplerConfig, index=0) -> np.ndarray:
    """Gaussian symmetric operator projected onto the Bianchi hyperplane."""
    index = np.asarray(index)
    g = [substream(cfg.seed, "bianchi", i).standard_normal((6, 6)) for i in index.ravel().tolist()]
    g = np.reshape(g, index.shape + (6, 6))
    return project_bianchi(0.5 * (g + g.swapaxes(-1, -2)))


def random_symmetric_tensor(cfg: SamplerConfig, index: int = 0, traceless: bool = False) -> np.ndarray:
    """Gaussian symmetric 4x4 tensor, optionally traceless."""
    rng = substream(cfg.seed, "symtensor", index)
    g = rng.standard_normal((4, 4))
    h = 0.5 * (g + g.T)
    if traceless:
        h = h - (np.trace(h) / 4.0) * np.eye(4)
    return h


def _draw_member_data(rng: np.random.Generator, params: ConeParams, margin: float):
    """Sorted block eigenvalue data strictly inside the cone inequalities.

    The eigenvalue-sum inequalities are enforced with the margin applied to
    the gap mu - 1 (applying it to mu itself is infeasible once
    mu(1 - margin) < 1, e.g. mu = 1.1); the isotropic inequality takes the
    margin directly.  Each uniform u of an attempt's one draw call becomes
    ``lo + (hi - lo) * u``, the map ``Generator.uniform`` applies.
    """
    gap = 1.0 + (1.0 - margin) * (params.mu - 1.0)

    def sums_triplet(u0, u1, u2):
        s = margin + (1.0 - margin) * u0
        mid = 0.5 * s + (0.5 * gap * s - 0.5 * s) * u1
        return s - mid, mid, mid + ((gap * s - mid) - mid) * u2

    for attempt in range(1000):
        u = rng.random(6).tolist()
        a0, a1, a2 = sums_triplet(*u[:3])
        c0, c1, c2 = sums_triplet(*u[3:])
        shift = (((a0 + a1) + a2) - ((c0 + c1) + c2)) / 3.0
        c0, c1, c2 = c0 + shift, c1 + shift, c2 + shift
        sum_c = c0 + c1
        f3 = params.mu * sum_c - (c1 + c2)
        if sum_c < 0.5 * margin or f3 < margin * (params.mu - 1.0) * sum_c:
            _count_retry("trace-shift")
            log.debug("trace-matching shift broke the C margins; resampling")
            continue
        sum_a = a0 + a1
        cap = (1.0 - margin) * params.eta * sum_a * sum_c
        raw = np.sort(np.abs(rng.standard_normal(3)))
        target = rng.uniform(0.1, 1.0) * cap
        denom = (raw[1] + raw[2]) ** 2
        svals = raw * np.sqrt(target / denom)
        return np.array([a0, a1, a2]), np.array([c0, c1, c2]), svals
    raise RuntimeError(
        "member sampling exhausted 1000 retries; margin is infeasible for "
        f"eta={params.eta}, mu={params.mu}, margin={margin}"
    )


def _diag(v: np.ndarray) -> np.ndarray:
    # (..., 3) -> (..., 3, 3) diagonal matrices
    d = np.zeros(v.shape + (3,))
    d[..., [0, 1, 2], [0, 1, 2]] = v
    return d


def _assemble(g: np.ndarray, eigs_a, eigs_c, svals) -> np.ndarray:
    """Operators with the given block spectra (..., 3), rotated by the QRs of
    the Gaussian draws g (..., 4, 3, 3) for A, C and B's two frames."""
    rot = _rotations(g)
    rot_a, rot_c, rot_u, rot_v = (rot[..., k, :, :] for k in range(4))
    a = rot_a @ _diag(eigs_a) @ rot_a.swapaxes(-1, -2)
    c = rot_c @ _diag(eigs_c) @ rot_c.swapaxes(-1, -2)
    b = rot_u @ _diag(svals) @ rot_v.swapaxes(-1, -2)
    return reassemble(
        0.5 * (a + a.swapaxes(-1, -2)), b, 0.5 * (c + c.swapaxes(-1, -2))
    )


def _count_retry(reason: str, n: int = 1) -> None:
    if n:
        RETRY_COUNTS[reason] = RETRY_COUNTS.get(reason, 0) + n


def random_member(cfg: SamplerConfig, params: ConeParams, index=0) -> np.ndarray:
    """Strictly interior cone member; requires eta > 0.

    The construction (not rejection) guarantees membership; the final
    operator is still verified and in the measure-zero event of a rounding
    failure the draw is repeated from the same substream.  An array of
    indices gives a stack of shape ``index.shape + (6, 6)``.
    """
    if not params.eta > 0:
        raise ValueError("member sampling requires eta > 0")
    index = np.asarray(index)
    rngs = [substream(cfg.seed, "member", i) for i in index.ravel().tolist()]
    out = np.empty((len(rngs), 6, 6))
    pending = np.arange(len(rngs))
    for _ in range(16):
        if not pending.size:
            break
        data, draws = [], []
        for k in pending.tolist():
            data.append(_draw_member_data(rngs[k], params, cfg.margin))
            draws.append(rngs[k].standard_normal((4, 3, 3)))
        ms = _assemble(np.array(draws), *(np.array(v) for v in zip(*data)))
        ok = is_member(ms, params)
        out[pending[ok]] = ms[ok]
        _count_retry("member-verify", int(np.count_nonzero(~ok)))
        pending = pending[~ok]
    if pending.size:
        raise RuntimeError("member sampling failed verification repeatedly")  # pragma: no cover
    return out.reshape(index.shape + (6, 6))


def boundary_member(cfg: SamplerConfig, params: ConeParams, face: str, index=0):
    """Member on the named face of the cone, plus an active-face certificate.

    Starts from an interior member and moves along the named face's ray
    (module docstring).  The named closed form is explicit in the ray
    parameter, which is solved for directly to put that form at
    1e-11 x max(1, |R|^degree): the middle of a [0, 1e-10] window wide
    enough to survive reassembly rounding while staying on the member side.
    The other two closed forms remain nonnegative (for the F2/F3 rays the
    mixed block is capped from the moved eigenvalue sum).  Returns
    (operator, certificate dict); an array of indices gives a stack of shape
    ``index.shape + (6, 6)`` and a flat list of certificates.
    """
    if face not in FACE_TAGS:
        raise ValueError(f"face must be one of {FACE_TAGS}, got {face!r}")
    if not params.eta > 0:
        raise ValueError("boundary sampling requires eta > 0")
    index = np.asarray(index)
    rngs = [substream(cfg.seed, "boundary", face, i) for i in index.ravel().tolist()]
    out = np.empty((len(rngs), 6, 6))
    certs = [None] * len(rngs)
    attempts = [0] * len(rngs)
    pending = np.arange(len(rngs))
    deg = FACE_DEGREE[face]
    while pending.size:
        data, draws = [], []
        for k in pending.tolist():
            while True:
                if attempts[k] == 64:
                    raise RuntimeError(f"boundary sampling failed for face {face}")  # pragma: no cover
                attempts[k] += 1
                ray = _boundary_ray(*_draw_member_data(rngs[k], params, cfg.margin), params, face)
                if ray is not None:
                    break
                _count_retry("boundary-ray")
            data.append(ray)
            draws.append(rngs[k].standard_normal((4, 3, 3)))
        ms = _assemble(np.array(draws), *(np.array(v) for v in zip(*data)))
        spectra = block_spectra(ms)
        f = np.stack(hat_f(ms, params, blocks=spectra), axis=-1).tolist()
        member = is_member(ms, params, blocks=spectra).tolist()
        norms = frobenius(ms).tolist()
        ok = np.zeros(len(pending), dtype=bool)
        for j, k in enumerate(pending.tolist()):
            named = f[j][FACE_TAGS.index(face)]
            if 0.0 <= named <= 1e-10 * max(1.0, norms[j] ** deg) and member[j]:
                out[k] = ms[j]
                certs[k] = {"face": face, "F1": f[j][0], "F2": f[j][1], "F3": f[j][2], "norm": norms[j]}
                ok[j] = True
        _count_retry("boundary-verify", int(np.count_nonzero(~ok)))
        pending = pending[~ok]
    if index.ndim == 0:
        return out[0], certs[0]
    return out.reshape(index.shape + (6, 6)), certs


def _boundary_ray(eigs_a, eigs_c, svals, params: ConeParams, face: str):
    """Spectra moved along the named face's ray to the window's middle, or None."""
    sum_a = eigs_a[0] + eigs_a[1]
    sum_c = eigs_c[0] + eigs_c[1]
    scale_r = max(1.0, float(np.sqrt(np.sum(eigs_a**2) + np.sum(eigs_c**2) + 2 * np.sum(svals**2))))
    target = 1e-11 * scale_r ** FACE_DEGREE[face]

    if face == "F1":
        z = svals[1] + svals[2]
        room = params.eta * sum_a * sum_c - target
        if z <= 1e-8 * scale_r or room < 0.0:
            return None
        return eigs_a, eigs_c, (np.sqrt(room) / z) * svals

    eigs, other = (eigs_a, sum_c) if face == "F2" else (eigs_c, sum_a)
    # lowering the smallest eigenvalue by s and raising the largest by s keeps
    # the trace (tr A = tr C is the Bianchi identity) and moves the face by
    # -(mu + 1) s
    s = (params.mu * (eigs[0] + eigs[1]) - (eigs[1] + eigs[2]) - target) / (params.mu + 1.0)
    if s < 0.0:
        return None
    moved = eigs + np.array([-s, 0.0, s])
    # cap the mixed block from the moved sum, which is positive: mu times it
    # is A_2 + A_3 + s + target (resp. with C)
    cap = 0.9 * params.eta * (moved[0] + moved[1]) * other
    if (svals[1] + svals[2]) ** 2 > cap:
        svals = svals * np.sqrt(cap / (svals[1] + svals[2]) ** 2)
    return (moved, eigs_c, svals) if face == "F2" else (eigs_a, moved, svals)


def random_frame_octet(cfg: SamplerConfig, index: int = 0) -> FrameOctet:
    """Random frame octet: Gram-Schmidt pairs inside each eigenspace triple."""
    rng = substream(cfg.seed, "octet", index)
    pairs = orthonormal_pair_batch(rng, 1, 4)[0]  # (4, 2, 3)
    basis = canonical_selfdual_basis()
    rows = [
        pairs[0, 0] @ basis.plus, pairs[0, 1] @ basis.plus,
        pairs[1, 0] @ basis.plus, pairs[1, 1] @ basis.plus,
        pairs[2, 0] @ basis.minus, pairs[2, 1] @ basis.minus,
        pairs[3, 0] @ basis.minus, pairs[3, 1] @ basis.minus,
    ]
    return FrameOctet(np.array(rows))


def random_3frame(cfg: SamplerConfig, index: int = 0) -> np.ndarray:
    """Three orthonormal vectors in R^4 (rows of the returned (3, 4) array)."""
    return _three_frames(substream(cfg.seed, "frame3", index).standard_normal((4, 3)))


def random_nonmember(cfg: SamplerConfig, params: ConeParams, index=0) -> np.ndarray:
    """Bianchi operator outside the cone (Gaussian draw, shifted if needed)."""
    m = random_bianchi(cfg, index=index)
    shift = np.abs(block_spectra(m)[0][..., 0]) + 1.0
    return np.where(np.asarray(is_member(m, params))[..., None, None], m - shift[..., None, None] * np.eye(6), m)
