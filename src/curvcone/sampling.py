"""Seeded generators for operators, cone members, boundary points and frames.

The samplers draw from Philox4x64-10, a counter-based generator (Salmon,
Moraes, Dror & Shaw, "Parallel random numbers: as easy as 1, 2, 3", SC '11):
a block of four 64-bit words is a pure function of a key and a counter, so
the blocks of a whole index array come from one numpy expression.  The key
is (seed, crc32(tag)) and the counter (index, attempt, block, 0), so every
sample owns its numbers whatever is drawn with it: suites are reproducible
bit for bit and do not depend on order or batch size.  :func:`philox` is the
kernel; numpy's ``np.random.Philox(key=k, counter=c)`` gives the same words
from counter c + 1 on.  A uniform is the top 53 bits of a word, offset by
half a step so that it lies in (0, 1); normals come from Box-Muller on pairs
of uniforms.

Operators, members, boundary points and non-members are all Philox draws.
:func:`substream`, a numpy PCG64 Generator keyed by a SeedSequence over
(seed, path...), stays for the tests and for the two frame oracles
``cone.two_nonneg_flag`` and ``cone.sampled_inf``.  They take one seed per
entry of a seed array that broadcasts against the operator stack, not one
per operator: each entry's frames or octets are drawn once and serve every
operator that meets it, so the cone suite draws them once for all its
parameter sets.  They draw many normals for few seeds, where this numpy
Philox kernel is the slower generator: 10 x 12 000 normals took 17.8 ms
against 3.5 ms from PCG64 substreams (one core of a 2-vCPU VM, BLAS on one
thread); only the ``verify`` suites call them.

Member sampling is rejection-free by construction: block eigenvalues are
drawn directly inside the three cone inequalities with a configurable
interior margin, the C-eigenvalues are shifted to match tr A = tr C (the
Bianchi constraint), the mixed block's singular values are capped by the
isotropic inequality, and the blocks are conjugated by independent random
rotations.  The one caveat is the trace-matching shift, which can erode the
C margins; those attempts are rejected and the next attempt is taken, and
retry counts are exposed for diagnostics.

Boundary points move a member along a ray that keeps tr A = tr C, so they
are curvature operators too: the mixed block is scaled onto F1, or the
smallest A (resp. C) eigenvalue is lowered and the largest raised by the
same amount onto F2 (resp. F3).

Attempts: an attempt of a member or boundary draw reads three blocks (six
eigenvalue uniforms, the mixed block's size and three normals).  A call
draws the first :data:`ROUND` attempts of every index at once, keeps each
index's first attempt that the trace shift (and for a boundary point its
ray) accepts, and draws further attempts only for the rare indices still
pending.  The four rotations come from nine more blocks of the accepted
attempt, in one more evaluation; an operator that fails its final check
moves on to its next attempt.  So a call costs two kernel evaluations in
the common case, whatever the number of indices, and each retry count is
the number of attempts rejected before the accepted one, as one index alone
counts them.

Stacks: the samplers take an array of indices and return a stack of shape
``index.shape + (6, 6)``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .cone import FACE_DEGREE, ConeParams, hat_f, is_member
from .decomposition import block_spectra, reassemble
from .wedge import frobenius, project_bianchi

FACE_TAGS = ("F1", "F2", "F3")

#: resample statistics, keyed by reason
RETRY_COUNTS: dict[str, int] = {}

#: attempts drawn per index and round; a member attempt is accepted with
#: probability about 0.63, so nearly every index settles in the first round
ROUND = 8
#: attempts an index may take before its margin counts as infeasible
MAX_ATTEMPTS = 1024

_MASK64 = 0xFFFFFFFFFFFFFFFF
# Philox4x64 round multipliers, in 32-bit halves, and Weyl key increments
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & np.uint64(0xFFFFFFFF), _PHILOX_M >> np.uint64(32)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LO32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


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


def philox(key, counter) -> np.ndarray:
    """Philox4x64-10 blocks for uint64 ``key`` (..., 2) and ``counter`` (..., 4).

    The two broadcast together; returns the (..., 4) output words.  Each
    64 x 64 -> 128-bit product is built from 32-bit halves, and the two
    products of a round are one stacked array operation.
    """
    key = np.asarray(key, dtype=np.uint64)
    counter = np.asarray(counter, dtype=np.uint64)
    shape = np.broadcast_shapes(key.shape[:-1], counter.shape[:-1])
    # contiguous rows of words (0, 2), which are multiplied, and (1, 3), and
    # one key column: strided or broadcast operands would take numpy's slow loops
    ctr = np.broadcast_to(counter, shape + (4,)).reshape(-1, 4).T
    x, y = ctr[0::2].copy(), ctr[1::2].copy()
    k = key[:, None] if key.ndim == 1 else np.broadcast_to(key, shape + (2,)).reshape(-1, 2).T.copy()
    for r in range(10):
        if r:
            k = k + _PHILOX_W
        lo, hi = x & _LO32, x >> _S32
        t = hi * _PHILOX_M_LO + ((lo * _PHILOX_M_LO) >> _S32)
        w = (t & _LO32) + lo * _PHILOX_M_HI
        mul_hi = hi * _PHILOX_M_HI + (t >> _S32) + (w >> _S32)
        x, y = mul_hi[::-1] ^ y ^ k, (x * _PHILOX_M)[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=-1).reshape(shape + (4,))


def _uniforms(seed: int, tag: str, index, attempt, blocks: range) -> np.ndarray:
    """Uniforms in (0, 1) from the Philox blocks ``blocks`` at counters
    (index, attempt, block, 0), index and attempt broadcast together: shape
    ``broadcast(index, attempt).shape + (4 * len(blocks),)``, block by block."""
    key = np.array([int(seed) & _MASK64, zlib.crc32(tag.encode("utf-8"))], dtype=np.uint64)
    index, attempt = np.broadcast_arrays(np.asarray(index).astype(np.uint64),
                                         np.asarray(attempt).astype(np.uint64))
    ctr = np.zeros(index.shape + (len(blocks), 4), dtype=np.uint64)
    ctr[..., 0] = index[..., None]
    ctr[..., 1] = attempt[..., None]
    ctr[..., 2] = np.arange(blocks.start, blocks.stop, dtype=np.uint64)
    words = philox(key, ctr).reshape(index.shape + (4 * len(blocks),))
    return ((words >> np.uint64(11)).astype(float) + 0.5) * 2.0**-53


def _gaussians(u: np.ndarray) -> np.ndarray:
    """Box-Muller normals from uniforms (..., 2k): the first k give the radii,
    the last k the angles; returns (..., 2k)."""
    k = u.shape[-1] // 2
    r = np.sqrt(-2.0 * np.log(u[..., :k]))
    theta = (2.0 * np.pi) * u[..., k:]
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)


def _normals(seed: int, tag: str, index, shape: tuple, attempt=0, first_block: int = 0) -> np.ndarray:
    """Standard normals of shape ``index.shape + shape`` from the blocks that
    start at ``first_block``."""
    size = int(np.prod(shape))
    g = _gaussians(_uniforms(seed, tag, index, attempt, range(first_block, first_block - (-size // 4))))
    return g[..., :size].reshape(g.shape[:-1] + shape)


def substream(seed: int, *path) -> np.random.Generator:
    """Independent generator for (seed, path...); strings hash via CRC-32."""
    key = [int(seed) & _MASK64]
    for part in path:
        if isinstance(part, str):
            key.append(zlib.crc32(part.encode("utf-8")))
        else:
            key.append(int(part) & _MASK64)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))


def _rotations(g: np.ndarray) -> np.ndarray:
    # rotations (det +1) from the QRs of Gaussian draws g of shape (..., n, n)
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]
    q[..., -1] = np.where((np.linalg.det(q) < 0.0)[..., None], -q[..., -1], q[..., -1])
    return q


def _orthonormalize_pair(g: np.ndarray) -> np.ndarray:
    # g: (..., 2, k) Gaussian rows -> orthonormal rows, batched: Gram-Schmidt
    # on the rows as contiguous (k, ...) component arrays
    a, b = np.moveaxis(g, (-2, -1), (0, 1)).copy()
    a = a / np.sqrt(_sum_rows(a * a))
    b = b - _sum_rows(b * a) * a
    b = b / np.sqrt(_sum_rows(b * b))
    out = np.empty(g.shape)
    out[..., 0, :], out[..., 1, :] = np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)
    return out


def _sum_rows(x: np.ndarray) -> np.ndarray:
    # x[0] + x[1] + ... added left to right, as numpy's norm and sum add the
    # entries of a short last axis
    acc = x[0]
    for row in x[1:]:
        acc = acc + row
    return acc


def orthonormal_pair_batch(rngs, n: int, pairs: int) -> np.ndarray:
    """(len(rngs), n, pairs, 2, 3) orthonormal pairs in R^3, one draw per pair.

    Row k holds the n draws of generator ``rngs[k]``, as that generator
    alone gives them.  Degenerate draws (second vector parallel to the
    first) have probability zero but are redrawn if they occur.
    """
    g = np.empty((len(rngs), n, pairs, 2, 3))
    for rng, out in zip(rngs, g):
        rng.standard_normal(out=out)
    out = _orthonormalize_pair(g)
    bad = ~np.isfinite(out).all(axis=(-1, -2))
    for k in np.flatnonzero(bad.any(axis=(-1, -2))).tolist():  # pragma: no cover - probability-zero guard
        while np.any(bad[k]):
            out[k][bad[k]] = _orthonormalize_pair(rngs[k].standard_normal((int(bad[k].sum()), 2, 3)))
            bad[k] = ~np.isfinite(out[k]).all(axis=(-1, -2))
    return out


def _three_frames(g: np.ndarray) -> np.ndarray:
    # 3-frames (..., 3, 4), as rows, from the QRs of Gaussian draws (..., 4, 3)
    q, r = np.linalg.qr(g)
    q = q * np.where(np.diagonal(r, axis1=-2, axis2=-1) < 0.0, -1.0, 1.0)[..., None, :]
    return q.swapaxes(-1, -2)


def random_bianchi(cfg: SamplerConfig, index=0) -> np.ndarray:
    """Gaussian symmetric operator projected onto the Bianchi hyperplane."""
    g = _normals(cfg.seed, "bianchi", index, (6, 6))
    return project_bianchi(0.5 * (g + g.swapaxes(-1, -2)))


def _sum3(v: np.ndarray) -> np.ndarray:
    # v[..., 0] + v[..., 1] + v[..., 2], added left to right
    return (v[..., 0] + v[..., 1]) + v[..., 2]


def _draw_member_data(u: np.ndarray, params: ConeParams, margin: float):
    """Sorted block eigenvalue data of member attempts, from their uniforms (..., 12).

    The eigenvalue-sum inequalities are enforced with the margin applied to
    the gap mu - 1 (applying it to mu itself is infeasible once
    mu(1 - margin) < 1, e.g. mu = 1.1); the isotropic inequality takes the
    margin directly.  Uniforms 0-5 place the A and C eigenvalues, uniform 6
    the size of the mixed block and uniforms 8-11 give, by Box-Muller, its
    singular value ratios.  Returns (eigs_a, eigs_c, svals, ok) with
    ``ok`` False where the trace-matching shift broke the C margins.
    """
    gap = 1.0 + (1.0 - margin) * (params.mu - 1.0)

    def sums_triplet(u0, u1, u2):
        s = margin + (1.0 - margin) * u0
        mid = 0.5 * s + (0.5 * gap * s - 0.5 * s) * u1
        return np.stack([s - mid, mid, mid + ((gap * s - mid) - mid) * u2], axis=-1)

    eigs_a = sums_triplet(u[..., 0], u[..., 1], u[..., 2])
    eigs_c = sums_triplet(u[..., 3], u[..., 4], u[..., 5])
    eigs_c = eigs_c + ((_sum3(eigs_a) - _sum3(eigs_c)) / 3.0)[..., None]
    sum_c = eigs_c[..., 0] + eigs_c[..., 1]
    f3 = params.mu * sum_c - (eigs_c[..., 1] + eigs_c[..., 2])
    ok = (sum_c >= 0.5 * margin) & (f3 >= margin * (params.mu - 1.0) * sum_c)
    sum_a = eigs_a[..., 0] + eigs_a[..., 1]
    # the cap is negative only on attempts the shift rejected
    cap = np.maximum((1.0 - margin) * params.eta * sum_a * sum_c, 0.0)
    raw = np.sort(np.abs(_gaussians(u[..., 8:12])[..., :3]), axis=-1)
    target = (0.1 + 0.9 * u[..., 6]) * cap
    svals = raw * np.sqrt(target / (raw[..., 1] + raw[..., 2]) ** 2)[..., None]
    return eigs_a, eigs_c, svals, ok


def _boundary_ray(eigs_a, eigs_c, svals, params: ConeParams, face: str):
    """Spectra (..., 3) moved along the named face's ray to the window's
    middle; returns (eigs_a, eigs_c, svals, ok), ``ok`` False where there is
    no such point."""
    sum_a = eigs_a[..., 0] + eigs_a[..., 1]
    sum_c = eigs_c[..., 0] + eigs_c[..., 1]
    scale_r = np.maximum(1.0, np.sqrt(_sum3(eigs_a**2) + _sum3(eigs_c**2) + 2.0 * _sum3(svals**2)))
    target = 1e-11 * scale_r ** FACE_DEGREE[face]

    if face == "F1":
        z = svals[..., 1] + svals[..., 2]
        room = params.eta * sum_a * sum_c - target
        ok = (z > 1e-8 * scale_r) & (room >= 0.0)
        return eigs_a, eigs_c, (np.sqrt(np.maximum(room, 0.0)) / np.where(ok, z, 1.0))[..., None] * svals, ok

    eigs, other = (eigs_a, sum_c) if face == "F2" else (eigs_c, sum_a)
    # lowering the smallest eigenvalue by s and raising the largest by s keeps
    # the trace (tr A = tr C is the Bianchi identity) and moves the face by
    # -(mu + 1) s
    s = (params.mu * (eigs[..., 0] + eigs[..., 1]) - (eigs[..., 1] + eigs[..., 2]) - target) / (params.mu + 1.0)
    moved = eigs + s[..., None] * np.array([-1.0, 0.0, 1.0])
    # cap the mixed block from the moved sum, which is positive: mu times it
    # is A_2 + A_3 + s + target (resp. with C)
    cap = 0.9 * params.eta * (moved[..., 0] + moved[..., 1]) * other
    z2 = (svals[..., 1] + svals[..., 2]) ** 2
    svals = np.where((z2 > cap)[..., None], np.sqrt(np.maximum(cap, 0.0) / z2)[..., None] * svals, svals)
    return (moved, eigs_c, svals, s >= 0.0) if face == "F2" else (eigs_a, moved, svals, s >= 0.0)


def _settle(cfg: SamplerConfig, params: ConeParams, tag: str, index, start, face=None):
    """Each index's first attempt from ``start`` on that the trace shift, and
    for a face its ray, accepts: (attempt, eigs_a, eigs_c, svals) for the flat
    ``index`` array.  Counts a retry for every attempt rejected before it."""
    n = len(index)
    attempt = np.zeros(n, dtype=np.int64)
    data = np.zeros((3, n, 3))
    first = np.array(start, dtype=np.int64)
    pending = np.arange(n)
    while pending.size:
        if first[pending].max() >= MAX_ATTEMPTS:
            raise RuntimeError(
                f"{tag} sampling found no draw in {MAX_ATTEMPTS} attempts; margin is infeasible "
                f"for eta={params.eta}, mu={params.mu}, margin={cfg.margin}"
            )
        tries = first[pending, None] + np.arange(ROUND)
        u = _uniforms(cfg.seed, tag, index[pending, None], tries, range(3))
        with np.errstate(divide="ignore", invalid="ignore"):  # rejected attempts only
            *drawn, ok = _draw_member_data(u, params, cfg.margin)
            ray_ok = ok
            if face is not None:
                *drawn, ray_ok = _boundary_ray(*drawn, params, face)
        good = ok & ray_ok
        hit = good.any(axis=-1)
        k = np.argmax(good, axis=-1)
        before = np.arange(ROUND) < np.where(hit, k, ROUND)[:, None]
        _count_retry("trace-shift", int(np.count_nonzero(before & ~ok)))
        _count_retry("boundary-ray", int(np.count_nonzero(before & ok & ~ray_ok)))
        rows = np.flatnonzero(hit)
        attempt[pending[rows]] = tries[rows, k[rows]]
        data[:, pending[rows]] = np.stack([v[rows, k[rows]] for v in drawn])
        first[pending] += ROUND
        pending = pending[~hit]
    return attempt, *data


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


def _diag(v: np.ndarray) -> np.ndarray:
    # (..., 3) -> (..., 3, 3) diagonal matrices
    d = np.zeros(v.shape + (3,))
    d[..., [0, 1, 2], [0, 1, 2]] = v
    return d


def _sample(cfg: SamplerConfig, params: ConeParams, tag: str, index, face, kept) -> np.ndarray:
    """(n, 6, 6) operators for the flat ``index`` array.

    ``kept(ms, rows)`` says which assembled operators ``ms`` (for the
    positions ``rows``) pass the final check; a rejected one moves on to its
    next attempt, and counts a retry.
    """
    out = np.empty((len(index), 6, 6))
    start = np.zeros(len(index), dtype=np.int64)
    pending = np.arange(len(index))
    reason = "member-verify" if face is None else "boundary-verify"
    while pending.size:
        attempt, eigs_a, eigs_c, svals = _settle(cfg, params, tag, index[pending], start[pending], face)
        g = _normals(cfg.seed, tag, index[pending], (4, 3, 3), attempt, first_block=3)
        ms = _assemble(g, eigs_a, eigs_c, svals)
        ok = kept(ms, pending)
        out[pending[ok]] = ms[ok]
        _count_retry(reason, int(np.count_nonzero(~ok)))
        start[pending] = attempt + 1
        pending = pending[~ok]
    return out


def _count_retry(reason: str, n: int = 1) -> None:
    if n:
        RETRY_COUNTS[reason] = RETRY_COUNTS.get(reason, 0) + n


def random_member(cfg: SamplerConfig, params: ConeParams, index=0) -> np.ndarray:
    """Strictly interior cone member; requires eta > 0.

    The construction (not rejection) guarantees membership; the final
    operator is still verified and in the measure-zero event of a rounding
    failure the index takes its next attempt.  An array of indices gives a
    stack of shape ``index.shape + (6, 6)``.
    """
    if not params.eta > 0:
        raise ValueError("member sampling requires eta > 0")
    index = np.asarray(index)
    ms = _sample(cfg, params, "member", index.ravel(), None, lambda ms, rows: is_member(ms, params))
    return ms.reshape(index.shape + (6, 6))


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
    flat = index.ravel()
    f, norms = np.zeros((flat.size, 3)), np.zeros(flat.size)
    deg = FACE_DEGREE[face]

    def on_face(ms, rows):
        spectra = block_spectra(ms)
        fs = np.stack(hat_f(ms, params, blocks=spectra), axis=-1)
        nrm = frobenius(ms)
        named = fs[:, FACE_TAGS.index(face)]
        ok = (0.0 <= named) & (named <= 1e-10 * np.maximum(1.0, nrm**deg)) & is_member(ms, params, blocks=spectra)
        f[rows[ok]], norms[rows[ok]] = fs[ok], nrm[ok]
        return ok

    ms = _sample(cfg, params, f"boundary-{face}", flat, face, on_face)
    certs = [{"face": face, "F1": f1, "F2": f2, "F3": f3, "norm": nrm}
             for (f1, f2, f3), nrm in zip(f.tolist(), norms.tolist())]
    if index.ndim == 0:
        return ms[0], certs[0]
    return ms.reshape(index.shape + (6, 6)), certs


def random_nonmember(cfg: SamplerConfig, params: ConeParams, index=0) -> np.ndarray:
    """Bianchi operator outside the cone (Gaussian draw, shifted if needed)."""
    m = random_bianchi(cfg, index=index)
    shift = np.abs(block_spectra(m)[0][..., 0]) + 1.0
    return np.where(np.asarray(is_member(m, params))[..., None, None], m - shift[..., None, None] * np.eye(6), m)
