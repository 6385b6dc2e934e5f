"""Seeded test inputs: rotations, symmetric 4-tensors, 3-frames and frame octets.

No command and no check draws these objects; the tests use them as inputs.
Each sampler draws one object, from the same numbers and in the same way as
the package's samplers draw theirs (Philox blocks keyed by (seed, tag), or a
numpy Generator for the rotations).
"""

import numpy as np

from curvcone.cone import FrameOctet
from curvcone.decomposition import canonical_selfdual_basis
from curvcone.sampling import SamplerConfig, _normals, _orthonormalize_pair, _rotations, _three_frames


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    """Rotation matrix (det +1) from the QR of a Gaussian draw."""
    return _rotations(rng.standard_normal((n, n)))


def random_symmetric_tensor(cfg: SamplerConfig, index: int = 0, traceless: bool = False) -> np.ndarray:
    """Gaussian symmetric 4x4 tensor, optionally traceless."""
    g = _normals(cfg.seed, "symtensor", index, (4, 4))
    h = 0.5 * (g + g.T)
    if traceless:
        h = h - (np.trace(h) / 4.0) * np.eye(4)
    return h


def random_frame_octet(cfg: SamplerConfig, index: int = 0) -> FrameOctet:
    """Random frame octet: Gram-Schmidt pairs inside each eigenspace triple."""
    attempt = 0
    pairs = _orthonormalize_pair(_normals(cfg.seed, "octet", index, (4, 2, 3)))
    while not np.isfinite(pairs).all():  # pragma: no cover - probability-zero guard
        attempt += 1
        pairs = _orthonormalize_pair(_normals(cfg.seed, "octet", index, (4, 2, 3), attempt))
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
    return _three_frames(_normals(cfg.seed, "frame3", index, (4, 3)))
