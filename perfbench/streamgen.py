"""Seeded inputs with known answers for the ``stream-check`` workload.

Records come in thirds:

* interior cone members: member, and l = 0;
* raw Bianchi operators: no known l, but member must hold exactly when l = 0;
* boundary members shifted by -beta*I: a boundary point B sits on a face, so
  B - beta*I needs exactly beta of identity shift to re-enter the cone, and
  l = beta is known without computing it.  Faces F1, F2, F3 take turns.

Every operator is then scaled by 10**U(-3, 5); l scales with it.  The upper
end keeps l below the range where an absolute bisection tolerance of 1e-9
cannot be met in double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FACES = ("F1", "F2", "F3")
KINDS = ("member", "raw", "boundary")
LOG10_SCALE = (-3.0, 5.0)
#: shift beta as a share of |B|, so that beta dominates B's distance to its face
BETA_SHARE = (0.1, 1.0)
#: |l - beta| allowed on shifted boundary points, relative to max(1, beta)
L_RTOL = 1e-7


@dataclass(frozen=True)
class StreamRecord:
    """One operator of the stream and what its ``check`` record must say."""

    kind: str
    operator: np.ndarray
    member: bool | None   # None: no expectation beyond member == (l == 0)
    l: float | None       # exact l, or None when unknown
    face: str | None = None


def stream_records(seed: int, n: int, params) -> list[StreamRecord]:
    """``n`` records from ``seed``; record i uses sampler index i."""
    from curvcone import sampling, wedge

    cfg = sampling.SamplerConfig(seed=seed)
    rng = np.random.default_rng([seed, 0x5EED])
    scales = 10.0 ** rng.uniform(*LOG10_SCALE, size=n)
    shares = rng.uniform(*BETA_SHARE, size=n)
    records = []
    for i in range(n):
        kind = KINDS[i % 3]
        s = float(scales[i])
        if kind == "member":
            m = sampling.random_member(cfg, params, index=i)
            records.append(StreamRecord(kind, s * m, True, 0.0))
        elif kind == "raw":
            m = sampling.random_bianchi(cfg, index=i)
            records.append(StreamRecord(kind, s * m, None, None))
        else:
            face = FACES[(i // 3) % 3]
            b, _ = sampling.boundary_member(cfg, params, face, index=i)
            beta = float(shares[i]) * wedge.frobenius(b)
            records.append(StreamRecord(kind, s * (b - beta * np.eye(6)), False, s * beta, face))
    return records


def record_error(rec: StreamRecord, out: dict) -> str | None:
    """Why a ``check`` output record is wrong for ``rec``, or None if right."""
    member, lv = out.get("member"), out.get("l")
    if not isinstance(member, bool) or not isinstance(lv, (int, float)):
        return f"malformed record {out!r}"
    if rec.member is not None and member != rec.member:
        return f"member={member}, expected {rec.member}"
    if member != (lv == 0.0):
        return f"member={member} but l={lv!r}"
    if rec.l is not None and abs(lv - rec.l) > L_RTOL * max(1.0, rec.l):
        return f"l={lv!r}, expected {rec.l!r}"
    return None
