"""C^2 cutoff functions with power-law derivative bounds, grid-certified.

The base profile psi is 1 on (-inf, 0], 0 on [1, +inf) and satisfies
0 >= psi' >= -2 and |psi''| <= 5.  It is built as a smoothed trapezoid:
psi'' is a continuous piecewise-linear pulse pair (down then up) with
plateau height m = 100/21, ramp width 1/20 and pulse width 2/5, which makes
psi' a piecewise-quadratic trough of depth 5/3 and psi a piecewise cubic.
All coefficients are constructed in exact rational arithmetic, so the flat
values 1 and 0 are exact; evaluation clamps to [0, 1] against rounding at
the joins.  (A mollified profile would be C^infinity, but only verifiable
C^2 bounds are needed, and a polynomial blend can be certified on a grid.)

The cutoff for parameters (eps, sigma, r) is phi(x) = psi((x - r)/sigma)
raised to the power 1/eps.  Writing p = psi((x - r)/sigma) and k = 1/eps,

    phi'  = (k/sigma)   p^(k-1) psi',
    phi'' = (k/sigma^2) p^(k-2) ((k-1) psi'^2 + p psi''),

so phi = 1 on (-inf, r], phi = 0 on [r + sigma, +inf),
0 >= phi' >= -2 phi^(1-eps) / (eps sigma) and
|phi''| <= 5 phi^(1-2 eps) / (eps^2 sigma^2) -- the chain
4(1 - eps) + 5 eps <= 5 transfers the base bounds for every eps in (0, 1].
Those four conclusions are verified on construction over a grid.

A second pair of bounds, |phi'|^2 <= C0 phi^(2-eps) / (4 eps^2 sigma^2) and
|phi''| <= C0 phi^(1-eps) / (2 eps^2 sigma^2), holds for a measured constant
C0 >= 1 reported by :func:`theorem_variant_check`; after exact cancellation
C0 = max(1, sup 4 psi'^2/psi, sup |2(1-eps) psi'^2/psi + 2 eps psi''|),
independent of sigma and r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_ZERO_CUT = 1e-200  # below this, psi^k is numerically indistinguishable from 0


class _PiecewisePoly:
    """Polynomial pieces on [x_i, x_{i+1}) in local (x - x_i) powers."""

    def __init__(self, breaks, coeffs, left: float, right: float):
        self.breaks = np.asarray(breaks, dtype=float)
        # ragged -> padded coefficient matrix
        deg = max(len(c) for c in coeffs)
        mat = np.zeros((len(coeffs), deg))
        for i, c in enumerate(coeffs):
            mat[i, : len(c)] = [float(v) for v in c]
        self.coeffs = mat
        self.left = left
        self.right = right

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        lo, hi = self.breaks[0], self.breaks[-1]
        out[x <= lo] = self.left
        out[x >= hi] = self.right
        inside = (x > lo) & (x < hi)
        xi = x[inside]
        idx = np.clip(np.searchsorted(self.breaks, xi, side="right") - 1, 0, len(self.coeffs) - 1)
        local = xi - self.breaks[idx]
        acc = np.zeros_like(xi)
        for j in range(self.coeffs.shape[1] - 1, -1, -1):
            acc = acc * local + self.coeffs[idx, j]
        out[inside] = acc
        return out


def _integrate(breaks, coeffs, start_value: Fraction):
    """Antiderivative pieces with exact rational coefficients."""
    out = []
    acc = start_value
    for (lo, hi), c in zip(zip(breaks[:-1], breaks[1:]), coeffs):
        piece = [acc] + [ci / (i + 1) for i, ci in enumerate(c)]
        out.append(piece)
        width = hi - lo
        acc = sum(ci * width**i for i, ci in enumerate(piece))
    return out, acc


@dataclass(frozen=True, eq=False)
class BaseProfile:
    """The base profile psi with its first two derivatives."""

    value_poly: _PiecewisePoly
    d1_poly: _PiecewisePoly
    d2_poly: _PiecewisePoly

    def __call__(self, x):
        return np.clip(self.value_poly(x), 0.0, 1.0)

    def d1(self, x):
        return np.minimum(self.d1_poly(x), 0.0)

    def d2(self, x):
        return self.d2_poly(x)


_BASE: BaseProfile | None = None


def _build_base_profile() -> BaseProfile:
    w = Fraction(2, 5)    # total pulse width of psi''
    a = Fraction(1, 20)   # ramp width inside each pulse
    m = Fraction(100, 21) # plateau height of |psi''|; area m*(w - a) = 5/3

    breaks = [Fraction(0), a, w - a, w, 1 - w, 1 - w + a, 1 - a, Fraction(1)]
    d2_coeffs = [
        [Fraction(0), -m / a],
        [-m],
        [-m, m / a],
        [Fraction(0)],
        [Fraction(0), m / a],
        [m],
        [m, -m / a],
    ]
    d1_coeffs, d1_end = _integrate(breaks, d2_coeffs, Fraction(0))
    v_coeffs, v_end = _integrate(breaks, d1_coeffs, Fraction(1))
    assert d1_end == 0 and v_end == 0  # exact by the choice of (w, a, m)

    fb = [float(b) for b in breaks]
    return BaseProfile(
        value_poly=_PiecewisePoly(fb, v_coeffs, 1.0, 0.0),
        d1_poly=_PiecewisePoly(fb, d1_coeffs, 0.0, 0.0),
        d2_poly=_PiecewisePoly(fb, d2_coeffs, 0.0, 0.0),
    )


def base_profile() -> BaseProfile:
    """The shared base profile; its bounds are re-verified on first build."""
    global _BASE
    if _BASE is None:
        psi = _build_base_profile()
        x = np.linspace(-0.1, 1.1, 10_001)
        v, d1, d2 = psi(x), psi.d1(x), psi.d2(x)
        ok = (
            np.all((0.0 <= v) & (v <= 1.0))
            and np.all((d1 <= 0.0) & (d1 >= -2.0))
            and np.all(np.abs(d2) <= 5.0)
            and float(psi(np.array([0.0]))[0]) == 1.0
            and float(psi(np.array([1.0]))[0]) == 0.0
            and np.all(np.diff(v) <= 1e-15)
        )
        if not ok:  # pragma: no cover - construction is static
            raise RuntimeError("base profile failed its construction self-check")
        _BASE = psi
    return _BASE


@dataclass(frozen=True)
class CutoffSpec:
    """Parameters of a cutoff: transition on [r, r + sigma], sharpness eps."""

    eps: float
    sigma: float
    r: float
    grid_n: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise ValueError("eps must lie in (0, 1]")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        # eps**2 sigma**2 divides the curvature bound, and the grid needs r + sigma > r
        if not (math.isfinite(self.r) and self.sigma * self.sigma < math.inf
                and self.eps * self.eps * self.sigma * self.sigma >= np.finfo(float).tiny):
            raise ValueError("r must be finite, sigma**2 finite and eps**2 sigma**2 a normal float")
        if self.r + self.sigma == self.r:
            raise ValueError("sigma is too small to move r (r + sigma == r)")
        if self.grid_n < 100:
            raise ValueError("grid_n must be at least 100")


@dataclass(frozen=True)
class CutoffBound:
    name: str
    margin: float          # min over the grid of (allowed - actual); >= 0 passes
    worst_x: float


@dataclass(frozen=True)
class CutoffReport:
    spec: CutoffSpec
    passed: bool
    bounds: tuple[CutoffBound, ...]

    def worst(self) -> CutoffBound:
        return min(self.bounds, key=lambda b: b.margin)


class CutoffFunction:
    """phi = psi((x - r)/sigma)^(1/eps) with analytic derivatives."""

    def __init__(self, spec: CutoffSpec):
        self.spec = spec
        self.psi = base_profile()
        self.k = 1.0 / spec.eps

    def _parts(self, x):
        x = np.asarray(x, dtype=float)
        u = (x - self.spec.r) / self.spec.sigma
        p = self.psi(u)
        inner = (u > 0.0) & (u < 1.0) & (p > _ZERO_CUT)
        flat_one = (u <= 0.0) | ((u < 1.0) & (p >= 1.0))
        return u, p, inner, flat_one

    def _jet(self, x):
        # p and the interior mask, then phi, phi' and phi'', from one
        # evaluation of the parts and of psi' on the interior
        u, p, inner, flat_one = self._parts(x)
        val, d1, d2 = np.zeros_like(p), np.zeros_like(p), np.zeros_like(p)
        val[flat_one] = 1.0
        pi, ui = p[inner], u[inner]
        psi1 = self.psi.d1(ui)
        val[inner] = pi ** self.k
        d1[inner] = (self.k / self.spec.sigma) * pi ** (self.k - 1.0) * psi1
        # phi'' may pass the largest double near the least accepted eps**2 sigma**2
        with np.errstate(over="ignore", invalid="ignore"):
            d2[inner] = (self.k / self.spec.sigma**2) * pi ** (self.k - 2.0) * (
                (self.k - 1.0) * psi1 * psi1 + pi * self.psi.d2(ui)
            )
        return p, inner, val, d1, d2

    def value(self, x):
        return self._jet(x)[2]

    def d1(self, x):
        return self._jet(x)[3]

    def d2(self, x):
        return self._jet(x)[4]

    def __call__(self, x):
        return self.value(x)


def _grid(spec: CutoffSpec) -> np.ndarray:
    g = np.linspace(spec.r - spec.sigma, spec.r + 2.0 * spec.sigma, spec.grid_n)
    return np.union1d(g, [spec.r, spec.r + spec.sigma])


def verify_cutoff(fn: CutoffFunction) -> CutoffReport:
    """Grid certification of the four cutoff conclusions.

    Sign and range constraints (phi in [0, 1], phi' <= 0, exact 1/0 on the
    flat regions) are checked with zero tolerance; the two magnitude bounds
    get a 1e-12 relative slack.  The power comparisons reuse the same
    p-powers on both sides, so the checks reduce to the base-profile bounds
    without floating-point power mismatch.
    """
    spec = fn.spec
    x = _grid(spec)
    p, inner, val, d1, d2 = fn._jet(x)
    eps, sig = spec.eps, spec.sigma

    def margin_of(allowed, actual):
        gap = allowed - actual
        i = int(np.argmin(gap)) if gap.size else 0
        return float(gap[i]) if gap.size else np.inf, float(x[i]) if gap.size else np.nan

    bounds = []
    one_region = x <= spec.r
    zero_region = x >= spec.r + spec.sigma
    m1, w1 = margin_of(np.zeros(np.count_nonzero(one_region)), np.abs(val[one_region] - 1.0))
    bounds.append(CutoffBound("flat-one-exact", m1, w1))
    m0, w0 = margin_of(np.zeros(np.count_nonzero(zero_region)), np.abs(val[zero_region]))
    bounds.append(CutoffBound("flat-zero-exact", m0, w0))
    mr, wr = margin_of(np.minimum(val, 1.0 - val), np.zeros_like(val))
    bounds.append(CutoffBound("range-unit-interval", mr, wr))
    ms, ws = margin_of(-d1, np.zeros_like(d1))
    bounds.append(CutoffBound("slope-nonpositive", ms, ws))

    # magnitude bounds on the interior, via shared powers of p
    p_in = p[inner]
    pk1 = p_in ** (fn.k - 1.0)   # phi^(1-eps)
    pk2 = p_in ** (fn.k - 2.0)   # phi^(1-2eps)
    allow1 = 2.0 * pk1 / (eps * sig)
    actual1 = -d1[inner]
    slack1 = 1e-12 * np.maximum(1.0, allow1)
    mg1, wg1 = margin_of(allow1 + slack1, actual1)
    bounds.append(CutoffBound("slope-power-bound", mg1, wg1))
    # near the least accepted eps**2 sigma**2 the bound or phi'' is inf, and the margin inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        allow2 = 5.0 * pk2 / (eps * eps * sig * sig)
        actual2 = np.abs(d2[inner])
        slack2 = 1e-12 * np.maximum(1.0, allow2)
        mg2, wg2 = margin_of(allow2 + slack2, actual2)
        bounds.append(CutoffBound("curvature-power-bound", mg2, wg2))

    return CutoffReport(spec=spec, passed=all(b.margin >= 0.0 for b in bounds), bounds=tuple(bounds))


@dataclass(frozen=True)
class VariantReport:
    spec: CutoffSpec
    c0: float
    c0_slope: float      # from |phi'|^2 <= C0 phi^(2-eps) / (4 eps^2 sigma^2)
    c0_curvature: float  # from |phi''|  <= C0 phi^(1-eps) / (2 eps^2 sigma^2)


def theorem_variant_check(spec: CutoffSpec) -> VariantReport:
    """Minimal C0 >= 1 for the squared-slope variant bounds, measured on a grid.

    After cancellation both ratios depend only on the base profile and eps
    (see module docstring), so they are evaluated on the unit grid directly.
    """
    psi = base_profile()
    u = np.linspace(0.0, 1.0, spec.grid_n)
    p = psi(u)
    mask = p > _ZERO_CUT
    p, d1, d2 = p[mask], psi.d1(u[mask]), psi.d2(u[mask])
    c_slope = float(np.max(4.0 * d1 * d1 / p))
    c_curv = float(np.max(np.abs(2.0 * (1.0 - spec.eps) * d1 * d1 / p + 2.0 * spec.eps * d2)))
    return VariantReport(
        spec=spec,
        c0=max(1.0, c_slope, c_curv),
        c0_slope=c_slope,
        c0_curvature=c_curv,
    )
