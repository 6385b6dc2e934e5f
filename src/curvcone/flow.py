"""Reaction ODE dR/dt = 2 Q(R) of the curvature evolution, with monitors.

This integrates the fiberwise (spatially homogeneous) model: the full
curvature evolution is heat flow plus 2 Q(R), and the tensor maximum
principle reduces invariant-cone questions to exactly this ODE, so the ODE
is the strongest desk-scale check of cone invariance available.  On the
line R = c(t) I the ODE collapses to c' = 6 c^2 with closed form
c(t) = c0 / (1 - 6 c0 t), which anchors the exactness and convergence-order
tests.

Monitors recompute their diagnostics from the stored operators -- the
lower-bound functional l is re-derived from its closed form at every sample
(from the spectra of all stored operators, taken in one call), never
propagated -- so nothing in a report can drift away from the
trajectory data.  The differential inequality for l pairs dR/dt = 2 Q(R) with the
right-hand side (scal) l + 6 l^2; the multiple-of-identity trajectories
saturate that inequality exactly, which pins the constant pairing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cone import ConeParams, _l_each, is_member, lower_bound_l
from .decomposition import block_spectra
from .wedge import bianchi_residual, frobenius, q_operator, scalar


class StepUnderflowError(RuntimeError):
    """Raised when adaptive stepping cannot make progress."""


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration controls.

    ``dt`` is the initial (or, with ``adaptive=False``, the fixed) step;
    local error per step is held below ``rtol * max(1, |R|)`` by step
    halving/doubling; integration stops at ``t_max`` or once |R| reaches
    ``blowup_norm``.  ``store_every`` keeps every n-th accepted step (the
    final state is always kept).
    """

    dt: float
    t_max: float
    rtol: float = 1e-9
    blowup_norm: float = 1e8
    adaptive: bool = True
    store_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.dt <= self.t_max:
            raise ValueError("need 0 < dt <= t_max")
        if not 1e-14 < self.rtol < 1e-2:
            raise ValueError("rtol must lie in (1e-14, 1e-2)")
        if not self.blowup_norm > 0:
            raise ValueError("blowup_norm must be positive")
        if self.store_every < 1:
            raise ValueError("store_every must be at least 1")


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    t: float
    operator: np.ndarray
    scalar: float
    bianchi: float
    a1_plus_a2: float
    l: float | None
    member: bool | None


@dataclass(frozen=True, eq=False)
class Trajectory:
    samples: tuple[TrajectorySample, ...]
    status: str  # "completed" | "blowup-stopped"

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]


def reaction_rhs(m) -> np.ndarray:
    """Right-hand side 2 Q(R); degree-2 homogeneous."""
    return 2.0 * q_operator(m)


def _rk4_step(y: np.ndarray, h: float) -> np.ndarray:
    k1 = reaction_rhs(y)
    k2 = reaction_rhs(y + 0.5 * h * k1)
    k3 = reaction_rhs(y + 0.5 * h * k2)
    k4 = reaction_rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _make_sample(t, y, params) -> TrajectorySample:
    spectra = block_spectra(y)
    ea = spectra[0]
    l_val = member = None
    if params is not None:
        member = is_member(y, params, blocks=spectra)
        l_val = 0.0 if member else lower_bound_l(y, params, blocks=spectra)
    return TrajectorySample(
        t=float(t),
        operator=y.copy(),
        scalar=scalar(y, warn=False),
        bianchi=bianchi_residual(y),
        a1_plus_a2=float(ea[0] + ea[1]),
        l=l_val,
        member=member,
    )


def integrate(r0, cfg: TrajectoryConfig, params: ConeParams | None = None) -> Trajectory:
    """Integrate the reaction ODE from r0.

    Classical RK4; in adaptive mode each step is compared against two half
    steps and the step size is adjusted to keep the estimated local error
    under ``rtol * max(1, |R|)``.  Passing ``params`` adds cone diagnostics
    (l and membership) to every stored sample.  Raises
    :class:`StepUnderflowError` if the accepted step collapses.
    """
    y = np.asarray(r0, dtype=float)
    y = 0.5 * (y + y.T)
    t = 0.0
    h = cfg.dt
    h_floor = 1e-14 * max(1.0, cfg.t_max)
    samples = [_make_sample(t, y, params)]
    status = "completed"
    accepted = 0
    t_end = cfg.t_max * (1.0 - 1e-12)

    while t < t_end:
        if frobenius(y) >= cfg.blowup_norm:
            status = "blowup-stopped"
            break
        h = min(h, cfg.t_max - t)
        if cfg.adaptive:
            # a trial step that overflows gives err = inf or NaN and shrinks
            with np.errstate(over="ignore", invalid="ignore"):
                big = _rk4_step(y, h)
                half = _rk4_step(_rk4_step(y, 0.5 * h), 0.5 * h)
                err = frobenius(half - big) / 15.0
            tol = cfg.rtol * max(1.0, frobenius(y))
            if not err <= tol:
                if h <= h_floor * 1.01:
                    raise StepUnderflowError(f"step underflow at t={t:.6g}")
                shrink = max(0.2, 0.9 * (tol / err) ** 0.2)
                h = max(h * shrink, h_floor)
                continue
            y_new = half
            grow = 2.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
            next_h = h * grow
        else:
            y_new = _rk4_step(y, h)
            next_h = h
        t += h
        h = next_h
        y = 0.5 * (y_new + y_new.T)
        accepted += 1
        if accepted % cfg.store_every == 0 or t >= t_end:
            samples.append(_make_sample(t, y, params))
        if not np.all(np.isfinite(y)):
            status = "blowup-stopped"
            break
    if samples[-1].t < t * (1.0 - 1e-12):
        samples.append(_make_sample(t, y, params))
    return Trajectory(samples=tuple(samples), status=status)


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def invariance_monitor(traj: Trajectory, params: ConeParams) -> float:
    """max_t l(R(t)) over the stored samples, recomputed from the operators.

    For a trajectory started at a member this stays at the rounding level
    of the integrator and the spectra: the cone is invariant under the
    reaction flow.
    """
    return max(_l_each(_operators(traj), params))


def _operators(traj: Trajectory) -> np.ndarray:
    # the stored operators as one (n, 6, 6) stack
    return np.stack([s.operator for s in traj.samples])


@dataclass(frozen=True)
class LInequalityReport:
    """Worst forward-quotient slack of the l differential inequality.

    ``worst_slack`` uses the larger of the two endpoint values of
    (scal) l + 6 l^2 on each step; that is the honest discrete rendering of
    the pointwise inequality (the quotient averages the derivative across
    the step, so a left-endpoint comparison fails by O(step) on the
    saturating multiple-of-identity trajectories no matter how small the
    slack allowance).  ``worst_slack_left`` reports the left-endpoint
    variant for diagnostics.
    """

    worst_slack: float
    worst_slack_left: float
    steps: int


def l_inequality_monitor(traj: Trajectory, params: ConeParams) -> LInequalityReport:
    """Check D+ l <= (scal) l + 6 l^2 + 1e-3 (1 + |R|^3) dt along a trajectory."""
    samples = traj.samples
    ops = _operators(traj)
    ls = _l_each(ops, params)
    norms = frobenius(ops).tolist()
    rhs = [s.scalar * li + 6.0 * li * li for s, li in zip(samples, ls)]
    worst = worst_left = np.inf
    steps = 0
    for i in range(len(samples) - 1):
        dt_i = samples[i + 1].t - samples[i].t
        if dt_i <= 0.0 or not (np.isfinite(ls[i]) and np.isfinite(ls[i + 1])):
            continue
        quot = (ls[i + 1] - ls[i]) / dt_i
        tol_slack = 1e-3 * (1.0 + norms[i] ** 3) * dt_i
        worst = min(worst, max(rhs[i], rhs[i + 1]) + tol_slack - quot)
        worst_left = min(worst_left, rhs[i] + tol_slack - quot)
        steps += 1
    return LInequalityReport(float(worst), float(worst_left), steps)


@dataclass(frozen=True)
class StrongMaxReport:
    worst_slack: float
    fraction_ok: float
    steps: int


def strong_max_monitor(traj: Trajectory) -> StrongMaxReport:
    """Advisory check of D+ (A_1+A_2) >= 2 (A_1+A_2)(2 A_3 + A_1) - tol.

    The factor 2 matches dR/dt = 2 Q(R).  Eigenvalue sums are only
    Lipschitz, so this is a diagnostic (fraction of steps passing), not a
    gate.
    """
    samples = traj.samples
    spectra = block_spectra(_operators(traj))[0]
    rhs = [2.0 * (ea[0] + ea[1]) * (2.0 * ea[2] + ea[0]) for ea in spectra]
    worst = np.inf
    ok = 0
    steps = 0
    for i in range(len(samples) - 1):
        dt_i = samples[i + 1].t - samples[i].t
        if dt_i <= 0.0:
            continue
        x0 = spectra[i][0] + spectra[i][1]
        x1 = spectra[i + 1][0] + spectra[i + 1][1]
        quot = (x1 - x0) / dt_i
        tol_slack = 1e-3 * (1.0 + frobenius(samples[i].operator) ** 3) * dt_i
        slack = quot - (min(rhs[i], rhs[i + 1]) - tol_slack)
        worst = min(worst, slack)
        ok += slack >= 0.0
        steps += 1
    frac = ok / steps if steps else 1.0
    return StrongMaxReport(float(worst), float(frac), steps)
