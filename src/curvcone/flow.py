"""Reaction ODE dR/dt = 2 Q(R) of the curvature evolution, with monitors.

This integrates the fiberwise (spatially homogeneous) model: the full
curvature evolution is heat flow plus 2 Q(R), and the tensor maximum
principle reduces invariant-cone questions to exactly this ODE, so the ODE
is the strongest desk-scale check of cone invariance available.  On the
line R = c(t) I the ODE collapses to c' = 6 c^2 with closed form
c(t) = c0 / (1 - 6 c0 t), which anchors the exactness and convergence-order
tests.

One stacked core, :func:`_integrate_stack`, advances N starting operators
as a single (N, 6, 6) state: every Runge-Kutta stage is one Q(R)
evaluation over the trajectories still running, while the time, step size,
accept/reject decision and blow-up stop of each trajectory are kept apart,
as Python floats, so that each trajectory carries the bits it has when
integrated alone.  :func:`integrate` is the N = 1 case.  The diagnostics of
the stored samples (spectra, scalar curvature, Bianchi residual, and with
cone parameters l and membership) are taken after stepping, in one stacked
call per trajectory.

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
    """Integration controls of one trajectory.

    ``dt`` is the initial (or, with ``adaptive=False``, the fixed) step;
    local error per step is held below ``rtol * max(1, |R|)`` by step
    halving/doubling; integration stops at ``t_max`` or once |R| reaches
    ``blowup_norm``.  ``store_every`` keeps every n-th accepted step (the
    final state is always kept).  In a stack integrated together each
    trajectory keeps its own config; only ``adaptive`` must agree across
    the stack.
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
    accepted: int  # accepted steps
    rejected: int  # trial steps rejected by the error control

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]


def reaction_rhs(m) -> np.ndarray:
    """Right-hand side 2 Q(R); degree-2 homogeneous."""
    return 2.0 * q_operator(m)


def _rk4_step(y: np.ndarray, h) -> np.ndarray:
    # h is a float, or an (n, 1, 1) array of per-operator steps for y of
    # shape (n, 6, 6)
    k1 = reaction_rhs(y)
    k2 = reaction_rhs(y + 0.5 * h * k1)
    k3 = reaction_rhs(y + 0.5 * h * k2)
    k4 = reaction_rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(r0, cfg: TrajectoryConfig, params: ConeParams | None = None) -> Trajectory:
    """Integrate the reaction ODE from r0.

    Classical RK4; in adaptive mode each step is compared against two half
    steps and the step size is adjusted to keep the estimated local error
    under ``rtol * max(1, |R|)``.  Passing ``params`` adds cone diagnostics
    (l and membership) to every stored sample.  Raises
    :class:`StepUnderflowError` if the accepted step collapses.
    """
    return _integrate_stack(np.asarray(r0, dtype=float)[None], [cfg], params)[0]


def _integrate_stack(r0s, cfgs, params: ConeParams | None = None) -> list[Trajectory]:
    """Integrate N starts (an (N, 6, 6) stack) together, one config each.

    Returns one :class:`Trajectory` per start, each equal field by field
    and bit for bit to :func:`integrate` on that start alone.  All configs
    must share one ``adaptive`` mode.  Raises :class:`StepUnderflowError`
    if the accepted step of any trajectory collapses.
    """
    r0s = np.asarray(r0s, dtype=float)
    cfgs = list(cfgs)
    if r0s.ndim != 3 or r0s.shape[1:] != (6, 6) or len(cfgs) != len(r0s):
        raise ValueError("need an (N, 6, 6) stack of starts and N configs")
    if len({c.adaptive for c in cfgs}) > 1:
        raise ValueError("the configs of one stack must share one adaptive mode")
    adaptive = bool(cfgs) and cfgs[0].adaptive
    n = len(cfgs)
    y = 0.5 * (r0s + r0s.swapaxes(-1, -2))  # every trajectory's state, updated in place
    t = [0.0] * n
    h = [c.dt for c in cfgs]
    h_floor = [1e-14 * max(1.0, c.t_max) for c in cfgs]
    t_end = [c.t_max * (1.0 - 1e-12) for c in cfgs]
    status = ["completed"] * n
    accepted = [0] * n
    rejected = [0] * n
    stored = [[(0.0, yi.copy())] for yi in y]  # (t, operator) to keep
    active = [i for i in range(n) if t[i] < t_end[i]]

    while active:
        rows, tols = [], []
        for i, nrm in zip(active, frobenius(y[active]).tolist()):
            if nrm >= cfgs[i].blowup_norm:
                status[i] = "blowup-stopped"
                continue
            h[i] = min(h[i], cfgs[i].t_max - t[i])
            rows.append(i)
            tols.append(cfgs[i].rtol * max(1.0, nrm))
        if not rows:
            break
        ys = y[rows]
        hs = np.array([h[i] for i in rows])[:, None, None]
        if adaptive:
            # a trial step that overflows gives err = inf or NaN and shrinks
            with np.errstate(over="ignore", invalid="ignore"):
                big = _rk4_step(ys, hs)
                half = _rk4_step(_rk4_step(ys, 0.5 * hs), 0.5 * hs)
                errs = (frobenius(half - big) / 15.0).tolist()
            ok = []
            for k, (i, err, tol) in enumerate(zip(rows, errs, tols)):
                if not err <= tol:
                    if h[i] <= h_floor[i] * 1.01:
                        raise StepUnderflowError(f"step underflow at t={t[i]:.6g}")
                    shrink = max(0.2, 0.9 * (tol / err) ** 0.2)
                    h[i] = max(h[i] * shrink, h_floor[i])
                    rejected[i] += 1
                    continue
                grow = 2.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
                t[i] += h[i]
                h[i] *= grow
                ok.append(k)
            y_new = half[ok]
            rows = [rows[k] for k in ok]
        else:
            y_new = _rk4_step(ys, hs)
            for i in rows:
                t[i] += h[i]
        y_new = 0.5 * (y_new + y_new.swapaxes(-1, -2))
        y[rows] = y_new
        finite = np.isfinite(y_new).all(axis=(-2, -1)).tolist()
        for i, yi, fin in zip(rows, y_new, finite):
            accepted[i] += 1
            if accepted[i] % cfgs[i].store_every == 0 or t[i] >= t_end[i]:
                stored[i].append((t[i], yi.copy()))
            if not fin:
                status[i] = "blowup-stopped"
        active = [i for i in active if status[i] == "completed" and t[i] < t_end[i]]

    out = []
    for i, kept in enumerate(stored):
        if kept[-1][0] < t[i] * (1.0 - 1e-12):
            kept.append((t[i], y[i]))
        out.append(_trajectory(kept, status[i], accepted[i], rejected[i], params))
        kept.clear()  # the trajectory holds its own copy
    return out


def _trajectory(stored, status, accepted, rejected, params) -> Trajectory:
    # the diagnostics of one trajectory's stored operators, in one stacked call each
    ops = np.stack([op for _, op in stored])
    ea, ec, sb = block_spectra(ops)
    scal = scalar(ops, warn=False).tolist()
    bianchi = bianchi_residual(ops).tolist()
    a12 = (ea[:, 0] + ea[:, 1]).tolist()
    if params is None:
        members = ls = [None] * len(ops)
    else:
        members = is_member(ops, params, blocks=(ea, ec, sb)).tolist()
        ls = [0.0 if mb else lower_bound_l(op, params, blocks=(ea[k], ec[k], sb[k]))
              for k, (op, mb) in enumerate(zip(ops, members))]
    samples = tuple(
        TrajectorySample(t=ti, operator=op, scalar=s, bianchi=b, a1_plus_a2=a, l=lv, member=mb)
        for (ti, _), op, s, b, a, lv, mb in zip(stored, ops, scal, bianchi, a12, ls, members)
    )
    return Trajectory(samples, status, accepted, rejected)


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
    ops = _operators(traj)
    spectra = block_spectra(ops)[0]
    norms = frobenius(ops).tolist()
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
        tol_slack = 1e-3 * (1.0 + norms[i] ** 3) * dt_i
        slack = quot - (min(rhs[i], rhs[i + 1]) - tol_slack)
        worst = min(worst, slack)
        ok += slack >= 0.0
        steps += 1
    frac = ok / steps if steps else 1.0
    return StrongMaxReport(float(worst), float(frac), steps)
