"""Reaction ODE dR/dt = 2 Q(R) of the curvature evolution, with monitors.

This integrates the fiberwise (spatially homogeneous) model: the full
curvature evolution is heat flow plus 2 Q(R), and the tensor maximum
principle reduces invariant-cone questions to exactly this ODE, so the ODE
is the strongest desk-scale check of cone invariance available.  On the
line R = c(t) I the ODE collapses to c' = 6 c^2 with closed form
c(t) = c0 / (1 - 6 c0 t), which anchors the exactness and convergence-order
tests.

One stacked core, :func:`_integrate_stack`, advances N starting operators,
fixed-step and adaptive together, as a single (N, 6, 6) state in lockstep:
each iteration evaluates the first stage once over the trajectories still
running, then runs one Runge-Kutta stage sequence over every row's full
step and the adaptive rows' first half step (which share that stage), and
then the adaptive rows' second half step, each stage one Q(R) evaluation
over its rows.  The time, step size, accept/reject decision and blow-up
stop of each trajectory are kept apart, as Python floats, so that each
trajectory carries the bits it has when integrated alone.
:func:`integrate` is the N = 1 case.  Every accepted step is stored.  The
diagnostics of the stored samples (scalar curvature and Bianchi residual,
and with cone parameters membership and l from one spectra call) are taken
after stepping, in one stacked call over all trajectories.

Monitors recompute their diagnostics from the stored operators -- the
lower-bound functional l is re-derived from its closed form at every sample
(from the spectra of all stored operators, taken in one call), never
propagated -- so nothing in a report can drift away from the
trajectory data; each monitor is one array expression over the samples of
one trajectory, or of a sequence of them with a reduction per trajectory.
The differential inequality for l pairs dR/dt = 2 Q(R) with the
right-hand side (scal) l + 6 l^2; the multiple-of-identity trajectories
saturate that inequality exactly, which pins the constant pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .cone import ConeParams, _l, _spectra, is_member
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
    ``blowup_norm``.  With ``t_max = inf`` (adaptive steps only) it also
    stops, with status ``time-overflow``, at the last time whose next step
    would not be finite.  In a stack integrated together each trajectory
    keeps its own config, ``adaptive`` included.
    """

    dt: float
    t_max: float
    rtol: float = 1e-9
    blowup_norm: float = 1e8
    adaptive: bool = True

    def __post_init__(self):
        if not 0.0 < self.dt <= self.t_max:
            raise ValueError("need 0 < dt <= t_max")
        if not (self.adaptive or math.isfinite(self.t_max)):
            raise ValueError("a fixed step needs a finite t_max")
        if not 1e-14 < self.rtol < 1e-2:
            raise ValueError("rtol must lie in (1e-14, 1e-2)")
        if not self.blowup_norm > 0:
            raise ValueError("blowup_norm must be positive")


@dataclass(frozen=True, eq=False)
class TrajectorySample:
    t: float
    operator: np.ndarray
    scalar: float
    bianchi: float
    l: float | None
    member: bool | None


@dataclass(frozen=True, eq=False)
class Trajectory:
    samples: tuple[TrajectorySample, ...]
    status: str  # "completed" | "blowup-stopped" | "time-overflow"
    accepted: int  # accepted steps
    rejected: int  # trial steps rejected by the error control

    @property
    def final(self) -> TrajectorySample:
        return self.samples[-1]


def reaction_rhs(m) -> np.ndarray:
    """Right-hand side 2 Q(R); degree-2 homogeneous."""
    return 2.0 * q_operator(m)


def _rk4_step(y: np.ndarray, h, k1=None) -> np.ndarray:
    # h is a float, or an (n, 1, 1) array of per-operator steps for y of
    # shape (n, 6, 6); k1, if given, is reaction_rhs(y)
    if k1 is None:
        k1 = reaction_rhs(y)
    k2 = reaction_rhs(y + 0.5 * h * k1)
    k3 = reaction_rhs(y + 0.5 * h * k2)
    k4 = reaction_rhs(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(r0, cfg: TrajectoryConfig, params: ConeParams | None = None) -> Trajectory:
    """Integrate the reaction ODE from r0.

    Classical RK4; in adaptive mode each step is compared against two half
    steps, which share the full step's first stage: a trial step takes 11 Q
    evaluations in 8 sequential stacked calls, as the full step and the first
    half step run as one stage sequence.  The step size is adjusted to keep
    the estimated local error under ``rtol * max(1, |R|)``.  Passing
    ``params`` adds cone diagnostics (l and membership) to every stored
    sample.  Raises :class:`StepUnderflowError` if the accepted step
    collapses.
    """
    return _integrate_stack(np.asarray(r0, dtype=float)[None], [cfg], params)[0]


def _integrate_stack(r0s, cfgs, params: ConeParams | None = None) -> list[Trajectory]:
    """Integrate N starts (an (N, 6, 6) stack) together, one config each.

    Returns one :class:`Trajectory` per start, each equal field by field
    and bit for bit to :func:`integrate` on that start alone.  Fixed-step
    and adaptive configs may be mixed in one stack.  Raises
    :class:`StepUnderflowError` if the accepted step of any trajectory
    collapses.
    """
    r0s = np.asarray(r0s, dtype=float)
    cfgs = list(cfgs)
    if r0s.ndim != 3 or r0s.shape[1:] != (6, 6) or len(cfgs) != len(r0s):
        raise ValueError("need an (N, 6, 6) stack of starts and N configs")
    n = len(cfgs)
    y = 0.5 * (r0s + r0s.swapaxes(-1, -2))  # every trajectory's state, updated in place
    t = [0.0] * n
    h = [c.dt for c in cfgs]
    t_end = [c.t_max * (1.0 - 1e-12) for c in cfgs]
    status = ["completed"] * n
    accepted = [0] * n
    rejected = [0] * n
    stored = [[(0.0, yi)] for yi in y.copy()]  # (t, operator) of every accepted step
    active = [i for i in range(n) if t[i] < t_end[i]]

    while active:
        rows, tols = [], []
        for i, nrm in zip(active, frobenius(y[active]).tolist()):
            if nrm >= cfgs[i].blowup_norm:
                status[i] = "blowup-stopped"
                continue
            h[i] = min(h[i], cfgs[i].t_max - t[i])
            if not math.isfinite(t[i] + h[i]):
                # an infinite horizon: the step has grown past the largest float
                status[i] = "time-overflow"
                continue
            rows.append(i)
            tols.append(cfgs[i].rtol * max(1.0, nrm))
        if not rows:
            break
        ys = y[rows]
        hs = np.array([h[i] for i in rows])[:, None, None]
        ad = [k for k, i in enumerate(rows) if cfgs[i].adaptive]
        # an adaptive trial step that overflows gives err = inf or NaN and
        # shrinks; a fixed step that overflows is stored and stops its row
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = reaction_rhs(ys)
            # every row's full step and the adaptive rows' first half step,
            # which shares k1, as one stage sequence; then the second half step
            stepped = _rk4_step(np.concatenate([ys, ys[ad]]), np.concatenate([hs, 0.5 * hs[ad]]),
                                np.concatenate([k1, k1[ad]]))
            y_new = stepped[:len(rows)]
            if ad:
                half = _rk4_step(stepped[len(rows):], 0.5 * hs[ad])
                errs = iter((frobenius(half - y_new[ad]) / 15.0).tolist())
                y_new[ad] = half
            y_new = 0.5 * (y_new + y_new.swapaxes(-1, -2))
        ok = []
        for k, (i, tol) in enumerate(zip(rows, tols)):
            if cfgs[i].adaptive:
                err = next(errs)
                if not err <= tol:
                    # relative to t, not t_max: an early blow-up in a long horizon
                    h_floor = 1e-14 * max(1.0, t[i])
                    if h[i] <= h_floor * 1.01:
                        raise StepUnderflowError(f"step underflow at t={t[i]:.6g}")
                    shrink = max(0.2, 0.9 * (tol / err) ** 0.2)
                    h[i] = max(h[i] * shrink, h_floor)
                    rejected[i] += 1
                    continue
                grow = 2.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * (tol / err) ** 0.2))
                t[i] += h[i]
                h[i] *= grow
            else:
                t[i] += h[i]
            ok.append(k)
        rows = [rows[k] for k in ok]
        y_new = y_new[ok]
        y[rows] = y_new
        finite = np.isfinite(y_new).all(axis=(-2, -1)).tolist()
        for i, yi, fin in zip(rows, y_new, finite):
            accepted[i] += 1
            stored[i].append((t[i], yi))  # a row of y_new, which nothing writes to
            if not fin:
                status[i] = "blowup-stopped"
        active = [i for i in active if status[i] == "completed" and t[i] < t_end[i]]

    # the diagnostics of every stored operator, in one stacked call each
    kept = [sample for steps in stored for sample in steps]
    ops = np.stack([op for _, op in kept]) if kept else np.zeros((0, 6, 6))
    scal = scalar(ops).tolist()
    bianchi = bianchi_residual(ops).tolist()
    if params is None:
        members = ls = [None] * len(ops)
    else:
        spectra = block_spectra(ops)
        members = is_member(ops, params, blocks=spectra).tolist()
        with np.errstate(over="ignore", invalid="ignore"):
            ls = _l(_spectra(ops, spectra), params).tolist()
    # positional fields: keywords would double the cost of each sample
    samples = map(TrajectorySample, [ti for ti, _ in kept], ops, scal, bianchi, ls, members)
    return [Trajectory(tuple(islice(samples, len(steps))), status[i], accepted[i], rejected[i])
            for i, steps in enumerate(stored)]


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def _trajectories(traj):
    # (whether one trajectory was given, the trajectories as a list)
    return (True, [traj]) if isinstance(traj, Trajectory) else (False, list(traj))


def _columns(trajs):
    # the stored operators and times of a list of trajectories, concatenated,
    # and the row of each trajectory's first sample
    samples = [s for tr in trajs for s in tr.samples]
    ops = np.stack([s.operator for s in samples]) if samples else np.zeros((0, 6, 6))
    t = np.array([s.t for s in samples], dtype=float)
    first = np.cumsum([0] + [len(tr.samples) for tr in trajs])[:-1]
    return ops, t, first


def invariance_monitor(traj, params: ConeParams):
    """max_t l(R(t)) over the stored samples, recomputed from the operators.

    For a trajectory started at a member this stays at the rounding level
    of the integrator and the spectra: the cone is invariant under the
    reaction flow.  Given a sequence of trajectories, returns an array of
    their maxima, from one spectra call over all their operators.
    """
    single, trajs = _trajectories(traj)
    ops, _, first = _columns(trajs)
    with np.errstate(over="ignore", invalid="ignore"):
        ls = _l(_spectra(ops), params)
    worst = np.maximum.reduceat(ls, first) if len(first) else ls
    return float(worst[0]) if single else worst


# The two step monitors below are array expressions over the steps that
# reproduce a loop over them in Python floats: maxima and minima keep the
# first operand unless the second beats it (so NaN never wins), and |R|^3 is
# taken by pow, as Python's x**3 takes it.  Python floats warn of no inf or
# NaN (and where x**3 would raise OverflowError the arrays give inf), so the
# monitors silence numpy's warnings.  Over a sequence of trajectories, row j
# of the concatenated operators is the left end of step j, which is kept only
# if row j + 1 belongs to the same trajectory; each trajectory's rows then
# hold its steps and one row that is no step, which takes the identity of a
# per-trajectory reduction, so that no reduction is over an empty segment.

def _steps(trajs):
    # operators, the length of the step from each row, a mask of the kept
    # steps (positive length, within one trajectory) and each first row
    ops, t, first = _columns(trajs)
    dt = _next(t) - t
    kept = ~(dt <= 0.0)
    kept[first[1:] - 1] = False
    kept[-1:] = False
    return ops, dt, kept, first


def _next(x):
    # each row's successor, the last row repeated in its place
    return np.concatenate([x[1:], x[-1:]])


def _tol_slack(ops, kept, dt):
    # 1e-3 (1 + |R|^3) dt on the kept steps, |R| at their left ends
    return 1e-3 * (1.0 + np.float_power(frobenius(ops)[kept], 3)) * dt


def _least(v, kept, first) -> list[float]:
    # per trajectory, the running min from inf of the values v of its kept steps
    rows = np.full(len(kept), np.inf)
    rows[kept] = np.where(np.isnan(v), np.inf, v)
    return (np.minimum.reduceat(rows, first) if len(first) else rows).tolist()


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


def l_inequality_monitor(traj, params: ConeParams):
    """Check D+ l <= (scal) l + 6 l^2 + 1e-3 (1 + |R|^3) dt along a trajectory.

    Steps of nonpositive length, or with a non-finite l at either end, are
    skipped.  Given a sequence of trajectories, returns a list of reports,
    from one spectra call over all their operators.
    """
    single, trajs = _trajectories(traj)
    ops, dt, kept, first = _steps(trajs)
    with np.errstate(over="ignore", invalid="ignore"):
        ls = _l(_spectra(ops), params)
        rhs = scalar(ops) * ls + 6.0 * ls * ls
        finite = np.isfinite(ls)
        kept &= finite & _next(finite)
        dt, r0, r1 = dt[kept], rhs[kept], _next(rhs)[kept]
        quot = (_next(ls)[kept] - ls[kept]) / dt
        tol_slack = _tol_slack(ops, kept, dt)
        worst = _least(np.where(r1 > r0, r1, r0) + tol_slack - quot, kept, first)
        worst_left = _least(r0 + tol_slack - quot, kept, first)
    steps = (np.add.reduceat(kept.astype(np.intp), first) if len(first) else kept).tolist()
    reports = [LInequalityReport(*rep) for rep in zip(worst, worst_left, steps)]
    return reports[0] if single else reports


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
    ops, dt, kept, first = _steps([traj])
    ea = block_spectra(ops)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        x = ea[:, 0] + ea[:, 1]
        rhs = 2.0 * x * (2.0 * ea[:, 2] + ea[:, 0])
        dt, r0, r1 = dt[kept], rhs[kept], _next(rhs)[kept]
        quot = (_next(x)[kept] - x[kept]) / dt
        slack = quot - (np.where(r1 < r0, r1, r0) - _tol_slack(ops, kept, dt))
    steps = int(kept.sum())
    frac = int((slack >= 0.0).sum()) / steps if steps else 1.0
    return StrongMaxReport(_least(slack, kept, first)[0], float(frac), steps)
