"""Reaction ODE dR/dt = 2 Q(R) of the curvature evolution, with monitors.

This integrates the fiberwise (spatially homogeneous) model: the full
curvature evolution is heat flow plus 2 Q(R), and the tensor maximum
principle reduces invariant-cone questions to exactly this ODE, so the ODE
is the strongest desk-scale check of cone invariance available.  On the
line R = c(t) I the ODE collapses to c' = 6 c^2 with closed form
c(t) = c0 / (1 - 6 c0 t), which anchors the exactness and convergence-order
tests.

:func:`integrate` advances a stack of N starts, fixed-step and adaptive
together, as a single (N, 6, 6) state in lockstep: each iteration evaluates
the first stage once over the trajectories still running, then runs one
Runge-Kutta stage sequence over every row's full step and the adaptive
rows' first half step (which share that stage), and then the adaptive rows'
second half step, each stage one Q(R) evaluation over its rows.  The step
control (time, step size, accept/reject, blow-up and time-overflow stops) is
elementwise array expressions over the running rows, so each trajectory
carries the bits it has when integrated alone; one (6, 6) start is the
N = 1 case.  Every accepted step is a row of the columns (:class:`Samples`)
of one :class:`Trajectory`, each trajectory's rows in turn, whose
diagnostics (scalar curvature and Bianchi residual, and with cone parameters
membership and l) are taken after stepping, in one stacked call.

Monitors recompute their diagnostics from the stored operators -- the
lower-bound functional l is re-derived from its closed form at every sample
(from the spectra of all stored finite operators, taken in one call), never
propagated -- so nothing in a report can drift away from the
trajectory data; each monitor is one array expression over the samples of
one trajectory, or of a stack of them with a reduction per trajectory.
The differential inequality for l pairs dR/dt = 2 Q(R) with the
right-hand side (scal) l + 6 l^2; the multiple-of-identity trajectories
saturate that inequality exactly, which pins the constant pairing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


_STATUS = ("completed", "blowup-stopped", "time-overflow")  # by the stacked core's status code


@dataclass(frozen=True, eq=False)
class Samples:
    """A trajectory's samples as columns: (n,) arrays, ``operator`` (n, 6, 6).

    ``l`` and ``member`` are None without cone parameters; l is NaN and
    member False on an operator with a non-finite entry.
    """

    t: np.ndarray
    operator: np.ndarray
    scalar: np.ndarray
    bianchi: np.ndarray
    l: np.ndarray | None
    member: np.ndarray | None

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One trajectory, or a stack of N: then status, accepted and rejected are
    (N,) arrays, ``samples`` holds each one's rows in turn, in time order,
    and ``traj[a:b]`` is the stack of trajectories a to b."""

    samples: Samples
    status: str | np.ndarray  # one of _STATUS each
    accepted: int | np.ndarray  # accepted steps
    rejected: int | np.ndarray  # trial steps rejected by the error control

    def first(self) -> np.ndarray:
        """The row at which each trajectory starts: (N,), or (1,) for one start."""
        counts = np.atleast_1d(self.accepted) + 1
        return np.cumsum(counts) - counts

    def __getitem__(self, k: slice) -> Trajectory:
        ks = range(len(self.accepted))[k]  # a TypeError for one start
        if not isinstance(ks, range) or ks.step != 1:
            raise TypeError("a stack of trajectories takes a contiguous slice")
        lo, hi = np.append(self.first(), len(self.samples))[[ks.start, ks.stop]]
        cols = {name: None if col is None else col[lo:hi] for name, col in vars(self.samples).items()}
        return Trajectory(Samples(**cols), self.status[k], self.accepted[k], self.rejected[k])


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


def integrate(r0, cfg, params: ConeParams | None = None) -> Trajectory:
    """Integrate the reaction ODE from a (6, 6) start, or from a stack.

    An (N, 6, 6) stack takes N configs, fixed-step and adaptive mixed, and
    gives a stack of N, each with the bits of its start integrated alone.
    Classical RK4; in adaptive mode each step is compared against two half
    steps, which share the full step's first stage: a trial step takes 11 Q
    evaluations in 8 sequential stacked calls, as the full step and the first
    half step run as one stage sequence.  The step size is adjusted to keep
    the estimated local error under ``rtol * max(1, |R|)``.  Passing
    ``params`` adds cone diagnostics (l and membership) to every stored
    sample.  Raises :class:`StepUnderflowError` if the accepted step of any
    trajectory collapses.
    """
    r0 = np.asarray(r0, dtype=float)
    single = isinstance(cfg, TrajectoryConfig)
    r0s, cfgs = (r0[None], [cfg]) if single else (r0, list(cfg))
    if r0s.ndim != 3 or r0s.shape[1:] != (6, 6) or len(cfgs) != len(r0s):
        raise ValueError("need a (6, 6) start and one config, or an (N, 6, 6) stack and N configs")
    n = len(cfgs)
    # the state of the running rows, compacted as rows stop; idx maps each
    # row to its trajectory
    idx = np.arange(n)
    h, t_max, rtol, blowup_norm = np.array([[c.dt, c.t_max, c.rtol, c.blowup_norm] for c in cfgs]).reshape(n, 4).T
    ad = np.array([c.adaptive for c in cfgs], dtype=bool)
    y = 0.5 * (r0s + r0s.swapaxes(-1, -2))
    t = np.zeros(n)
    t_end = t_max * (1.0 - 1e-12)
    running = t < t_end
    status = np.zeros(n, dtype=np.intp)  # an index into _STATUS
    rejected = np.zeros(n, dtype=np.intp)
    stored = [(idx, t, y)]  # (trajectory, t, operator) of the samples of each iteration

    # nothing here warns: a time past the largest float stops its row, an
    # adaptive trial step that overflows (err inf or NaN) shrinks, and a fixed
    # step that overflows is stored and stops its row
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            nrm = frobenius(y)
            h = np.minimum(h, t_max - t)
            # a row stops at its blow-up norm, or once its step grew past the largest float
            go = running & ~(nrm >= blowup_norm) & np.isfinite(t + h)
            if not go.all():
                blown = running & (nrm >= blowup_norm)
                status[idx[blown]] = 1  # "blowup-stopped"
                status[idx[running & ~blown & ~go]] = 2  # "time-overflow"
                idx, y, t, h, t_max, t_end, rtol, blowup_norm, ad, nrm = (
                    a[go] for a in (idx, y, t, h, t_max, t_end, rtol, blowup_norm, ad, nrm))
            if not idx.size:
                break
            tol = rtol * np.fmax(1.0, nrm)
            h3 = h[:, None, None]
            k1 = reaction_rhs(y)
            # every row's full step and the adaptive rows' first half step,
            # which shares k1, as one stage sequence; then the second half
            # step.  A fixed step has err 0, so it is always accepted.
            stepped = _rk4_step(np.concatenate([y, y[ad]]), np.concatenate([h3, 0.5 * h3[ad]]),
                                np.concatenate([k1, k1[ad]]))
            y_new = stepped[:len(y)]
            err = np.zeros(len(y))
            if ad.any():
                half = _rk4_step(stepped[len(y):], 0.5 * h3[ad])
                err[ad] = frobenius(half - y_new[ad]) / 15.0
                y_new[ad] = half
            y_new = 0.5 * (y_new + y_new.swapaxes(-1, -2))
            ok = err <= tol
            # relative to t, not t_max: an early blow-up in a long horizon
            h_floor = 1e-14 * np.maximum(1.0, t)
            stuck = ~ok & (h <= h_floor * 1.01)
            if stuck.any():
                raise StepUnderflowError(f"step underflow at t={t[stuck.argmax()]:.6g}")
            # the bits of Python floats: np.float_power rounds as ** does, which
            # np.power's SIMD loop does not always; max(0.2, nan) is 0.2, as in np.fmax
            factor = 0.9 * np.float_power(tol / err, 0.2)
            grow = np.where(err == 0.0, 2.0, np.minimum(5.0, np.maximum(0.2, factor)))
            shrunk = np.maximum(h * np.fmax(0.2, factor), h_floor)
            t = np.where(ok, t + h, t)
            h = np.where(ad, np.where(ok, h * grow, shrunk), h)
            y = np.where(ok[:, None, None], y_new, y)
            rejected[idx] += ~ok
            stored.append((idx[ok], t[ok], y_new[ok]))
            blew_up = ok & ~np.isfinite(y_new).all(axis=(-2, -1))
            status[idx[blew_up]] = 1  # "blowup-stopped"
            running = ~blew_up & (t < t_end)

    # every trajectory's samples together, in time order, for one stacked
    # call of each diagnostic
    owner, ts, ops = (np.concatenate(col) for col in zip(*stored))
    order = np.argsort(owner, kind="stable")
    ts, ops = ts[order], ops[order]
    accepted = np.bincount(owner, minlength=n) - 1  # every stored row but the start
    l, member = (None, None) if params is None else _cone_diagnostics(ops, params)
    samples = Samples(ts, ops, scalar(ops), bianchi_residual(ops), l, member)
    if single:
        return Trajectory(samples, _STATUS[status[0]], int(accepted[0]), int(rejected[0]))
    return Trajectory(samples, np.array(_STATUS)[status], accepted, rejected)


def _cone_diagnostics(ops, params: ConeParams):
    # l and membership of stored operators, NaN and False where an entry is not finite
    finite = np.isfinite(ops).all(axis=(-2, -1))
    spectra = block_spectra(ops[finite])
    l, member = np.full(len(ops), np.nan), np.zeros(len(ops), dtype=bool)
    member[finite] = is_member(ops[finite], params, blocks=spectra)
    with np.errstate(over="ignore", invalid="ignore"):
        l[finite] = _l(_spectra(ops[finite], spectra), params)
    return l, member


# ---------------------------------------------------------------------------
# monitors
# ---------------------------------------------------------------------------

def invariance_monitor(traj: Trajectory, params: ConeParams):
    """max_t l(R(t)) over the stored samples, recomputed from the operators.

    For a trajectory started at a member this stays at the rounding level
    of the integrator and the spectra: the cone is invariant under the
    reaction flow.  It is NaN if a stored operator is not finite.  Given a
    stack of trajectories, returns an array of their maxima, from one
    spectra call over all their operators.
    """
    ls, first = _cone_diagnostics(traj.samples.operator, params)[0], traj.first()
    worst = np.maximum.reduceat(ls, first) if len(first) else ls
    return float(worst[0]) if isinstance(traj.status, str) else worst


# The step monitor below is an array expression over the steps that
# reproduces a loop over them in Python floats: maxima and minima keep the
# first operand unless the second beats it (so NaN never wins), and |R|^3 is
# taken by pow, as Python's x**3 takes it.  Python floats warn of no inf or
# NaN (and where x**3 would raise OverflowError the arrays give inf), so the
# monitor silences numpy's warnings.  Over a stack of trajectories, row j
# of the operators is the left end of step j, which is kept only if row
# j + 1 belongs to the same trajectory; each trajectory's rows then hold its
# steps and one row that is no step, which takes the identity of a
# per-trajectory reduction, so that no reduction is over an empty segment.

def _steps(traj: Trajectory):
    # operators, the length of the step from each row, a mask of the kept
    # steps (positive length, within one trajectory) and each first row
    ops, t, first = traj.samples.operator, traj.samples.t, traj.first()
    dt = _next(t) - t
    kept = ~(dt <= 0.0)
    kept[first[1:] - 1] = False
    kept[-1:] = False
    return ops, dt, kept, first


def _next(x):
    # each row's successor, the last row repeated in its place
    return np.concatenate([x[1:], x[-1:]])


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


def l_inequality_monitor(traj: Trajectory, params: ConeParams):
    """Check D+ l <= (scal) l + 6 l^2 + 1e-3 (1 + |R|^3) dt along a trajectory.

    Steps of nonpositive length, or with a non-finite l at either end, are
    skipped.  Given a stack of trajectories, returns a list of reports,
    from one spectra call over all their operators.
    """
    ops, dt, kept, first = _steps(traj)
    ls, _ = _cone_diagnostics(ops, params)
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = scalar(ops) * ls + 6.0 * ls * ls
        finite = np.isfinite(ls)
        kept &= finite & _next(finite)
        dt, r0, r1 = dt[kept], rhs[kept], _next(rhs)[kept]
        quot = (_next(ls)[kept] - ls[kept]) / dt
        # 1e-3 (1 + |R|^3) dt, |R| at the left end of each step
        tol_slack = 1e-3 * (1.0 + np.float_power(frobenius(ops)[kept], 3)) * dt
        worst = _least(np.where(r1 > r0, r1, r0) + tol_slack - quot, kept, first)
        worst_left = _least(r0 + tol_slack - quot, kept, first)
    steps = (np.add.reduceat(kept.astype(np.intp), first) if len(first) else kept).tolist()
    reports = [LInequalityReport(*rep) for rep in zip(worst, worst_left, steps)]
    return reports[0] if isinstance(traj.status, str) else reports

