import math
from functools import lru_cache

import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import flow as fl
from curvcone import wedge as wg
from curvcone.sampling import SamplerConfig, random_member, random_nonmember, random_rotation, substream

I6 = np.eye(6)
CFG = SamplerConfig(seed=404)
P12 = cn.ConeParams(1.0, 2.0)
PARAM_SETS = (cn.ConeParams(0.5, 1.5), cn.ConeParams(1.0, 2.0), cn.ConeParams(0.1, 1.1))


def closed_form(c0, t):
    return c0 / (1.0 - 6.0 * c0 * t)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(dt=0.0, t_max=1.0),
            dict(dt=2.0, t_max=1.0),
            dict(dt=0.1, t_max=1.0, rtol=0.5),
            dict(dt=0.1, t_max=1.0, rtol=1e-15),
            dict(dt=0.1, t_max=1.0, blowup_norm=-1.0),
            dict(dt=math.nan, t_max=1.0),
            dict(dt=0.1, t_max=math.inf, adaptive=False),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            fl.TrajectoryConfig(**kwargs)


class TestRhs:
    def test_examples(self):
        np.testing.assert_allclose(fl.reaction_rhs(I6), 6.0 * I6, atol=1e-13)
        assert np.all(fl.reaction_rhs(np.zeros((6, 6))) == 0.0)

    def test_degree_two_homogeneity(self):
        m = random_member(CFG, P12, index=0)
        np.testing.assert_allclose(
            fl.reaction_rhs(3.0 * m), 9.0 * fl.reaction_rhs(m), atol=1e-11
        )


class TestIntegrate:
    def test_identity_ray_closed_form(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.1, rtol=1e-10))
        assert traj.status == "completed"
        for s in traj.samples:
            c = closed_form(1.0, s.t)
            assert np.linalg.norm(s.operator - c * I6) <= 1e-8 * np.linalg.norm(c * I6)

    def test_zero_stays_zero(self):
        traj = fl.integrate(np.zeros((6, 6)), fl.TrajectoryConfig(dt=1e-2, t_max=0.1))
        for s in traj.samples:
            assert np.all(s.operator == 0.0)

    def test_negative_ray_decays(self):
        traj = fl.integrate(-I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.5, rtol=1e-10))
        norms = [np.linalg.norm(s.operator) for s in traj.samples]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        for s in traj.samples:
            c = closed_form(-1.0, s.t)
            assert np.linalg.norm(s.operator - c * I6) <= 1e-8

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            traj = fl.integrate(I6, fl.TrajectoryConfig(dt=dt, t_max=0.1, adaptive=False))
            errs.append(np.linalg.norm(traj.final.operator - closed_form(1.0, 0.1) * I6))
        for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
            assert 12.0 <= ratio <= 20.0

    def test_blowup_stop(self):
        traj = fl.integrate(5.0 * I6, fl.TrajectoryConfig(dt=1e-3, t_max=10.0, blowup_norm=1e3))
        assert traj.status == "blowup-stopped"
        assert np.linalg.norm(traj.final.operator) >= 1e3

    def test_scaling_equivariance(self):
        r0 = random_member(CFG, P12, index=2)
        t1 = fl.integrate(2.0 * r0, fl.TrajectoryConfig(dt=1e-4, t_max=0.01, rtol=1e-11))
        t2 = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-4, t_max=0.02, rtol=1e-11))
        rel = np.linalg.norm(t1.final.operator - 2.0 * t2.final.operator) / np.linalg.norm(
            t1.final.operator
        )
        assert rel <= 1e-8

    def test_rotation_equivariance(self):
        r0 = random_member(CFG, P12, index=3)
        q = random_rotation(substream(51, "roteq"), 4)
        cfg = fl.TrajectoryConfig(dt=1e-4, t_max=0.01, rtol=1e-11)
        t1 = fl.integrate(wg.rotate_operator(r0, q), cfg)
        t2 = fl.integrate(r0, cfg)
        rel = np.linalg.norm(
            t1.final.operator - wg.rotate_operator(t2.final.operator, q)
        ) / max(1.0, np.linalg.norm(t1.final.operator))
        assert rel <= 1e-9

    def test_bianchi_and_trace_balance_along_trajectory(self):
        r0 = random_member(CFG, P12, index=4)
        traj = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-3, t_max=0.02, rtol=1e-9))
        peak = max(np.linalg.norm(s.operator) for s in traj.samples)
        for s in traj.samples:
            assert s.bianchi <= 1e-9 * max(1.0, peak)
            a, _, c = dc._blocks_of(s.operator)
            assert abs(np.trace(a) - np.trace(c)) <= 1e-10 * max(1.0, np.linalg.norm(s.operator))

    def test_diagnostics_present_with_params(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.01), params=P12)
        for s in traj.samples:
            assert s.member is True and s.l == 0.0
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.01))
        assert traj.final.member is None and traj.final.l is None

    def test_step_floor_follows_the_time_not_the_horizon(self):
        # a non-member at |R| = 3e7 reaches the blow-up norm before t = 1e-7,
        # with steps below the 1e-8 floor a horizon of 1e6 would set if the
        # floor followed t_max rather than the trajectory's time
        m = random_nonmember(SamplerConfig(seed=1), P12, index=0)
        start = m * (3e7 / wg.frobenius(m))
        ref = fl.integrate(start, fl.TrajectoryConfig(dt=1e-3, t_max=100.0), params=P12)
        assert ref.status == "blowup-stopped" and ref.final.t < 1e-7
        for t_max in (1e6, math.inf):
            traj = fl.integrate(start, fl.TrajectoryConfig(dt=1e-3, t_max=t_max), params=P12)
            assert traj.status == "blowup-stopped"
            assert (traj.accepted, traj.rejected) == (ref.accepted, ref.rejected)
            for s, r in zip(traj.samples, ref.samples, strict=True):
                assert s.t == r.t and s.operator.tobytes() == r.operator.tobytes()

    def test_infinite_horizon_stops_before_the_time_overflows(self):
        # from 0 and from -I the error estimate is 0 or tiny, so the step
        # grows until the next time would pass the largest float
        cfg = fl.TrajectoryConfig(dt=1e-3, t_max=math.inf)
        for traj in fl._integrate_stack(np.stack([0.0 * I6, -I6]), [cfg, cfg]):
            assert traj.status == "time-overflow"
            ts = [s.t for s in traj.samples]
            assert all(b > a for a, b in zip(ts, ts[1:]))
            assert math.isfinite(ts[-1]) and ts[-1] > 1e307
            # c I follows c / (1 - 6 c t): zero stays zero, -I decays below
            # the local error tolerance
            assert np.abs(traj.final.operator).max() <= 1e-9

    def test_times_strictly_increase(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.05))
        ts = [s.t for s in traj.samples]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert ts[-1] == pytest.approx(0.05, rel=1e-12)


def _starts(n: int, adaptive: bool):
    """Members, non-members, a blow-up start and the zero operator, in turn.

    Each start has its own config: dt, t_max, rtol and the blow-up norm
    differ.  The blow-up start is a non-member at |R| = 3e7, whose trial
    steps overflow on its way to the blow-up norm.
    """
    starts, cfgs = [], []
    members, nonmembers = (draw(CFG, P12, index=300 + np.arange(n)) for draw in (random_member, random_nonmember))
    for i in range(n):
        kind = i % 4
        if kind == 0:
            r0 = members[i]
            t_max = min(0.05, 0.5 / np.linalg.norm(r0))
        elif kind == 1:
            r0 = nonmembers[i]
            t_max = min(0.02, 0.3 / np.linalg.norm(r0))
        elif kind == 2:
            m = nonmembers[i]
            r0, t_max = m * (3e7 / np.linalg.norm(m)), 100.0
        else:
            r0, t_max = np.zeros((6, 6)), 0.05 + 0.01 * i
        starts.append(r0)
        cfgs.append(fl.TrajectoryConfig(
            dt=(1e-3 if adaptive else 5e-4) * (1 + i % 2), t_max=t_max, rtol=1e-8 if i % 2 else 1e-9,
            blowup_norm=1e8 if kind == 2 else 1e6 * (1 + i), adaptive=adaptive,
        ))
    return np.array(starts), cfgs


@lru_cache(maxsize=None)
def _singles(adaptive: bool, with_params: bool):
    starts, cfgs = _starts(30, adaptive)
    params = P12 if with_params else None
    with np.errstate(over="ignore", invalid="ignore"):
        return starts, cfgs, [fl.integrate(r0, c, params) for r0, c in zip(starts, cfgs)]


def _assert_same_trajectory(a, b):
    assert (a.status, a.accepted, a.rejected) == (b.status, b.accepted, b.rejected)
    assert len(a.samples) == len(b.samples)
    for sa, sb in zip(a.samples, b.samples):
        assert sa.operator.shape == (6, 6)
        assert sa.operator.tobytes() == sb.operator.tobytes()
        for name in ("t", "scalar", "bianchi", "l", "member"):
            va, vb = getattr(sa, name), getattr(sb, name)
            assert type(va) is type(vb) and repr(va) == repr(vb), name


@pytest.mark.parametrize("with_params", [False, True], ids=["plain", "params"])
@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
class TestIntegrateStack:
    @pytest.mark.parametrize("n", [1, 7, 30])
    def test_stack_matches_single_integrations(self, n, adaptive, with_params):
        starts, cfgs, singles = _singles(adaptive, with_params)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = fl._integrate_stack(starts[:n], cfgs[:n], P12 if with_params else None)
        assert len(stacked) == n
        for a, b in zip(stacked, singles):
            _assert_same_trajectory(a, b)

    def test_permuted_stack(self, adaptive, with_params):
        starts, cfgs, singles = _singles(adaptive, with_params)
        order = np.random.default_rng(5).permutation(len(starts))
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = fl._integrate_stack(starts[order], [cfgs[k] for k in order],
                                          P12 if with_params else None)
        for a, k in zip(stacked, order):
            _assert_same_trajectory(a, singles[k])

    def test_covers_every_kind_of_start(self, adaptive, with_params):
        _, cfgs, singles = _singles(adaptive, with_params)
        assert {t.status for t in singles} == {"completed", "blowup-stopped"}
        assert {c.t_max for c in cfgs[3::4]} == {0.05 + 0.01 * i for i in range(3, 30, 4)}
        if with_params:
            assert {s.member for t in singles for s in t.samples} == {True, False}
        if adaptive:
            assert singles[2].rejected > 0


class TestIntegrateStackContract:
    def test_shape_and_config_count_checked(self):
        cfg = fl.TrajectoryConfig(dt=1e-3, t_max=0.01)
        with pytest.raises(ValueError):
            fl._integrate_stack(np.stack([I6, I6]), [cfg])
        with pytest.raises(ValueError):
            fl._integrate_stack(I6, [cfg] * 6)

    def test_empty_stack(self):
        assert fl._integrate_stack(np.zeros((0, 6, 6)), []) == []

    def test_step_counts(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.05))
        assert traj.accepted == len(traj.samples) - 1
        fixed = fl.integrate(I6, fl.TrajectoryConfig(dt=5e-3, t_max=0.05, adaptive=False))
        assert (fixed.accepted, fixed.rejected) == (10, 0)
        assert len(fixed.samples) == fixed.accepted + 1  # every accepted step is stored
        assert [s.t for s in fixed.samples][1:3] == pytest.approx([0.005, 0.01])

    def test_samples_do_not_share_a_buffer_with_the_input(self):
        r0 = random_member(CFG, P12, index=9)
        starts = np.stack([r0, 2.0 * r0])
        trajs = fl._integrate_stack(starts, [fl.TrajectoryConfig(dt=1e-3, t_max=0.01)] * 2)
        starts[:] = 0.0
        assert np.array_equal(trajs[0].samples[0].operator, r0)
        assert np.array_equal(trajs[1].samples[0].operator, 2.0 * r0)


class TestMonitors:
    def test_invariance_on_identity_ray(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.1, rtol=1e-10))
        assert fl.invariance_monitor(traj, P12) == 0.0

    def test_invariance_on_members(self):
        for p in PARAM_SETS:
            for r0 in random_member(CFG, p, index=50 + np.arange(10)):
                t_max = min(0.05, 0.5 / np.linalg.norm(r0))
                traj = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-3, t_max=t_max, rtol=1e-8))
                scale = max(1.0, max(np.linalg.norm(s.operator) for s in traj.samples))
                assert fl.invariance_monitor(traj, p) <= 1e-6 * scale

    def test_invariance_from_boundary(self):
        from curvcone.sampling import boundary_member

        for face in ("F1", "F2", "F3"):
            r0, _ = boundary_member(CFG, P12, face, index=7)
            t_max = min(0.05, 0.5 / np.linalg.norm(r0))
            traj = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-3, t_max=t_max, rtol=1e-9))
            scale = max(1.0, max(np.linalg.norm(s.operator) for s in traj.samples))
            assert fl.invariance_monitor(traj, P12) <= 1e-6 * scale

    def test_l_inequality_on_saturating_ray(self):
        # R = c(t) I with c0 < 0 saturates D+ l = (scal) l + 6 l^2 exactly,
        # which pins the constant pairing for dR/dt = 2 Q(R)
        traj = fl.integrate(-I6, fl.TrajectoryConfig(dt=5e-4, t_max=0.05, adaptive=False))
        rep = fl.l_inequality_monitor(traj, P12)
        assert rep.steps == 100
        assert rep.worst_slack >= 0.0
        # the left-endpoint comparison must fail here by ~36 l^3 dt per step;
        # this is why the monitor compares against the step's endpoint maximum
        assert rep.worst_slack_left < 0.0

    def test_l_inequality_on_nonmembers(self):
        for r0 in random_nonmember(CFG, P12, index=100 + np.arange(20)):
            t_max = min(0.02, 0.3 / np.linalg.norm(r0))
            traj = fl.integrate(r0, fl.TrajectoryConfig(dt=2e-4, t_max=t_max, adaptive=False))
            rep = fl.l_inequality_monitor(traj, P12)
            assert rep.worst_slack >= 0.0

    def test_l_inequality_trivial_inside(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.05, rtol=1e-9))
        rep = fl.l_inequality_monitor(traj, P12)
        assert rep.worst_slack >= 0.0  # l = 0 throughout, 0 <= 0 + tol

    def test_strong_max_monitor(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.05, rtol=1e-9))
        rep = fl.strong_max_monitor(traj)
        assert rep.worst_slack >= 0.0
        zero = fl.integrate(np.zeros((6, 6)), fl.TrajectoryConfig(dt=1e-2, t_max=0.05))
        assert fl.strong_max_monitor(zero).worst_slack >= 0.0

    def test_strong_max_advisory_on_members(self):
        ok_fraction = []
        for r0 in random_member(CFG, P12, index=200 + np.arange(10)):
            t_max = min(0.05, 0.5 / np.linalg.norm(r0))
            traj = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-3, t_max=t_max, rtol=1e-9))
            ok_fraction.append(fl.strong_max_monitor(traj).fraction_ok)
        assert np.mean(ok_fraction) >= 0.99
