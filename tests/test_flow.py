import dataclasses
import hashlib
import importlib.util
import math
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from curvcone import cone as cn
from curvcone import decomposition as dc
from curvcone import flow as fl
from curvcone import verify
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
        for t, op in zip(traj.samples.t, traj.samples.operator):
            c = closed_form(1.0, t)
            assert np.linalg.norm(op - c * I6) <= 1e-8 * np.linalg.norm(c * I6)

    def test_zero_stays_zero(self):
        traj = fl.integrate(np.zeros((6, 6)), fl.TrajectoryConfig(dt=1e-2, t_max=0.1))
        assert np.all(traj.samples.operator == 0.0)

    def test_negative_ray_decays(self):
        traj = fl.integrate(-I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.5, rtol=1e-10))
        norms = [np.linalg.norm(op) for op in traj.samples.operator]
        assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))
        for t, op in zip(traj.samples.t, traj.samples.operator):
            c = closed_form(-1.0, t)
            assert np.linalg.norm(op - c * I6) <= 1e-8

    def test_fourth_order_convergence(self):
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            traj = fl.integrate(I6, fl.TrajectoryConfig(dt=dt, t_max=0.1, adaptive=False))
            errs.append(np.linalg.norm(traj.samples.operator[-1] - closed_form(1.0, 0.1) * I6))
        for ratio in (errs[0] / errs[1], errs[1] / errs[2]):
            assert 12.0 <= ratio <= 20.0

    def test_blowup_stop(self):
        traj = fl.integrate(5.0 * I6, fl.TrajectoryConfig(dt=1e-3, t_max=10.0, blowup_norm=1e3))
        assert traj.status == "blowup-stopped"
        assert np.linalg.norm(traj.samples.operator[-1]) >= 1e3

    def test_scaling_equivariance(self):
        r0 = random_member(CFG, P12, index=2)
        t1 = fl.integrate(2.0 * r0, fl.TrajectoryConfig(dt=1e-4, t_max=0.01, rtol=1e-11))
        t2 = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-4, t_max=0.02, rtol=1e-11))
        end1, end2 = t1.samples.operator[-1], t2.samples.operator[-1]
        rel = np.linalg.norm(end1 - 2.0 * end2) / np.linalg.norm(end1)
        assert rel <= 1e-8

    def test_rotation_equivariance(self):
        r0 = random_member(CFG, P12, index=3)
        q = random_rotation(substream(51, "roteq"), 4)
        cfg = fl.TrajectoryConfig(dt=1e-4, t_max=0.01, rtol=1e-11)
        t1 = fl.integrate(wg.rotate_operator(r0, q), cfg)
        t2 = fl.integrate(r0, cfg)
        end1, end2 = t1.samples.operator[-1], t2.samples.operator[-1]
        rel = np.linalg.norm(end1 - wg.rotate_operator(end2, q)) / max(1.0, np.linalg.norm(end1))
        assert rel <= 1e-9

    def test_bianchi_and_trace_balance_along_trajectory(self):
        r0 = random_member(CFG, P12, index=4)
        traj = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-3, t_max=0.02, rtol=1e-9))
        peak = max(np.linalg.norm(op) for op in traj.samples.operator)
        assert np.all(traj.samples.bianchi <= 1e-9 * max(1.0, peak))
        for op in traj.samples.operator:
            a, _, c = dc._blocks_of(op)
            assert abs(np.trace(a) - np.trace(c)) <= 1e-10 * max(1.0, np.linalg.norm(op))

    def test_diagnostics_present_with_params(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.01), params=P12)
        assert traj.samples.member.dtype == bool and traj.samples.member.all()
        assert np.all(traj.samples.l == 0.0)
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.01))
        assert traj.samples.member is None and traj.samples.l is None

    def test_step_floor_follows_the_time_not_the_horizon(self):
        # a non-member at |R| = 3e7 reaches the blow-up norm before t = 1e-7,
        # with steps below the 1e-8 floor a horizon of 1e6 would set if the
        # floor followed t_max rather than the trajectory's time
        m = random_nonmember(SamplerConfig(seed=1), P12, index=0)
        start = m * (3e7 / wg.frobenius(m))
        ref = fl.integrate(start, fl.TrajectoryConfig(dt=1e-3, t_max=100.0), params=P12)
        assert ref.status == "blowup-stopped" and ref.samples.t[-1] < 1e-7
        for t_max in (1e6, math.inf):
            traj = fl.integrate(start, fl.TrajectoryConfig(dt=1e-3, t_max=t_max), params=P12)
            assert traj.status == "blowup-stopped"
            assert (traj.accepted, traj.rejected) == (ref.accepted, ref.rejected)
            assert traj.samples.t.tobytes() == ref.samples.t.tobytes()
            assert traj.samples.operator.tobytes() == ref.samples.operator.tobytes()

    def test_infinite_horizon_stops_before_the_time_overflows(self):
        # from 0 and from -I the error estimate is 0 or tiny, so the step
        # grows until the next time would pass the largest float
        cfg = fl.TrajectoryConfig(dt=1e-3, t_max=math.inf)
        stack = fl.integrate(np.stack([0.0 * I6, -I6]), [cfg, cfg])
        assert stack.status.tolist() == ["time-overflow"] * 2
        for traj in (stack[:1], stack[1:]):
            ts = traj.samples.t
            assert np.all(np.diff(ts) > 0.0)
            assert math.isfinite(ts[-1]) and ts[-1] > 1e307
            # c I follows c / (1 - 6 c t): zero stays zero, -I decays below
            # the local error tolerance
            assert np.abs(traj.samples.operator[-1]).max() <= 1e-9

    def test_times_strictly_increase(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.05))
        ts = traj.samples.t
        assert np.all(np.diff(ts) > 0.0)
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


#: sha256 over the solo integrations of _singles, by (adaptive, with_params):
#: each trajectory's status, step counts and length, then its columns' bytes
SOLO_SHA256 = {
    (True, False): "4a56683ebe0729a88d6bf4447a4341de7316907de8771acd0a3406ec544685fd",
    (True, True): "94d351b9123ea9550136f5ee19af9bee946a178136a24f5fc9a88e0a1b17f51b",
    (False, False): "bc5f40f73b05628680f44f457211da261fe4a9e51efec816ddd5b4b5770c90d8",
    (False, True): "7bea5a1b24a4d02114cf382776a7e59ec1e582bd78bff39d76ac23c1ff38b47c",
}


def _assert_same_trajectories(a, b):
    # field by field and bit for bit; one start compares as a stack of one
    assert [np.atleast_1d(getattr(a, f)).tolist() for f in ("status", "accepted", "rejected")] == [
        np.atleast_1d(getattr(b, f)).tolist() for f in ("status", "accepted", "rejected")]
    n = len(a.samples)
    assert n == len(b.samples) == int(np.sum(a.accepted + 1))
    for name in ("t", "operator", "scalar", "bianchi", "l", "member"):
        va, vb = getattr(a.samples, name), getattr(b.samples, name)
        if va is None or vb is None:
            assert va is vb, name
            continue
        assert va.shape == vb.shape == ((n, 6, 6) if name == "operator" else (n,)), name
        assert va.dtype == vb.dtype and va.tobytes() == vb.tobytes(), name


@pytest.mark.parametrize("with_params", [False, True], ids=["plain", "params"])
@pytest.mark.parametrize("adaptive", [True, False], ids=["adaptive", "fixed"])
class TestIntegrateStack:
    @pytest.mark.parametrize("n", [1, 7, 30])
    def test_stack_matches_single_integrations(self, n, adaptive, with_params):
        starts, cfgs, singles = _singles(adaptive, with_params)
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = fl.integrate(starts[:n], cfgs[:n], P12 if with_params else None)
        assert stacked.status.shape == stacked.accepted.shape == stacked.rejected.shape == (n,)
        for k, b in enumerate(singles[:n]):
            _assert_same_trajectories(stacked[k:k + 1], b)

    def test_permuted_stack(self, adaptive, with_params):
        starts, cfgs, singles = _singles(adaptive, with_params)
        order = np.random.default_rng(5).permutation(len(starts))
        with np.errstate(over="ignore", invalid="ignore"):
            stacked = fl.integrate(starts[order], [cfgs[k] for k in order], P12 if with_params else None)
        for j, k in enumerate(order.tolist()):
            _assert_same_trajectories(stacked[j:j + 1], singles[k])

    def test_slice_is_the_stack_of_its_starts(self, adaptive, with_params):
        starts, cfgs, _ = _singles(adaptive, with_params)
        params = P12 if with_params else None
        with np.errstate(over="ignore", invalid="ignore"):
            whole = fl.integrate(starts, cfgs, params)
            part = fl.integrate(starts[5:12], cfgs[5:12], params)
        _assert_same_trajectories(whole[5:12], part)
        _assert_same_trajectories(whole[-30:-23], whole[:7])
        assert whole[:].samples.t.tobytes() == whole.samples.t.tobytes()

    def test_solo_bits_are_pinned(self, adaptive, with_params):
        # stack-vs-solo tests cannot see a change that both sides share
        h = hashlib.sha256()
        for traj in _singles(adaptive, with_params)[2]:
            s = traj.samples
            h.update(repr((traj.status, traj.accepted, traj.rejected, len(s))).encode())
            for col in (s.t, s.operator, s.scalar, s.bianchi) + (() if s.l is None else (s.l, s.member)):
                h.update(col.tobytes())
        assert h.hexdigest() == SOLO_SHA256[adaptive, with_params]

    def test_covers_every_kind_of_start(self, adaptive, with_params):
        _, cfgs, singles = _singles(adaptive, with_params)
        assert {t.status for t in singles} == {"completed", "blowup-stopped"}
        assert {c.t_max for c in cfgs[3::4]} == {0.05 + 0.01 * i for i in range(3, 30, 4)}
        if with_params:
            assert set(np.concatenate([t.samples.member for t in singles]).tolist()) == {True, False}
        if adaptive:
            assert singles[2].rejected > 0


class TestIntegrateStackContract:
    def test_shape_and_config_count_checked(self):
        cfg = fl.TrajectoryConfig(dt=1e-3, t_max=0.01)
        with pytest.raises(ValueError):  # a (6, 6) start with a sequence of configs
            fl.integrate(I6, [cfg] * 6)
        with pytest.raises(ValueError):  # a stack with a bare config
            fl.integrate(np.stack([I6, I6]), cfg)
        with pytest.raises(ValueError):  # the wrong number of configs
            fl.integrate(np.stack([I6, I6]), [cfg])

    def test_one_start_and_a_stack_of_one(self):
        cfg = fl.TrajectoryConfig(dt=1e-3, t_max=0.01)
        one = fl.integrate(I6, cfg)
        assert isinstance(one.status, str) and type(one.accepted) is int and type(one.rejected) is int
        stack = fl.integrate(I6[None], [cfg])
        assert stack.status.shape == stack.accepted.shape == stack.rejected.shape == (1,)
        assert stack.accepted.dtype.kind == stack.rejected.dtype.kind == "i"
        _assert_same_trajectories(stack, one)
        assert one.first().tolist() == stack.first().tolist() == [0]

    def test_only_a_stack_takes_a_contiguous_slice(self):
        cfg = fl.TrajectoryConfig(dt=1e-3, t_max=0.01)
        stack = fl.integrate(np.stack([I6, -I6, I6]), [cfg] * 3)
        for bad in (0, slice(None, None, 2), slice(None, None, -1)):
            with pytest.raises(TypeError):
                stack[bad]
        with pytest.raises(TypeError):
            fl.integrate(I6, cfg)[0:1]
        assert stack.first().tolist() == [0, stack.accepted[0] + 1, stack.accepted[:2].sum() + 2]

    def test_empty_stack(self):
        assert fl.integrate(np.zeros((0, 6, 6)), []).samples.l is None
        traj = fl.integrate(np.zeros((0, 6, 6)), [], P12)
        assert traj.status.shape == traj.accepted.shape == traj.rejected.shape == traj.first().shape == (0,)
        s = traj.samples
        assert len(s) == 0 and s.operator.shape == (0, 6, 6)
        assert s.t.shape == s.scalar.shape == s.bianchi.shape == s.l.shape == s.member.shape == (0,)
        assert fl.invariance_monitor(traj, P12).shape == (0,)
        assert fl.l_inequality_monitor(traj, P12) == []

    def test_step_counts(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.05))
        assert traj.accepted == len(traj.samples) - 1
        fixed = fl.integrate(I6, fl.TrajectoryConfig(dt=5e-3, t_max=0.05, adaptive=False))
        assert (fixed.accepted, fixed.rejected) == (10, 0)
        assert len(fixed.samples) == fixed.accepted + 1  # every accepted step is stored
        assert fixed.samples.t[1:3] == pytest.approx([0.005, 0.01])

    def test_step_underflow_stops_a_stuck_row(self):
        # from a NaN start every trial step is rejected (err is NaN, and the
        # step shrinks by 0.2, as Python's max(0.2, nan) gives) until the step
        # reaches its floor; a row that steps on does not hide it
        nan = np.full((6, 6), np.nan)
        cfg = fl.TrajectoryConfig(dt=1e-3, t_max=0.1)
        with pytest.raises(fl.StepUnderflowError, match=r"step underflow at t=0$"):
            fl.integrate(nan, cfg)
        with pytest.raises(fl.StepUnderflowError, match=r"step underflow at t=0$"):
            fl.integrate(np.stack([I6, nan]), [cfg, cfg])

    def test_samples_do_not_share_a_buffer_with_the_input(self):
        r0 = random_member(CFG, P12, index=9)
        starts = np.stack([r0, 2.0 * r0])
        trajs = fl.integrate(starts, [fl.TrajectoryConfig(dt=1e-3, t_max=0.01)] * 2)
        starts[:] = 0.0
        assert np.array_equal(trajs.samples.operator[trajs.first()], np.stack([r0, 2.0 * r0]))


class TestMonitors:
    def test_invariance_on_identity_ray(self):
        traj = fl.integrate(I6, fl.TrajectoryConfig(dt=1e-3, t_max=0.1, rtol=1e-10))
        assert fl.invariance_monitor(traj, P12) == 0.0

    def test_invariance_on_members(self):
        for p in PARAM_SETS:
            for r0 in random_member(CFG, p, index=50 + np.arange(10)):
                t_max = min(0.05, 0.5 / np.linalg.norm(r0))
                traj = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-3, t_max=t_max, rtol=1e-8))
                scale = max(1.0, max(np.linalg.norm(op) for op in traj.samples.operator))
                assert fl.invariance_monitor(traj, p) <= 1e-6 * scale

    def test_invariance_from_boundary(self):
        from curvcone.sampling import boundary_member

        for face in ("F1", "F2", "F3"):
            r0, _ = boundary_member(CFG, P12, face, index=7)
            t_max = min(0.05, 0.5 / np.linalg.norm(r0))
            traj = fl.integrate(r0, fl.TrajectoryConfig(dt=1e-3, t_max=t_max, rtol=1e-9))
            scale = max(1.0, max(np.linalg.norm(op) for op in traj.samples.operator))
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

    def test_monitors_skip_a_non_finite_sample(self):
        # fixed steps from a non-member at |R| = 3e7 overflow: the third and
        # last stored operator is not finite.  The monitors take spectra of
        # the finite samples only, so the steps before keep their bits.
        m = random_nonmember(SamplerConfig(seed=13), P12, index=0)
        cfg = fl.TrajectoryConfig(dt=1e-4, t_max=1.0, blowup_norm=1e300, adaptive=False)
        with np.errstate(over="ignore", invalid="ignore"):
            traj = fl.integrate(m * (3e7 / wg.frobenius(m)), cfg, P12)
        s = traj.samples
        assert traj.status == "blowup-stopped" and len(s) == 3
        assert np.isfinite(s.operator[:-1]).all() and not np.isfinite(s.operator[-1]).all()
        head = dataclasses.replace(traj, accepted=traj.accepted - 1, samples=fl.Samples(
            **{f.name: getattr(s, f.name)[:-1] for f in dataclasses.fields(s)}))
        assert math.isnan(fl.invariance_monitor(traj, P12))
        assert fl.invariance_monitor(head, P12) == max(cn.lower_bound_l(op, P12) for op in s.operator[:-1])
        rep = fl.l_inequality_monitor(traj, P12)
        assert rep.steps == 1
        assert repr(rep) == repr(fl.l_inequality_monitor(head, P12))


def _perfbench_tracer():
    # the benchmark's tracer, loaded from its file without importing its package
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_benchmark_tracer_sees_the_flow_suite():
    # the hook perfbench/run.py's run_traced tags flow.integrate with; on a
    # stack it counts every trajectory's accepted steps and all starts but one
    seen = []

    def steps(traj):
        seen.append(traj)
        return len(traj.samples) - 1

    with _perfbench_tracer()("curvcone", hooks={"flow.integrate": steps}) as tracer:
        verify.run("flow", 1, 20)
        stats = tracer.take()
    _, tags = stats.spans["flow.integrate"]
    (traj,) = seen
    assert stats.get("flow.integrate") == 1
    assert tags.tolist() == [traj.accepted.sum() + len(traj.accepted) - 1]
