import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from curvcone import cutoff as co

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_cutoff_c0.json").read_text())


class TestBaseProfile:
    def test_endpoint_values(self):
        psi = co.base_profile()
        assert float(psi(np.array([0.0]))[0]) == 1.0
        assert float(psi(np.array([1.0]))[0]) == 0.0
        assert float(psi(np.array([-5.0]))[0]) == 1.0
        assert float(psi(np.array([7.0]))[0]) == 0.0

    def test_derivative_bounds_on_grid(self):
        psi = co.base_profile()
        x = np.linspace(-0.5, 1.5, 10_001)
        d1 = psi.d1(x)
        assert np.all(d1 <= 0.0)
        assert d1.min() >= -2.0
        assert np.max(np.abs(psi.d2(x))) <= 5.0

    def test_monotone_nonincreasing(self):
        psi = co.base_profile()
        v = psi(np.linspace(-0.2, 1.2, 5001))
        assert np.all(np.diff(v) <= 1e-15)
        assert np.all((0.0 <= v) & (v <= 1.0))

    def test_derivatives_match_finite_differences(self):
        psi = co.base_profile()
        x = np.linspace(-0.1, 1.1, 499)
        h = 1e-6
        fd1 = (psi(x + h) - psi(x - h)) / (2 * h)
        assert np.max(np.abs(fd1 - psi.d1(x))) <= 1e-8
        fd2 = (psi.d1(x + h) - psi.d1(x - h)) / (2 * h)
        # psi'' is piecewise linear with kinks; central differences straddle them
        assert np.max(np.abs(fd2 - psi.d2(x))) <= 1e-3


class TestCutoffSpec:
    @pytest.mark.parametrize("kwargs", [dict(eps=0.0, sigma=1, r=0), dict(eps=1.5, sigma=1, r=0), dict(eps=0.5, sigma=0, r=0), dict(eps=0.5, sigma=1, r=0, grid_n=10),
                                        dict(eps=1.0, sigma=1e-300, r=0), dict(eps=0.5, sigma=1e200, r=0), dict(eps=0.5, sigma=1, r=float("nan")),
                                        dict(eps=0.5, sigma=float("inf"), r=0), dict(eps=0.5, sigma=1, r=1e16),
                                        dict(eps=1e-300, sigma=1, r=0), dict(eps=0.5, sigma=1e-155, r=0),
                                        dict(eps=1.0, sigma=1e-160, r=0)])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            co.CutoffSpec(**kwargs)

    def test_no_warning_down_to_the_least_accepted_eps_sigma(self):
        # eps**2 sigma**2 from just above the least normal double up: a bound
        # past the largest double is inf (its margin inf or NaN), never a warning
        least = math.sqrt(np.finfo(float).tiny)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eps in (1.0, 0.75, 0.5, 0.1, 1e-3, 1e-100):
                for f in (1.0 + 1e-12, 2.0, 10.0, 1e10, 1e100):
                    co.verify_cutoff(co.CutoffFunction(co.CutoffSpec(eps=eps, sigma=f * least / eps, r=0.0)))


class TestBuildCutoff:
    def test_flat_regions_exact(self):
        fn = co.CutoffFunction(co.CutoffSpec(eps=0.5, sigma=2.0, r=1.0))
        assert co.verify_cutoff(fn).passed
        x = np.array([-10.0, 0.0, 1.0])
        assert np.all(fn(x) == 1.0)
        x = np.array([3.0, 5.0, 100.0])
        assert np.all(fn(x) == 0.0)

    def test_eps_one_reduces_to_base_bounds(self):
        fn = co.CutoffFunction(co.CutoffSpec(eps=1.0, sigma=1.0, r=0.0))
        assert co.verify_cutoff(fn).passed
        x = np.linspace(-0.5, 1.5, 4001)
        assert np.all(fn.d1(x) >= -2.0 - 1e-12)

    def test_grid_sweep_no_violations(self):
        for eps in (0.1, 0.5, 1.0):
            for sigma in (0.5, 1.0, 2.0):
                rep = co.verify_cutoff(co.CutoffFunction(co.CutoffSpec(eps=eps, sigma=sigma, r=1.0)))
                assert rep.passed, rep.worst()
                for b in rep.bounds:
                    assert b.margin >= 0.0

    def test_power_bounds_hold_pointwise(self):
        spec = co.CutoffSpec(eps=0.25, sigma=1.5, r=-2.0)
        fn = co.CutoffFunction(spec)
        assert co.verify_cutoff(fn).passed
        x = np.linspace(spec.r - 1.0, spec.r + 2.0 * spec.sigma, 5001)
        v, d1, d2 = fn.value(x), fn.d1(x), fn.d2(x)
        mask = v > 0.0
        allow1 = 2.0 * v[mask] ** (1.0 - spec.eps) / (spec.eps * spec.sigma)
        assert np.all(-d1[mask] <= allow1 * (1.0 + 1e-9) + 1e-12)
        allow2 = 5.0 * v[mask] ** (1.0 - 2.0 * spec.eps) / (spec.eps**2 * spec.sigma**2)
        assert np.all(np.abs(d2[mask]) <= allow2 * (1.0 + 1e-9) + 1e-12)


class TestTheoremVariant:
    def test_golden_value(self):
        rep = co.theorem_variant_check(
            co.CutoffSpec(eps=GOLDEN["eps"], sigma=GOLDEN["sigma"], r=0.0, grid_n=GOLDEN["grid_n"])
        )
        assert rep.c0 == pytest.approx(GOLDEN["c0"], abs=1e-9)
        assert rep.c0_slope == pytest.approx(GOLDEN["c0_slope"], abs=1e-9)
        assert rep.c0_curvature == pytest.approx(GOLDEN["c0_curvature"], abs=1e-9)

    def test_finite_for_eps_one(self):
        rep = co.theorem_variant_check(co.CutoffSpec(eps=1.0, sigma=1.0, r=0.0))
        assert np.isfinite(rep.c0) and rep.c0 >= 1.0

    def test_grid_refinement_stabilizes(self):
        vals = [
            co.theorem_variant_check(co.CutoffSpec(eps=0.5, sigma=1.0, r=0.0, grid_n=n)).c0
            for n in (2_000, 20_000, 200_000)
        ]
        # the measured constant settles as the grid refines
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12
        assert abs(vals[2] - vals[1]) <= 1e-4

    def test_independent_of_sigma_and_r(self):
        a = co.theorem_variant_check(co.CutoffSpec(eps=0.3, sigma=0.5, r=2.0))
        b = co.theorem_variant_check(co.CutoffSpec(eps=0.3, sigma=4.0, r=-1.0))
        assert a.c0 == b.c0
