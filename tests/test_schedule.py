"""Noise schedule closed forms and time grids."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from guidance_lab.mixture import FieldError
from guidance_lab.schedule import NoiseSchedule, TimeGrid, alpha_bar, make_grid
from oracles import beta


class TestAlphaBar:
    def test_starts_at_one(self):
        assert alpha_bar(NoiseSchedule(), 0.0) == 1.0

    def test_default_terminal_value(self):
        # adaptive quadrature of the beta ramp gives integral 10.05
        sched = NoiseSchedule()
        integral, _ = quad(lambda t: beta(sched, t), 0.0, 1.0)
        assert integral == pytest.approx(10.05, abs=1e-12)
        assert alpha_bar(sched, 1.0) == pytest.approx(math.exp(-10.05), rel=1e-12)
        assert alpha_bar(sched, 1.0) == pytest.approx(4.31857490603e-5, rel=1e-9)

    def test_constant_beta_closed_form(self):
        sched = NoiseSchedule(beta_min=2.0, beta_max=2.0)
        assert alpha_bar(sched, 0.5) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_quadrature_consistency_random_schedules(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            b0 = float(rng.uniform(0.01, 2.0))
            b1 = b0 + float(rng.uniform(0.0, 30.0))
            horizon = float(rng.uniform(0.2, 3.0))
            sched = NoiseSchedule(beta_min=b0, beta_max=b1, horizon=horizon)
            t = float(rng.uniform(0.0, horizon))
            integral, _ = quad(lambda tau: beta(sched, tau), 0.0, t)
            assert alpha_bar(sched, t) == pytest.approx(math.exp(-integral), abs=1e-10)

    def test_strictly_decreasing(self):
        sched = NoiseSchedule()
        rng = np.random.default_rng(13)
        for _ in range(1000):
            t1, t2 = sorted(rng.uniform(0.0, 1.0, size=2))
            if t1 == t2:
                continue
            assert alpha_bar(sched, t1) > alpha_bar(sched, t2)

    def test_time_bounds_enforced(self):
        with pytest.raises(ValueError, match="outside"):
            alpha_bar(NoiseSchedule(), 1.5)
        with pytest.raises(ValueError, match="outside"):
            alpha_bar(NoiseSchedule(), -0.1)

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="shape"):
            NoiseSchedule(shape="cosine")
        with pytest.raises(ValueError, match="beta_min"):
            NoiseSchedule(beta_min=0.0)
        with pytest.raises(ValueError, match="beta_max"):
            NoiseSchedule(beta_min=2.0, beta_max=1.0)
        # an infinite rate would make alpha_bar(0) = exp(-inf * 0), a NaN
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="beta_max"):
                NoiseSchedule(beta_max=bad)


class TestTimeGrid:
    def test_single_step_has_two_entries(self):
        grid = make_grid(NoiseSchedule(), 1)
        assert grid.times.shape == (2,)
        assert grid.times[0] == 1.0 and grid.times[-1] == 0.0

    def test_monotone_alpha_bars(self):
        grid = make_grid(NoiseSchedule(), 10, 1.0, 0.0)
        assert grid.times.shape == (11,)
        assert np.all(np.diff(grid.alpha_bars) > 0)
        assert np.all(np.diff(grid.times) < 0)

    def test_constant_beta_grid_values(self):
        grid = make_grid(NoiseSchedule(beta_min=2.0, beta_max=2.0), 2, 1.0, 0.0)
        np.testing.assert_allclose(grid.times, [1.0, 0.5, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            grid.alpha_bars, [math.exp(-2.0), math.exp(-1.0), 1.0], rtol=1e-14
        )

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            make_grid(NoiseSchedule(), 0)
        with pytest.raises(ValueError):
            make_grid(NoiseSchedule(), 5, 0.2, 0.5)
        with pytest.raises(ValueError):
            make_grid(NoiseSchedule(), 5, 2.0, 0.0)

    @pytest.mark.parametrize("steps, t_end, t_start", [
        (200, 1e-20, 0.0),         # every alpha_bar rounds to 1
        (3, 5e-324, 0.0),          # the times themselves collide
        (4, 0.5 + 2**-52, 0.5),
    ])
    def test_grid_below_float_resolution_names_its_fields(self, steps, t_end, t_start):
        with pytest.raises(FieldError, match="strictly (in|de)creasing") as caught:
            make_grid(NoiseSchedule(), steps, t_end, t_start)
        assert caught.value.fields == ("t_end", "t_start", "steps")

    def test_direct_construction_validated(self):
        with pytest.raises(ValueError, match="decreasing"):
            TimeGrid(steps=1, times=np.array([0.0, 1.0]), alpha_bars=np.array([0.5, 1.0]))

    def test_grid_arrays_immutable(self):
        grid = make_grid(NoiseSchedule(), 3)
        with pytest.raises(ValueError):
            grid.times[0] = 5.0

