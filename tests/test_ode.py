"""Trajectories: pieces joined at fixed ends, lazy evaluation, the domain."""

import math

import numpy as np
import pytest

from ahwarp.ode import Trajectory

PI = math.pi
SQRT2 = math.sqrt(2.0)


def sine(t):
    return np.sin(t), np.cos(t)


def exponentials(t0, y, dy):
    """(x, x') of x'' = x with state (y, dy) at t0."""
    def fn(t):
        p, q = 0.5 * (y + dy) * np.exp(t - t0), 0.5 * (y - dy) * np.exp(t0 - t)
        return p + q, p - q

    return fn


class TestForward:
    def test_break_is_a_fixed_end(self):
        # A'' = -K_par A with the sharp profile at r = pi/4: A = sin inside,
        # (sqrt2/2) e^{rho - pi/4} outside.  The coefficient jump at the known
        # rho = pi/4 ends the first piece, and the second starts from the
        # state there
        inside = Trajectory.from_function(sine, 0.0, PI / 4)
        outside = Trajectory.from_function(exponentials(PI / 4, *inside.state_scalar(PI / 4)),
                                           PI / 4, 1.0)
        traj = Trajectory(0.0, 1.0, inside.pieces + outside.pieces)
        assert abs(traj.value(1.0) - (SQRT2 / 2) * math.exp(1.0 - PI / 4)) < 1e-15
        assert [(p.t_lo, p.t_hi) for p in traj.pieces] == [(0.0, PI / 4), (PI / 4, 1.0)]

    def test_c1_matching_at_event(self):
        # a jump of the coefficient at t = 1: the state is handed over
        # unchanged from one piece to the next, and each side of the break
        # reads its own piece
        left = Trajectory.from_function(sine, 0.0, 1.0)
        right = Trajectory.from_function(exponentials(1.0, *left.state_scalar(1.0)), 1.0, 2.0)
        traj = Trajectory(0.0, 2.0, left.pieces + right.pieces)
        eps = 1e-9
        xl, vl = traj.state(1.0 - eps)
        xr, vr = traj.state(1.0 + eps)
        assert xl[0] == math.sin(1.0 - eps) and vl[0] == math.cos(1.0 - eps)
        assert abs(xl - xr) < 1e-8
        assert abs(vl - vr) < 1e-8


class TestTrajectory:
    def test_function_factory(self):
        traj = Trajectory.from_function(lambda t: (np.sin(t), np.cos(t)), 0.0, 3.0)
        assert traj.value(2.2) == math.sin(2.2) and traj.deriv(0.4) == math.cos(0.4)
        ts = np.linspace(0.0, 3.0, 7)
        assert np.array_equal(traj.value(ts), np.sin(ts))
        assert (traj.t0, traj.t1) == (0.0, 3.0)

    def test_function_is_not_called_until_evaluated(self):
        calls = []

        def fn(t):
            calls.append(t)
            return np.sin(t), np.cos(t)

        traj = Trajectory(0.0, 2.0, Trajectory.from_function(fn, 0.0, 1.0).pieces
                          + Trajectory.from_function(fn, 1.0, 2.0).pieces)
        assert calls == []
        assert traj.value(1.5) == math.sin(1.5)
        assert len(calls) == 1 and np.array_equal(calls[0], [1.5])

    def test_out_of_range_rejected(self):
        traj = Trajectory.from_function(sine, 0.0, 1.0)
        with pytest.raises(ValueError):
            traj.value(2.0)

    def test_state_scalar_refuses_to_extrapolate(self):
        traj = Trajectory.from_function(sine, 0.0, 1.0)
        assert traj.state_scalar(1.0 + 1e-10) == traj.state_scalar(1.0)  # within the slack
        for t in (1.0 + 1e-6, -1e-6, 5.0):
            with pytest.raises(ValueError):
                traj.state_scalar(t)

    def test_cut_before_the_end(self):
        # a trajectory restricted to [t0, t1] ends at t1, though its piece
        # runs further
        traj = Trajectory(0.0, 1.234, Trajectory.from_function(sine, 0.0, 3.0).pieces)
        assert traj.t1 == 1.234
        assert traj.value(1.234) == math.sin(1.234)
        with pytest.raises(ValueError):
            traj.value(2.0)
