"""Integrator contract: oracle problems, events, backward runs, Wronskian."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import ahwarp.ode as ode_mod
from ahwarp.ode import (
    Break,
    IntegrationError,
    Switch,
    Trajectory,
    integrate_backward,
    integrate_ivp,
)

PI = math.pi
SQRT2 = math.sqrt(2.0)


def harmonic(t, x, v):
    return -x


def antiharmonic(t, x, v):
    return x


class TestForward:
    def test_harmonic_oscillator(self):
        tol = 1e-10
        traj = integrate_ivp(harmonic, 0.0, (0.0, 1.0), PI, tol)
        assert abs(traj.value(PI)) < tol
        # dense output between accepted steps carries its own small constant
        ts = np.linspace(0.0, PI, 101)
        x, v = traj.state(ts)
        assert np.max(np.abs(x - np.sin(ts))) < 10 * tol
        assert np.max(np.abs(v - np.cos(ts))) < 10 * tol

    def test_warp_equation_with_switch(self):
        # A'' = -K_par A with the sharp profile at r = pi/4: A = sin inside,
        # (sqrt2/2) e^{rho - pi/4} outside; the independent variable is rho.
        tol = 1e-11
        traj = integrate_ivp(
            lambda rho, a, ap: -a,
            0.0,
            (0.0, 1.0),
            1.0,
            tol,
            switches=[Switch(lambda rho, a, ap: rho - PI / 4, label="cap",
                             rhs_after=lambda rho, a, ap: a)],
        )
        assert abs(traj.value(1.0) - (SQRT2 / 2) * math.exp(1.0 - PI / 4)) < 10 * tol
        assert len(traj.events) == 1
        te, label = traj.events[0]
        assert label == "cap"
        assert abs(te - PI / 4) < tol
        # the event time is a node
        assert np.any(traj.grid.nodes == te)

    def test_breaks_equivalent_to_switch(self):
        tol = 1e-11
        traj = integrate_ivp(
            lambda rho, a, ap: -a,
            0.0,
            (0.0, 1.0),
            1.0,
            tol,
            breaks=[Break(PI / 4, "cap", lambda rho, a, ap: a)],
        )
        assert abs(traj.value(1.0) - (SQRT2 / 2) * math.exp(1.0 - PI / 4)) < 10 * tol
        assert traj.events == ((PI / 4, "cap"),)

    def test_c1_matching_at_event(self):
        traj = integrate_ivp(
            lambda t, x, v: -x,
            0.0,
            (0.0, 1.0),
            2.0,
            1e-11,
            breaks=[Break(1.0, "jump", lambda t, x, v: x)],
        )
        eps = 1e-9
        xl, vl = traj.state(1.0 - eps)
        xr, vr = traj.state(1.0 + eps)
        assert abs(xl - xr) < 1e-8
        assert abs(vl - vr) < 1e-8

    def test_reversed_span_delegates_to_backward(self):
        # decay mode of x'' = x seeded at t0 = 20; trajectory is e^{20 - t}
        tol = 1e-10
        traj = integrate_ivp(antiharmonic, 20.0, (1.0, -1.0), 0.0, tol)
        assert traj.grid.t0 == 0.0 and traj.grid.t1 == 20.0
        ts = np.linspace(0.0, 20.0, 41)
        x, _ = traj.state(ts)
        assert np.max(np.abs(x / np.exp(20.0 - ts) - 1.0)) < 1e-7

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            integrate_ivp(harmonic, 1.0, (0.0, 1.0), 1.0, 1e-10)

    def test_step_underflow_reported(self):
        with pytest.raises(IntegrationError):
            integrate_ivp(lambda t, x, v: 1.0 / (1.0 - t), 0.0, (0.0, 0.0), 2.0, 1e-10)


class TestBackward:
    def test_decay_mode_exact(self):
        tol = 1e-10
        T = 10.0
        seed = math.exp(-T)
        traj = integrate_backward(antiharmonic, T, (seed, -seed), 0.0, tol)
        assert abs(traj.value(0.0) - 1.0) < 10 * tol
        ts = np.linspace(0.0, T, 41)
        x, _ = traj.state(ts)
        assert np.max(np.abs(x - np.exp(-ts))) < 10 * tol

    def test_cosine_shifted(self):
        tol = 1e-10
        traj = integrate_backward(harmonic, PI / 2, (1.0, 0.0), 0.0, tol)
        assert abs(traj.value(0.0)) < tol

    def test_nodes_increasing_and_span(self):
        traj = integrate_backward(harmonic, 5.0, (1.0, 0.0), 1.0, 1e-10)
        assert traj.grid.t0 == 1.0 and traj.grid.t1 == 5.0
        assert np.all(np.diff(traj.grid.nodes) > 0)

    def test_breaks_in_forward_description(self):
        # k jumps from -1 (t < 1) to +1 (t > 1); integrate backward from the
        # forward-built solution's endpoint and recover the initial state.
        tol = 1e-11
        fwd = integrate_ivp(
            antiharmonic, 0.0, (1.0, 0.0), 3.0, tol,
            breaks=[Break(1.0, None, harmonic)],
        )
        back = integrate_backward(
            antiharmonic, 3.0, (fwd.value(3.0), fwd.deriv(3.0)), 0.0, tol,
            breaks=[Break(1.0, None, harmonic)],
        )
        assert abs(back.value(0.0) - 1.0) < 100 * tol
        assert abs(back.deriv(0.0)) < 100 * tol

    def test_requires_T_above_t0(self):
        with pytest.raises(ValueError):
            integrate_backward(harmonic, 1.0, (1.0, 0.0), 2.0, 1e-10)


class TestToleranceScaling:
    @pytest.mark.parametrize(
        "rhs,y0,closed",
        [
            (harmonic, (0.0, 1.0), lambda ts: np.sin(ts)),
            (antiharmonic, (1.0, -1.0), lambda ts: np.exp(-ts)),
        ],
        ids=["harmonic", "exponential"],
    )
    def test_error_decreases_with_tol(self, rhs, y0, closed):
        ts = np.linspace(0.0, 10.0, 201)
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            traj = integrate_ivp(rhs, 0.0, y0, 10.0, tol)
            x, _ = traj.state(ts)
            errs.append(np.max(np.abs(x - closed(ts))))
        assert errs[0] > errs[1] > errs[2]


class TestWronskian:
    def test_trace_free_system_conserves_wronskian(self):
        # x'' + k(t) x = 0 as a first-order system has zero trace; the
        # Wronskian of two independent solutions is constant.
        tol = 1e-10
        k = lambda t: 1.0 + 0.5 * math.sin(t)
        rhs = lambda t, x, v: -k(t) * x
        U = integrate_ivp(rhs, 0.0, (1.0, 0.0), 20.0, tol)
        V = integrate_ivp(rhs, 0.0, (0.0, 1.0), 20.0, tol)
        ts = np.linspace(0.0, 20.0, 401)
        u, du = U.state(ts)
        v, dv = V.state(ts)
        assert np.max(np.abs(u * dv - du * v - 1.0)) < 100 * tol


class TestTrajectory:
    def test_function_factory(self):
        traj = Trajectory.from_function(lambda t: (np.sin(t), np.cos(t)),
                                        np.linspace(0.0, 3.0, 7), events=[(1.5, "mid")])
        assert traj.value(2.2) == math.sin(2.2) and traj.deriv(0.4) == math.cos(0.4)
        assert np.array_equal(traj.values, np.sin(traj.grid.nodes))
        assert traj.events == ((1.5, "mid"),)
        assert (traj.grid.t0, traj.grid.t1) == (0.0, 3.0)

    @pytest.mark.parametrize("backward", [False, True])
    def test_array_evaluation_equals_scipy_dense_output(self, backward):
        # all interpolants of a piece are evaluated at once; scipy's own
        # OdeSolution is the reference, operation for operation, also at the
        # nodes and the break, where two steps meet
        rhs = lambda t, x, v: -(1.0 + 0.1 * math.sin(t)) * x
        if backward:
            traj = integrate_backward(rhs, 12.0, (1.0, -0.5), 0.0, 1e-10,
                                      breaks=[Break(5.0, None, antiharmonic)])
        else:
            traj = integrate_ivp(rhs, 0.0, (1.0, 0.3), 12.0, 1e-10,
                                 breaks=[Break(5.0, None, antiharmonic)])
        assert 5.0 in traj.grid.nodes
        ts = np.concatenate([np.linspace(0.0, 12.0, 997), traj.grid.nodes, [5.0]])
        for piece in traj.pieces:
            t = ts[(ts >= piece.t_lo) & (ts <= piece.t_hi)]
            ref = np.asarray(piece.sol(t))
            assert np.array_equal(piece.eval(t), ref)
            for k, tk in enumerate(t):
                assert piece.eval_scalar(float(tk)) == (ref[0, k], ref[1, k])

    def test_backward_solve_is_posed_on_decreasing_spans(self, monkeypatch):
        # the backward problem goes to the solver as stated, one decreasing
        # span per segment, not reflected into a forward one
        spans = []

        def recording(fun, t_span, *args, **kwargs):
            spans.append(tuple(t_span))
            return solve_ivp(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(ode_mod, "solve_ivp", recording)
        traj = integrate_backward(antiharmonic, 12.0, (1.0, -1.0), 0.0, 1e-10,
                                  breaks=[Break(5.0, "k", harmonic)])
        assert spans == [(12.0, 5.0), (5.0, 0.0)]
        assert traj.events == ((5.0, "k"),)

    def test_out_of_range_rejected(self):
        traj = integrate_ivp(harmonic, 0.0, (0.0, 1.0), 1.0, 1e-10)
        with pytest.raises(ValueError):
            traj.value(2.0)

    def test_events_are_nodes_and_sorted(self):
        traj = integrate_ivp(
            harmonic, 0.0, (0.0, 1.0), 3.0, 1e-10,
            breaks=[Break(1.0, "a"), Break(2.0, "b")],
        )
        assert [lbl for _, lbl in traj.events] == ["a", "b"]
        for te, _ in traj.events:
            assert np.any(traj.grid.nodes == te)
        assert np.all(np.diff(traj.grid.nodes) > 0)
