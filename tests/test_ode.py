"""Integrator contract: oracle problems, breaks at fixed ends, projections,
backward problems through the transfer matrix, Wronskian."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from ahwarp.ode import (
    IntegrationError,
    Trajectory,
    integrate_ivp,
)

PI = math.pi
SQRT2 = math.sqrt(2.0)


def harmonic(t, y):
    return y[1], -y[0]


def antiharmonic(t, y):
    return y[1], y[0]


IDENTITY = (1.0, 0.0, 0.0, 1.0)


def pair_rhs(k):
    """x'' = -k(t) x for the fundamental pair, carried as (U, U', V, V')."""
    def rhs(t, y):
        kt = k(t)
        return y[1], -kt * y[0], y[3], -kt * y[2]

    return rhs


def transfer(flow):
    """M = [[U, V], [U', V']] at the end of a pair flow started from the
    identity: (x, x')(t1) = M (x, x')(t0), det M = 1."""
    u, du, v, dv = flow.end
    return np.array([[u, v], [du, dv]])


def adj(M):
    (u, v), (du, dv) = M
    return np.array([[dv, -v], [-du, u]])


def backward(k, t0, T, yT, tol):
    """The solution of x'' = -k(t) x on [t0, T] with (x, x')(T) = yT, as the
    package poses a backward problem: one forward solve of the fundamental
    pair, (x, x')(t0) = adj(M) yT, and x = x(t0) U + x'(t0) V."""
    flow = integrate_ivp(pair_rhs(k), t0, IDENTITY, T, tol)
    x0, dx0 = adj(transfer(flow)) @ np.asarray(yT, dtype=float)
    return flow.trajectory(((x0, 0.0, dx0, 0.0), (0.0, x0, 0.0, dx0)))


class TestForward:
    def test_harmonic_oscillator(self):
        tol = 1e-10
        traj = integrate_ivp(harmonic, 0.0, (0.0, 1.0), PI, tol).trajectory()
        assert abs(traj.value(PI)) < tol
        # dense output between accepted steps carries its own small constant
        ts = np.linspace(0.0, PI, 101)
        x, v = traj.state(ts)
        assert np.max(np.abs(x - np.sin(ts))) < 10 * tol
        assert np.max(np.abs(v - np.cos(ts))) < 10 * tol

    def test_break_is_a_fixed_end(self):
        # A'' = -K_par A with the sharp profile at r = pi/4: A = sin inside,
        # (sqrt2/2) e^{rho - pi/4} outside; the independent variable is rho.
        # The coefficient jump at the known rho = pi/4 ends the first solve,
        # and the second starts from the state there
        tol = 1e-11
        inside = integrate_ivp(harmonic, 0.0, (0.0, 1.0), PI / 4, tol)
        outside = integrate_ivp(antiharmonic, PI / 4, inside.end, 1.0, tol)
        traj = Trajectory(0.0, 1.0, inside.trajectory().pieces + outside.trajectory().pieces)
        assert abs(traj.value(1.0) - (SQRT2 / 2) * math.exp(1.0 - PI / 4)) < 10 * tol
        assert [(p.t_lo, p.t_hi) for p in traj.pieces] == [(0.0, PI / 4), (PI / 4, 1.0)]

    def test_c1_matching_at_event(self):
        # a jump of the coefficient at t = 1: the state is handed over
        # unchanged from one solve to the next
        left = integrate_ivp(harmonic, 0.0, (0.0, 1.0), 1.0, 1e-11)
        right = integrate_ivp(antiharmonic, 1.0, left.end, 2.0, 1e-11)
        traj = Trajectory(0.0, 2.0, left.trajectory().pieces + right.trajectory().pieces)
        eps = 1e-9
        xl, vl = traj.state(1.0 - eps)
        xr, vr = traj.state(1.0 + eps)
        assert abs(xl - xr) < 1e-8
        assert abs(vl - vr) < 1e-8

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            integrate_ivp(harmonic, 1.0, (0.0, 1.0), 1.0, 1e-10)

    def test_step_underflow_reported(self):
        with pytest.raises(IntegrationError):
            integrate_ivp(lambda t, y: (y[1], 1.0 / (1.0 - t)), 0.0, (0.0, 0.0), 2.0, 1e-10)


class TestBackward:
    """A backward problem, (x, x') given at T, is answered by the forward
    fundamental pair and its transfer matrix (``backward`` above), as
    ``stable.stable_solution`` answers the in-plane one."""

    def test_decay_mode_exact(self):
        tol = 1e-10
        T = 10.0
        seed = math.exp(-T)
        traj = backward(lambda t: -1.0, 0.0, T, (seed, -seed), tol)
        assert abs(traj.value(0.0) - 1.0) < 10 * tol
        ts = np.linspace(0.0, T, 41)
        x, _ = traj.state(ts)
        assert np.max(np.abs(x - np.exp(-ts))) < 10 * tol

    def test_cosine_shifted(self):
        tol = 1e-10
        traj = backward(lambda t: 1.0, 0.0, PI / 2, (1.0, 0.0), tol)
        assert abs(traj.value(0.0)) < tol

    def test_nodes_increasing_and_span(self):
        flow = integrate_ivp(pair_rhs(lambda t: 1.0), 1.0, IDENTITY, 5.0, 1e-10)
        assert flow.nodes[0] == 1.0 and flow.nodes[-1] == 5.0
        assert np.all(np.diff(flow.nodes) > 0)
        traj = backward(lambda t: 1.0, 1.0, 5.0, (1.0, 0.0), 1e-10)
        assert (traj.t0, traj.t1) == (1.0, 5.0)
        assert abs(traj.value(5.0) - 1.0) < 1e-9

    def test_breaks_in_forward_description(self):
        # k jumps from -1 (t < 1) to +1 (t > 1); the forward solution is two
        # solves joined at the break, and the backward problem from its end
        # state composes the two windows' transfer matrices
        tol = 1e-11
        left = integrate_ivp(antiharmonic, 0.0, (1.0, 0.0), 1.0, tol)
        right = integrate_ivp(harmonic, 1.0, left.end, 3.0, tol)
        M = (transfer(integrate_ivp(pair_rhs(lambda t: 1.0), 1.0, IDENTITY, 3.0, tol))
             @ transfer(integrate_ivp(pair_rhs(lambda t: -1.0), 0.0, IDENTITY, 1.0, tol)))
        x0, dx0 = adj(M) @ right.end
        assert abs(x0 - 1.0) < 100 * tol
        assert abs(dx0) < 100 * tol

    def test_requires_T_above_t0(self):
        # every solve runs forward; a decreasing span is refused
        with pytest.raises(ValueError):
            integrate_ivp(harmonic, 2.0, (1.0, 0.0), 1.0, 1e-10)


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
            traj = integrate_ivp(rhs, 0.0, y0, 10.0, tol).trajectory()
            x, _ = traj.state(ts)
            errs.append(np.max(np.abs(x - closed(ts))))
        assert errs[0] > errs[1] > errs[2]


class TestWronskian:
    def test_trace_free_system_conserves_wronskian(self):
        # x'' + k(t) x = 0 as a first-order system has zero trace; the
        # Wronskian of two independent solutions is constant.  U and V are
        # carried in one state vector and read off by projection.
        tol = 1e-10

        def rhs(t, y):
            k = 1.0 + 0.5 * math.sin(t)
            return y[1], -k * y[0], y[3], -k * y[2]

        flow = integrate_ivp(rhs, 0.0, (1.0, 0.0, 0.0, 1.0), 20.0, tol)
        U = flow.trajectory(((1, 0, 0, 0), (0, 1, 0, 0)))
        V = flow.trajectory(((0, 0, 1, 0), (0, 0, 0, 1)))
        ts = np.linspace(0.0, 20.0, 401)
        u, du = U.state(ts)
        v, dv = V.state(ts)
        assert np.max(np.abs(u * dv - du * v - 1.0)) < 100 * tol


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

    @pytest.mark.parametrize("projected", [False, True])
    def test_array_evaluation_equals_scipy_dense_output(self, projected):
        # all interpolants are evaluated at once; scipy's own OdeSolution is
        # the reference, operation for operation, also at the nodes, where
        # two steps meet, and in the last step.  A projection that selects
        # rows keeps the bits.
        def rhs(t, y):
            k = 1.0 + 0.1 * math.sin(t)
            return y[1], -k * y[0], y[3], -y[2]

        y0 = (1.0, 0.3, 0.0, 1.0)
        flow = integrate_ivp(rhs, 0.0, y0, 11.5, 1e-10)
        scipy_sol = solve_ivp(rhs, (0.0, 11.5), y0, method="DOP853", dense_output=True,
                              rtol=1e-10, atol=1e-13)
        assert np.array_equal(scipy_sol.t, flow.nodes)
        assert np.array_equal(scipy_sol.y, flow.states)
        rows = (2, 3) if projected else (0, 1)
        traj = flow.trajectory(np.eye(4)[list(rows)])
        assert traj.t1 == 11.5
        ts = np.concatenate([np.linspace(0.0, 11.5, 997), flow.nodes])
        (piece,) = traj.pieces
        ref = scipy_sol.sol(ts)[list(rows)]
        assert np.array_equal(piece.eval(ts), ref)
        for k in (0, 500, 996):
            assert traj.state_scalar(float(ts[k])) == (ref[0, k], ref[1, k])

    def test_out_of_range_rejected(self):
        traj = integrate_ivp(harmonic, 0.0, (0.0, 1.0), 1.0, 1e-10).trajectory()
        with pytest.raises(ValueError):
            traj.value(2.0)

    def test_state_scalar_refuses_to_extrapolate(self):
        traj = integrate_ivp(harmonic, 0.0, (0.0, 1.0), 1.0, 1e-10).trajectory()
        assert traj.state_scalar(1.0 + 1e-10) == traj.state_scalar(1.0)  # within the slack
        for t in (1.0 + 1e-6, -1e-6, 5.0):
            with pytest.raises(ValueError):
                traj.state_scalar(t)

    def test_cut_before_the_end(self):
        # a trajectory restricted to [t0, t1] ends at t1
        flow = integrate_ivp(harmonic, 0.0, (0.0, 1.0), 3.0, 1e-10)
        traj = flow.trajectory(t1=1.234)
        assert traj.t1 == 1.234
        assert abs(traj.value(1.234) - math.sin(1.234)) < 1e-9
        with pytest.raises(ValueError):
            traj.value(2.0)
