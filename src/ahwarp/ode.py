"""Adaptive integration of scalar second-order ODEs x'' = f(t, x, x').

Thin layer over scipy's DOP853 embedded Runge-Kutta pair with dense output.
It adds the two things the rest of the package needs on top of a plain
solver:

* switching surfaces: a sign change of ``fn(t, x, x')`` is located on the
  dense output of the bracketing step, a node is placed exactly at the
  crossing, the crossing is recorded as an event, and integration restarts
  from the crossing (optionally on a different smooth branch of the
  right-hand side), so no accepted step ever straddles the surface;
* known breakpoints: the same stop-and-restart discipline at times known in
  advance.  This is how weak (C^1) solutions across a jump in a linear
  coefficient are realized: each smooth branch is integrated on its own
  closed segment and the state is handed over unchanged at the junction.

A terminal switch ends the solve at its crossing: the package integrates
only across the curvature transition, so its solves run from a known time
to the (unknown) time at which the geodesic leaves the transition.  Exact
pieces before and after it are built with ``Trajectory.from_function`` and
joined to the integrated piece with ``Trajectory.concat``.

Backward problems go to the solver as stated, on a decreasing time span;
one loop serves both directions and always reports the solution on the
increasing time axis.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.common import OdeSolution

__all__ = [
    "Rhs",
    "Switch",
    "Break",
    "TimeGrid",
    "Trajectory",
    "IntegrationError",
    "integrate_ivp",
    "integrate_backward",
]

# Scalar second-order right-hand side: (t, x, x') -> x''.
Rhs = Callable[[float, float, float], float]

_METHOD = "DOP853"


class IntegrationError(RuntimeError):
    """The integrator could not meet its contract (step-size underflow,
    stiffness, or an event that could not be bracketed)."""


@dataclass(frozen=True)
class Switch:
    """State-dependent switching surface ``fn(t, x, x') = 0``.

    The zero must be transverse along the solution.  When the sign changes
    inside a step, the crossing time is refined on the dense output, recorded
    as an event with this label, and integration restarts there.  If
    ``rhs_after`` is given it replaces the right-hand side from the crossing
    on (the smooth far-side branch of a piecewise field).  A ``terminal``
    switch ends the integration at the crossing instead, and the solution's
    time range ends there.  Each switch fires at most once.
    """

    fn: Callable[[float, float, float], float]
    label: str = "switch"
    rhs_after: Rhs | None = None
    terminal: bool = False


@dataclass(frozen=True)
class Break:
    """Known junction time.  A node is forced at ``time`` and integration
    restarts there; ``rhs_after`` (if given) is used from ``time`` on."""

    time: float
    label: str | None = None
    rhs_after: Rhs | None = None


@dataclass(frozen=True, eq=False)
class TimeGrid:
    t0: float
    t1: float
    nodes: np.ndarray


@dataclass(frozen=True, eq=False)
class _Piece:
    """One dense-output segment on [t_lo, t_hi]."""

    t_lo: float
    t_hi: float
    sol: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self) -> None:
        # Unpack scipy's OdeSolution once so the scalar fast path can call
        # the local interpolants directly (RHS callbacks are scalar-hot).  A
        # backward run's steps are stored in increasing time like a forward
        # run's; each interpolant evaluates (t - t_old) / h for either sign
        # of its step h.
        if isinstance(self.sol, OdeSolution):
            interps = self.sol.interpolants
            object.__setattr__(self, "_ts", list(self.sol.ts_sorted))
            object.__setattr__(
                self, "_interps", interps if self.sol.ascending else interps[::-1])
        else:
            object.__setattr__(self, "_ts", None)
            object.__setattr__(self, "_interps", None)

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, ...]:
        """The DOP853 interpolants' coefficients stacked over the steps, so
        array evaluation runs them all at once instead of one call per step;
        built on the first array evaluation."""
        interps = self._interps
        return (
            np.asarray(self._ts, dtype=float),
            np.array([d.t_old for d in interps]),
            np.array([d.h for d in interps]),
            np.stack([d.F for d in interps]),
            np.stack([d.y_old for d in interps]),
        )

    def _dense(self, t: np.ndarray) -> np.ndarray:
        """The solver's dense output at an array of times: scipy's
        Dop853DenseOutput arithmetic, operation for operation, on the
        interpolant of the step holding each time."""
        ts, t_old, h, F, y_old = self._stacked
        seg = np.clip(np.searchsorted(ts, t, side="left") - 1, 0, len(h) - 1)
        x = ((t - t_old[seg]) / h[seg])[:, None]
        y = np.zeros((len(t), F.shape[2]))
        for k, i in enumerate(range(F.shape[1] - 1, -1, -1)):
            y += F[seg, i]
            y *= x if k % 2 == 0 else 1 - x
        y += y_old[seg]
        return y.T

    def eval(self, t: np.ndarray) -> np.ndarray:
        if self._interps is not None:
            return self._dense(t)
        return np.asarray(self.sol(t), dtype=float)

    def eval_scalar(self, t: float) -> tuple[float, float]:
        if self._interps is not None:
            i = bisect_right(self._ts, t) - 1
            i = 0 if i < 0 else (len(self._interps) - 1 if i >= len(self._interps) else i)
            y = self._interps[i](t)
        else:
            y = np.asarray(self.sol(np.asarray([t])), dtype=float)[:, 0]
        return float(y[0]), float(y[1])


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A C^1 solution on [grid.t0, grid.t1] with dense evaluation.

    ``values`` and ``derivs`` hold (x, x') at the accepted step nodes; every
    event time is a node.  ``value``/``deriv``/``state`` evaluate anywhere in
    the time range through the solver's dense output.
    """

    grid: TimeGrid
    values: np.ndarray
    derivs: np.ndarray
    events: tuple[tuple[float, str], ...]
    pieces: tuple[_Piece, ...] = field(repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_uppers", [p.t_hi for p in self.pieces])

    def state_scalar(self, t: float) -> tuple[float, float]:
        """(x, x') at one time; fast path for right-hand-side callbacks, no
        range checking."""
        i = bisect_left(self._uppers, t)
        if i >= len(self.pieces):
            i = len(self.pieces) - 1
        return self.pieces[i].eval_scalar(t)

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.grid.t0, self.grid.t1
        slack = 1e-9 * max(1.0, abs(hi - lo))
        if t_arr.min() < lo - slack or t_arr.max() > hi + slack:
            raise ValueError(
                f"evaluation time outside [{lo}, {hi}]: "
                f"[{t_arr.min()}, {t_arr.max()}]"
            )
        t_arr = np.clip(t_arr, lo, hi)
        xs = np.empty_like(t_arr)
        vs = np.empty_like(t_arr)
        uppers = np.asarray(self._uppers)
        idx = np.clip(np.searchsorted(uppers, t_arr, side="left"), 0, len(self.pieces) - 1)
        for i in np.unique(idx):
            mask = idx == i
            y = self.pieces[i].eval(t_arr[mask])
            xs[mask] = y[0]
            vs[mask] = y[1]
        return xs, vs

    def value(self, t: float | np.ndarray) -> float | np.ndarray:
        x, _ = self.state(t)
        return float(x[0]) if np.isscalar(t) else x

    def deriv(self, t: float | np.ndarray) -> float | np.ndarray:
        _, v = self.state(t)
        return float(v[0]) if np.isscalar(t) else v

    def map(
        self,
        fn: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> "Trajectory":
        """The trajectory of ``(y, y') = fn(t, x, x')`` on the same grid, events
        and pieces; undoes a change of variables made for the solve."""

        def mapped(piece: _Piece) -> _Piece:
            def sol(t: np.ndarray) -> np.ndarray:
                t = np.atleast_1d(np.asarray(t, dtype=float))
                x, v = piece.eval(t)
                return np.vstack(fn(t, x, v))

            return _Piece(piece.t_lo, piece.t_hi, sol)

        y, dy = fn(self.grid.nodes, self.values, self.derivs)
        return Trajectory(
            grid=self.grid,
            values=y,
            derivs=dy,
            events=self.events,
            pieces=tuple(mapped(p) for p in self.pieces),
        )

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        nodes: np.ndarray,
        events: Sequence[tuple[float, str]] = (),
    ) -> "Trajectory":
        """Exact solution ``(x, x') = fn(t)`` on [nodes[0], nodes[-1]], used
        where a closed form or a quadrature replaces an ODE solve.  ``fn`` is
        vectorized over t; ``nodes`` is increasing."""
        nodes = np.asarray(nodes, dtype=float)

        def sol(t: np.ndarray) -> np.ndarray:
            return np.vstack(fn(np.atleast_1d(np.asarray(t, dtype=float))))

        t0, t1 = float(nodes[0]), float(nodes[-1])
        grid = TimeGrid(t0=t0, t1=t1, nodes=nodes)
        y = sol(nodes)
        return cls(
            grid=grid,
            values=y[0],
            derivs=y[1],
            events=tuple(sorted(events)),
            pieces=(_Piece(t0, t1, sol),),
        )

    @classmethod
    def concat(
        cls,
        parts: Sequence["Trajectory"],
        events: Sequence[tuple[float, str]] = (),
    ) -> "Trajectory":
        """One solution from consecutive ``parts``, each starting where the
        one before ends; a junction node is kept once, from the earlier part.
        ``events`` are added to the parts' own."""
        nodes = np.concatenate([p.grid.nodes for p in parts])
        keep = np.concatenate([[True], np.diff(nodes) > 0])
        return cls(
            grid=TimeGrid(t0=parts[0].grid.t0, t1=parts[-1].grid.t1, nodes=nodes[keep]),
            values=np.concatenate([p.values for p in parts])[keep],
            derivs=np.concatenate([p.derivs for p in parts])[keep],
            events=tuple(sorted({*events, *(e for p in parts for e in p.events)})),
            pieces=tuple(piece for p in parts for piece in p.pieces),
        )


def _as_system(rhs: Rhs):
    def f(t: float, y: np.ndarray):
        return (y[1], rhs(t, y[0], y[1]))

    return f


def _segments(rhs: Rhs, t0: float, t1: float, breaks: Sequence[Break]):
    """Split [t0, t1] at the break times.  Returns the segments [(a, b, rhs_i)]
    in increasing time and the labeled break events [(time, label)]."""
    brs = sorted((b for b in breaks if t0 < b.time < t1), key=lambda b: b.time)
    segs = []
    events = []
    cur_rhs, cur_t = rhs, t0
    for b in brs:
        segs.append((cur_t, b.time, cur_rhs))
        cur_t = b.time
        if b.label is not None:
            events.append((b.time, b.label))
        if b.rhs_after is not None:
            cur_rhs = b.rhs_after
    segs.append((cur_t, t1, cur_rhs))
    return segs, events


def _drive(
    rhs: Rhs,
    t0: float,
    y0: Sequence[float],
    t1: float,
    tol: float,
    switches: Sequence[Switch],
    breaks: Sequence[Break],
) -> Trajectory:
    """Integrate from (t0, y0) to t1 in either direction, or forward to the
    crossing of a terminal switch; ``rhs`` and ``breaks`` describe the
    problem in forward time.  The result is reported on the increasing time
    axis."""
    y = np.asarray(y0, dtype=float)
    if y.shape != (2,):
        raise ValueError("state must be (x, x')")
    lo, hi = min(t0, t1), max(t0, t1)
    segs, events = _segments(rhs, lo, hi, breaks)
    if t1 < t0:
        segs = [(b, a, seg_rhs) for (a, b, seg_rhs) in reversed(segs)]

    pieces: list[_Piece] = []
    nodes: list[float] = [t0]
    states: list[np.ndarray] = [y.copy()]
    active = list(switches)

    for (a, b, cur_rhs) in segs:
        t = a
        if hi < b:  # a terminal switch has fired
            break
        while abs(b - t) > 1e-14 * max(1.0, abs(b)):
            ev_fns = []
            for rule in active:
                def ev(tt, yy, _fn=rule.fn):
                    return _fn(tt, yy[0], yy[1])

                ev.terminal = True
                ev.direction = 0
                ev_fns.append(ev)
            sol = solve_ivp(
                _as_system(cur_rhs),
                (t, b),
                y,
                method=_METHOD,
                dense_output=True,
                events=ev_fns or None,
                rtol=tol,
                atol=tol * 1e-3,
            )
            if sol.status < 0:
                raise IntegrationError(sol.message)
            t_end = float(sol.t[-1])
            pieces.append(_Piece(min(t, t_end), max(t, t_end), sol.sol))
            nodes.extend(float(tt) for tt in sol.t[1:])
            states.extend(sol.y[:, 1:].T)
            if sol.status == 1:
                fired = [i for i, te in enumerate(sol.t_events) if te.size > 0]
                i_ev = min(fired, key=lambda i: abs(sol.t_events[i][0] - t))
                rule = active.pop(i_ev)
                te = float(sol.t_events[i_ev][0])
                events.append((te, rule.label))
                t = te
                y = sol.y_events[i_ev][0].copy()
                if rule.terminal:
                    hi = te
                    break
                if rule.rhs_after is not None:
                    cur_rhs = rule.rhs_after
            else:
                t = b
                y = sol.y[:, -1].copy()

    if t1 < t0:
        pieces.reverse()
        nodes.reverse()
        states.reverse()
    nodes_arr = np.asarray(nodes)
    states_arr = np.asarray(states)
    keep = np.concatenate([[True], np.diff(nodes_arr) > 0])
    return Trajectory(
        grid=TimeGrid(t0=lo, t1=hi, nodes=nodes_arr[keep]),
        values=states_arr[keep, 0],
        derivs=states_arr[keep, 1],
        events=tuple(sorted(events)),
        pieces=tuple(pieces),
    )


def integrate_ivp(
    rhs: Rhs,
    t0: float,
    y0: Sequence[float],
    t1: float,
    tol: float = 1e-10,
    *,
    switches: Sequence[Switch] = (),
    breaks: Sequence[Break] = (),
) -> Trajectory:
    """Integrate x'' = rhs(t, x, x') from (t0, y0) to t1.

    Local error per step is controlled to ``tol`` (relative).  Switching
    surfaces and breakpoints are honored as described in the module
    docstring.  ``t1 < t0`` poses the problem backward in time; the result
    is always reported on an increasing time grid.
    """
    if t1 == t0:
        raise ValueError("empty integration range")
    if t1 < t0:
        if switches:
            raise ValueError("switches are supported in forward time only")
        return integrate_backward(rhs, t0, y0, t1, tol, breaks=breaks)
    return _drive(rhs, t0, y0, t1, tol, switches, breaks)


def integrate_backward(
    rhs: Rhs,
    T: float,
    yT: Sequence[float],
    t0: float,
    tol: float = 1e-10,
    *,
    breaks: Sequence[Break] = (),
) -> Trajectory:
    """Integrate x'' = rhs(t, x, x') from data (x, x') posed at t = T down to
    t0, returning the solution on the increasing grid [t0, T].

    ``rhs`` and ``breaks`` describe the problem in forward time exactly as in
    :func:`integrate_ivp` (the base rhs applies on the earliest segment).
    """
    if not T > t0:
        raise ValueError("backward integration requires T > t0")
    return _drive(rhs, T, yT, t0, tol, (), breaks)
