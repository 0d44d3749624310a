"""Adaptive integration of first-order systems y' = f(t, y) across one span.

Thin layer over scipy's DOP853 embedded Runge-Kutta pair with dense output.
A solve runs forward from (t0, y0) to t1, or to the first crossing of a
terminal switch ``fn(t, y) = 0``: the crossing is located on the dense output
of the bracketing step and becomes the end of the solve.  The package
integrates only across the curvature transition, so its solves run from a
known time to the (unknown) time at which the geodesic leaves the
transition, carrying several coupled quantities in one state vector.

The result is a ``Flow``: the accepted nodes, the states there, the dense
output of the whole vector and whether the switch ended it.  A solve that
carries several independent systems side by side is split into one flow
each: ``Flow.crossings`` locates where each system's row reaches a level,
and ``Flow.part`` keeps one system's rows, cut there.  The rest of the
package works with scalar solutions (x, x') as ``Trajectory`` objects: a
function on [t0, t1], evaluated piece by piece.  Integrated pieces are linear
projections ``(x, x') = P y`` of a flow's dense output; exact pieces before
and after it are closed forms wrapped by ``Trajectory.from_function`` (not
evaluated until asked), and ``Trajectory.concat`` joins them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.integrate._ivp.common import OdeSolution

__all__ = [
    "Rhs",
    "Flow",
    "Trajectory",
    "IntegrationError",
    "integrate_ivp",
]

# First-order right-hand side: (t, y) -> y'.
Rhs = Callable[[float, np.ndarray], Sequence[float]]

_METHOD = "DOP853"
# scipy locates a terminal event to 4 ulps of 1 (absolute and relative), by
# Brent's method on the bracketing step; ``Flow.crossings`` and ``_bisect``
# bisect to the same tolerance, which 100 halvings of any step reach.
_EVENT_TOL = 4.0 * np.finfo(float).eps
_BISECTIONS = 100


class IntegrationError(RuntimeError):
    """The integrator could not meet its contract (step-size underflow,
    stiffness, or a switch crossing that could not be bracketed)."""


@dataclass(frozen=True, eq=False)
class _Dense:
    """The DOP853 dense output of one solve, kept as the interpolants'
    coefficients stacked over the steps (scipy's per-step objects are
    dropped), and evaluated for all steps of an array of times at once with
    scipy's Dop853DenseOutput arithmetic, operation for operation.  Step i
    covers [ts[i], ts[i + 1]] and starts from the state column i of
    ``states`` (n x k), which supplies the interpolants' start states."""

    ts: np.ndarray
    t_old: np.ndarray
    h: np.ndarray
    F: np.ndarray  # steps x order x n
    states: np.ndarray

    @classmethod
    def of(cls, sol: OdeSolution, states: np.ndarray) -> "_Dense":
        # sol.ts ends at a terminal event, the last step's interpolant at the
        # step's end: t_old and h are the interpolants' own
        interps = sol.interpolants
        return cls(ts=np.asarray(sol.ts, dtype=float),
                   t_old=np.array([d.t_old for d in interps]),
                   h=np.array([d.h for d in interps]),
                   F=np.stack([d.F for d in interps]),
                   states=states)

    def __call__(self, t: float | np.ndarray) -> np.ndarray:
        """The state rows (k x n) at the times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        seg = np.clip(np.searchsorted(self.ts, t, side="left") - 1, 0, len(self.h) - 1)
        x = ((t - self.t_old[seg]) / self.h[seg])[:, None]
        return _horner(self.F[seg], x, self.states[:, seg].T).T

    def rows_at(self, seg: np.ndarray, rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Row rows[i] of the state at time t[i], on step seg[i]."""
        x = (t - self.t_old[seg]) / self.h[seg]
        return _horner(self.F[seg, :, rows], x, self.states[rows, seg])


def _horner(F: np.ndarray, x: np.ndarray, start: np.ndarray) -> np.ndarray:
    """The DOP853 interpolants with coefficients F (m x order [x n]) at the
    step fractions x, added to their start states."""
    y = np.zeros(F.shape[:1] + F.shape[2:])
    for k, i in enumerate(range(F.shape[1] - 1, -1, -1)):
        y += F[:, i]
        y *= x if k % 2 == 0 else 1 - x
    y += start
    return y


@dataclass(frozen=True, eq=False)
class _Piece:
    """One dense-output segment on [t_lo, t_hi].  ``sol`` maps an array of
    times to the state rows; ``proj`` (2 x k), if given, projects a k-state
    onto (x, x')."""

    t_lo: float
    t_hi: float
    sol: Callable[[np.ndarray], np.ndarray]
    proj: np.ndarray | None = None

    def eval(self, t: np.ndarray) -> np.ndarray:
        y = np.asarray(self.sol(t), dtype=float)
        return y if self.proj is None else self.proj @ y


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A C^1 solution (x, x') on [t0, t1], made of consecutive pieces that
    ``value``/``deriv``/``state`` evaluate anywhere in that range, through
    the solver's dense output on integrated pieces."""

    t0: float
    t1: float
    pieces: tuple[_Piece, ...] = field(repr=False)

    def state_scalar(self, t: float) -> tuple[float, float]:
        """(x, x') at one time, as floats; like ``state``, refuses times
        outside the time range."""
        x, v = self.state(t)
        return float(x[0]), float(v[0])

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.t0, self.t1
        slack = 1e-9 * max(1.0, abs(hi - lo))
        if t_arr.min() < lo - slack or t_arr.max() > hi + slack:
            raise ValueError(
                f"evaluation time outside [{lo}, {hi}]: "
                f"[{t_arr.min()}, {t_arr.max()}]"
            )
        t_arr = np.clip(t_arr, lo, hi)
        xs = np.empty_like(t_arr)
        vs = np.empty_like(t_arr)
        uppers = np.array([p.t_hi for p in self.pieces])
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

    @classmethod
    def from_function(
        cls,
        fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        t0: float,
        t1: float,
    ) -> "Trajectory":
        """Exact solution ``(x, x') = fn(t)`` on [t0, t1], used where a
        closed form or a quadrature replaces an ODE solve.  ``fn`` is
        vectorized over t and only called when the trajectory is
        evaluated."""

        def sol(t: np.ndarray) -> np.ndarray:
            return np.vstack(fn(np.atleast_1d(np.asarray(t, dtype=float))))

        t0, t1 = float(t0), float(t1)
        return cls(t0=t0, t1=t1, pieces=(_Piece(t0, t1, sol),))

    @classmethod
    def concat(cls, parts: Sequence["Trajectory"]) -> "Trajectory":
        """One solution from consecutive ``parts``, each starting where the
        one before ends."""
        return cls(t0=parts[0].t0, t1=parts[-1].t1,
                   pieces=tuple(piece for p in parts for piece in p.pieces))


@dataclass(frozen=True, eq=False)
class Flow:
    """One forward solve of y' = f(t, y) on [nodes[0], nodes[-1]]: the
    states (k x n) at the accepted nodes, whether the switch ended it, and
    the dense output of the whole state vector."""

    nodes: np.ndarray
    states: np.ndarray
    switched: bool
    dense: _Dense = field(repr=False)

    @property
    def end(self) -> np.ndarray:
        """The state at the last node."""
        return self.states[:, -1]

    def trajectory(self, proj: np.ndarray | None = None, t1: float | None = None) -> Trajectory:
        """The scalar solution (x, x') = proj @ y on [nodes[0], t1] (default
        the whole span; ``proj`` None takes a 2-state as it is)."""
        proj = None if proj is None else np.asarray(proj, dtype=float)
        t0, end = float(self.nodes[0]), float(self.nodes[-1])
        t1 = end if t1 is None else min(float(t1), end)
        return Trajectory(t0=t0, t1=t1, pieces=(_Piece(t0, t1, self.dense, proj),))

    def crossings(self, rows: np.ndarray, level: float) -> np.ndarray:
        """For each state row in ``rows``, each below ``level`` at the first
        node, the first time at which it reaches the level, located on its
        dense output to scipy's event tolerance (bisection on the bracketing
        step, all rows at once); nan where no node reaches it."""
        rows = np.asarray(rows, dtype=int)
        out = np.full(len(rows), np.nan)
        above = self.states[rows] >= level
        k = np.argmax(above, axis=1)  # the first node at or above the level, else 0
        todo = k > 0
        if not np.any(todo):
            return out
        seg, rows = k[todo] - 1, rows[todo]
        lo, hi = self.nodes[seg], self.nodes[seg + 1]
        for _ in range(_BISECTIONS):
            if np.all(hi - lo <= _EVENT_TOL * (1.0 + np.abs(hi))):
                break
            mid = 0.5 * (lo + hi)
            up = self.dense.rows_at(seg, rows, mid) >= level
            lo, hi = np.where(up, lo, mid), np.where(up, mid, hi)
        out[todo] = 0.5 * (lo + hi)
        return out

    def part(self, rows: slice, shift: float, t1: float, switched: bool) -> "Flow":
        """The flow of the state rows ``rows`` alone, with its times moved by
        ``shift``, on [nodes[0] + shift, t1]: the nodes before t1, then t1,
        where the state is read off the dense output; ``switched`` says
        whether t1 is a crossing.  Its dense output keeps the steps up to t1
        and views this one's coefficients."""
        nodes = self.nodes + shift
        # the step holding t1 (the last one for a t1 rounded past its end)
        k = min(max(int(np.searchsorted(nodes, t1, side="left")) - 1, 0), len(self.dense.h) - 1)
        dense = _Dense(ts=np.append(nodes[:k + 1], t1), t_old=self.dense.t_old[:k + 1] + shift,
                       h=self.dense.h[:k + 1], F=self.dense.F[:k + 1, :, rows],
                       states=self.states[rows, :k + 1])
        states = np.column_stack([dense.states, dense(t1)])
        return Flow(nodes=dense.ts, states=states, switched=switched, dense=dense)


def _bisect(past: Callable[[float], bool], lo: float, hi: float) -> float:
    """The point between lo and hi (in either order) at which ``past`` turns
    true, given that it is false at lo, true at hi and turns once between:
    bisection to the event tolerance, ending on the side where it is true."""
    while abs(hi - lo) > _EVENT_TOL * (1.0 + abs(hi)):
        mid = 0.5 * (lo + hi)
        if past(mid):
            hi = mid
        else:
            lo = mid
    return hi


def integrate_ivp(
    rhs: Rhs,
    t0: float,
    y0: Sequence[float],
    t1: float,
    tol: float = 1e-10,
    *,
    switch: Callable[[float, np.ndarray], float] | None = None,
    max_step: float = np.inf,
) -> Flow:
    """Integrate y' = rhs(t, y) forward from (t0, y0) to t1, or to the first
    crossing of the terminal switching surface ``switch(t, y) = 0``, in one
    DOP853 solve.  The zero must be transverse along the solution.

    Local error per step is controlled to ``tol`` relative, with the
    absolute floor ``tol * 1e-3``, and no step is longer than ``max_step``.
    """
    if not t1 > t0:
        raise ValueError(f"forward integration requires t1 > t0, got [{t0}, {t1}]")
    events = None
    if switch is not None:
        def event(t, y):
            return switch(t, y)

        event.terminal = True
        events = [event]
    sol = solve_ivp(rhs, (t0, t1), np.asarray(y0, dtype=float), method=_METHOD,
                    dense_output=True, events=events, rtol=tol, atol=tol * 1e-3,
                    max_step=max_step)
    if sol.status < 0:
        raise IntegrationError(sol.message)
    return Flow(nodes=sol.t, states=sol.y, switched=sol.status == 1,
                dense=_Dense.of(sol.sol, sol.y))
