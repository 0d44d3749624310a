"""Adaptive integration of first-order systems y' = f(t, y) across one span.

Thin layer over scipy's DOP853 embedded Runge-Kutta pair with dense output.
A solve runs forward from (t0, y0) to t1.  The package makes one solve per
process: the transition pair, in u = (rho - r)/eps on [0, 1] (``warp``).
Every geodesic's transition window is a quadrature on that pair
(``geodesics``), and everything else is closed form.

The result is a ``Flow``: the accepted nodes, the states there and the
dense output of the whole vector.  The rest of the package works with
scalar solutions (x, x') as ``Trajectory`` objects: a function on [t0, t1],
evaluated piece by piece.  A piece is a linear projection ``(x, x') = P y``
of a flow's dense output, or a closed form or a quadrature wrapped by
``Trajectory.from_function`` (not evaluated until asked).  Pieces built on
their natural spans (the last may run to inf) are joined as
``Trajectory(t0, t1, pieces)``, whose [t0, t1] is the domain.
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
# ``_bisect`` bisects to 4 ulps of 1 (absolute and relative), the tolerance
# to which scipy locates an event.
_EVENT_TOL = 4.0 * np.finfo(float).eps


class IntegrationError(RuntimeError):
    """The integrator could not meet its contract (step-size underflow or
    stiffness)."""


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
        return _horner(np.moveaxis(self.F[seg], 1, 0), x, self.states[:, seg].T).T


def _horner(coeffs, x, start):
    """The DOP853 interpolant with the coefficients ``coeffs`` (lowest order
    first along the first axis) at the step fractions x, added to the start
    state: scipy's arithmetic, operation for operation."""
    y = 0.0
    for k, f in enumerate(reversed(coeffs)):
        y = (y + f) * (x if k % 2 == 0 else 1.0 - x)
    return y + start


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
    """A C^1 solution (x, x') on the domain [t0, t1], made of consecutive
    pieces (the last may reach past t1) that ``value``/``deriv``/``state``
    evaluate anywhere in that range, through the solver's dense output on
    integrated pieces."""

    t0: float
    t1: float
    pieces: tuple[_Piece, ...] = field(repr=False)

    def state_scalar(self, t: float) -> tuple[float, float]:
        """(x, x') at one time, as floats; like ``state``, refuses times
        outside the time range."""
        x, v = self.state(t)
        return float(x[0]), float(v[0])

    def clip(self, t: float | np.ndarray) -> np.ndarray:
        """The times t as an array clipped to [t0, t1]; ValueError for a
        time outside it by more than a slack of 1e-9 of its length (at least
        1e-9)."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        lo, hi = self.t0, self.t1
        slack = 1e-9 * max(1.0, abs(hi - lo))
        if t_arr.min() < lo - slack or t_arr.max() > hi + slack:
            raise ValueError(
                f"evaluation time outside [{lo}, {hi}]: "
                f"[{t_arr.min()}, {t_arr.max()}]"
            )
        return np.clip(t_arr, lo, hi)

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t_arr = self.clip(t)
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


@dataclass(frozen=True, eq=False)
class Flow:
    """One forward solve of y' = f(t, y) on [nodes[0], nodes[-1]]: the
    states (k x n) at the accepted nodes and the dense output of the whole
    state vector."""

    nodes: np.ndarray
    states: np.ndarray
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
    max_step: float = np.inf,
) -> Flow:
    """Integrate y' = rhs(t, y) forward from (t0, y0) to t1 in one DOP853
    solve.

    Local error per step is controlled to ``tol`` relative, with the
    absolute floor ``tol * 1e-3``, and no step is longer than ``max_step``.
    """
    if not t1 > t0:
        raise ValueError(f"forward integration requires t1 > t0, got [{t0}, {t1}]")
    sol = solve_ivp(rhs, (t0, t1), np.asarray(y0, dtype=float), method=_METHOD,
                    dense_output=True, rtol=tol, atol=tol * 1e-3, max_step=max_step)
    if sol.status < 0:
        raise IntegrationError(sol.message)
    return Flow(nodes=sol.t, states=sol.y, dense=_Dense.of(sol.sol, sol.y))
