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

Backward problems are integrated forward in ``tau = T - t`` with a
sign-flipped velocity, then re-expressed on the forward time axis, so there
is a single solver code path.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
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
    on (the smooth far-side branch of a piecewise field).  Each switch fires
    at most once.
    """

    fn: Callable[[float, float, float], float]
    label: str = "switch"
    rhs_after: Rhs | None = None


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
    step_hint: float
    nodes: np.ndarray


@dataclass(frozen=True, eq=False)
class _Piece:
    """One dense-output segment.  ``reflect_about`` marks segments produced
    by a backward run: they are evaluated at ``reflect_about - t`` and the
    derivative component is negated."""

    t_lo: float
    t_hi: float
    sol: Callable[[np.ndarray], np.ndarray]
    reflect_about: float | None = None

    def __post_init__(self) -> None:
        # Unpack scipy's OdeSolution once so the scalar fast path can call
        # the local interpolants directly (RHS callbacks are scalar-hot).
        if isinstance(self.sol, OdeSolution):
            object.__setattr__(self, "_ts", list(self.sol.ts))
            object.__setattr__(self, "_interps", self.sol.interpolants)
        else:
            object.__setattr__(self, "_ts", None)
            object.__setattr__(self, "_interps", None)

    def eval(self, t: np.ndarray) -> np.ndarray:
        if self.reflect_about is None:
            y = np.asarray(self.sol(t), dtype=float)
        else:
            y = np.asarray(self.sol(self.reflect_about - t), dtype=float)
            y = np.vstack([y[0], -y[1]])
        return y

    def eval_scalar(self, t: float) -> tuple[float, float]:
        tt = t if self.reflect_about is None else self.reflect_about - t
        if self._interps is not None:
            i = bisect_right(self._ts, tt) - 1
            i = 0 if i < 0 else (len(self._interps) - 1 if i >= len(self._interps) else i)
            y = self._interps[i](tt)
        else:
            y = np.asarray(self.sol(np.asarray([tt])), dtype=float)[:, 0]
        if self.reflect_about is None:
            return float(y[0]), float(y[1])
        return float(y[0]), -float(y[1])


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
    def from_affine(
        cls,
        t0: float,
        t1: float,
        x0: float,
        slope: float,
        events: Sequence[tuple[float, str]] = (),
        n_nodes: int = 33,
    ) -> "Trajectory":
        """Exact affine solution x(t) = x0 + slope*(t - t0), used where an
        ODE solve would only reproduce a known line."""

        def sol(t: np.ndarray) -> np.ndarray:
            t = np.atleast_1d(np.asarray(t, dtype=float))
            return np.vstack([x0 + slope * (t - t0), np.full_like(t, slope)])

        nodes = np.unique(np.concatenate(
            [np.linspace(t0, t1, n_nodes), [te for te, _ in events]]
        ))
        grid = TimeGrid(t0=t0, t1=t1, step_hint=(t1 - t0) / max(n_nodes - 1, 1), nodes=nodes)
        y = sol(nodes)
        return cls(
            grid=grid,
            values=y[0],
            derivs=y[1],
            events=tuple(sorted(events)),
            pieces=(_Piece(t0, t1, sol),),
        )


def _as_system(rhs: Rhs):
    def f(t: float, y: np.ndarray):
        return (y[1], rhs(t, y[0], y[1]))

    return f


def _segments(rhs: Rhs, t0: float, t1: float, breaks: Sequence[Break]):
    """Split [t0, t1] at the break times.  Returns [(a, b, rhs_i, label_i)]
    where label_i (if any) is attached to the segment start a."""
    brs = sorted((b for b in breaks if t0 < b.time < t1), key=lambda b: b.time)
    segs = []
    cur_rhs, cur_t, cur_label = rhs, t0, None
    for b in brs:
        segs.append((cur_t, b.time, cur_rhs, cur_label))
        cur_t = b.time
        cur_label = b.label
        if b.rhs_after is not None:
            cur_rhs = b.rhs_after
    segs.append((cur_t, t1, cur_rhs, cur_label))
    return segs


def _drive(
    rhs: Rhs,
    t0: float,
    y0: Sequence[float],
    t1: float,
    tol: float,
    switches: Sequence[Switch],
    breaks: Sequence[Break],
    step_hint: float | None,
    atol: float | None = None,
):
    """Forward-time driver.  Returns (pieces, nodes, states, events)."""
    rtol = tol
    if atol is None:
        atol = tol * 1e-3
    y = np.asarray(y0, dtype=float)
    if y.shape != (2,):
        raise ValueError("state must be (x, x')")

    pieces: list[_Piece] = []
    nodes: list[float] = [t0]
    states: list[np.ndarray] = [y.copy()]
    events: list[tuple[float, str]] = []
    active = list(switches)
    first = True

    for (a, b, seg_rhs, seg_label) in _segments(rhs, t0, t1, breaks):
        if seg_label is not None:
            events.append((a, seg_label))
        t = a
        cur_rhs = seg_rhs
        while t < b - 1e-14 * max(1.0, abs(b)):
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
                rtol=rtol,
                atol=atol,
                first_step=(step_hint if first else None),
            )
            first = False
            if sol.status < 0:
                raise IntegrationError(sol.message)
            pieces.append(_Piece(t, float(sol.t[-1]), sol.sol))
            nodes.extend(float(tt) for tt in sol.t[1:])
            states.extend(sol.y[:, 1:].T)
            if sol.status == 1:
                fired = [i for i, te in enumerate(sol.t_events) if te.size > 0]
                i_ev = min(fired, key=lambda i: sol.t_events[i][0])
                rule = active.pop(i_ev)
                te = float(sol.t_events[i_ev][0])
                events.append((te, rule.label))
                t = te
                y = sol.y_events[i_ev][0].copy()
                if rule.rhs_after is not None:
                    cur_rhs = rule.rhs_after
            else:
                t = b
                y = sol.y[:, -1].copy()
    return pieces, np.asarray(nodes), np.asarray(states), events


def _assemble(pieces, nodes, states, events, t0, t1, step_hint) -> Trajectory:
    keep = np.concatenate([[True], np.diff(nodes) > 0])
    nodes = nodes[keep]
    states = states[keep]
    grid = TimeGrid(
        t0=t0,
        t1=t1,
        step_hint=step_hint if step_hint is not None else (t1 - t0) / 100.0,
        nodes=nodes,
    )
    return Trajectory(
        grid=grid,
        values=states[:, 0].copy(),
        derivs=states[:, 1].copy(),
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
    step_hint: float | None = None,
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
        return integrate_backward(rhs, t0, y0, t1, tol, breaks=breaks, step_hint=step_hint)
    pieces, nodes, states, events = _drive(rhs, t0, y0, t1, tol, switches, breaks, step_hint)
    return _assemble(pieces, nodes, states, events, t0, t1, step_hint)


def _seed_atol(tol: float, yT: np.ndarray) -> float:
    # The absolute floor must resolve the seed itself: a backward run
    # starting from an exponentially small seed would otherwise grant the
    # first steps an O(1) relative error budget.
    scale = float(np.max(np.abs(yT)))
    return tol * 1e-3 * min(1.0, scale if scale > 0.0 else 1.0)


def integrate_backward(
    rhs: Rhs,
    T: float,
    yT: Sequence[float],
    t0: float,
    tol: float = 1e-10,
    *,
    breaks: Sequence[Break] = (),
    step_hint: float | None = None,
) -> Trajectory:
    """Integrate x'' = rhs(t, x, x') from data (x, x') posed at t = T down to
    t0, returning the solution on the increasing grid [t0, T].

    ``rhs`` and ``breaks`` describe the problem in forward time exactly as in
    :func:`integrate_ivp` (the base rhs applies on the earliest segment).
    Internally this is forward integration in tau = T - t with the velocity
    sign flipped.
    """
    if not T > t0:
        raise ValueError("backward integration requires T > t0")

    def reflect(g: Rhs) -> Rhs:
        def g_tau(tau: float, x: float, v: float) -> float:
            return g(T - tau, x, -v)

        return g_tau

    segs = _segments(rhs, t0, T, breaks)
    # Last forward segment is the first tau segment.
    a0, b0, rhs0, _ = segs[-1]
    tau_breaks = []
    for (a, b, seg_rhs, seg_label) in reversed(segs[:-1]):
        tau_breaks.append(Break(time=T - b, label=None, rhs_after=reflect(seg_rhs)))
    # Labeled junctions become events at their forward times.
    label_events = [(float(a), lbl) for (a, b, _r, lbl) in segs if lbl is not None]

    yT = np.asarray(yT, dtype=float)
    pieces, taus, states, _ = _drive(
        reflect(rhs0), 0.0, (yT[0], -yT[1]), T - t0, tol, (), tau_breaks, step_hint,
        atol=_seed_atol(tol, yT),
    )

    fwd_pieces = [
        _Piece(T - p.t_hi, T - p.t_lo, p.sol, reflect_about=T) for p in reversed(pieces)
    ]
    nodes = (T - taus)[::-1]
    states = states[::-1].copy()
    states[:, 1] *= -1.0
    return _assemble(fwd_pieces, nodes, states, label_events, t0, T, step_hint)
