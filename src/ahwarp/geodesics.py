"""Radial coordinate of the geodesic family, its angular coordinate, and
their closed forms.

A unit-speed geodesic at distance s from the origin has radial coordinate
rho(t) solving

    rho'' = (A'/A)(rho) (1 - rho'^2),    rho(0) = s, rho'(0) = 0   (s > 0),

while the radial geodesic is exactly rho(t) = t.  Only the mollified
transition r <= rho <= r + eps is integrated; the rest is exact.  Each
solution is built from three pieces:

* the ball: for s < r the geodesic is the great-circle arc
  cos(rho) = cos(s) cos(t), written as sin^2(rho/2) = a + b - 2ab =
  a (1 - b) + b (1 - a) with a = sin^2(s/2), b = sin^2(t/2) (no cancellation
  however small s is), until the entry time
  t_in = ell_r(s) = arccos(cos r / cos s);
* the transition: one DOP853 solve from the exact entry state (or from
  (s, 0) at t = 0 when r <= s < r + eps) to the crossing of rho = r + eps at
  the exit time t_x; at eps = 0 this piece is empty.  The solve carries
  (rho, rho', a, b, U, U', V, V'): the warp function along the geodesic,
  (a, b) = (A, A')(rho) with a' = b rho' and b' = -K_par(rho) a rho', so
  that rho'' = (b/a)(1 - rho'^2) needs no lookup, and the in-plane Jacobi
  pair Y'' = -K_par(rho) Y started from the identity at t_in (the ``jacobi``
  kernel reads its transfer matrix off the end state).  Each right-hand-side
  evaluation reads K_par once.  Along the radial geodesic rho = t stays
  exact, and the same system runs over the fixed span [r, r + eps] for the
  pair.  The system does not contain t, so a grid of geodesics
  (``solve_radial_grid``) integrates the windows of up to 64 of them as one
  solve in tau = t - t_in, and each geodesic keeps its own rows of it;
* the exterior: there A'' = A, so the warped-product Hessian formula
  (O'Neill, Semi-Riemannian Geometry, 1983, ch. 7) gives Hess A' = A' g and
  h(t) = A'(rho(t)) solves h'' = h along every geodesic.  Its data at t_x are
  exact, h = A'(r + eps) and h' = sqrt(A(r + eps)^2 - A(s)^2) (Clairaut), and
  since A^2 - A'^2 = 4 a_+ a_- there,

      rho = log((h + sqrt(h^2 + 4 a_+ a_-)) / (2 a_+)),
      rho' = h' / sqrt(h^2 + 4 a_+ a_-),

  evaluated in a form scaled by e^{-(t - t_x)} that cannot overflow.  Only t_x
  carries integration error.  The exterior is not of constant curvature
  (K_perp = -1 + (1 + 4 a_+ a_-)/A^2); what is exact is h'' = h.

The geodesic stays in a totally geodesic 2-plane, where its angular
coordinate theta (theta(0) = 0) obeys Clairaut's integral

    theta'(t) = A(s) / A(rho(t))^2,

which past t_x is A(s) / (h^2 + 4 a_+ a_-).  Inside the ball
theta(t) = atan2(sin t, sin s cos t) exactly.  After the entry time (from
t = 0 if s >= r) the angle is a composite Gauss-Legendre sum of Clairaut's
rate over the transition solve's accepted steps and over fixed unit panels
past t_x, summed tail-first as phi(t) = theta_inf - theta(t): the decaying
off-plane Jacobi field A(rho) sin(phi) is then resolved to full relative
precision however small phi is.  A closed antiderivative exists past t_x,
but it switches between arctan and log branches as 4 a_+ a_- changes sign,
which happens near r = pi/4, so the quadrature is kept.  The tail of the
rate past the solve horizon is dropped and bounded
(RadialSolution.angle_tail_bound).  At the critical parameters
(r, eps) = (pi/4, 0) everything is available in closed form, including the
angular coordinate; those formulas are the oracles for the numerical
pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

import numpy as np

from .ode import Flow, Trajectory, integrate_ivp
from .warp import ProfileParams, WarpFunction, k_parallel, solve_warp

__all__ = [
    "GeodesicParams",
    "RadialSolution",
    "entry_time",
    "radial_exit_slope",
    "solve_radial",
    "solve_radial_grid",
    "closed_rho",
    "closed_theta",
    "growth_factor",
    "comparison_lower_bound",
]

_QUARTER_PI = math.pi / 4.0


@dataclass(frozen=True)
class GeodesicParams:
    """mu = (s, r, eps): closest-approach distance s >= 0 of the geodesic to
    the origin, plus the profile parameters of the metric."""

    s: float
    r: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.s) and self.s >= 0.0):
            raise ValueError(f"s must be finite and nonnegative, got {self.s}")
        ProfileParams(self.r, self.eps)  # validates r, eps

    @property
    def profile(self) -> ProfileParams:
        return ProfileParams(self.r, self.eps)


# Gauss-Legendre rule for Clairaut's rate on the accepted steps of the
# transition solve and on the exterior piece.  The rate falls like e^{-2t}, so
# steps and the exterior are split into panels of at most _PANEL, on which 8
# nodes integrate it to rounding error.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_PANEL = 1.0


def _ball_state(s: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, rho') on the great-circle arc cos(rho) = cos(s) cos(t), from
    sin(rho/2) = hypot(sin(s/2) cos(t/2), cos(s/2) sin(t/2)); rho(0) = s to
    the last bit even where sin(s/2)^2 underflows."""
    half = np.hypot(math.sin(0.5 * s) * np.cos(0.5 * t), math.cos(0.5 * s) * np.sin(0.5 * t))
    sin_rho = 2.0 * half * np.sqrt(1.0 - half * half)
    return 2.0 * np.arcsin(half), math.cos(s) * np.sin(t) / sin_rho


@dataclass(frozen=True)
class _Exterior:
    """The geodesic past the transition exit t_x, where h = A'(rho) solves
    h'' = h.  With tau = t - t_x, e^{-tau} h = (h_x (1 + E) + h'_x (1 - E)) / 2
    and e^{-tau} h' = (h'_x (1 + E) + h_x (1 - E)) / 2, E = e^{-2 tau}; both
    terms are nonnegative and nothing overflows."""

    t_x: float
    rho_x: float
    h_x: float   # A'(rho(t_x))
    dh_x: float  # h'(t_x) = A(rho(t_x)) rho'(t_x)
    d: float     # 4 a_+ a_- = A^2 - A'^2
    a_s: float   # A(s)

    def _scaled(self, t: np.ndarray):
        """(tau, E, e^{-tau} h, e^{-tau} h', e^{-tau} A)."""
        tau = t - self.t_x
        e = np.exp(-2.0 * tau)
        m = -np.expm1(-2.0 * tau)
        g = 0.5 * (self.h_x * (1.0 + e) + self.dh_x * m)
        dg = 0.5 * (self.dh_x * (1.0 + e) + self.h_x * m)
        return tau, e, g, dg, np.sqrt(g * g + self.d * e)

    def state(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, rho') = (log((h + A) / (2 a_+)), h' / A), taken relative to
        t_x so that rho(t_x) = rho_x exactly."""
        tau, _, g, dg, a = self._scaled(t)
        a_x = math.sqrt(self.h_x * self.h_x + self.d)
        return self.rho_x + tau + np.log((g + a) / (self.h_x + a_x)), dg / a

    def rate(self, t: np.ndarray) -> np.ndarray:
        """Clairaut's rate A(s) / A(rho)^2 = A(s) / (h^2 + 4 a_+ a_-)."""
        _, e, _, _, a = self._scaled(t)
        return self.a_s * e / (a * a)

    def k_perp(self, t: np.ndarray) -> np.ndarray:
        """K_perp(rho) = (1 - A'^2) / A^2 = -1 + (1 + 4 a_+ a_-) / A^2."""
        _, e, _, _, a = self._scaled(t)
        return -1.0 + (1.0 + self.d) * e / (a * a)


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """rho along one geodesic: its trajectory, a function on [0, T]; the
    entry time at which rho crosses r (present iff s < r and it is reached by
    T); the exit time at which rho reaches r + eps (0 if s >= r + eps, the
    entry time if eps = 0, None if not reached by T); the warp function A of
    the metric; the solve's tolerance; the exact exterior piece; the window
    solve (``transition``, None where nothing is integrated), whose accepted
    steps the angle quadrature follows; and the angular coordinate theta."""

    params: GeodesicParams
    trajectory: Trajectory
    entry_time: float | None
    warp: WarpFunction
    tol: float
    exit_time: float | None = None
    exterior: _Exterior | None = None
    transition: Flow | None = None

    @property
    def window(self) -> tuple[float, float]:
        """(t_in, t_x): inside the ball before t_in, in the transition on
        [t_in, t_x], outside it after t_x.  t_in = 0 when the geodesic starts
        outside the ball; t_in = t_x when the transition is sharp."""
        if self.exit_time is None:
            raise ValueError(
                "radial horizon too small: the geodesic has not left the "
                "transition zone"
            )
        return (self.entry_time or 0.0), self.exit_time

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.trajectory.state(t)

    def rho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.value(t)

    def drho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.deriv(t)

    # -- angular coordinate ------------------------------------------------

    @cached_property
    def _a_s(self) -> float:
        return float(self.warp.value(self.params.s))

    def _rate(self, t: np.ndarray) -> np.ndarray:
        """Clairaut's rate A(s)/A(rho)^2: from the exterior piece past t_x,
        through the trajectory before it."""
        out = np.empty_like(t)
        past = np.zeros(t.shape, bool) if self.exterior is None else t >= self.exterior.t_x
        if np.any(past):
            out[past] = self.exterior.rate(t[past])
        if not np.all(past):
            rho, _ = self.trajectory.state(t[~past])
            a = self.warp.value(rho)
            out[~past] = self._a_s / (a * a)
        return out

    def _rate_integral(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Integral of A(s)/A(rho)^2 over each [lo_i, hi_i] (each inside one
        panel), by the Gauss-Legendre rule."""
        half = 0.5 * (hi - lo)
        t = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES
        rate = self._rate(t.ravel()).reshape(t.shape)
        return half * (rate * _GL_WEIGHTS).sum(axis=1)

    def _theta_ball(self, t):
        """theta inside the ball, where the geodesic is a great circle."""
        return np.arctan2(np.sin(t), math.sin(self.params.s) * np.cos(t))

    @cached_property
    def _angle_table(self) -> tuple[np.ndarray, np.ndarray, float, float]:
        """(knots, phi at the knots, theta_inf, pi/2 - theta_inf): the panel
        ends from the entry time (or 0) on, with phi summed tail-first.  The
        knots are the window solve's accepted steps, and a stretch longer
        than a panel, such as the exterior [t_x, T], is cut into panels.
        Inside the ball pi/2 - theta = atan2(sin s cos t, sin t) keeps its
        relative precision for small s, so pi/2 - theta_inf does too."""
        if self.params.s == 0.0:
            raise ValueError("the angular coordinate is undefined along the radial geodesic")
        start = self.entry_time if self.entry_time is not None else 0.0
        solve = () if self.transition is None else self.transition.nodes
        nodes = np.unique(np.concatenate([[start], solve, [self.trajectory.t1]]))
        steps = np.diff(nodes)
        k = np.maximum(1, np.ceil(steps / _PANEL)).astype(int)
        step = np.repeat(np.arange(len(k)), k)
        frac = (np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)) / k[step]
        knots = np.append(nodes[:-1][step] + steps[step] * frac, nodes[-1])
        pieces = self._rate_integral(knots[:-1], knots[1:])
        phi = np.append(np.cumsum(pieces[::-1])[::-1], 0.0)
        if self.entry_time is None:
            theta_start, gap_start = 0.0, math.pi / 2.0
        else:
            theta_start = self._theta_ball(start)
            gap_start = math.atan2(math.sin(self.params.s) * math.cos(start), math.sin(start))
        return knots, phi, theta_start + float(phi[0]), gap_start - float(phi[0])

    @property
    def theta_infinity(self) -> float:
        """theta_inf = phi(0): the total angle swept by the geodesic, up to
        the dropped tail bounded by ``angle_tail_bound``."""
        return self._angle_table[2]

    @property
    def theta_infinity_complement(self) -> float:
        """pi/2 - theta_inf, to full relative precision even where theta_inf
        is within rounding of pi/2 (small s)."""
        return self._angle_table[3]

    def angles(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta(t), phi(t)) with phi = theta_inf - theta, for t in [0, T];
        exact inside the ball, Clairaut's rate integrated after it."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        knots, phi_k, theta_inf, _ = self._angle_table
        if t_arr.min() < 0.0 or t_arr.max() > knots[-1]:
            raise ValueError(f"angle requested outside [0, {knots[-1]}]")
        theta = np.empty_like(t_arr)
        phi = np.empty_like(t_arr)
        ball = t_arr < knots[0]
        if np.any(ball):
            theta[ball] = self._theta_ball(t_arr[ball])
            phi[ball] = (self._theta_ball(knots[0]) - theta[ball]) + phi_k[0]
        out = ~ball
        if np.any(out):
            j = np.clip(np.searchsorted(knots, t_arr[out], side="right"), 1, len(knots) - 1)
            phi[out] = phi_k[j] + self._rate_integral(t_arr[out], knots[j])
            theta[out] = theta_inf - phi[out]
        return theta, phi

    def theta(self, t: float | np.ndarray) -> float | np.ndarray:
        """Angular coordinate theta(t), theta(0) = 0, increasing."""
        theta, _ = self.angles(t)
        return float(theta[0]) if np.ndim(t) == 0 else theta

    @property
    def angle_tail_bound(self) -> float:
        """Bound on the rate integral past the horizon T, dropped from phi.
        Past the transition rho' increases and (log A)' >= c = min(1,
        A'/A(rho(T))), so the tail is at most A(s) / (2 c rho'(T) A(rho(T))^2);
        the bound returned is twice that, a margin for the error of the
        radial solve in rho(T).  Infinite while the geodesic is still inside
        the transition at T."""
        p = self.params
        rho_T, drho_T = (float(v[0]) for v in self.trajectory.state(self.trajectory.t1))
        if rho_T < p.r + p.eps or not drho_T > 0.0:
            return math.inf
        a, da = (float(v[0]) for v in self.warp.state(rho_T))
        c = min(1.0, da / a)
        if not c > 0.0:
            return math.inf
        return self._a_s / (c * drho_T * a * a)


def entry_time(s: float, r: float) -> float:
    """Time at which the geodesic at distance s < r from the origin reaches
    the ball boundary rho = r: arccos(cos r / cos s)."""
    if not 0.0 <= s < r:
        raise ValueError(f"entry time requires 0 <= s < r, got s={s}, r={r}")
    return math.acos(min(1.0, math.cos(r) / math.cos(s)))


def radial_exit_slope(s: float, r: float) -> float:
    """rho'(ell_r(s)) = sqrt(cos^2 s - cos^2 r)/sin r, with
    cos^2 s - cos^2 r = sin(r + s) sin(r - s) (no cancellation near grazing);
    equals sqrt(cos(2s)) at r = pi/4."""
    if not 0.0 <= s < r:
        raise ValueError(f"exit slope requires 0 <= s < r, got s={s}, r={r}")
    return math.sqrt(math.sin(r + s) * math.sin(r - s)) / math.sin(r)


# The window solve carries (rho, rho', a, b, U, U', V, V'): the geodesic, the
# warp function along it (a, b) = (A, A')(rho), and the in-plane Jacobi pair
# started from the identity at t_in.  Each evaluation reads K_par once.
_PAIR_START = (1.0, 0.0, 0.0, 1.0)
# The most geodesics whose windows share one solve.  The batch's dense output
# has 8 rows per geodesic per step, so this bounds the memory of a grid.
_BATCH = 64


def _window_rhs(profile: ProfileParams):
    """The window equation of one geodesic, on floats (``math.exp`` under
    K_par): far cheaper per call than numpy on an 8-vector."""
    def rhs(t: float, y: np.ndarray) -> tuple[float, ...]:
        rho, v, a, b, u, du, w, dw = y.tolist()
        k = k_parallel(profile, rho)
        return v, (b / a) * (1.0 - v * v), b * v, -k * a * v, du, -k * u, dw, -k * w

    return rhs


def _batch_rhs(profile: ProfileParams, n: int):
    """The window equations of n geodesics as one system: the state is the
    8 x n array of their states, row-major, and K_par is read once for the
    rho row."""
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho, v, a, b, u, du, w, dw = y.reshape(8, n)
        k = k_parallel(profile, rho)
        return np.concatenate((v, (b / a) * (1.0 - v * v), b * v, -k * a * v,
                               du, -k * u, dw, -k * w))

    return rhs


def _window_start(p: GeodesicParams, warp: WarpFunction, T: float) -> tuple[float, tuple] | None:
    """(t_in, state at t_in) of the geodesic's window solve; None when
    nothing is integrated (eps = 0, s >= r + eps, or t_in >= T)."""
    s, r, eps = p.s, p.r, p.eps
    if eps == 0.0 or s >= r + eps:
        return None
    if s == 0.0:
        # rho(t) = t exactly; the polar-coordinate singularity at the origin
        # is not integrated.  The window solve (rho' = 1, so rho'' = 0) runs
        # over the fixed span [r, r + eps] for the in-plane pair.
        t_in, y0 = r, (r, 1.0, math.sin(r), math.cos(r), *_PAIR_START)
    else:
        t_in, state = (entry_time(s, r), (r, radial_exit_slope(s, r))) if s < r else (0.0, (s, 0.0))
        a, b = (float(v[0]) for v in warp.state(state[0]))
        y0 = (*state, a, b, *_PAIR_START)
    return (t_in, y0) if t_in < T else None


def _solve_windows(
    params: list[GeodesicParams], starts: list[tuple[float, tuple]], T: float, tol: float
) -> list[tuple[Flow, float | None]]:
    """The window solves of n geodesics of one metric, as one DOP853 solve:
    (the geodesic's window flow, its exit time t_x or None past T) each.

    The window equation does not contain t, so every geodesic starts at
    tau = t - t_in = 0, and geodesic j is column j of an 8 x n state (a
    geodesic alone runs in t from t_in, as it always has, with the float
    right-hand side).  scipy's error norm is an RMS over all 8n components:
    the tolerance tol / sqrt(n) keeps each geodesic's own 8-component norm
    within tol.  The solve ends at the last crossing, where the least rho
    reaches r + eps; every other crossing is located on the dense output of
    its rho row.  The radial geodesic's window ends at exactly r + eps."""
    n = len(params)
    profile = params[0].profile
    rho_x = profile.r + profile.eps
    radial = np.array([p.s == 0.0 for p in params])
    t_in = np.array([t for t, _ in starts])
    t0 = t_in[0] if n == 1 else 0.0
    shift = t_in - t0
    rhs = _window_rhs(profile) if n == 1 else _batch_rhs(profile, n)
    y0 = np.array([y for _, y in starts]).T.ravel()
    if radial.all():
        flow = integrate_ivp(rhs, t0, y0, float(np.max(min(rho_x, T) - shift)), tol / math.sqrt(n))
    else:
        flow = integrate_ivp(rhs, t0, y0, float(np.max(T - shift)), tol / math.sqrt(n),
                             switch=lambda t, y: y[:n].min() - rho_x)
    # a switched solve ends at the crossing of its slowest geodesic, and a
    # geodesic at no node past r + eps before that crosses within the event
    # tolerance of it
    tau = np.full(n, flow.nodes[-1] if flow.switched else np.nan)
    rows = np.flatnonzero(~radial)
    if flow.switched:
        rows = rows[rows != np.argmin(flow.end[:n])]
    found = flow.crossings(rows, rho_x)
    tau[rows] = np.where(np.isnan(found), tau[rows], found)
    t_x = np.where(radial, rho_x, tau + shift)
    exits = [float(t) if t <= T else None for t in t_x]  # nan compares False
    if n == 1:
        return [(flow, exits[0])]
    return [(flow.part(slice(j, None, n), float(shift[j]),
                       T if t is None else t, switched=t is not None), t)
            for j, t in enumerate(exits)]


def _radial_solution(p: GeodesicParams, warp: WarpFunction, T: float, tol: float,
                     window: tuple[Flow, float | None] | None) -> RadialSolution:
    """The geodesic on [0, T] from its window solve (None when it has
    none): the exact ball before it, the exact exterior after it."""
    s, r, rho_x = p.s, p.r, p.r + p.eps
    flow, window_exit = (None, None) if window is None else window
    if s == 0.0:
        traj = Trajectory.from_function(lambda t: (t, np.ones_like(t)), 0.0, T)
        return RadialSolution(params=p, trajectory=traj, entry_time=r, warp=warp, tol=tol,
                              exit_time=rho_x if rho_x <= T else None, transition=flow)

    parts: list[Trajectory] = []
    t, state, t_entry = 0.0, (s, 0.0), None
    if s < r:
        t_in = entry_time(s, r)
        parts.append(Trajectory.from_function(lambda tt: _ball_state(s, tt), 0.0, min(t_in, T)))
        if t_in > T:  # still inside the ball at the horizon
            return RadialSolution(params=p, trajectory=parts[0], entry_time=None,
                                  warp=warp, tol=tol)
        t, state, t_entry = t_in, (r, radial_exit_slope(s, r)), t_in
    t_x = t if state[0] >= rho_x else None
    if flow is not None:
        parts.append(flow.trajectory(np.eye(2, 8)))  # (rho, rho')
        t_x = window_exit

    exterior = None
    if t_x is not None and t_x < T:
        a_s = float(warp.value(s))
        a_x, h_x = (float(v[0]) for v in warp.state(max(s, rho_x)))
        if s < r:  # A(s) = sin s; sin^2 r - sin^2 s = sin(r + s) sin(r - s)
            dh2 = (a_x - math.sin(r)) * (a_x + math.sin(r)) + math.sin(r + s) * math.sin(r - s)
        else:
            dh2 = (a_x - a_s) * (a_x + a_s)
        exterior = _Exterior(
            t_x=t_x,
            rho_x=max(s, rho_x),
            h_x=h_x,
            dh_x=math.sqrt(max(0.0, dh2)),
            d=4.0 * warp.a_plus * warp.a_minus,
            a_s=a_s,
        )
        parts.append(Trajectory.from_function(exterior.state, t_x, T))
    return RadialSolution(params=p, trajectory=Trajectory.concat(parts),
                          entry_time=t_entry, warp=warp, tol=tol, exit_time=t_x,
                          exterior=exterior, transition=flow)


def _grid_solutions(params: list[GeodesicParams], T: float, tol: float) -> Iterator[RadialSolution]:
    warp = solve_warp(params[0].profile, tol=min(tol, 1e-12))
    starts = [_window_start(p, warp, T) for p in params]
    pending = [i for i, start in enumerate(starts) if start is not None]
    windows: dict[int, tuple[Flow, float | None]] = {}
    for i, p in enumerate(params):
        if starts[i] is not None and i not in windows:
            batch, pending = pending[:_BATCH], pending[_BATCH:]
            solved = _solve_windows([params[j] for j in batch], [starts[j] for j in batch], T, tol)
            windows = dict(zip(batch, solved))
        yield _radial_solution(p, warp, T, tol, windows.get(i))


def solve_radial_grid(ss: Iterable[float], r: float, eps: float, T: float = 30.0,
                      tol: float = 1e-10) -> Iterator[RadialSolution]:
    """``solve_radial`` at (s, r, eps) for each s of ``ss``, in order, with the
    transition windows of up to 64 geodesics integrated in one DOP853 solve
    (see ``_solve_windows``); each result is an ordinary per-geodesic
    solution.  The solutions are made as they are asked for, so a long grid
    holds one batch at a time; they are not cached."""
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    params = [GeodesicParams(float(s), r, eps) for s in ss]
    return _grid_solutions(params, T, tol) if params else iter(())


@lru_cache(maxsize=64)
def _solve_radial_cached(s: float, r: float, eps: float, T: float, tol: float) -> RadialSolution:
    return next(_grid_solutions([GeodesicParams(s, r, eps)], T, tol))


def solve_radial(params: GeodesicParams, T: float = 30.0, tol: float = 1e-10) -> RadialSolution:
    """The radial coordinate on [0, T]: exact in the ball, integrated across
    the transition only, exact past it.

    The entry time is the exact ``entry_time(s, r)``; the crossing of
    rho = r + eps (eps > 0) is located by the integrator and ends the window
    solve, so no step straddles the curvature transition; it is the
    solution's ``exit_time``.  This is the grid of one of
    ``solve_radial_grid``; the 64 most recent results are cached.
    """
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    return _solve_radial_cached(params.s, params.r, params.eps, T, tol)


def growth_factor(t: float | np.ndarray, s: float) -> float | np.ndarray:
    """F(t, s) = cosh(t - ell(s)) + sqrt(cos 2s) sinh(t - ell(s)) at
    (r, eps) = (pi/4, 0), for 0 <= s < pi/4.  Drives every closed form
    outside the ball."""
    ell = entry_time(s, _QUARTER_PI)
    c = math.sqrt(max(0.0, math.cos(2.0 * s)))
    x = np.asarray(t, dtype=float) - ell
    out = np.cosh(x) + c * np.sinh(x)
    return float(out) if np.ndim(t) == 0 else out


def closed_rho(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """Closed-form rho_s(t) at (r, eps) = (pi/4, 0), valid for all real t."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    ta = np.abs(np.asarray(t, dtype=float))
    if s == 0.0:
        out = ta  # radial line, exactly
    elif s >= _QUARTER_PI:
        out = s + np.log(np.cosh(ta))
    else:
        ell = entry_time(s, _QUARTER_PI)
        inside = np.arccos(np.clip(math.cos(s) * np.cos(ta), -1.0, 1.0))
        with np.errstate(over="ignore"):
            outside = _QUARTER_PI + np.log(growth_factor(np.maximum(ta, ell), s))
        out = np.where(ta <= ell, inside, outside)
    return float(out) if np.ndim(t) == 0 else out


def closed_theta(s: float, t: float | np.ndarray) -> float | np.ndarray:
    """Closed-form angular coordinate theta_s(t) at (r, eps) = (pi/4, 0);
    odd in t and continuous across the entry time."""
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    t_arr = np.asarray(t, dtype=float)
    ta = np.abs(t_arr)
    sgn = np.sign(t_arr)
    if s >= _QUARTER_PI:
        out = math.sqrt(2.0) * np.tanh(t_arr) * math.exp(-s + _QUARTER_PI)
    else:
        ell = entry_time(s, _QUARTER_PI)
        denom = np.sqrt(np.maximum(1.0 - (math.cos(s) * np.cos(ta)) ** 2, 1e-300))
        inside = np.arcsin(np.clip(np.sin(ta) / denom, -1.0, 1.0))
        # sinh(y) / F = m / ((2 - m) + c m) with m = 1 - e^{-2y}, y = t - ell:
        # no overflow at any t
        m = -np.expm1(-2.0 * (np.maximum(ta, ell) - ell))
        c = math.sqrt(max(0.0, math.cos(2.0 * s)))
        base = math.asin(math.sqrt(max(0.0, 1.0 - math.tan(s) ** 2)))
        outside = 2.0 * math.sin(s) * m / ((2.0 - m) + c * m) + base
        out = sgn * np.where(ta <= ell, inside, outside)
    return float(out) if np.ndim(t) == 0 else out


def comparison_lower_bound(
    a: float, s: float, v: float, t: float | np.ndarray
) -> float | np.ndarray:
    """Solution of the constant-drift comparison equation
    rho'' = a (1 - rho'^2) with rho(0) = s, rho'(0) = v:

        s + a^{-1} log( ((1+v) e^{at} + (1-v) e^{-at}) / 2 ).

    Every radial solution of the true equation dominates this bound when a
    is a lower bound for A'/A; that is the non-trapping certificate.
    """
    if a <= 0.0:
        raise ValueError("comparison rate a must be positive")
    if abs(v) > 1.0:
        raise ValueError("|v| must not exceed 1 (unit-speed geodesics)")
    at = a * np.asarray(t, dtype=float)
    if v == 1.0:
        out = s + np.asarray(t, dtype=float)
    elif v == -1.0:
        out = s - np.asarray(t, dtype=float)
    else:
        out = s + np.logaddexp(math.log1p(v) + at, math.log1p(-v) - at) / a - math.log(2.0) / a
    return float(out) if np.ndim(t) == 0 else out
