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
  the exit time t_x; at eps = 0 (or an eps below the resolution of r) this
  piece is empty.  The solve carries
  (rho, rho', a, b, U, U', V, V', psi): the warp function along the geodesic,
  (a, b) = (A, A')(rho) with a' = b rho' and b' = -K_par(rho) a rho', so
  that rho'' = (b/a)(1 - rho'^2) needs no lookup, the in-plane Jacobi
  pair Y'' = -K_par(rho) Y started from the identity at t_in (the solution's
  ``transfer`` is its end state, ``window_solution`` its combinations), and
  the angle row psi (below).  Each right-hand-side
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

and every piece of it is exact or rides on the window solve.  Inside the
ball theta(t) = atan2(sin t, sin s cos t).  Across the window the solve
carries a ninth row psi' = 1/a^2 (psi(t_in) = 0), so theta(t) =
theta(t_in) + A(s) psi(t).  Past t_x the rate is A(s) / (h^2 + 4 a_+ a_-),
and u = e^{-2 tau} turns its tail into the integral of a quadratic's
reciprocal whose discriminant is 4 a_+ a_- A(s)^2 (Clairaut gives
h'^2 - h^2 = 4 a_+ a_- - A(s)^2).  One function covers the arctan and log
branches of that antiderivative as 4 a_+ a_- changes sign (near r = pi/4):

    phi(t) = theta_inf - theta(t) = A(s) y atanc(4 a_+ a_- A(s)^2 y^2),
    y = E / (2 p^2 + (2 p q + 4 a_+ a_-) E),   E = e^{-2 (t - t_x)},

with p, q = (h_x +- h'_x) / 2 and atanc(z) = atanh(sqrt z) / sqrt z (atan of
sqrt(-z) over sqrt(-z) for z < 0, 1 at z = 0).  The denominator is
E (A(rho)^2 + h h') > 0, so phi keeps full relative precision however small
it is, and the decaying off-plane Jacobi field A(rho) sin(phi) with it.
Before t_x, phi is summed tail-first, phi(t_x) + A(s) (psi(t_x) - psi(t)),
and nothing is dropped.  At the critical parameters (r, eps) = (pi/4, 0)
everything is available in closed form, including the angular coordinate;
those formulas are the oracles for the numerical pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from itertools import islice
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


def _columns(pieces: list, shared: tuple[str, ...] = ()):
    """The exact pieces (``_Ball`` or ``_Exterior``) of several geodesics as
    one, each field a column with one row per geodesic, so that it evaluates
    a block of them at once; the fields in ``shared`` (constants of the
    metric) are taken from the first."""
    first = pieces[0]
    return replace(first, **{f.name: np.array([[getattr(p, f.name)] for p in pieces])
                             for f in fields(first) if f.name not in shared})


@dataclass(frozen=True)
class _Ball:
    """The geodesic inside the ball, on the great circle
    cos(rho) = cos(s) cos(t): the constants of its closed forms, taken with
    ``math`` per geodesic (floats, or columns from ``_columns``)."""

    sin_half: float  # sin(s/2)
    cos_half: float  # cos(s/2)
    cos_s: float
    sin_s: float

    @classmethod
    def at(cls, s: float) -> "_Ball":
        return cls(math.sin(0.5 * s), math.cos(0.5 * s), math.cos(s), math.sin(s))

    def state(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, rho'), from sin(rho/2) = hypot(sin(s/2) cos(t/2),
        cos(s/2) sin(t/2)); rho(0) = s to the last bit even where
        sin(s/2)^2 underflows."""
        half = np.hypot(self.sin_half * np.cos(0.5 * t), self.cos_half * np.sin(0.5 * t))
        sin_rho = 2.0 * half * np.sqrt(1.0 - half * half)
        return 2.0 * np.arcsin(half), self.cos_s * np.sin(t) / sin_rho

    def theta(self, t: np.ndarray) -> np.ndarray:
        """The angular coordinate atan2(sin t, sin s cos t)."""
        return np.arctan2(np.sin(t), self.sin_s * np.cos(t))


def _atanc(z: np.ndarray, hyperbolic: bool) -> np.ndarray:
    """atanh(sqrt z) / sqrt z if ``hyperbolic`` (z >= 0), else
    atan(sqrt -z) / sqrt -z (z <= 0); 1 at z = 0 (|z| < 1).  Phi's z has
    the sign of 4 a_+ a_-, one number per metric, so one branch serves every
    sample."""
    root = np.sqrt(np.abs(z))
    with np.errstate(invalid="ignore"):
        out = (np.arctanh if hyperbolic else np.arctan)(root) / root
    return np.where(root > 0.0, out, 1.0)


@dataclass(frozen=True)
class _Exterior:
    """The geodesic past the transition exit t_x, where h = A'(rho) solves
    h'' = h.  With tau = t - t_x, e^{-tau} h = (h_x (1 + E) + h'_x (1 - E)) / 2
    and e^{-tau} h' = (h'_x (1 + E) + h_x (1 - E)) / 2, E = e^{-2 tau}; both
    terms are nonnegative and nothing overflows.  The fields are floats, or
    columns from ``_columns`` (d, of the metric, stays a float)."""

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
        a_x = np.sqrt(self.h_x * self.h_x + self.d)
        return self.rho_x + tau + np.log((g + a) / (self.h_x + a_x)), dg / a

    def phi(self, t: np.ndarray) -> np.ndarray:
        """The integral of Clairaut's rate A(s) / (h^2 + 4 a_+ a_-) over
        [t, inf), in closed form (module docstring)."""
        e = np.exp(-2.0 * (t - self.t_x))
        p, q = 0.5 * (self.h_x + self.dh_x), 0.5 * (self.h_x - self.dh_x)
        y = self.a_s * e / (2.0 * p * p + (2.0 * p * q + self.d) * e)
        return y * _atanc(self.d * y * y, self.d > 0.0)

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
    the metric; the solve's tolerance; A(s), looked up once for the angle,
    the Killing fields and the exterior; the exact exterior piece; the window
    solve (``transition``, None where nothing is integrated), whose psi row
    carries the angle across the window and whose rows 4 to 7 are the
    in-plane pair (``transfer``, ``window_solution``); and the angular
    coordinate theta, exact but for the psi row.  Only this module knows the
    rows of the window solve."""

    params: GeodesicParams
    trajectory: Trajectory
    entry_time: float | None
    warp: WarpFunction
    tol: float
    a_s: float  # A(s)
    exit_time: float | None = None
    exterior: _Exterior | None = None
    transition: Flow | None = None

    @property
    def span(self) -> tuple[float, float]:
        """(t_in, t_x) as ``window``, with inf for a time past the horizon
        (the geodesic still in the ball, or in the transition, at T): the
        Jacobi kernels and the in-plane pair are defined there, phi and the
        stable solutions are not."""
        t_in, t_x = self.entry_time, self.exit_time
        if t_in is None:
            t_in = 0.0 if self.params.s >= self.params.r else math.inf
        return t_in, math.inf if t_x is None else t_x

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
        return self.span

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.trajectory.state(t)

    def rho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.value(t)

    def drho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.deriv(t)

    # -- angular coordinate ------------------------------------------------

    @cached_property
    def _ball(self) -> _Ball:
        """The great circle that the geodesic follows inside the ball."""
        return _Ball.at(self.params.s)

    def _times(self, t: float | np.ndarray) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.min() < 0.0 or t_arr.max() > self.trajectory.t1:
            raise ValueError(f"angle requested outside [0, {self.trajectory.t1}]")
        return t_arr

    @cached_property
    def _start(self) -> tuple[float, float, float]:
        """(t_in, theta(t_in), pi/2 - theta(t_in)) where the geodesic leaves
        the ball (0 when it starts outside).  Inside the ball pi/2 - theta =
        atan2(sin s cos t, sin t) keeps its relative precision for small s,
        so pi/2 - theta_inf does too."""
        s, r = self.params.s, self.params.r
        if s == 0.0:
            raise ValueError("the angular coordinate is undefined along the radial geodesic")
        if s >= r:
            return 0.0, 0.0, math.pi / 2.0
        t_in = entry_time(s, r)
        return (t_in, float(self._ball.theta(t_in)),
                math.atan2(math.sin(s) * math.cos(t_in), math.sin(t_in)))

    def _swept(self, t: np.ndarray | float) -> np.ndarray:
        """A(s) psi(t): the angle swept across the window from t_in to t, off
        the window solve's psi row."""
        return self.a_s * self.transition.dense(t)[8]

    @cached_property
    def _phi_exit(self) -> tuple[float, float]:
        """(phi(t_x), A(s) psi(t_x)): the closed tail past the exit and the
        window's whole angle."""
        t_in, t_x = self.window
        swept = self.a_s * float(self.transition.end[8]) if t_in < t_x else 0.0
        return float(self.exterior.phi(t_x)), swept

    @property
    def theta_infinity(self) -> float:
        """theta_inf = theta(t_in) + phi(t_in): the total angle swept."""
        return self._start[1] + sum(self._phi_exit)

    @property
    def theta_infinity_complement(self) -> float:
        """pi/2 - theta_inf, to full relative precision even where theta_inf
        is within rounding of pi/2 (small s)."""
        return self._start[2] - sum(self._phi_exit)

    def _phi(self, t: np.ndarray) -> np.ndarray:
        """phi = theta_inf - theta, summed tail-first: closed past t_x,
        phi(t_x) + A(s) (psi(t_x) - psi(t)) across the window, and the ball's
        closed form added to phi(t_in) before it."""
        t_in, theta_in, _ = self._start
        t_x = self.window[1]
        phi_x, swept_x = self._phi_exit
        out = self.exterior.phi(np.maximum(t, t_x))
        win = (t >= t_in) & (t < t_x)
        if np.any(win):
            out[win] += swept_x - self._swept(t[win])
        ball = t < t_in
        out[ball] = (theta_in - self._ball.theta(t[ball])) + (phi_x + swept_x)
        return out

    def _theta(self, t: np.ndarray) -> np.ndarray:
        """theta summed forward: the ball's closed form, theta(t_in) +
        A(s) psi(t) across the window, theta_inf - phi past t_x."""
        t_in, theta_in, _ = self._start
        t_x = self.span[1]
        out = self._ball.theta(t)
        win = (t > t_in) & (t < t_x)
        if np.any(win):
            out[win] = theta_in + self._swept(t[win])
        past = t >= t_x
        if np.any(past):
            out[past] = self.theta_infinity - self.exterior.phi(t[past])
        return out

    def phi(self, t: float | np.ndarray) -> np.ndarray:
        """phi(t) = theta_inf - theta(t) for t in [0, T], as an array; it
        needs the geodesic to have left the transition by T."""
        return self._phi(self._times(t))

    def theta(self, t: float | np.ndarray) -> float | np.ndarray:
        """Angular coordinate theta(t), theta(0) = 0, increasing, on [0, T]
        (also while the geodesic is still inside the transition at T)."""
        theta = self._theta(self._times(t))
        return float(theta[0]) if np.ndim(t) == 0 else theta

    # -- the in-plane window pair ------------------------------------------

    @property
    def transfer(self) -> np.ndarray:
        """The in-plane transfer matrix M = [[U, V], [U', V']] of the window
        [t_in, t_x]: (Y, Y')(t_x) = M (Y, Y')(t_in).  det M = 1; the identity
        when the window is empty; up to the horizon when the geodesic is still
        in the transition there."""
        if self.transition is None:
            return np.eye(2)
        u, du, v, dv = self.transition.end[4:8].tolist()
        return np.array([[u, v], [du, dv]])

    def window_solution(self, y: float, dy: float, T: float | None = None) -> Trajectory:
        """The in-plane solution with state (y, dy) at t_in, on
        [t_in, min(t_x, T)]: y U + dy V of the window pair, no solve."""
        proj = np.zeros((2, 9))
        proj[:, 4:8] = ((y, 0.0, dy, 0.0), (0.0, y, 0.0, dy))
        return self.transition.trajectory(proj, T)


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


# The window solve carries (rho, rho', a, b, U, U', V, V', psi): the geodesic,
# the warp function along it (a, b) = (A, A')(rho), the in-plane Jacobi pair
# started from the identity at t_in, and psi' = 1/a^2 from psi(t_in) = 0 (the
# angle swept is A(s) psi; carrying A(s) psi instead would put it under the
# solver's absolute floor at tiny s).  Each evaluation reads K_par once.
_PAIR_START = (1.0, 0.0, 0.0, 1.0)
# The most geodesics whose windows share one solve.  The batch's dense output
# has 9 rows per geodesic per step, so this bounds the memory of a grid.
_BATCH = 64
# The most geodesics sampled in one array pass (``_sample_grid``).  A pass
# holds some twenty block-by-samples arrays at once.  Over the 85 mid-s
# geodesics of the sharp metric, 2,001 samples each, tracemalloc puts the
# peak at 0.4 MB for blocks of 1, 1.2 MB for blocks of 3, 1.6 MB for blocks
# of 4 and 21 MB for one pass over all of them; blocks of 3 and 4 ran the
# grid in the same time, blocks of 1 and 2 took about 40% and 15% longer.
_BLOCK = 3


def _window_rhs(profile: ProfileParams):
    """The window equation of one geodesic, on floats (``math.exp`` under
    K_par): far cheaper per call than numpy on a 9-vector."""
    def rhs(t: float, y: np.ndarray) -> tuple[float, ...]:
        rho, v, a, b, u, du, w, dw, _ = y.tolist()
        k = k_parallel(profile, rho)
        return v, (b / a) * (1.0 - v * v), b * v, -k * a * v, du, -k * u, dw, -k * w, 1.0 / (a * a)

    return rhs


def _batch_rhs(profile: ProfileParams, n: int):
    """The window equations of n geodesics as one system: the state is the
    9 x n array of their states, row-major, and K_par is read once for the
    rho row."""
    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        rho, v, a, b, u, du, w, dw, _ = y.reshape(9, n)
        k = k_parallel(profile, rho)
        return np.concatenate((v, (b / a) * (1.0 - v * v), b * v, -k * a * v,
                               du, -k * u, dw, -k * w, 1.0 / (a * a)))

    return rhs


def _window_start(p: GeodesicParams, warp: WarpFunction, T: float,
                  at_s: tuple[float, float]) -> tuple[float, tuple] | None:
    """(t_in, state at t_in) of the geodesic's window solve, given
    at_s = (A, A')(s); None when nothing is integrated (an eps below the
    resolution of r, as for the sharp metric; s >= r + eps; or t_in >= T)."""
    s, r, eps = p.s, p.r, p.eps
    if r + eps == r or s >= r + eps:
        return None
    if s == 0.0:
        # rho(t) = t exactly; the polar-coordinate singularity at the origin
        # is not integrated.  The window solve (rho' = 1, so rho'' = 0) runs
        # over the fixed span [r, r + eps] for the in-plane pair.
        t_in, y0 = r, (r, 1.0, math.sin(r), math.cos(r), *_PAIR_START, 0.0)
    elif s < r:
        t_in = entry_time(s, r)
        y0 = (r, radial_exit_slope(s, r), *warp.ball_edge, *_PAIR_START, 0.0)
    else:
        t_in, y0 = 0.0, (s, 0.0, *at_s, *_PAIR_START, 0.0)
    return (t_in, y0) if t_in < T else None


def _solve_windows(
    params: list[GeodesicParams], starts: list[tuple[float, tuple]], T: float, tol: float
) -> list[tuple[Flow, float | None]]:
    """The window solves of n geodesics of one metric, as one DOP853 solve:
    (the geodesic's window flow, its exit time t_x or None past T) each.

    The window equation does not contain t, so every geodesic starts at
    tau = t - t_in = 0, and geodesic j is column j of a 9 x n state (a
    geodesic alone runs in t from t_in, as it always has, with the float
    right-hand side).  scipy's error norm is an RMS over all 9n components:
    the tolerance tol / sqrt(n) keeps each geodesic's own 9-component norm
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
                     window: tuple[Flow, float | None] | None,
                     at_s: tuple[float, float]) -> RadialSolution:
    """The geodesic on [0, T] from its window solve (None when it has
    none) and at_s = (A, A')(s): the exact ball before it, the exact
    exterior after it."""
    s, r, rho_x = p.s, p.r, p.r + p.eps
    flow, window_exit = (None, None) if window is None else window
    a_s, h_s = at_s
    if s == 0.0:
        traj = Trajectory.from_function(lambda t: (t, np.ones_like(t)), 0.0, T)
        return RadialSolution(params=p, trajectory=traj, entry_time=r, warp=warp, tol=tol,
                              a_s=a_s, exit_time=rho_x if rho_x <= T else None,
                              transition=flow)

    parts: list[Trajectory] = []
    t, state, t_entry = 0.0, (s, 0.0), None
    if s < r:
        t_in = entry_time(s, r)
        parts.append(Trajectory.from_function(_Ball.at(s).state, 0.0, min(t_in, T)))
        if t_in > T:  # still inside the ball at the horizon
            return RadialSolution(params=p, trajectory=parts[0], entry_time=None,
                                  warp=warp, tol=tol, a_s=a_s)
        t, state, t_entry = t_in, (r, radial_exit_slope(s, r)), t_in
    t_x = t if state[0] >= rho_x else None
    if flow is not None:
        parts.append(flow.trajectory(np.eye(2, 9)))  # (rho, rho')
        t_x = window_exit

    exterior = None
    if t_x is not None:
        a_x, h_x = warp.exit_state if s < rho_x else (a_s, h_s)
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
        if t_x < T:
            parts.append(Trajectory.from_function(exterior.state, t_x, T))
    return RadialSolution(params=p, trajectory=Trajectory.concat(parts),
                          entry_time=t_entry, warp=warp, tol=tol, a_s=a_s, exit_time=t_x,
                          exterior=exterior, transition=flow)


def _grid_solutions(params: list[GeodesicParams], T: float, tol: float) -> Iterator[RadialSolution]:
    warp = solve_warp(params[0].profile)
    at_s = [tuple(float(v[0]) for v in warp.state(p.s)) for p in params]
    starts = [_window_start(p, warp, T, a) for p, a in zip(params, at_s)]
    pending = [i for i, start in enumerate(starts) if start is not None]
    windows: dict[int, tuple[Flow, float | None]] = {}
    for i, p in enumerate(params):
        if starts[i] is not None and i not in windows:
            batch, pending = pending[:_BATCH], pending[_BATCH:]
            solved = _solve_windows([params[j] for j in batch], [starts[j] for j in batch], T, tol)
            windows = dict(zip(batch, solved))
        yield _radial_solution(p, warp, T, tol, windows.get(i), at_s[i])


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


@dataclass(frozen=True, eq=False)
class _Paths:
    """A block of geodesics of one metric sampled at the times t: rho, rho'
    and theta as arrays with one row per geodesic and one column per time,
    and the piece that each sample lies on, as ``RadialSolution.state``
    takes it: the ball for t <= t_in (s < r), the window for t_in < t <= t_x
    (from t = 0 when r <= s < r + eps), the exterior after t_x.  The ball
    samples lie in the first ``lead`` columns, the exterior ones in the
    columns from ``tail`` on."""

    t: np.ndarray
    window: np.ndarray
    exterior: np.ndarray
    lead: int
    tail: int
    rho: np.ndarray
    drho: np.ndarray
    theta: np.ndarray

    def end(self) -> tuple[np.ndarray, np.ndarray]:
        """(rho, theta) at the last sample time, one entry per geodesic."""
        return self.rho[:, -1], self.theta[:, -1]


def _sample_paths(radials: list[RadialSolution], t: np.ndarray) -> _Paths:
    """rho, rho' and theta of the geodesics ``radials`` (one metric, s > 0)
    at the increasing times t, element for element ``radial.state(t)`` and
    ``radial.theta(t)``.  The ball and the exterior are evaluated for the
    whole block at once from ``_columns`` of their pieces (the exterior at
    max(t, t_x), inside its domain); the few window samples of a geodesic go
    through its own window solve.  Theta takes its ball form before t_x
    and its exterior form theta_inf - phi from t_x on."""
    n, m = len(radials), len(t)
    t_in, t_x = np.array([rad.span for rad in radials]).T[:, :, None]
    in_ball = np.array([[rad.params.s < rad.params.r] for rad in radials])
    ball = in_ball & (t <= t_in)
    window = np.array([[rad.transition is not None] for rad in radials]) & ~ball & (t <= t_x)
    exterior = ~(ball | window)
    lead = int(np.searchsorted(t, t_in[in_ball].max(initial=-math.inf), side="right"))
    tail = int(np.searchsorted(t, t_x.min(), side="left"))
    rho, drho, theta = np.empty((3, n, m))
    if lead:
        balls = _columns([rad._ball for rad in radials])
        rho[:, :lead], drho[:, :lead] = balls.state(t[:lead])
        theta[:, :lead] = balls.theta(t[:lead])
    if tail < m:
        # a geodesic that has not left the transition by the horizon has no
        # exterior samples; another's exterior stands in for it
        spare = next(rad.exterior for rad in radials if rad.exterior is not None)
        ext = _columns([rad.exterior or spare for rad in radials], shared=("d",))
        t_ext = np.maximum(t[tail:], ext.t_x)
        for out, part in zip((rho, drho), ext.state(t_ext)):
            np.copyto(out[:, tail:], part, where=exterior[:, tail:])
        theta_inf = np.array([[rad.theta_infinity if rad.exterior is not None else math.nan]
                              for rad in radials])
        np.copyto(theta[:, tail:], theta_inf - ext.phi(t_ext),
                  where=~window[:, tail:] & (t[tail:] >= t_x))
    for j in np.flatnonzero(window.any(axis=1)):
        idx = np.flatnonzero(window[j])
        rho[j, idx], drho[j, idx] = radials[j].state(t[idx])
        theta[j, idx] = radials[j].theta(t[idx])
    return _Paths(t, window, exterior, lead, tail, rho, drho, theta)


def _sample_grid(ss: Iterable[float], r: float, eps: float, T: float, tol: float,
                 t: np.ndarray) -> Iterator[tuple[list[RadialSolution], _Paths]]:
    """``solve_radial_grid`` in blocks of up to ``_BLOCK`` geodesics, each
    block with its ``_sample_paths`` at the times t."""
    solutions = solve_radial_grid(ss, r, eps, T, tol)
    while block := list(islice(solutions, _BLOCK)):
        yield block, _sample_paths(block, t)


def solve_radial(params: GeodesicParams, T: float = 30.0, tol: float = 1e-10) -> RadialSolution:
    """The radial coordinate on [0, T]: exact in the ball, integrated across
    the transition only, exact past it.

    The entry time is the exact ``entry_time(s, r)``; the crossing of
    rho = r + eps (eps > 0) is located by the integrator and ends the window
    solve, so no step straddles the curvature transition; it is the
    solution's ``exit_time``.  This is the grid of one of
    ``solve_radial_grid``; each call solves anew.
    """
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    return next(_grid_solutions([params], T, tol))


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
