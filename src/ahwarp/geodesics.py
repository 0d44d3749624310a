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
* the transition: one DOP853 solve across the window r <= rho <= r + eps,
  empty at eps = 0 (or an eps below the resolution of r).  Clairaut's
  integral 1 - rho'^2 = A(s)^2 / A(rho)^2 makes x = rho - r an independent
  variable, so every window is one fixed span and the solve runs in sigma on
  [0, 1]: x = eps sigma for s < r, and x = (s - r) + L sigma^2 with
  L = r + eps - s for a geodesic that starts at rest inside the window
  (r <= s < r + eps), which keeps dt/dsigma regular at its turning point.
  The solve carries (D, A', t, psi, U, U', V, V'): D = A(r + x) - A(s) and
  A' along the window (A'' = -K_par A), the time since the entry t_in with
  dt/dx = (c + D) / sqrt(D (2c + D)), c = A(s), the angle row psi (below)
  and the in-plane Jacobi pair Y'' = -K_par(rho) Y started from the identity
  at t_in (the solution's ``transfer`` is its end state, ``window_solution``
  its combinations).  Each right-hand-side evaluation reads K_par once.
  The exit time t_x is t_in plus the end of the t row; a time t inside the
  window is found by inverting that increasing row on the dense output
  (``Flow.crossings``).  ProfileParams keeps r + eps < pi/2, where Sturm
  comparison with K_par <= 1 gives A' >= A cot(rho) > 0, so every window
  reaches x = eps.  The radial geodesic is the column with c = 0, where
  dt/dx = 1; rho = t stays exact there and its window is [r, r + eps].  A
  grid of geodesics (``solve_radial_grid``) integrates the windows of up to
  64 of them as one solve, and each geodesic keeps its own rows of it;
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
carries the row psi with dpsi/dt = 1/A^2 (psi(t_in) = 0), so theta(t) =
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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .ode import Flow, Trajectory, _bisect, integrate_ivp
from .warp import _PAIR_MIN_STEPS, ProfileParams, WarpFunction, mollifier, solve_warp

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
# e^s overflows past _S_MAX, and A(s) = a_+ e^s + a_- e^{-s} with it: across
# the window |(A, A')| grows at most like e^x from (sin r, cos r), so
# a_+ <= e^{-r} / sqrt(2) < 1
_S_MAX = math.log(np.finfo(float).max)


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


@dataclass(frozen=True)
class _Ball:
    """The geodesic inside the ball, on the great circle
    cos(rho) = cos(s) cos(t): the constants of its closed forms, taken with
    ``math`` per geodesic."""

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
    time."""
    root = np.sqrt(np.abs(z))
    with np.errstate(invalid="ignore"):
        out = (np.arctanh if hyperbolic else np.arctan)(root) / root
    return np.where(root > 0.0, out, 1.0)


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
        """(tau, E, e^{-tau} h, e^{-tau} h', e^{-tau} A), with
        e^{-tau} A = g sqrt(1 + 4 a_+ a_- E / g^2) for g = e^{-tau} h > 0:
        g itself is never squared, so A'(s) up to the float range does not
        overflow."""
        tau = t - self.t_x
        e, m = np.exp(-2.0 * tau), -np.expm1(-2.0 * tau)
        p = 1.0 + e
        g = 0.5 * (self.h_x * p + self.dh_x * m)
        dg = 0.5 * (self.dh_x * p + self.h_x * m)
        return tau, e, g, dg, g * np.sqrt(1.0 + self.d * e / g / g)

    def state(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, rho') = (log((h + A) / (2 a_+)), h' / A), taken relative to
        t_x so that rho(t_x) = rho_x exactly."""
        tau, _, g, dg, a = self._scaled(t)
        a_x = self.h_x * math.sqrt(1.0 + self.d / self.h_x / self.h_x)
        return self.rho_x + tau + np.log((g + a) / (self.h_x + a_x)), dg / a

    def phi(self, t: np.ndarray) -> np.ndarray:
        """The integral of Clairaut's rate A(s) / (h^2 + 4 a_+ a_-) over
        [t, inf), in closed form (module docstring)."""
        e = np.exp(-2.0 * (t - self.t_x))
        # p, q and A(s) scaled by powers of two, which is exact, so that p^2
        # cannot overflow however large A'(s) is
        k = math.frexp(self.h_x + self.dh_x)[1]
        p, q = math.ldexp(self.h_x + self.dh_x, -k - 1), math.ldexp(self.h_x - self.dh_x, -k - 1)
        a_s, d = math.ldexp(self.a_s, -2 * k), math.ldexp(self.d, -2 * k)
        y = a_s * e / (2.0 * p * p + (2.0 * p * q + d) * e)
        return y * _atanc(self.d * y * y, self.d > 0.0)

    def perp_minimum(self, psi: float) -> tuple[float, bool]:
        """(min over [t_x, inf) of the off-plane even solution
        U = A(rho) cos(theta) / A(s), whether U' > 0 at t_x), given
        psi = pi/2 - theta_inf > 0, on floats.

        Clairaut gives 1 - rho'^2 = A(s)^2 / A^2, so the off-plane kernel is
        -1 + A(s)^2 (1 + 4 a_+ a_-) / A^4 here, decreasing as A grows.  With
        U > 0 (theta < theta_inf < pi/2) and the kernel's one change of sign
        on the whole line (``jacobi.even_minimum``), U' <= 0 up to the
        minimum and U' > 0 after it.  In E = e^{-2 tau},
        e^{-tau} A = sqrt(g^2 + 4 a_+ a_- E) with g = p + q E and
        e^{-tau} h' = p - q E, and U' has the sign of
        g (p - q E) cos(theta) - A(s) E sin(theta), where
        cos(theta) = sin(psi + phi) keeps its precision however small psi
        is.  That sign is positive as E -> 0 and turns at most once on
        (0, 1]; bisection in E locates the turn (E -> 1 when U' > 0 at t_x).
        As in ``phi``, p, q, A(s) and 4 a_+ a_- are scaled by powers of two,
        so that nothing squared overflows however large A'(s) is."""
        k = math.frexp(self.h_x + self.dh_x)[1]
        p, q = math.ldexp(self.h_x + self.dh_x, -k - 1), math.ldexp(self.h_x - self.dh_x, -k - 1)
        a_s, d = math.ldexp(self.a_s, -2 * k), math.ldexp(self.d, -2 * k)
        c = math.sqrt(abs(self.d))
        arc = math.atanh if self.d > 0.0 else math.atan

        def state(e: float) -> tuple[float, float, float]:
            """(e^{-tau} h, e^{-tau} h', psi + phi) at E = e, the first two
            scaled by 2^-k; phi as in ``phi``, y atanc(4 a_+ a_- y^2) =
            arc(c y) / c."""
            y = a_s * e / (2.0 * p * p + (2.0 * p * q + d) * e)
            return p + q * e, p - q * e, psi + (arc(c * y) / c if c * y > 0.0 else y)

        def rising(e: float) -> bool:
            g, dg, angle = state(e)
            return g * dg * math.sin(angle) > a_s * e * math.cos(angle)

        e = _bisect(rising, 1.0, 0.0)
        g, _, angle = state(e)
        # e^{-tau} A / A(s) = sqrt(g^2 + 4 a_+ a_- E) / A(s), both scaled by 2^-k
        u = math.sqrt((g * g + d * e) / e) * math.sin(angle) / math.ldexp(self.a_s, -k)
        return u, rising(1.0)

    def k_perp(self, t: np.ndarray) -> np.ndarray:
        """K_perp(rho) = (1 - A'^2) / A^2 = -1 + (1 + 4 a_+ a_-) / A^2."""
        _, e, _, _, a = self._scaled(t)
        return -1.0 + (1.0 + self.d) * e / a / a


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """rho along one geodesic: its trajectory, a function on [0, T]; the
    entry time at which rho crosses r (present iff s < r and it is reached by
    T); the exit time at which rho reaches r + eps (0 if s >= r + eps, the
    entry time if eps = 0, None if not reached by T); the warp function A of
    the metric; the solve's tolerance; A(s), looked up once for the angle,
    the Killing fields and the exterior; the exact exterior piece; the window
    solve in sigma on [0, 1] (``transition``, None where nothing is
    integrated; the whole window, also past T), whose psi row carries the
    angle across the window and whose rows 4 to 7 are the in-plane pair
    (``transfer``, ``window_solution``); and the angular coordinate theta,
    exact but for the psi row.  Only this module knows the rows of the
    window solve."""

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
        return self.a_s * _window_rows(self.transition, self.span[0], t)[1][_PSI]

    @cached_property
    def _phi_exit(self) -> tuple[float, float]:
        """(phi(t_x), A(s) psi(t_x)): the closed tail past the exit and the
        window's whole angle."""
        t_in, t_x = self.window
        swept = self.a_s * float(self.transition.end[_PSI]) if t_in < t_x else 0.0
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
        when the window is empty."""
        if self.transition is None:
            return np.eye(2)
        u, du, v, dv = self.transition.end[4:8].tolist()
        return np.array([[u, v], [du, dv]])

    def window_solution(self, y: float, dy: float, T: float | None = None) -> Trajectory:
        """The in-plane solution with state (y, dy) at t_in, on
        [t_in, min(t_x, T)]: y U + dy V of the window pair, no solve."""
        proj = np.zeros((2, _ROWS))
        proj[:, 4:8] = ((y, 0.0, dy, 0.0), (0.0, y, 0.0, dy))
        t_in, t_x = self.span
        return Trajectory.from_function(
            lambda t: tuple(proj @ _window_rows(self.transition, t_in, t)[1]),
            t_in, min(t_x, self.trajectory.t1 if T is None else T))

    def window_turn(self, in_plane: bool) -> float:
        """The time in the window at which U' of the even solution U
        (U(0) = 1, U'(0) = 0) of the in-plane or the off-plane Jacobi
        equation turns positive, given U' <= 0 at t_in and U' > 0 at t_x: the
        first node of the window solve past the turn, then bisection in sigma
        (``ode._bisect``) on the dense output of the step before it.
        In-plane U' is cos(t_in) U' - sin(t_in) V' of the window pair.
        Off-plane U = A cos(theta) / A(s) with theta = theta(t_in) + A(s) psi,
        and U' has the sign of A' rho' cos(theta) - (A(s)/A) sin(theta)."""
        flow, c, t_in = self.transition, self.a_s, self.span[0]
        if in_plane:
            rows, y, dy = [5, 7], math.cos(t_in), -math.sin(t_in)

            def rising(du, dv):
                return y * du + dy * dv > 0.0
        else:
            rows, theta_in = [0, 1, 3], self._start[1]

            def rising(d, da, psi):
                a, theta = c + d, theta_in + c * psi
                return da * np.sqrt(d * (c + a)) * np.cos(theta) > c * np.sin(theta)

        k = max(int(np.argmax(rising(*flow.states[rows]))), 1)
        at = flow.dense.on_step(k - 1, rows)
        sg = _bisect(lambda sg: rising(*at(sg)), flow.nodes[k - 1], flow.nodes[k])
        return t_in + flow.dense.on_step(k - 1, [_T])(sg)[0]


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


# The window solve runs in sigma on [0, 1], with x = rho - r = x0 + sigma (a + b sigma):
# x = eps sigma for s < r, x = (s - r) + L sigma^2 (L = r + eps - s) from the
# turning point of a geodesic with r <= s < r + eps.  Its rows are
# (D, A', t, psi, U, U', V, V'): D = A(r + x) - A(s) and A' along the window,
# the time t - t_in since the entry, psi' = 1/A^2 (the angle swept is
# A(s) psi; carrying A(s) psi instead would put it under the solver's
# absolute floor at tiny s), and the in-plane Jacobi pair started from the
# identity at t_in.  Clairaut gives rho' = sqrt(D (2c + D)) / (c + D) with
# c = A(s), so dt/dx = (c + D) / sqrt(D (2c + D)).  Each evaluation reads
# K_par once per distinct x.
_T, _PSI = 2, 3
_ROWS = 8
_PAIR_START = (1.0, 0.0, 0.0, 1.0)
# The most geodesics whose windows share one solve.  The batch's dense output
# has 8 rows per geodesic per step, so this bounds the memory of a grid.
_BATCH = 64


def _x_map(s: float, r: float, eps: float) -> tuple[float, float, float]:
    """(x0, a, b) of the window variable x = x0 + sigma (a + b sigma)."""
    return (0.0, eps, 0.0) if s < r else (s - r, 0.0, r + eps - s)


def _window_rhs(c: float, z0: float, za: float, zb: float, a: float, b2: float, rate0: float):
    """The window equation of one geodesic in sigma, on floats (``math.exp``
    under K_par): far cheaper per call than numpy on an 8-vector.  The map
    of x is x / eps = z0 + sigma (za + zb sigma), dx/dsigma = a + b2 sigma.
    rate0 is dt/dsigma where D = 0: its limit at a turning point, where
    sigma = 0 and the first stages of a step carry no D yet."""
    def rhs(sg: float, y: np.ndarray) -> tuple[float, ...]:
        d, da, _, _, u, du, w, dw = y.tolist()
        dx = a + b2 * sg
        m = 2.0 * mollifier(z0 + sg * (za + zb * sg)) - 1.0  # -K_par
        big = c + d
        dt = big * dx / math.sqrt(d * (c + big)) if d > 0.0 else rate0
        mdt = m * dt
        return dx * da, m * dx * big, dt, dt / (big * big), dt * du, mdt * u, dt * dw, mdt * w

    return rhs


def _batch_rhs(c, z0, za, zb, a, b2, rate0):
    """The window equations of n geodesics as one system in sigma, the
    same formulas on arrays: the state is the 8 x n array of their states,
    row-major.  Geodesics that share the map of x (all with s < r) share one
    float K_par."""
    n = len(c)
    z0, za, zb, a, b2 = (float(v[0]) if np.all(v == v[0]) else v for v in (z0, za, zb, a, b2))

    def rhs(sg: float, y: np.ndarray) -> np.ndarray:
        d, da, _, _, u, du, w, dw = y.reshape(_ROWS, n)
        dx = a + b2 * sg
        m = 2.0 * mollifier(z0 + sg * (za + zb * sg)) - 1.0
        big = c + d
        dt = np.divide(big * dx, np.sqrt(d * (c + big)), out=rate0.copy(), where=d > 0.0)
        mdt = m * dt
        return np.concatenate((dx * da, m * dx * big, dt, dt / (big * big),
                               dt * du, mdt * u, dt * dw, mdt * w))

    return rhs


def _window_start(p: GeodesicParams, T: float, at_s: tuple[float, float]) -> tuple | None:
    """(c, D, A', x0, a, b, dt/dsigma) at sigma = 0 of the geodesic's window
    solve, given at_s = (A, A')(s); None when nothing is integrated (an eps
    below the resolution of r, as for the sharp metric; s >= r + eps; or
    t_in >= T).  The radial geodesic is the column with c = 0, where
    dt/dx = 1."""
    s, r, eps = p.s, p.r, p.eps
    if r + eps == r or s >= r + eps:
        return None
    if s < r:
        if entry_time(s, r) >= T:
            return None
        # A = sin in the ball: D = sin r - sin s without cancellation
        d0 = 2.0 * math.cos(0.5 * (r + s)) * math.sin(0.5 * (r - s))
        return at_s[0], d0, math.cos(r), *_x_map(s, r, eps), eps / radial_exit_slope(s, r)
    # turning point: D ~ A'(s) L sigma^2, so dt/dsigma -> sqrt(2 L c / A'(s))
    rate0 = math.sqrt(2.0 * (r + eps - s) * at_s[0] / at_s[1])
    return at_s[0], 0.0, at_s[1], *_x_map(s, r, eps), rate0


def _solve_windows(starts: list[tuple], eps: float, tol: float) -> list[Flow]:
    """The window solves of n geodesics of one metric, as one DOP853 solve
    in sigma on [0, 1]: every window ends at sigma = 1, so geodesic j is
    column j of an 8 x n state (a geodesic alone takes the float right-hand
    side).  scipy's error norm is an RMS over all 8n components: the
    tolerance tol / sqrt(n) keeps each geodesic's own 8-component norm within
    tol.  No step is longer than the transition pair's, eps/32 in x."""
    n = len(starts)
    c, d0, da0, x0, a, b, rate0 = np.array(starts).T
    y0 = np.concatenate((d0, da0, np.zeros(2 * n), *np.repeat([_PAIR_START], n, axis=0).T))
    max_step = eps / (_PAIR_MIN_STEPS * float(np.max(a + 2.0 * b)))
    cols = (c, x0 / eps, a / eps, b / eps, a, 2.0 * b, rate0)
    rhs = _window_rhs(*(float(v[0]) for v in cols)) if n == 1 else _batch_rhs(*cols)
    flow = integrate_ivp(rhs, 0.0, y0, 1.0, tol / math.sqrt(n), max_step=max_step)
    return [flow] if n == 1 else [flow.part(slice(j, None, n)) for j in range(n)]


def _window_rows(flow: Flow, t_in: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, rows) of a window solve at the times t in [t_in, t_x]: the
    t row increases, so it is inverted on the dense output
    (``Flow.crossings``) and the rows are read there."""
    tau = np.minimum(np.asarray(t, dtype=float) - t_in, flow.end[_T])
    sg = flow.crossings(_T, tau)
    return sg, flow.dense(sg)


def _radial_solution(p: GeodesicParams, warp: WarpFunction, T: float, tol: float,
                     flow: Flow | None, at_s: tuple[float, float]) -> RadialSolution:
    """The geodesic on [0, T] from its window solve (None when it has
    none) and at_s = (A, A')(s): the exact ball before it, the exact
    exterior after it."""
    s, r, eps = p.s, p.r, p.eps
    rho_x = r + eps
    a_s, h_s = at_s
    if s == 0.0:
        traj = Trajectory.from_function(lambda t: (t, np.ones_like(t)), 0.0, T)
        return RadialSolution(params=p, trajectory=traj, entry_time=r, warp=warp, tol=tol,
                              a_s=a_s, exit_time=rho_x if rho_x <= T else None,
                              transition=flow)

    parts: list[Trajectory] = []
    t, t_entry = 0.0, None
    if s < r:
        t_in = entry_time(s, r)
        parts.append(Trajectory.from_function(_Ball.at(s).state, 0.0, min(t_in, T)))
        if t_in > T:  # still inside the ball at the horizon
            return RadialSolution(params=p, trajectory=parts[0], entry_time=None,
                                  warp=warp, tol=tol, a_s=a_s)
        t, t_entry = t_in, t_in
    # no window: past it already (s >= r + eps, or the sharp metric), or at
    # the horizon
    t_x = t if max(s, r) >= rho_x else math.inf
    if flow is not None:
        t_x = t + float(flow.end[_T])
        x0, a, b = _x_map(s, r, eps)

        def window(tt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            sg, (d, *_) = _window_rows(flow, t, tt)
            return r + (x0 + sg * (a + b * sg)), np.sqrt(d * (2.0 * a_s + d)) / (a_s + d)

        parts.append(Trajectory.from_function(window, t, min(t_x, T)))

    exterior = None
    if t_x <= T:
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
                          entry_time=t_entry, warp=warp, tol=tol, a_s=a_s,
                          exit_time=t_x if t_x <= T else None,
                          exterior=exterior, transition=flow)


def _grid_solutions(params: list[GeodesicParams], T: float, tol: float) -> Iterator[RadialSolution]:
    if max(p.s for p in params) > _S_MAX:
        raise ValueError(f"A(s) overflows for s past {_S_MAX}")
    warp = solve_warp(params[0].profile)
    at_s = [tuple(float(v[0]) for v in warp.state(p.s)) for p in params]
    starts = [_window_start(p, T, a) for p, a in zip(params, at_s)]
    pending = [i for i, start in enumerate(starts) if start is not None]
    windows: dict[int, Flow] = {}
    for i, p in enumerate(params):
        if starts[i] is not None and i not in windows:
            batch, pending = pending[:_BATCH], pending[_BATCH:]
            solved = _solve_windows([starts[j] for j in batch], p.eps, tol)
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


def solve_radial(params: GeodesicParams, T: float = 30.0, tol: float = 1e-10) -> RadialSolution:
    """The radial coordinate on [0, T]: exact in the ball, integrated across
    the transition only, exact past it.

    The entry time is the exact ``entry_time(s, r)``; the window solve runs
    in x = rho - r, so it ends exactly at rho = r + eps and no step straddles
    the curvature transition; the time it carries there is the solution's
    ``exit_time``.  This is the grid of one of ``solve_radial_grid``; each
    call solves anew.  Raises ValueError where A(s) overflows (s past about
    709).
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
