"""Radial coordinate of the geodesic family, its angular coordinate, and
their closed forms.

A unit-speed geodesic at distance s from the origin has radial coordinate
rho(t) solving

    rho'' = (A'/A)(rho) (1 - rho'^2),    rho(0) = s, rho'(0) = 0   (s > 0),

while the radial geodesic is exactly rho(t) = t.  Nothing is integrated per
geodesic: the ball and the exterior are closed forms, and the mollified
transition r <= rho <= r + eps is a quadrature on the warp function, which
the transition pair gives to rounding (``warp``).  Each solution is built
from three pieces:

* the ball: for s < r the geodesic is the great-circle arc
  cos(rho) = cos(s) cos(t), written as sin^2(rho/2) = a + b - 2ab =
  a (1 - b) + b (1 - a) with a = sin^2(s/2), b = sin^2(t/2) (no cancellation
  however small s is), until the entry time
  t_in = ell_r(s) = arccos(cos r / cos s);
* the transition window r <= rho <= r + eps, empty at eps = 0 (or an eps
  below the resolution of r).  Clairaut's integral
  1 - rho'^2 = A(s)^2 / A(rho)^2 makes x = rho - r an independent variable,
  with dt/dx = (c + D) / sqrt(D (2c + D)), c = A(s), D = A(r + x) - c.  In
  sigma, x = (s - r) + L sigma^2 with L = r + eps - s, from the closest
  approach, so

      dt/dsigma = 2 sqrt(L) (c + D) / sqrt(m (2c + D)),   m = D / (L sigma^2),

  has no 0/0 at a turning point (r <= s < r + eps, where the geodesic starts
  at rest inside the window).  Everything the window gives is an integral
  of (A, A')(r + x): the time t - t_in, the angle integral psi
  (dpsi/dt = 1/A^2, below) and J = integral of K_par / A'^2 dt.  The
  Killing field d/dtheta restricts to the in-plane Jacobi field
  y1 = A(rho) rho', with y1' = A'(rho) (do Carmo, Riemannian Geometry, 1992,
  ch. 5), and reduction of order turns the in-plane pair into J: with
  (y, a) = (A rho', A') and _i at the entry, the solutions equal to (1, 0)
  and (0, 1) at t_in are

      U = a_i (1/a - y J),   V = y/a_i - y_i/a + y y_i J,

  with U' = -a a_i J and V' = a/a_i + a y_i J (``transfer``,
  ``window_solution``).  That needs A' > 0 on the window: ProfileParams
  keeps r + eps < pi/2, where Sturm comparison with K_par <= 1 gives
  A' >= A cot(rho) > 0.  Each integral is a composite Gauss-Legendre rule
  (Davis and Rabinowitz, Methods of Numerical Integration, 1984) on 32 equal
  panels in x, 10 nodes each, whose ends are the window's sigma.  For s < r
  they are the transition pair's own panel ends x_k = k eps / 32, and a far
  window, more than two panel widths from grazing (s < r - eps/16), takes
  the rule in x on the pair's own nodes, tabulated once per metric
  (``WarpFunction.node_table``), with no lookup.  The rule converges
  geometrically while the singularity of 1/sqrt(D), near x = s - r, stays
  outside the panels' Bernstein ellipses (Trefethen, SIAM Rev. 50, 2008);
  two widths keep it to rounding.  Nearer grazing, and for a turning point,
  the rule runs on the sigma-images of the panels, where dt/dsigma has no
  singularity.  D is taken without cancellation: (A - sin r) +
  (sin r - sin s), the first as the pair's projection and the last in
  product form, for s < r, and near a turning point L sigma^2 times the
  Gauss mean of A' on [s, s + L sigma^2].  A time t inside the window is
  found by Newton on the t integral, whose rate is closed form.  The radial
  geodesic is the column with c = 0, where dt/dx = 1; rho = t stays exact
  there and its window is [r, r + eps].  A grid of geodesics
  (``solve_radial_grid``) shares one warp function, and so one table;
* the exterior: there A'' = A, so the warped-product Hessian formula
  (O'Neill, Semi-Riemannian Geometry, 1983, ch. 7) gives Hess A' = A' g and
  h(t) = A'(rho(t)) solves h'' = h along every geodesic.  Its data at t_x are
  exact, h = A'(r + eps) and h' = sqrt(A(r + eps)^2 - A(s)^2) (Clairaut), and
  since A^2 - A'^2 = 4 a_+ a_- there,

      rho = log((h + sqrt(h^2 + 4 a_+ a_-)) / (2 a_+)),
      rho' = h' / sqrt(h^2 + 4 a_+ a_-),

  evaluated in a form scaled by e^{-(t - t_x)} that cannot overflow.  Only t_x
  carries quadrature error.  The exterior is not of constant curvature
  (K_perp = -1 + (1 + 4 a_+ a_-)/A^2); what is exact is h'' = h.

The geodesic stays in a totally geodesic 2-plane, where its angular
coordinate theta (theta(0) = 0) obeys Clairaut's integral

    theta'(t) = A(s) / A(rho(t))^2,

and every piece of it is exact or a quadrature.  Inside the ball
theta(t) = atan2(sin t, sin s cos t).  Across the window psi is the integral
of dpsi/dt = 1/A^2 from t_in, so theta(t) = theta(t_in) + A(s) psi(t).  Past
t_x the rate is A(s) / (h^2 + 4 a_+ a_-), and u = e^{-2 tau} turns its tail
into the integral of a quadratic's reciprocal whose discriminant is
4 a_+ a_- A(s)^2 (Clairaut gives h'^2 - h^2 = 4 a_+ a_- - A(s)^2).  One
function covers the arctan and log branches of that antiderivative as
4 a_+ a_- changes sign (near r = pi/4):

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

from .ode import Trajectory
from .warp import _PANELS, ProfileParams, WarpFunction, mollifier, solve_warp

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

    @cached_property
    def _reduced(self) -> tuple[int, float, float, float, float]:
        """(k, p, q, A(s), 4 a_+ a_-) with 2^(k - 1) <= h_x + h'_x < 2^k:
        p, q = (h_x +- h'_x) / 2 scaled by 2^-k, A(s) and 4 a_+ a_- by
        2^-2k.  Scaling by a power of two is exact, and it keeps p^2 from
        overflowing however large A'(s) is."""
        k = math.frexp(self.h_x + self.dh_x)[1]
        return (k, math.ldexp(self.h_x + self.dh_x, -k - 1),
                math.ldexp(self.h_x - self.dh_x, -k - 1),
                math.ldexp(self.a_s, -2 * k), math.ldexp(self.d, -2 * k))

    def state(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, rho') = (log((h + A) / (2 a_+)), h' / A), taken relative to
        t_x so that rho(t_x) = rho_x exactly."""
        tau, _, g, dg, a = self._scaled(t)
        a_x = self.h_x * math.sqrt(1.0 + self.d / self.h_x / self.h_x)
        return self.rho_x + tau + np.log((g + a) / (self.h_x + a_x)), dg / a

    def phi(self, t: np.ndarray) -> np.ndarray:
        """The integral of Clairaut's rate A(s) / (h^2 + 4 a_+ a_-) over
        [t, inf), in closed form (module docstring), on p, q, A(s) and
        4 a_+ a_- scaled by powers of two (``_reduced``)."""
        e = np.exp(-2.0 * (t - self.t_x))
        _, p, q, a_s, d = self._reduced
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

            f(E) = g (p - q E) sin(psi + phi) - A(s) E cos(psi + phi),

        where cos(theta) = sin(psi + phi) keeps its precision however small
        psi is.  f is positive as E -> 0 and turns at most once on (0, 1]
        (not at all when U' > 0 at t_x).  Its derivative is closed form, with
        dphi/dE = A(s) / (2 (g^2 + 4 a_+ a_- E)), so Newton locates the turn,
        from the root of f's tangent p^2 psi - A(s) E / 2 at E = 0 and
        bisecting where a step would leave the bracket.  A geodesic at rest
        at t_x (s >= r + eps) has U' odd about t_x, so f / (1 - E) is nearly
        linear in (1 - E)^2, and Newton runs there: in E it would be slow
        where the turn closes in on t_x (s near the curvature threshold).
        Newton stops once a step is below _NEWTON_STEP relative to E: U is
        flat at its minimum, so what is left of its error is of the order of
        the step squared.  At most _NEWTON_MAX values of f are taken, and
        U(t_x) bounds the result.  As in ``phi``, p, q, A(s) and 4 a_+ a_-
        are scaled by powers of two (``_reduced``), so that nothing squared
        overflows however large A'(s) is."""
        f, df, u = self._turn(1.0, psi)
        rest = self.dh_x == 0.0
        if rest:  # U'(t_x) = 0, and f(1) is rounding
            f = 0.0
        if f > 0.0 or (rest and df < 0.0):  # U' >= 0 on all of (t_x, inf)
            return u, f > 0.0
        _, p, _, a_s, _ = self._reduced
        at_exit, lo, hi = u, 0.0, 1.0
        e = min(2.0 * p * p * psi / a_s, 0.5)  # the root of f's tangent at E = 0, inside (0, 1)
        for _ in range(_NEWTON_MAX - 1):
            f, df, u = self._turn(e, psi)
            lo, hi = (e, hi) if f > 0.0 else (lo, e)
            if rest:  # in w = z^2, z = 1 - E, on f / z, whose dE-derivative is slope / z^2
                z, slope = 1.0 - e, df * (1.0 - e) + f
                w = z * z * (1.0 + 2.0 * f / slope) if slope < 0.0 else math.nan
                new = 1.0 - math.sqrt(w) if w >= 0.0 else math.nan
            else:
                new = e - f / df if df < 0.0 else math.nan
            if abs(new - e) <= _NEWTON_STEP * e:
                break
            e = new if lo < new < hi else 0.5 * (lo + hi)
        return min(u, at_exit), False

    def _turn(self, e: float, psi: float) -> tuple[float, float, float]:
        """(f, df/dE, U) at E = e (``perp_minimum``), f and its derivative
        scaled by 2^-2k; phi as in ``phi``, y atanc(4 a_+ a_- y^2) =
        arc(c y) / c."""
        k, p, q, a_s, d = self._reduced
        c = math.sqrt(abs(self.d))
        arc = math.atanh if self.d > 0.0 else math.atan
        y = a_s * e / (2.0 * p * p + (2.0 * p * q + d) * e)
        angle = psi + (arc(c * y) / c if c * y > 0.0 else y)
        g, dg, sin, cos = p + q * e, p - q * e, math.sin(angle), math.cos(angle)
        a2 = g * g + d * e  # (e^{-tau} A)^2, scaled by 2^-2k
        dangle = 0.5 * a_s / a2
        f = g * dg * sin - a_s * e * cos
        df = (g * dg * cos + a_s * e * sin) * dangle - 2.0 * q * q * e * sin - a_s * cos
        # e^{-tau} A / A(s) = sqrt(g^2 + 4 a_+ a_- E) / A(s), both scaled by 2^-k
        return f, df, math.sqrt(a2 / e) * sin / math.ldexp(self.a_s, -k)

    def k_perp(self, t: np.ndarray) -> np.ndarray:
        """K_perp(rho) = (1 - A'^2) / A^2 = -1 + (1 + 4 a_+ a_-) / A^2."""
        _, e, _, _, a = self._scaled(t)
        return -1.0 + (1.0 + self.d) * e / a / a


@dataclass(frozen=True, eq=False)
class RadialSolution:
    """rho along one geodesic, solved whole: its trajectory, a function on
    [0, T] (the horizon T bounds only this domain, never what is solved);
    the entry time at which rho crosses r (0 if s >= r); the exit time at
    which rho reaches r + eps (0 if s >= r + eps, the entry time if the
    transition is sharp); the warp function A of the metric; A(s), looked up
    once for the angle, the Killing fields and the exterior; the exact
    exterior piece past the exit; the window's quadrature (None where the
    geodesic has no window), whose psi integral carries the angle across the
    window and whose J integral gives the in-plane pair (``transfer``,
    ``window_solution``); and the angular coordinate theta, exact but for
    psi.  Only this module knows the window's integrals."""

    params: GeodesicParams
    trajectory: Trajectory
    entry_time: float
    exit_time: float
    warp: WarpFunction
    a_s: float  # A(s)
    exterior: _Exterior
    quadrature: _Window | None = None

    @property
    def window(self) -> tuple[float, float]:
        """(t_in, t_x): inside the ball before t_in, in the transition on
        [t_in, t_x], outside it after t_x, whatever the horizon.  t_in = 0
        when the geodesic starts outside the ball; t_in = t_x when the
        transition is sharp."""
        return self.entry_time, self.exit_time

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
        s, t_in = self.params.s, self.entry_time
        if s == 0.0:
            raise ValueError("the angular coordinate is undefined along the radial geodesic")
        if s >= self.params.r:
            return 0.0, 0.0, math.pi / 2.0
        return (t_in, float(self._ball.theta(t_in)),
                math.atan2(math.sin(s) * math.cos(t_in), math.sin(t_in)))

    def _swept(self, t: np.ndarray) -> np.ndarray:
        """A(s) psi(t): the angle swept across the window from t_in to t."""
        return self.a_s * self.quadrature.at(t - self.entry_time)[1][1]

    @cached_property
    def _phi_exit(self) -> tuple[float, float]:
        """(phi(t_x), A(s) psi(t_x)): the closed tail past the exit and the
        window's whole angle."""
        t_in, t_x = self.window
        swept = self.a_s * float(self.quadrature.cum[1, -1]) if t_in < t_x else 0.0
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
        t_x = self.exit_time
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
        t_x = self.exit_time
        out = self._ball.theta(t)
        win = (t > t_in) & (t < t_x)
        if np.any(win):
            out[win] = theta_in + self._swept(t[win])
        past = t >= t_x
        if np.any(past):
            out[past] = self.theta_infinity - self.exterior.phi(t[past])
        return out

    def phi(self, t: float | np.ndarray) -> np.ndarray:
        """phi(t) = theta_inf - theta(t) for t in [0, T], as an array, with
        phi(t_x) in closed form whether or not t_x <= T."""
        return self._phi(self._times(t))

    def theta(self, t: float | np.ndarray) -> float | np.ndarray:
        """Angular coordinate theta(t), theta(0) = 0, increasing, on [0, T];
        its values do not depend on T."""
        theta = self._theta(self._times(t))
        return float(theta[0]) if np.ndim(t) == 0 else theta

    # -- the in-plane window pair ------------------------------------------

    @property
    def transfer(self) -> np.ndarray:
        """The in-plane transfer matrix M = [[U, V], [U', V']] of the window
        [t_in, t_x]: (Y, Y')(t_x) = M (Y, Y')(t_in), with the exit data
        (A rho', A')(t_x) = (h'_x, h_x) of the exterior.  det M = 1; the
        identity when the window is empty."""
        win = self.quadrature
        if win is None:
            return np.eye(2)
        u, v, du, dv = win.pair(self.exterior.dh_x, self.exterior.h_x, win.cum[2, -1])
        return np.array([[u, v], [du, dv]])

    def window_solution(self, y: float, dy: float) -> Trajectory:
        """The in-plane solution with state (y, dy) at t_in, on [t_in, t_x]:
        y U + dy V of the window pair, no solve."""
        win, c = self.quadrature, self.a_s
        t_in, t_x = self.window

        def fn(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            _, (_, _, j), d, da = win.at(t - t_in)
            u, v, du, dv = win.pair(np.sqrt(d * (2.0 * c + d)), da, j)
            return y * u + dy * v, y * du + dy * dv

        return Trajectory.from_function(fn, t_in, t_x)

    def window_minimum(self, in_plane: bool) -> float:
        """The minimum over the window of the even solution U (U(0) = 1,
        U'(0) = 0) of the in-plane or the off-plane Jacobi equation, given
        U' <= 0 at t_in and U' > 0 at t_x: U where U' turns positive, found
        from the first panel end past the turn by Newton in sigma on the
        partial integrals of that panel, with U'' = -k U and dt/dsigma in
        closed form, bisecting where a step would leave the bracket.  U is
        the value at Newton's last point, which the step bound puts within
        the square of a step of the minimum.
        In-plane U = cos(t_in) U - sin(t_in) V of the window pair.
        Off-plane U = A cos(theta) / A(s) with theta = theta(t_in) + A(s) psi,
        U' = (A' rho' cos(theta) - (A(s)/A) sin(theta)) / A(s) and
        k = rho'^2 K_par + (1 - rho'^2) K_perp, K_perp = (1 - A'^2) / A^2."""
        win, c, t_in, p = self.quadrature, self.a_s, self.entry_time, self.params
        cos_in, sin_in = math.cos(t_in), math.sin(t_in)
        theta_in = 0.0 if in_plane else self._start[1]

        def even(sg, part, d, da):
            """(U, U', k) at sigma sg, from the integrals part, D and A'."""
            a, y = c + d, np.sqrt(d * (2.0 * c + d))  # A, A rho'
            k_par = 1.0 - 2.0 * mollifier((p.s + (p.r + p.eps - p.s) * sg * sg - p.r) / p.eps)
            if in_plane:
                u, v, du, dv = win.pair(y, da, part[2])
                return u * cos_in - v * sin_in, du * cos_in - dv * sin_in, k_par
            cos, sin, w2 = np.cos(theta_in + c * part[1]), np.sin(theta_in + c * part[1]), (y / a) ** 2
            return (a * cos / c, (da * y / a * cos - c / a * sin) / c,
                    w2 * k_par + (1.0 - w2) * (1.0 - da * da) / (a * a))

        _, d, da = win._rates(win.sigma)
        k = max(int(np.argmax(even(win.sigma, win.cum, d, da)[1] > 0.0)), 1)
        lo, sg, hi = win.sigma[k - 1], win.sigma[k], win.sigma[k]
        for _ in range(_NEWTON_MAX):
            part, rate, d, da = win._partial(np.array([sg]))
            u, du, kk = (float(v[0]) for v in even(np.array([sg]), part, d, da))
            lo, hi = (lo, sg) if du > 0.0 else (sg, hi)
            slope = -kk * u * float(rate[0])  # dU'/dsigma = -k U dt/dsigma
            new = sg - du / slope if slope > 0.0 else math.nan
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            if abs(new - sg) <= _NEWTON_STEP:
                break
            sg = new
        return u


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


# Every window is a composite Gauss-Legendre rule on _PANELS equal panels in
# x = rho - r over its x-span, 10 nodes each, with panel ends sigma, where
# x = (s - r) + L sigma^2 and L = r + eps - s.  For s < r those ends are the
# transition pair's own panel ends x_k = k eps / _PANELS.  A far window,
# s < r - _FAR eps / _PANELS, takes the rule in x on the pair's own nodes
# (``WarpFunction.node_table``), with no lookup: the singularity of
# dt/dx = (c + D) / sqrt(D (2c + D)) at D = 0 lies near x = s - r, at least
# _FAR panel widths before the first panel.  Measured at eps 0.01, 0.05, 0.1,
# 0.7 and 1.2, the rule in x agreed with the sigma rule to 1.8e-15 in cum at
# 1, 2, 4 and 8 widths from r, and only to 1.6e-14 - 6.7e-13 at half a width:
# two widths keep a width of margin past where it reaches rounding.  Every
# other window (s < r within _FAR widths of grazing, or r <= s < r + eps)
# takes the rule on the sigma-images of the panels, where dt/dsigma has no
# singularity.  In the turning band L sigma^2 < _BAND L of a geodesic with
# r <= s, D = A(rho) - A(s) is L sigma^2 times the Gauss mean of A' on
# [s, s + L sigma^2], since the plain difference cancels there.  The band
# also takes every rho - s = L sigma^2 below _REST: rounding of A and rho
# (about 1e-16 each) leaves the plain difference less than half its digits
# there, and none within ulps of rest, where it rounds to 0.
_FAR = 2
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(10)
_GAUSS_X, _GAUSS_W = 0.5 * (_GAUSS_X + 1.0), 0.5 * _GAUSS_W  # on [0, 1]
_BAND = 0.1
_REST = 1e-8
# Newton stops once its step in sigma is below _NEWTON_STEP: what is left of
# the error is then of the order of the step squared
_NEWTON_STEP = 1e-9
_NEWTON_MAX = 8


@dataclass(frozen=True, eq=False)
class _Window:
    """The transition window of one geodesic, r <= rho <= r + eps, by
    quadrature on the warp function (module docstring).  ``cum`` holds the
    integrals (t - t_in, psi, J) from the entry to each panel end ``sigma``;
    ``entry`` is (y_i, a_i) = (A rho', A')(t_in).  Only ``build`` forks: a
    far window's ``cum`` is the rule in x on the metric's node table, every
    other one's the rule in sigma on looked-up values.  Both end on the same
    sigma, so a partial panel (``_partial``, ``at``) is always taken in
    sigma."""

    params: GeodesicParams
    warp: WarpFunction
    c: float  # A(s)
    entry: tuple[float, float]
    sigma: np.ndarray
    cum: np.ndarray

    @classmethod
    def build(cls, p: GeodesicParams, warp: WarpFunction, at_s: tuple[float, float]):
        """The window of the geodesic p, given at_s = (A, A')(s); None where
        there is none (an eps below the resolution of r, as for the sharp
        metric, or s >= r + eps)."""
        s, r, eps = p.s, p.r, p.eps
        if r + eps == r or s >= r + eps:
            return None
        if s < r:
            entry = (math.sqrt(math.sin(r + s) * math.sin(r - s)), math.cos(r))
            lo = (r - s) / (r + eps - s)
        else:  # a turning point at t = 0
            entry, lo = (0.0, at_s[1]), 0.0
        sigma = np.sqrt(np.linspace(lo, 1.0, _PANELS + 1))
        win = cls(p, warp, at_s[0], entry, sigma, np.zeros((3, _PANELS + 1)))
        # each panel's integrals, summed into cum after its column of zeros
        if s < r - _FAR * eps / _PANELS:
            # in x on the pair's nodes, with dt/dx and D as in _rates
            c, (a_less, _, k_da2) = win.c, warp.node_table
            d = a_less + 2.0 * math.cos(0.5 * (r + s)) * math.sin(0.5 * (r - s))
            dt = (c + d) / np.sqrt(d * (2.0 * c + d))
            rates, h = np.stack((dt, dt / ((c + d) * (c + d)), k_da2 * dt)), eps / _PANELS
        else:
            h = np.diff(sigma)
            rates = win._rates(sigma[:-1, None] + h[:, None] * _GAUSS_X)[0]
        np.cumsum(h * (rates @ _GAUSS_W), axis=1, out=win.cum[:, 1:])
        return win

    def _rates(self, sg: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dt, dpsi, dJ)/dsigma (stacked on a first axis of 3), D and A' at
        the sigma sg, elementwise."""
        s, r, eps = self.params.s, self.params.r, self.params.eps
        c, length = self.c, r + eps - s
        lsq = length * sg * sg  # rho - s
        a, da = self.warp.state(s + lsq)
        if s < r:  # sin r - sin s in product form
            d = (a - math.sin(r)) + 2.0 * math.cos(0.5 * (r + s)) * math.sin(0.5 * (r - s))
            m = d / lsq
        else:
            band = lsq < max(_BAND * length, _REST)
            d, m = a - c, np.empty_like(a)
            np.divide(d, lsq, out=m, where=~band)
            m[band] = self.warp.state(s + lsq[band, None] * _GAUSS_X)[1] @ _GAUSS_W
            d[band] = lsq[band] * m[band]
        # dt/dsigma = 2 L sigma (c + D) / sqrt(D (2c + D)), with m = D / (L sigma^2)
        dt = 2.0 * math.sqrt(length) * (c + d) / np.sqrt(m * (2.0 * c + d))
        k_par = 1.0 - 2.0 * mollifier((s + lsq - r) / eps)
        return np.stack((dt, dt / ((c + d) * (c + d)), k_par / (da * da) * dt)), d, da

    def _partial(self, sg: np.ndarray):
        """(the integrals (t - t_in, psi, J) from the entry to each sigma of
        sg, dt/dsigma, D, A') there: the cumulative sums at the panel ends and
        one Gauss rule on the partial panel."""
        k = np.clip(np.searchsorted(self.sigma, sg, side="right") - 1, 0, _PANELS - 1)
        lo = self.sigma[k]
        h = sg - lo
        rates, d, da = self._rates(np.column_stack((lo[:, None] + h[:, None] * _GAUSS_X, sg)))
        return self.cum[:, k] + h * (rates[:, :, :-1] @ _GAUSS_W), rates[0, :, -1], d[:, -1], da[:, -1]

    def at(self, tau: np.ndarray):
        """(sigma, (t - t_in, psi, J), D, A') at the times tau = t - t_in in
        the window: Newton on the t integral, whose rate is closed form,
        started from the linear interpolant between the panel ends."""
        tau = np.minimum(tau, self.cum[0, -1])
        sg = np.interp(tau, self.cum[0], self.sigma)
        for _ in range(_NEWTON_MAX):
            part, rate, _, _ = self._partial(sg)
            step = (part[0] - tau) / rate
            sg = np.clip(sg - step, self.sigma[0], 1.0)
            if np.max(np.abs(step)) <= _NEWTON_STEP:
                break
        part, _, d, da = self._partial(sg)
        return sg, part, d, da

    def pair(self, y: np.ndarray, a: np.ndarray, j: np.ndarray) -> tuple:
        """(U, V, U', V') of the in-plane pair from the identity at t_in,
        where (A rho', A') = (y, a) and J = j: y1 = A rho' solves the Jacobi
        equation with y1' = A', and reduction of order gives the rest."""
        y_i, a_i = self.entry
        return (a_i / a - y * a_i * j, y / a_i - y_i / a + y * y_i * j,
                -a * a_i * j, a / a_i + a * y_i * j)

    def state(self, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(rho, rho') at the times tau = t - t_in in the window."""
        sg, _, d, _ = self.at(tau)
        c, p = self.c, self.params
        return p.s + (p.r + p.eps - p.s) * sg * sg, np.sqrt(d * (2.0 * c + d)) / (c + d)


def _radial_solution(p: GeodesicParams, warp: WarpFunction, T: float,
                     at_s: tuple[float, float]) -> RadialSolution:
    """The whole geodesic, given at_s = (A, A')(s): the exact ball on
    [0, t_in], the window's quadrature on [t_in, t_x], the exact exterior
    from t_x.  Each piece is built on its own span; T only bounds the domain
    of the joined trajectory."""
    s, r, eps = p.s, p.r, p.eps
    rho_x = r + eps
    a_s, h_s = at_s
    win = _Window.build(p, warp, at_s)
    if s == 0.0:  # rho = t, with t_in = r and t_x = r + eps exactly
        t_in, t_x = r, rho_x
        parts = [Trajectory.from_function(lambda t: (t, np.ones_like(t)), 0.0, math.inf)]
    else:
        t_in = entry_time(s, r) if s < r else 0.0
        t_x = t_in + float(win.cum[0, -1]) if win is not None else t_in
        parts = [Trajectory.from_function(_Ball.at(s).state, 0.0, t_in)] if s < r else []
        if win is not None:
            parts.append(Trajectory.from_function(lambda t: win.state(t - t_in), t_in, t_x))

    a_x, h_x = warp.exit_state if s < rho_x else (a_s, h_s)
    if s < r:  # A(s) = sin s; sin^2 r - sin^2 s = sin(r + s) sin(r - s)
        dh2 = (a_x - math.sin(r)) * (a_x + math.sin(r)) + math.sin(r + s) * math.sin(r - s)
    else:
        dh2 = (a_x - a_s) * (a_x + a_s)
    exterior = _Exterior(t_x=t_x, rho_x=max(s, rho_x), h_x=h_x, dh_x=math.sqrt(max(0.0, dh2)),
                         d=4.0 * warp.a_plus * warp.a_minus, a_s=a_s)
    if s > 0.0:
        parts.append(Trajectory.from_function(exterior.state, t_x, math.inf))
    trajectory = Trajectory(t0=0.0, t1=float(T), pieces=sum((part.pieces for part in parts), ()))
    return RadialSolution(params=p, trajectory=trajectory, entry_time=t_in, exit_time=t_x,
                          warp=warp, a_s=a_s, exterior=exterior, quadrature=win)


def _grid_solutions(params: list[GeodesicParams], T: float) -> Iterator[RadialSolution]:
    if max(p.s for p in params) > _S_MAX:
        raise ValueError(f"A(s) overflows for s past {_S_MAX}")
    warp = solve_warp(params[0].profile)
    for p in params:
        yield _radial_solution(p, warp, T, tuple(float(v[0]) for v in warp.state(p.s)))


def solve_radial_grid(ss: Iterable[float], r: float, eps: float,
                      T: float = 30.0) -> Iterator[RadialSolution]:
    """``solve_radial`` at (s, r, eps) for each s of ``ss``, in order, on one
    warp function; each result is an ordinary per-geodesic solution with its
    own window.  The solutions are made as they are asked for, so a long grid
    holds one at a time; they are not cached."""
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    params = [GeodesicParams(float(s), r, eps) for s in ss]
    return _grid_solutions(params, T) if params else iter(())


def solve_radial(params: GeodesicParams, T: float = 30.0) -> RadialSolution:
    """The geodesic mu = params, solved whole: exact in the ball, by
    quadrature across the transition, exact past it.  The horizon T only
    bounds the domain [0, T] of its trajectory and angle; what is solved does
    not depend on it.

    The entry time is the exact ``entry_time(s, r)``; the window's quadrature
    runs in x = rho - r, so it ends exactly at rho = r + eps and no panel
    straddles the curvature transition; the time it integrates there is the
    solution's ``exit_time``.  This is the grid of one of
    ``solve_radial_grid``; each call solves anew.  Raises ValueError where
    A(s) overflows (s past about 709).
    """
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    return next(_grid_solutions([params], T))


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
