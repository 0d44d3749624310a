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
  Gauss mean of A' on [s, s + L sigma^2].  A point inside the window is
  taken from its panel's ten nodes alone, looked up once: the integrals from
  the panel's start by the Legendre integration row at the point, the
  construction of ``warp._CUMULATIVE`` (Greengard, SIAM J. Numer. Anal. 28,
  1991), and dt/dsigma, m = D / (L sigma^2) and A' by the barycentric
  formula on the nodes (Berrut and Trefethen, SIAM Rev. 46, 2004).  So a time
  t inside the window, and the least U there, are found by Newton steps that
  are arithmetic on that data, with no lookup.  The radial geodesic is the
  column with c = 0, where dt/dx = 1; rho = t stays exact there and its
  window is [r, r + eps].  A grid of geodesics
  (``solve_radial_grid``) is one ``RadialGrid`` on one warp function, and so
  one table: one array per quantity, one entry per s, its windows built as
  one broadcast on the table (far) and one batched lookup (the others).
  Each row's closed forms (t_in, the entry and exit data, the angle at t_in,
  the exterior's scaled constants, the transfer matrix) are a few scalars,
  taken row by row with the C library's functions (``_closed_forms``); the
  angle's tail, the certificates and the minima, with their Newton solves,
  are array formulas over the rows.  ``solve_radial`` is a
  grid of one;
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
from functools import cached_property, partial
from typing import Iterable, Iterator

import numpy as np

from .ode import Trajectory
from .warp import (_BARYCENTRIC, _GAUSS, _PANELS, _WEIGHTS, _XI, ProfileParams, WarpFunction,
                   mollifier, solve_warp)

__all__ = [
    "GeodesicParams",
    "RadialGrid",
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


def _phi(e, reduced: tuple, d: float):
    """phi = theta_inf - theta past t_x, at E = e^{-2 (t - t_x)}, in closed
    form (module docstring), on the columns of ``RadialGrid.reduced``: p, q,
    A(s) and 4 a_+ a_- scaled by powers of two; d is 4 a_+ a_- itself.
    atanc(z) is atanh(sqrt z) / sqrt z for d > 0 (z >= 0), else
    atan(sqrt -z) / sqrt -z, and 1 at z = 0 (|z| < 1): z has the sign of d,
    one number per metric, so one branch serves every time."""
    p, q, _, a_s, d_scaled = reduced
    y = a_s * e / (2.0 * p * p + (2.0 * p * q + d_scaled) * e)  # >= 0
    root = np.sqrt(abs(d) * y * y)
    return y * np.divide((np.arctanh if d > 0.0 else np.arctan)(root), root,
                         out=np.ones_like(root), where=root > 0.0)


def _pair(entry: tuple, y, a, j) -> tuple:
    """(U, V, U', V') of the in-plane window pair from the identity at t_in,
    where (A rho', A') = (y, a) and J = j, given the entry (y_i, a_i) =
    (A rho', A')(t_in): y1 = A rho' solves the Jacobi equation with
    y1' = A', and reduction of order gives the rest."""
    y_i, a_i = entry
    return (a_i / a - y * a_i * j, y / a_i - y_i / a + y * y_i * j,
            -a * a_i * j, a / a_i + a * y_i * j)


def _ball_state(s: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, rho') inside the ball, from sin(rho/2) = hypot(sin(s/2) cos(t/2),
    cos(s/2) sin(t/2)); rho(0) = s to the last bit even where sin(s/2)^2
    underflows."""
    half = np.hypot(math.sin(0.5 * s) * np.cos(0.5 * t), math.cos(0.5 * s) * np.sin(0.5 * t))
    return 2.0 * np.arcsin(half), math.cos(s) * np.sin(t) / (2.0 * half * np.sqrt(1.0 - half * half))


# The exterior past t_x, where h = A'(rho) solves h'' = h.  With
# tau = t - t_x, e^{-tau} h = (h_x (1 + E) + h'_x (1 - E)) / 2 and
# e^{-tau} h' = (h'_x (1 + E) + h_x (1 - E)) / 2, E = e^{-2 tau}; both
# terms are nonnegative and nothing overflows.

def _scaled(ext: tuple, d: float, t: np.ndarray) -> tuple:
    """(tau, E, e^{-tau} h, e^{-tau} h', e^{-tau} A) past t_x, from
    ext = (t_x, rho(t_x), h_x, h'_x, ...) and d = 4 a_+ a_-, with
    e^{-tau} A = g sqrt(1 + 4 a_+ a_- E / g^2) for g = e^{-tau} h > 0:
    g itself is never squared, so A'(s) up to the float range does not
    overflow."""
    t_x, _, h_x, dh_x, _ = ext
    tau = t - t_x
    e, m = np.exp(-2.0 * tau), -np.expm1(-2.0 * tau)
    g, dg = 0.5 * (h_x * (1.0 + e) + dh_x * m), 0.5 * (dh_x * (1.0 + e) + h_x * m)
    return tau, e, g, dg, g * np.sqrt(1.0 + d * e / g / g)


def _exterior_state(ext: tuple, d: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rho, rho') = (log((h + A) / (2 a_+)), h' / A) past t_x
    (``_scaled``), taken relative to t_x so that rho(t_x) = rho_x exactly."""
    (_, rho_x, h_x, _, _), (tau, _, g, dg, a) = ext, _scaled(ext, d, t)
    return rho_x + tau + np.log((g + a) / (h_x + h_x * math.sqrt(1.0 + d / h_x / h_x))), dg / a


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """The geodesics at the s of one array on one metric, solved whole
    (``solve_radial_grid``): one array per quantity, one entry per s.  By
    row: A(s) (``c``); the entry time ``t_in`` at which rho crosses r (0 if
    s >= r) and the exit time ``t_x`` at which it reaches r + eps (0 if
    s >= r + eps, t_in if the transition is sharp); the entry (y_i, a_i) =
    (A rho', A')(t_in) and the angle (theta, pi/2 - theta)(t_in)
    (``start``); the window's panel ends in sigma (``sigma``) and the
    integrals ``cum`` (t - t_in, psi, J) from the entry to each of them,
    zero for a row without a window; and the exterior's (h_x, h'_x) =
    (A', A rho')(t_x) (``exit``) with its constants scaled by powers of
    two (``reduced``); the in-plane transfer matrix ``M`` (rows x 2 x 2)
    of the window [t_in, t_x]; and e^{-t_x} (``decay``).  On first use,
    array formulas on these give the angle (``tail``, ``psi``); the minima
    of the even Jacobi solutions are the scans' own (``window_minima``,
    ``perp_minima``).  T bounds only the domain [0, T] of a row's trajectory
    and angle.  Row i (``grid[i]``) is a grid of one,
    a ``RadialSolution``.  Only this module knows the window's integrals."""

    r: float
    eps: float
    T: float
    warp: WarpFunction
    s: np.ndarray
    c: np.ndarray
    t_in: np.ndarray
    t_x: np.ndarray
    entry: np.ndarray
    start: np.ndarray
    cum: np.ndarray
    sigma: np.ndarray
    exit: np.ndarray
    reduced: np.ndarray
    M: np.ndarray
    decay: np.ndarray

    def __len__(self) -> int:
        return len(self.s)

    def __getitem__(self, i: int) -> "RadialSolution":
        i = range(len(self))[i]
        return self._take(slice(i, i + 1), RadialSolution)

    def _take(self, rows, cls=None) -> "RadialGrid":
        """The grid of the rows ``rows``, an index array or a slice: every
        array field has the rows on its first axis."""
        return (cls or RadialGrid)(**{name: v[rows] if isinstance(v := getattr(self, name), np.ndarray)
                                      else v for name in self.__dataclass_fields__})

    # What only one kind of query reads is computed on first use: the angle.

    @cached_property
    def tail(self) -> tuple:
        """(phi(t_x), A(s) psi(t_x)): the closed tail past the exit and the
        window's whole angle."""
        return _phi(1.0, self.reduced.T, self.warp.d), self.c * self.cum[:, 1, -1]

    @property
    def psi(self) -> np.ndarray:
        """pi/2 - theta_inf: pi/2 - theta(t_in) less phi(t_in), to full
        relative precision even where theta_inf is within rounding of pi/2
        (small s)."""
        return self.start[:, 1] - (self.tail[0] + self.tail[1])

    # -- windows, row by row -------------------------------------------------

    def _nodes(self, k: np.ndarray) -> tuple:
        """The data of the panels k (rows x panels) of each row's window, from
        one lookup of their ten Gauss nodes in sigma, the very nodes of the
        window's rule: each panel's start and width in sigma, the integrals
        (t - t_in, psi, J) at its start, and (dt, dpsi, dJ)/dsigma,
        m = D / (L sigma^2) and A' at its nodes (rows x 5 x panels x nodes)."""
        rows = np.arange(len(self))[:, None]
        lo, h = self.sigma[rows, k], self.sigma[rows, k + 1] - self.sigma[rows, k]
        sg = (lo[..., None] + h[..., None] * _GAUSS_X).reshape(len(self), -1)
        rates, _, da, m = _rates(self.warp, self.s, self.c, sg)
        f = np.concatenate((rates, m[:, None], da[:, None]), axis=1)
        return lo, h, self.cum[rows, :, k].transpose(0, 2, 1), f.reshape(len(self), 5, *k.shape[1:], _GAUSS)

    def _partial(self, nodes: tuple, xi: np.ndarray):
        """(sigma, the integrals (t - t_in, psi, J) from the entry, dt/dsigma,
        D, A') at the points xi in [-1, 1] (rows x points) of the panels of
        ``nodes`` (``_nodes``, which broadcast against xi), from the panels'
        node data alone: the integral from a panel's start is its Legendre
        integration row (``_integration_row``) on the node rates, and
        dt/dsigma, m and A' the barycentric formula on the node values
        (``warp._BARYCENTRIC``), with D = L sigma^2 m: m, not D, keeps its
        sign to sigma = 0."""
        lo, h, start, f = nodes
        sg = lo + 0.5 * h * (xi + 1.0)
        part = start + h[:, None] * (f[:, :3] * _integration_row(xi)[:, None]).sum(axis=-1)
        diff = xi[..., None] - _XI  # the node value at a node
        node = diff == 0.0
        q = np.where(node.any(axis=-1, keepdims=True), node, _BARYCENTRIC / np.where(node, 1.0, diff))
        rate, m, da = ((f[:, (0, 3, 4)] * q[:, None]).sum(axis=-1) / q.sum(axis=-1)[:, None]).swapaxes(0, 1)
        return sg, part, rate, (self.r + self.eps - self.s)[:, None] * sg * sg * m, da

    def at(self, tau: np.ndarray):
        """(sigma, (t - t_in, psi, J), D, A') at the times tau = t - t_in in
        the window of a grid of one: Newton on the t integral inside the
        panel of each tau, on the panel's node data (``_nodes``, one lookup
        for every tau), started from the linear interpolant between the
        panel ends."""
        cum = self.cum[0, 0]
        tau = np.minimum(tau, cum[-1])
        k = np.clip(np.searchsorted(cum, tau, side="right") - 1, 0, _PANELS - 1)
        nodes, xi = self._nodes(k[None]), (2.0 * (tau - cum[k]) / (cum[k + 1] - cum[k]) - 1.0)[None]
        for _ in range(_NEWTON_MAX):
            _, part, rate, _, _ = self._partial(nodes, xi)
            step = (part[:, 0] - tau) / rate  # in sigma
            xi = np.minimum(np.maximum(xi - 2.0 * step / nodes[1], -1.0), 1.0)
            if np.max(np.abs(step)) <= _NEWTON_STEP:
                break
        sg, part, _, d, da = self._partial(nodes, xi)
        return sg[0], part[0], d[0], da[0]

    def _at(self, tau: np.ndarray):
        """``at``, kept for the last tau asked: rho and the angle at the same
        times (``jacobi.killing_field``), or the U and V of one pair, share
        one inversion."""
        last = self.__dict__.get("_last_at")
        if last is None or not np.array_equal(last[0], tau):
            last = self.__dict__["_last_at"] = (tau, self.at(tau))
        return last[1]

    def window_minima(self, in_plane: np.ndarray) -> np.ndarray:
        """The minimum over each row's window of the even solution U
        (U(0) = 1, U'(0) = 0) of the in-plane equation where ``in_plane``,
        else the off-plane one, given U' <= 0 at t_in and U' > 0 at t_x.

        A row at rest at t_in = 0 whose kernel k is <= 0 there (K_par(s)
        in-plane, K_perp(s) off-plane) has U'' = -k U >= 0 from t_in on, k
        changing sign at most once, from + to - (``jacobi.even_minima``): its
        minimum is U(t_in) = 1, with no step.  In the others U' turns
        positive in the panel whose end is the first with U' > 0 (in-plane
        U' is A' times a function of J alone, which the panel ends hold;
        off-plane takes one lookup of the ends).  One lookup of that panel's
        nodes (``_nodes``) gives U' at each node, and Newton on the node data
        (``_partial``), with U'' = -k U, starts from the first node where
        U' > 0, bracketed by the node before it, bisecting where a step would
        leave the bracket: at most _NEWTON_MAX steps, none a lookup, each
        stopping once below _NEWTON_STEP in sigma.
        U is the value at Newton's last point, which the step bound puts
        within the square of a step of the minimum.  (A scan meets these
        minima at turning points only, s >= r.)
        In-plane U = cos(t_in) U - sin(t_in) V of the window pair.
        Off-plane U = A cos(theta) / A(s) with theta = theta(t_in) + A(s) psi,
        U' = (A' rho' cos(theta) - (A(s)/A) sin(theta)) / A(s) and
        k = rho'^2 K_par + (1 - rho'^2) K_perp, K_perp = (1 - A'^2) / A^2."""
        n, least = len(self), np.ones(len(self))
        with np.errstate(divide="ignore", invalid="ignore"):  # read at rest only, where A(s) > 0
            kernel = self._even(in_plane, np.zeros((n, 1)), np.zeros((n, 3, 1)), 0.0, self.entry[:, 1:])[2]
        rows = np.flatnonzero((self.t_in > 0.0) | ~(kernel[:, 0] <= 0.0))
        if not rows.size:
            return least
        grid, plane = self._take(rows), in_plane[rows]
        # the first panel end where U' > 0; in-plane U' is A' times a function of J, so any D, A' > 0 serve
        d, da, off = np.ones_like(grid.sigma), np.ones_like(grid.sigma), ~plane
        if off.any():
            _, d[off], da[off], _ = _rates(self.warp, grid.s[off], grid.c[off], grid.sigma[off])
        k = np.maximum(np.argmax(grid._even(plane, grid.sigma, grid.cum, d, da)[1] > 0.0, axis=1), 1) - 1
        nodes, now = grid._nodes(k[:, None]), np.arange(len(rows))
        # U' at the panel's nodes and its end; Newton in xi (sigma = start + h (1 + xi) / 2)
        sg, part, rate, d, da = grid._partial(nodes, np.broadcast_to(_STOPS[1:], (len(rows), _GAUSS + 1)))
        u, du, kk = grid._even(plane, sg, part, d, da)
        first = np.argmax((du > 0.0) | (np.arange(_GAUSS + 1) == _GAUSS), axis=1)
        u, du, kk, rate = (v[now, first] for v in (u, du, kk, rate))
        lo, xi, hi, h = _STOPS[first], _STOPS[first + 1], _STOPS[first + 1], 0.5 * nodes[1][:, 0]
        for _ in range(_NEWTON_MAX):  # a row that has converged keeps its xi, and so its values
            lo, hi = np.where(du > 0.0, lo, xi), np.where(du > 0.0, xi, hi)
            slope = -h * kk * u * rate  # dU'/dxi = -k U dt/dsigma h/2
            with np.errstate(divide="ignore", invalid="ignore"):
                new = np.where(slope > 0.0, xi - du / slope, np.nan)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            on = h * np.abs(new - xi) > _NEWTON_STEP  # in sigma
            if not on.any():
                break
            xi = np.where(on, new, xi)
            sg, part, rate, d, da = grid._partial(nodes, xi[:, None])
            u, du, kk, rate = (v[:, 0] for v in (*grid._even(plane, sg, part, d, da), rate))
        least[rows] = u
        return least

    def _even(self, in_plane: np.ndarray, sg: np.ndarray, part: np.ndarray, d, da) -> tuple:
        """(U, U', k) of ``window_minima`` at the sigma sg (rows x points),
        from the integrals part, D and A' there."""
        r, eps, plane = self.r, self.eps, in_plane[:, None]
        s, c, t_in = self.s[:, None], self.c[:, None], self.t_in[:, None]
        cos_in, sin_in = np.cos(t_in), np.sin(t_in)
        theta = np.where(plane, 0.0, self.start[:, :1]) + c * part[:, 1]
        a, y = c + d, np.sqrt(d * (2.0 * c + d))  # A, A rho'
        k_par = 1.0 - 2.0 * mollifier((s + (r + eps - s) * sg * sg - r) / eps)
        u, v, du, dv = _pair(self.entry.T[..., None], y, da, part[:, 2])
        cos, sin, w2 = np.cos(theta), np.sin(theta), (y / a) ** 2
        return (np.where(plane, u * cos_in - v * sin_in, a * cos / c),
                np.where(plane, du * cos_in - dv * sin_in, (da * y / a * cos - c / a * sin) / c),
                np.where(plane, k_par, w2 * k_par + (1.0 - w2) * (1.0 - da * da) / (a * a)))

    # -- the off-plane tail minimum, row by row --------------------------------

    def perp_minima(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(min over [t_x, inf) of the off-plane even solution
        U = A(rho) cos(theta) / A(s), whether U' > 0 at t_x) at each row,
        given psi = pi/2 - theta_inf > 0.

        Clairaut gives 1 - rho'^2 = A(s)^2 / A^2, so the off-plane kernel is
        -1 + A(s)^2 (1 + 4 a_+ a_-) / A^4 here, decreasing as A grows.  With
        U > 0 (theta < theta_inf < pi/2) and the kernel's one change of sign
        on the whole line (``jacobi.even_minima``), U' <= 0 up to the
        minimum and U' > 0 after it.  In E = e^{-2 tau},
        e^{-tau} A = sqrt(g^2 + 4 a_+ a_- E) with g = p + q E and
        e^{-tau} h' = p - q E, and U' has the sign of

            f(E) = g (p - q E) sin(psi + phi) - A(s) E cos(psi + phi),

        where cos(theta) = sin(psi + phi) keeps its precision however small
        psi is.  f is positive as E -> 0 and turns at most once on (0, 1]
        (not at all when U' > 0 at t_x).  Its derivative is closed form, with
        dphi/dE = A(s) / (2 (g^2 + 4 a_+ a_- E)), so Newton locates the turn,
        bisecting where a step would leave the bracket.  It starts from the
        root of f's tangent p^2 psi - A(s) E / 2 at E = 0, but for a geodesic
        at rest at t_x (s >= r + eps), where the turn closes in on t_x as s
        nears the curvature threshold, from where U' turns in the limit
        h_x = A'(rho(t_x)) -> 1.  A row at rest with h_x >= 1 has K_perp <= 0
        from t_x on, so U' > 0 past t_x and its minimum is U(t_x); so it is,
        to far below rounding, for h_x >= 1 - _FLAT, which takes the row at
        the threshold (A' = 1 to rounding, a double root of f at E = 1, where
        a Newton step never falls below its bound) with no Newton at all.
        Newton stops once a step is below _NEWTON_STEP relative to E: U is
        flat at its minimum, so what is left of its error is of the order of
        the step squared.  At most _NEWTON_MAX values of f are taken for the
        rows that turn, all rows at once, and U(t_x) bounds the result.  As
        in ``_phi``, p, q, A(s) and 4 a_+ a_- are scaled by powers of two, so
        that nothing squared overflows however large A'(s) is."""
        f, _, u = self._turn(1.0, psi)
        rest = self.exit[:, 1] == 0.0
        f = np.where(rest, 0.0, f)  # U'(t_x) = 0, and f(1) is rounding
        turns = np.flatnonzero(~((f > 0.0) | (rest & (self.exit[:, 0] >= 1.0 - _FLAT))))
        if turns.size:  # else U' >= 0 on all of (t_x, inf)
            rows, psi, rest, n = self._take(turns), psi[turns], rest[turns], turns.size
            (p, _, _, a_s, _), h = rows.reduced.T, rows.exit[:, 0]
            # at rest, U' turns at tau ~ sqrt(3) tau_0 as h_x -> 1, where the kernel changes
            # sign at tau_0 ~ sqrt((1 - h_x^2) / 2) / h_x (_FLAT); else start from the root
            # of f's tangent at E = 0
            e = np.where(rest, np.exp(-np.sqrt(np.maximum(6.0 - 6.0 * h * h, 0.0)) / h),
                         np.minimum(2.0 * p * p * psi / a_s, 0.5))
            least, lo, hi, done = u[turns], np.zeros(n), np.ones(n), np.zeros(n, dtype=bool)
            for _ in range(_NEWTON_MAX - 1):
                g, dg, v = rows._turn(e, psi)
                least = np.where(done, least, v)
                lo, hi = np.where(g > 0.0, e, lo), np.where(g > 0.0, hi, e)
                with np.errstate(divide="ignore", invalid="ignore"):
                    new = np.where(dg < 0.0, e - g / dg, np.nan)
                done |= np.abs(new - e) <= _NEWTON_STEP * e
                if done.all():
                    break
                e = np.where(done, e, np.where((lo < new) & (new < hi), new, 0.5 * (lo + hi)))
            u[turns] = np.where(u[turns] < least, u[turns], least)  # U(t_x) bounds the minimum
        return u, f > 0.0

    def _turn(self, e, psi: np.ndarray) -> tuple:
        """(f, df/dE, U) at E = e at each row (``perp_minima``), f and its
        derivative scaled by 2^-2k; the angle is psi + phi (``_phi``)."""
        p, q, c_k, a_s, d = self.reduced.T
        angle = psi + _phi(e, self.reduced.T, self.warp.d)
        g, dg, sin, cos = p + q * e, p - q * e, np.sin(angle), np.cos(angle)
        a2 = g * g + d * e  # (e^{-tau} A)^2, scaled by 2^-2k
        f = g * dg * sin - a_s * e * cos
        # dangle/dE = A(s) / (2 (e^{-tau} A)^2)
        df = (g * dg * cos + a_s * e * sin) * (0.5 * a_s / a2) - 2.0 * q * q * e * sin - a_s * cos
        # e^{-tau} A / A(s) = sqrt(g^2 + 4 a_+ a_- E) / A(s), both scaled by 2^-k
        return f, df, np.sqrt(a2 / e) * sin / c_k


@dataclass(frozen=True, eq=False)
class RadialSolution(RadialGrid):
    """rho along one geodesic, solved whole: the grid of one row
    (``solve_radial``, or a row of a grid), with the pieces that a query
    evaluates built on first use: its trajectory, a function on [0, T]; the
    exact exterior past the exit; the angular coordinate theta, exact but
    for psi; and the in-plane window solutions (``window_solution``)."""

    @cached_property
    def params(self) -> GeodesicParams:
        return GeodesicParams(float(self.s[0]), self.r, self.eps)

    @property
    def window(self) -> tuple[float, float]:
        """(t_in, t_x): inside the ball before t_in, in the transition on
        [t_in, t_x], outside it after t_x, whatever the horizon.  t_in = 0
        when the geodesic starts outside the ball; t_in = t_x when the
        transition is sharp."""
        return float(self.t_in[0]), float(self.t_x[0])

    @property
    def entry_time(self) -> float:
        return float(self.t_in[0])

    @property
    def exit_time(self) -> float:
        return float(self.t_x[0])

    @property
    def a_s(self) -> float:
        return float(self.c[0])

    @property
    def transfer(self) -> np.ndarray:
        """The in-plane transfer matrix M = [[U, V], [U', V']] of the window
        [t_in, t_x]: (Y, Y')(t_x) = M (Y, Y')(t_in), with the exit data
        (A rho', A')(t_x) = (h'_x, h_x) of the exterior.  det M = 1; the
        identity when the window is empty."""
        return self.M[0]

    @cached_property
    def trajectory(self) -> Trajectory:
        """rho on [0, T]: the exact ball on [0, t_in], the window's
        quadrature on [t_in, t_x], the exact exterior from t_x, each piece on
        its own span, built once.  The pieces close over the row's scalars
        and its plain grid (``_window``), never over the solution, so that
        keeping them forms no reference cycle."""
        s, (t_in, t_x), r, eps = float(self.s[0]), self.window, self.r, self.eps
        if s == 0.0:  # rho = t, with t_in = r and t_x = r + eps exactly
            pieces = [(lambda t: (t, np.ones_like(t)), 0.0, math.inf)]
        else:
            pieces = [(partial(_ball_state, s), 0.0, t_in)] if s < r else []
            if t_in < t_x:
                win, c = self._window, self.a_s

                def window_state(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                    sg, _, d, _ = win._at(t - t_in)
                    return s + (r + eps - s) * sg * sg, np.sqrt(d * (2.0 * c + d)) / (c + d)

                pieces.append((window_state, t_in, t_x))
            pieces.append((partial(_exterior_state, self._row[1], self.warp.d), t_x, math.inf))
        return Trajectory(t0=0.0, t1=self.T,
                          pieces=sum((Trajectory.from_function(*p).pieces for p in pieces), ()))

    def state(self, t: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.trajectory.state(t)

    def rho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.value(t)

    def drho(self, t: float | np.ndarray) -> float | np.ndarray:
        return self.trajectory.deriv(t)

    @cached_property
    def _row(self) -> tuple:
        """The row as floats, for the pieces evaluated at many times:
        (t_in, theta(t_in), phi(t_x), A(s) psi(t_x), sin s) from ``start``
        and ``tail``, and the exterior's data (t_x, rho(t_x), h_x, h'_x,
        ``reduced``) (``_scaled``, ``_phi``), with rho(t_x) =
        max(s, r + eps) exactly.  Only geodesics with s > 0 read them: the
        radial geodesic has no angle, and its rho is t."""
        if self.s[0] == 0.0:
            raise ValueError("the angular coordinate is undefined along the radial geodesic")
        return ((self.entry_time, float(self.start[0, 0]), *(float(v[0]) for v in self.tail),
                 math.sin(self.s[0])), (self.exit_time, max(float(self.s[0]), self.r + self.eps),
                                        *self.exit[0].tolist(), tuple(self.reduced[0].tolist())))

    def _exterior_phi(self, t: np.ndarray) -> np.ndarray:
        """phi past t_x, the integral of Clairaut's rate A(s) / (h^2 +
        4 a_+ a_-) over [t, inf), in closed form (``_phi``)."""
        t_x, *_, reduced = self._row[1]
        return _phi(np.exp(-2.0 * (t - t_x)), reduced, self.warp.d)

    def k_perp_past(self, t: np.ndarray) -> np.ndarray:
        """K_perp(rho(t)) = (1 - A'^2) / A^2 = -1 + (1 + 4 a_+ a_-) / A^2
        past t_x."""
        _, e, _, _, a = _scaled(self._row[1], self.warp.d, t)
        return -1.0 + (1.0 + self.warp.d) * e / a / a

    # -- the window ---------------------------------------------------------

    @cached_property
    def _window(self) -> RadialGrid:
        """The row as a plain grid, which the trajectory's window piece holds
        and whose last inversion of the window's time (``RadialGrid._at``)
        the state, the angle and the in-plane pair share."""
        return self._take(slice(None))

    def window_solution(self, y: float, dy: float) -> Trajectory:
        """The in-plane solution with state (y, dy) at t_in, on [t_in, t_x]:
        y U + dy V of the window pair, no solve."""
        c, (t_in, t_x), entry = self.a_s, self.window, self.entry[0].tolist()

        def fn(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            _, (_, _, j), d, da = self._window._at(t - t_in)
            u, v, du, dv = _pair(entry, np.sqrt(d * (2.0 * c + d)), da, j)
            return y * u + dy * v, y * du + dy * dv

        return Trajectory.from_function(fn, t_in, t_x)

    # -- the angular coordinate, in the ball on the great circle
    # cos(rho) = cos(s) cos(t)

    def _ball_theta(self, t: np.ndarray) -> np.ndarray:
        """The angular coordinate atan2(sin t, sin s cos t)."""
        return np.arctan2(np.sin(t), self._row[0][4] * np.cos(t))

    def _times(self, t: float | np.ndarray) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        if t_arr.min() < 0.0 or t_arr.max() > self.T:
            raise ValueError(f"angle requested outside [0, {self.T}]")
        return t_arr

    @property
    def theta_infinity(self) -> float:
        """theta_inf = theta(t_in) + phi(t_in): the total angle swept."""
        (_, theta_in, phi_x, swept_x, _), _ = self._row
        return theta_in + (phi_x + swept_x)

    @property
    def theta_infinity_complement(self) -> float:
        """pi/2 - theta_inf (``psi``), to full relative precision even where
        theta_inf is within rounding of pi/2 (small s)."""
        return float(self.psi[0])

    def _phi(self, t: np.ndarray) -> np.ndarray:
        """phi = theta_inf - theta, summed tail-first: closed past t_x,
        phi(t_x) + A(s) (psi(t_x) - psi(t)) across the window, and the ball's
        closed form added to phi(t_in) before it."""
        (t_in, theta_in, phi_x, swept_x, _), (t_x, *_) = self._row
        out = self._exterior_phi(np.maximum(t, t_x))
        win = (t >= t_in) & (t < t_x)
        if np.any(win):
            out[win] += swept_x - self.a_s * self._window._at(t[win] - t_in)[1][1]
        ball = t < t_in
        out[ball] = (theta_in - self._ball_theta(t[ball])) + (phi_x + swept_x)
        return out

    def _theta(self, t: np.ndarray) -> np.ndarray:
        """theta summed forward: the ball's closed form, theta(t_in) +
        A(s) psi(t) across the window, theta_inf - phi past t_x."""
        (t_in, theta_in, *_), (t_x, *_) = self._row
        out = self._ball_theta(t)
        win = (t > t_in) & (t < t_x)
        if np.any(win):
            out[win] = theta_in + self.a_s * self._window._at(t[win] - t_in)[1][1]
        past = t >= t_x
        if np.any(past):
            out[past] = self.theta_infinity - self._exterior_phi(t[past])
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
_GAUSS_X, _GAUSS_W = 0.5 * (_XI + 1.0), 0.5 * _WEIGHTS  # on [0, 1]
_BAND = 0.1
_REST = 1e-8
# A point inside a panel is taken from the panel's node data (``_partial``):
# the values at its nodes -> its Legendre coefficients, halved (the discrete
# transform, as in ``warp._CUMULATIVE``), and the nodes with the panel's ends
# in xi
_TRANSFORM = (0.5 * np.arange(_GAUSS) + 0.25)[:, None] * np.polynomial.legendre.legvander(_XI, 9).T * _WEIGHTS
_STOPS = np.concatenate(([-1.0], _XI, [1.0]))
# Newton stops once its step in sigma is below _NEWTON_STEP: what is left of
# the error is then of the order of the step squared
_NEWTON_STEP = 1e-9
_NEWTON_MAX = 8
# At rest at t_x with h_x = A'(rho(t_x)) = 1 - delta, 0 < delta <= _FLAT, the
# off-plane kernel A(s)^2 (1 + 4 a_+ a_-) / A^4 - 1 is (1 - h_x^2) / A(s)^2
# <= 2 delta / A(s)^2 at t_x and falls to 0 by sinh^2(tau) ~ delta
# (h = h_x cosh tau), so by Sturm comparison with that bound U stays above
# U(t_x) (1 - delta^2 / A(s)^2): 1e-20 relative, far below rounding
_FLAT = 1e-10
# A scan solves its grids in blocks of _BLOCK rows (``_blocks``), each
# default grid (34 small-s rows, 85 to 127 mid-s rows up to eps 1.45) as one,
# and a window lookup holds at most the points of _ROWS windows' nodes at a
# time (``_rates``), so that what a scan holds at once grows with neither.
# Measured with tracemalloc at eps 0.05, _solve and even_minima on 128 rows:
# far windows peak at 1.55 MB, sigma windows (320 lookups each, and the
# turning bands') at 3.8 MB (6.5 MB with the lookup of all the rows at once),
# rows past the transition at 0.52 MB
_BLOCK = 128
_ROWS = 16


def _rates(warp: WarpFunction, s: np.ndarray, c: np.ndarray, sg: np.ndarray) -> tuple:
    """(dt, dpsi, dJ)/dsigma (rows x 3 x points), D, A' and m = D / (L sigma^2)
    (rows x points) at the sigma sg (rows x points) of the windows of the
    geodesics at s, with c = A(s); as many rows at a time as hold the points
    of _ROWS windows' nodes, which bounds what a lookup holds."""
    rows = max(1, _ROWS * _PANELS * _GAUSS // max(1, sg.shape[1]))
    if len(s) > rows:
        parts = (_rates(warp, s[i:i + rows], c[i:i + rows], sg[i:i + rows]) for i in range(0, len(s), rows))
        return tuple(np.concatenate(v) for v in zip(*parts))
    (r, eps), s, c = (warp.params.r, warp.params.eps), s[:, None], c[:, None]
    length = r + eps - s
    lsq = length * sg * sg  # rho - s
    a, da = (v.reshape(sg.shape) for v in warp.state((s + lsq).ravel()))
    ball = s < r
    # sin r - sin s in product form in the ball
    d = np.where(ball, (a - math.sin(r)) + 2.0 * np.cos(0.5 * (r + s)) * np.sin(0.5 * (r - s)), a - c)
    band = ~ball & (lsq < np.maximum(_BAND * length, _REST))
    m = np.divide(d, lsq, out=np.empty_like(a), where=~band)
    if band.any():
        at_s = np.broadcast_to(s, lsq.shape)[band]
        m[band] = warp.state(at_s[:, None] + lsq[band, None] * _GAUSS_X)[1] @ _GAUSS_W
        d[band] = lsq[band] * m[band]
    # dt/dsigma = 2 L sigma (c + D) / sqrt(D (2c + D)), with m = D / (L sigma^2)
    dt = 2.0 * np.sqrt(length) * (c + d) / np.sqrt(m * (2.0 * c + d))
    k_par = 1.0 - 2.0 * mollifier((s + lsq - r) / eps)
    return np.stack((dt, dt / ((c + d) * (c + d)), k_par / (da * da) * dt), axis=1), d, da, m


def _integration_row(xi: np.ndarray) -> np.ndarray:
    """The weights (... x nodes) of a panel's node values in their integral
    from the panel's start to the points xi in [-1, 1] (...), in units of
    the panel's width: its Legendre series (``_TRANSFORM``) integrated from
    -1, int P_0 = 1 + xi and int P_n = (P_{n+1} - P_{n-1}) / (2n + 1), with
    P_n(xi) by Bonnet's recurrence (Greengard, SIAM J. Numer. Anal. 28,
    1991)."""
    p = [np.ones_like(xi), xi]
    for n in range(1, _GAUSS):
        p.append(((2 * n + 1) * xi * p[n] - n * p[n - 1]) / (n + 1))
    q = [1.0 + xi] + [(p[n + 1] - p[n - 1]) / (2 * n + 1) for n in range(1, _GAUSS)]
    return np.stack(q, axis=-1) @ _TRANSFORM


def _far_integrals(warp: WarpFunction, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The integrals (t - t_in, psi, J) from the entry to each panel end
    past the first (rows x 3 x panels) of the far windows of the geodesics
    at s, c = A(s): the rule in x on the pair's nodes, with dt/dx and D as in
    ``_rates``, one broadcast on the node table for every row."""
    (a_less, _, k_da2), c, r = warp.node_table, c[:, None, None], warp.params.r
    d = a_less + (2.0 * np.cos(0.5 * (r + s)) * np.sin(0.5 * (r - s)))[:, None, None]
    dt = (c + d) / np.sqrt(d * (2.0 * c + d))
    # each rule in turn, so that one rate at a time is held at the nodes
    rules = [dt @ _GAUSS_W, (dt / ((c + d) * (c + d))) @ _GAUSS_W, (k_da2 * dt) @ _GAUSS_W]
    return np.cumsum(warp.params.eps / _PANELS * np.stack(rules, axis=1), axis=-1)


def _sigma_integrals(warp: WarpFunction, s: np.ndarray, c: np.ndarray,
                     sigma: np.ndarray) -> np.ndarray:
    """The integrals as in ``_far_integrals`` of the other windows, by the
    rule in sigma on the panel ends ``sigma`` (rows x panel ends): one
    batched lookup of every row's nodes."""
    h = np.diff(sigma)
    rates = _rates(warp, s, c, (sigma[:, :-1, None] + h[..., None] * _GAUSS_X).reshape(len(s), -1))[0]
    return np.cumsum(h[:, None] * (rates.reshape(len(s), 3, _PANELS, _GAUSS) @ _GAUSS_W), axis=-1)


def _solve(ss: np.ndarray, warp: WarpFunction, T: float = 30.0, cls=RadialGrid) -> RadialGrid:
    """The grid of the geodesics at the s of ss on the metric of ``warp``
    (``solve_radial_grid``): each window's integrals, then the closed forms
    of each row (``_closed_forms``).  Raises ValueError unless T > 0 and
    every s lies in [0, _S_MAX]."""
    if not T > 0.0:
        raise ValueError("horizon T must be positive")
    if not ((ss >= 0.0) & (ss <= _S_MAX)).all():  # nor nan
        raise ValueError(f"s must lie in [0, {_S_MAX}], past which A(s) overflows: got {ss}")
    (r, eps), n = (warp.params.r, warp.params.eps), ss.size
    c, h_s = warp.state(ss)
    cum, sigma, inside = np.zeros((n, 3, _PANELS + 1)), np.zeros((n, _PANELS + 1)), ss < r + eps
    if r + eps > r:  # else the sharp metric, with no window
        # the panel ends: sigma^2 = np.linspace(lo, 1, _PANELS + 1) in its own
        # arithmetic, from lo = (r - s) / L for s < r and 0 past r
        lo = np.maximum(0.0, (r - ss[inside]) / (r + eps - ss[inside]))[:, None]
        sigma[inside] = np.sqrt(np.arange(_PANELS + 1.0) * ((1.0 - lo) / _PANELS) + lo)
        sigma[inside, -1] = 1.0
        far = inside & (ss < r - _FAR * eps / _PANELS)
        if far.any():
            cum[far, :, 1:] = _far_integrals(warp, ss[far], c[far])
        near = inside & ~far
        if near.any():
            cum[near, :, 1:] = _sigma_integrals(warp, ss[near], c[near], sigma[near])
    rows = zip(ss.tolist(), c.tolist(), h_s.tolist(), cum[:, 0, -1].tolist(), cum[:, 2, -1].tolist())
    ends = np.array([_closed_forms(*row, warp) for row in rows], dtype=float).reshape(n, 19)
    # theta(t_in) = atan2(sin t_in, sin s cos t_in) takes numpy's atan2, as ``_ball_theta`` does
    start = np.stack((np.arctan2(ends[:, 4], ends[:, 5]), ends[:, 6]), axis=1)
    return cls(r=r, eps=eps, T=float(T), warp=warp, s=ss, c=c, t_in=ends[:, 0], t_x=ends[:, 1],
               entry=ends[:, 2:4], start=start, cum=cum, sigma=sigma, exit=ends[:, 7:9],
               reduced=ends[:, 9:14], M=ends[:, 14:18].reshape(n, 2, 2).copy(), decay=ends[:, 18])


def _closed_forms(s: float, a_s: float, da_s: float, tau: float, j: float,
                  warp: WarpFunction) -> tuple:
    """The row of the geodesic at s, (A, A')(s) = (a_s, da_s), whose window
    takes the time tau and gives the integral J = j: (t_in, t_x), the entry
    (y_i, a_i) = (A rho', A')(t_in), the angle at t_in as the arguments
    (sin t_in, sin s cos t_in) of theta's atan2 and pi/2 - theta,
    the exterior's exact (h_x, h'_x) = (A', A rho')(t_x), with
    h'^2 = A(rho)^2 - A(s)^2 (Clairaut), its constants (p, q, A(s) 2^-k,
    A(s) 2^-2k, 4 a_+ a_- 2^-2k), p, q = (h_x +- h'_x) / 2 scaled by 2^-k,
    for 2^(k - 1) <= h_x + h'_x < 2^k (scaling by a power of two is exact,
    and it keeps p^2 from overflowing however large A'(s) is), and the
    in-plane transfer matrix (U, V, U', V'): the window pair at t_x
    (``_pair``, with (A rho', A')(t_x) = (h'_x, h_x)), the identity without
    a window; and e^{-t_x}.

    In the ball t_in = ``entry_time``, (A rho')(t_in)^2 = sin^2 r - sin^2 s
    = sin(r + s) sin(r - s), so that A(rho)^2 - A(s)^2 =
    (A^2 - sin^2 r) + (sin^2 r - sin^2 s), and theta = atan2(sin t,
    sin s cos t), whose complement atan2(sin s cos t, sin t) keeps its
    relative precision for small s, and pi/2 - theta_inf with it; the radial
    geodesic leaves the ball at t_in = r and the window at r + eps exactly.
    A turning point (r <= s) is at rest at s, t_in = 0, and a geodesic that
    starts past the transition is at rest at t_x = 0; both start at
    theta = 0.  Taken with the C library's functions, as in ``entry_time``
    (numpy's differ from them in the last bit for some arguments), but for
    theta's atan2 (``_solve``)."""
    (r, eps), (a_x, h_x) = (warp.params.r, warp.params.eps), warp.exit_state
    if s >= r:  # at rest: t_in = 0 and h'_x = 0 past the transition
        dh_x = math.sqrt(max(0.0, (a_x - a_s) * (a_x + a_s))) if s < r + eps else 0.0
        row = (0.0, tau, 0.0, da_s, 0.0, 1.0, math.pi / 2.0, h_x if s < r + eps else da_s, dh_x)
    else:
        t_in = r if s == 0.0 else entry_time(s, r)
        gap, sin_r = math.sin(r + s) * math.sin(r - s), math.sin(r)
        sin_in, cos_in = math.sin(t_in), math.sin(s) * math.cos(t_in)
        row = (t_in, r + eps if s == 0.0 else t_in + tau, math.sqrt(gap), math.cos(r), sin_in, cos_in,
               math.atan2(cos_in, sin_in), h_x, math.sqrt(max(0.0, (a_x - sin_r) * (a_x + sin_r) + gap)))
    (t_in, t_x, *entry), (h_x, dh_x) = row[:4], row[7:]
    m, k = math.frexp(h_x + dh_x)  # h_x + h'_x = m 2^k, so p = m / 2
    return (*row, 0.5 * m, math.ldexp(h_x - dh_x, -k - 1), math.ldexp(a_s, -k),
            math.ldexp(a_s, -2 * k), math.ldexp(warp.d, -2 * k),
            *(_pair(entry, dh_x, h_x, j) if t_in < t_x else (1.0, 0.0, 0.0, 1.0)), math.exp(-t_x))


def solve_radial_grid(ss: Iterable[float], r: float, eps: float, T: float = 30.0) -> RadialGrid:
    """``solve_radial`` at (s, r, eps) for each s of ``ss``, as one grid of
    rows on one warp function: one lookup of (A, A')(s) for the grid, the
    far windows as one broadcast on the metric's node table, the others as
    one batched lookup, and each row's closed forms (``_closed_forms``).
    Row i (``grid[i]``) is the ``RadialSolution`` of the i-th s, bit for
    bit; nothing is cached."""
    return _solve(np.array(list(ss), dtype=float), solve_warp(ProfileParams(r, eps)), T)


def _blocks(ss: np.ndarray, warp: WarpFunction) -> Iterator[RadialGrid]:
    """``solve_radial_grid`` on the s of ss in consecutive blocks of _BLOCK
    rows, on the metric of ``warp``."""
    return (_solve(ss[i:i + _BLOCK], warp) for i in range(0, len(ss), _BLOCK))


def solve_radial(params: GeodesicParams, T: float = 30.0) -> RadialSolution:
    """The geodesic mu = params, solved whole: exact in the ball, by
    quadrature across the transition, exact past it.  The horizon T only
    bounds the domain [0, T] of its trajectory and angle; what is solved does
    not depend on it.

    The entry time is arccos(cos r / cos s), as ``entry_time`` gives it; the
    window's quadrature runs in x = rho - r, so it ends exactly at
    rho = r + eps and no panel straddles the curvature transition; the time
    it integrates there is the solution's ``exit_time``.  This is the grid of
    one of ``solve_radial_grid``; each call solves anew.  Raises ValueError
    where A(s) overflows (s past about 709).
    """
    row = _solve(np.array([params.s]), solve_warp(params.profile), T, RadialSolution)
    row.__dict__["params"] = params  # what ``RadialSolution.params`` rebuilds from the row
    return row


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
