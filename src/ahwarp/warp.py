"""Curvature profile, mollifier, and the warp function of the metric family.

The rotationally invariant metric is ``d rho^2 + A(rho)^2 g_round`` on
(0, inf) x S^n.  The radial curvature profile ``K_par`` equals +1 inside the
ball rho < r and -1 outside rho > r + eps, with a mollified monotone
transition of width eps (a sharp Heaviside jump when eps = 0).  The warp
function A solves

    A'' + K_par(rho) A = 0,     A(0) = 0,  A'(0) = 1,

understood as the C^1 weak solution when eps = 0.  Hence A = sin(rho) inside
the ball and A = a_+ e^rho + a_- e^{-rho} outside the transition zone, with
the coefficients a_+- fixed by C^1 matching.  At r = pi/4 (eps = 0) the
decaying coefficient a_- vanishes, which is the critical configuration the
search module hunts for.

In x = rho - r = eps u the transition equation does not contain r, and in u
it reads Y_uu = -lam k(u) Y on [0, 1], k = 1 - 2 mollifier, with eps entering
only through lam = eps^2.  Its fundamental pair, C (C(0) = 1, C'(0) = 0) and
S (S(0) = 0, S'(0) = 1) in x, is an entire function of lam, whose Taylor
coefficients are iterated integrals of k (Coddington and Levinson, Theory of
Ordinary Differential Equations, 1955, ch. 1): from y_0 = 1 for C and
y_0 = u for S,

    d_{m+1}(u) = -int_0^u k y_m,    y_{m+1}(u) = int_0^u d_{m+1},

and C = sum lam^m y_m, C_u = sum lam^m d_m, and the same for S.  The terms
fall like lam^m / (2m)!, so 18 of them carry every eps below pi/2
(ProfileParams keeps eps < pi/2) to rounding.  They are built once per
process, on first use (``_terms``), at the 10 Gauss-Legendre nodes of each
of 32 equal panels in u, where a cumulative-integration matrix is exact to
degree 9 (Greengard, SIAM J. Numer. Anal. 28, 1991).  The remainders
(C - 1, C_u, S - u, S_u - 1) are the sums from m = 1, so eps = 0 gives the
sharp start (C, C', S, S') = (1, 0, 0, 1) exactly, and each eps is a sum
in powers of lam.  The pair serves every r:

* the warp function: A(r + x) = sin r C + cos r S on [0, eps], and A' the
  same sum of C' and S'.  The terms' node values are summed in lam once per
  metric, into the one array that holds its transition.  A lookup
  evaluates it by the barycentric formula on its panel's nodes (Berrut and
  Trefethen, SIAM Rev. 46, 2004), which is exact at a node and stable
  between them.  The geodesics' transition windows are quadratures on it;
  most of them need it only at the pair's own nodes, where its projection
  is a table of A - sin r, A' and K_par / A'^2 (``WarpFunction.node_table``);
* the exterior coefficients, one formula for every eps:
  a_+- = e^{-+(r + eps)} (A +- A')(r + eps) / 2;
* w(eps) = -(C + C') / (S + S') at x = eps: W = Y'/Y at the ball boundary
  of the solution equal to (1, -1) at x = eps, where the exterior decay
  e^{-x} takes over (``entry_slope``).  The search reads r* = -arctan w(eps)
  off it.

An eps below the resolution of r (r + eps == r) is the sharp metric.
Nothing is built at import, nor for a sharp metric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

__all__ = [
    "ProfileParams",
    "WarpFunction",
    "mollifier",
    "k_parallel",
    "solve_warp",
    "entry_slope",
    "k_perp",
]

@dataclass(frozen=True)
class ProfileParams:
    """The pair (r, eps) identifying one metric of the family."""

    r: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        if not self.r > 0.0:
            raise ValueError(f"r must be positive, got {self.r}")
        if self.eps < 0.0:
            raise ValueError(f"eps must be nonnegative, got {self.eps}")
        if not self.r + self.eps < math.pi / 2:
            raise ValueError(
                f"r + eps = {self.r + self.eps} must stay below pi/2"
            )


def mollifier(x: float | np.ndarray) -> float | np.ndarray:
    """Smooth monotone step: 0 for x <= 0, 1 for x >= 1, symmetric about
    x = 1/2 so that mollifier(x) + mollifier(1 - x) = 1.

    x is clipped to [1e-300, 1 - 1e-16], where exp(-1/x) and exp(-1/(1 - x))
    give the 0 and 1 of the ends exactly; a float gives a float."""
    # np.clip costs twice this on short arrays
    x_arr = np.minimum(np.maximum(np.asarray(x, dtype=float), 1e-300), 1.0 - 1e-16)
    f = np.exp(-1.0 / x_arr)
    out = f / (f + np.exp(-1.0 / (1.0 - x_arr)))
    return float(out) if np.ndim(x) == 0 else out


def k_parallel(params: ProfileParams, rho: float | np.ndarray) -> float | np.ndarray:
    """Radial sectional curvature profile.

    1 - 2*mollifier((rho - r)/eps) for eps > 0; the sharp step
    1 - 2*H(rho - r) for eps = 0 with the convention H(0) = 0, so the value
    at rho = r is 1.
    """
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho_arr.min() < 0.0:
        raise ValueError("rho must be nonnegative")
    if params.eps > 0.0:
        out = 1.0 - 2.0 * np.asarray(mollifier((rho_arr - params.r) / params.eps))
    else:
        out = np.where(rho_arr > params.r, -1.0, 1.0)
    return float(out[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else out


class WarpFunction:
    """The warp function A and its first derivative, evaluated piecewise:
    sin(rho) inside the ball, a projection of the transition pair on
    [r, r+eps] when eps > 0, and the exact exponential form outside.  The
    transition is held as one array, the remainders over lam (C - 1, S - u,
    C_u, S_u - 1) / lam at the pair's nodes ``_U`` (None for a sharp
    metric); a lookup interpolates it, and the far windows of the geodesics
    read its projection at the nodes (``node_table``).

    Immutable after construction; evaluators are pure.
    """

    def __init__(self, params: ProfileParams, a_plus: float, a_minus: float,
                 transition: np.ndarray | None):
        self.params = params
        self.a_plus = a_plus
        self.a_minus = a_minus
        self.d = 4.0 * a_plus * a_minus  # A^2 - A'^2 past the transition
        self._transition = transition

    def __repr__(self) -> str:
        p = self.params
        return (f"WarpFunction(r={p.r!r}, eps={p.eps!r}, "
                f"a_plus={self.a_plus!r}, a_minus={self.a_minus!r})")

    def state(self, rho: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(A(rho), A'(rho)) as arrays."""
        rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
        r, eps = self.params.r, self.params.eps
        if not rho_arr.max(initial=0.0) > r:  # all in the ball
            return np.sin(rho_arr), np.cos(rho_arr)
        val, der, inner = np.empty_like(rho_arr), np.empty_like(rho_arr), rho_arr <= r
        val[inner], der[inner] = np.sin(rho_arr[inner]), np.cos(rho_arr[inner])
        outer = rho_arr >= r + eps
        if outer.any():
            val[outer], der[outer] = self._outer(rho_arr[outer])
        mid = (rho_arr > r) & ~outer
        if mid.any():
            # only reachable when eps > 0.  x = rho - r is exact on [r, 2r]
            # (Sterbenz); where r + eps rounds up it passes eps by less than
            # an ulp of r, so it is clipped
            x = np.minimum(rho_arr[mid] - r, eps)
            a_less, der[mid] = _project(r, *_pair(eps, _interpolate(self._transition, x / eps), x))
            val[mid] = math.sin(r) + a_less
        return val, der

    def _outer(self, rho):
        """(A, A')(rho) = a_+ e^rho +- a_- e^{-rho}, past the transition."""
        ep, em = np.exp(rho), np.exp(-rho)
        return self.a_plus * ep + self.a_minus * em, self.a_plus * ep - self.a_minus * em

    @cached_property
    def exit_state(self) -> tuple[float, float]:
        """(A, A')(r + eps), where the transition ends: a constant of the
        metric, from the exterior's exponentials."""
        return tuple(float(v) for v in self._outer(np.float64(self.params.r + self.params.eps)))

    @cached_property
    def node_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(A - sin r, A', K_par / A'^2) at the transition pair's own nodes,
        x = eps u for u in ``_U`` (each panels x nodes): the table on which
        the geodesics' far windows take their quadrature, built once per
        metric on first use (never for a sharp metric, which has no window).
        It is the projection of the metric's transition array, with no
        lookup."""
        eps = self.params.eps
        a_less, da = _project(self.params.r, *_pair(eps, self._transition, eps * _U))
        return a_less, da, _K / (da * da)

    def value(self, rho: float | np.ndarray) -> float | np.ndarray:
        v, _ = self.state(rho)
        return float(v[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else v

    def deriv(self, rho: float | np.ndarray) -> float | np.ndarray:
        _, d = self.state(rho)
        return float(d[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else d

    def log_slope(self, rho: float | np.ndarray) -> float | np.ndarray:
        """A'(rho)/A(rho); the drift coefficient of the radial geodesic flow."""
        v, d = self.state(rho)
        out = d / v
        return float(out[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else out

    def min_log_slope(self) -> float:
        """The infimum a of A'/A on (0, inf), so A'/A >= a there.

        cot(rho) decreases on the ball to w(r) = cot(r); past the transition
        A'/A tends monotonically to 1.  On the window w = A'/A obeys
        w' = -K_par - w^2, and at a zero of w', w'' = -K_par' >= 0: w' turns
        positive at most once.  So w falls from cot(r) to its least value,
        at r + eps when w' = 1 - w^2 <= 0 there (K_par = -1) and else at the
        one root of g = w^2 + K_par, located by Newton on the transition
        pair: g' = -2 w g + K_par', with K_par' = -2 m'(u) / eps from the
        mollifier's closed-form derivative m' = m (1 - m) (1/u^2 + 1/(1-u)^2),
        bisecting where a step would leave the bracket.  w is flat at the
        root, so a step below _ROOT_STEP leaves an error of its square.  No
        verdict reads it: the search proves non-trapping from
        A'(r + eps/2) > 0 instead.
        """
        r, eps = self.params.r, self.params.eps
        w = self.exit_state[1] / self.exit_state[0]
        if self._transition is not None and w * w < 1.0:
            lo, hi, x = r, r + eps, r + 0.5 * eps  # g > 0 at r, g < 0 at r + eps
            for _ in range(_ROOT_STEPS):
                u, w, m = (x - r) / eps, self.log_slope(x), mollifier((x - r) / eps)
                g, v = w * w + (1.0 - 2.0 * m), 1.0 - u
                slope = -2.0 * w * g - 2.0 * m * (1.0 - m) * (1.0 / (u * u) + 1.0 / (v * v)) / eps
                lo, hi = (x, hi) if g > 0.0 else (lo, x)
                new = x - g / slope if slope < 0.0 else math.nan
                x, last = (new if lo <= new <= hi else 0.5 * (lo + hi)), x
                if abs(x - last) <= _ROOT_STEP:
                    break
        return min(float(w), 1.0)

    def negative_curvature_threshold(self) -> float:
        """Smallest rho0 with K_par < 0 and K_perp < 0 for all rho > rho0.

        K_par < 0 past the transition midpoint; K_perp < 0 exactly where
        A' > 1, and A' is increasing there, so the threshold solves
        A'(rho) = 1 on the exterior branch (a quadratic in e^rho).
        """
        r, eps = self.params.r, self.params.eps
        par_thr = r + eps / 2.0
        if self.exit_state[1] >= 1.0:
            perp_thr = r + eps
        else:
            # a_+ u^2 - u - a_- = 0 with u = e^rho
            disc = 1.0 + self.d
            if disc <= 0.0:
                raise ValueError("exterior slope never reaches 1; no threshold")
            u = (1.0 + math.sqrt(disc)) / (2.0 * self.a_plus)
            perp_thr = math.log(u)
        return max(par_thr, perp_thr)


# ``min_log_slope`` takes at most _ROOT_STEPS values, and stops once a step is
# below _ROOT_STEP
_ROOT_STEPS = 20
_ROOT_STEP = 1e-12
# The pair's Taylor series in lam (module docstring): _ORDER terms, on
# _PANELS equal panels of u in [0, 1] with _GAUSS Gauss-Legendre nodes each
_ORDER = 18
_PANELS = 32
_GAUSS = 10
_XI, _WEIGHTS = np.polynomial.legendre.leggauss(_GAUSS)
# a panel's node values -> the integrals in u from the panel's start to each
# node (its Legendre series, by the discrete transform, integrated from
# xi = -1), and to the panel's end
_CUMULATIVE = (0.5 / _PANELS) * (
    np.polynomial.legendre.legvander(_XI, _GAUSS)
    @ np.polynomial.legendre.legint(np.eye(_GAUSS), lbnd=-1.0)
    @ ((np.arange(_GAUSS) + 0.5)[:, None]
       * np.polynomial.legendre.legvander(_XI, _GAUSS - 1).T * _WEIGHTS))
_PANEL_WEIGHTS = (0.5 / _PANELS) * _WEIGHTS
# the barycentric weights of the Gauss nodes (Berrut and Trefethen, SIAM Rev.
# 46, 2004), up to a common factor
_BARYCENTRIC = (-1.0) ** np.arange(_GAUSS) * np.sqrt((1.0 - _XI * _XI) * _WEIGHTS)
# the nodes in u (panels x nodes)
_U = (np.arange(_PANELS)[:, None] + 0.5 * (1.0 + _XI)) / _PANELS
# K_par = 1 - 2 mollifier at the nodes
_K = 1.0 - 2.0 * mollifier(_U)
# a lookup interpolates _CHUNK points at a time (``_interpolate``)
_CHUNK = 512


def _integral(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integral from u = 0 of f, given at the nodes (... x panels x
    nodes): its values at the nodes and at u = 1."""
    within = f @ _CUMULATIVE.T
    totals = np.cumsum(f @ _PANEL_WEIGHTS, axis=-1)
    within[..., 1:, :] += totals[..., :-1, None]
    return within, totals[..., -1]


@cache
def _terms(order: int = _ORDER) -> tuple[np.ndarray, np.ndarray]:
    """The Taylor terms m = 1..order of the remainders (C - 1, S - u, C_u,
    S_u - 1) in u: their values at the nodes ``_U`` (order x 4 x panels x
    nodes) and at u = 1 (order x 4).  Built once per process, on first use;
    another order only checks the truncation."""
    y = np.stack((np.ones_like(_U), _U))  # y_0 of C and of S
    rows, ends = [], []
    for _ in range(order):
        d, d_end = _integral(-_K * y)
        y, y_end = _integral(d)
        rows.append(np.concatenate((y, d)))
        ends.append(np.concatenate((y_end, d_end)))
    return np.array(rows), np.array(ends)


def _sum(lam: float, terms: np.ndarray) -> np.ndarray:
    """The remainders over lam, sum_m lam^(m - 1) terms[m - 1], as one
    product with the powers of lam."""
    n = len(terms)
    return (lam ** np.arange(n) @ terms.reshape(n, -1)).reshape(terms.shape[1:])


def _interpolate(values: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The rows (... x len(u)) at the points u of [0, 1], from their values
    at the nodes ``_U`` (... x panels x nodes): the barycentric formula on
    each point's panel, and the node value where a point is a node.  The
    points are taken _CHUNK at a time, which bounds what a lookup holds at
    once however many points it has."""
    if u.size > _CHUNK:
        return np.concatenate([_interpolate(values, u[i:i + _CHUNK])
                               for i in range(0, u.size, _CHUNK)], axis=-1)
    z = u * _PANELS
    panel = np.minimum(z.astype(int), _PANELS - 1)
    diff = (2.0 * (z - panel) - 1.0)[:, None] - _XI
    point, node = np.nonzero(diff == 0.0)
    diff[point, node] = 1.0
    q = _BARYCENTRIC / diff
    out = np.einsum("...pn,pn->...p", values[..., panel, :], q) / q.sum(axis=1)
    out[..., point] = values[..., panel[point], node]
    return out


def _pair(eps: float, rem: np.ndarray, x: float | np.ndarray) -> tuple:
    """(C - 1, C', S, S' - 1) in x = eps u, the pair less the sharp one, from
    the remainders over lam (C - 1, S - u, C_u, S_u - 1) / lam at lam = eps^2
    (rows of ``rem``): the small parts are summed before the 1 is added back,
    which rounds once."""
    lam = eps * eps
    c, s, dc, ds = rem
    return lam * c, eps * dc, x + eps * lam * s, lam * ds


def _project(r: float, c1, dc, s, ds1) -> tuple:
    """(A - sin r, A')(r + x) from (C - 1, C', S, S' - 1) at x: A = sin r C +
    cos r S and A' the same sum of C' and S'.  A - sin r keeps its digits
    near x = 0."""
    sin_r, cos_r = math.sin(r), math.cos(r)
    return sin_r * c1 + cos_r * s, cos_r + (sin_r * dc + cos_r * ds1)


def _pair_end(eps: float) -> tuple[float, float, float, float]:
    """(C - 1, C', S, S' - 1) at x = eps; zeros at eps = 0, with nothing
    built."""
    if eps == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    rem = _sum(eps * eps, _terms()[1])
    return tuple(float(v) for v in _pair(eps, rem, eps))


def entry_slope(eps: float) -> float:
    """w(eps) = -(C + C') / (S + S') at x = eps: W = Y'/Y at the ball
    boundary of the transition solution that equals (1, -1) at x = eps
    (module docstring); -1 at eps = 0."""
    if not 0.0 <= eps < math.pi / 2.0:
        raise ValueError(f"eps must lie in [0, pi/2), got {eps}")
    c1, dc, s, ds1 = _pair_end(eps)
    return -(1.0 + (c1 + dc)) / (1.0 + (s + ds1))


def solve_warp(params: ProfileParams) -> WarpFunction:
    """Construct the warp function for the given profile parameters.

    The interior branch is exact; the transition and the exterior
    coefficients are projections of the transition pair of width eps (module
    docstring), so nothing is built per r or per eps but the pair's node
    values summed in lam.  An eps below the resolution of r is the sharp
    metric, with no transition.
    """
    r, eps = params.r, params.eps
    sharp = r + eps == r
    a_less, da = _project(r, *_pair_end(0.0 if sharp else eps))
    a = math.sin(r) + a_less
    a_plus = math.exp(-(r + eps)) * (a + da) / 2.0
    a_minus = math.exp(r + eps) * (a - da) / 2.0
    transition = None if sharp else _sum(eps * eps, _terms()[0])
    return WarpFunction(params, a_plus, a_minus, transition)


def k_perp(warp: WarpFunction, rho: float | np.ndarray) -> float | np.ndarray:
    """Sectional curvature of 2-planes normal to the radial direction:
    A^{-2} (1 - (A')^2).  Equals 1 on the ball and tends to -1 at infinity."""
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if rho_arr.min() <= 0.0:
        raise ValueError("k_perp requires rho > 0")
    v, d = warp.state(rho_arr)
    out = (1.0 - d * d) / (v * v)
    return float(out[0]) if np.isscalar(rho) or np.ndim(rho) == 0 else out
