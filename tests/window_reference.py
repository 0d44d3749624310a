"""30-digit reference values of the transition, independent of DOP853.

For a geodesic of (s, r, eps) the window is the part of it with
r <= rho <= r + eps.  This script integrates it with classical fourth-order
Runge-Kutta in ``mpmath`` at 30 digits, with a fixed number of equal steps,
and writes ``window_reference.json`` next to itself: for each point the
time spent in the window ``t_x - t_in``, the angle integral
``psi(t_x) = integral of dt / A(rho)^2`` across it, and the in-plane transfer
matrix ``M = [[U, V], [U', V']]`` of Y'' = -K_par(rho(t)) Y across it.  The
warp function A rides along as two rows, A'' = -K_par A in x = rho - r from
(sin r, cos r) at x = 0, and r* is the float nearest the pair entry's own
(below), so nothing of the package is used.

* s < r: in sigma with x = (s - r) + L sigma^2, L = r + eps - s, from
  sigma_0 = sqrt((r - s) / L) (x = 0) to 1.  At sigma = 0 the great circle
  would have its closest approach (A = A(s)), so dt/dsigma =
  2 L sigma A / sqrt(A^2 - A(s)^2) stays regular however close s is to r.
* r <= s < r + eps (a turning point at t = 0): in t from rho = s at rest,
  with rho'' = (A'/A)(1 - rho'^2); the steps are equal up to the last, which
  ends on rho = r + eps (secant on its length).  A(s), A'(s) come from the
  same A rows integrated in x over [0, s - r].

It also writes the transition pair: C (C(0) = 1, C'(0) = 0) and S (S(0) = 0,
S'(0) = 1) of Y'' = -K_par Y in x = rho - r, at x = eps, with what follows
from them: the exterior coefficients a_+- = e^{-+(r + eps)} (A +- A')(r + eps)
/ 2 of A = sin r C + cos r S, and r* = -arctan w, w = -(C + C') / (S + S').
The eps are those at which the suite searches for r*, each at its own r*,
and one large lam = eps^2 (eps 1.2 at r 0.3).

``err`` is |y(2n) - y(n)| / 15 over every value, Richardson's estimate of the
error of the 2n-step values that are stored (each value as a 30-digit
string).  Run from the repository root:

    python tests/window_reference.py

(about four minutes).  ``test_window_reference.py`` compares the package
with the file and recomputes one entry of each kind.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

DPS = 30
FIXTURE = Path(__file__).with_name("window_reference.json")
EPS = (0.01, 0.05, 0.1)
# steps of the stored values (twice those of the error estimate): the
# grazing geodesic (r - s < 0.01) crosses the rise of the mollifier in fewer
# of its steps, and a turning point's steps are in t; 2000 left their
# Richardson estimates near 1e-16, these leave them below 5e-17
STEPS = {"s < r": 2000, "grazing": 8000, "turning": 8000}
# (eps, r) of the pair entries, r None for r* itself; steps in x, 2000 left
# eps 1.2 at 2.9e-16 (Richardson), 16000 at 7e-20
PAIRS = ((0.01, None), (0.020927634009400266, None), (0.05, None), (0.1, None), (1.2, 0.3))
PAIR_STEPS = {"small": 2000, "large": 16000}


def mollifier(z):
    if z <= 0:
        return mp.mpf(0)
    if z >= 1:
        return mp.mpf(1)
    f = mp.exp(-1 / z)
    return f / (f + mp.exp(-1 / (1 - z)))


def rk4_step(f, x, y, h):
    k1 = f(x, y)
    k2 = f(x + h / 2, [a + h / 2 * b for a, b in zip(y, k1)])
    k3 = f(x + h / 2, [a + h / 2 * b for a, b in zip(y, k2)])
    k4 = f(x + h, [a + h * b for a, b in zip(y, k3)])
    return [a + h / 6 * (b1 + 2 * b2 + 2 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]


def rk4(f, y, a, b, n):
    h = (b - a) / n
    for i in range(n):
        y = rk4_step(f, a + i * h, y, h)
    return y


def _from_ball(s, r, eps, n):
    """(t_x - t_in, psi, U, U', V, V') for s < r, in sigma."""
    c, L = mp.sin(s), r + eps - s

    def f(sg, y):
        a, da, _, _, u, du, v, dv = y
        dx = 2 * L * sg
        k = 1 - 2 * mollifier(((s - r) + L * sg * sg) / eps)
        dt = dx * a / mp.sqrt((a - c) * (a + c))
        return [dx * da, -k * a * dx, dt, dt / (a * a), dt * du, -k * dt * u, dt * dv, -k * dt * v]

    y0 = [mp.sin(r), mp.cos(r), 0, 0, 1, 0, 0, 1]
    return rk4(f, y0, mp.sqrt((r - s) / L), mp.mpf(1), n)[2:]


def _from_rest(s, r, eps, n):
    """(t_x, psi, U, U', V, V') for r <= s < r + eps, in t."""
    def pair(x, y):
        k = 1 - 2 * mollifier(x / eps)
        return [y[1], -k * y[0]]

    a_s, da_s = rk4(pair, [mp.sin(r), mp.cos(r)], mp.mpf(0), s - r, n) if s > r else (
        mp.sin(r), mp.cos(r))
    end = r + eps

    def f(t, y):
        rho, w, a, da, _, u, du, v, dv = y
        k = 1 - 2 * mollifier((rho - r) / eps)
        return [w, da / a * (1 - w * w), da * w, -k * a * w, 1 / (a * a), du, -k * u, dv, -k * v]

    # rho - s ~ (A'/A)(s) t^2 / 2 sets the length of the n equal steps
    h = mp.sqrt(2 * (end - s) * a_s / da_s) / n
    t, y = mp.mpf(0), [s, mp.mpf(0), a_s, da_s, 0, 1, 0, 0, 1]
    while True:
        nxt = rk4_step(f, t, y, h)
        if nxt[0] >= end:
            break
        t, y = t + h, nxt
    # the last step's length: rho(t + h_last) = r + eps
    h0, g0, h1, g1 = mp.mpf(0), y[0] - end, h, nxt[0] - end
    for _ in range(100):
        h2 = h1 - g1 * (h1 - h0) / (g1 - g0)
        last = rk4_step(f, t, y, h2)
        h0, g0, h1, g1 = h1, g1, h2, last[0] - end
        if abs(g1) < mp.mpf(10) ** (2 - DPS):
            break
    return [t + h1, *last[4:]]


def window(s: float, r: float, eps: float, n: int) -> list:
    """(t_x - t_in, psi(t_x), U, U', V, V') of the window with n steps."""
    with mp.workdps(DPS):
        s, r, eps = mp.mpf(s), mp.mpf(r), mp.mpf(eps)
        return (_from_ball if s < r else _from_rest)(s, r, eps, n)


def _kind(s: float, r: float) -> str:
    return "turning" if s >= r else "grazing" if r - s < 0.01 else "s < r"


def entry(s: float, r: float, eps: float) -> dict:
    n = STEPS[_kind(s, r)]
    fine, coarse = window(s, r, eps, n), window(s, r, eps, n // 2)
    t, psi, u, du, v, dv = (mp.nstr(x, DPS) for x in fine)
    err = max(float(abs(a - b)) for a, b in zip(fine, coarse)) / 15.0
    return {"s": s, "r": r, "eps": eps, "steps": n, "t_window": t, "psi": psi,
            "M": [[u, v], [du, dv]], "err": err}


def pair(eps: float, n: int) -> list:
    """(C, C', S, S') at x = eps with n steps in x."""
    with mp.workdps(DPS):
        eps = mp.mpf(eps)

        def f(x, y):
            k = 1 - 2 * mollifier(x / eps)
            return [y[1], -k * y[0], y[3], -k * y[2]]

        return rk4(f, [mp.mpf(1), 0, 0, mp.mpf(1)], mp.mpf(0), eps, n)


def _pair_values(eps: float, r: float | None, n: int) -> tuple[float, list]:
    """(r, [C, C', S, S', a_+, a_-, r*]) with n steps; r None is r*, rounded
    to a float."""
    c, dc, s, ds = pair(eps, n)
    with mp.workdps(DPS):
        r_star = mp.atan((c + dc) / (s + ds))
        r = float(r_star) if r is None else r
        sin_r, cos_r, x = mp.sin(r), mp.cos(r), r + mp.mpf(eps)
        a_plus = mp.exp(-x) * (sin_r * (c + dc) + cos_r * (s + ds)) / 2
        a_minus = mp.exp(x) * (sin_r * (c - dc) + cos_r * (s - ds)) / 2
    return r, [c, dc, s, ds, a_plus, a_minus, r_star]


def pair_entry(eps: float, r: float | None) -> dict:
    n = PAIR_STEPS["large" if eps > 0.5 else "small"]
    r, fine = _pair_values(eps, r, n)
    _, coarse = _pair_values(eps, r, n // 2)
    c, dc, s, ds, a_plus, a_minus, r_star = (mp.nstr(x, DPS) for x in fine)
    err = max(float(abs(a - b)) for a, b in zip(fine, coarse)) / 15.0
    return {"eps": eps, "r": r, "steps": n, "pair": [c, dc, s, ds], "a_plus": a_plus,
            "a_minus": a_minus, "r_star": r_star, "err": err}


def points(pairs: list[dict]) -> list[tuple[float, float, float]]:
    """(s, r*, eps) for s = 0, 0.3, 0.6, r* - 0.005 and r* + eps/2, with r*
    the r of the pair entry at eps."""
    out = []
    for eps in EPS:
        r = next(p["r"] for p in pairs if p["eps"] == eps)
        out += [(s, r, eps) for s in (0.0, 0.3, 0.6, r - 0.005, r + eps / 2.0)]
    return out


def main() -> None:
    pairs = []
    for eps, r in PAIRS:
        pairs.append(pair_entry(eps, r))
        print(f"pair eps={eps}: err {pairs[-1]['err']:.1e}", flush=True)
    entries = []
    for s, r, eps in points(pairs):
        entries.append(entry(s, r, eps))
        print(f"s={s!r} r={r!r} eps={eps}: err {entries[-1]['err']:.1e}", flush=True)
    FIXTURE.write_text(json.dumps({"dps": DPS, "pairs": pairs, "points": entries}, indent=1)
                       + "\n")


if __name__ == "__main__":
    main()
