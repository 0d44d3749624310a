"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -s`` (or ``-rA``) to see the
per-criterion lines.  Every tolerance is the one stated in the criterion.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import ahwarp as aw

PI4 = math.pi / 4
SQRT2 = math.sqrt(2.0)
ARTIFACT_DIR = Path(__file__).resolve().parents[1] / "artifacts"


def verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n:02d}] {detail} -> {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def report_sharp():
    return aw.assemble_report(0.0)


@pytest.fixture(scope="module")
def report_mollified():
    return aw.assemble_report(0.05)


def test_criterion_01_geodesic_oracle():
    ts = np.arange(0.0, 12.0 + 1e-12, 0.01)
    worst = 0.0
    for s in (0.0, 0.1, 0.3, 0.6, 0.78, 1.0, 2.0):
        sol = aw.solve_radial(aw.GeodesicParams(s, PI4, 0.0), T=12.5, tol=1e-10)
        err = float(np.max(np.abs(np.asarray(sol.rho(ts)) - np.asarray(aw.closed_rho(s, ts)))))
        worst = max(worst, err)
    verdict(1, worst < 1e-8,
            f"radial coordinate vs closed form, max err {worst:.2e} < 1e-8")


def test_criterion_02_special_warp_coefficient():
    w = aw.solve_warp(aw.ProfileParams(PI4, 0.0))
    err_minus = abs(w.a_minus)
    err_plus = abs(w.a_plus - (SQRT2 / 2.0) * math.exp(-PI4))
    verdict(2, err_minus < 1e-14 and err_plus < 1e-14,
            f"a_minus {err_minus:.2e}, a_plus err {err_plus:.2e}, both < 1e-14")


def test_criterion_03_jacobi_oracle():
    ts = np.linspace(0.0, 10.0, 1001)
    worst = 0.0
    for s in (0.1, 0.3, 0.7, 1.0):
        mu = aw.GeodesicParams(s, PI4, 0.0)
        for kind, cU, cV in (
            ("perpendicular", aw.closed_U_perp, aw.closed_V_perp),
            ("parallel", aw.closed_U_parallel, aw.closed_V_parallel),
        ):
            pair = aw.fundamental_pair(aw.make_kernel(kind, mu, tol=1e-12),
                                       T=10.0, tol=1e-12)
            u, _ = pair.U.state(ts)
            v, _ = pair.V.state(ts)
            worst = max(worst,
                        float(np.max(np.abs(u - np.asarray(cU(s, ts))))),
                        float(np.max(np.abs(v - np.asarray(cV(s, ts))))))
    verdict(3, worst < 1e-7,
            f"fundamental solutions vs closed forms on [0,10], max err {worst:.2e} < 1e-7")


def test_criterion_04_theta_infinity_endpoints():
    err0 = abs(aw.theta_infinity(0.0) - math.pi / 2.0)
    err1 = abs(aw.theta_infinity(PI4) - SQRT2)
    verdict(4, err0 < 1e-12 and err1 < 1e-12,
            f"theta_inf endpoints: |at 0 - pi/2| {err0:.2e}, |at pi/4 - sqrt2| {err1:.2e}, both < 1e-12")


def test_criterion_05_radial_certificate():
    worst = 0.0
    for r in (0.7, PI4, 0.85):
        got = aw.certificate("parallel", aw.GeodesicParams(0.0, r, 0.0))
        expected = (math.sin(r) - math.cos(r)) / (math.sin(r) + math.cos(r))
        worst = max(worst, abs(got - expected))
    verdict(5, worst < 1e-9,
            f"backward-integrated W'(0) vs (sin r - cos r)/(sin r + cos r), max err {worst:.2e} < 1e-9")


def test_criterion_06_root_finding():
    r0, res0 = aw.find_r_star(0.0)
    ok = abs(r0 - PI4) < 1e-10 and res0 < 1e-10
    dists = []
    for eps in (0.1, 0.05, 0.01):
        r_star, residual = aw.find_r_star(eps)
        ok = ok and (PI4 - 0.1 < r_star < PI4 + 0.1) and residual < 1e-10
        dists.append(abs(r_star - PI4))
    ok = ok and dists[0] > dists[1] > dists[2]
    verdict(6, ok,
            f"r*(0) err {abs(r0 - PI4):.2e}, residuals < 1e-10, "
            f"|r*(eps) - pi/4| decreasing {['%.3e' % d for d in dists]}")


def test_criterion_07_concavity_signature():
    h = 5e-3

    def stencils(f):
        vals = [f(i * h) for i in range(4)]
        d1 = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h)
        d2 = (2 * vals[0] - 5 * vals[1] + 4 * vals[2] - vals[3]) / h ** 2
        return d1, d2

    d1c_perp, d2c_perp = stencils(aw.certificate_perp_closed)
    d1c_par, d2c_par = stencils(aw.certificate_parallel_closed)
    d1i_perp, d2i_perp = aw.certificate_s_derivatives(
        "perpendicular", aw.GeodesicParams(0.0, PI4, 0.0), h=h)
    d1i_par, d2i_par = aw.certificate_s_derivatives(
        "parallel", aw.GeodesicParams(0.0, PI4, 0.0), h=h)
    ok = (
        abs(d2c_perp + 1.0 / 3.0) < 1e-3 and abs(d2c_par + 1.0) < 1e-3
        and abs(d2i_perp + 1.0 / 3.0) < 5e-3 and abs(d2i_par + 1.0) < 5e-3
        and abs(d1c_perp) < 1e-6 and abs(d1c_par) < 1e-6
        and abs(d1i_perp) < 1e-6 and abs(d1i_par) < 1e-6
    )
    verdict(7, ok,
            f"d2 closed ({d2c_perp:.5f}, {d2c_par:.5f}) vs (-1/3, -1) within 1e-3; "
            f"integrated ({d2i_perp:.5f}, {d2i_par:.5f}) within 5e-3; |d1| < 1e-6")


def test_criterion_08_headline_sharp(report_sharp):
    rep = report_sharp
    ok = rep.overall == "boundary-CP-and-no-interior-CP"
    w = rep.witness
    ok = ok and w["abs_Y_at_T"] < 2.0 * math.exp(-30.0) * 1.01
    # s = 0 sits exactly on the root, so its certificate is zero up to the
    # sign band; every s > 0 certificate must be strictly negative
    for rec in rep.small_s:
        ok = ok and rec.cert_parallel <= 1e-9 and rec.cert_perp <= 1e-9
        if rec.s > 0:
            ok = ok and rec.cert_parallel < 0 and rec.cert_perp < 0
    margin = min(min(r.min_U_parallel, r.min_U_perp) for r in rep.mid_s)
    ok = ok and margin > 0.01
    rho0_err = abs(rep.large_s_threshold - (PI4 + math.log(2.0) / 2.0))
    ok = ok and rho0_err < 1e-12 and rep.curvature_negativity_certified
    verdict(8, ok,
            f"sharp metric: overall={rep.overall}, witness |Y(30)| {w['abs_Y_at_T']:.2e}, "
            f"mid-s margin {margin:.3f} > 0.01, rho0 err {rho0_err:.1e}")


def test_criterion_09_headline_mollified(report_mollified):
    rep = report_mollified
    ok = rep.overall == "boundary-CP-and-no-interior-CP" and rep.root_residual < 1e-10
    ARTIFACT_DIR.mkdir(exist_ok=True)
    path = ARTIFACT_DIR / "scan_eps_0.05.json"
    path.write_text(rep.to_json() + "\n")
    archived = aw.ScanReport.from_json(path.read_text())
    ok = ok and archived == rep
    verdict(9, ok,
            f"mollified metric eps=0.05: overall={rep.overall}, r*={rep.r_star:.12f}, "
            f"residual {rep.root_residual:.2e} < 1e-10; archived {path.name}")


def test_criterion_10_property_suite():
    details = []

    # Wronskian conservation across integrated fundamental pairs (relative
    # to the bilinear terms, which reach ~1e17 at t = 20)
    ts = np.linspace(0.0, 20.0, 401)
    worst_w = 0.0
    for kind in ("parallel", "perpendicular"):
        for mu in ((0.3, PI4, 0.0), (1.0, PI4, 0.0), (0.2, 0.76, 0.05)):
            pair = aw.fundamental_pair(aw.make_kernel(kind, aw.GeodesicParams(*mu)),
                                       T=20.0, tol=1e-10)
            worst_w = max(worst_w, float(np.max(pair.wronskian_deviation(ts))))
    ok = worst_w < 1e-8
    details.append(f"wronskian dev {worst_w:.2e}")

    # stable-solution positivity on the neighborhood grid
    pos = True
    for kind in ("parallel", "perpendicular"):
        for mu in ((0.0, PI4, 0.0), (0.1, PI4, 0.0), (0.2, 0.76, 0.05)):
            sol = aw.stable_for(kind, aw.GeodesicParams(*mu), tol=1e-10)
            pos = pos and bool(np.all(np.asarray(sol.W(ts)) > 0.0))
    ok = ok and pos
    details.append(f"W > 0 on [0,20]: {pos}")

    # variation identity d_s rho = sin(s) U_par / A(rho), h = 1e-4
    warp = aw.solve_warp(aw.ProfileParams(PI4, 0.0))
    h = 1e-4
    worst_id = 0.0
    for s in (0.1, 0.3):
        hi = aw.solve_radial(aw.GeodesicParams(s + h, PI4, 0.0), T=8.5, tol=1e-12)
        lo = aw.solve_radial(aw.GeodesicParams(s - h, PI4, 0.0), T=8.5, tol=1e-12)
        mid = aw.solve_radial(aw.GeodesicParams(s, PI4, 0.0), T=8.5, tol=1e-12)
        pair = aw.fundamental_pair(
            aw.make_kernel("parallel", aw.GeodesicParams(s, PI4, 0.0), horizon=8.5,
                           tol=1e-12), T=8.0, tol=1e-12)
        tg = np.arange(0.0, 8.001, 0.1)
        ds_rho = (np.asarray(hi.rho(tg)) - np.asarray(lo.rho(tg))) / (2.0 * h)
        a_vals = np.asarray(warp.value(np.asarray(mid.rho(tg))))
        u, _ = pair.U.state(tg)
        worst_id = max(worst_id, float(np.max(np.abs(ds_rho - math.sin(s) * u / a_vals))))
    ok = ok and worst_id < 1e-5
    details.append(f"variation identity {worst_id:.2e}")

    # monotone eps-convergence: kernels (L1), exterior coefficients, and
    # certificates over eps in {0.1, 0.05, 0.01}
    eps_grid = (0.1, 0.05, 0.01)
    tk = np.linspace(1e-6, 12.0, 12001)
    k0 = np.asarray(aw.make_kernel("perpendicular", aw.GeodesicParams(0.3, PI4, 0.0),
                                   horizon=13.0).value(tk))
    l1 = [float(np.trapezoid(np.abs(np.asarray(
        aw.make_kernel("perpendicular", aw.GeodesicParams(0.3, PI4, e),
                       horizon=13.0).value(tk)) - k0), tk)) for e in eps_grid]
    mono = l1[0] > l1[1] > l1[2]

    for r in (0.7, PI4):
        w0 = aw.solve_warp(aw.ProfileParams(r, 0.0))
        dp = [abs(aw.solve_warp(aw.ProfileParams(r, e)).a_plus - w0.a_plus)
              for e in eps_grid]
        dm = [abs(aw.solve_warp(aw.ProfileParams(r, e)).a_minus - w0.a_minus)
              for e in eps_grid]
        mono = mono and dp[0] > dp[1] > dp[2] and dm[0] > dm[1] > dm[2]

    c0 = aw.certificate("perpendicular", aw.GeodesicParams(0.2, PI4, 0.0))
    dc = [abs(aw.certificate("perpendicular", aw.GeodesicParams(0.2, PI4, e)) - c0)
          for e in eps_grid]
    mono = mono and dc[0] > dc[1] > dc[2]
    ok = ok and mono
    details.append(f"eps-monotone (kernels, a+-, certificates): {mono}")

    verdict(10, ok, "; ".join(details))
