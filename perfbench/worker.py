"""One fresh-interpreter worker of the ahwarp benchmark.

Reads a job (JSON) from stdin, runs its operations in order, checks every
output, and prints one JSON result line.  ``run.py`` starts it with the
environment pinned (one thread per numeric library, ``PYTHONPATH`` at the
checkout's ``src``); nothing here reads the seed, the job carries the
generated inputs only.

Operations are timed one by one with the checks outside the timed region.
A ``calib.Sampler`` times a short calibration loop ten times a second
throughout, and each operation's time is scaled by the loop speed around it
(see ``calib.py``).  An exception or a failed check marks the operation
failed and the loop goes on.  The package keeps four unbounded module-level
caches for the life of the process, so a job must not repeat an input; the
worker measures the share of repeated inputs and reports it.
"""

import json
import math
import resource
import sys
import time

import numpy as np
import scipy

import ahwarp as aw
import calib

PI4 = math.pi / 4
RHO0_SHARP = PI4 + math.log(2.0) / 2.0
QUERY_TOL = 1e-10  # the CLI default
PAIR_T = 20.0
PAIR_TS = np.linspace(0.0, PAIR_T, 401)

# Correctness gates.  Errors against a reference are |got - ref| / max(1, |ref|),
# i.e. relative where the reference exceeds 1 and absolute below it; for a
# fundamental pair the scale is that of the pair, max(1, |U|, |V|), because
# both solutions carry the growing mode e^t.  ORACLE_TOL covers every
# integrated quantity (certificates at tol 1e-10, pairs on [0, 20], the
# Wronskian, the archived report): the seed's worst cases are 2.4e-8, 1e-7,
# 2.1e-8 and 0 (see perfbench/README.md), so it catches a wrong result, and
# oracle_digits tracks the accuracy inside it.
R_STAR_TOL = 1e-10        # criterion 6, r*(0) = pi/4
RHO0_TOL = 1e-12          # criterion 8, rho0 = pi/4 + ln2/2
RESIDUAL_TOL = 1e-10      # assemble_report's own root-residual bound
ORACLE_TOL = 1e-6
CONCAVITY_TOL = (1e-6, 5e-3)  # criterion 7: |d1|, |d2| agreement

SUCCESS = "boundary-CP-and-no-interior-CP"


class CheckFailed(Exception):
    pass


def _err(got, ref) -> float:
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return float(np.max(np.abs(got - ref) / np.maximum(1.0, np.abs(ref))))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- scans ---------------------------------------------------------------------


def _check_scan(rep, eps: float, archive: dict | None) -> list[float]:
    _require(rep.overall == SUCCESS, f"eps={eps}: overall={rep.overall} ({rep.failure_reason})")
    _require(rep.root_residual < RESIDUAL_TOL, f"eps={eps}: root residual {rep.root_residual:.3e}")
    if eps == 0.0:
        return _check_sharp(rep)
    if archive is not None and eps == archive["eps"]:
        return _check_archive(rep.to_dict(), archive)
    return []


def _check_sharp(rep) -> list[float]:
    """Closed forms at (pi/4, 0): r*, rho0 and every small-s certificate."""
    errs = [_err(rep.r_star, PI4), _err(rep.large_s_threshold, RHO0_SHARP)]
    _require(errs[0] <= R_STAR_TOL, f"r* = {rep.r_star!r} vs pi/4")
    _require(errs[1] <= RHO0_TOL, f"rho0 = {rep.large_s_threshold!r} vs pi/4 + ln2/2")
    for rec in rep.small_s:
        for got, closed in ((rec.cert_parallel, aw.certificate_parallel_closed),
                            (rec.cert_perp, aw.certificate_perp_closed)):
            errs.append(_err(got, closed(rec.s)))
            _require(errs[-1] <= ORACLE_TOL, f"certificate at s={rec.s} off by {errs[-1]:.2e}")
        _require(rec.verdict == "pass", f"small-s verdict at s={rec.s}")
    d1, d2 = rep.concavity
    _require(abs(d1) < CONCAVITY_TOL[0] and abs(d2 + 1.0 / 3.0) < CONCAVITY_TOL[1],
             f"concavity signature ({d1}, {d2}) vs (0, -1/3)")
    return errs


def _check_archive(got: dict, ref: dict) -> list[float]:
    """The eps = 0.05 report against the archived artifact, field by field
    within tolerances (later changes may move digits inside them)."""
    for key in ("overall", "failure_reason", "curvature_negativity_certified",
                "non_trapping_ok", "metadata"):
        _require(got[key] == ref[key], f"archive field {key}")
    _require(len(got["small_s"]) == len(ref["small_s"])
             and len(got["mid_s"]) == len(ref["mid_s"]), "archive grid sizes")
    errs = []

    def near(a, b, tol, what):
        errs.append(_err(a, b))
        _require(errs[-1] <= tol, f"archive {what}: off by {errs[-1]:.2e} > {tol:.0e}")

    near(got["r_star"], ref["r_star"], R_STAR_TOL, "r_star")
    near(got["large_s_threshold"], ref["large_s_threshold"], ORACLE_TOL, "large_s_threshold")
    for g, r in zip(got["small_s"], ref["small_s"]):
        _require(g[0] == r[0] and g[3] == r[3], f"small-s row at s={r[0]}")
        near(g[1:3], r[1:3], ORACLE_TOL, f"small-s certificates at s={r[0]}")
    for g, r in zip(got["mid_s"], ref["mid_s"]):
        _require(g[0] == r[0] and g[3] == r[3], f"mid-s row at s={r[0]}")
        near(g[1:3], r[1:3], ORACLE_TOL, f"mid-s minima at s={r[0]}")
    near(got["concavity"][0], ref["concavity"][0], CONCAVITY_TOL[0], "concavity d1")
    near(got["concavity"][1], ref["concavity"][1], CONCAVITY_TOL[1], "concavity d2")
    return errs


# -- point queries -------------------------------------------------------------


def _stable_query(q):
    return aw.stable_for(q["kind"], aw.GeodesicParams(q["s"], q["r"], q["eps"]), tol=QUERY_TOL)


def _pair_query(q):
    kernel = aw.make_kernel(q["kind"], aw.GeodesicParams(q["s"], q["r"], q["eps"]),
                            horizon=PAIR_T + 1.0, tol=QUERY_TOL)
    return aw.fundamental_pair(kernel, T=PAIR_T, tol=QUERY_TOL)


def _critical(q) -> bool:
    return q["r"] == PI4 and q["eps"] == 0.0


def _check_stable(sol, q) -> list[float]:
    _require(sol.Y0 > 0.0 and math.isfinite(sol.W_prime_0), f"Y(0) = {sol.Y0}")
    _require(sol.seed_residual < QUERY_TOL, f"seed residual {sol.seed_residual:.2e}")
    if not _critical(q):
        return []
    closed = (aw.certificate_parallel_closed if q["kind"] == "parallel"
              else aw.certificate_perp_closed)
    e = _err(sol.W_prime_0, closed(q["s"]))
    _require(e <= ORACLE_TOL, f"certificate off the closed form by {e:.2e}")
    return [e]


def _check_pair(pair, q, rec) -> list[float]:
    wdev = float(np.max(pair.wronskian_deviation(PAIR_TS)))
    rec["wronskian_dev"] = wdev
    _require(wdev < ORACLE_TOL, f"Wronskian deviation {wdev:.2e}")
    if not _critical(q):
        return []
    cU, cV = ((aw.closed_U_parallel, aw.closed_V_parallel) if q["kind"] == "parallel"
              else (aw.closed_U_perp, aw.closed_V_perp))
    u, _ = pair.U.state(PAIR_TS)
    v, _ = pair.V.state(PAIR_TS)
    U, V = cU(q["s"], PAIR_TS), cV(q["s"], PAIR_TS)
    scale = np.maximum(1.0, np.maximum(np.abs(U), np.abs(V)))
    e = float(np.max(np.maximum(np.abs(u - U), np.abs(v - V)) / scale))
    _require(e <= ORACLE_TOL, f"fundamental pair off the closed forms by {e:.2e}")
    return [e]


# -- main loop -----------------------------------------------------------------


def _runner(op: dict, archive: dict | None):
    """(call, check) for one operation."""
    if op["op"] == "scan":
        return (lambda: aw.assemble_report(op["eps"]),
                lambda rep, rec: _check_scan(rep, op["eps"], archive))
    if op["op"] == "stable":
        return (lambda: _stable_query(op), lambda sol, rec: _check_stable(sol, op))
    if op["op"] == "pair":
        return (lambda: _pair_query(op), lambda pair, rec: _check_pair(pair, op, rec))
    raise ValueError(f"unknown operation {op['op']!r}")


def _run_ops(job: dict, archive: dict | None, tracer) -> tuple[list[dict], int, float]:
    records = []
    seen = set()
    repeats = 0
    rss_mb = None
    start = time.perf_counter()
    for i, op in enumerate(job["ops"]):
        if i >= job["min_ops"] and time.perf_counter() - start >= job["budget_s"]:
            break
        key = json.dumps(op, sort_keys=True)
        repeats += key in seen
        seen.add(key)
        rec = {"ok": False, "error": None, "oracle_errs": []}
        call, check = _runner(op, archive)
        if tracer is not None:
            tracer.op, tracer.active = i, True
        rec["t0"] = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, never fatal
            out, rec["error"] = None, f"{op}: {type(exc).__name__}: {exc}"
        rec["t1"] = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        if rec["error"] is None:
            try:
                rec["oracle_errs"] = check(out, rec)
                rec["ok"] = True
            except Exception as exc:
                rec["error"] = f"{op}: {type(exc).__name__}: {exc}"
        records.append(rec)
        if i + 1 == job["rss_after"]:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rss_mb is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return records, repeats, rss_mb


def main() -> None:
    job = json.loads(sys.stdin.read())
    archive = None
    if job.get("archive"):
        with open(job["archive"], encoding="utf-8") as fh:
            archive = json.load(fh)

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    with calib.Sampler() as sampler:
        records, repeats, rss_mb = _run_ops(job, archive, tracer)
    for rec in records:
        t0, t1 = rec.pop("t0"), rec.pop("t1")
        rec["s"] = t1 - t0
        rec["scaled_s"] = sampler.scaled(t0, t1)

    result = {
        "ops": records,
        "repeat_share": repeats / len(records),
        "rss_mb": rss_mb,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "ahwarp": aw.__file__},
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        if job.get("spans_out"):
            with open(job["spans_out"], "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
