"""Benchmark of ahwarp: time to a verdict and point-query latency.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src`` in fresh single-threaded interpreters (``worker.py``), one
at a time.  Inputs are generated here from the seed and handed to the workers;
every output is checked, and the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` a
fixed slice of the workload runs under ``tracer.py`` and the metrics are the
per-layer ones.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"
ARCHIVE = ROOT / "artifacts" / "scan_eps_0.05.json"

WORKLOADS = ("scan-sharp", "scan-sweep", "cert-queries")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # every worker is killed and waited for before this
MIN_QUERIES = 100  # so that at least ten queries lie beyond the p90
# eps = 0.05 (the archived scan) and the other eps at which demo 05 and the
# acceptance suite search for r*.  About 2% of eps drawn from all of (0, 0.1]
# make assemble_report fail at tol 1e-10 (README.md, "Known defects").
SWEEP_EPS = (0.05, 0.01, 0.1)
PI4 = math.pi / 4

# Point classes of cert-queries, cycled so that every seed gets the same mix:
# 30% at the critical parameters (closed forms), 30% sharp metrics at other
# radii, 40% mollified metrics.  Crossed with the four query types (period 4)
# every type meets every class within 20 queries.
_QUERY_TYPES = (("stable", "parallel"), ("stable", "perpendicular"),
                ("pair", "parallel"), ("pair", "perpendicular"))
_POINT_CLASSES = ("critical", "sharp", "smooth", "critical", "sharp",
                  "smooth", "critical", "smooth", "sharp", "smooth")


class BenchError(RuntimeError):
    pass


# -- inputs --------------------------------------------------------------------


def _eps(rng: random.Random) -> float:
    return 0.1 * (1.0 - rng.random())  # uniform on (0, 0.1]


def make_inputs(workload: str, seed: int, count: int) -> list[dict]:
    """The first ``count`` operations of a workload; the same seed gives the
    same operations.  Inputs are asserted distinct: the package caches every
    result for the life of the process, so a repeat would time a cache hit."""
    rng = random.Random(seed)
    if workload == "scan-sharp":
        # A single scan per fresh interpreter; the input has no free parameter.
        return [{"op": "scan", "eps": 0.0}]
    if workload == "scan-sweep":
        rest = list(SWEEP_EPS[1:])
        rng.shuffle(rest)
        ops = [{"op": "scan", "eps": e} for e in (SWEEP_EPS[0], *rest)][:count]
    else:
        ops = []
        for i in range(count):
            op, kind = _QUERY_TYPES[i % len(_QUERY_TYPES)]
            point = _POINT_CLASSES[i % len(_POINT_CLASSES)]
            s = rng.uniform(0.0, 0.7)
            if point == "critical":
                r, eps = PI4, 0.0
            else:
                r = rng.uniform(0.7, 0.85)
                eps = 0.0 if point == "sharp" else _eps(rng)
            ops.append({"op": op, "kind": kind, "s": s, "r": r, "eps": eps})
    keys = {json.dumps(op, sort_keys=True) for op in ops}
    if len(keys) != len(ops):
        raise BenchError(f"{workload}: seed {seed} drew a repeated input")
    return ops


# -- processes -----------------------------------------------------------------


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": str(SRC),
        "PYTHONDONTWRITEBYTECODE": "1",  # keeps src/ free of bytecode
        "PYTHONHASHSEED": "0",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


class Clock:
    def __init__(self) -> None:
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def timeout(self) -> float:
        left = DEADLINE_S - self.elapsed()
        if left <= 0.0:
            raise BenchError("out of time")
        return left


def _spawn(args: list[str], stdin: str, clock: Clock) -> str:
    # subprocess.run kills the child and waits for it when the timeout fires.
    try:
        proc = subprocess.run([sys.executable, *args], input=stdin, capture_output=True,
                              text=True, env=_env(), cwd=ROOT, timeout=clock.timeout())
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout.strip().splitlines()[-1]


def setup_seconds(clock: Clock) -> list[float]:
    """Interpreter start until ``import ahwarp`` returns, the cost every CLI
    call pays (with ahwarp compiled from source, as no bytecode is written),
    at the reference speed.  One untimed start first warms the file cache."""
    code = "import time, ahwarp; print(time.monotonic())"
    _spawn(["-c", code], "", clock)
    samples = []
    loop_s = calib.loop_s(3)
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        wall = float(_spawn(["-c", code], "", clock)) - t0
        after = calib.loop_s(3)
        samples.append(calib.scaled(wall, loop_s, after))
        loop_s = after
    return samples


def run_worker(ops: list[dict], *, min_ops: int, budget_s: float, clock: Clock,
               trace: bool = False, spans_out: Path | None = None) -> dict:
    job = {"ops": ops, "min_ops": min_ops, "budget_s": budget_s, "rss_after": min_ops,
           "trace": trace, "archive": str(ARCHIVE),
           "spans_out": str(spans_out) if spans_out else None}
    result = json.loads(_spawn([str(BENCH / "worker.py")], json.dumps(job), clock))
    origin = Path(result["versions"]["ahwarp"]).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"ahwarp was imported from {origin}, not from {SRC}")
    return result


# -- statistics ----------------------------------------------------------------


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def digits(err: float) -> float:
    """-log10 of a relative error, floored at double-precision epsilon."""
    return -math.log10(max(err, sys.float_info.epsilon))


def _failures(workers: list[dict]) -> list[str]:
    return [op["error"] for w in workers for op in w["ops"] if not op["ok"]]


def end_to_end(workload: str, workers: list[dict], setup: list[float]) -> dict[str, float]:
    ops = [op for w in workers for op in w["ops"]]
    good = [op["scaled_s"] for op in ops if op["ok"]]
    errs = [e for op in ops for e in op["oracle_errs"]]
    if not good or not errs:
        raise BenchError(f"{workload}: no checked operation completed; "
                         f"first failures: {_failures(workers)[:3]}")
    return {
        "op_ms_p50": 1e3 * statistics.median(good),
        "op_ms_p90": 1e3 * p90(good),
        "ops_per_s": len(good) / sum(good),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(w["rss_mb"] for w in workers),
        "oracle_digits": digits(statistics.median(errs)),
    }


def _check_counters(layers: dict[str, float]) -> None:
    # A later change of the integrator entry point must not zero the work
    # counters silently: time spent in the ode layer implies solver work.
    if layers["ode.busy_s"] > 0.0 and (layers["ode.rhs_evals"] == 0
                                       or layers["ode.solve_calls"] == 0):
        raise BenchError(
            "counter check: ode.busy_s > 0 but no solver work was counted; "
            "the tracer no longer sees the integrator entry point")


# -- workloads -----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, clock: Clock) -> list[dict]:
    """Untraced run: scans of eps = 0 or queries until ``seconds`` have
    passed, or the three scans of the sweep."""
    if workload == "scan-sharp":
        ops = make_inputs(workload, seed, 1)
        workers = []
        while not workers or clock.elapsed() < seconds:
            workers.append(run_worker(ops, min_ops=1, budget_s=0.0, clock=clock))
    elif workload == "scan-sweep":
        ops = make_inputs(workload, seed, len(SWEEP_EPS))
        workers = [run_worker(ops, min_ops=len(ops), budget_s=0.0, clock=clock)]
    else:
        ops = make_inputs(workload, seed, 4000)
        workers = [run_worker(ops, min_ops=MIN_QUERIES, budget_s=seconds - clock.elapsed(),
                              clock=clock)]
    return workers


def measure_traced(workload: str, seed: int, seconds: float,
                   clock: Clock) -> tuple[list[dict], dict]:
    """Traced run over a fixed slice of the workload (one scan, or the first
    MIN_QUERIES queries), repeated in fresh interpreters while time remains;
    the work counts must repeat exactly.  One untraced pass over the same
    slice gives the tracing overhead."""
    count = MIN_QUERIES if workload == "cert-queries" else 1
    ops = make_inputs(workload, seed, count)
    untraced = run_worker(ops, min_ops=count, budget_s=0.0, clock=clock)
    passes = []
    while not passes or clock.elapsed() < seconds:
        spans_out = OUT / f"spans-{workload}-seed{seed}-{len(passes)}.json"
        passes.append(run_worker(ops, min_ops=count, budget_s=0.0, clock=clock,
                                 trace=True, spans_out=spans_out))
    layers = [p["layers"] for p in passes]
    for lay in layers:
        _check_counters(lay)
    timed = {k for k in layers[0] if k.endswith(("_s", ".s"))}
    moved = [k for k in layers[0]
             if k not in timed and any(lay[k] != layers[0][k] for lay in layers)]
    if moved:
        raise BenchError(f"work counts differ between identical traced passes: {moved}")
    merged = {k: statistics.median(lay[k] for lay in layers) if k in timed else v
              for k, v in layers[0].items()}

    def op_median(worker):
        return statistics.median(op["scaled_s"] for op in worker["ops"])

    merged["trace.overhead_s"] = (statistics.median(op_median(p) for p in passes)
                                  - op_median(untraced))
    merged["bench.repeat_share"] = max(p["repeat_share"] for p in passes)
    merged["jacobi.wronskian_dev_max"] = max(
        (op.get("wronskian_dev", 0.0) for p in passes for op in p["ops"]), default=0.0)
    return [untraced, *passes], merged


# -- entry point ---------------------------------------------------------------


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ahwarp" / "__init__.py").is_file() or not ARCHIVE.is_file():
        print(f"error: {SRC / 'ahwarp'} or {ARCHIVE} is missing; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    clock = Clock()
    try:
        units = _declared(bool(args.trace))
        setup = setup_seconds(clock)
        window = Clock()
        if args.trace:
            workers, values = measure_traced(args.workload, args.seed, args.seconds, window)
        else:
            workers = measure(args.workload, args.seed, args.seconds, window)
            values = end_to_end(args.workload, workers, setup)
        if set(values) != set(units):
            raise BenchError(f"metrics {sorted(set(values) ^ set(units))} are not "
                             "declared in BENCHMARK.json, or not measured")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failures = _failures(workers)
    attempted = sum(len(w["ops"]) for w in workers)
    versions = workers[0]["versions"]
    print(f"# env nproc={os.cpu_count()} python={versions['python']} "
          f"numpy={versions['numpy']} scipy={versions['scipy']}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {attempted} operations "
          f"in {len(workers)} interpreter(s), {len(failures)} failed, "
          f"repeat share {max(w['repeat_share'] for w in workers):g}, "
          f"setup samples {[round(s, 4) for s in setup]}")
    wall = [op["s"] for w in workers for op in w["ops"] if op["ok"]]
    if wall:
        print(f"# unscaled wall time: median {1e3 * statistics.median(wall):.6g} ms "
              f"over {len(wall)} operations")
    for msg in failures[:10]:
        print(f"# failed: {msg}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
