"""Self-test of the benchmark: inputs, counter checks, and repeatable counts.

    python3 perfbench/selftest.py

Runs from the root of a checkout in a few minutes.  It checks that

* the same seed gives the same inputs, another seed other inputs, and that
  no workload repeats an input;
* the counter check fails loudly when the ode layer is busy but no solver
  work was counted;
* two traced runs of the same seed report identical work counts on every
  workload, and, on numpy 2.4.6 with scipy 1.17.1, the counts recorded when
  the benchmark was defined (see README.md).

It also reports whether the package defects listed under "Known defects" in
README.md are still there; those reports never fail the self-test.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

# (workload, metric) -> count, measured with numpy 2.4.6 and scipy 1.17.1.
BASELINE = {
    ("scan-sharp", "ode.solve_calls"): 677,
    ("scan-sharp", "ode.rhs_evals"): 376657,
    ("scan-sharp", "ode.steps"): 23945,
    ("scan-sharp", "ode.dense_lookups"): 161569,
    ("scan-sharp", "warp.mollifier.calls"): 0,
    ("scan-sweep", "ode.solve_calls"): 972,
    ("scan-sweep", "ode.rhs_evals"): 429471,
    ("scan-sweep", "ode.dense_lookups"): 249809,
    ("scan-sweep", "warp.mollifier.calls"): 56410,
}
BASELINE_VERSIONS = "numpy=2.4.6 scipy=1.17.1"

# One input per known defect, with the test that tells it is still there.
KNOWN_DEFECTS = (
    ("assemble_report(0.020927634009400266) is 'failed': the s = 0 certificate "
     "at tol 1e-10 exceeds TOL_SIGN",
     {"op": "scan", "eps": 0.020927634009400266},
     lambda rec: not rec["ok"]),
    ("Wronskian deviation above 1e-8 on [0, 20] at tol 1e-10",
     {"op": "pair", "kind": "parallel", "s": 0.6644408079988706,
      "r": 0.7475373665456311, "eps": 0.014637102524607901},
     lambda rec: rec["wronskian_dev"] > 1e-8),
)

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def traced(workload: str, seed: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=run.ROOT, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"traced {workload} run failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[0]


def main() -> int:
    for workload in run.WORKLOADS:
        a = run.make_inputs(workload, 3, 50)
        check(a == run.make_inputs(workload, 3, 50), f"{workload}: same seed, same inputs")
        if workload == "cert-queries":
            check(a != run.make_inputs(workload, 4, 50), f"{workload}: new seed, new inputs")
        check(len({json.dumps(op, sort_keys=True) for op in a}) == len(a),
              f"{workload}: inputs distinct")

    try:
        run._check_counters({"ode.busy_s": 1.0, "ode.rhs_evals": 0, "ode.solve_calls": 0})
        check(False, "counter check rejects busy_s > 0 with zero rhs_evals")
    except run.BenchError:
        check(True, "counter check rejects busy_s > 0 with zero rhs_evals")

    for workload in run.WORKLOADS:
        first, env = traced(workload, 5)
        second, _ = traced(workload, 5)
        check(first["correct"] and second["correct"], f"{workload}: traced runs correct")
        counts = {k for k, m in first["metrics"].items() if m["unit"] != "s"}
        moved = sorted(k for k in counts
                       if first["metrics"][k]["value"] != second["metrics"][k]["value"])
        check(not moved, f"{workload}: counts repeat across two runs of one seed {moved or ''}")
        if BASELINE_VERSIONS in env:
            for (w, name), want in BASELINE.items():
                if w == workload:
                    got = first["metrics"][name]["value"]
                    check(got == want, f"{workload}: {name} = {got} (baseline {want})")
        else:
            print(f"skip  {workload}: baseline counts are for {BASELINE_VERSIONS}")

    clock = run.Clock()
    for what, op, present in KNOWN_DEFECTS:
        rec = run.run_worker([op], min_ops=1, budget_s=0.0, clock=clock)["ops"][0]
        print(("known " if present(rec) else "FIXED ") + what)

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
