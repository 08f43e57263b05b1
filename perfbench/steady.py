"""Steadiness report: repeated benchmark runs, one seed each.

    python3 perfbench/steady.py --seeds 1 2 3 4 5 [--workloads hex_ingest ...] [--trace 1]

Runs ``perfbench/run.py`` once per workload and seed, one run at a time,
and prints for every metric the median, the quartiles and their distance
as a share of the median (the spread), next to the metric's bound in
``BENCHMARK.json``.  A spread above a third of its bound is flagged
(``setup_s`` is reported but not gated on spread).  It also prints, per
run, the within-run drift — the median of the last ops over that of the
first — and flags a workload whose median drift across runs is beyond
``DRIFT_FLAG`` (one run's drift is mostly host noise), so a leak shows up
as drift instead of being absorbed by a wider bound.  Per run it prints
the host's steal time during the timed ops too, in CPUs, so a slow run can
be told from a slow program.  Timed op walls of all runs are pooled for a
tail percentile with at least ten samples beyond it, and failed ops are
summed into an error rate.  The report is also written to
``.perfbench_out/steady-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
DRIFT_FLAG = 0.10


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (values[0],) * 3
    return q1, q2, q3


def tail(walls: list) -> tuple:
    """The highest of p99/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 90, 75, 50):
        if len(walls) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(walls, n=100)[p - 1]
    return None, None


def run_one(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"workload": workload, "seed": seed, "exit": proc.returncode,
                "wall_s": wall, "result": None, "record": {}}
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}.json")) as f:
        record = json.load(f)
    return {"workload": workload, "seed": seed, "exit": 0, "wall_s": wall,
            "result": json.loads(lines[-1]), "record": record}


def report(spec: dict, runs: list, trace: int) -> dict:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = {}
    for w in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == w]
        ok = [r for r in mine if r["result"]]
        print(f"\n== {w}: {len(ok)}/{len(mine)} runs completed, "
              f"run wall median {statistics.median(r['wall_s'] for r in mine):.1f} s")
        attempted = sum(r["result"]["attempted"] for r in ok)
        failed = sum(r["result"]["failed"] for r in ok)
        print(f"   ops attempted {attempted}, failed {failed}, error_rate "
              f"{failed / attempted if attempted else float('nan'):.4f}, "
              f"all correct: {all(r['result']['correct'] for r in ok)}")
        rows = {}
        names = ok[0]["result"]["metrics"] if ok else {}
        for name, m in names.items():
            vals = [r["result"]["metrics"][name]["value"] for r in ok]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name) if not trace else None
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "WIDE" if spread > bound else ("" if spread <= bound / 3 else "wide")
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": vals}
            print(f"   {name:32s} median {med:12.6g} {m['unit']:9s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:6.3f}"
                  + (f" bound {bound:.2f} {flag}" if bound is not None else ""))
        drifts = [(r["seed"], r["record"].get("drift", {}).get("ratio")) for r in ok]
        ratios = [d for _, d in drifts if d is not None]
        drift = statistics.median(ratios) if ratios else None
        flagged = drift is not None and abs(drift - 1) > DRIFT_FLAG
        print("   drift (last/first op median) per seed: "
              + ", ".join(f"{s}:{d:.3f}" if d else f"{s}:n/a" for s, d in drifts)
              + (f"; median {drift:.3f}" if drift else "")
              + ("  FLAGGED" if flagged else ""))
        steal = [(r["seed"], r["record"].get("steal_cpus")) for r in ok]
        if any(v is not None for _, v in steal):
            print("   host steal during timed ops (CPUs) per seed: "
                  + ", ".join(f"{s}:{v:.3f}" for s, v in steal if v is not None))
        walls = [x for r in ok for x in r["record"].get("walls", [])]
        p, v = tail(walls) if walls else (None, None)
        if p:
            print(f"   pooled op wall p{p} = {v:.4f} s over {len(walls)} ops")
        out[w] = {"metrics": rows, "drift": drifts, "drift_median": drift,
                  "steal_cpus": steal,
                  "drift_flagged": flagged,
                  "attempted": attempted, "failed": failed,
                  "pooled_tail": {"p": p, "s": v, "ops": len(walls)},
                  "run_wall_s": [r["wall_s"] for r in mine]}
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    runs = []
    for w in args.workloads:
        for s in args.seeds:
            runs.append(run_one(w, s, args.trace))
            r = runs[-1]
            print(f"{w} seed {s}: exit {r['exit']}, {r['wall_s']:.1f} s", flush=True)
    summary = report(spec, runs, args.trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"steady-trace{args.trace}.json"), "w") as f:
        json.dump({"seeds": args.seeds, "workloads": summary}, f, indent=1)
    return 0 if all(r["result"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
