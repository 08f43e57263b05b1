"""Closed-loop benchmark of the telemetry pipeline on one machine.

    python3 perfbench/run.py --workload bulk_parquet --seed 1 --seconds 15 --trace 0

One client, one local Ray session started with ``num_cpus`` = ``nproc``;
the next job is sent only after the previous one returns.  Inputs come
from ``--seed`` (``perfbench/workloads.py``); every op's outputs are
compared with the single-process oracle (``perfbench/gate.py``), and an
op that raises, times out or disagrees counts as failed.

``--trace 0`` (end-to-end metrics): the session is set up
``SETUP_REPEATS`` times — Ray start-up plus one untimed warm-up op, torn
down between repeats — and ``setup_s`` is their median.  Then ops run
until their summed wall time reaches ``--seconds``.

``--trace 1`` (per-layer metrics): one set-up, the same timed ops, then the
job's layers run in-process, untraced and traced (``perfbench/tracing.py``).

Metric names and units come from ``BENCHMARK.json``.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record of the run (every op's wall time, within-run
drift, spans with self times, the Ray Data operator summary) is written to
``.perfbench_out/`` in the repository root.  Generated inputs, job outputs
and Ray's session files live under ``.pbtmp/`` and are deleted on exit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
#: short, because Ray's socket paths under its session dir must fit 107 bytes
TMP_DIR = os.path.join(ROOT, ".pbtmp")

SETUP_REPEATS = 2
OP_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0
#: in-process ops per traced run
TRACE_OPS = 3
#: ops at each end of a run compared for within-run drift
DRIFT_WINDOW = 10


def drift(walls: list) -> dict:
    """Median wall of the last ops over that of the first ops of a run."""
    k = min(DRIFT_WINDOW, len(walls) // 3)
    if k < 2:
        return {"window": k, "ratio": None}
    first, last = statistics.median(walls[:k]), statistics.median(walls[-k:])
    return {"window": k, "first_s": first, "last_s": last, "ratio": last / first}


class Run:
    """One benchmark run of one workload: the session, the ops and their
    verdicts."""

    def __init__(self, workload, session, work_dir: str):
        self.w = workload
        self.session = session
        self.work_dir = work_dir
        self.ops = []          # one record per op, warm-ups included
        self.stats_txt = ""

    def _record(self, kind: str, i: int, wall_s: float, errors: list,
                files: int = 0) -> None:
        self.ops.append({"kind": kind, "op": i, "wall_s": wall_s,
                         "rows": self.w.input.expected.rows,
                         "sink_files": files, "errors": errors[:5]})

    def _out(self) -> str:
        return os.path.join(self.work_dir, f"out{len(self.ops):05d}")

    def op(self, i: int, kind: str) -> float:
        """One job through the public entry point, verified; returns its wall."""
        from perfbench.gate import check_op
        from perfbench.session import call_with_deadline
        out, inp = self._out(), self.w.input
        res = call_with_deadline(lambda: self.w.run_op(out), OP_TIMEOUT_S)
        errors, files = ([res.error], 0) if res.error else check_op(
            out, res.value, inp.expected, inp.tokens_of, self.w.oracle)
        self._record(kind, i, res.wall_s, errors, files)
        if res.hung:  # the job may still be running: stop the run here
            raise TimeoutError(res.error)
        stats = sorted(glob.glob(os.path.join(out, "_stats", "*.txt")))
        if stats:
            with open(stats[-1]) as f:
                self.stats_txt = f.read()
        shutil.rmtree(out, ignore_errors=True)
        return res.wall_s

    def setup(self) -> float:
        t0 = time.perf_counter()
        self.session.start()
        self.op(0, "warmup")
        return time.perf_counter() - t0

    def timed(self, seconds: float) -> list:
        """Closed loop until the ops' summed wall reaches ``seconds``."""
        walls = []
        while sum(walls) < seconds:
            walls.append(self.op(len(walls), "timed"))
        return walls

    def inproc(self, i: int, plan: list, tracer) -> float:
        """The job's layers in this process (see tracing.py), verified."""
        from perfbench import tracing
        from perfbench.gate import check_op
        out, inp = self._out(), self.w.input
        t0 = time.perf_counter()
        if self.w.run_hex:
            agg = tracing.hex_job(plan, self.w.meta_path, out, tracer)
        else:
            agg = tracing.parquet_job(plan, out, self.w.meta_path, tracer)
        wall = time.perf_counter() - t0
        self._record("inproc-traced" if tracer.enabled else "inproc", i, wall,
                     *check_op(out, agg, inp.expected, inp.tokens_of, self.w.oracle))
        shutil.rmtree(out, ignore_errors=True)
        return wall

    @property
    def failed(self) -> int:
        return sum(1 for o in self.ops if o["errors"])


def end_to_end(run: Run, seconds: float) -> tuple:
    from perfbench.session import host_steal_s, peak_rss_by_process, reset_peak_rss
    setups = []
    for k in range(SETUP_REPEATS):
        if k == SETUP_REPEATS - 1:
            # the peak covers the measured session, not input generation
            reset_peak_rss()
        setups.append(run.setup())
        if k < SETUP_REPEATS - 1:
            run.session.stop()
    steal0, t0 = host_steal_s(), time.perf_counter()
    walls = run.timed(seconds)
    steal = (host_steal_s() - steal0) / (time.perf_counter() - t0)
    timed = [o for o in run.ops if o["kind"] == "timed"]
    rss = peak_rss_by_process()
    values = {
        "rows_per_s": statistics.median(o["rows"] / o["wall_s"] for o in timed),
        "job_s_p50": statistics.median(walls),
        "peak_rss_mb": sum(rss.values()),
        "setup_s": statistics.median(setups),
    }
    return values, {"setup_s": setups, "walls": walls, "drift": drift(walls),
                    "steal_cpus": steal, "peak_rss_mb_by_process": rss}


def per_layer(run: Run, seconds: float) -> tuple:
    from perfbench import tracing
    run.setup()
    walls = run.timed(seconds)
    job_s = statistics.median(walls)
    plan = tracing.read_plan(run.w.input.files, run.w.run_hex)
    tracer, per_op, plain, traced = tracing.Tracer(), [], [], []
    for i in range(TRACE_OPS):
        tracer.op = i
        # alternate which variant runs first, so neither always runs warm
        for t in ((tracing.NullTracer(), tracer) if i % 2 else (tracer, tracing.NullTracer())):
            (traced if t.enabled else plain).append(run.inproc(i, plan, t))
        per_op.append(tracing.layer_metrics(tracer, i))
    values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    layers_s = values.pop("inproc.layers_s")
    values["pipeline.overhead_s"] = job_s - layers_s
    values["pipeline.overhead_share"] = (job_s - layers_s) / job_s
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return values, {"walls": walls, "drift": drift(walls), "job_s_p50": job_s,
                    "inproc_layers_s": layers_s, "inproc_untraced_s": plain,
                    "inproc_traced_s": traced, "read_plan": plan, "per_op": per_op,
                    "trace": tracer.dump(), "ray_data_stats": run.stats_txt}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Ray workers import the program from this process's working directory
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    from perfbench.session import (RaySession, descendants, kill_and_wait, nproc,
                                   start_watchdog)
    from perfbench.workloads import WORKLOADS

    start_watchdog(RUN_DEADLINE_S)
    os.makedirs(TMP_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=TMP_DIR)
    ray_dir = os.path.join(TMP_DIR, f"r{os.getpid()}")
    session = RaySession(ray_dir)
    try:
        t0 = time.perf_counter()
        workload = WORKLOADS[args.workload](os.path.join(work_dir, "data"))
        workload.prepare(args.seed)
        prep_s = time.perf_counter() - t0
        run = Run(workload, session, work_dir)
        try:
            values, detail = (per_layer if args.trace else end_to_end)(run, args.seconds)
        except TimeoutError as e:  # a hung job: no measurement, only the record
            values, detail = None, {"aborted": str(e)}
        leftover = session.stop()
    finally:
        kill_and_wait(descendants(), grace_s=5.0)
        shutil.rmtree(work_dir, ignore_errors=True)
        shutil.rmtree(ray_dir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": run.failed == 0, "attempted": len(run.ops),
              "failed": run.failed,
              "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in wanted} if values else None}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "prep_s": prep_s,
              "nproc": nproc(), "excluded_rows": workload.excluded_rows,
              "ray_temp_dir_in_checkout": session.temp_dir is not None,
              "unstopped_pids": leftover, "result": result, "ops": run.ops,
              **detail}
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as f:
        json.dump(record, f, indent=1)
    if values is None:
        print(f"perfbench: run aborted: {detail['aborted']}", file=sys.stderr)
        return 1
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
