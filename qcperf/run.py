"""Benchmark of record for the titan_ray transcript-QC engine.

    python3 qcperf/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One closed-loop driver process generates the
workload's inputs from ``--seed``, starts Ray with a fixed logical CPU count,
runs one cold (reference) execution, then repeats steady executions for
``--seconds`` seconds; every execution's output is checked. The last stdout
line is one JSON object {correct, attempted, failed, metrics}: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of one traced execution
with ``--trace 1``. The line before it carries host facts, input sizes and
every sample. ``--size tiny`` and ``--plant-fault`` exist for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from qcperf import harness  # noqa: E402  (stdlib-only: set-up is timed after it)

WORKLOADS = ("scattered_oneshot", "clustered_resumable", "doc_operators")
END_TO_END = {
    "setup_s": "s", "cold_exec_s": "s", "rows_per_s": "rows/s", "partition_s": "s",
    "peak_pss_mb": "MB", "drop_f1": "ratio", "write_amp": "ratio",
}
SETUP_PROBES = 1            # plus the run's own set-up: two set-up samples
COLD_DEADLINE_S = 120.0
EXEC_DEADLINE_S = 60.0
# a run must end within 180 s: executions stop by HARD_STOP_S, which leaves
# room for the reference checks and a teardown of at most 15 s
RUN_BUDGET_S = 130.0        # no execution starts that is expected to end later
HARD_STOP_S = 150.0         # every deadline is cut to end before this


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--plant-fault", action="store_true")
    return p.parse_args(argv)


class Run:
    def __init__(self, args, proc_start: float):
        self.args = args
        self.proc_start = proc_start
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.settles: list[tuple[float, float]] = []
        self.stolen: list[float] = []   # per execution: share of busy CPU time stolen

    def elapsed(self) -> float:
        return time.time() - self.proc_start

    def execute(self, wl, out: Path, deadline_s: float, pss=None):
        """One execution into a fresh ``out``; returns (wall seconds, result,
        share of the busy CPU time not stolen) or None when it failed or
        overran its deadline."""
        harness.fresh_dir(out)
        self.settles.append(harness.settle())
        deadline_s = min(deadline_s, HARD_STOP_S - self.elapsed())
        self.attempted += 1
        if pss:
            pss.resume()
        ticks0 = harness.cpu_ticks()
        secs, res, err = harness.run_with_deadline(lambda: wl.execute(out), deadline_s)
        stolen = harness.stolen_share(ticks0, harness.cpu_ticks())
        self.stolen.append(stolen)
        if pss:
            pss.pause()
        if err:
            self.failed += 1
            self.errors.append(f"execution {self.attempted}: {err}")
            if err == "deadline":
                raise TimeoutError(err)
            return None
        return secs, res, 1.0 - stolen

    def verify(self, ok: bool, what: str) -> None:
        if not ok:
            self.failed += 1
            self.errors.append(f"execution {self.attempted}: {what}")

    def steady(self, wl, out: Path, ref: str, cold_s: float, pss=None) -> list:
        """Steady executions for --seconds (at least one), each checked
        against the reference digest."""
        runs = []
        t0 = time.perf_counter()
        while True:
            est = statistics.median(r[0] for r in runs) if runs else cold_s
            if runs and time.perf_counter() - t0 + est > self.args.seconds:
                break
            if self.elapsed() + est > RUN_BUDGET_S:
                break
            try:
                got = self.execute(wl, out, EXEC_DEADLINE_S, pss)
            except TimeoutError:
                break
            if got is None:
                continue
            if self.args.plant_fault and not runs:
                wl.plant_fault(out)
            self.verify(wl.fingerprint(out) == ref, "output digest differs from the reference execution")
            runs.append((*got, harness.dir_bytes(out)))
        return runs


def reference_and_steady(run: Run, wl, out: Path, pss=None):
    """The cold (reference) execution, its independent checks, then the
    steady executions. Returns (cold execution, reference digest, checks,
    runs); an execution is (wall seconds, result, share not stolen, bytes)."""
    cold = run.execute(wl, out, COLD_DEADLINE_S)
    if cold is None:
        raise RuntimeError("the reference execution failed")
    ref = wl.fingerprint(out)
    checks = wl.reference_checks(out)
    run.verify(checks["ok"], f"reference checks failed: {checks}")
    runs = run.steady(wl, out, ref, cold[0], pss)
    if not runs:
        raise RuntimeError("no steady execution completed")
    return cold, ref, checks, runs


def end_to_end(run: Run, wl, work: Path, setup: list[tuple[float, float]], pss) -> tuple[dict, dict]:
    """Times are net of stolen CPU time: wall seconds times the share of the
    busy CPU time the hypervisor did not steal (see NOTES.md)."""
    cold, _, checks, runs = reference_and_steady(run, wl, work / "out", pss)
    setup_s = [s * keep for s, keep in setup]
    exec_s = [r[0] * r[2] for r in runs]
    parts = [p * r[2] for r in runs for p in r[1]["partition_s"]]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "cold_exec_s": cold[0] * cold[2],
        "rows_per_s": wl.rows / statistics.median(exec_s),
        "partition_s": statistics.median(parts),
        "peak_pss_mb": pss.peak_mb,
        "drop_f1": checks["drop_f1"],
        "write_amp": statistics.median(r[3] for r in runs) / wl.text_bytes,
    }
    detail = {"samples": {"setup_s": setup_s, "exec_s": exec_s, "partition_s": parts,
                          "bytes_written": [r[3] for r in runs]},
              "wall_s": {"setup": [s for s, _ in setup], "cold_exec": cold[0],
                         "exec": [r[0] for r in runs]},
              "rows_per_s_samples": len(exec_s), "reference_checks": checks}
    return metrics, detail


def traced(run: Run, wl, work: Path) -> tuple[dict, dict]:
    from qcperf import traced as tr_mod
    from qcperf.workloads import DIGEST_COLS, DOC_OPS, table_digest

    out = work / "out"
    _, ref, checks, runs = reference_and_steady(run, wl, out)
    untraced_s = statistics.median(r[0] for r in runs)

    tracer = tr_mod.Tracer()
    harness.fresh_dir(out)
    run.settles.append(harness.settle())
    run.attempted += 1
    fn = tr_mod.traced_docs if wl.name == "doc_operators" else tr_mod.traced_transcripts
    secs, got, err = harness.run_with_deadline(lambda: fn(wl, out, tracer),
                                               min(2 * EXEC_DEADLINE_S, HARD_STOP_S - run.elapsed()))
    if err:
        run.failed += 1
        raise RuntimeError(f"traced execution: {err}")
    m, reader_tables = got
    run.verify(wl.fingerprint(out) == ref, "staged (traced) composition digest differs from untraced")
    root = tracer.named("execution")[0]
    wall = root["end"] - root["start"]
    unattributed = tracer.self_time(root)
    run.verify(unattributed <= tr_mod.UNATTRIBUTED_TOLERANCE * wall,
               f"{unattributed:.3f} s of {wall:.3f} s traced wall is in no layer span")

    kernel_total = 0.0
    if reader_tables:
        serial = tr_mod.SerialPass(wl.cfg, tr_mod.NUM_BUCKETS)
        for table in reader_tables:
            serial.run(table)
        out_tbl = serial.output().select(list(DIGEST_COLS))
        run.verify(table_digest(out_tbl.to_pandas()) == ref, "serial composition digest differs from untraced")
        m.update(serial.metrics())
        kernel_total = serial.kernel_total()
    m["write.bytes"] = harness.dir_bytes(out) - harness.dir_bytes(out / "_lineage")
    m.update({"trace.wall_s": wall, "trace.unattributed_s": unattributed,
              "orchestration_s": wall - kernel_total, "tracing_overhead_s": wall - untraced_s})
    m["settle.slots_held"] = statistics.mean(harness.LOGICAL_CPUS - f for f, _ in run.settles)
    m["settle.wait_s"] = sum(s for _, s in run.settles)

    names = tr_mod.per_layer_names(DOC_OPS)
    metrics = {n: m.get(n, 0) for n in names}
    detail = {"untraced_exec_s": [r[0] for r in runs], "traced_exec_s": secs,
              "reference_checks": checks, "exercised": sorted(set(m) & set(names))}
    trace_file = harness.TRACE_DIR / f"{wl.name}-seed{run.args.seed}.json"
    tracer.dump(trace_file, {"workload": wl.name, "seed": run.args.seed, "metrics": metrics})
    detail["trace_file"] = str(trace_file.relative_to(harness.ROOT))
    return metrics, detail


def main(argv=None) -> int:
    proc_start = harness.process_start_wall()
    t_main = time.time()
    args = parse(argv)
    if importlib.util.find_spec("titan_ray") is None:
        print("qcperf: the titan_ray package is not importable from the repository root",
              file=sys.stderr)
        return 2
    harness.adopt_orphans()
    run = Run(args, proc_start)
    work = harness.WORK_ROOT / f"{args.workload}-{os.getpid()}"
    harness.fresh_dir(work)
    ray_tmp = harness.ray_temp_dir()
    harness.keep_temp_files_in(work / "tmp", ray_tmp)
    host = harness.host_info()
    ticks0 = harness.cpu_ticks()
    result = None
    try:
        setup = []  # (wall seconds, share of the busy CPU time not stolen)
        for _ in range(0 if args.trace else SETUP_PROBES):
            ticks = harness.cpu_ticks()
            secs = harness.probe_setup(ray_tmp)
            setup.append((secs, 1.0 - harness.stolen_share(ticks, harness.cpu_ticks())))
        ticks, t0 = harness.cpu_ticks(), time.perf_counter()
        harness.start_ray(ray_tmp)
        # this process's own set-up: interpreter start to run.py, plus Ray up
        setup.append(((t_main - proc_start) + time.perf_counter() - t0,
                      1.0 - harness.stolen_share(ticks, harness.cpu_ticks())))

        from qcperf.workloads import WORKLOADS as CLASSES

        wl = CLASSES[args.workload](work, args.seed, args.size)
        if args.trace:
            metrics, detail = traced(run, wl, work)
            units = None
        else:
            with harness.PssSampler() as pss:
                metrics, detail = end_to_end(run, wl, work, setup, pss)
            units = END_TO_END
        from qcperf.traced import unit_of

        host["cpu_stolen_share"] = harness.stolen_share(ticks0, harness.cpu_ticks())
        detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "host": host, "sizes": wl.sizes, "errors": run.errors,
                  "cpu_free_before_gc": [f for f, _ in run.settles],
                  "settle_s": [s for _, s in run.settles],
                  "exec_stolen_share": run.stolen,
                  "ray_temp_in_checkout": ray_tmp == harness.RAY_TEMP, **detail}
        result = {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {k: {"value": v, "unit": units[k] if units else unit_of(k)}
                        for k, v in metrics.items()},
        }
    except Exception:  # a run that cannot measure prints no result
        traceback.print_exc()
        print(f"qcperf: no result; execution errors: {run.errors}", file=sys.stderr)
    finally:
        killed = harness.stop_ray()
        if killed:
            print(f"qcperf: killed leftover processes {killed}", file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        if harness.WORK_ROOT.exists() and not any(harness.WORK_ROOT.iterdir()):
            harness.WORK_ROOT.rmdir()
    if result is None:
        return 1
    print(json.dumps(detail, default=float))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
