"""Benchmark harness (driver contract).

Default: run the headline transcript-QC pipeline + operator queries over
$GRAFT_SF_DIR (default /root/testdata/sf0.1) at num_cpus=$RAY_GRAFT_CPUS
(default 32) and print ONE JSON line.

--stages: time each stage pipeline of the flagship plan at two num_cpus
levels in fresh processes (--stage-run times one stage, $GRAFT_STAGE).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

# silence the C++ core_worker chatter (e.g. the actor-restart-args note) so
# the bench log of record ends at the JSON line
os.environ.setdefault("RAY_BACKEND_LOG_LEVEL", "fatal")


def _sf() -> float:
    import re

    m = re.search(r"sf([0-9.]+)", SF_DIR)
    return float(m.group(1)) if m else 0.1


def _wait_for_quiet_box(max_wait_s: int = 480, load_ok: float = 2.0) -> None:
    """Wait (bounded) for residual system load to decay before timing.

    This VM shows ±25–30% run-to-run noise when a bench starts while the
    1-min load average is still high from a previous job (pytest, the
    oracle gate, a prior Ray session tearing down). The round-2 run of
    record landed in exactly that regime. Cheap insurance: poll
    /proc/loadavg and start only once 1-min load < ``load_ok`` or after
    ``max_wait_s``, whichever comes first. Disable with GRAFT_NO_COOLDOWN=1.
    """
    if os.environ.get("GRAFT_NO_COOLDOWN"):
        return
    deadline = time.monotonic() + max_wait_s
    while time.monotonic() < deadline:
        try:
            with open("/proc/loadavg") as f:
                load1 = float(f.read().split()[0])
        except (OSError, ValueError):
            return
        if load1 < load_ok:
            return
        time.sleep(10)


def _quiet_init(num_cpus: int) -> None:
    """ray.init with a clean log tail: no worker-log forwarding (the
    'Failed to hash the schemas' lines are upstream log-dedup noise emitted
    from worker processes) and ray.data driver loggers at ERROR (the
    empty-block-after-Sort RefBundle schema warnings are cosmetic — empty
    partitions of Ray's own sort, not engine blocks)."""
    import logging

    import ray

    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR", log_to_driver=False)
    for name in ("ray.data", "ray"):
        logging.getLogger(name).setLevel(logging.ERROR)
    # Ray Data registers fresh per-dataset loggers at execution start that
    # bypass the parent level — suppress everything below ERROR process-wide
    # (bench output is the single JSON print; nothing legitimate is lost)
    logging.disable(logging.WARNING)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def run_bench() -> dict:
    if not os.path.isdir(SF_DIR):
        raise SystemExit(f"GRAFT_SF_DIR does not exist: {SF_DIR}")
    import ray

    _wait_for_quiet_box()
    _quiet_init(NUM_CPUS)

    from titan_ray.config import QCConfig
    from titan_ray.corpus import corpus_path_for_sf
    from titan_ray.pipelines.qc import build_qc_pipeline
    from titan_ray.pipelines import docqc, events
    from titan_ray.stages import ann
    import ray.data as rd

    sf = _sf()
    corpus = corpus_path_for_sf(sf)  # generated once, cached with _SUCCESS
    # warm the page cache so we measure compute+shuffle, not first disk read
    rd.read_parquet(corpus).count()

    n_turns = rd.read_parquet(corpus).count()
    out_dir = "/tmp/titan_ray_bench_out"
    shutil.rmtree(out_dir, ignore_errors=True)

    timings: dict[str, float] = {}

    cfg = QCConfig(dedup=True)
    runs = []
    # 4 runs by default: run 1 is cold (worker start, models, imports), the best of
    # the rest is the steady state; this box's ±25% noise makes min-of-2
    # land on a bad regime too often (the round-2 record did exactly that),
    # and a fully cold session (first bench after boot) was still decaying
    # at run 3 (36.5/27.2/23.4 s) — all runs stay in the reported array
    n_runs = int(os.environ.get("GRAFT_BENCH_RUNS", "4"))
    for attempt in range(n_runs):  # 2nd run = steady state (workers warm, store warm)
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        ds = rd.read_parquet(corpus)
        build_qc_pipeline(ds, cfg, num_buckets=max(64, NUM_CPUS * 4)).write_parquet(out_dir)
        runs.append(time.perf_counter() - t0)
    headline = min(runs)
    timings["qc_transcripts"] = round(headline, 3)
    timings["qc_transcripts_runs"] = [round(r, 3) for r in runs]

    def timed(name: str, fn):
        t = time.perf_counter()
        res = fn(SF_DIR)
        # consume: Datasets are lazy — count() executes the full plan
        n = res.count() if hasattr(res, "count") and not hasattr(res, "iloc") else len(res)
        timings[name] = round(time.perf_counter() - t, 3)
        return n

    timed("doc_token_counts", docqc.doc_token_counts)
    timed("doc_scrub", docqc.doc_scrub)
    timed("dedup_exact_docs", docqc.dedup_exact_docs)
    timed("events_hourly", events.events_hourly)
    timed("events_buddy", events.events_buddy)
    timed("ann_topk", ann.ann_topk)

    result = {
        "metric": "qc_pipeline_sec",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "n_turns": n_turns,
        "turns_per_sec": round(n_turns / headline, 1),
    }
    ray.shutdown()
    return result


STAGES = ("read", "dedup", "scorer", "rowwise", "conv", "scrub", "write")


def run_stage(stage: str) -> dict:
    """Time ONE stage pipeline at NUM_CPUS (internal helper for --stages;
    fresh process per call so levels don't share a Ray session).

    Every stage is a slice of the flagship's own plan
    (registry.flagship_spec), built by registry.build_pipeline_from_spec.
    Semantics per stage (NOT uniformly cumulative — the table compares each
    row's lo-vs-hi SCALING, not absolute seconds across rows):
    read/dedup/scorer/scrub/write are ISOLATED pipelines over the raw
    corpus; rowwise/conv are cumulative prefixes of the plan WITHOUT the
    dedup step (dedup's scaling is measured by its own row)."""
    import ray

    _quiet_init(NUM_CPUS)
    import ray.data as rd
    from dataclasses import replace

    from titan_ray.config import QCConfig
    from titan_ray.corpus import corpus_path_for_sf
    from titan_ray.pipelines.registry import build_pipeline_from_spec, flagship_spec

    sf = _sf()
    corpus = corpus_path_for_sf(sf)
    rd.read_parquet(corpus).count()  # warm page cache
    cfg = QCConfig(dedup=True, batch_size=int(os.environ.get("GRAFT_BATCH", QCConfig.batch_size)))
    plan = flagship_spec(replace(cfg, dedup=False))
    conv = plan.index("conv_checks")
    spec = {
        "read": (), "dedup": ("dedup",), "scorer": ("scorer",), "rowwise": plan[:conv],
        "conv": plan[:conv + 1], "scrub": ("scrub",), "write": (),
    }[stage]

    runs = []
    for _ in range(2):  # 2nd run = steady state
        t0 = time.perf_counter()
        ds = build_pipeline_from_spec(rd.read_parquet(corpus), cfg, spec, num_buckets=max(64, NUM_CPUS * 4))
        if stage == "write":
            out = "/tmp/titan_ray_stage_out"
            shutil.rmtree(out, ignore_errors=True)
            ds.write_parquet(out)
        else:
            ds.count()
        runs.append(time.perf_counter() - t0)
    ray.shutdown()
    return {"stage": stage, "num_cpus": NUM_CPUS, "sec": round(min(runs), 3)}


def run_stages() -> dict:
    """Per-stage scaling table: every stage-prefix pipeline at lo vs hi
    num_cpus in fresh processes (round-2 verdict item: show WHICH stage
    bounds the whole-pipeline scaling)."""
    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))
    sf_dir = os.environ.get("GRAFT_SCALING_SF_DIR", SF_DIR)

    def sub(stage: str, ncpu: int) -> float:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_SF_DIR=sf_dir,
                   GRAFT_STAGE=stage)
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--stage-run"],
                             env=env, capture_output=True, text=True, check=True,
                             cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        return json.loads(out.strip().splitlines()[-1])["sec"]

    table = {}
    for stage in STAGES:
        s_lo, s_hi = sub(stage, lo), sub(stage, hi)
        table[stage] = {
            "sec_lo": s_lo, "sec_hi": s_hi,
            "efficiency": round((s_lo / s_hi) / (hi / lo), 3),
        }
    return {"metric": "per_stage_scaling", "num_cpus_lo": lo, "num_cpus_hi": hi,
            "sf_dir": sf_dir, "stages": table}


if __name__ == "__main__":
    if "--stages" in sys.argv:
        print(json.dumps(run_stages()))
    elif "--stage-run" in sys.argv:
        print(json.dumps(run_stage(os.environ.get("GRAFT_STAGE", "read"))))
    else:
        print(json.dumps(run_bench()))
