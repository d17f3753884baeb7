"""Launch, measurement and teardown plumbing shared by every workload.

The benchmark must run the same way on a 1-core host and on a large
host, so Ray always starts with the same LOGICAL CPU count (never derived
from ``nproc`` or the affinity mask, which are only recorded), a fixed
object-store size, and a Ray temp dir of the benchmark's own. Every Ray
process is stopped and reaped before a run ends.

Run as a script (``python3 qcperf/harness.py --probe TEMP_DIR``) this module
is the set-up probe: it performs exactly the set-up a measured run performs,
prints ``READY`` and shuts down, so a run can time set-up several times.
"""

from __future__ import annotations

import ctypes
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".qcperf_work"
RAY_TEMP = ROOT / ".qcperf_ray"   # short: Ray's socket paths must fit 107 bytes
TRACE_DIR = ROOT / ".qcperf_out"

# Fixed on every host: at num_cpus=1 the flagship's two actor pools plus the
# shuffle tasks deadlock; 4 logical slots run it on a single physical core.
LOGICAL_CPUS = 4
OBJECT_STORE_BYTES = 512 * 1024 * 1024
# AF_UNIX socket paths are capped at 107 bytes and Ray appends
# "/session_<date>_<time>_<usec>_<pid>/sockets/plasma_store" (<= 63 bytes).
MAX_RAY_TEMP_LEN = 107 - 63


def host_info() -> dict:
    """nproc, affinity and start-time load: recorded, never acted on."""
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True, text=True, timeout=5).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    affinity = sorted(os.sched_getaffinity(0))
    with open("/proc/loadavg") as f:
        load = [float(x) for x in f.read().split()[:3]]
    return {
        "ray_logical_cpus": LOGICAL_CPUS,
        "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(affinity),
        "affinity_mask": hex(sum(1 << c for c in affinity)),
        "loadavg_at_start": load,
    }


def cpu_ticks() -> tuple[int, int, int]:
    """(all, busy, stolen) CPU ticks so far, summed over the host's CPUs.
    Stolen ticks are time the hypervisor ran another guest on a CPU this
    host wanted to run on; on a shared VM they explain most of the
    run-to-run spread, so a run records their share."""
    with open("/proc/stat") as f:
        t = [int(x) for x in f.readline().split()[1:]]
    return sum(t), sum(t) - t[3] - t[4], t[7] if len(t) > 7 else 0


def stolen_share(before: tuple, after: tuple) -> float:
    """Share of the busy CPU time between two ``cpu_ticks()`` readings
    that the hypervisor stole."""
    busy = after[1] - before[1]
    return (after[2] - before[2]) / busy if busy > 0 else 0.0


def ray_temp_dir() -> Path:
    """A Ray temp dir inside the checkout when its path is short enough for
    Ray's socket names; otherwise a short private dir under the system temp
    dir. The caller removes it when the run ends."""
    if len(str(RAY_TEMP)) <= MAX_RAY_TEMP_LEN:
        RAY_TEMP.mkdir(parents=True, exist_ok=True)
        return RAY_TEMP
    return Path(tempfile.mkdtemp(prefix="qcp", dir="/tmp"))


# Every process a run starts inherits this variable, so teardown can find
# one that left the process tree (see ``own_pids``).
RUN_MARK = "QCPERF_RUN_MARK"
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the child subreaper of everything it starts, and
    mark the environment every child inherits. When ray.shutdown() stops the
    raylet, its agents and workers would be re-parented to init and outlive
    the run by seconds; as a subreaper this process adopts them instead, so
    ``stop_ray`` can wait for and reap them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # the environment mark still finds them
    os.environ.setdefault(RUN_MARK, f"{os.getpid()}-{time.time_ns()}")


def _ppid(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return int(f.read().rsplit(")", 1)[1].split()[1])
    except (OSError, ValueError, IndexError):
        return 0


def marked_pids() -> list[int]:
    """Live (non-zombie) processes that carry this run's environment mark,
    except this process and its ancestors (the set-up probe inherits the
    mark from the run that spawned it)."""
    mark = f"{RUN_MARK}={os.environ.get(RUN_MARK, '')}".encode()
    if not os.environ.get(RUN_MARK):
        return []
    mine, pid = set(), os.getpid()
    while pid > 1:
        mine.add(pid)
        pid = _ppid(pid)
    out = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) in mine:
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                if f.read().rsplit(")", 1)[1].split()[0] == "Z":
                    continue
            with open(f"/proc/{name}/environ", "rb") as f:
                if mark in f.read().split(b"\0"):
                    out.append(int(name))
        except (OSError, IndexError):
            continue
    return out


def own_pids() -> list[int]:
    """Every process this run started that still exists: descendants
    (zombies included, until reaped) and marked processes outside the tree."""
    return sorted(set(descendants(os.getpid())) | set(marked_pids()))


def keep_temp_files_in(tmp: Path, ray_tmp: Path) -> None:
    """Point this process's and its children's temp files (Python tempfile,
    Ray's user temp dir) into the run's own directories."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["RAY_TMPDIR"] = str(ray_tmp)
    tempfile.tempdir = None


def start_ray(temp_dir: Path) -> None:
    """Ray up, the program imported and the scorer models shared."""
    import logging

    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ.setdefault("RAY_BACKEND_LOG_LEVEL", "fatal")
    import ray

    ray.init(
        address="local",
        num_cpus=LOGICAL_CPUS,
        object_store_memory=OBJECT_STORE_BYTES,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        _temp_dir=str(temp_dir),
    )
    logging.disable(logging.WARNING)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__  # noqa: F401  (the program's operator registry)
    import titan_ray.state.lineage  # noqa: F401
    from titan_ray.stages.scorer import shared_model_refs

    if shared_model_refs() is None:
        raise RuntimeError("scorer models could not be shared through the object store")


def settle(timeout_s: float = 10.0) -> tuple[float, float]:
    """Untimed, before each execution: collect garbage and wait until every
    logical CPU is free again. This works around a program defect: actors of
    a finished execution stay alive (holding a CPU slot each) until a cyclic
    GC drops the last reference to them, so back-to-back executions would
    start with fewer and fewer slots. The defect is reported, not hidden:
    the traced run prints the slots found held as ``settle.slots_held``.
    Returns (CPU slots free on entry, seconds waited)."""
    import gc

    import ray

    t0 = time.perf_counter()
    free = ray.available_resources().get("CPU", 0.0)
    gc.collect()
    while (ray.available_resources().get("CPU", 0.0) < LOGICAL_CPUS
           and time.perf_counter() - t0 < timeout_s):
        time.sleep(0.05)
    return free, time.perf_counter() - t0


def process_start_wall() -> float:
    """Wall-clock time this process was started (10 ms resolution)."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return time.time() - (uptime - start_ticks / os.sysconf("SC_CLK_TCK"))


def probe_setup(temp_dir: Path, timeout_s: float = 60.0) -> float:
    """Seconds from spawning a fresh interpreter to its set-up being done."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe", str(temp_dir)],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    try:
        ready = _read_ready(proc, timeout_s)
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=timeout_s)
    finally:
        if proc.poll() is None:  # hung: take its Ray cluster down with it
            for pid in [proc.pid, *descendants(proc.pid)]:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            proc.wait()
    if not ready or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def _read_ready(proc: subprocess.Popen, timeout_s: float) -> bool:
    box: list[str] = []
    reader = threading.Thread(target=lambda: box.append(proc.stdout.readline()), daemon=True)
    reader.start()
    reader.join(timeout_s)
    return bool(box) and box[0].strip() == "READY"


# ---------------------------------------------------------------------------
# process tree: PSS sampling and reaping
# ---------------------------------------------------------------------------

def descendants(root_pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            children.setdefault(_ppid(int(name)), []).append(int(name))
    out, todo = [], [root_pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def pss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as f:
            for line in f:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


class PssSampler:
    """Background sampler of the summed PSS of this process and its whole
    process tree (the Ray cluster it started). ``peak_mb`` covers only the
    intervals between ``resume()`` and ``pause()``."""

    def __init__(self, interval_s: float = 0.5):
        self.interval_s = interval_s
        self.peak_kb = 0
        self._lock = threading.Lock()
        self._active = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._active.set()
        self._thread.join(5)

    def resume(self):
        self._active.set()

    def pause(self):
        self._sample()
        self._active.clear()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0

    def _sample(self):
        me = os.getpid()
        total = sum(pss_kb(p) for p in [me, *descendants(me)])
        with self._lock:
            self.peak_kb = max(self.peak_kb, total)

    def _loop(self):
        while not self._stop.is_set():
            self._active.wait()
            if self._stop.is_set():
                return
            self._sample()
            self._stop.wait(self.interval_s)


def stop_ray(grace_s: float = 0.5, timeout_s: float = 10.0) -> list[int]:
    """ray.shutdown(), then stop every process the run started (``own_pids``:
    adopted orphans and marked processes too) and wait until each has ended.
    Ray's agents notice the raylet is gone only about 2 s after it is, so
    whatever outlives a short grace gets SIGTERM, and SIGKILL if it is still
    there ``timeout_s`` later. Returns the pids that needed SIGKILL."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    killed: list[int] = []
    for sig, wait_s in ((None, grace_s), (signal.SIGTERM, timeout_s), (signal.SIGKILL, 5.0)):
        if sig is not None:
            left = own_pids()
            if sig == signal.SIGKILL:
                killed = left
            for pid in left:
                try:
                    os.kill(pid, sig)
                except ProcessLookupError:
                    pass
        deadline = time.monotonic() + wait_s
        while own_pids() and time.monotonic() < deadline:
            _reap()
            time.sleep(0.05)
    _reap()
    return killed


def _reap():
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def run_with_deadline(fn, deadline_s: float):
    """Run ``fn()`` on a daemon thread. Returns (seconds, result, error);
    error is "deadline" if it did not finish in ``deadline_s``."""
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as e:  # reported as a failed execution
            box["error"] = f"{type(e).__name__}: {e}"

    t0 = time.perf_counter()
    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(max(deadline_s, 0.0))
    seconds = time.perf_counter() - t0
    if th.is_alive():
        return seconds, None, "deadline"
    return seconds, box.get("result"), box.get("error")


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--probe":
        raise SystemExit("usage: harness.py --probe RAY_TEMP_DIR")
    sys.path.insert(0, str(ROOT))
    adopt_orphans()
    start_ray(Path(sys.argv[2]))
    print("READY", flush=True)
    stop_ray()
