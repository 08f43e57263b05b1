"""Ray session lifecycle for the benchmark: start, tear down, process
accounting, and deadlines that keep a hung job from sinking a run.

Every process the session starts is a descendant of the benchmark
process, so teardown records them from ``/proc`` before ``ray.shutdown()``
and then waits until each has exited, killing any that outlive the grace
period.  Only processes this benchmark started are touched: ``ray stop
--force`` would also kill Ray sessions that belong to someone else.
"""

from __future__ import annotations

import logging
import os
import signal
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

#: Linux limit on a Unix socket path; Ray puts its sockets under the temp dir
_SOCKET_PATH_MAX = 107
#: length Ray appends under its temp dir, e.g.
#: ``/session_2026-10-17_12-38-51_015130_14628/sockets/plasma_store``
_RAY_SOCKET_SUFFIX = 64
OBJECT_STORE_BYTES = 512 * 1024 * 1024


def nproc() -> int:
    """What ``nproc`` prints: the CPUs this process may use, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    return int(subprocess.run(["nproc"], capture_output=True, text=True,
                              check=True).stdout)


def _proc_table() -> Dict[int, tuple]:
    """pid -> (ppid, state) for every live process in /proc."""
    out = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        out[int(d)] = (int(fields[1]), fields[0])
    return out


def descendants(pid: Optional[int] = None) -> List[int]:
    """Every live descendant of ``pid`` (default: this process)."""
    root = os.getpid() if pid is None else pid
    children: Dict[int, List[int]] = {}
    for p, (ppid, state) in _proc_table().items():
        if state != "Z":
            children.setdefault(ppid, []).append(p)
    out, todo = [], [root]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def host_steal_s() -> float:
    """CPU time the hypervisor gave to others while this machine's CPUs
    wanted to run, summed over its CPUs since boot (``steal`` in
    /proc/stat).  Time stolen during a run slows it without any change in
    the program, so the run record keeps it next to the op times."""
    with open("/proc/stat") as f:
        steal = int(f.readline().split()[8])
    return steal / os.sysconf("SC_CLK_TCK")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS, so the peak
    covers the measured phase and not input generation."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_by_process() -> Dict[str, float]:
    """``VmHWM`` in MB of this process and each live descendant, keyed by
    ``<pid>:<command name>``."""
    out = {}
    for p in [os.getpid()] + descendants():
        try:
            with open(f"/proc/{p}/comm") as f:
                name = f.read().strip()
        except OSError:
            continue
        out[f"{p}:{name}"] = _vm_hwm_kb(p) / 1024.0
    return out


def kill_and_wait(pids: List[int], grace_s: float) -> List[int]:
    """Wait up to ``grace_s`` for ``pids`` to exit, SIGKILL the rest and
    wait for them too.  Returns the pids still alive at the end."""
    deadline = time.monotonic() + grace_s
    live = [p for p in pids if _alive(p)]
    while live and time.monotonic() < deadline:
        time.sleep(0.05)
        live = [p for p in live if _alive(p)]
    for p in live:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while live and time.monotonic() < deadline:
        time.sleep(0.05)
        live = [p for p in live if _alive(p)]
    return live


class RaySession:
    """One local Ray session with ``num_cpus`` = ``nproc``.

    ``temp_dir`` holds Ray's session files when its socket paths fit the
    Unix limit; otherwise Ray's default temp dir is used."""

    def __init__(self, temp_dir: str):
        self.temp_dir = temp_dir if (
            len(os.path.abspath(temp_dir)) + _RAY_SOCKET_SUFFIX
            <= _SOCKET_PATH_MAX) else None

    def start(self) -> None:
        import ray
        from ray.data import DataContext
        kwargs = {"_temp_dir": os.path.abspath(self.temp_dir)} \
            if self.temp_dir else {}
        ray.init(address="local", num_cpus=nproc(),
                 include_dashboard=False, logging_level="ERROR",
                 object_store_memory=OBJECT_STORE_BYTES, **kwargs)
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)

    def stop(self) -> List[int]:
        """``ray.shutdown()``, then wait for every process the session
        started.  Returns the pids that could not be stopped."""
        import ray
        pids = descendants()
        ray.shutdown()
        return kill_and_wait(pids, grace_s=15.0)


@dataclass
class OpResult:
    wall_s: float
    value: object = None
    error: Optional[str] = None
    hung: bool = False


def call_with_deadline(fn: Callable[[], object], timeout_s: float) -> OpResult:
    """Run ``fn`` on a worker thread; an exception or a missed deadline
    becomes a failed result instead of stopping the benchmark."""
    box: Dict[str, object] = {}

    def target():
        t0 = time.perf_counter()
        try:
            box["value"] = fn()
        except Exception:  # a failed op is counted, not fatal
            box["error"] = traceback.format_exc()
        box["wall_s"] = time.perf_counter() - t0

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        return OpResult(wall_s=timeout_s, error=f"timeout after {timeout_s}s",
                        hung=True)
    return OpResult(wall_s=box["wall_s"], value=box.get("value"),
                    error=box.get("error"))


def start_watchdog(deadline_s: float) -> None:
    """Hard stop: after ``deadline_s`` kill every descendant and exit with
    code 3 without printing a result."""
    def fire():
        sys.stderr.write(f"perfbench: run exceeded {deadline_s}s, aborting\n")
        sys.stderr.flush()
        kill_and_wait(descendants(), grace_s=0.0)
        os._exit(3)

    t = threading.Timer(deadline_s, fire)
    t.daemon = True
    t.start()
