"""Shared plumbing: sample statistics, host facts, the server subprocess.

Nothing here knows about a particular workload.
"""

from __future__ import annotations

import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

T = TypeVar("T")

ROOT = Path(__file__).resolve().parent.parent
#: everything the benchmark writes lives here (git-ignored, inside the
#: checkout: the driver forbids writing anywhere else)
WORK = ROOT / ".bench_work"

_BANNER = re.compile(r"http://[\d.]+:(\d+)")


# -- statistics -------------------------------------------------------------


def summary(samples: Sequence[float]) -> Dict[str, float]:
    """n, median and quartiles of a sample (quartiles need two points)."""
    out = {"n": len(samples)}
    if samples:
        out["median"] = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def tail_percentile(samples: Sequence[float], percent: float) -> float:
    """A percentile above the median, refused unless at least ten samples
    lie beyond it — fewer make it a statement about single requests."""
    if not 50 < percent < 100:
        raise ValueError(f"tail percentile must be in (50, 100), got {percent}")
    if len(samples) * (100 - percent) / 100 < 10:
        raise ValueError(
            f"p{percent:g} of {len(samples)} samples has fewer than ten beyond it"
        )
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * percent / 100))]


class Speedometer:
    """How fast the host is running right now, from a fixed NumPy kernel.

    The sandbox this benchmark was defined on speeds up and slows down by
    10-15 % in phases of tens of seconds, for everything running on it at
    once: raw timings of the same commit then spread wider than any
    regression bound worth having.  The kernel (sort, unique, bincount,
    lexsort over 100 000 fixed values — the operations the engine spends
    its time in) is timed right beside every measured unit (``lap``; for
    windows of concurrent clients see ``QuietSampler``), and a timing is
    reported at nominal speed: ``raw * NOMINAL_SECONDS / kernel seconds``.  Both sides of any comparison run the same benchmark code,
    so the scaling cancels; the raw value is kept in the detail file.
    """

    #: the kernel's median on the host the benchmark was defined on
    NOMINAL_SECONDS = 0.0225

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(100_000)
        self._codes = rng.integers(0, 5_000, 100_000)
        self.samples: List[Tuple[float, float]] = []  # (when, kernel seconds)

    def sample(self) -> float:
        start = time.perf_counter()
        np.sort(self._values)
        np.unique(self._codes, return_inverse=True)
        np.bincount(self._codes, weights=self._values)
        np.lexsort((self._values, self._codes))
        end = time.perf_counter()
        self.samples.append((end, end - start))
        return end - start

    def speed(self, start: float = 0.0, end: float = float("inf")) -> float:
        """Host speed over [start, end] of ``perf_counter``; 1.0 = nominal."""
        inside = [s for when, s in self.samples if start <= when <= end]
        return self.NOMINAL_SECONDS / statistics.median(inside)

    def lap(self, unit: Callable[[], T]) -> Tuple[float, float, T]:
        """Run one unit with a sample on either side (a sample just taken
        is reused); returns (raw seconds, seconds at nominal speed, result)."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] > 0.1:
            self.sample()
        before = self.samples[-1][1]
        start = time.perf_counter()
        result = unit()
        raw = time.perf_counter() - start
        after = self.sample()
        return raw, raw * self.NOMINAL_SECONDS / ((before + after) / 2), result


class QuietSampler:
    """Samples the speedometer inside a window of concurrent clients, with
    the clients parked so the kernel runs alone.

    One client thread leads: when it calls ``sample`` the other client
    threads park at their next ``checkpoint`` (between two requests — the
    loops are closed, so nothing is in flight and the server is idle),
    the leader times the kernel and releases them.  ``paused`` is the
    time the leader spent doing so, to be taken off the window.
    """

    def __init__(self, meter: Speedometer, followers: int):
        self.meter = meter
        self.paused = 0.0
        self._followers = followers
        self._parked = 0
        self._wanted = False
        self._cond = threading.Condition()

    def checkpoint(self) -> None:
        """A follower, between two ops."""
        with self._cond:
            if self._wanted:
                self._parked += 1
                self._cond.notify_all()
                self._cond.wait_for(lambda: not self._wanted)
                self._parked -= 1

    def leave(self) -> None:
        """A follower that makes no more requests."""
        with self._cond:
            self._followers -= 1
            self._cond.notify_all()

    def sample(self) -> None:
        """The leader, between two ops."""
        start = time.perf_counter()
        with self._cond:
            self._wanted = True
            self._cond.wait_for(lambda: self._parked >= self._followers, timeout=1.0)
        try:
            self.meter.sample()
        finally:
            with self._cond:
                self._wanted = False
                self._cond.notify_all()
        self.paused += time.perf_counter() - start


# -- host -------------------------------------------------------------------


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a live process (this one by default), in MB."""
    with open(f"/proc/{pid or os.getpid()}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (absent in the driver's)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return None


def host_facts() -> Dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
    }


def fresh_dir(prefix: str) -> str:
    WORK.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=WORK)


# -- the server under test --------------------------------------------------


class ServerProcess:
    """``python -m repro --scale S serve retailer --port 0 --data-dir D``.

    Every other flag stays at its default.  The ephemeral port is parsed
    from the banner; the process is only ever signalled by its recorded
    PID.
    """

    def __init__(self, dataset: str, scale: float, data_dir: str):
        from repro.server import AnalyticsClient

        self.data_dir = data_dir
        self._log_path = os.path.join(data_dir, "server.log")
        env = dict(os.environ, PYTHONUNBUFFERED="1", MALLOC_ARENA_MAX="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        with open(self._log_path, "w") as log:
            self.process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "--scale", repr(scale),
                    "serve", dataset, "--port", "0", "--data-dir", data_dir,
                ],
                cwd=ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        try:
            self.port = self._await_banner(timeout=60.0)
            self.client = AnalyticsClient(port=self.port)
            self.client.wait_ready(timeout=30.0)
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.process.pid

    def _await_banner(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self._log_path) as log:
                match = _BANNER.search(log.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.01)
        with open(self._log_path) as log:
            raise RuntimeError(f"server did not come up:\n{log.read()}")

    def kill(self) -> None:
        """SIGKILL by PID and reap (the crash the WAL must survive)."""
        if self.process.poll() is None:
            os.kill(self.process.pid, signal.SIGKILL)
        self.process.wait()


class Servers:
    """Owns every server and data directory a workload creates, so one
    ``close`` in a ``finally`` leaves no process or file behind."""

    def __init__(self, dataset: str, scale: float):
        self.dataset = dataset
        self.scale = scale
        self._servers: List[ServerProcess] = []
        self._dirs: List[str] = []

    def boot(self, data_dir: Optional[str] = None) -> ServerProcess:
        if data_dir is None:
            data_dir = fresh_dir("data-")
            self._dirs.append(data_dir)
        server = ServerProcess(self.dataset, self.scale, data_dir)
        self._servers.append(server)
        return server

    def close(self) -> None:
        for server in self._servers:
            server.kill()
        for directory in self._dirs:
            shutil.rmtree(directory, ignore_errors=True)
