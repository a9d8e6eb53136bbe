"""Child-process plumbing: timed runs with ``os.wait4`` rusage, and services.

Every program the benchmark starts runs in its own session (process group),
so a run that leaves pool workers or daemons behind can be put down as a
whole; ``stop`` waits for the leader and then for the group to empty.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Child:
    """One finished child process."""

    argv: List[str]
    rc: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str

    @property
    def ok(self) -> bool:
        return self.rc == 0 and TRACEBACK not in self.stderr

    def describe(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"{' '.join(self.argv[2:])!s} exited {self.rc}: {tail[0][:200]}"


def repro(*args: str) -> List[str]:
    """argv for one ``repro`` CLI invocation from the checkout's sources."""
    return [sys.executable, "-m", "repro.cli", *args]


def child_env(workdir: Path, **extra: str) -> Dict[str, str]:
    """Environment for children: the checkout's ``src`` on the path, scratch
    files under *workdir*, no inherited ``REPRO_*`` knobs, and one fixed
    hash seed, so that set and dict layouts do not differ between runs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir / "tmp")
    env.update(extra)
    return env


def _kill_group(pid: int, sig: int = signal.SIGKILL) -> None:
    try:
        os.killpg(pid, sig)
    except (ProcessLookupError, PermissionError):
        pass


def _group_alive(pid: int) -> bool:
    try:
        os.killpg(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    return True


class Running:
    """A started child; :meth:`wait` reaps it and returns a :class:`Child`."""

    def __init__(self, argv: List[str], cwd: Path, env: Dict[str, str]):
        self.argv = argv
        scratch = Path(env["TMPDIR"])
        scratch.mkdir(parents=True, exist_ok=True)
        self._out = tempfile.TemporaryFile(dir=scratch)
        self._err = tempfile.TemporaryFile(dir=scratch)
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=self._out, stderr=self._err, start_new_session=True
        )

    def wait(self, timeout: float = 150.0) -> Child:
        timer = threading.Timer(timeout, _kill_group, (self.proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - self.start
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._reap_group()
        outputs = []
        for handle in (self._out, self._err):
            handle.seek(0)
            outputs.append(handle.read().decode("utf-8", "replace"))
            handle.close()
        return Child(self.argv, self.proc.returncode, wall, usage.ru_maxrss / 1024.0, *outputs)

    def _reap_group(self) -> None:
        """Put down anything the child left in its session and wait for it."""
        _kill_group(self.proc.pid)
        deadline = time.monotonic() + 10.0
        while _group_alive(self.proc.pid) and time.monotonic() < deadline:
            time.sleep(0.02)

    def stop(self) -> Child:
        """Terminate a long-running service (SIGTERM, then SIGKILL after 10 s)."""
        if self.proc.returncode is None:
            _kill_group(self.proc.pid, signal.SIGTERM)
        return self.wait(timeout=10.0)


def run(argv: List[str], cwd: Path, env: Dict[str, str], timeout: float = 150.0) -> Child:
    return Running(argv, cwd, env).wait(timeout)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def wait_http(url: str, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while True:
        try:
            with urllib.request.urlopen(url, timeout=2.0):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise RuntimeError(f"{url} did not come up within {timeout:.0f}s")
            time.sleep(0.01)


def start_cache_service(cache_dir: Path, cwd: Path, env: Dict[str, str]) -> "tuple[Running, str]":
    """``repro cache serve`` on a free port; returns the service and its URL."""
    port = free_port()
    service = Running(repro("cache", "serve", "--cache-dir", str(cache_dir), "--port", str(port)), cwd, env)
    url = f"http://127.0.0.1:{port}"
    try:
        wait_http(f"{url}/healthz")
    except RuntimeError:
        service.stop()
        raise
    return service, url


def load_average() -> Optional[List[float]]:
    try:
        return [round(x, 2) for x in os.getloadavg()]
    except OSError:
        return None
