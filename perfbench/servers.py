"""The served topology: ``repro fleet`` over two ``repro serve`` workers.

Every process is started through ``perfbench/launch.py`` so the plain
and traced runs use one topology and one start path; the traced run
only adds ``--trace-dir``.  Set-up time runs from the first launch to
the answer of one warm-up request through the coordinator.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.engine import AllocationRequest
from repro.service import ServiceClient, ServiceError
from repro.service.fleet import free_port

from .inputs import warmup_problem
from .measure import vm_hwm_mb

LAUNCHER = Path(__file__).resolve().parent / "launch.py"
#: Concurrent solves per ``repro serve`` process.
SERVE_WORKERS = 2
_START_DEADLINE = 60.0
_STOP_DEADLINE = 15.0


def _wait_healthy(url: str) -> None:
    client = ServiceClient(url, timeout=5.0)
    deadline = time.monotonic() + _START_DEADLINE
    while True:
        try:
            client.healthz()
            return
        except ServiceError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.005)


class Topology:
    """The processes behind the served workload: two ``repro serve
    --workers 2`` workers, each with its own result cache spilling to
    one shared store, fronted by ``repro fleet --worker-url ...
    --worker-url ...`` reading through the same store."""

    def __init__(self, work_dir: Path, trace_dir: Optional[Path] = None) -> None:
        self.work_dir = Path(work_dir)
        self.trace_dir = trace_dir
        self.processes: List[subprocess.Popen] = []
        self.worker_urls: List[str] = []
        self.url = ""

    def _launch(self, name: str, args: List[str]) -> str:
        port = free_port()
        command = [sys.executable, str(LAUNCHER)]
        if self.trace_dir is not None:
            command += ["--trace-dir", str(self.trace_dir)]
        command += ["--", *args, "--host", "127.0.0.1", "--port", str(port)]
        log = open(self.work_dir / f"{name}.log", "wb")
        try:
            self.processes.append(subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL,
            ))
        finally:
            log.close()
        return f"http://127.0.0.1:{port}"

    def _serve_args(self, index: int) -> List[str]:
        return [
            "serve", "--workers", str(SERVE_WORKERS),
            "--cache-dir", str(self.work_dir / f"cache-{index}"),
            "--shared-cache-dir", str(self.work_dir / "store"),
        ]

    def start(self) -> float:
        """Launch, wait until healthy, answer one warm-up request;
        returns the seconds this took."""
        began = time.perf_counter()
        try:
            self.worker_urls = [
                self._launch(f"worker-{index}", self._serve_args(index))
                for index in range(2)
            ]
            for url in self.worker_urls:
                _wait_healthy(url)
            fleet_args = ["fleet", "--shared-cache-dir", str(self.work_dir / "store")]
            for url in self.worker_urls:
                fleet_args += ["--worker-url", url]
            self.url = self._launch("coordinator", fleet_args)
            _wait_healthy(self.url)
            answer = ServiceClient(self.url, timeout=60.0).run(
                AllocationRequest(warmup_problem(), "dpalloc", label="warmup")
            )
            if not answer.ok:
                raise RuntimeError(f"warm-up request failed: {answer.error}")
        except BaseException:
            self.stop()
            raise
        return time.perf_counter() - began

    def stats(self) -> Dict[str, Any]:
        """``/v1/stats`` of the coordinator and of each worker."""
        return {
            "front": ServiceClient(self.url, timeout=10.0).stats(),
            "workers": [
                ServiceClient(url, timeout=10.0).stats()
                for url in self.worker_urls
            ],
        }

    def peak_rss_mb(self) -> float:
        """Summed ``VmHWM`` of every process of the topology."""
        return sum(vm_hwm_mb(process.pid) for process in self.processes)

    def stop(self) -> None:
        """SIGTERM every process (coordinator first) and wait for each."""
        for process in reversed(self.processes):
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + _STOP_DEADLINE
        for process in reversed(self.processes):
            try:
                process.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        self.processes = []
