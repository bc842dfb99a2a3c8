"""An open-loop load generator.

Requests are due on a schedule fixed before the run starts; a sender
thread takes the next due request, waits until it is due, sends it and
records when it finished.  A request's latency runs from when it was
*due*, so a stalled server also charges the requests queued behind the
stall, and ``lag`` records how late each request actually left.  At
most ``connections`` requests are in flight, one per sender thread.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence


@dataclass
class Sent:
    """One request of an open-loop run (times in seconds)."""

    index: int
    due: float
    started: float = 0.0
    finished: float = 0.0
    answer: Any = None
    error: Optional[BaseException] = None

    @property
    def latency(self) -> float:
        return self.finished - self.due

    @property
    def lag(self) -> float:
        return self.started - self.due


def open_loop(
    offsets: Sequence[float],
    send: Callable[[int], Any],
    connections: int,
) -> List[Sent]:
    """Send request ``i`` at ``offsets[i]`` seconds after the start.

    ``send(i)`` performs request ``i`` and returns its answer; an
    exception it raises is recorded as that request's error.
    """
    start = time.perf_counter() + 0.05
    records = [Sent(index, start + offset) for index, offset in enumerate(offsets)]
    lock = threading.Lock()
    cursor = iter(records)

    def sender() -> None:
        while True:
            with lock:
                record = next(cursor, None)
            if record is None:
                return
            delay = record.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            record.started = time.perf_counter()
            try:
                record.answer = send(record.index)
            except Exception as exc:  # noqa: BLE001 -- a failed request
                record.error = exc
            record.finished = time.perf_counter()

    threads = [
        threading.Thread(target=sender, name=f"perfbench-sender-{n}")
        for n in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records
