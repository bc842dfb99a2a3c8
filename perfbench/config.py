"""The benchmark's definition, read from ``BENCHMARK.json`` at the root
of the checkout: the workload names and every metric's name and unit.
The code reports exactly what that file lists."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Tuple

ROOT = Path(__file__).resolve().parents[1]
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOADS: Tuple[str, ...] = tuple(w["name"] for w in CONFIG["workloads"])
#: (name, unit) of every end-to-end metric, in report order.
END_TO_END: Tuple[Tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in CONFIG["end_to_end"]
)
#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = tuple(
    (m["name"], m["unit"]) for m in CONFIG["per_layer"]
)
