"""On-disk result cache: one ``<key>.json`` envelope file per entry.

Keys are ``sha256(problem fingerprint + allocator + options + version)``
(see ``Engine.cache_key``), so stale code never serves an entry it did
not write.  The entry files are the only record: an entry's size is its
``st_size`` and its LRU position its ``st_mtime``, which every read hit
refreshes.  :class:`ResultCache` adds :meth:`stats`, LRU eviction down
to a size budget (:meth:`prune`; a constructor budget is enforced by
:meth:`flush`, once per engine run, batch or delta request) and
:meth:`clear`.

One directory scan fills an in-memory ``{key: [size, last_used]}``
view.  It runs on first use, and ``stats()`` and ``prune()`` repeat it
to pick up what other processes wrote or deleted; this instance's reads
and writes keep the view current, and a read hit touches only the mtime
(plus the view when it is loaded), so a store that is only read never
pays for a scan.  Writes are atomic (per-process tmp name + rename)
with ``OSError`` swallowed, and a file that vanishes behind the cache's
back simply drops out of the next scan: a long-running service must
survive any on-disk state it finds.

**Shared-store spill** (the ``repro fleet`` backing store): with
``shared_dir``, every write is also *spilled* to a second
:class:`ResultCache`, and a local miss falls through to it; a shared
hit is *adopted* locally, so the next lookup is a local read.

Every public method holds one re-entrant lock, so the concurrent
requests of :mod:`repro.service` can share a single instance.
"""

from __future__ import annotations

import math
import os
import threading
import time
from contextlib import suppress
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["ResultCache"]

PathLike = Union[str, Path]

# Entry keys are 64-character hex digests.  Globbing on that shape keeps
# any other ``*.json`` in the directory -- such as the ``manifest.json``
# that older versions of this cache wrote -- from counting as an entry.
_ENTRY_GLOB = "?" * 64 + ".json"


class ResultCache:
    """Size-bounded store of JSON envelope payloads, one file per key.

    Args:
        directory: cache directory (created on first write).
        max_mb: optional size budget in megabytes, enforced by
            :meth:`flush`; ``None`` means unbounded.
        shared_dir: optional second directory acting as a shared
            backing store (unbounded): writes spill to it, local misses
            fall through to it, shared hits are adopted locally.  Must
            differ from ``directory``.
    """

    def __init__(
        self,
        directory: PathLike,
        max_mb: Optional[float] = None,
        shared_dir: Optional[PathLike] = None,
    ) -> None:
        if max_mb is not None and max_mb <= 0:
            raise ValueError(f"max_mb must be positive, got {max_mb}")
        self.directory = Path(directory)
        self.max_mb = max_mb
        self.shared: Optional["ResultCache"] = None
        if shared_dir is not None:
            if Path(shared_dir).resolve() == self.directory.resolve():
                raise ValueError(
                    "shared_dir must differ from the local cache directory"
                )
            self.shared = ResultCache(shared_dir)
        self.hits = 0
        self.misses = 0
        # Lookups served by the shared backing store (a subset of hits).
        self.shared_hits = 0
        # One lock for every public method (reads, writes, scans).
        self._lock = threading.RLock()
        # {key: [size, last_used]}, filled by _view() on first use.
        self._entries: Optional[Dict[str, List[float]]] = None

    # ------------------------------------------------------------------
    # entry I/O
    # ------------------------------------------------------------------
    def entry_path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def read(self, key: str) -> Optional[str]:
        """Payload text for ``key``, or ``None`` on a miss.  A hit
        refreshes the entry's mtime (and the view, when loaded)."""
        with self._lock:
            path = self.entry_path(key)
            try:
                text = path.read_text()
            except OSError:
                spilled = (
                    self.shared.read(key) if self.shared is not None else None
                )
                if spilled is None:
                    self.misses += 1
                    return None
                # Adopt the shared entry locally: the next lookup for
                # this key is a local disk read, not a shared round-trip.
                self.hits += 1
                self.shared_hits += 1
                self._write_local(key, spilled)
                return spilled
            self.hits += 1
            now = time.time()
            with suppress(OSError):
                os.utime(path, (now, now))
            if self._entries is not None and key in self._entries:
                self._entries[key][1] = now
            return text

    def invalidate(self, key: str) -> None:
        """Drop an entry that turned out to be unusable (corrupt JSON,
        wrong shape) and reclassify its lookup as a miss, so hit-rate
        statistics only count lookups that actually served a result."""
        with self._lock:
            if self.hits > 0:
                self.hits -= 1
            self.misses += 1
            self._drop(key)
            if self.shared is not None:
                # An unusable entry adopted from the shared store is
                # just as unusable there; drop both copies (without
                # reclassifying a shared lookup that never happened).
                self.shared._drop(key)

    def _drop(self, key: str) -> None:
        """Remove one entry file and its view record; counters untouched."""
        with self._lock:
            with suppress(OSError):
                self.entry_path(key).unlink(missing_ok=True)
            if self._entries is not None:
                self._entries.pop(key, None)

    def write(self, key: str, text: str) -> None:
        """Atomically store ``text`` under ``key``, spilling it to the
        shared store when there is one (best-effort: a read-only shared
        volume degrades to a local-only cache).  :meth:`flush` enforces
        the size budget."""
        with self._lock:
            self._write_local(key, text)
            if self.shared is not None:
                self.shared.write(key, text)

    def _write_local(self, key: str, text: str) -> None:
        with self._lock:
            self.directory.mkdir(parents=True, exist_ok=True)
            path = self.entry_path(key)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            try:
                tmp.write_text(text)
                tmp.replace(path)
            except OSError:
                with suppress(OSError):
                    tmp.unlink(missing_ok=True)
                return
            if self._entries is not None:
                self._entries[key] = [len(text.encode("utf-8")), time.time()]

    def flush(self) -> None:
        """Enforce the instance's size budget, if it has one.

        The engine calls this once per run, batch or delta request, so
        a sweep sorts the entries once, not once per stored envelope.
        """
        with self._lock:
            if self.max_mb is not None:
                self._evict(self.max_mb)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stats(self, reconcile: bool = True) -> Dict[str, Any]:
        """``entries``, ``total_bytes``, ``max_bytes`` (``None`` when
        unbounded), ``directory`` and this instance's ``hits``/``misses``.

        ``reconcile=False`` serves the in-memory view without rescanning
        the directory, so it misses what other processes wrote or
        deleted since the last scan.  The service's ``/stats`` uses it:
        a poller must not hold the cache lock through thousands of
        ``stat()`` calls while allocations wait.
        """
        with self._lock:
            entries = self._view(rescan=reconcile)
            report: Dict[str, Any] = {
                "directory": str(self.directory),
                "entries": len(entries),
                "total_bytes": sum(size for size, _ in entries.values()),
                "max_bytes": (None if self.max_mb is None
                              else int(self.max_mb * 1024 * 1024)),
                "hits": self.hits,
                "misses": self.misses,
            }
            if self.shared is not None:
                report["shared_hits"] = self.shared_hits
                report["shared"] = self.shared.stats(reconcile=reconcile)
            return report

    def prune(self, max_mb: Optional[float] = None) -> Dict[str, int]:
        """Evict least-recently-used entries until under ``max_mb``.

        ``None`` falls back to the instance budget; if that is also
        ``None``, nothing is evicted.  Returns ``{"evicted": n,
        "reclaimed_bytes": b, "remaining": m}``.
        """
        budget_mb = max_mb if max_mb is not None else self.max_mb
        if budget_mb is not None and budget_mb <= 0:
            # The constructor rejects max_mb <= 0 too: full eviction is
            # what clear() is for.
            raise ValueError(f"max_mb must be positive, got {budget_mb}")
        with self._lock:
            self._view(rescan=True)
            return self._evict(budget_mb)

    def _evict(self, budget_mb: Optional[float]) -> Dict[str, int]:
        """LRU-evict entries of the view until under ``budget_mb``."""
        entries = self._view()
        budget = math.inf if budget_mb is None else budget_mb * 1024 * 1024
        total = sum(size for size, _ in entries.values())
        evicted = reclaimed = 0
        for key in sorted(entries, key=lambda k: entries[k][1]):
            if total <= budget:
                break
            size = entries[key][0]
            try:
                self.entry_path(key).unlink(missing_ok=True)
            except OSError:
                continue  # keep tracking what we could not remove
            del entries[key]
            total -= size
            evicted += 1
            reclaimed += size
        return {
            "evicted": evicted,
            "reclaimed_bytes": reclaimed,
            "remaining": len(entries),
        }

    def clear(self) -> int:
        """Remove every entry; returns the number of entries removed."""
        with self._lock:
            removed = 0
            for path in self.directory.glob(_ENTRY_GLOB):
                try:
                    path.unlink(missing_ok=True)
                    removed += 1
                except OSError:
                    pass
            self._entries = {}
            return removed

    def _view(self, rescan: bool = False) -> Dict[str, List[float]]:
        """The ``{key: [size, last_used]}`` view, scanning the
        directory on first use or when ``rescan`` asks for it."""
        with self._lock:
            if rescan or self._entries is None:
                entries: Dict[str, List[float]] = {}
                for path in self.directory.glob(_ENTRY_GLOB):
                    try:
                        stat = path.stat()
                    except OSError:
                        continue  # deleted between the glob and the stat
                    entries[path.stem] = [stat.st_size, stat.st_mtime]
                self._entries = entries
            return self._entries
