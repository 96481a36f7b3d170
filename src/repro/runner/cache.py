"""Digest-keyed result and check-report caches for scenario sweeps.

An entry is keyed by a digest of the scenario's full specification plus
a digest over every ``.py`` file in the ``repro`` package.  Editing any
source file, or any field of the spec, therefore invalidates exactly the
runs whose results could have changed — a warm re-sweep only re-executes
what moved.

Like a state message, an entry is updated in place: only the newest
value counts.  Each store is one directory,
``<cache_dir>/<kind>-v<CACHE_FORMAT>/``, holding one ``<scenario>.json``
per scenario with its key stored inside.  A put overwrites that file and
a read whose key differs is a miss.  Everything under the cache
directory is safe to delete at any time.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ..ledger.store import spec_digest
from .scenarios import ScenarioSpec

__all__ = ["CheckCache", "ResultCache", "check_key", "code_digest",
           "result_key"]

#: bump to invalidate every existing cache entry on format changes (it
#: names the store directories, so older entries are never read)
CACHE_FORMAT = 3

#: Size cap of one store directory (see ``_Store``).
DEFAULT_CACHE_MAX_BYTES = 64 * 1024 * 1024


def _file_sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def code_digest(roots: tuple[Path, ...] | None = None) -> str:
    """Digest of every ``.py`` file under ``roots`` (default: the
    installed ``repro`` package), keyed by stable relative path."""
    if roots is None:
        roots = (Path(__file__).resolve().parent.parent,)
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(_file_sha(path).encode())
    return h.hexdigest()


def _key(kind: str, spec: ScenarioSpec, code: str) -> str:
    return spec_digest({"format": CACHE_FORMAT, "kind": kind,
                        "spec": spec.as_dict(), "code": code})


def result_key(spec: ScenarioSpec, code: str) -> str:
    """Cache key for one scenario under one code state."""
    return _key("results", spec, code)


def check_key(spec: ScenarioSpec, code: str) -> str:
    """Check-report cache key for one scenario under one code state.

    Keyed on the full spec plus the whole-package code digest: any
    source edit anywhere in ``repro`` invalidates every cached report.
    Deliberately conservative — analyzer results depend on builders,
    VN/gateway internals, and the rule implementations alike, and a
    static check re-run costs milliseconds while a stale verdict could
    admit a broken configuration to a thousand-scenario sweep.
    """
    return _key("checks", spec, code)


class _Store:
    """One JSON file per scenario under ``<cache_dir>/<kind>-v<format>/``.

    A size cap (``max_bytes``) evicts the oldest-written entries first,
    never the one just written, so a long-lived checkout accumulating
    many scenario names cannot grow unboundedly.  The :attr:`counters`
    that must outlive a process live in a ``_meta.json`` beside the
    entries.
    """

    kind = ""
    #: payload field holding the stored value, and the value's type
    field = ""
    value_type: type = dict
    counters: tuple[str, ...] = ("evictions",)

    def __init__(self, cache_dir: str | Path = ".repro_cache",
                 max_bytes: int = DEFAULT_CACHE_MAX_BYTES) -> None:
        self.root = Path(cache_dir) / f"{self.kind}-v{CACHE_FORMAT}"
        self.max_bytes = max_bytes
        self._meta = self.root / "_meta.json"
        # Entry name -> byte size, oldest-written first: one directory
        # scan on the first put, then maintained, so N puts cost O(N).
        # Advisory only — another process writing the same store at
        # worst skews eviction order, never correctness.
        self._sizes: dict[str, int] | None = None
        self._total = 0

    def path_for(self, spec: ScenarioSpec) -> Path:
        return self.root / f"{spec.name}.json"

    def entries(self) -> list[Path]:
        """Every entry file, oldest-written first."""
        if not self.root.is_dir():
            return []
        return sorted((p for p in self.root.glob("*.json")
                       if p != self._meta),
                      key=lambda p: (p.stat().st_mtime, p.name))

    def _load(self, path: Path, key: str | None = None):
        """The value stored in ``path``, or ``None`` when the file is
        unreadable, foreign, or (given ``key``) holds another key."""
        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or (
                key is not None and payload.get("key") != key):
            return None
        value = payload.get(self.field)
        return value if isinstance(value, self.value_type) else None

    def values(self) -> list:
        """Every readable stored value, whatever its key."""
        return [v for v in map(self._load, self.entries()) if v is not None]

    def _put(self, items: list[tuple[ScenarioSpec, str, object]]) -> list[Path]:
        """Write each ``(spec, key, value)`` over its scenario's file,
        then evict to the cap sparing the last one written."""
        if self._sizes is None:
            self._sizes = {p.name: p.stat().st_size for p in self.entries()}
            self._total = sum(self._sizes.values())
        self.root.mkdir(parents=True, exist_ok=True)
        written = []
        for spec, key, value in items:
            path = self.path_for(spec)
            data = json.dumps({"key": key, "spec": spec.as_dict(),
                               self.field: value},
                              indent=2, sort_keys=True) + "\n"
            path.write_text(data)
            # re-insert at the newest end of the (insertion-ordered) index
            self._total -= self._sizes.pop(path.name, 0)
            self._sizes[path.name] = len(data.encode())
            self._total += self._sizes[path.name]
            written.append(path)
        evicted = 0
        for name in list(self._sizes):
            if self._total <= self.max_bytes:
                break
            if written and name == written[-1].name:
                continue
            (self.root / name).unlink(missing_ok=True)
            self._total -= self._sizes.pop(name)
            evicted += 1
        if evicted:
            self._bump("evictions", evicted)
        return written

    def _counts(self) -> dict[str, int]:
        try:
            meta = json.loads(self._meta.read_text())
            return {c: int(meta.get(c, 0)) for c in self.counters}
        except (OSError, ValueError, TypeError, AttributeError):
            return dict.fromkeys(self.counters, 0)

    def _bump(self, counter: str, n: int = 1) -> None:
        counts = self._counts()
        counts[counter] += n
        self.root.mkdir(parents=True, exist_ok=True)
        self._meta.write_text(json.dumps(counts) + "\n")

    def clear(self) -> int:
        """Delete every entry and the counters; returns how many entry
        files were removed."""
        entries = self.entries()
        for path in entries:
            path.unlink(missing_ok=True)
        self._meta.unlink(missing_ok=True)
        self._sizes = None
        return len(entries)

    def stats(self) -> dict:
        """JSON-ready summary of the store directory."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "total_bytes": sum(p.stat().st_size for p in entries),
            "max_bytes": self.max_bytes,
            **self._counts(),
            "scenarios": dict.fromkeys(sorted(p.stem for p in entries), 1),
            "oldest": entries[0].name if entries else None,
            "newest": entries[-1].name if entries else None,
        }


class ResultCache(_Store):
    """Sweep results, one ``<scenario>.json`` each."""

    kind, field, value_type = "results", "result", dict

    def get(self, spec: ScenarioSpec, key: str) -> dict | None:
        """The cached result payload, or ``None`` on miss/corruption."""
        return self._load(self.path_for(spec), key)

    def put(self, spec: ScenarioSpec, key: str, result: dict) -> Path:
        return self._put([(spec, key, result)])[0]

    def put_many(self, items: list[tuple[ScenarioSpec, str, dict]]) -> list[Path]:
        """Batch store: one index load and one eviction sweep for the
        whole chunk (the sweep runner's campaign write path)."""
        return self._put(items)


class CheckCache(_Store):
    """Static-check reports (the incremental ``repro check`` path).

    The stored value is the serialized diagnostic list of one
    ``check_scenario`` run.  Hits and misses are counted in
    ``_meta.json`` so a later ``repro cache stats`` invocation (a
    different process) can report whether the warm path actually
    engaged.
    """

    kind, field, value_type = "checks", "report", list
    counters = ("evictions", "hits", "misses")

    def get(self, spec: ScenarioSpec, key: str) -> list[dict] | None:
        """The cached diagnostic dicts, or ``None`` on miss/corruption."""
        report = self._load(self.path_for(spec), key)
        self._bump("misses" if report is None else "hits")
        return report

    def put(self, spec: ScenarioSpec, key: str,
            report: list[dict]) -> Path:
        return self._put([(spec, key, report)])[0]
