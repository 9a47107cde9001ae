"""Content-addressed result cache for the serve layer.

The determinism contract is what makes caching *sound* here rather than
merely convenient: every registered algorithm is a pure function of its
semantic inputs (graph contents + the canonical parameters from
:func:`repro.core.registry.canonical_cache_params`), so a cached result
is not an approximation of a re-solve — it *is* the re-solve, bit for
bit.  The key is therefore content-addressed end to end:

* the graph contributes its CSR content digest
  (:meth:`repro.graph.graph.Graph.fingerprint`), stable across
  processes and machines — never Python's salted ``hash()``;
* the parameters contribute their canonicalized dict, so two
  parameterizations that provably produce identical results (different
  seeds for a seedless algorithm, different backends, trace on/off)
  share one entry, while anything that can move a model quantity
  (regime, β, α, an explicit machine count) gets its own.

Two tiers share that key space:

* an **in-memory LRU** bounded by entry count (``memory_entries``;
  evictions are counted, never silent);
* an optional **on-disk tier** under ``disk_dir`` — one JSON file per
  key at ``objects/<k[:2]>/<k>.json``, written atomically (tmp +
  rename), unbounded, shared between processes, and cleared only by an
  explicit :meth:`ResultCache.clear` (surfaced as ``repro-mpc cache
  clear``).  A disk hit is promoted into the memory tier.

Entries are stored as canonical JSON text in *both* tiers, so a memory
hit and a disk hit return byte-identical payloads and callers can never
mutate cached state in place.

Every key also hashes :data:`CACHE_FORMAT`, the payload format version.
It is bumped whenever a payload's fields or their meaning change, so a
disk tier written by an older build is never served as the answer of a
newer one: its entries are simply misses, re-solved and stored under
the new keys.

The codec (:func:`result_to_payload` / :func:`payload_to_result`)
spells out only each problem's own fields; the shared run tail is
derived from :class:`~repro.core.spec.RunResult`'s fields (all but
``trace``), so a tail field added there is cached without an edit here.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import fields
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.registry import MATCHING, RULING_SET
from repro.core.spec import MatchingResult, RulingSetResult, RunResult
from repro.errors import ServeError

__all__ = [
    "CACHE_FORMAT",
    "ResultCache",
    "cache_key",
    "payload_to_result",
    "result_to_payload",
]


#: The payload format version hashed into every key; bump it whenever
#: a payload's fields or their meaning change.
CACHE_FORMAT = 1


def cache_key(graph_fingerprint: str, params: Dict[str, object]) -> str:
    """The content address of one solve: sha256 over graph + parameters.

    ``params`` must already be canonical (use
    :func:`repro.core.registry.canonical_cache_params`); this function
    only fixes the serialization (sorted keys, tight separators) so the
    digest is reproducible across processes.  :data:`CACHE_FORMAT` is
    hashed in too, so entries of another payload format never match.
    """
    blob = json.dumps(
        {
            "format": CACHE_FORMAT,
            "graph": graph_fingerprint,
            "params": params,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: The run-tail fields a payload carries: every :class:`RunResult`
#: field but ``trace`` (a pure observer holding wall clock).
_TAIL_FIELDS = tuple(
    spec.name for spec in fields(RunResult) if spec.name != "trace"
)


def _copy(value: object) -> object:
    return dict(value) if isinstance(value, dict) else value


def result_to_payload(
    result: Union[RulingSetResult, MatchingResult]
) -> Dict[str, object]:
    """Serialise a result dataclass to a JSON-safe payload dict.

    The problem fields come first, then the run tail, derived from
    :class:`~repro.core.spec.RunResult`'s fields.  The payload keeps the
    wall-clock fields: a cache hit reconstructs the *original* run's
    result object, equal (``==``) to what the solve returned — the
    frozen dataclasses include ``wall_time_s`` in equality, so dropping
    timing here would break the bit-identity acceptance test.
    """
    if isinstance(result, RulingSetResult):
        payload: Dict[str, object] = {
            "problem": RULING_SET,
            "members": list(result.members),
            "alpha": result.alpha,
            "beta": result.beta,
        }
    elif isinstance(result, MatchingResult):
        payload = {
            "problem": MATCHING,
            "matching": [list(edge) for edge in result.matching],
        }
    else:
        raise ServeError(
            f"cannot cache a {type(result).__name__}; expected "
            "RulingSetResult or MatchingResult"
        )
    payload["algorithm"] = result.algorithm
    for name in _TAIL_FIELDS:
        payload[name] = _copy(getattr(result, name))
    return payload


def payload_to_result(
    payload: Dict[str, object]
) -> Union[RulingSetResult, MatchingResult]:
    """Rebuild the result dataclass a payload was serialised from.

    The reconstruction is exact up to the ``trace`` field (a pure
    observer, excluded from dataclass equality): matching edges come
    back as tuples, timing fields are restored verbatim.
    """
    problem = payload.get("problem")
    if problem not in (RULING_SET, MATCHING):
        raise ServeError(
            f"unknown problem kind in cached payload: {problem!r}"
        )
    tail = {name: _copy(payload[name]) for name in _TAIL_FIELDS}
    if problem == RULING_SET:
        return RulingSetResult(
            members=list(payload["members"]),
            alpha=payload["alpha"],
            beta=payload["beta"],
            algorithm=payload["algorithm"],
            **tail,
        )
    return MatchingResult(
        matching=[tuple(edge) for edge in payload["matching"]],
        algorithm=payload["algorithm"],
        **tail,
    )


class ResultCache:
    """Two-tier content-addressed cache: in-memory LRU over optional disk.

    ``memory_entries`` bounds the LRU tier (0 disables it — useful for
    a pure disk cache); ``disk_dir`` enables the persistent tier.  All
    traffic is counted: ``hits`` / ``misses`` / ``stores`` /
    ``evictions``, with hits split by tier, surfaced through
    :meth:`stats` and folded into the batch engine's
    :class:`~repro.mpc.trace.ServiceTrace`.
    """

    def __init__(
        self,
        memory_entries: int = 256,
        disk_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if memory_entries < 0:
            raise ServeError(
                f"memory_entries must be >= 0, got {memory_entries}"
            )
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, str]" = OrderedDict()
        self._disk: Optional[Path] = None
        if disk_dir is not None:
            self._disk = Path(disk_dir)
            try:
                (self._disk / "objects").mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise ServeError(
                    f"cache directory {self._disk} is unusable: {exc}"
                ) from exc
        self._counters: Dict[str, int] = {
            "hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "memory_hits": 0,
            "disk_hits": 0,
        }

    # -- lookup ----------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is cached in either tier.

        Neither counted nor an LRU touch: a caller that goes on to
        :meth:`get` the entry counts the request once, there.
        """
        if key in self._memory:
            return True
        return self._disk is not None and self._object_path(key).exists()

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The cached payload for ``key``, or ``None`` on a miss."""
        text = self._memory.get(key)
        if text is not None:
            self._memory.move_to_end(key)
            self._counters["hits"] += 1
            self._counters["memory_hits"] += 1
            return json.loads(text)
        if self._disk is not None:
            path = self._object_path(key)
            if path.exists():
                text = path.read_text(encoding="utf-8")
                self._admit(key, text)  # promotion, not a store
                self._counters["hits"] += 1
                self._counters["disk_hits"] += 1
                return json.loads(text)
        self._counters["misses"] += 1
        return None

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Store ``payload`` under ``key`` in every enabled tier."""
        text = json.dumps(payload, sort_keys=True)
        self._counters["stores"] += 1
        self._admit(key, text)
        if self._disk is not None:
            path = self._object_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".json.tmp")
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(path)  # atomic: readers never see a torn entry

    def _admit(self, key: str, text: str) -> None:
        if self.memory_entries == 0:
            return
        self._memory[key] = text
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)
            self._counters["evictions"] += 1

    def _object_path(self, key: str) -> Path:
        # Content-addressed layout: fan out on the first byte so one
        # directory never accumulates every object.
        return self._disk / "objects" / key[:2] / f"{key}.json"

    # -- maintenance -----------------------------------------------------

    def _disk_objects(self):
        """Snapshot the disk tier's object paths, tolerating races.

        A concurrent ``cache clear`` or eviction may remove files (or the
        whole tree) between the ``rglob`` walk and our use of each path;
        a vanished tree is simply an empty listing.
        """
        if self._disk is None:
            return []
        try:
            return sorted((self._disk / "objects").rglob("*.json"))
        except OSError:
            return []

    def clear(self) -> int:
        """Drop both tiers; returns the number of disk entries removed.

        Entries deleted concurrently by another process are skipped, not
        raised: two racing ``clear`` calls both succeed, and the counts
        they return sum over at least every entry that existed.
        """
        self._memory.clear()
        removed = 0
        for path in self._disk_objects():
            try:
                path.unlink()
            except FileNotFoundError:
                continue  # lost the race to a concurrent clear/eviction
            removed += 1
        return removed

    def stats(self) -> Dict[str, int]:
        """Traffic counters plus current entry counts per tier."""
        stats = dict(self._counters)
        stats["memory_entries"] = len(self._memory)
        stats["disk_entries"] = self.disk_entries()
        stats["disk_bytes"] = self.disk_bytes()
        return stats

    def disk_entries(self) -> int:
        """Number of objects in the disk tier (0 when disabled)."""
        return len(self._disk_objects())

    def disk_bytes(self) -> int:
        """Total size of the disk tier in bytes (0 when disabled).

        Entries vanishing under a concurrent clear contribute zero
        instead of raising ``FileNotFoundError`` mid-sum.
        """
        total = 0
        for path in self._disk_objects():
            try:
                total += path.stat().st_size
            except FileNotFoundError:
                continue
        return total
