"""``TuningPlan`` — one point of the configuration space — and the
pattern-keyed ``PlanCache`` that amortises tuning across same-structure
factorizations.

The paper tunes its knobs by hand: block size 25 "in our experiments",
``p_c / p_r = 2`` "in practice", 1D RAPID "whenever memory suffices", the
asynchronous pipelined 2D code over the synchronous one (Tables 3–7).  A
:class:`TuningPlan` records one complete assignment of those knobs, and —
because every knob is a function of the *nonzero pattern* and the machine,
never of the values — a tuned plan stays exactly valid for every matrix
sharing the pattern.  :class:`PlanCache` exploits that the same way
:class:`repro.service.AnalysisCache` does for the analyze phase: key on
the pattern digest (plus machine name and processor count), pay for the
search once, reuse the winner on every refactorization.

Both classes round-trip through JSON (including the cache's LRU order and
its hit/miss/eviction counters), so a service can persist its learned
plans across restarts.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field, fields
from typing import Optional


@dataclass(frozen=True)
class TuningPlan:
    """One complete configuration of the factorization pipeline.

    The fields are :class:`repro.api.SStarSolver` keywords with the same
    meaning, so ``SStarSolver(**plan.as_dict())`` runs the plan: ``method``
    is ``"sequential"`` or a :data:`repro.parallel.METHODS` name, ``grid``
    the 2D ``(pr, pc)`` shape (``None`` for 1D and sequential plans),
    ``block_size`` and ``amalgamation`` shape the supernode partition and
    therefore the BLAS-3 granularity, and ``ckpt_interval`` rides along
    for the resilient drivers (``None`` = not requested by the plan).
    """

    block_size: int = 25
    amalgamation: int = 4
    method: str = "sequential"
    nprocs: int = 1
    grid: Optional[tuple] = None
    ckpt_interval: Optional[int] = None

    def __post_init__(self):
        from ..parallel import layout

        lay = layout(self.method)  # rejects an unknown method
        if self.grid is not None:
            g = tuple(self.grid)
            object.__setattr__(self, "grid", g)
            if lay != "2d" or g[0] * g[1] != self.nprocs:
                raise ValueError(f"grid {g[0]}x{g[1]} does not fit a "
                                 f"{self.method} plan on nprocs={self.nprocs}")

    def describe(self) -> str:
        bits = [f"b={self.block_size}", f"r={self.amalgamation}", self.method]
        if self.grid is not None:
            bits.append(f"grid={self.grid[0]}x{self.grid[1]}")
        if self.method != "sequential":
            bits.append(f"P={self.nprocs}")
        return " ".join(bits)

    # -- JSON ----------------------------------------------------------

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.grid is not None:
            d["grid"] = list(self.grid)
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "TuningPlan":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown TuningPlan fields: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, s: str) -> "TuningPlan":
        return cls.from_dict(json.loads(s))


def plan_cache_key(pattern: str, machine_name: str, nprocs: int) -> tuple:
    """A plan is specific to the pattern, the machine and the processor
    budget — never to the matrix values."""
    return (pattern, machine_name, int(nprocs))


@dataclass
class PlanCacheStats:
    """Counters accumulated over a :class:`PlanCache`'s lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "entries": self.entries,
        }


@dataclass
class PlanCache:
    """LRU cache of :class:`TuningPlan` keyed by
    ``(pattern, machine, nprocs)`` (see :func:`plan_cache_key`).

    Plans are a few hundred bytes, so only an entry bound is needed.  The
    whole cache — entries in LRU order plus the stats counters — survives
    a :meth:`to_json` / :meth:`from_json` round trip bit-for-bit.
    """

    max_entries: int = 256
    #: optional repro.obs.MetricsRegistry mirroring the stats as counters
    metrics: object = None
    _entries: OrderedDict = field(default_factory=OrderedDict, repr=False)
    _stats: PlanCacheStats = field(default_factory=PlanCacheStats, repr=False)

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key) -> bool:
        return tuple(key) in self._entries

    def get(self, key) -> Optional[TuningPlan]:
        """Return the cached plan for ``key`` (marking it most-recently-
        used) or ``None`` on a miss."""
        key = tuple(key)
        plan = self._entries.get(key)
        if plan is None:
            self._stats.misses += 1
            self._count("tune.plan_cache.misses")
            return None
        self._entries.move_to_end(key)
        self._stats.hits += 1
        self._count("tune.plan_cache.hits")
        return plan

    def peek(self, key) -> Optional[TuningPlan]:
        """Like :meth:`get` but with no stats or LRU side effects."""
        return self._entries.get(tuple(key))

    def put(self, key, plan: TuningPlan) -> None:
        key = tuple(key)
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
            self._count("tune.plan_cache.evictions")

    def invalidate(self, key) -> bool:
        key = tuple(key)
        if key in self._entries:
            del self._entries[key]
            return True
        return False

    def clear(self) -> None:
        self._entries.clear()

    @property
    def stats(self) -> PlanCacheStats:
        self._stats.entries = len(self._entries)
        return self._stats

    # -- JSON ----------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "max_entries": self.max_entries,
                "entries": [
                    {"key": list(k), "plan": p.as_dict()}
                    for k, p in self._entries.items()  # LRU -> MRU order
                ],
                "stats": {
                    "hits": self._stats.hits,
                    "misses": self._stats.misses,
                    "evictions": self._stats.evictions,
                },
            },
            indent=2,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, s: str, metrics=None) -> "PlanCache":
        d = json.loads(s)
        cache = cls(max_entries=d["max_entries"], metrics=metrics)
        for e in d["entries"]:
            cache._entries[tuple(e["key"])] = TuningPlan.from_dict(e["plan"])
        st = d["stats"]
        cache._stats = PlanCacheStats(
            hits=st["hits"], misses=st["misses"], evictions=st["evictions"]
        )
        return cache
