"""Small helpers shared by the workload runners."""

from __future__ import annotations

import math
import resource
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

INF = math.inf

#: Per-layer metrics of the serving layers, zero on the pipeline workloads
#: (no cache, queue or worker pool on that path).
SERVICE_LAYER_ZEROS = dict.fromkeys((
    "cache.hit_ratio",
    "service.coalesce_ratio",
    "service.pipeline_runs",
    "service.retried",
    "service.rejected",
    "service.queue_wait_ms_p50",
    "service.queue_wait_ms_p90",
    "service.cold_run_ms_p50",
    "service.cold_share",
    "service.cached_share",
    "service.coalesced_share",
    "service.submit_ms",
    "procpool.spawn_ms",
    "procpool.overhead_ms_p50",
    "procpool.respawns",
    "generator.lag_ms",
), 0.0)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); +inf samples sort last."""

    if not values:
        return 0.0
    ordered = sorted(values)
    # the epsilon keeps 0.9 * 100 from rounding up to rank 91
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, plus its largest reaped child if asked."""

    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    #: Operations that raised, were rejected, or timed out, by exception type.
    errors: Counter = field(default_factory=Counter)
    #: Failures no input was built to provoke; any one makes the run wrong.
    unexpected: List[str] = field(default_factory=list)
    #: Outputs that were wrong: failed verification, differed from the
    #: solo reference, or differed between passes of one input.
    wrong: List[str] = field(default_factory=list)
    #: Operations whose output was wrong (an input repeated over passes
    #: counts once per operation).
    wrong_ops: int = 0
    #: Set when the run's numbers would depend on host speed.
    invalid: List[str] = field(default_factory=list)
    #: Pure functions of (source, config), compared across runs.
    deterministic: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, object] = field(default_factory=dict)

    def error(self, what: str, exc: BaseException, expected: str = "") -> None:
        """Count a failed operation; unless *expected* names its type, flag it."""

        kind = type(exc).__name__
        self.errors[kind] += 1
        message = f"{what}: {kind}: {exc}"
        if kind != expected and message not in self.unexpected:
            self.unexpected.append(message)

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + self.wrong_ops

    def as_dict(self) -> Dict[str, object]:
        return {
            "metrics": self.metrics,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": dict(self.errors),
            "wrong": self.unexpected + self.wrong,
            "invalid": self.invalid,
            "deterministic": self.deterministic,
            "details": self.details,
        }
