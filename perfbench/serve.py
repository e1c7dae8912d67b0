"""serve_mix and serve_process: open-loop traffic against ``OptimizationService``.

One generator thread sends the seeded Poisson schedule at a fixed rate,
whatever the service's speed, and times each request from the moment it
was due.  Keys are (suite kernel x serve config) drawn by Zipf popularity
from a key space larger than the service's bounded LRU cache, so cold
runs, cache hits and in-flight coalescing all occur.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Callable, Dict, List

from repro.obs import Tracer
from repro.saturator import optimize_source
from repro.service import OptimizationService
from repro.session import MemoryCache, OptimizationSession

from perfbench.common import INF, Outcome, mean, peak_rss_mb, percentile
from perfbench.inputs import (
    SERVE_CACHE_ENTRIES,
    SERVE_CONFIGS,
    SERVE_WORKERS,
    WARMUP_SOURCES,
    serve_keys,
    serve_schedule,
)
from perfbench.hostspeed import probe, scale
from perfbench.probes import STAGE_NAMES, GCMonitor, SpanRecorder, traced_stages
from perfbench.quality import code_quality, egraph_counts, phase_ms

#: A request not terminal this long after the last send counts as failed.
DRAIN_TIMEOUT_S = 60.0
#: Median generator lag beyond which the offered rate was not achieved.
MAX_MEDIAN_LAG_S = 0.1
#: Host-speed probes taken before and again after each drive.
HOST_PROBES = 100
#: Consecutive windows of a drive; its latency percentiles are the median
#: of theirs, so a stretch of slow host in one window counts little.
WINDOWS = 3


def _stage_seconds(result) -> float:
    return sum(
        k.ssa_codegen_time + k.saturation_time + k.extraction_time
        for k in result.kernels
    )


class _Service:
    """One service instance, optionally traced, warmed up on start."""

    def __init__(self, executor: str, traced: bool, workers: int = SERVE_WORKERS) -> None:
        self.recorder = SpanRecorder() if traced else None
        # thread workers run the session's stages in this process, so the
        # stage wrappers see them; process workers run the default stages
        # in their own interpreters, whose spans arrive via the tracer
        stages = None
        if traced and executor == "thread":
            stages = traced_stages(self.recorder)
        self.tracer = Tracer() if traced and executor == "process" else None
        self.session = OptimizationSession(
            cache=MemoryCache(max_entries=SERVE_CACHE_ENTRIES), stages=stages
        )
        self.service = OptimizationService(
            session=self.session, workers=workers, executor=executor,
            tracer=self.tracer,
        )
        t0 = time.perf_counter()
        self.service.start()
        self.spawn_s = time.perf_counter() - t0
        # one distinct request per worker, so every worker (thread or
        # process) has imported the pipeline and compiled the rule patterns
        handles = [self.service.submit(src, SERVE_CONFIGS[1]) for src in WARMUP_SOURCES]
        for handle in handles:
            handle.result(timeout=120)
        self.probes: List[float] = []
        self.base = self.service.stats.snapshot()
        self.cache_base = self.session.cache.stats.as_dict()
        self.warm_jobs = len(self.service.jobs())

    def drive(self, keys, schedule, out: Outcome) -> List[dict]:
        """Send *schedule* open loop; returns one record per request."""

        service = self.service
        records = []
        # host speed is sampled while the service is idle, just before and
        # after the drive: a probe beside busy workers would time them too
        self.probes += [probe() for _ in range(HOST_PROBES)]
        t0 = time.monotonic() + 0.01
        for at, key_index in schedule:
            due = t0 + at
            delay = due - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            key = keys[key_index]
            record = {"due": due, "key": key_index, "lag": time.monotonic() - due}
            try:
                with self.recorder.span("service.submit") if self.recorder else nullcontext():
                    record["handle"] = service.submit(key.kernel.source, key.config)
            except Exception as exc:  # a rejected submission is a failure
                out.error(f"submit {key.name}", exc)
                record["handle"] = None
            records.append(record)
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        for record in records:
            handle = record["handle"]
            if handle is None:
                continue
            try:
                record["result"] = handle.result(
                    timeout=max(0.0, deadline - time.monotonic())
                )
            except Exception as exc:
                out.error(f"result {keys[record['key']].name}", exc)
                continue
            record["finished"] = handle.created_at + handle.latency
        self.probes += [probe() for _ in range(HOST_PROBES)]
        return records

    def stop(self) -> None:
        self.service.stop(wait=True)

    def stage_seconds(self) -> Dict[str, float]:
        """Seconds per pipeline stage of a traced service."""

        if self.tracer is None:
            times = self.recorder.self_times()
            return {name: times.get(f"stage.{name}", 0.0) for name in STAGE_NAMES}
        totals: Dict[str, float] = defaultdict(float)
        starts = {}
        for record in self.tracer.records():
            if record["type"] == "start" and record["name"].startswith("stage:"):
                starts[record["id"]] = record
            elif record["type"] == "end" and record["id"] in starts:
                start = starts.pop(record["id"])
                totals[start["name"][len("stage:"):]] += record["ts"] - start["ts"]
        return {name: totals[name] for name in STAGE_NAMES}


def _summarize(records: List[dict], service: _Service, slo_s: float) -> Dict[str, object]:
    """Latency, shares and per-layer waits of one driven schedule."""

    latencies, lags, queue_waits = [], [], []
    shares = {"cold": 0, "cached": 0, "coalesced": 0}
    for record in records:
        lags.append(record["lag"])
        if "finished" not in record:
            latencies.append(INF)
            continue
        latency = record["finished"] - record["due"]
        latencies.append(latency)
        handle = record["handle"]
        if handle.coalesced:
            shares["coalesced"] += 1
        elif handle.from_cache:
            shares["cached"] += 1
            queue_waits.append(latency)
        else:
            shares["cold"] += 1
            queue_waits.append(latency - _stage_seconds(record["result"]))
    cold_runs, overheads, cold_results = [], [], []
    for job in service.service.jobs()[service.warm_jobs:]:
        if job.result is None or job.from_cache or job.started_at is None:
            continue
        run = job.finished_at - job.started_at
        cold_runs.append(run)
        overheads.append(run - _stage_seconds(job.result))
        cold_results.append(job.result)
    finished = [r["finished"] for r in records if "finished" in r]
    first_due = records[0]["due"] if records else 0.0
    # one host-speed scale for the whole drive
    factor = scale(service.probes)
    scaled = [latency * factor for latency in latencies]
    windows: List[List[float]] = [[] for _ in range(WINDOWS)]
    span = (records[-1]["due"] - first_due) / WINDOWS if records else 0.0
    for record, latency in zip(records, scaled):
        index = int((record["due"] - first_due) / span) if span else 0
        windows[min(index, WINDOWS - 1)].append(latency)
    return {
        "latencies": latencies,
        "scaled": scaled,
        "scale": factor,
        "windows": windows,
        "lags": lags,
        "queue_waits": queue_waits,
        "shares": shares,
        "cold_runs": cold_runs,
        "overheads": overheads,
        "cold_results": cold_results,
        "wall": (max(finished) - first_due) if finished else INF,
        "completed": len(finished),
        "within": sum(1 for latency in scaled if latency <= slo_s),
    }


def _window_median(windows: List[List[float]], q: float) -> float:
    """The median over windows of each window's percentile *q*."""

    return statistics.median(percentile(window, q) for window in windows)


def _procpool_probe(keys, reference, out: Outcome) -> Dict[str, float]:
    """The process-worker layer, measured on a thread-executor workload.

    Outside the timed window, a one-worker ``executor="process"`` service
    serves each kernel of the key space once, one request at a time (the
    config rotating), so spawn, leasing and pipe transfer are measured
    without two processes contending for the host's cores.
    """

    pool = _Service("process", traced=False, workers=1)
    chosen = [i * len(SERVE_CONFIGS) + i % len(SERVE_CONFIGS)
              for i in range(len(keys) // len(SERVE_CONFIGS))]
    out.attempted += len(chosen)
    try:
        for index in chosen:
            key = keys[index]
            try:
                result = pool.service.submit(key.kernel.source, key.config).result(
                    timeout=DRAIN_TIMEOUT_S
                )
            except Exception as exc:
                out.error(f"procpool probe {key.name}", exc)
                continue
            if result.code != reference[index].code:
                out.wrong.append(f"{key.name}: process-served code differs from a solo run")
                out.wrong_ops += 1
        respawns = pool.service.stats.snapshot()["worker_respawns"] - pool.base["worker_respawns"]
    finally:
        pool.stop()
    overheads = [
        job.finished_at - job.started_at - _stage_seconds(job.result)
        for job in pool.service.jobs()[pool.warm_jobs:]
        if job.result is not None and not job.from_cache and job.started_at is not None
    ]
    return {
        "procpool.spawn_ms": pool.spawn_s * 1e3,
        "procpool.overhead_ms_p50": percentile(overheads, 0.5) * 1e3,
        "procpool.respawns": respawns,
    }


def run_serve(
    workload: str, seed: int, seconds: float, trace: bool,
    slo_s: float, rate: float, ready: Callable[[], bool],
) -> Outcome:
    executor = "thread" if workload == "serve_mix" else "process"
    keys = serve_keys()
    # a traced run drives the first half of the schedule twice, untraced
    # then traced, each on a fresh service; the difference is the overhead
    horizon = seconds / 2 if trace else seconds
    schedule = serve_schedule(seed, rate, horizon, len(keys))
    out = Outcome()
    service = _Service(executor, traced=False)
    try:
        if not ready():
            return out
        records = service.drive(keys, schedule, out)
    finally:
        service.stop()
    summary = _summarize(records, service, slo_s)
    runs = [(service, records, summary)]
    gc_monitor = GCMonitor()
    if trace:
        traced_service = _Service(executor, traced=True)
        try:
            with gc_monitor:
                traced_records = traced_service.drive(keys, schedule, out)
        finally:
            traced_service.stop()
        runs.append((traced_service, traced_records,
                     _summarize(traced_records, traced_service, slo_s)))
    out.attempted = sum(len(records) for _, records, _ in runs)

    # -- correctness and code quality, outside the timed window ------------
    reference = [optimize_source(key.kernel.source, key.config) for key in keys]
    for _, records, _ in runs:
        for record in records:
            result = record.get("result")
            key = record["key"]
            if result is not None and result.code != reference[key].code:
                out.wrong.append(f"{keys[key].name}: served code differs from a solo run")
                out.wrong_ops += 1
    distinct = [(key.kernel, key.config, reference[i]) for i, key in enumerate(keys)]
    quality = code_quality(distinct)
    counts = egraph_counts(reference)
    out.deterministic = {**quality, **counts}
    if counts["egraph.time_limit_stops"]:
        out.invalid.append("a saturation stopped on its time limit")
    median_lag = percentile(summary["lags"], 0.5)
    if median_lag > MAX_MEDIAN_LAG_S:
        out.invalid.append(f"the generator ran {median_lag * 1e3:.0f} ms late (median)")

    # the processes are reaped by now, so RUSAGE_CHILDREN holds the largest
    rss = peak_rss_mb(children=executor == "process")
    sent = len(summary["latencies"])
    out.details = {
        "requests": sent,
        "shares": {k: v / sent for k, v in summary["shares"].items()},
        "generator_lag_ms_p90": percentile(summary["lags"], 0.9) * 1e3,
        "spawn_ms": service.spawn_s * 1e3,
        "host_scale": summary["scale"],
        "raw_latency_ms": [percentile(summary["latencies"], q) * 1e3 for q in (0.5, 0.9, 0.99)],
        "latency_p99_ms": percentile(summary["scaled"], 0.99) * 1e3,
    }
    if not trace:
        out.metrics = {
            "ops_per_s": summary["completed"] / summary["wall"],
            "latency_p50_ms": _window_median(summary["windows"], 0.5) * 1e3,
            "latency_p90_ms": _window_median(summary["windows"], 0.9) * 1e3,
            "peak_rss_mb": rss,
            "within_slo_ratio": summary["within"] / sent,
            **quality,
        }
        return out

    svc, _, traced = runs[1]
    requests = len(traced["latencies"])
    per_request = lambda s: s * 1e3 / requests  # noqa: E731
    stage_seconds = svc.stage_seconds()
    delta = {
        name: svc.service.stats.snapshot()[name] - svc.base[name]
        for name in ("submitted", "coalesced", "pipeline_runs", "retried",
                     "rejected", "worker_respawns")
    }
    cache_now = svc.session.cache.stats.as_dict()
    hits = cache_now["hits"] - svc.cache_base["hits"]
    lookups = hits + cache_now["misses"] - svc.cache_base["misses"]
    finite = lambda values: [v for v in values if v != INF]  # noqa: E731
    untraced_mean = mean(finite(summary["latencies"]))
    if executor == "process":
        pool = {
            "procpool.spawn_ms": svc.spawn_s * 1e3,
            "procpool.overhead_ms_p50": percentile(traced["overheads"], 0.5) * 1e3,
            "procpool.respawns": delta["worker_respawns"],
        }
    else:
        pool = _procpool_probe(keys, reference, out)
    out.metrics = {
        "driver.self_ms": 0.0,
        **{f"stage.{name}_ms": per_request(stage_seconds[name]) for name in STAGE_NAMES},
        **{k: v / requests for k, v in phase_ms(traced["cold_results"]).items()},
        **counts,
        "gc.ms": per_request(gc_monitor.seconds),
        "gc.collections": gc_monitor.collections / requests,
        "interp.verify_ms": 0.0,
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "service.coalesce_ratio": delta["coalesced"] / max(1, delta["submitted"]),
        "service.pipeline_runs": delta["pipeline_runs"],
        "service.retried": delta["retried"],
        "service.rejected": delta["rejected"],
        "service.queue_wait_ms_p50": percentile(traced["queue_waits"], 0.5) * 1e3,
        "service.queue_wait_ms_p90": percentile(traced["queue_waits"], 0.9) * 1e3,
        "service.cold_run_ms_p50": percentile(traced["cold_runs"], 0.5) * 1e3,
        **{f"service.{k}_share": v / requests for k, v in traced["shares"].items()},
        "service.submit_ms": mean(svc.recorder.durations("service.submit")) * 1e3,
        **pool,
        "generator.lag_ms": percentile(traced["lags"], 0.9) * 1e3,
        "trace.overhead_ratio": mean(finite(traced["latencies"])) / untraced_mean - 1.0,
        # what the stage spans account for of the cold runs' measured time
        "trace.coverage_ratio": sum(stage_seconds.values()) / sum(traced["cold_runs"]),
    }
    return out

