"""suite_accsat and synth_cse: one closed-loop client calling ``optimize_source``.

Each pass optimizes every input once, in an order shuffled from the seed;
passes repeat until the run's seconds are spent (and at least 100 samples
exist, so ten lie beyond p90).  Every call is cold: there is no session
cache on this path.  With tracing, passes alternate untraced/traced so the
per-layer numbers and the tracing overhead come from one process.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Tuple

import numpy as np
from repro.frontend import parse_statement
from repro.frontend.normalize import normalize_blocks
from repro.interp import make_random_environment, verify_equivalence
from repro.saturator import SaturatorConfig, optimize_source

from perfbench.common import (
    INF,
    SERVICE_LAYER_ZEROS,
    Outcome,
    mean,
    peak_rss_mb,
    percentile,
)
from perfbench.inputs import (
    SYNTH_VARIANTS,
    WARMUP_SOURCES,
    Kernel,
    suite_kernels,
    synth_kernels,
)
from perfbench.hostspeed import probe, scale
from perfbench.probes import STAGE_NAMES, GCMonitor, SpanRecorder, traced_stages
from perfbench.quality import code_quality, egraph_counts, phase_ms
from perfbench.serve import run_serve

MIN_SAMPLES = 100
#: Length of the serve_mix schedule a traced suite_accsat run drives (half
#: untraced, half traced) to measure the serving layers.
SERVICE_LAYER_SECONDS = 20.0


def _items(workload: str, seed: int) -> Tuple[List[Tuple[Kernel, SaturatorConfig]], int]:
    """The (kernel, config) inputs, and the interpreter extent to verify at."""

    if workload == "suite_accsat":
        return [(kernel, SaturatorConfig()) for kernel in suite_kernels()], 4
    configs = [SaturatorConfig(variant=variant) for variant in SYNTH_VARIANTS]
    # one loop iteration per check keeps the interpreter affordable on
    # kernels of 60 statements; the outputs are written, never read back
    return [(kernel, config) for kernel in synth_kernels(seed) for config in configs], 3


def _signature(result) -> tuple:
    """What must repeat exactly when one input is optimized again."""

    return (result.code,) + tuple(
        (
            report.extracted_cost,
            tuple(report.optimized.as_dict().values()),
            None if report.runner is None else (
                report.runner.stop_reason.value,
                report.runner.num_iterations,
                report.runner.egraph_nodes,
            ),
        )
        for report in result.kernels
    )


def _service_layers(seed: int, slo_s: float, rate: float, out: Outcome) -> Dict[str, float]:
    """The serving layers' per-layer metrics, from a short traced serve_mix.

    serve_mix is not in BENCHMARK.json (its latencies are too unsteady on
    a shared host), so suite_accsat's traced run measures the queue, cache,
    coalescing and process-worker layers after its own timed window, with
    serve_mix's code, schedule and checks.
    """

    served = run_serve("serve_mix", seed, SERVICE_LAYER_SECONDS, True, slo_s, rate, lambda: True)
    out.attempted += served.attempted
    out.errors.update(served.errors)
    out.unexpected += served.unexpected
    out.wrong += served.wrong
    out.wrong_ops += served.wrong_ops
    out.invalid += served.invalid
    return {name: served.metrics[name] for name in SERVICE_LAYER_ZEROS}


def run_pipeline(
    workload: str, seed: int, seconds: float, trace: bool,
    slo_s: float, rate: float, ready: Callable[[], bool],
) -> Outcome:
    items, extent = _items(workload, seed)
    for config in {config.variant: config for _, config in items}.values():
        optimize_source(WARMUP_SOURCES[0], config)
    if not ready():
        return Outcome()

    out = Outcome()
    order_rng = random.Random(f"{workload}-order-{seed}")
    recorder = SpanRecorder()
    stages = traced_stages(recorder)
    gc_monitor = GCMonitor()
    samples: List[float] = []
    first: Dict[int, object] = {}
    signatures: Dict[int, tuple] = {}
    ops_per_item = [0] * len(items)
    op_time = {False: 0.0, True: 0.0}
    op_count = {False: 0, True: 0}
    pass_wall = {False: 0.0, True: 0.0}
    traced_results = []
    min_passes = max(2 if trace else 1, math.ceil(MIN_SAMPLES / len(items)))

    def one_op(index: int, traced: bool) -> None:
        kernel, config = items[index]
        ops_per_item[index] += 1
        t0 = time.perf_counter()
        try:
            if traced:
                with recorder.span("optimize_source"):
                    result = optimize_source(kernel.source, config, stages=stages)
            else:
                result = optimize_source(kernel.source, config)
        except Exception as exc:  # every failure is counted, by type
            result = None
            out.error(kernel.name, exc, kernel.expected_error)
        elapsed = time.perf_counter() - t0
        op_time[traced] += elapsed
        op_count[traced] += 1
        samples.append(INF if result is None else elapsed)
        if result is None:
            return
        if traced:
            traced_results.append(result)
        signature = _signature(result)
        if index not in first:
            first[index] = result
            signatures[index] = signature
        elif signature != signatures[index]:
            out.wrong.append(f"{kernel.name}: output differs between passes")
            out.wrong_ops += 1

    # whole passes only, so every input is sampled equally often; the
    # number of passes is the one that ends nearest to the run's seconds.
    # A host-speed probe follows every operation, and each pass's timings
    # are scaled by the median of its probes (see perfbench/hostspeed.py).
    start = time.perf_counter()
    passes = 0
    pass_time = 0.0
    pass_rates: List[float] = []
    scaled: List[float] = []
    scales: List[float] = []
    while passes < min_passes or time.perf_counter() - start + pass_time / 2 < seconds:
        traced = trace and passes % 4 in (1, 2)  # U T T U: drift cancels
        pass_start = time.perf_counter()
        before = len(samples)
        probes = []
        probing = 0.0
        with gc_monitor if traced else nullcontext():
            for index in order_rng.sample(range(len(items)), len(items)):
                one_op(index, traced)
                t0 = time.perf_counter()
                probes.append(probe())
                probing += time.perf_counter() - t0
        pass_time = time.perf_counter() - pass_start
        factor = scale(probes)
        scales.append(factor)
        pass_wall[traced] += pass_time - probing
        scaled.extend(s * factor for s in samples[before:])
        completed = len(samples) - before - samples[before:].count(INF)
        pass_rates.append(completed / (pass_time - probing) / factor)
        passes += 1
    out.attempted = len(samples)

    # -- correctness, outside the timed window -----------------------------
    originals = {}
    for index, result in sorted(first.items()):
        kernel, config = items[index]
        if kernel.source not in originals:
            original = parse_statement(kernel.source)
            normalize_blocks(original)
            # one random environment per source, shared by its variants: the
            # one verify_equivalence itself draws for its first trial
            env = make_random_environment(original, np.random.default_rng(0), extent)
            originals[kernel.source] = original, env
        original, env = originals[kernel.source]
        generated = parse_statement(result.code)
        try:
            with recorder.span("verify_equivalence"):
                check = verify_equivalence(
                    original, generated, env=env, trials=1, rtol=1e-6, atol=1e-8
                )
            message = None if check.passed else check.message
        except Exception as exc:  # the check itself failed: not verified
            message = f"verification raised {type(exc).__name__}: {exc}"
        if message is not None:
            out.wrong.append(f"{kernel.name} [{config.variant.value}]: {message}")
            out.wrong_ops += ops_per_item[index]

    # the quality figures cover every input that must optimize, never a
    # subset, and never the tail, so that fixing the tail leaves them as is
    regular = [i for i, (kernel, _) in enumerate(items) if not kernel.expected_error]
    missing = [items[i][0].name for i in regular if i not in first]
    if missing:
        out.invalid.append(f"no output for {len(missing)} inputs: {missing[:3]}")
    distinct = [(items[i][0], items[i][1], first[i]) for i in regular if i in first]
    quality = code_quality(distinct)
    counts = egraph_counts(result for _, _, result in distinct)
    out.deterministic = {**quality, **counts}
    if counts["egraph.time_limit_stops"]:
        out.invalid.append("a saturation stopped on its time limit")

    within = sum(1 for s in scaled if s <= slo_s)
    if not trace:
        out.metrics = {
            # the median pass, so one pass slowed by the host counts little
            "ops_per_s": statistics.median(pass_rates),
            "latency_p50_ms": percentile(scaled, 0.5) * 1e3,
            "latency_p90_ms": percentile(scaled, 0.9) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
            "within_slo_ratio": within / len(scaled),
            **quality,
        }
    else:
        traced_ops = op_count[True]
        self_times = recorder.self_times()
        per_op = lambda seconds_: seconds_ * 1e3 / traced_ops  # noqa: E731
        untraced_mean = op_time[False] / op_count[False]
        traced_mean = op_time[True] / traced_ops
        layer_total = sum(
            self_times.get(name, 0.0)
            for name in ["optimize_source"] + [f"stage.{s}" for s in STAGE_NAMES]
        )
        out.metrics = {
            "driver.self_ms": per_op(self_times.get("optimize_source", 0.0)),
            **{
                f"stage.{name}_ms": per_op(self_times.get(f"stage.{name}", 0.0))
                for name in STAGE_NAMES
            },
            **{k: v / traced_ops for k, v in phase_ms(traced_results).items()},
            **counts,
            "gc.ms": per_op(gc_monitor.seconds),
            "gc.collections": gc_monitor.collections / traced_ops,
            "interp.verify_ms": mean(recorder.durations("verify_equivalence")) * 1e3,
            "trace.overhead_ratio": traced_mean / untraced_mean - 1.0,
            # harness work between calls and time outside every span lower it
            "trace.coverage_ratio": layer_total / pass_wall[True],
            **(_service_layers(seed, slo_s, rate, out) if workload == "suite_accsat"
               else SERVICE_LAYER_ZEROS),
        }
    out.details = {
        "passes": passes,
        "ops_per_s_by_pass": [round(rate, 3) for rate in pass_rates],
        "host_scale_by_pass": [round(factor, 3) for factor in scales],
        "raw_latency_ms": [percentile(samples, q) * 1e3 for q in (0.5, 0.9)],
        "latency_p99_ms": percentile(scaled, 0.99) * 1e3,
        "samples": len(samples),
        "distinct_inputs": len(items),
    }
    return out

