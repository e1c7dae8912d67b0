"""Pure functions of (source, config): generated-code quality and e-graph counts.

Every figure here is read from the program's public reports
(``KernelReport``, ``RunnerReport.rule_stats``) of one run per distinct
input, so it repeats exactly on every run of one commit.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from repro.egraph.runner import StopReason
from repro.gpusim import (
    A100_PCIE_40GB,
    KernelCharacterization,
    compile_kernel,
    compiler_model,
    simulate_kernel,
)
from repro.saturator import SaturatorConfig
from repro.saturator.report import OptimizationResult

from perfbench.common import mean
from perfbench.inputs import Kernel

_NVHPC = compiler_model("nvhpc", "acc")


def modeled_time(kernel: Kernel, report, original: bool, bulk: bool) -> float:
    """Modelled A100/nvhpc seconds of one kernel's original or generated code.

    The compiler model's redundancy reference for the original build is
    the generated code of this same run (what source-level CSE achieved).
    """

    characterization = KernelCharacterization(
        name=report.name,
        original=report.original,
        generated=report.optimized,
        bulk_load=bulk and not original,
        is_original=original,
        live_temporaries=0 if original else report.optimized.temporaries,
        scale=kernel.scale,
        uses_kernels_directive="acc kernels" in kernel.source,
    )
    compiled = compile_kernel(characterization, _NVHPC, A100_PCIE_40GB)
    return simulate_kernel(compiled, A100_PCIE_40GB, kernel.launch).time_s


def code_quality(
    results: Iterable[Tuple[Kernel, SaturatorConfig, OptimizationResult]],
) -> Dict[str, float]:
    """gen_cost / gen_flops / gen_loads sums and the modelled speedup.

    *results* holds one ``(kernel, config, result)`` per distinct input.
    """

    cost = flops = loads = 0.0
    log_speedups: List[float] = []
    for kernel, config, result in results:
        bulk = config.variant.bulk_load
        for report in result.kernels:
            cost += report.extracted_cost
            stats = report.optimized
            flops += stats.flops + stats.fmas + stats.divs
            loads += stats.loads
            before = modeled_time(kernel, report, True, bulk)
            after = modeled_time(kernel, report, False, bulk)
            log_speedups.append(math.log(before / after))
    return {
        "gen_cost": cost,
        "gen_flops": flops,
        "gen_loads": loads,
        "modeled_speedup": math.exp(mean(log_speedups)),
    }


def egraph_counts(results: Iterable[OptimizationResult]) -> Dict[str, float]:
    """Saturation counts summed over distinct inputs (zero without saturation)."""

    counts = dict.fromkeys((
        "egraph.iterations", "egraph.nodes", "egraph.matches", "egraph.unions",
        "egraph.node_limit_stops", "egraph.time_limit_stops", "codegen.temporaries",
    ), 0)
    for result in results:
        for report in result.kernels:
            counts["codegen.temporaries"] += report.optimized.temporaries
            runner = report.runner
            if runner is None:
                continue
            counts["egraph.iterations"] += runner.num_iterations
            counts["egraph.nodes"] += runner.egraph_nodes
            for rule in runner.rule_stats.values():
                counts["egraph.matches"] += rule.matches
                counts["egraph.unions"] += rule.applied
            if runner.stop_reason is StopReason.NODE_LIMIT:
                counts["egraph.node_limit_stops"] += 1
            elif runner.stop_reason is StopReason.TIME_LIMIT:
                counts["egraph.time_limit_stops"] += 1
    matches = counts["egraph.matches"]
    counts["egraph.union_yield"] = counts["egraph.unions"] / matches if matches else 0.0
    return counts


def phase_ms(results: Iterable[OptimizationResult]) -> Dict[str, float]:
    """Summed ``RunnerReport.phase_times`` in milliseconds."""

    totals = {"egraph.search_ms": 0.0, "egraph.apply_ms": 0.0, "egraph.rebuild_ms": 0.0}
    for result in results:
        for report in result.kernels:
            if report.runner is None:
                continue
            phases = report.runner.phase_times
            totals["egraph.search_ms"] += phases["search"] * 1e3
            totals["egraph.apply_ms"] += phases["apply"] * 1e3
            totals["egraph.rebuild_ms"] += phases["rebuild"] * 1e3
    return totals
