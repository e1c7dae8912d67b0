"""Workload inputs, all generated from the run's seed.

The program under test only ever sees what these functions return:

* :func:`suite_kernels` — the distinct NPB and SPEC ACCEL kernel sources
  with their launch parameters (fixed; the seed only shuffles pass order),
* :func:`synth_kernels` — seeded frontend-heavy loop nests plus a small
  deep/wide tail that trips the recursive frontend,
* :func:`serve_keys` / :func:`serve_schedule` — the serve key space and the
  open-loop Poisson/Zipf request schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.benchsuite import NPB_BENCHMARKS, SPEC_ACC_BENCHMARKS
from repro.egraph.runner import RunnerLimits
from repro.gpusim import LaunchConfig
from repro.saturator import SaturatorConfig, Variant


@dataclass(frozen=True)
class Kernel:
    """One benchmark input: a source plus what the GPU model needs."""

    name: str
    source: str
    launch: LaunchConfig
    scale: float = 1.0
    #: The exception this input is built to provoke (the synth_cse tail);
    #: empty for inputs that must optimize.
    expected_error: str = ""


#: Small kernels outside every workload: optimizing them in set-up compiles
#: the rule patterns and imports every lazily loaded module.
WARMUP_SOURCES = (
    """
#pragma acc parallel loop
for (i = 1; i < n - 1; i++)
  out[i] = a[i] * b[i] + a[i] * b[i] + 2.0 * 3.0 * (c[i] - a[i]);
""",
    """
#pragma acc parallel loop
for (i = 1; i < n - 1; i++)
  out[i] = (a[i] + b[i]) * (a[i] + b[i]) - 4.0 * c[i] * a[i];
""",
)


def suite_kernels() -> List[Kernel]:
    """The distinct NPB and SPEC ACCEL (OpenACC) kernels, in registry order."""

    kernels: List[Kernel] = []
    seen = set()
    for bench in NPB_BENCHMARKS + SPEC_ACC_BENCHMARKS:
        for spec in bench.kernels:
            if spec.source in seen:
                continue
            seen.add(spec.source)
            kernels.append(Kernel(
                name=f"{bench.name}:{spec.name}",
                source=spec.source,
                launch=LaunchConfig(
                    iterations_per_launch=spec.iterations_per_launch,
                    launches=spec.launches,
                    threads_per_block=spec.threads_per_block,
                    parallel_fraction=spec.parallel_fraction,
                ),
                scale=spec.statement_scale,
            ))
    return kernels


# ---------------------------------------------------------------------------
# synth_cse: seeded frontend-heavy loop nests
# ---------------------------------------------------------------------------

#: Kernels per synth_cse draw; the last two are the deep/wide tail.  The
#: tail's failures count as +inf latencies, so its share (2/38) must stay
#: well under 10% for p90 to measure finite kernels, not the slowest one.
SYNTH_KERNELS = 38
SYNTH_VARIANTS = (Variant.CSE, Variant.CSE_BULK)
_INPUTS = ("a", "b", "c", "d", "e")
_OUTPUTS = ("w0", "w1", "w2", "w3")
_COEFFS = ("c0", "c1", "c2", "c3", "c4", "c5")
_HEADER = """#pragma acc parallel loop gang
for (j = 1; j < ny - 1; j++) {
#pragma acc loop vector
  for (i = 1; i < nx - 1; i++) {
"""
_FOOTER = "  }\n}\n"


_ALL_ACCESSES = tuple(
    f"{name}[{row}][{col}]"
    for name in _INPUTS
    for row in ("j - 1", "j", "j + 1")
    for col in ("i - 1", "i", "i + 1")
)


def _access(rng: random.Random) -> str:
    return rng.choice(_ALL_ACCESSES)


class _ExprGen:
    """Random expressions that share accesses and sub-expressions.

    Shapes are random but leaf counts are fixed by the statement's depth,
    so every draw carries the same amount of source arithmetic and the
    seed only changes how much of it CSE can share.
    """

    #: Leaves per statement, by nominal expression depth 3-6.
    LEAVES = {3: 3, 4: 5, 5: 7, 6: 9}

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.temps: List[str] = []
        # a per-kernel pool of accesses and two-leaf motifs, so statements
        # repeat sub-expressions and CSE has work to do
        self.accesses = rng.sample(_ALL_ACCESSES, 12)
        self.motifs = [
            f"({rng.choice(self.accesses)} {rng.choice('+-*')} {self._leaf()})"
            for _ in range(6)
        ]

    def _leaf(self) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.6:
            return rng.choice(self.accesses)
        if roll < 0.75:
            return rng.choice(_COEFFS)
        if roll < 0.85 and self.temps:
            return rng.choice(self.temps)
        return f"{rng.choice((0.5, 1.5, 2.0, 3.0, 0.25))}"

    def expr(self, leaves: int) -> str:
        rng = self.rng
        if leaves == 1:
            return self._leaf()
        if leaves == 2 and rng.random() < 0.4:
            return rng.choice(self.motifs)
        split = rng.randint(1, leaves - 1)
        left, right = self.expr(split), self.expr(leaves - split)
        if rng.random() < 0.05:
            return f"(({left} + {right}) / {rng.choice((2.0, 4.0, 8.0))})"
        return f"({left} {rng.choice('++-**')} {right})"


def _synth_body(rng: random.Random, statements: int) -> List[str]:
    gen = _ExprGen(rng)
    lines = []
    for index in range(statements):
        expr = gen.expr(_ExprGen.LEAVES[3 + index % 4])
        if index % 3 == 1:
            name = f"t{index}"
            lines.append(f"    {name} = {expr};")
            gen.temps.append(name)
        else:
            op = "+=" if index % 4 == 3 else "="
            lines.append(f"    {rng.choice(_OUTPUTS)}[j][i] {op} {expr};")
    return lines


def _deep_statement(rng: random.Random) -> str:
    # nesting depth >= 100 is past the recursive parser's limit
    depth = rng.randint(100, 140)
    expr = _access(rng)
    for _ in range(depth):
        expr = f"({expr} + {_access(rng)})"
    return f"    w0[j][i] = {expr};"


def _wide_statement(rng: random.Random) -> str:
    # a flat sum of >= 500 terms nests as deeply in the left-leaning AST
    terms = rng.randint(500, 600)
    sums = " + ".join(f"{rng.choice(_COEFFS)} * {_access(rng)}" for _ in range(terms))
    return f"    w1[j][i] = {sums};"


def synth_kernels(seed: int) -> List[Kernel]:
    """A seeded draw of frontend-heavy kernels, the last two the tail."""

    rng = random.Random(f"synth-{seed}")
    launch = LaunchConfig()
    kernels = []
    regular = SYNTH_KERNELS - 2
    for index in range(SYNTH_KERNELS):
        tail = index >= regular
        # statement counts spread evenly from 10 and capped at 60, independent
        # of the seed; the top sixth all have 60, so p90 falls among many
        # same-sized kernels instead of on the single largest one
        statements = 10 if tail else min(60, 10 + (60 * index) // (regular - 1))
        lines = _synth_body(rng, statements)
        if tail:
            maker = _deep_statement if index == SYNTH_KERNELS - 2 else _wide_statement
            lines.insert(rng.randint(0, len(lines)), maker(rng))
        kernels.append(Kernel(
            name=f"synth{index}{'-tail' if tail else ''}",
            source=_HEADER + "\n".join(lines) + "\n" + _FOOTER,
            launch=launch,
            expected_error="RecursionError" if tail else "",
        ))
    return kernels


# ---------------------------------------------------------------------------
# serve_*: key space and open-loop schedule
# ---------------------------------------------------------------------------

#: The (variant, limits) half of a serve key; the other half is a suite
#: kernel.  Reduced limits keep a cold run well under the latency limit.
SERVE_CONFIGS = (
    SaturatorConfig(variant=Variant.CSE_BULK),
    SaturatorConfig(limits=RunnerLimits(node_limit=2000, iter_limit=4)),
    SaturatorConfig(limits=RunnerLimits(node_limit=4000, iter_limit=6)),
)
#: Suite kernels whose solo cold run takes over 100 ms on a 2-core x86 host
#: (up to 0.5 s for olbm).  Served open loop on a 2-thread service, one
#: such run holds back every request behind it, and how many of them a
#: seed draws decided p50/p90 more than the service did.  suite_accsat
#: covers them.
SERVE_SLOW_KERNELS = (
    "BT:bt_jacobian_z", "LU:lu_jacld", "SP:sp_xsolve",
    "bt:bt_jacobian_z", "csp:csp_xsolve", "olbm:olbm_collide",
)
#: Entries of the service's bounded LRU artifact cache (a tenth of the keys).
SERVE_CACHE_ENTRIES = 8
SERVE_WORKERS = 2
#: Zipf exponent of the key popularity draw.
ZIPF_S = 0.8


@dataclass(frozen=True)
class ServeKey:
    kernel: Kernel
    config_index: int

    @property
    def config(self) -> SaturatorConfig:
        return SERVE_CONFIGS[self.config_index]

    @property
    def name(self) -> str:
        return f"{self.kernel.name}#{self.config_index}"


def serve_keys() -> List[ServeKey]:
    return [
        ServeKey(kernel, index)
        for kernel in suite_kernels()
        if kernel.name not in SERVE_SLOW_KERNELS
        for index in range(len(SERVE_CONFIGS))
    ]


def serve_schedule(
    seed: int, rate: float, seconds: float, keys: int
) -> List[Tuple[float, int]]:
    """``rate * seconds`` Poisson arrivals, with Zipf-apportioned keys.

    Arrival times are uniform order statistics over the window: a Poisson
    process conditioned on its count, so every seed offers the same load.
    Keys are a stratified Zipf draw: the key of popularity rank r gets its
    expected share of the requests (largest-remainder rounding), and the
    seed shuffles them into a random order.  Ranks are a fixed property of
    the workload.  Stratifying keeps the mix of cheap and dear cold runs
    alike between seeds; the seed still decides which request is a cold
    run, a cache hit or a coalesced follower, and when each arrives.
    """

    rng = random.Random(f"serve-{seed}")
    ranked = list(range(keys))
    random.Random("serve-popularity").shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(keys)]
    count = round(rate * seconds)
    exact = [count * w / sum(weights) for w in weights]
    quota = [int(share) for share in exact]
    by_remainder = sorted(range(keys), key=lambda r: quota[r] - exact[r])
    for rank in by_remainder[:count - sum(quota)]:
        quota[rank] += 1
    draws = [ranked[rank] for rank in range(keys) for _ in range(quota[rank])]
    rng.shuffle(draws)
    times = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    return list(zip(times, draws))
