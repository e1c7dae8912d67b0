"""Semantic-equivalence checking between original and optimized kernels.

This is the reproduction's stand-in for "the benchmarks still validate"
in the paper: the optimized kernel must compute the same values as the
original one.  :func:`verify_equivalence` executes both on identical random
environments and compares every array and scalar within a floating-point
tolerance (reassociation and FMA formation change results in the last ulps,
exactly like the ``-ffast-math`` / ``-gpu=fastmath`` flags used in §VII).

:func:`make_random_environment` builds a plausible random input for a
kernel by analysing how each name is used: loop bounds become small
integers, index-like scalars become valid indices, everything else becomes
a random double, and arrays are sized from the observed subscript ranks and
literal indices.  Arrays read inside a subscript or a loop bound (CSR
``rowstr``/``colidx`` style) hold valid integer indices instead, sorted
when they bound a loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.frontend import cast as C
from repro.interp.interpreter import Interpreter
from repro.interp.values import Environment

__all__ = [
    "KernelInputs",
    "VerificationResult",
    "infer_kernel_inputs",
    "make_random_environment",
    "verify_equivalence",
]


@dataclass
class KernelInputs:
    """What a kernel reads from its surrounding context."""

    #: array name -> (rank, minimum extent per dimension)
    arrays: Dict[str, Tuple[int, Tuple[int, ...]]] = field(default_factory=dict)
    #: free scalar names (not declared inside the kernel)
    scalars: Set[str] = field(default_factory=set)
    #: names used as loop bounds or in index arithmetic (should be integers)
    integer_like: Set[str] = field(default_factory=set)
    #: names read in a loop header (``for`` init/cond/step, loop conditions)
    loop_bounds: Set[str] = field(default_factory=set)


def _array_access_chains(node: C.Node):
    """Yield (base name, [index exprs]) for every outermost subscript chain."""

    def full_chain(expr: C.ArraySub):
        indices = []
        base = expr
        while isinstance(base, C.ArraySub):
            indices.append(base.index)
            base = base.base
        indices.reverse()
        name: Optional[str] = None
        if isinstance(base, C.Ident):
            name = base.name
        elif isinstance(base, C.Member) and isinstance(base.base, C.Ident):
            name = f"{base.base.name}.{base.field_name}"
        return name, indices

    seen_subs: Set[int] = set()
    for n in C.walk(node):
        if isinstance(n, C.ArraySub) and id(n) not in seen_subs:
            # only the outermost ArraySub of a chain: its bases are the
            # same access, but subscripts read *inside* its indices (the
            # ``colidx[k]`` of ``p[colidx[k]]``) are accesses of their own
            inner = n.base
            while isinstance(inner, C.ArraySub):
                seen_subs.add(id(inner))
                inner = inner.base
            name, indices = full_chain(n)
            if name is not None:
                yield n, name, indices
        elif isinstance(n, C.Member) and isinstance(n.base, C.ArraySub):
            name, indices = full_chain(n.base)
            if name is not None:
                yield n, f"{name}.{n.field_name}", indices


def infer_kernel_inputs(node: C.Node) -> KernelInputs:
    """Infer the arrays and free scalars a kernel statement uses."""

    inputs = KernelInputs()
    declared: Set[str] = set()
    for n in C.walk(node):
        if isinstance(n, C.Decl):
            declared.add(n.name)

    member_array_bases: Set[str] = set()

    for _, name, indices in _array_access_chains(node):
        rank = len(indices)
        extents = list(inputs.arrays.get(name, (rank, (0,) * rank))[1])
        if len(extents) < rank:
            extents = list(extents) + [0] * (rank - len(extents))
        for position, index in enumerate(indices):
            if isinstance(index, C.Number) and not index.is_float:
                extents[position] = max(extents[position], int(index.value) + 1)
            for inner in C.walk(index):
                if isinstance(inner, C.Ident):
                    inputs.integer_like.add(inner.name)
        inputs.arrays[name] = (max(rank, inputs.arrays.get(name, (0, ()))[0]), tuple(extents))
        if "." in name:
            member_array_bases.add(name.split(".", 1)[0])

    # loop bounds and index arithmetic are integer-like
    for n in C.walk(node):
        if isinstance(n, C.For):
            for part in (n.init, n.cond, n.step):
                if part is None:
                    continue
                for inner in C.walk(part):
                    if isinstance(inner, C.Ident):
                        inputs.loop_bounds.add(inner.name)
        elif isinstance(n, (C.While, C.DoWhile)):
            for inner in C.walk(n.cond):
                if isinstance(inner, C.Ident):
                    inputs.loop_bounds.add(inner.name)
    inputs.integer_like |= inputs.loop_bounds

    array_names = {name.split(".", 1)[0] for name in inputs.arrays} | set(inputs.arrays)
    math_names = {"sqrt", "fabs", "exp", "log", "pow", "sin", "cos", "fmin", "fmax",
                  "min", "max", "fma", "floor", "ceil", "abs", "rsqrt", "hypot",
                  "tan", "atan", "atan2", "sqrtf", "powf", "expf", "logf", "fabsf"}
    for n in C.walk(node):
        if isinstance(n, C.Ident):
            name = n.name
            if name in declared or name in array_names or name in math_names:
                continue
            if name in member_array_bases:
                continue
            inputs.scalars.add(name)
    inputs.scalars -= set(inputs.arrays)
    return inputs


def make_random_environment(
    node: C.Node,
    rng: Optional[np.random.Generator] = None,
    extent: int = 4,
    scalar_range: float = 2.0,
) -> Environment:
    """Build a random but valid :class:`Environment` for a kernel statement."""

    rng = rng or np.random.default_rng(0)
    inputs = infer_kernel_inputs(node)
    env = Environment()

    # Index expressions may add two bound-like scalars (e.g. ``base + j``) and
    # apply small constant offsets (``i + 2``), so arrays get 2*extent + 4
    # elements per dimension; literal subscripts can push a dimension higher.
    safe_extent = 2 * extent + 4
    for name, (rank, min_extents) in inputs.arrays.items():
        dims = tuple(max(safe_extent, me) for me in (min_extents or (0,) * rank))
        if len(dims) < rank:
            dims = dims + (safe_extent,) * (rank - len(dims))
        if name in inputs.integer_like:
            # read inside a subscript or a loop bound: every element must
            # be a valid index, and bound arrays (CSR row starts) ascend
            values = rng.integers(0, safe_extent, size=dims)
            if name in inputs.loop_bounds:
                values = np.sort(values, axis=None).reshape(dims)
            env.arrays[name] = values
        else:
            env.arrays[name] = rng.uniform(-scalar_range, scalar_range, size=dims)

    for name in sorted(inputs.scalars):
        if name in inputs.integer_like:
            env.scalars[name] = int(extent)
        else:
            env.scalars[name] = float(rng.uniform(-scalar_range, scalar_range))
    return env


@dataclass
class VerificationResult:
    """Outcome of an equivalence check."""

    passed: bool
    trials: int
    max_difference: float = 0.0
    message: str = ""

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.passed


def verify_equivalence(
    original: C.Stmt,
    optimized: C.Stmt,
    env: Optional[Environment] = None,
    trials: int = 3,
    rtol: float = 1e-6,
    atol: float = 1e-9,
    extent: int = 4,
    max_iterations: int = 2_000_000,
    seed: int = 0,
) -> VerificationResult:
    """Execute both kernels on identical inputs and compare the results."""

    worst = 0.0
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        base_env = env.copy() if env is not None else make_random_environment(original, rng, extent)
        env_a = base_env.copy()
        env_b = base_env.copy()
        Interpreter(env_a, max_iterations).execute(original)
        Interpreter(env_b, max_iterations).execute(optimized)
        worst = max(worst, env_a.max_difference(env_b))
        if not env_a.allclose(env_b, rtol=rtol, atol=atol):
            return VerificationResult(
                False, trial + 1, worst,
                f"mismatch on trial {trial}: max difference {worst:.3e}",
            )
    return VerificationResult(True, trials, worst, "ok")
