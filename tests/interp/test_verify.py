"""Tests for the equivalence checker and random-input generation."""

import numpy as np
import pytest

from repro.benchsuite.npb.cg import CG_SPMV_SOURCE
from repro.frontend import parse_statement
from repro.frontend.normalize import normalize_blocks
from repro.interp import (
    infer_kernel_inputs,
    make_random_environment,
    verify_equivalence,
)
from repro.saturator import SaturatorConfig, Variant, optimize_source

KERNEL = """
for (i = 1; i < n - 1; i++) {
  out[i] = c0 * a[i] + c1 * (a[i-1] + a[i+1]);
}
"""


class TestInference:
    def test_arrays_and_ranks_inferred(self):
        inputs = infer_kernel_inputs(parse_statement(KERNEL))
        assert inputs.arrays["out"][0] == 1
        assert inputs.arrays["a"][0] == 1

    def test_scalars_inferred(self):
        inputs = infer_kernel_inputs(parse_statement(KERNEL))
        assert {"n", "c0", "c1", "i"} <= (inputs.scalars | inputs.integer_like)

    def test_literal_indices_grow_extents(self):
        stmt = parse_statement("{ x = table[7][0]; }")
        inputs = infer_kernel_inputs(stmt)
        rank, extents = inputs.arrays["table"]
        assert rank == 2
        assert extents[0] >= 8

    def test_loop_bounds_marked_integer_like(self):
        inputs = infer_kernel_inputs(parse_statement(KERNEL))
        assert "n" in inputs.integer_like


class TestRandomEnvironment:
    def test_environment_is_executable(self):
        stmt = parse_statement(KERNEL)
        env = make_random_environment(stmt, np.random.default_rng(1))
        from repro.interp import execute

        execute(stmt, env.copy())  # must not raise / go out of bounds

    def test_offset_accesses_stay_in_bounds(self):
        stmt = parse_statement(
            "for (i = 1; i <= n; i++) { b[i] = a[i+1] - a[i-1]; }"
        )
        env = make_random_environment(stmt, np.random.default_rng(2))
        from repro.interp import execute

        execute(stmt, env.copy())

    def test_deterministic_given_seed(self):
        stmt = parse_statement(KERNEL)
        env1 = make_random_environment(stmt, np.random.default_rng(7))
        env2 = make_random_environment(stmt, np.random.default_rng(7))
        assert env1.allclose(env2)


class TestVerifyEquivalence:
    def test_identical_kernels_pass(self):
        a = parse_statement(KERNEL)
        b = parse_statement(KERNEL)
        assert verify_equivalence(a, b, trials=2).passed

    def test_reassociated_kernel_passes_within_tolerance(self):
        a = parse_statement("{ r[i] = (x + y) + z; }")
        b = parse_statement("{ r[i] = x + (y + z); }")
        assert verify_equivalence(a, b, trials=3).passed

    def test_different_kernels_fail(self):
        a = parse_statement("{ r[i] = x + y; }")
        b = parse_statement("{ r[i] = x - y; }")
        result = verify_equivalence(a, b, trials=1)
        assert not result.passed
        assert result.max_difference > 0


class TestIndirectIndexing:
    """CSR-style kernels read arrays inside subscripts and loop bounds
    (CG's ``p[colidx[k]]`` under ``k < rowstr[j+1]``)."""

    def test_subscript_reads_are_inferred_as_arrays(self):
        inputs = infer_kernel_inputs(parse_statement(CG_SPMV_SOURCE))
        assert inputs.arrays["colidx"][0] == 1
        assert inputs.arrays["rowstr"][0] == 1
        assert "colidx" not in inputs.scalars

    def test_index_arrays_hold_valid_indices(self):
        env = make_random_environment(
            parse_statement(CG_SPMV_SOURCE), np.random.default_rng(0)
        )
        rowstr, colidx = env.arrays["rowstr"], env.arrays["colidx"]
        assert np.issubdtype(rowstr.dtype, np.integer)
        assert np.issubdtype(colidx.dtype, np.integer)
        assert (np.diff(rowstr) >= 0).all()  # loop-bound array ascends
        assert ((colidx >= 0) & (colidx < len(env.arrays["p"]))).all()
        assert ((rowstr >= 0) & (rowstr <= len(env.arrays["a"]))).all()

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_cg_spmv_verifies_for_every_variant(self, variant):
        original = parse_statement(CG_SPMV_SOURCE)
        normalize_blocks(original)
        result = optimize_source(CG_SPMV_SOURCE, SaturatorConfig(variant=variant))
        optimized = parse_statement(result.code)
        check = verify_equivalence(original, optimized, trials=3, seed=0)
        assert check.passed, check.message
