"""The traces do not depend on the BLAS kernel, and the kernel-bound tests hold on each.

Some logit bits do (see ``test_golden_bits.py``), but accuracies are counts
of argmaxes, and no argmax flips between OpenBLAS's kernels on the pinned
configs. So the golden trace digests, the seven small configs and the
mid-shape climb, must hold under each kernel. So must the tests that
compare GEMMs of different shapes, which assert bit equality on SkylakeX
alone (``conftest.assert_equal_on_skylakex``), and the per-kernel golden
bits, and the equalities of stacked prefix passes and of the uncopied key
view (``test_stacked_prefix.py``), and widening's kept bytes and zero-unit
logits (``test_widen.py``). Each kernel runs them all in one child
process under ``OPENBLAS_CORETYPE`` at one BLAS thread, as the benchmark
runs; Prescott selects the Katmai kernel. Zen is left out, because it
selects Haswell's kernel: the last test checks that it still does.
"""

from pathlib import Path

import pytest

from conftest import blas_core_name, kernel_selected_by, run_under_kernel

KERNEL_BOUND_TESTS = (
    "test_golden_trace.py",
    "test_mid_shape_golden.py",
    "test_golden_bits.py",
    "test_model.py::TestForward::test_golden_logits_reproduced",
    "test_model.py::TestEvaluate::test_eval_chunks_give_whole_set_logits",
    "test_pooled_top_layer.py::test_mid_shape_logits_bit_identical_to_unpooled",
    "test_tensor_nn.py::TestAttention::test_batch_permutation_equivariance",
    "test_stacked_prefix.py::test_stacked_pass_equals_one_pass_per_chunk",
    "test_stacked_prefix.py::test_graph_free_multi_row_query_against_the_key_view_equals_the_copy",
    "test_stacked_prefix.py::test_graph_free_one_row_query_still_copies_the_keys",
    "test_stacked_prefix.py::test_recording_product_copies_the_keys",
    "test_widen.py",
)


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_kernel_bound_tests_hold_under_another_kernel(core):
    here = Path(__file__).resolve().parent
    run_under_kernel(core, [str(here / name) for name in KERNEL_BOUND_TESTS])


def test_zen_selects_haswells_kernel():
    """What a ``Zen`` child would run: the Haswell child's kernel, so Zen adds no case."""
    if blas_core_name() == "unknown":
        pytest.skip("OpenBLAS's kernel name cannot be read here")
    assert kernel_selected_by("Zen") == "Haswell"
