"""The traces do not depend on the BLAS kernel, and the kernel-bound tests hold on each.

Some logit bits do (see ``test_golden_bits.py``), but accuracies are counts
of argmaxes, and no argmax flips between OpenBLAS's kernels on the pinned
configs. So the golden trace digests, the six small configs and the
mid-shape climb, must hold under each kernel. So must the tests that
compare GEMMs of different shapes, which assert bit equality on SkylakeX
alone (``conftest.assert_equal_on_skylakex``), and the per-kernel golden
bits. Each kernel runs them in a child process under ``OPENBLAS_CORETYPE``
at one BLAS thread, as the benchmark runs; Prescott selects the Katmai
kernel. Zen is left out: it selects Haswell's.
"""

from pathlib import Path

import pytest

from conftest import run_under_kernel

KERNEL_BOUND_TESTS = (
    "test_golden_trace.py",
    "test_mid_shape_golden.py",
    "test_golden_bits.py",
    "test_model.py::TestForward::test_golden_logits_reproduced",
    "test_model.py::TestEvaluate::test_eval_chunks_give_whole_set_logits",
    "test_pooled_top_layer.py::test_mid_shape_logits_bit_identical_to_unpooled",
    "test_tensor_nn.py::TestAttention::test_batch_permutation_equivariance",
)


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_kernel_bound_tests_hold_under_another_kernel(core):
    here = Path(__file__).resolve().parent
    run_under_kernel(core, [str(here / name) for name in KERNEL_BOUND_TESTS])
