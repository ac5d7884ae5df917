"""The traces do not depend on the BLAS kernel.

Some logit bits do (see ``test_golden_bits.py``), but accuracies are counts
of argmaxes, and no argmax flips between OpenBLAS's kernels on the pinned
configs. So the golden trace digests, the six small configs and the
mid-shape climb, must hold under each kernel. Each kernel runs them in a
child process under ``OPENBLAS_CORETYPE``; Prescott selects the Katmai
kernel. Zen is left out: it selects Haswell's.
"""

from pathlib import Path

import pytest

from conftest import run_under_kernel

GOLDEN_TRACE_TESTS = ("test_golden_trace.py", "test_mid_shape_golden.py")


@pytest.mark.parametrize("core", ["Haswell", "Prescott"])
def test_golden_traces_hold_under_another_kernel(core):
    here = Path(__file__).resolve().parent
    run_under_kernel(core, [str(here / name) for name in GOLDEN_TRACE_TESTS])
