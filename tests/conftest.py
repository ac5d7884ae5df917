import ctypes
import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedtune
from fedtune import adapter as adapter_mod
from fedtune import model as model_mod
from fedtune import session as session_mod
from fedtune.model import ModelSpec
from fedtune.tensor_nn import SeededRng

F32_EPS = float(np.finfo(np.float32).eps)


@functools.cache
def _openblas():
    """numpy's bundled OpenBLAS, or None where it cannot be loaded."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
        "libscipy_openblas64_*.so"))
    try:
        return ctypes.CDLL(str(libs[0]))
    except (IndexError, OSError):
        return None


@functools.cache
def blas_core_name() -> str:
    """The OpenBLAS kernel numpy runs on at runtime (e.g. "SkylakeX"), or "unknown".

    The bit-identity tests compare GEMMs of different shapes, whose last
    bits depend on the kernel; their failure messages name it.
    """
    corename = getattr(_openblas(), "scipy_openblas_get_corename64_", None)
    if corename is None:
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def blas_threads(count: int | None = None) -> int:
    """The number of threads numpy's OpenBLAS runs on (0 where unknown), after setting ``count``.

    Some kernels round a GEMM split across threads apart from one run on a
    single thread, so a pinned digest holds at one thread count
    (``test_golden_bits.py``).
    """
    lib = _openblas()
    if lib is None or not hasattr(lib, "scipy_openblas_get_num_threads64_"):
        return 0
    set_threads, get_threads = (lib.scipy_openblas_set_num_threads64_,
                                lib.scipy_openblas_get_num_threads64_)
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    if count is not None:
        set_threads(count)
    return get_threads()


def assert_equal_on_skylakex(got: np.ndarray, want: np.ndarray, atol: float) -> None:
    """``got`` and ``want`` agree as far as the traces read them, and bit for bit on SkylakeX.

    The traces count argmaxes, so those are equal on every kernel, and the
    values are within ``atol``. Which bits GEMMs of different shapes round
    to depends on the OpenBLAS kernel's blocking, so bit equality is
    asserted on SkylakeX alone, the kernel it was established on.
    """
    kernel = f"BLAS kernel {blas_core_name()}"
    assert np.array_equal(got.argmax(axis=-1), want.argmax(axis=-1)), kernel
    assert np.allclose(got, want, rtol=0, atol=atol), kernel
    if blas_core_name() == "SkylakeX":
        assert got.tobytes() == want.tobytes(), kernel


# prints the kernel it runs on, then, given argv[1], runs the named tests unless that is argv[1]
_KERNEL_CHILD = """
import sys
import pytest
from conftest import blas_core_name
print(blas_core_name(), flush=True)
if len(sys.argv) > 1 and blas_core_name() != sys.argv[1]:
    sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", *sys.argv[2:]]))
"""


def _run_child(core: str, argv: list[str]) -> subprocess.CompletedProcess:
    """Run ``_KERNEL_CHILD`` with ``argv`` under ``OPENBLAS_CORETYPE=core`` at one BLAS thread."""
    src = str(Path(fedtune.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", _KERNEL_CHILD, *argv],
                          cwd=Path(__file__).resolve().parent, env=env,
                          capture_output=True, text=True)


def kernel_selected_by(core: str) -> str:
    """The kernel a child process runs under ``OPENBLAS_CORETYPE=core``; it runs no test."""
    return _run_child(core, []).stdout.partition("\n")[0]


def run_under_kernel(core: str, tests: list[str]) -> None:
    """Run ``tests`` (pytest paths or node ids) in a child process under ``OPENBLAS_CORETYPE=core``.

    The child runs one BLAS thread, as the benchmark does. Skips when the
    variable takes no effect here, that is when the child runs the kernel
    this process runs; otherwise fails, with the child's output, unless
    every test passes.
    """
    run = _run_child(core, [blas_core_name(), *tests])
    kernel = run.stdout.partition("\n")[0]
    if kernel == blas_core_name():
        pytest.skip(f"OPENBLAS_CORETYPE={core} took no effect here: the child runs the "
                    f"{kernel} kernel, as this process does")
    assert run.returncode == 0, f"{core} ({kernel} kernel):\n{run.stdout[-3000:]}{run.stderr}"


def stacked_digest(events: list[dict]) -> tuple[int, str]:
    """Where a trace's first ``wider`` round is, and the sha256 of the events before it.

    When a width was a chain of 8-wide units, a ``monolithic_adapters`` key
    (True by default) chose one unit in the fixed modes. With that key put
    back into the ``session`` config, and written as ``TraceWriter`` writes
    them, the events before the first round of a ``wider`` track (all of
    them if there is none) are those that code wrote: one bottleneck trains
    and draws as one unit did until a widened bottleneck trains.
    """
    session = {**events[0], "config": {**events[0]["config"], "monolithic_adapters": True}}
    events = [session, *events[1:]]
    cut = next((i for i, e in enumerate(events)
                if e["evt"] == "round" and e["track"] == "wider"), len(events))
    lines = "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
                    for e in events[:cut])
    return cut, hashlib.sha256(lines.encode()).hexdigest()


@pytest.fixture
def tiny_spec() -> ModelSpec:
    return ModelSpec(num_layers=2, hidden=8, heads=2, ffn_dim=16,
                     vocab=12, seqlen=5, num_labels=3)


@pytest.fixture
def tiny_model(tiny_spec):
    return model_mod.build_model(tiny_spec, seed=3)


@pytest.fixture
def tiny_tokens():
    # row 0 is the pooling token by convention
    return np.array([[0, 1, 2, 3, 4], [0, 5, 6, 7, 8], [0, 9, 10, 11, 1]])


def drawn_backbone(spec: ModelSpec, seed: int) -> model_mod.ModelState:
    """``build_model``'s backbone with every layer-norm gain and shift and every bias drawn.

    ``build_model`` starts gains at 1 and shifts and biases at 0, where a
    slip in how they are applied can change no bit; each 1-D parameter here
    is moved by N(0, 0.2).
    """
    model = model_mod.build_model(spec, seed)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        if p.data.ndim == 1:
            p.data[:] = p.data + rng.normal(0.0, 0.2, p.data.shape)
    return model


def small_session_doc(**overrides) -> dict:
    """A fast-but-real session configuration for integration tests."""
    doc = {
        "seed": 11,
        "mode": "fixed_adapter",
        "model": {"num_layers": 3, "hidden": 16, "heads": 2, "ffn_dim": 32,
                  "vocab": 24, "seqlen": 8, "num_labels": 3},
        "task": {"teacher_seed": 5, "samples_per_label": 40, "noise_rate": 0.0},
        "num_clients": 9,
        "participants_per_group": 2,
        "noniid_concentration": 10.0,
        "batch_size": 4,
        "max_rounds": 4,
        "fixed_depth": 2,
        "fixed_width": 8,
    }
    doc.update(overrides)
    return doc


def drawn_group(world, track, size: int) -> list:
    """``track`` paired with the first ``size`` clients of the world's next selection draw.

    ``session.assign_groups`` cuts one permutation of the population, so
    these are the clients a draw of ``size`` takes; ``size`` is at most 3N.
    """
    [(track, group)] = session_mod.assign_groups(world, [track])
    return [(track, group[:size])]


@pytest.fixture
def small_world():
    cfg = session_mod.config_from_dict(small_session_doc())
    return session_mod.build_world(cfg)
