"""Golden bits that the trace digests cannot see: logits of a drawn backbone, trained buffers.

``build_model`` starts every layer-norm gain at 1 and every shift and bias
at 0, so a slip in how they are applied can change no logit of the goldens
in ``test_model.py`` and no trace.
Here they are drawn (``conftest.drawn_backbone``) on the mid shape, and the
sha256 of the logits is pinned, for one whole-set forward and for the
``PASS_SAMPLES``-sample chunks ``evaluate`` runs.

Accuracies are counts of argmaxes, so a last-bit change in training (a
recording ``bmm`` that multiplied the strided key view changed every
gradient of a mid-shape step) moves no trace digest until an argmax flips.
The sha256 of the final trained buffers of the ``fixed_adapter`` and
``full_ft`` golden-trace configs, and of ``full_ft``'s at the mid shape,
pins those bits.

Both are bit-level and depend on the OpenBLAS kernel, so each digest is
pinned per kernel (``conftest.blas_core_name``; under
``OPENBLAS_CORETYPE=Zen`` the library runs its Haswell kernel, under
``Prescott`` its Katmai kernel), and a kernel with no pinned digest skips.
Haswell's kernel also rounds a GEMM split across two threads apart from one
run on a single thread, so every digest is pinned at ``PINNED_THREADS``, the
one BLAS thread the benchmark runs, and each test here runs at that count.
``test_trace_kernels.py`` runs this file in a child process under each
other kernel.
"""

import hashlib
from dataclasses import asdict

import numpy as np
import pytest

from fedtune import adapter as adapter_mod
from fedtune import model as model_mod
from fedtune import session as session_mod
from fedtune import trace as trace_mod
from fedtune.model import ModelSpec, PrefixStore, evaluate
from fedtune.tensor_nn import SeededRng

from conftest import blas_core_name, blas_threads, drawn_backbone
from test_golden_trace import GOLDEN as TRACE_GOLDEN

PINNED_THREADS = 1
MID = ModelSpec(num_layers=6, hidden=64, heads=4, ffn_dim=128, vocab=200, seqlen=32, num_labels=4)
SAMPLES = 40  # two full evaluation chunks and a short one

# the whole set's bits equal the chunks' on SkylakeX and Katmai, not on Haswell
LOGITS_GOLDEN = {
    "whole_set": {
        "SkylakeX": "136565c56fbc61b228c4333c7687297dc7dd6c801a5c10b3f2e03dc47dc88d70",
        "Haswell": "7844eac74e5525bc844af5cb15c0259a842b8d3faeb0befce9cbe6fb6aed40be",
        "Katmai": "d40a4203ae0463e3fbb70b42646dc724a705f178ef35e46237382c274c1043fe",
    },
    "evaluate_chunks": {
        "SkylakeX": "136565c56fbc61b228c4333c7687297dc7dd6c801a5c10b3f2e03dc47dc88d70",
        "Haswell": "db8a6eaed8881d26e949471eedd4550b09b848789577acbac43ad29f2683fa0a",
        "Katmai": "d40a4203ae0463e3fbb70b42646dc724a705f178ef35e46237382c274c1043fe",
    },
}
# the golden-trace configs; at hidden 16 no recording ``bmm`` runs a GEMM that
# the strided key view would round otherwise, so ``full_ft`` runs at the mid shape too
TRAINED_DOCS = {
    "fixed_adapter": TRACE_GOLDEN["fixed_adapter"][0],
    "full_ft": TRACE_GOLDEN["full_ft"][0],
    "full_ft_mid": {**TRACE_GOLDEN["full_ft"][0], "model": asdict(MID)},
}
TRAINED_GOLDEN = {
    "fixed_adapter": {
        "SkylakeX": "21ffcff6c4dde4a6b5653367c0b44d593253b70ef24c07114b0719205ae4b875",
        "Haswell": "296376d15a1c21a408c9a0bb2fe93e1bd51998cc8e230875ad86324d96f389fc",
        "Katmai": "631faa46deb4248dd837e1eb270ff1037924a178bb2df171d62ceb2364936799",
    },
    "full_ft": {
        "SkylakeX": "72116c59787b235c1b5f785c3cfdb3765be34194a5ac7be1b2d7b032cef52fcc",
        "Haswell": "a154567765eeee1d54d328476d5ff394409c7081038931ec2b1a8dafbc046b42",
        "Katmai": "ed7254b6d8f547c5ec16fd32fd9881b76e71b835cfbce500f6936d86465d7e44",
    },
    "full_ft_mid": {
        "SkylakeX": "eea41ea9691a87dd59de9baf1ff028866ea88cb51989f556d9f133b159cfc07e",
        "Haswell": "f8de42a407ac0b2cea372ee8e9624019e655d738b7ec4fb1ebb019c980dc10f7",
        "Katmai": "63cf2c7d018dfd854da57c3ad15dba8cd6d867c42a552a8bc69ac089f8360707",
    },
}


@pytest.fixture(autouse=True)
def pinned_threads():
    """Every test here runs at the thread count its digests were pinned at."""
    before = blas_threads()
    if blas_threads(PINNED_THREADS) != PINNED_THREADS:
        pytest.skip(f"cannot set OpenBLAS to {PINNED_THREADS} thread here")
    yield
    blas_threads(before)


def _pinned(digests: dict[str, str]) -> str:
    kernel = blas_core_name()
    if kernel not in digests:
        pytest.skip(f"no digest pinned for the {kernel} BLAS kernel")
    return digests[kernel]


def _sha256(buffers) -> str:
    h = hashlib.sha256()
    for buf in buffers:
        h.update(np.ascontiguousarray(buf).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def drawn():
    rng = SeededRng(5)
    return (drawn_backbone(MID, 4), rng.integers(0, MID.vocab, size=(SAMPLES, MID.seqlen)),
            rng.integers(0, MID.num_labels, size=SAMPLES))


@pytest.fixture
def recorded_logits(monkeypatch):
    """Logits of every ``forward`` and ``forward_from_boundary`` call, in order."""
    logits = []
    for name in ("forward", "forward_from_boundary"):
        def recording(*args, _inner=getattr(model_mod, name)):
            out = _inner(*args)
            logits.append(out.data.copy())
            return out
        monkeypatch.setattr(model_mod, name, recording)
    return logits


def test_drawn_backbone_whole_set_logits_are_pinned(drawn):
    model, tokens, _ = drawn
    logits = model_mod.forward(model, tokens).data
    assert logits.dtype == np.float32
    assert _sha256([logits]) == _pinned(LOGITS_GOLDEN["whole_set"]), \
        f"BLAS kernel {blas_core_name()}"


def test_drawn_backbone_evaluate_chunk_logits_are_pinned(drawn, recorded_logits):
    model, tokens, labels = drawn
    plain_acc = evaluate(model, tokens, labels)
    plain = list(recorded_logits)
    assert [len(c) for c in plain] == [16, 16, 8]
    assert _sha256(plain) == _pinned(LOGITS_GOLDEN["evaluate_chunks"]), \
        f"BLAS kernel {blas_core_name()}"
    # resumed from the store's chunks, every chunk keeps the plain forward's bits
    recorded_logits.clear()
    assert evaluate(model, tokens, labels, store=PrefixStore(model), resume=3) == plain_acc
    assert [c.tobytes() for c in recorded_logits] == [c.tobytes() for c in plain]


@pytest.mark.parametrize("name", sorted(TRAINED_GOLDEN))
def test_trained_buffers_are_pinned(name, tmp_path):
    cfg = session_mod.config_from_dict(TRAINED_DOCS[name])
    session = session_mod.start_session(session_mod.build_world(cfg))
    with trace_mod.TraceWriter(str(tmp_path / f"{name}.trace.jsonl")) as writer:
        for _ in range(cfg.max_rounds):
            assert not session_mod.step(session, writer)
    [track] = session.tracks
    payload = adapter_mod.extract_payload(track.model)
    assert _sha256(payload[n] for n in sorted(payload)) == _pinned(TRAINED_GOLDEN[name]), \
        f"BLAS kernel {blas_core_name()}"
