"""Per-component forward/backward microbench at the *mid* shape.

Each encoder component is built from the public ``fedtune.tensor_nn``
functions, the same way ``fedtune.model`` composes them, with trainable
parameters and an input that needs its gradient. ``Tensor.backward`` needs
a scalar, so every component except the classifier is reduced by
first-token pooling and a cross-entropy loss; the backward time of that
reducer alone, on an input of the same shape, is subtracted.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from fedtune import tensor_nn as tn

BATCH, SEQLEN, HIDDEN, HEADS, FFN, WIDTH, VOCAB, LABELS = 8, 32, 64, 4, 128, 8, 200, 4
COMPONENTS = ("embedding", "attention", "ffn", "layer_norm", "adapter", "classifier")
WARMUP = 5
MIN_ITERS = 30


def _build(seed: int):
    rng = np.random.default_rng(seed)

    def param(shape, name, std=None):
        std = shape[0] ** -0.5 if std is None else std
        return tn.make_parameter(rng.normal(0.0, std, shape), True, name)

    def zeros(size, name):
        return tn.make_parameter(np.zeros(size), True, name)

    ids = rng.integers(1, VOCAB, size=(BATCH, SEQLEN))
    ids[:, 0] = 0
    positions = np.arange(SEQLEN)
    tok, pos = param((VOCAB, HIDDEN), "tok", 1.0), param((SEQLEN, HIDDEN), "pos", 1.0)
    attn = tn.AttentionParams(
        wq=param((HIDDEN, HIDDEN), "wq"), bq=zeros(HIDDEN, "bq"),
        wk=param((HIDDEN, HIDDEN), "wk"), bk=zeros(HIDDEN, "bk"),
        wv=param((HIDDEN, HIDDEN), "wv"), bv=zeros(HIDDEN, "bv"),
        wo=param((HIDDEN, HIDDEN), "wo"), bo=zeros(HIDDEN, "bo"))
    w1, b1 = param((HIDDEN, FFN), "w1"), zeros(FFN, "b1")
    w2, b2 = param((FFN, HIDDEN), "w2"), zeros(HIDDEN, "b2")
    gain = tn.make_parameter(np.ones(HIDDEN), True, "gain")
    shift = zeros(HIDDEN, "shift")
    wd, bd = param((HIDDEN, WIDTH), "wd", 0.02), zeros(WIDTH, "bd")
    wu, bu = param((WIDTH, HIDDEN), "wu", 0.02), zeros(HIDDEN, "bu")
    cw, cb = param((HIDDEN, LABELS), "cw", 0.02), zeros(LABELS, "cb")
    labels = rng.integers(0, LABELS, size=BATCH)
    x_data = rng.normal(0.0, 1.0, (BATCH, SEQLEN, HIDDEN))

    components = {
        "embedding": (lambda x: tn.add(tn.embedding(tok, ids), tn.embedding(pos, positions)),
                      [tok, pos]),
        "attention": (lambda x: tn.multi_head_attention(x, attn, HEADS), attn.all()),
        "ffn": (lambda x: tn.linear_forward(tn.relu(tn.linear_forward(x, w1, b1)), w2, b2),
                [w1, b1, w2, b2]),
        "layer_norm": (lambda x: tn.layer_norm(x, gain, shift), [gain, shift]),
        "adapter": (lambda x: tn.add(x, tn.linear_forward(
            tn.relu(tn.linear_forward(x, wd, bd)), wu, bu)), [wd, bd, wu, bu]),
        "classifier": (lambda x: tn.cross_entropy_loss(
            tn.linear_forward(tn.first_token(x), cw, cb), labels), [cw, cb]),
    }
    reducer_labels = rng.integers(0, HIDDEN, size=BATCH)
    return components, x_data, lambda out: tn.cross_entropy_loss(tn.first_token(out),
                                                                 reducer_labels)


def _time_component(fwd, params, x_data, reduce, is_loss: bool, budget_s: float):
    clock = time.perf_counter
    fwd_s, bwd_s, reducer_s = [], [], []
    deadline = clock() + budget_s
    i = 0
    while i < WARMUP + MIN_ITERS or clock() < deadline:
        x = tn.Tensor(x_data, requires_grad=True)
        t0 = clock()
        out = fwd(x)
        t1 = clock()
        loss = out if is_loss else reduce(out)
        t2 = clock()
        loss.backward()
        t3 = clock()
        tn.clear_grads(params)
        if not is_loss:
            base = reduce(tn.Tensor(out.data, requires_grad=True))
            t4 = clock()
            base.backward()
            reducer_s.append(clock() - t4)
        if i >= WARMUP:
            fwd_s.append(t1 - t0)
            bwd_s.append(t3 - t2)
        i += 1
    bwd = statistics.median(bwd_s)
    if not is_loss:
        bwd -= statistics.median(reducer_s[WARMUP:])
    return statistics.median(fwd_s), bwd


def run(seed: int, seconds: float) -> dict[str, float]:
    """Median forward and backward microseconds per call of every component."""
    components, x_data, reduce = _build(seed)
    metrics = {}
    for name in COMPONENTS:
        fwd, params = components[name]
        fwd_s, bwd_s = _time_component(fwd, params, x_data, reduce,
                                       name == "classifier", seconds / len(COMPONENTS))
        metrics[f"kernel.{name}.fwd_us"] = fwd_s * 1e6
        metrics[f"kernel.{name}.bwd_us"] = bwd_s * 1e6
    return metrics
