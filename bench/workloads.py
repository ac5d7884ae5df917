"""Pinned benchmark workloads at the *mid* shape.

Every workload is a whole session config; only the session seed comes from
the benchmark's ``--seed``. The shape is the same for all of them: 6 layers,
hidden 64, 4 heads, ffn 128, vocab 200, seqlen 32, 4 labels, 200 samples per
label, 40 clients, N=5 participants per trial group, batch 8, tx2 devices.
"""

from __future__ import annotations

MID_SHAPE = {
    "model": {"num_layers": 6, "hidden": 64, "heads": 4, "ffn_dim": 128,
              "vocab": 200, "seqlen": 32, "num_labels": 4},
    "task": {"samples_per_label": 200},
    "num_clients": 40,
    "participants_per_group": 5,
    "batch_size": 8,
    "devices": "tx2",
}

# Functions every traced session of a workload must call. A wrapped function
# listed here that records no call means the tracer no longer sees the layer
# (for example a caller bound the function by name), and the run fails.
_ALWAYS = (
    "session.build_world", "trace.emit", "fed.local_train", "fed.fedavg",
    "model.evaluate", "adapter.materialize", "adapter.extract_payload",
    "tensor_nn.backward", "tensor_nn.sgd_step", "tensor_nn.linear_forward",
    "tensor_nn.layer_norm", "tensor_nn.softmax_lastdim", "tensor_nn.bmm",
    "tensor_nn.multi_head_attention", "tensor_nn.embedding",
    "tensor_nn.cross_entropy_loss",
)

WORKLOADS = {
    # The paper's method. The trial interval is pinned past the end of the
    # session: at the default interval, whether the configurator leaves
    # (0, 8) within 15 rounds depends on the seed (host time 8 s or 15 s),
    # which no bound could absorb. Pinned, every seed runs the current and
    # deeper tracks for 15 rounds, evaluation is most of the host time and
    # the client activation cache mostly hits.
    "autofed": {
        "doc": {"mode": "autofed", "max_rounds": 15,
                "configurator": {"trial_intvl_s": 1.0e6}},
        "tta_threshold": 0.40,
        "must_run": _ALWAYS + (
            "cache.fetch_or_recompute", "model.forward_from_boundary",
            "model.compute_boundary_activation", "adapter.deepen",
            "configurator.dispatch"),
    },
    # Full fine-tuning: nothing is frozen, so the activation cache and the
    # configurator are bypassed and local training is most of the host time.
    # The learning rate is 0.01 because at the default 0.1 full fine-tuning
    # stays near chance accuracy on most seeds.
    "full_ft": {
        "doc": {"mode": "full_ft", "max_rounds": 8, "learning_rate": 0.01},
        "tta_threshold": 0.33,
        "must_run": _ALWAYS + ("model.forward",),
    },
}


def session_doc(workload: str, seed: int) -> dict:
    """The session config of ``workload`` with session seed ``seed``."""
    return {**MID_SHAPE, **WORKLOADS[workload]["doc"], "seed": seed}
