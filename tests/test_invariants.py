"""Invariants of aggregation, adapter upgrades, partitioning and depth climbing."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedtune import adapter as adapter_mod
from fedtune import data as data_mod
from fedtune import fed as fed_mod
from fedtune import session as session_mod
from fedtune.adapter import AdapterConfig, TuningScheme
from fedtune.model import ModelSpec, build_model
from fedtune.tensor_nn import SeededRng

from conftest import small_session_doc


def _adapter_bytes(model) -> dict[str, bytes]:
    return {p.name: p.data.tobytes() for block in model.blocks
            if block.adapter is not None for p in block.adapter.all()}


def _trained(model, seed: int):
    """Move every trainable buffer off its initial value, as training would."""
    rng = SeededRng(seed)
    for p in model.trainable_parameters():
        p.data = p.data + rng.normal(0.0, 0.1, p.data.shape)
    return model


def test_fedavg_of_identical_payloads_is_bit_exact(tiny_model):
    scheme = TuningScheme("adapter", AdapterConfig(2, 16))
    model = _trained(adapter_mod.materialize(tiny_model, scheme, rng=SeededRng(1)), 2)
    payload = adapter_mod.extract_payload(model)
    # weights 7/21, 3/21, 11/21 are not exact in binary
    mean = fed_mod.RunningMean(7 + 3 + 11)
    for cid, n in ((1, 7), (4, 3), (9, 11)):
        fed_mod.fedavg(mean, fed_mod.ClientUpdate(cid, adapter_mod.extract_payload(model), n))
    merged = mean.payload()
    assert list(merged) == list(payload)
    for name, buf in payload.items():
        assert merged[name].tobytes() == buf.tobytes(), name


def test_deepen_and_widen_keep_trained_bytes():
    spec = ModelSpec(num_layers=3, hidden=8, heads=2, ffn_dim=16,
                     vocab=12, seqlen=5, num_labels=3)
    config = AdapterConfig(1, 16)
    model = _trained(adapter_mod.materialize(build_model(spec, 3), TuningScheme("adapter", config),
                                             rng=SeededRng(1)), 2)
    trained = _adapter_bytes(model)

    deeper = adapter_mod.deepen(model, 1, SeededRng(5), config)
    assert deeper.adapted_layers() == [2, 3]
    after = _adapter_bytes(deeper)
    assert {k: after[k] for k in trained} == trained
    assert deeper.blocks[1].adapter.w_down.data.shape == (8, 16)

    # test_widen.py checks the widened bottlenecks' bytes
    wider = adapter_mod.widen(deeper, 8, SeededRng(6))
    assert [wider.blocks[i].adapter.w_down.data.shape for i in (1, 2)] == [(8, 24)] * 2
    # the transforms do not write their input
    assert _adapter_bytes(model) == trained and _adapter_bytes(deeper) == after


@settings(max_examples=60, deadline=None)
@given(a=st.floats(min_value=0.01, max_value=100.0),
       num_clients=st.integers(min_value=1, max_value=12),
       num_labels=st.integers(min_value=2, max_value=6),
       per_label=st.integers(min_value=0, max_value=30),
       seed=st.integers(min_value=0, max_value=2**16))
def test_partition_is_exact_disjoint_cover(a, num_clients, num_labels, per_label, seed):
    rng = SeededRng(seed)
    n = num_labels * per_label + int(rng.integers(0, 5))
    spec = data_mod.SyntheticTaskSpec(vocab=num_labels + 1, seqlen=2, num_labels=num_labels)
    dataset = data_mod.LabeledDataset(np.zeros((n, 2), dtype=np.int64),
                                      rng.integers(0, num_labels, size=n), spec)
    shards = data_mod.partition_noniid(dataset, num_clients, a, rng, min_per_client=0)
    assert sorted(shards) == list(range(num_clients))
    joined = np.concatenate([shards[c] for c in range(num_clients)])
    assert joined.size == n
    assert np.array_equal(np.sort(joined), np.arange(n))


def test_depth_increases_bounded_by_model_depth(tmp_path):
    doc = small_session_doc(mode="autofed", max_rounds=12, configurator={"trial_intvl_s": 1.0})
    cfg = session_mod.config_from_dict(doc)
    result = session_mod.run_session_config(cfg, str(tmp_path / "climb.trace.jsonl"))
    assert 1 <= result.summary["depth_increases"] <= cfg.model.num_layers
    # counted apart from the round events' max_depth: from the deepest track
    # of each dispatch that some round trained
    last_round = max(i for i, e in enumerate(result.events) if e["evt"] == "round")
    deepest = [max(t["depth"] for t in e["tracks"])
               for e in result.events[:last_round] if e["evt"] == "dispatch"]
    rises = sum(b > a for a, b in zip(deepest, deepest[1:]))
    assert result.summary["depth_increases"] == rises
