"""Tests of the benchmark's own code.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, layer_stats, resolve  # noqa: E402

from fedtune import session  # noqa: E402
from fedtune import tensor_nn as tn  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # a [0,10] holds b [1,4] (which holds c [2,3]) and b [5,8]; a second root a [11,12]
    names = ["a", "b", "c", "b", "a"]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.0, 8.0, 12.0]
    parents = [-1, 0, 1, 0, -1]
    stats = layer_stats(names, starts, ends, parents)
    assert stats["a"].calls == 2
    assert stats["a"].self_s == pytest.approx((10 - 3 - 3) + 1)  # c is b's child, not a's
    assert stats["a"].total_s == pytest.approx(11)
    assert stats["b"].calls == 2
    assert stats["b"].self_s == pytest.approx((3 - 1) + 3)
    assert stats["b"].total_s == pytest.approx(6)
    assert stats["c"].self_s == pytest.approx(1)
    assert stats["c"].total_s == pytest.approx(1)


@pytest.mark.parametrize("name,module,path", TARGETS)
def test_every_wrapped_name_resolves(name, module, path):
    owner, attr = resolve(module, path)
    assert callable(getattr(owner, attr))
    assert name.split(".")[0] == module.rsplit(".", 1)[1]


def test_tracer_restores_every_attribute():
    before = [getattr(*resolve(module, path)) for _, module, path in TARGETS]
    with Tracer():
        assert tn.sgd_step is not before[[t[0] for t in TARGETS].index("tensor_nn.sgd_step")]
    after = [getattr(*resolve(module, path)) for _, module, path in TARGETS]
    assert all(a is b for a, b in zip(before, after))


def test_function_bound_by_name_is_reported_as_zero_calls():
    bound = tn.sgd_step  # what a `from .tensor_nn import sgd_step` would hold
    with Tracer() as tracer:
        bound([], 0.1)
    layers = {f"{n}.calls": s.calls for n, s in tracer.stats().items()}
    assert run.zero_call_violations(layers, ["tensor_nn.sgd_step"]) == [
        "tensor_nn.sgd_step recorded zero calls"]


class _CannedRun(run.Run):
    """A run whose child processes return fixed results."""

    def __init__(self, layers: dict):
        super().__init__("full_ft", 1, Path("."))
        self.layers = layers

    def child(self, *args):
        if args[0] == "kernels":
            return {}
        out = {"sha256": "d", "report_error": None, "session_s": 1.0,
               "summary": {"cache_hits": 0, "cache_recomputes": 0},
               "emu": {"tta_s": 1.0, "best_accuracy": 0.5}}
        if "--traced" in args:
            out["layers"] = dict(self.layers)
        return out


def test_zero_calls_on_a_must_run_function_fail_the_run_loudly(capsys):
    must_run = workloads.WORKLOADS["full_ft"]["must_run"]
    layers = {f"{name}.calls": 5 for name in must_run}
    layers.update({"cache.hits": 0, "cache.recomputes": 0, "fed.local_train.calls": 0})
    canned = _CannedRun(layers)
    run.measure_traced(canned)
    assert canned.failures == ["fed.local_train recorded zero calls"]
    assert canned.failed() == 1
    assert "ERROR: full_ft: fed.local_train recorded zero calls" in capsys.readouterr().err

    layers["fed.local_train.calls"] = 5
    canned = _CannedRun(layers)
    run.measure_traced(canned)
    assert canned.failures == []


def _tiny_doc(mode: str) -> dict:
    return {
        "seed": 3, "mode": mode, "max_rounds": 3,
        "model": {"num_layers": 2, "hidden": 8, "heads": 2, "ffn_dim": 16,
                  "vocab": 16, "seqlen": 6, "num_labels": 3},
        "task": {"samples_per_label": 30}, "num_clients": 6,
        "participants_per_group": 2, "batch_size": 4,
    }


@pytest.mark.parametrize("mode", ["autofed", "full_ft"])
def test_tracing_leaves_the_trace_unchanged(tmp_path, mode):
    cfg = session.config_from_dict(_tiny_doc(mode))
    session.run_session_config(cfg, str(tmp_path / "plain.jsonl"))
    with Tracer() as tracer:
        session.run_session_config(cfg, str(tmp_path / "traced.jsonl"))
    digest = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
              for f in ("plain.jsonl", "traced.jsonl")]
    assert digest[0] == digest[1]
    calls = {name: s.calls for name, s in tracer.stats().items()}
    for name in ("session.build_world", "fed.local_train", "model.evaluate",
                 "tensor_nn.backward", "tensor_nn.linear_forward"):
        assert calls[name] > 0, name
    assert (calls["cache.fetch_or_recompute"] > 0) == (mode == "autofed")


def test_workload_docs_are_valid_sessions():
    for name in workloads.WORKLOADS:
        cfg = session.config_from_dict(workloads.session_doc(name, 7))
        assert cfg.seed == 7
        assert cfg.target_accuracy is None  # fixed session length
        assert set(workloads.WORKLOADS[name]["must_run"]) <= {t[0] for t in TARGETS}


def test_benchmark_json_names_what_run_prints():
    import json
    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
