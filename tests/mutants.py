"""A catalogue of mutants, each with the tests that must kill it, and their runner.

Each mutant replaces one exact fragment of one source file. The fragment
must occur exactly once in the current source
(``test_mutant_catalogue.py`` checks that in tier-1), so a refactor that
moves a fragment ports its mutant here too. A change that adds a test
adds the mutant that shows the test bites.

    python3 tests/mutants.py

copies ``src`` and ``tests`` to a temporary directory once, and, for each
mutant, applies it there, runs its tests with ``-x`` without writing
bytecode (a stale ``.pyc`` of a same-size mutant must not be imported),
and restores the file. A mutant is killed when pytest reports a failing
test; it survives when its tests pass, and any other outcome (a
collection error, no test found, no result within ``TIMEOUT_S``) is an
error, shown with the tail of pytest's output. The runner exits non-zero
if any mutant survives or errs, and never writes into the checkout.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600  # per mutant; a mutant may make a test loop forever


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    fragment: str  # occurs exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root; one must fail


CATALOGUE = (
    Mutant(
        "backward_at_one_unit", "src/fedtune/costmodel.py",
        "    backward = 2.0 * tuning_depth\n",
        "    backward = 1.0 * tuning_depth\n",
        ("tests/test_golden_trace.py::test_trace_digest_is_pinned",)),
    Mutant(
        "report_sums_energies_in_key_order", "src/fedtune/session.py",
        "if sum(energies[str(cid)] for cid in group) != e[\"energy_j\"]:",
        "if sum(energies.values()) != e[\"energy_j\"]:",
        ("tests/test_session.py::test_report_reconciles_with_summary",
         "tests/test_config_cli.py::TestExitCodes::test_report_exits_0")),
    Mutant(
        "isinstance_for_exact_types", "src/fedtune/trace.py",
        "if type(value) is not (dict if isinstance(spec, dict) else origin or spec):",
        "if not isinstance(value, dict if isinstance(spec, dict) else origin or spec):",
        ("tests/test_trace_format.py::test_a_wrong_typed_value_is_refused",)),
    Mutant(
        "fedavg_without_anchor_check", "src/fedtune/fed.py",
        "    elif ([(key, buf.shape) for key, buf in buffers.items()]\n"
        "          != [(key, buf.shape) for key, buf in mean.anchor.items()]):\n"
        "        raise AggregationError(\n"
        "            f\"client {update.client_id} payload does not match the round's buffers\")\n",
        "",
        ("tests/test_streaming_fedavg.py::TestAggregationErrors",)),
    Mutant(
        "hits_priced_before_recomputes", "src/fedtune/costmodel.py",
        "                (work.recomputes, unit * (num_layers + backward) + device.cache_reload_latency),\n"
        "                (work.hits, unit * (depth_watermark + backward) + device.cache_reload_latency)):\n",
        "                (work.hits, unit * (depth_watermark + backward) + device.cache_reload_latency),\n"
        "                (work.recomputes, unit * (num_layers + backward) + device.cache_reload_latency)):\n",
        ("tests/test_costmodel.py::test_recomputes_are_added_before_hits",)),
    Mutant(
        "round_seconds_summed_not_max", "src/fedtune/costmodel.py",
        "round_seconds = max(round_seconds, down_s + compute_s + up_s)",
        "round_seconds += down_s + compute_s + up_s",
        ("tests/test_costmodel.py::test_a_two_client_round_is_priced_by_hand",)),
    Mutant(
        "radio_power_on_compute", "src/fedtune/costmodel.py",
        "client_energy[key] = (compute_s * device.compute_power_watts",
        "client_energy[key] = (compute_s * device.radio_power_watts",
        ("tests/test_costmodel.py::test_a_two_client_round_is_priced_by_hand",
         "tests/test_costmodel.py::test_uncached_batches_are_priced_without_a_boundary",
         "tests/test_costmodel.py::test_recomputes_are_added_before_hits")),
    Mutant(
        "owned_parameter", "src/fedtune/tensor_nn.py",
        "        super().__init__(data, requires_grad=trainable)\n",
        "        super().__init__(data, requires_grad=trainable)\n        self.owned = True\n",
        ("tests/test_tensor_nn.py::test_graph_free_op_never_writes_into_a_shared_array",)),
    Mutant(
        # the trace does not change: stale entries are recomputed as integrity failures
        "ledgers_kept_when_watermark_rises", "src/fedtune/fed.py",
        "        for client in registry.values():\n"
        "            cache_mod.expire(client.cache, store)\n",
        "",
        ("tests/test_eval_store.py::TestLedger::test_ledgers_hold_nothing_below_the_watermark",)),
    Mutant(
        "stale_entry_chunk_kept", "src/fedtune/cache.py",
        "        if entry.resume != resume:\n            store.release(entry.resume, key)\n",
        "",
        ("tests/test_model.py::TestResumePoint::test_cache_entry_for_other_resume_point_recomputed",)),
    Mutant(
        # the autofed_derived golden then decides at every round from round 5 on
        "decision_clock_not_reset", "src/fedtune/session.py",
        "    session.t_trial = clock\n",
        "",
        ("tests/test_configurator_knobs.py::test_intvl_growth_stretches_each_next_interval",
         "tests/test_golden_trace.py::test_trace_digest_is_pinned")),
    Mutant(
        "adapter_resumes_at_the_boundary", "src/fedtune/adapter.py",
        "            return boundary + 1\n",
        "            return boundary\n",
        ("tests/test_model.py::TestResumePoint::test_adapter_resume_bit_identical_at_every_depth",)),
    Mutant(
        # unique: ``xhat *= inv`` alone also occurs inside ``dxhat *= inv``
        "graph_free_layer_norm_gain_times_inv", "src/fedtune/tensor_nn.py",
        "    xhat *= inv\n    if graph_free:\n        xhat *= gain.data\n",
        "    xhat *= inv\n    if graph_free:\n        xhat /= inv\n        xhat *= inv * gain.data\n",
        ("tests/test_tensor_nn.py::TestKernelsMatchTheirOldFormulas::test_layer_norm_without_a_graph",
         "tests/test_golden_bits.py::test_drawn_backbone_whole_set_logits_are_pinned")),
    Mutant(
        "graph_free_drops_the_nodes", "src/fedtune/model.py",
        "    finally:\n        for p, node in zip(params, nodes):\n            p.node = node\n",
        "    finally:\n        pass\n",
        ("tests/test_eval_store.py::TestGraphFree::test_flags_and_grads_untouched_and_no_graph",)),
    Mutant(
        "prefetch_keeps_a_writeable_chunk", "src/fedtune/model.py",
        "                    act.flags.writeable = False\n",
        "",
        ("tests/test_eval_store.py::TestStoreUnit::test_stored_activations_are_read_only",)),
    Mutant(
        "activation_builds_on_a_miss", "src/fedtune/model.py",
        "        self.prefetch(resume, [(key, tokens)])\n        return self._acts[resume][key]\n",
        "        self._check_tokens(key, tokens)\n"
        "        if key not in self._acts.get(resume, {}):\n"
        "            act = compute_boundary_activation(self.backbone, tokens, resume)\n"
        "            act.flags.writeable = False\n"
        "            self._acts.setdefault(resume, {})[key] = act\n"
        "        return self._acts[resume][key]\n",
        ("tests/test_one_prefix_store.py::test_only_the_prefix_store_computes_boundary_activations",)),
    Mutant(
        "current_track_copies_the_winner", "src/fedtune/configurator.py",
        "    variants = [(TRACK_CURRENT, scheme, base)]\n",
        "    variants = [(TRACK_CURRENT, scheme, adapter_mod._shallow_clone(base))]\n",
        ("tests/test_track_models.py::test_current_track_keeps_the_winners_model",)),
    Mutant(
        "cdf_index_strict_bound", "src/fedtune/tensor_nn.py",
        "        step = bounds.take(index) <= uniforms\n",
        "        step = bounds.take(index) < uniforms\n",
        ("tests/test_world_build.py::test_bucket_lookup_equals_binary_search",)),
    Mutant(
        # the node's recompute only: the forward's output is the same function's first call
        "layer_norm_recompute_without_shift", "src/fedtune/tensor_nn.py",
        "    out.node.recompute = recompute\n",
        "    out.node.recompute = lambda: xhat * g_data\n",
        ("tests/test_recompute.py",)),
    Mutant(
        "prefetch_passes_of_32_samples", "src/fedtune/model.py",
        "per_pass = max(1, PASS_SAMPLES // max(shape[0], 1))",
        "per_pass = max(1, 32 // max(shape[0], 1))",
        ("tests/test_eval_store.py::TestPrefetch::test_no_pass_stacks_more_than_16_samples",)),
    Mutant(
        "widen_draws_a_fresh_bottleneck", "src/fedtune/adapter.py",
        "        block.adapter = _beside(block.adapter,\n"
        "                                make_meta_adapter(model.spec.hidden, width_step, layer, rng))\n",
        "        block.adapter = make_meta_adapter(\n"
        "            model.spec.hidden, block.adapter.w_down.data.shape[1] + width_step, layer, rng)\n",
        ("tests/test_widen.py::test_widen_keeps_every_trained_byte",)),
    Mutant(
        "widen_takes_a_fresh_output_bias", "src/fedtune/adapter.py",
        "                       b_up=trained.b_up)\n",
        "                       b_up=fresh.b_up)\n",
        ("tests/test_widen.py::test_widen_keeps_every_trained_byte",)),
    Mutant(
        # D' is [trained | fresh] but U' is [fresh ; trained]: each unit meets another's rows
        "widen_puts_the_new_rows_of_u_first", "src/fedtune/adapter.py",
        "                       w_up=cat(trained.w_up, fresh.w_up, 0),\n",
        "                       w_up=cat(fresh.w_up, trained.w_up, 0),\n",
        ("tests/test_widen.py::test_widening_adds_a_zero_unit_to_the_parents_function",)),
    Mutant(
        "prefix_store_checks_no_tokens", "src/fedtune/model.py",
        "        if known is not tokens and not np.array_equal(known, tokens):\n"
        "            raise ContractViolation(f\"prefix store chunk {key!r} was built for other tokens\")\n",
        "",
        ("tests/test_eval_store.py::TestLedger::test_other_tokens_raise",)),
    Mutant(
        "run_round_draws_a_selection", "src/fedtune/fed.py",
        "    round_index = server.round_index + 1\n",
        "    round_index = server.round_index + 1\n"
        "    server.rng_select.permutation(len(registry))\n",
        ("tests/test_who_trains_where.py::test_a_hand_built_assignment_trains_exactly_what_it_names",)),
    Mutant(
        # every small golden's 3N = 6 splits evenly over two or three tracks
        "split_remainder_to_the_last_group", "src/fedtune/session.py",
        "size = total // len(tracks) + (0 if position else total % len(tracks))",
        "size = total // len(tracks) + (total % len(tracks) if position == len(tracks) - 1 else 0)",
        ("tests/test_who_trains_where.py::test_one_draw_is_split_with_the_remainder_first",
         "tests/test_who_trains_where.py::"
         "test_a_sessions_rounds_train_one_draw_split_with_the_remainder_first",
         "tests/test_mid_shape_golden.py::test_mid_shape_climb_digest_is_pinned")),
    Mutant(
        "quoted_numbers_accepted", "src/fedtune/session.py",
        "    if hint in (int, float):\n"
        "        _require(isinstance(value, (int, float)), path, "
        "f\"expected {hint.__name__}, got {value!r}\")\n",
        "",
        ("tests/test_config_cli.py::TestUnknownKeys::test_bool_and_int_fields_are_strict",)),
)


def apply(mutant: Mutant, source: str) -> str:
    """``source`` with the mutant's fragment replaced; it must occur exactly once."""
    count = source.count(mutant.fragment)
    if count != 1:
        raise ValueError(f"mutant '{mutant.name}': fragment occurs {count} times "
                         f"in {mutant.file}, not once")
    return source.replace(mutant.fragment, mutant.replacement)


def run(mutant: Mutant, copy: Path) -> tuple[str, str]:
    """What became of ``mutant`` in the copy at ``copy``: 'killed' or another outcome, and why."""
    path = copy / mutant.file
    original = path.read_text()
    path.write_text(apply(mutant, original))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")]))}
    try:
        done = subprocess.run(
            [sys.executable, "-B", "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "ERROR", f"no result in {TIMEOUT_S} s"
    finally:
        path.write_text(original)
    if done.returncode == 1:
        return "killed", ""
    tail = "\n".join((done.stdout + done.stderr).strip().splitlines()[-5:])
    return ("SURVIVED" if done.returncode == 0 else f"ERROR (pytest exit {done.returncode})"), tail


def main() -> int:
    start = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
        for mutant in CATALOGUE:
            began = time.perf_counter()
            outcome, why = run(mutant, copy)
            bad += outcome != "killed"
            print(f"{outcome:<10} {mutant.name} ({time.perf_counter() - began:.1f} s)", flush=True)
            if why:
                print(why, flush=True)
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} mutants killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
