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
