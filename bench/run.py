"""Benchmark entry point: whole sessions of one pinned workload.

    python3 bench/run.py --workload autofed --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. ``--trace 0`` runs untraced sessions of the
workload, one fresh process after another, for about ``--seconds`` (at least
three sessions), and reports the end-to-end metrics. ``--trace 1`` runs one untraced and one
traced session plus the kernel microbench, and reports the per-layer
metrics. Either way the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``, and a results
record with the trace digests, the session summaries and the environment is
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

MIN_SESSIONS = 3
DEADLINE_S = 170.0      # every run must end within 180 s
KERNEL_SECONDS = 3.0
# One BLAS thread on both sides of any comparison; sessions run one at a time.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "session_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "emu_traffic_mb": "MB", "emu_energy_kj": "kJ",
}
# Per-layer metric name -> unit. Times of tensor_nn ops are self times, so an
# op's time excludes the ops it calls (multi_head_attention calls bmm ...).
PER_LAYER = {
    "session.build_world.s": "s",
    "trace.emit.s": "s", "trace.emit.calls": "count", "trace.bytes": "bytes",
    "fed.local_train.s": "s", "fed.local_train.self_s": "s", "fed.local_train.calls": "count",
    "fed.fedavg.s": "s",
    "cache.fetch_or_recompute.s": "s", "cache.hits": "count", "cache.recomputes": "count",
    "cache.hit_ratio": "ratio", "cache.bytes_held": "bytes", "cache.integrity_failures": "count",
    "model.evaluate.s": "s", "model.evaluate.calls": "count", "model.evaluate.samples": "count",
    "model.forward.s": "s", "model.forward_from_boundary.s": "s",
    "model.compute_boundary_activation.s": "s",
    "adapter.materialize.s": "s", "adapter.materialize.calls": "count",
    "adapter.extract_payload.s": "s", "adapter.deepen.calls": "count",
    "adapter.widen.calls": "count",
    "configurator.dispatch.s": "s", "configurator.dispatch.calls": "count",
    "configurator.decisions": "count", "configurator.depth_increases": "count",
    "configurator.tracks_per_round": "tracks/round",
    "tensor_nn.backward.s": "s", "tensor_nn.sgd_step.s": "s",
    **{f"tensor_nn.{op}.self_s": "s" for op in (
        "linear_forward", "layer_norm", "softmax_lastdim", "bmm",
        "multi_head_attention", "embedding", "cross_entropy_loss")},
    "emu.round_s": "s", "emu.payload_bytes": "bytes", "emu.tta_s": "s",
    "emu.best_accuracy": "fraction",
    **{f"kernel.{c}.{d}_us": "us" for c in (
        "embedding", "attention", "ffn", "layer_norm", "adapter", "classifier")
       for d in ("fwd", "bwd")},
    "tracing.overhead_s": "s",
}


class Run:
    """Sessions attempted in one benchmark run and the checks they failed."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self.workload, self.seed, self.out_dir = workload, seed, out_dir
        self.start = time.perf_counter()
        self.sessions: list[dict] = []
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def child(self, *args: str) -> dict | None:
        """Run ``child.py`` with ``args``; its last stdout line, or None on failure."""
        env = {**os.environ, **CHILD_ENV}
        timeout = max(1.0, DEADLINE_S - self.elapsed())
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "child.py"), *args],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.failures.append(f"child {args[0]} exceeded {timeout:.0f} s")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"child {args[0]} exited {proc.returncode}: {tail[0]}")
            return None
        return json.loads(lines[-1])

    def session(self, traced: bool = False) -> dict | None:
        args = ["session", "--workload", self.workload, "--seed", str(self.seed),
                "--out", str(self.out_dir)]
        result = self.child(*args, *(["--traced"] if traced else []))
        if result is None:
            result = {"error": self.failures[-1]}
        elif result["report_error"]:
            self.failures.append(f"report did not reconcile: {result['report_error']}")
            result["error"] = self.failures[-1]
        result["traced"] = traced
        self.sessions.append(result)
        return None if "error" in result else result

    def check_digests(self) -> None:
        """Every session of one workload and seed must write the same trace."""
        digests = [s["sha256"] for s in self.sessions if "error" not in s]
        for s in self.sessions:
            if "error" not in s and s["sha256"] != digests[0]:
                s["error"] = f"trace sha256 {s['sha256'][:12]} != {digests[0][:12]}"
                self.failures.append(s["error"])

    def good(self) -> list[dict]:
        return [s for s in self.sessions if "error" not in s]

    def failed(self) -> int:
        return sum(1 for s in self.sessions if "error" in s)


def zero_call_violations(layers: dict, must_run) -> list[str]:
    """Wrapped functions that a workload must call but that recorded no call."""
    return [f"{name} recorded zero calls" for name in must_run
            if layers.get(f"{name}.calls", 0) == 0]


def end_to_end(sessions: list[dict]) -> dict:
    first = sessions[0]
    return {
        "session_s": statistics.median(s["session_s"] for s in sessions),
        "setup_s": statistics.median(t for s in sessions for t in s["setup_s"]),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sessions),
        **{k: first["emu"][k] for k in ("emu_traffic_mb", "emu_energy_kj")},
    }


def measure(run: Run, seconds: float) -> dict:
    """Sessions one after another; none starts that would end past ``seconds``."""
    while True:
        if run.session() is None and not run.good():
            break
        per_session = run.elapsed() / len(run.sessions)
        if len(run.sessions) >= MIN_SESSIONS and run.elapsed() + per_session > seconds:
            break
        if run.elapsed() + per_session > DEADLINE_S:
            break
    run.check_digests()
    good = run.good()
    return end_to_end(good) if good else {}


def measure_traced(run: Run) -> dict:
    plain = run.session()
    traced = run.session(traced=True)
    run.check_digests()
    kernel = run.child("kernels", "--seed", str(run.seed), "--seconds", str(KERNEL_SECONDS))
    if plain is None or traced is None or kernel is None or "error" in traced:
        return {}
    layers = traced["layers"]
    summary = traced["summary"]
    if (layers["cache.hits"], layers["cache.recomputes"]) != (
            summary["cache_hits"], summary["cache_recomputes"]):
        traced["error"] = "cache counts seen by the tracer differ from the summary"
        run.failures.append(traced["error"])
    for problem in zero_call_violations(layers, workloads.WORKLOADS[run.workload]["must_run"]):
        print(f"ERROR: {run.workload}: {problem}; the tracer no longer sees this layer",
              file=sys.stderr)
        traced["error"] = problem
        run.failures.append(problem)
    return {
        **layers, **kernel,
        "emu.tta_s": traced["emu"]["tta_s"],
        "emu.best_accuracy": traced["emu"]["best_accuracy"],
        "tracing.overhead_s": traced["session_s"] - plain["session_s"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="fedtune session benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fedtune" / "__init__.py").is_file():
        print(f"error: no fedtune sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, out_dir)
    measured = measure_traced(run) if args.trace else measure(run, args.seconds)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": measured[name], "unit": unit}
               for name, unit in names.items() if name in measured}
    correct = not run.failures and len(metrics) == len(names)
    line = {"correct": correct, "attempted": len(run.sessions), "failed": run.failed(),
            "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "session_doc": workloads.session_doc(args.workload, args.seed),
        "result": line, "all_metrics": measured, "failures": run.failures,
        "sessions": run.sessions, "elapsed_s": run.elapsed(),
    }
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    for failure in run.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(line, sort_keys=True))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
