"""One benchmark measurement in a fresh process; prints one JSON line.

    python3 bench/child.py session --workload autofed --seed 1 --out DIR [--traced]
    python3 bench/child.py kernels --seed 1 --seconds 3

``run.py`` starts this script once per session so that no session inherits
another's heap, caches or allocator state.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
# One CPU for the whole measurement; on a shared 2-CPU box, sessions free to
# migrate between CPUs varied more in host time than pinned ones.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import numpy as np  # noqa: E402

from fedtune import session, trace  # noqa: E402

import kernels  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPS = 5


def _environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
    }


def _layer_metrics(tracer: Tracer, events: list[dict], summary: dict, world,
                   trace_bytes: int, counts: dict) -> dict:
    stats = tracer.stats()
    metrics = {}
    for name, st in stats.items():
        metrics[f"{name}.calls"] = st.calls
        metrics[f"{name}.s"] = st.total_s
        metrics[f"{name}.self_s"] = st.self_s
    rounds = trace.events_of_kind(events, "round")
    lookups = counts["cache_hits"] + counts["cache_recomputes"]
    caches = [client.cache for client in world.server.registry.values()]
    metrics.update({
        "trace.bytes": trace_bytes,
        "cache.hits": counts["cache_hits"],
        "cache.recomputes": counts["cache_recomputes"],
        "cache.hit_ratio": counts["cache_hits"] / lookups if lookups else 0.0,
        "cache.bytes_held": sum(int(e.activations.nbytes)
                                for c in caches for e in c.entries.values()),
        "cache.integrity_failures": sum(c.integrity_failures for c in caches),
        "model.evaluate.samples": counts["eval_samples"],
        "configurator.decisions": len(trace.events_of_kind(events, "decision")),
        "configurator.depth_increases": summary["depth_increases"],
        "configurator.tracks_per_round": len(rounds) / summary["rounds"],
        "emu.round_s": sum(e["round_seconds"] for e in rounds) / len(rounds),
        "emu.payload_bytes": sum(e["payload_bytes"] for e in rounds) / len(rounds),
    })
    return metrics


def run_session(workload: str, seed: int, out_dir: Path, traced: bool) -> dict:
    doc = workloads.session_doc(workload, seed)
    setup_s = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        session.build_world(session.config_from_dict(doc))
        setup_s.append(time.perf_counter() - t0)

    # run_session_config builds its world itself; time that call so it can be
    # taken out of the session time, and keep the world to read its caches.
    build_world = session.build_world
    built = {}

    def timed_build_world(cfg):
        t0 = time.perf_counter()
        built["world"] = build_world(cfg)
        built["seconds"] = time.perf_counter() - t0
        return built["world"]

    counts = {"cache_hits": 0, "cache_recomputes": 0, "eval_samples": 0}

    def on_fetch(args, result):
        counts["cache_recomputes" if result[2] else "cache_hits"] += 1

    def on_evaluate(args, result):
        counts["eval_samples"] += len(args[1])

    tracer = Tracer(observers={"cache.fetch_or_recompute": on_fetch,
                               "model.evaluate": on_evaluate})
    kind = "traced" if traced else "plain"
    trace_path = out_dir / f"{workload}-seed{seed}-{kind}.trace.jsonl"
    cfg = session.config_from_dict(doc)
    session.build_world = timed_build_world
    try:
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        result = session.run_session_config(cfg, str(trace_path))
        elapsed = time.perf_counter() - t0
    finally:
        tracer.uninstall()
        session.build_world = build_world
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    data = trace_path.read_bytes()
    events = trace.read_trace(str(trace_path))
    summary = result.summary
    try:
        session.report([str(trace_path)])
        report_error = None
    except Exception as err:  # any failure to reconcile fails the session
        report_error = f"{type(err).__name__}: {err}"
    threshold = workloads.WORKLOADS[workload]["tta_threshold"]
    tta = session.time_to_accuracy(events, 1.0, threshold)
    out = {
        "session_s": elapsed - built["seconds"],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "sha256": hashlib.sha256(data).hexdigest(),
        "report_error": report_error,
        "summary": {k: summary[k] for k in (
            "rounds", "configs_visited", "cache_hits", "cache_recomputes",
            "depth_increases", "best_accuracy", "traffic_bytes", "energy_j")},
        "emu": {
            "emu_traffic_mb": summary["traffic_bytes"] / 1e6,
            "emu_energy_kj": summary["energy_j"] / 1e3,
            "best_accuracy": summary["best_accuracy"],
            # censored at the session's last clock when the threshold is not met
            "tta_s": tta if tta is not None else max(e["clock"] for e in events if "clock" in e),
            "tta_reached": tta is not None,
        },
        "env": _environment(),
    }
    if traced:
        out["layers"] = _layer_metrics(tracer, events, summary, built["world"],
                                       len(data), counts)
        tracer.save(str(out_dir / f"{workload}-seed{seed}.spans.npz"))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="kind", required=True)
    p_session = sub.add_parser("session")
    p_session.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p_session.add_argument("--seed", type=int, required=True)
    p_session.add_argument("--out", required=True)
    p_session.add_argument("--traced", action="store_true")
    p_kernels = sub.add_parser("kernels")
    p_kernels.add_argument("--seed", type=int, required=True)
    p_kernels.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.kind == "session":
        result = run_session(args.workload, args.seed, Path(args.out), args.traced)
    else:
        result = kernels.run(args.seed, args.seconds)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
