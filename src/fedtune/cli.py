"""Command line front end: run, sweep, and report verbs.

Exit statuses: 0 on success; 2 on configuration errors, malformed traces
and unusable paths (any OSError, such as a missing output directory); 3
when a session finished its round budget short of its target accuracy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import session as session_mod
from .errors import ConfigurationError, FedTuneError, TraceParseError
from .session import EXIT_CONFIG_ERROR, EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="session config YAML")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def cmd_run(args: argparse.Namespace) -> int:
    cfg = session_mod.load_config(args.config, seed=args.seed)
    out = args.out or f"session_seed{cfg.seed}_{cfg.mode}.trace.jsonl"
    result = session_mod.run_session_config(cfg, out)
    summary = {key: value for key, value in result.summary.items() if key != "evt"}
    print(json.dumps({"trace": out, **summary}, sort_keys=True))
    return result.exit_code


def parse_grid(text: str) -> list[tuple[int, int]]:
    """``"0:8,2:16"`` -> ``[(0, 8), (2, 16)]``; anything else is a ConfigurationError."""
    grid = []
    for spec in text.split(","):
        try:
            d, w = spec.split(":")
            grid.append((int(d), int(w)))
        except ValueError:
            raise ConfigurationError(
                f"--grid entry '{spec}' is not depth:width (e.g. 0:8,2:16)") from None
    return grid


def cmd_sweep(args: argparse.Namespace) -> int:
    grid = parse_grid(args.grid)
    cfg = session_mod.load_config(args.config, seed=args.seed)
    rows = session_mod.sweep(cfg, grid, args.out, reference_accuracy=args.reference_accuracy)
    table_path = Path(args.out) / "sweep_table.json"
    with open(table_path, "w") as fh:
        json.dump(rows, fh, sort_keys=True, indent=2)
    for row in rows:
        targets = " ".join(
            f"tta@{k.split('_', 1)[1]}={row[k] if row[k] is not None else 'n/a'}"
            for k in sorted(row) if k.startswith("tta_"))
        print(f"(d={row['depth']}, W={row['width']}) "
              f"best_acc={row['best_accuracy']:.4f} {targets}")
    print(f"table written to {table_path}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    summary = session_mod.report(args.traces)
    text = json.dumps(summary, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedtune",
        description="Deterministic simulator for adapter-based federated fine-tuning")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run one session and write its trace")
    _add_common(p_run)
    p_run.add_argument("--out", default=None, help="trace output path")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run fixed-adapter sessions over a (d,W) grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--grid", required=True,
                         help="comma-separated depth:width pairs, e.g. 0:8,2:16,4:32")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--reference-accuracy", type=float, default=None,
                         help="skip the full fine-tuning reference run")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="aggregate totals from trace files")
    p_report.add_argument("traces", nargs="+", help="trace files")
    p_report.add_argument("--out", default=None, help="write the JSON report here")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, TraceParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FedTuneError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
