"""Command-line entry point: run a configured task and emit the report."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import RunConfig, load_fault_schedule
from .harness import run_task


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedtee")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute one full task and print a summary")
    run.add_argument("--config", help="JSON config file (RunConfig keys)")
    run.add_argument("--mode", choices=["single", "clientmax", "layermax"])
    run.add_argument("--chain", choices=["fabric", "fabric-mod", "tendermint"])
    run.add_argument("--int-mode", action="store_true", default=None,
                     help="restrict synthetic weights to a dyadic grid (exact arithmetic)")
    run.add_argument("--faults", help="JSON fault-schedule file")
    run.add_argument("--report", help="write the full JSON report here")
    run.add_argument("--seed", type=int)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Exit 0 if every check passed, 1 if one failed, 2 on a bad config."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {
            "strategy": args.mode,
            "chain": args.chain,
            "int_mode": args.int_mode,
            "seed": args.seed,
            "faults": load_fault_schedule(args.faults) if args.faults else None,
        }
        config = RunConfig.from_file(args.config) if args.config else RunConfig()
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except (OSError, ValueError, TypeError) as exc:
        parser.error(f"bad config: {exc}")

    report = run_task(config)
    for line in report.summary_lines():
        print(line)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        print(f"report written to {args.report}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
