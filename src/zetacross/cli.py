"""Command-line front end.

Exit codes: 0 success, 1 certification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .critline import LadderModel
from .errors import ConfigError, ZetacrossError
from .harness import (
    RunConfig,
    certification_ok,
    emit_atlas,
    load_config,
    run,
    write_report,
)


def _parse_l_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x)
    except ValueError as err:
        raise ConfigError(f"bad L list {text!r}") from err


def _parse_slots(text: str) -> list[tuple[int, int]]:
    slots = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            n_str, l_str = part.split(":")
            slots.append((int(n_str), int(l_str)))
        except ValueError as err:
            raise ConfigError(f"bad slot {part!r}, expected n:l") from err
    if not slots:
        raise ConfigError("no slots given")
    return slots


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "U", None) is not None:
        overrides["U"] = args.U
    if getattr(args, "L", None) is not None:
        overrides["L_list"] = _parse_l_list(args.L)
    if getattr(args, "ladder", None) is not None:
        overrides["ladder"] = LadderModel.parse(args.ladder)
    return replace(config, **overrides) if overrides else config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetacross",
        description="Certify exact level-curve identities driven by the "
                    "critical line at desk scale.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    common.add_argument("--U", type=float, default=None)
    common.add_argument("--L", type=str, default=None,
                        help="comma-separated window indices")
    common.add_argument("--ladder", type=str, default=None,
                        help="asymptotic | affine:DELTA")

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the full certification pipeline")
    p_verify.add_argument("--out", type=Path, default=Path("report.json"))

    p_atlas = sub.add_parser("atlas", parents=[common],
                             help="emit re-certified level-curve arcs as CSV")
    p_atlas.add_argument("--slots", type=str, required=True,
                         help="comma-separated n:l pairs, e.g. 8:1,12:2")
    p_atlas.add_argument("--out-dir", type=Path, required=True)
    p_atlas.add_argument("--step", type=float, default=0.02)
    p_atlas.add_argument("--count", type=int, default=200)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "verify":
            report = run(config)
            write_report(report, args.out)
            ok = certification_ok(report)
            total = len(report["payload"]["runs"])
            good = sum(1 for r in report["payload"]["runs"] if r["certified"])
            print(f"certified {good}/{total} window(s); report: {args.out}")
            return 0 if ok else 1
        if args.command == "atlas":
            slots = _parse_slots(args.slots)
            written, warnings = emit_atlas(config, slots, args.out_dir,
                                           step=args.step, count=args.count)
            for w in warnings:
                print(f"warning: {w}", file=sys.stderr)
            if not written and slots:
                print("no atlas files written", file=sys.stderr)
                return 1
            print(f"wrote {len(written)} atlas file(s) to {args.out_dir}")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except ZetacrossError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
