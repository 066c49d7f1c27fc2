"""Command-line front end.

Exit codes: 0 success, 1 certification failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import ConfigError, ZetacrossError
from .harness import RunConfig, emit_atlas, parse_config, run, write_report


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
    """The config file's lines, each flag given replacing its key's value;
    an undecodable byte reads as U+FFFD, so its line is a bad line."""
    text = args.config.read_text(errors="replace") if args.config else ""
    given = vars(args)
    flags = {key: given[key] for key in ("U", "L_list", "ladder") if given[key] is not None}
    return parse_config(text, flags)


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
    common.add_argument("--U", default=None, help="window width, in (0, pi/4)")
    common.add_argument("--L", dest="L_list", metavar="L", default=None,
                        help="comma-separated window indices")
    common.add_argument("--ladder", default=None,
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
            args.out.open("a").close()  # an unwritable --out fails before the run
            report = run(config)
            write_report(report, args.out)
            ok = report["payload"]["certified"]
            total = len(report["payload"]["runs"])
            good = sum(1 for r in report["payload"]["runs"] if r["certified"])
            print(f"certified {good}/{total} window(s); report: {args.out}")
            return 0 if ok else 1
        slots = _parse_slots(args.slots)  # argparse allows only verify and atlas
        written, warnings = emit_atlas(config, slots, args.out_dir,
                                       step=args.step, count=args.count)
        for w in warnings:
            print(f"warning: {w}", file=sys.stderr)
        if not written and slots:
            print("no atlas files written", file=sys.stderr)
            return 1
        print(f"wrote {len(written)} atlas file(s) to {args.out_dir}")
        return 0
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"file error: {err}", file=sys.stderr)
        return 2
    except ZetacrossError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
