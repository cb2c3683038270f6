"""Command-line entry point.

Exit codes: 0 on success, 2 for configuration errors, 3 when more than 20%
of trials fail or any gradient check fails.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from . import harness
from .errors import ConfigError, NfIsacError


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nfisac",
        description="Near-field ISAC movable-antenna experiment runner",
    )
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--profile", choices=sorted(harness.PROFILES))
    parser.add_argument("--preset", choices=harness.PRESETS)
    parser.add_argument("--scheme", action="append", choices=harness.SCHEMES,
                        dest="schemes", help="repeatable; default LP-MA and ZF-MA")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--dtk", type=float)
    parser.add_argument("--pmax", type=float, dest="p_max")
    parser.add_argument("--gamma0", type=float)
    parser.add_argument("--nu", type=int, dest="n_u",
                        help="movable antennas per user")
    parser.add_argument("--weights", type=float, dest="w1",
                        help="weight of user 1 (user 2 gets 1 - w1)")
    parser.add_argument("--workers", type=int)
    return parser


def main(argv=None):
    parser = build_parser()
    overrides = vars(parser.parse_args(argv))
    config = overrides.pop("config")
    if overrides["schemes"]:
        overrides["schemes"] = tuple(overrides["schemes"])
    try:
        cfg = harness.load_config(config, overrides)
        rows, trace_rows, n_failed = harness.run_preset(cfg)
        if cfg.preset == "gradcheck":
            harness.emit(rows, cfg.out, cfg.format,
                         columns=harness.GRADCHECK_HEADER.split(","))
        else:
            harness.emit(rows, cfg.out, cfg.format)
            if trace_rows:
                harness.emit(trace_rows, harness.trace_path_for(cfg.out),
                             cfg.format, columns=harness.TRACE_HEADER.split(","))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NfIsacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    total = len(rows)
    gradcheck = cfg.preset == "gradcheck"
    classes = Counter(row["error"].split(":")[0] for row in rows if "error" in row)
    if classes:
        print("failed trials by class: " + ", ".join(
            f"{name} {count}" for name, count in sorted(classes.items())),
            file=sys.stderr)
    if n_failed > (0 if gradcheck else 0.2 * total):
        what = "gradient check rows" if gradcheck else "trials"
        print(f"{n_failed}/{total} {what} failed", file=sys.stderr)
        return 3
    print(f"wrote {total} rows to {cfg.out}" + (
        f" ({n_failed} failed)" if n_failed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
