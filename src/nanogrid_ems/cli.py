"""Command-line entry point.

Subcommands: ``run`` executes one scenario file (bundled scenarios may be
named without a path), ``compare`` runs a scenario under both controllers
and prints a side-by-side table, ``dump-fis`` writes the fuzzy guard
definitions for audit.  Diagnostics go to stderr, data to stdout and
files; the exit status is 0 exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .controller import CONTROLLER_KINDS, FuzzyEms, NanogridParams
from .engine import run_scenario, summarize
from .errors import NanogridError
from .profiles import (
    load_scenario,
    render_fuzzy_systems,
    render_summary,
    write_outputs,
)

_COMPARE_COLUMNS = (
    "controller",
    "violations_charge",
    "violations_discharge",
    "soc_min_pct",
    "soc_max_pct",
    "max_abs_p_bat_w",
    "charging_fraction",
)


def _run_one(loaded, controller_override, out_dir):
    """Run one loaded ``(scenario, pv, load)``, write its files, return its metrics."""
    scenario, pv, load = loaded
    if controller_override is not None:
        scenario = replace(scenario, controller=controller_override)
    trace = run_scenario(scenario, pv, load)
    metrics = summarize(trace, scenario.params, scenario.dt_s)
    write_outputs(trace, metrics, out_dir, f"{scenario.name}_{scenario.controller}")
    return metrics


def cmd_run(args) -> int:
    metrics = _run_one(load_scenario(args.scenario), args.controller, args.out)
    sys.stdout.write(render_summary(metrics))
    return 0


def cmd_compare(args) -> int:
    # Both controllers run on the same parsed profiles.
    loaded = load_scenario(args.scenario)
    rows = []
    for kind in CONTROLLER_KINDS:
        metrics = _run_one(loaded, kind, args.out)
        rows.append(
            (
                kind,
                str(metrics.violations_charge),
                str(metrics.violations_discharge),
                f"{metrics.soc_min_pct:.6g}",
                f"{metrics.soc_max_pct:.6g}",
                f"{max(metrics.max_charge_w, metrics.max_discharge_w):.6g}",
                f"{metrics.charging_fraction:.6g}",
            )
        )
    widths = [
        max(len(col), *(len(row[i]) for row in rows))
        for i, col in enumerate(_COMPARE_COLUMNS)
    ]
    header = "  ".join(col.ljust(w) for col, w in zip(_COMPARE_COLUMNS, widths))
    sys.stdout.write(header.rstrip() + "\n")
    for row in rows:
        line = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        sys.stdout.write(line.rstrip() + "\n")
    return 0


def cmd_dump_fis(args) -> int:
    ems = FuzzyEms(NanogridParams())
    text = render_fuzzy_systems([ems.overcharge_guard, ems.depletion_guard])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nanogrid-ems",
        description="Islanded AC nanogrid simulator with bus-frequency signaling",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario and write trace + summary")
    run.add_argument("scenario", help="scenario file path or bundled scenario name")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument(
        "--controller",
        choices=CONTROLLER_KINDS,
        default=None,
        help="override the scenario's controller",
    )
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="run a scenario under both controllers")
    compare.add_argument("scenario", help="scenario file path or bundled scenario name")
    compare.add_argument("--out", required=True, help="output directory")
    compare.set_defaults(func=cmd_compare)

    dump = sub.add_parser("dump-fis", help="write the fuzzy guard definitions")
    dump.add_argument("--out", required=True, help="output file")
    dump.set_defaults(func=cmd_dump_fis)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NanogridError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
