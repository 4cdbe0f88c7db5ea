"""Command-line entry point.

Subcommands: ``run`` executes one scenario file (bundled scenarios may be
named without a path), ``compare`` runs a scenario under both controllers
and prints a side-by-side table, ``dump-fis`` writes the fuzzy guard
definitions for audit.  Diagnostics go to stderr, data to stdout and
files; the exit status is 0 exactly when no error occurred.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .controller import CONTROLLER_KINDS, FuzzyEms, NanogridParams
from .engine import run_scenario, summarize
from .errors import NanogridError
from .profiles import (
    format_value,
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


def _print(text: str) -> None:
    if sys.stdout is None:
        raise OSError("standard output is closed")
    try:
        print(text, end="", flush=True)
    except OSError:
        # Python flushes stdout again at exit; point it at devnull first.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise


def _run_one(loaded, kind, out_dir):
    """Run ``loaded`` under controller ``kind``, write its files, return its metrics."""
    scenario, pv, load = loaded
    scenario = replace(scenario, controller=kind)
    trace = run_scenario(scenario, pv, load)
    metrics = summarize(trace, scenario.params, scenario.dt_s)
    write_outputs(trace, metrics, out_dir, f"{scenario.name}_{scenario.controller}")
    return metrics


def cmd_run(args) -> int:
    loaded = load_scenario(args.scenario)
    metrics = _run_one(loaded, args.controller or loaded[0].controller, args.out)
    _print(render_summary(metrics))
    return 0


def cmd_compare(args) -> int:
    # Both controllers run on the same parsed profiles.
    loaded = load_scenario(args.scenario)
    table = [_COMPARE_COLUMNS]
    for kind in CONTROLLER_KINDS:
        metrics = _run_one(loaded, kind, args.out)
        values = asdict(metrics)
        values["max_abs_p_bat_w"] = max(metrics.max_charge_w, metrics.max_discharge_w)
        table.append((kind, *(format_value(values[c]) for c in _COMPARE_COLUMNS[1:])))
    widths = [max(map(len, col)) for col in zip(*table)]
    for row in table:
        _print("  ".join(map(str.ljust, row, widths)).rstrip() + "\n")
    return 0


def cmd_dump_fis(args) -> int:
    ems = FuzzyEms(NanogridParams())
    text = render_fuzzy_systems([ems.overcharge_guard, ems.depletion_guard])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text, encoding="utf-8", newline="\n")
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
