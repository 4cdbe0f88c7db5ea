"""Interleaved A/B runs of perfbench: a parent commit against a change.

    python scripts/bench_ab.py PARENT_REF [--pairs 10] [--workload all]
        [--seed 1] [--trace 0] [--out FILE]
    python scripts/bench_ab.py PARENT_REF --step KIND [--pairs 10] [--out FILE]

The parent side is a fresh copy of the parent commit's files (``git
archive``, which registers nothing in the repository); the change side is
this checkout's working tree. Pair i runs ``perfbench/run.py`` on both
sides, the parent first when i is even, and keeps the metrics of the JSON
line each run prints last; every run lasts BENCHMARK.json's run_seconds.
The output is one JSON object: for every workload and metric, the raw
values of both sides, their median, quartiles and IQR, how many pairs the
change won and the change of the median in percent. Only the standard
library is used.

``--step KIND`` times the closed loop alone, with the same pairing and
statistics: each run is a fresh interpreter on the side's ``src/`` that
takes the best of 3 ``run_scenario`` calls on every bundled scenario under
controller KIND, and reports microseconds per step over all of them and a
sha256 of every trace column. The mode fails unless every run of both
sides gives the same digest. Its output is a ``step_ab`` block.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# Run by ``--step`` in a fresh interpreter; prints one JSON line.
STEP_RUN = """
import hashlib, json, sys, time
from dataclasses import replace
from nanogrid_ems.engine import TRACE_FIELDS, run_scenario
from nanogrid_ems.profiles import data_dir, load_scenario

seconds, steps, digest = 0.0, 0, hashlib.sha256()
for path in sorted(data_dir().glob("*.cfg")):
    scenario, pv, load = load_scenario(path)
    scenario = replace(scenario, controller=sys.argv[1])
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        trace = run_scenario(scenario, pv, load)
        best = min(best, time.perf_counter() - started)
    seconds += best
    steps += len(trace)
    for name in TRACE_FIELDS:
        digest.update(getattr(trace, name).tobytes())
print(json.dumps({"us_per_step": 1e6 * seconds / steps, "digest": digest.hexdigest()}))
"""


def export(ref: str, dest: Path) -> Path:
    """Write the files of commit ``ref`` under ``dest``."""
    dest.mkdir(parents=True)
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", ref],
        check=True,
        capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)
    return dest


def bench(checkout: Path, args) -> dict:
    """One perfbench run in ``checkout``: its last JSON line, and the
    environment that the run recorded in its result files."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload]
    argv += ["--seed", str(args.seed), "--trace", str(args.trace)]
    started = time.time()
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: perfbench failed in {checkout}:\n{done.stderr}")
    result = json.loads(done.stdout.splitlines()[-1])
    if args.workload != "all":
        result["metrics"] = {
            f"{args.workload}/{name}": m for name, m in result["metrics"].items()
        }
    results = checkout / ".perfbench" / "results"
    written = [
        path
        for path in results.glob(f"*-seed{args.seed}-trace{args.trace}.json")
        if path.stat().st_mtime >= started
    ]
    if not written:
        sys.exit(f"error: perfbench wrote no result file in {results}")
    newest = max(written, key=lambda path: path.stat().st_mtime)
    result["environment"] = json.loads(newest.read_text(encoding="utf-8"))["environment"]
    return result


def step_run(checkout: Path, kind: str) -> dict:
    """One ``STEP_RUN`` on ``checkout``'s package: µs per step and trace digest."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, "-c", STEP_RUN, kind]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"error: step run failed in {checkout}:\n{done.stderr}")
    return json.loads(done.stdout)


def stats(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    median = statistics.median(values)
    return {
        "median": round(median, 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
        "iqr": round(q3 - q1, 6),
    }


def compared(unit: str, values: dict[str, list[float]], lower: bool) -> dict:
    """One metric's raw values of both sides, their statistics and the wins."""
    wins = sum(
        (c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"])
    )
    medians = [statistics.median(values[side]) for side in SIDES]
    pct = None if medians[0] == 0 else round(100 * (medians[1] / medians[0] - 1), 3)
    return {
        "unit": unit,
        **values,
        "parent_stats": stats(values["parent"]),
        "change_stats": stats(values["change"]),
        "change_wins": f"{wins} of {len(values['parent'])}",
        "median_change_pct": pct,
    }


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """The per-workload, per-metric block of raw values and statistics."""
    block: dict = {}
    for key in runs[0]["parent"]["metrics"]:
        workload, name = key.split("/", 1)
        values = {
            side: [round(run[side]["metrics"][key]["value"], 6) for run in runs]
            for side in SIDES
        }
        lower = better.get(name, "lower") == "lower"
        unit = runs[0]["parent"]["metrics"][key]["unit"]
        block.setdefault(workload, {})[name] = compared(unit, values, lower)
    return block


def bench_report(runs: list[dict], args, spec: dict, better: dict[str, str]) -> dict:
    """The report of perfbench runs: how they were made and their metrics."""
    return {
        "benchmark": (
            f"python3 perfbench/run.py --workload {args.workload} --trace {args.trace}"
            f" --seed {args.seed}; {spec['run_seconds']:g} s per run"
        ),
        "method": (
            f"{args.pairs} interleaved pairs; pair i (0-based) ran the parent first"
            f" when i is even. parent: {args.parent}; change: the working tree"
        ),
        "environment": runs[-1]["change"]["environment"],
        "runs": [
            {
                side: {k: run[side][k] for k in ("correct", "attempted", "failed")}
                for side in SIDES
            }
            for run in runs
        ],
        "end_to_end" if args.trace == 0 else "per_layer": summarize(runs, better),
    }


def step_report(runs: list[dict], args) -> dict:
    """The ``step_ab`` block of ``--step`` runs; exits if a trace digest differs."""
    digests = {run[side]["digest"] for run in runs for side in SIDES}
    if len(digests) != 1:
        sys.exit(f"error: the traces differ between runs: {sorted(digests)}")
    values = {side: [round(run[side]["us_per_step"], 3) for run in runs] for side in SIDES}
    return {
        "step_ab": {
            "method": (
                "run_scenario on every bundled scenario (43 200 steps each) with the"
                " controller replaced by each kind; each measurement is a fresh"
                " interpreter with PYTHONPATH set to the side's src/, taking the best"
                " of 3 run_scenario calls per scenario, their sum divided by the total"
                f" step count; {args.pairs} interleaved pairs per kind, parent first in"
                f" even-numbered pairs (0-based). parent: {args.parent}; change: the"
                " working tree. trace_sha256 hashes every trace column of every"
                " scenario, the same on every run of both sides"
            ),
            args.step: {
                **compared("us per step", values, lower=True),
                "trace_sha256": digests.pop(),
            },
        }
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    parser.add_argument(
        "--step", metavar="KIND", help="time run_scenario per step under controller KIND"
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        checkouts = {"parent": export(args.parent, Path(tmp) / "parent"), "change": ROOT}
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            if args.step:
                run = {side: step_run(checkouts[side], args.step) for side in order}
                shown = (f"{side} {run[side]['us_per_step']:.3f} us" for side in SIDES)
            else:
                run = {side: bench(checkouts[side], args) for side in order}
                shown = (
                    f"{side} correct={run[side]['correct']} failed={run[side]['failed']}"
                    for side in SIDES
                )
            runs.append(run)
            print(f"pair {i}: " + "  ".join(shown), file=sys.stderr)
    text = json.dumps(
        step_report(runs, args) if args.step else bench_report(runs, args, spec, better),
        indent=1,
        ensure_ascii=False,
    )
    if args.out is None:
        sys.stdout.write(text + "\n")
    else:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
