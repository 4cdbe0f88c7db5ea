"""Interleaved A/B runs of perfbench: a parent commit against a change.

    python scripts/bench_ab.py PARENT_REF [--pairs 10] [--workload all]
        [--seed 1] [--trace 0] [--out FILE]

The parent side is a fresh copy of the parent commit's files (``git
archive``, which registers nothing in the repository); the change side is
this checkout's working tree. Pair i runs ``perfbench/run.py`` on both
sides, the parent first when i is even, and keeps the metrics of the JSON
line each run prints last; every run lasts BENCHMARK.json's run_seconds.
The output is one JSON object: for every workload and metric, the raw
values of both sides, their median, quartiles and IQR, how many pairs the
change won and the change of the median in percent. Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


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
        wins = sum(
            (c < p) if lower else (c > p)
            for p, c in zip(values["parent"], values["change"])
        )
        medians = [statistics.median(values[side]) for side in SIDES]
        pct = None if medians[0] == 0 else round(100 * (medians[1] / medians[0] - 1), 3)
        block.setdefault(workload, {})[name] = {
            "unit": runs[0]["parent"]["metrics"][key]["unit"],
            **values,
            "parent_stats": stats(values["parent"]),
            "change_stats": stats(values["change"]),
            "change_wins": f"{wins} of {len(runs)}",
            "median_change_pct": pct,
        }
    return block


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        checkouts = {"parent": export(args.parent, Path(tmp) / "parent"), "change": ROOT}
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            run = {side: bench(checkouts[side], args) for side in order}
            runs.append(run)
            print(
                f"pair {i}: "
                + "  ".join(
                    f"{side} correct={run[side]['correct']} failed={run[side]['failed']}"
                    for side in SIDES
                ),
                file=sys.stderr,
            )
    report = {
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
    text = json.dumps(report, indent=1, ensure_ascii=False) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
