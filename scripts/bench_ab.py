"""Interleaved A/B runs of perfbench: a parent commit against a change.

    python scripts/bench_ab.py PARENT_REF [--pairs 10] [--workload all]
        [--seed 1] [--trace 0] [--out FILE]
    python scripts/bench_ab.py PARENT_REF --step KIND [--pairs 10] [--out FILE]
    python scripts/bench_ab.py PARENT_REF --load [--seed 1] [--pairs 10] [--out FILE]

The parent side is a fresh copy of the parent commit's files (``git
archive``, which registers nothing in the repository); the change side is
a fresh copy of this checkout's working tree: its tracked files and the
untracked ones that git does not ignore. So neither side holds a bytecode
cache or earlier benchmark results, as in a new checkout. Pair i runs
``perfbench/run.py`` on both sides, the parent first when i is even, and
keeps the metrics of the JSON line each run prints last; every run lasts
BENCHMARK.json's run_seconds.
The output is one JSON object: for every workload and metric, the raw
values of both sides, their median, quartiles and IQR, how many pairs the
change won and the change of the median in percent. The script itself
uses only the standard library.

``--step KIND`` times ``run_scenario`` on every whole bundled scenario
(43 200 steps, so building the controller is under 1% of a call) with
controller KIND, in microseconds per step: a ``step_ab`` block. ``--load``
writes ``perfbench/measured.py``'s inputs for ``--seed`` once and times
``load_scenario`` on them: a ``load_ab`` block. Both import the two sides'
``src/nanogrid_ems`` into this interpreter under two package names, and a
pair is at least ``TURNS`` turns: one call of each side, back to back,
the parent first when i is even. A pair's ratio change/parent is the
median over its turns, as the back-to-back calls see one phase of the
machine. Each round hashes every returned array of each side (the trace
columns, or both profiles' time and power arrays), and the mode fails
unless all these digests are the same. Each side finds its bundled
scenarios through its own ``profiles.data_dir()``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# The package name under which ``--step`` and ``--load`` import each side's
# src/nanogrid_ems, so that both copies live in one interpreter.
PACKAGES = {"parent": "parent_nanogrid_ems", "change": "change_nanogrid_ems"}

# Turns in one ``--step`` or ``--load`` pair, at least, in whole rounds over
# the timed calls. On a shared 2-CPU VM one call's time changed by 2x within
# seconds, so a pair's ratio is the median over its turns (one call of each
# side, back to back), not a ratio of sums.
TURNS = 15


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


def snapshot(root: Path, dest: Path) -> Path:
    """Copy the working tree of the checkout ``root`` to ``dest``, leaving
    out what git ignores, such as ``__pycache__``: a stray bytecode cache
    in ``root`` would spare that side's interpreters compiling ``src/``."""
    listed = subprocess.run(
        ["git", "-C", str(root), "ls-files", "-z"]
        + ["--cached", "--others", "--exclude-standard"],
        check=True,
        capture_output=True,
    ).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = root / name
        # A tracked file deleted in the working tree is listed but not copied.
        if source.is_file():
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
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


def measured_inputs(dest: Path, seed: int) -> Path:
    """Write perfbench's measured_compare inputs for ``seed``; return the config."""
    spec = importlib.util.spec_from_file_location(
        "measured", ROOT / "perfbench" / "measured.py"
    )
    measured = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(measured)
    return measured.write_inputs(dest, seed)


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
            f" when i is even. parent: {args.parent}; change: a copy of the"
            " working tree"
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


def load_package(src: Path, name: str) -> None:
    """Import ``src/nanogrid_ems`` and its submodules as the package ``name``."""
    pkg = src / "nanogrid_ems"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    package = importlib.util.module_from_spec(spec)
    # Registered first: the package's relative imports resolve through it.
    sys.modules[name] = package
    spec.loader.exec_module(package)


def timed_calls(src: Path, name: str, args, config: Path | None) -> list:
    """The calls that ``--step`` or ``--load`` times on the package in ``src``,
    imported as ``name``; each returns the arrays that the digest hashes."""
    load_package(src, name)
    profiles = importlib.import_module(f"{name}.profiles")
    if args.load:

        def load():
            _, pv, load = profiles.load_scenario(config)
            return [pv.t_s, pv.power_w, load.t_s, load.power_w]

        return [load]
    engine = importlib.import_module(f"{name}.engine")
    calls = []
    for path in sorted(profiles.data_dir().glob("*.cfg")):
        scenario, pv, load = profiles.load_scenario(path)
        inputs = (replace(scenario, controller=args.step), pv, load)
        # A Trace's attributes are its columns, in field order.
        calls.append(lambda i=inputs: list(vars(engine.run_scenario(*i)).values()))
    return calls


def interleaved_report(checkouts: dict[str, Path], args, tmp: Path) -> dict:
    """The ``step_ab`` or ``load_ab`` block of ``--step`` or ``--load``;
    exits unless every round of both sides gave the same digest."""
    config = measured_inputs(tmp / "inputs", args.seed) if args.load else None
    calls = [
        timed_calls(checkouts[side] / "src", PACKAGES[side], args, config)
        for side in SIDES
    ]
    if args.load:
        block, entry, digest = "load_ab", "measured_day", "profiles_sha256"
        unit = "s per call"
        timed = f"load_scenario on perfbench's measured_day inputs, seed {args.seed}"
    else:
        block, entry, digest = "step_ab", args.step, "trace_sha256"
        unit = "us per step"
        timed = f"run_scenario on every bundled scenario with controller {args.step}"
    values: dict[str, list[float]] = {side: [] for side in SIDES}
    ratio, digests = [], set()
    rounds = -(-TURNS // len(calls[0]))
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        seconds, turns, steps = [0.0, 0.0], [], 0
        for _ in range(rounds):
            hashes = [hashlib.sha256(), hashlib.sha256()]
            for turn in zip(*calls, strict=True):
                took = [0.0, 0.0]
                for side in order:
                    started = time.perf_counter()
                    arrays = turn[side]()
                    took[side] = time.perf_counter() - started
                    seconds[side] += took[side]
                    for array in arrays:
                        hashes[side].update(array.tobytes())
                turns.append(took[1] / took[0])
                steps += len(arrays[0])
            digests.update(h.hexdigest() for h in hashes)
        per = rounds if args.load else steps / 1e6
        for side, name in enumerate(SIDES):
            values[name].append(round(seconds[side] / per, 6))
        ratio.append(round(statistics.median(turns), 6))
        print(f"pair {i}: ratio {ratio[-1]:.4f}", file=sys.stderr)
    if len(digests) != 1:
        sys.exit(f"error: {digest} differs between calls: {sorted(digests)}")
    result = {
        "unit": unit,
        **values,
        "parent_stats": stats(values["parent"]),
        "change_stats": stats(values["change"]),
        "ratio": ratio,
        "ratio_stats": stats(ratio),
        "change_wins": f"{sum(r < 1.0 for r in ratio)} of {len(ratio)}",
        "median_change_pct": round(100 * (statistics.median(ratio) - 1.0), 3),
        digest: digests.pop(),
    }
    method = (
        f"{timed}, in one interpreter that imports both sides' src/nanogrid_ems;"
        f" {args.pairs} pairs of {rounds} rounds of turns, a turn being one call of"
        " each side back to back, the parent first in even-numbered pairs"
        " (0-based). A pair's ratio is the median of its turns' change/parent;"
        " change_wins counts ratios below 1, median_change_pct is the median"
        f" ratio less 1. parent: {args.parent}; change: a copy of the working"
        f" tree. {digest} hashes every array the calls of a round return, the"
        " same in every round of both sides"
    )
    return {block: {"method": method, entry: result}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the JSON here, not to stdout")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--step", metavar="KIND", help="time run_scenario per step under controller KIND"
    )
    mode.add_argument(
        "--load", action="store_true", help="time load_scenario on the measured inputs"
    )
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        checkouts = {
            "parent": export(args.parent, Path(tmp) / "parent"),
            "change": snapshot(ROOT, Path(tmp) / "change"),
        }
        if args.step or args.load:
            report = interleaved_report(checkouts, args, Path(tmp))
        else:
            runs = []
            for i in range(args.pairs):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                run = {side: bench(checkouts[side], args) for side in order}
                runs.append(run)
                shown = (
                    f"{side} correct={run[side]['correct']} failed={run[side]['failed']}"
                    for side in SIDES
                )
                print(f"pair {i}: " + "  ".join(shown), file=sys.stderr)
            report = bench_report(runs, args, spec, better)
    text = json.dumps(report, indent=1, ensure_ascii=False)
    if args.out is None:
        sys.stdout.write(text + "\n")
    else:
        args.out.write_text(text + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
