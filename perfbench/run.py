"""Benchmark of the nanogrid-ems closed-loop simulator.

    python3 perfbench/run.py --workload all --trace 0

runs every workload and prints every end-to-end metric by name with its
unit.  ``--trace 1`` prints the per-layer metrics of the traced run instead.
``--workload`` takes one workload name or ``all``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  Each run also writes a result file under
``.perfbench/results/``.  README.md next to this file explains the workloads
and the metrics.

End-to-end runs use the CLI as users do: one child process at a time, in a
single-client closed loop.  The traced run calls ``cli.main`` in this process
with every layer's public functions wrapped (see tracing.py).  Every
invocation's outputs are checked against the digests in golden.json.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import measured

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
GOLDEN_PATH = BENCH / "golden.json"
WORK_ROOT = ROOT / ".perfbench"

DEFAULT_SEED = 1
BUNDLED = ("scenario1_high_soc", "scenario2_low_soc_4x", "stress_charge")
WORKLOADS = ("bundled_flc", "bundled_proportional", "measured_compare")
SETUP_REPEATS = 5
TRACED_PASSES = 2
CHILD_TIMEOUT_S = 60.0
# tests/test_acceptance.py::test_a1 requires one scenario1_high_soc/flc
# run_scenario to finish within this many seconds.
A1_BOUND_S = 5.0
# Printed and recorded, but left out of BENCHMARK.json: a median over one
# run swings by a quarter with the machine's contention phases (README.md).
REPORT_ONLY_UNITS = {"wall_s": "s", "steps_per_s": "1/s"}

SETUP_CODE = """\
import sys
import nanogrid_ems
from nanogrid_ems.controller import make_controller
from nanogrid_ems.profiles import load_scenario
scenario, pv, load = load_scenario(sys.argv[1])
make_controller(sys.argv[2], scenario.params)
print("ready", flush=True)
"""


@dataclass(frozen=True)
class Invocation:
    """One CLI command of a workload and the files it writes."""

    label: str  # key of its digests in golden.json
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    out_file: str = ""  # dump-fis takes an output file, the others a directory
    pinned: bool = True  # False: no golden digest, checked for sanity only

    def argv(self, out_dir: Path) -> list[str]:
        return [*self.args, "--out", str(out_dir / self.out_file)]


@dataclass
class Workload:
    invocations: list[Invocation]
    setup_scenario: str  # what the workload's first step needs loaded
    setup_controller: str


def run_invocation(scenario: str, kind: str) -> Invocation:
    base = f"{scenario}_{kind}"
    return Invocation(
        f"run {scenario} --controller {kind}",
        ("run", scenario, "--controller", kind),
        (f"{base}_trace.csv", f"{base}_summary.txt"),
    )


DUMP_FIS = Invocation(
    "dump-fis", ("dump-fis",), ("fuzzy_guards.cfg",), out_file="fuzzy_guards.cfg"
)
A1_INVOCATION = run_invocation("scenario1_high_soc", "flc")


def make_workload(name: str, seed: int, inputs_dir: Path) -> Workload:
    """The workload's invocations; measured_compare writes its inputs first."""
    if name in ("bundled_flc", "bundled_proportional"):
        kind = name.removeprefix("bundled_")
        return Workload([run_invocation(s, kind) for s in BUNDLED], BUNDLED[0], kind)
    if name == "measured_compare":
        config = str(measured.write_inputs(inputs_dir, seed))
        base = measured.SCENARIO_NAME
        compare = Invocation(
            f"compare {base} seed={seed}",
            ("compare", config),
            tuple(
                f"{base}_{kind}_{part}"
                for kind in ("flc", "proportional")
                for part in ("trace.csv", "summary.txt")
            ),
            pinned=seed == DEFAULT_SEED,
        )
        return Workload([compare], config, "flc")
    raise ValueError(f"unknown workload {name!r}")


# -- output checks -----------------------------------------------------------


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def summary_is_finite(text: bytes) -> bool:
    for line in text.decode("utf-8").splitlines():
        _, _, value = line.partition(" = ")
        try:
            if not math.isfinite(float(value)):
                return False
        except ValueError:
            return False
    return True


def read_outputs(inv: Invocation, out_dir: Path, stdout: bytes) -> dict[str, bytes]:
    """Standard output and every output file that exists, by name."""
    blobs = {"stdout": stdout}
    for name in inv.outputs:
        path = out_dir / name
        if path.is_file():
            blobs[name] = path.read_bytes()
    return blobs


def trace_rows(blobs: dict[str, bytes]) -> int:
    """Simulated steps: data rows of every trace file."""
    return sum(
        data.count(b"\n") - 1 for name, data in blobs.items() if name.endswith("_trace.csv")
    )


def check(inv: Invocation, status, stderr: bytes, blobs: dict[str, bytes], golden) -> str:
    """Return the first problem of one finished invocation, or ""."""
    if status != 0:
        return f"exit status {status}"
    if stderr:
        return f"stderr: {stderr.decode('utf-8', 'replace').splitlines()[0]}"
    missing = [name for name in inv.outputs if name not in blobs]
    if missing:
        return f"missing outputs {missing}"
    if inv.pinned:
        pins = golden.get(inv.label)
        if pins is None:
            return "no golden digest"
        for name, data in blobs.items():
            if sha256(data) != pins.get(name):
                return f"{name} differs from its golden digest"
    else:
        for name, data in blobs.items():
            if name.endswith("_summary.txt") and not summary_is_finite(data):
                return f"{name} has a non-finite or unparsable value"
    return ""


def clear_outputs(inv: Invocation, out_dir: Path) -> None:
    for name in inv.outputs:
        (out_dir / name).unlink(missing_ok=True)


@dataclass
class Tally:
    """Invocations attempted and failed, and every problem found."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problem: str) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            self.problems.append(f"{label}: {problem}")


# -- child processes ---------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


@contextmanager
def supervised(proc: subprocess.Popen):
    """Kill ``proc`` if it outlives CHILD_TIMEOUT_S or the block raises."""
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        yield proc
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()


def spawn_cli(inv: Invocation, out_dir: Path):
    """Run one invocation as ``python -m nanogrid_ems``.

    Returns (seconds, exit status, stdout, stderr, peak RSS in KiB).
    """
    clear_outputs(inv, out_dir)
    out_path, err_path = out_dir / "stdout.txt", out_dir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "nanogrid_ems", *inv.argv(out_dir)],
            stdout=out,
            stderr=err,
            cwd=out_dir,
            env=child_env(),
        )
        with supervised(proc):
            # wait4 gives this child's own peak RSS, not the maximum over all children
            _, wait_status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(wait_status)
        seconds = perf_counter() - start
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    return seconds, proc.returncode, stdout, stderr, usage.ru_maxrss


def cli_child(inv: Invocation, out_dir: Path, golden, tally: Tally):
    """Run and check one invocation; return (seconds, steps, peak RSS in KiB)."""
    seconds, status, stdout, stderr, rss_kb = spawn_cli(inv, out_dir)
    blobs = read_outputs(inv, out_dir, stdout)
    tally.record(inv.label, check(inv, status, stderr, blobs, golden))
    return seconds, trace_rows(blobs), rss_kb


def setup_child(workload: Workload, cwd: Path, tally: Tally) -> float:
    """Seconds from spawning a fresh interpreter until it could take its first step."""
    start = perf_counter()
    proc = subprocess.Popen(
        [
            sys.executable,
            "-c",
            SETUP_CODE,
            workload.setup_scenario,
            workload.setup_controller,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=cwd,
        env=child_env(),
    )
    with supervised(proc):
        ready = proc.stdout.readline()
        seconds = perf_counter() - start
        _, err = proc.communicate()
    problem = ""
    if proc.returncode != 0 or err or ready != b"ready\n":
        problem = f"exit status {proc.returncode}, stderr {err[:200]!r}"
    tally.record("setup", problem)
    return seconds


# -- measurement -------------------------------------------------------------


def tail_percentile(samples):
    """Highest nearest-rank percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n <= 10:
        return None
    rank = n - 10
    return 100.0 * rank / n, sorted(samples)[rank - 1]


def describe_timing(samples) -> str:
    tail = tail_percentile(samples)
    spread = (
        f"p{tail[0]:.0f} {tail[1]:.4f}"
        if tail
        else "no tail percentile (needs 11 samples)"
    )
    return f"median of n={len(samples)}; {spread}"


def measure_end_to_end(workload: Workload, seconds: float, work: Path, golden, tally):
    out_dir = work / "out"
    out_dir.mkdir()
    setups = [setup_child(workload, work, tally) for _ in range(SETUP_REPEATS)]
    walls, rss_kb, steps = [], [], 0
    per_invocation = {inv.label: [] for inv in workload.invocations}
    deadline = perf_counter() + seconds
    # Stop when one more iteration, as long as the last, would pass the deadline.
    while not walls or perf_counter() + walls[-1] <= deadline:
        wall, iteration_steps = 0.0, 0
        for inv in workload.invocations:
            elapsed, inv_steps, rss = cli_child(inv, out_dir, golden, tally)
            per_invocation[inv.label].append(elapsed)
            wall += elapsed
            iteration_steps += inv_steps
            rss_kb.append(rss)
        walls.append(wall)
        steps = steps or iteration_steps
    wall_s = statistics.median(walls)
    metrics = {
        "wall_s": wall_s,
        "steps_per_s": steps / wall_s,
        "best_wall_s": sum(min(times) for times in per_invocation.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss_kb) / 1024.0,
    }
    notes = {
        "wall_s": describe_timing(walls),
        "steps_per_s": f"{steps} steps per iteration / median wall_s",
        "best_wall_s": "sum over the invocations of each one's fastest run",
        "setup_s": describe_timing(setups),
        "peak_rss_mb": f"largest of {len(rss_kb)} CLI children",
    }
    samples = {"wall_s": walls, "setup_s": setups, "rss_kb": rss_kb, **per_invocation}
    return metrics, notes, samples, {}


def cli_in_process(main, inv: Invocation, out_dir: Path, golden, tally: Tally) -> float:
    clear_outputs(inv, out_dir)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            status = main(inv.argv(out_dir))
    except (Exception, SystemExit) as exc:
        status = f"raised {exc!r}"
    seconds = perf_counter() - start
    blobs = read_outputs(inv, out_dir, out.getvalue().encode())
    tally.record(inv.label, check(inv, status, err.getvalue().encode(), blobs, golden))
    return seconds


def measure_traced(workload: Workload, seconds: float, work: Path, golden, tally):
    import tracing  # imports the simulator, which end-to-end runs leave to children

    out_dir = work / "out"
    out_dir.mkdir()

    def untraced_pass():
        main = tracing.cli.main
        return sum(
            cli_in_process(main, inv, out_dir, golden, tally)
            for inv in workload.invocations
        )

    def traced_pass(invocations):
        with tracing.TracedRun() as run:
            wall = 0.0
            for inv in invocations:
                first = len(run.tracer)
                wall += cli_in_process(tracing.cli.main, inv, out_dir, golden, tally)
                run.mark(inv.label, first)
        return wall, run

    untraced, traced = [], []
    start = perf_counter()
    for _ in range(TRACED_PASSES):
        untraced.append(untraced_pass())
        traced.append(traced_pass(workload.invocations))
    while perf_counter() - start + untraced[-1] <= seconds:
        untraced.append(untraced_pass())

    runs = [run for _, run in traced]
    per_pass = [run.metrics() for run in runs]
    for problem in runs[0].count_problems(per_pass[0]):
        tally.problems.append(f"traced run: {problem}")
    counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in per_pass]
    if any(c != counts[0] for c in counts[1:]):
        tally.problems.append(f"traced run: counts differ between passes: {counts}")
    if not all(inv.pinned for inv in workload.invocations):
        if per_pass[0]["model.soc_clamps"]:
            tally.problems.append("traced run: SOC was clamped")
    metrics = {
        name: (
            value if isinstance(value, int) else statistics.median(m[name] for m in per_pass)
        )
        for name, value in per_pass[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(
        w for w, _ in traced
    ) - statistics.median(untraced)

    a1_runs = [run for run in runs if A1_INVOCATION.label in run.marks]
    if not a1_runs:
        a1_runs = [traced_pass([A1_INVOCATION])[1]]
    a1_run_scenario_s = statistics.median(
        run.span_total("engine.run_scenario", A1_INVOCATION.label) for run in a1_runs
    )
    loop_s, main_s = metrics["engine.run_scenario_s"], metrics["cli.main_s"]
    extra = {
        "a1_headroom": A1_BOUND_S / a1_run_scenario_s,
        "a1_run_scenario_s": a1_run_scenario_s,
        "shares": {
            "infer_of_run_scenario": metrics["fuzzy.infer_s"] / loop_s,
            "records_summarize_render_of_main": (
                metrics["engine.run_scenario_self_s"]
                + metrics["engine.summarize_s"]
                + metrics["profiles.render_trace_s"]
            )
            / main_s,
            "load_profile_of_main": metrics["profiles.load_profile_s"] / main_s,
        },
    }
    notes = {name: f"median of {TRACED_PASSES} traced passes" for name in metrics}
    notes["trace.overhead_s"] = (
        f"median traced pass minus median of {len(untraced)} untraced in-process passes"
    )
    samples = {"untraced_pass_s": untraced, "traced_pass_s": [w for w, _ in traced]}
    return metrics, notes, samples, extra


# -- reporting ---------------------------------------------------------------


def environment() -> dict:
    cpu_model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec, golden):
    """Measure one workload; return its result record."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        workload = make_workload(name, seed, work / "inputs")
        tally = Tally()
        out_dir = work / "dump-fis"
        out_dir.mkdir()
        cli_child(DUMP_FIS, out_dir, golden, tally)
        measure = measure_traced if trace else measure_end_to_end
        values, notes, samples, extra = measure(workload, seconds, work, golden, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units |= REPORT_ONLY_UNITS
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "problems": tally.problems,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
        "report": {
            name: {"value": value, "unit": units[name], "note": notes[name]}
            for name, value in values.items()
        },
        "samples": samples,
        "environment": environment(),
        **extra,
    }


def print_report(result) -> None:
    print(
        f"{result['workload']}  seed={result['seed']}  seconds={result['seconds']:g}"
        f"  trace={result['trace']}"
    )
    rows = [
        (name, f"{m['value']:.6g} {m['unit']}", m["note"])
        for name, m in result["report"].items()
    ]
    failed, attempted = result["failed"], result["attempted"]
    rows.append(
        ("fail_ratio", f"{failed / attempted:.6g}", f"{failed} of {attempted} invocations")
    )
    if "a1_headroom" in result:
        rows.append(
            (
                "a1_headroom",
                f"{result['a1_headroom']:.4g}",
                f"{A1_BOUND_S:g} s / traced scenario1_high_soc/flc run_scenario",
            )
        )
        rows += [
            (f"share.{name}", f"{value:.3f}", "from traced spans")
            for name, value in result["shares"].items()
        ]
    for name, value, note in rows:
        print(f"  {name:<40} {value:<20} {note}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, help="default: run_seconds of BENCHMARK.json"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nanogrid_ems" / "__init__.py").is_file():
        print(f"error: no nanogrid_ems package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), spec, golden)
        print_report(result)
        results_dir = WORK_ROOT / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}/{name}": metric
            for r in results
            for name, metric in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
