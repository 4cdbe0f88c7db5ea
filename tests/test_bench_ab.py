"""``scripts/bench_ab.py``: its ``--step`` runner and its perfbench pair mode.

``--step`` and ``--load`` import the parent's and the change's
``src/nanogrid_ems`` under two package names and time them in turns.
These tests run that runner on two copies of this tree's package whose
only bundled scenario is 60 steps long, and remove the aliased modules
afterwards, so that no other test sees them. The pair mode's ``bench``
runs a checkout's ``perfbench/run.py``; here that is a stub, and the
change side's checkout is a ``snapshot`` of a small git working tree.
"""

import argparse
import hashlib
import importlib
import importlib.util
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nanogrid_ems.engine import TRACE_FIELDS, run_scenario
from nanogrid_ems.profiles import load_scenario

ROOT = Path(__file__).resolve().parents[1]
BENCH_AB = ROOT / "scripts" / "bench_ab.py"


@pytest.fixture
def bench_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", BENCH_AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in list(sys.modules):
        if name.partition(".")[0] in module.PACKAGES.values():
            del sys.modules[name]


@pytest.fixture
def trees(tmp_path):
    """Two checkouts whose package's only bundled scenario has 60 steps."""
    checkouts = {}
    for side in ("parent", "change"):
        pkg = tmp_path / side / "src" / "nanogrid_ems"
        shutil.copytree(
            ROOT / "src" / "nanogrid_ems",
            pkg,
            ignore=shutil.ignore_patterns("__pycache__", "data"),
        )
        (pkg / "data").mkdir()
        (pkg / "data" / "pv.csv").write_text("t_s,power_w\n0,2230\n60,2230\n")
        (pkg / "data" / "load.csv").write_text("t_s,power_w\n0,100\n60,100\n")
        (pkg / "data" / "short.cfg").write_text(
            "name = short\npv_profile = pv.csv\nload_profile = load.csv\n"
            "soc_init_pct = 60\nduration_s = 60\n"
        )
        checkouts[side] = tmp_path / side
    return checkouts


def step_args():
    return argparse.Namespace(parent="copy", step="flc", load=False, pairs=1, seed=1)


def test_two_trees_load_as_distinct_packages(bench_ab, trees):
    installed = sys.modules.get("nanogrid_ems")
    before = set(sys.modules)
    engines = {}
    for side, name in bench_ab.PACKAGES.items():
        bench_ab.load_package(trees[side] / "src", name)
        engines[side] = importlib.import_module(f"{name}.engine")
        assert Path(engines[side].__file__).is_relative_to(trees[side])
        assert engines[side].make_controller.__module__ == f"{name}.controller"
    assert engines["parent"].run_scenario is not engines["change"].run_scenario
    assert engines["parent"].Trace is not engines["change"].Trace
    assert sys.modules.get("nanogrid_ems") is installed
    added = set(sys.modules) - before
    assert not [name for name in added if name.partition(".")[0] == "nanogrid_ems"]


def test_each_tree_reads_its_own_bundled_data(bench_ab, trees):
    for side, name in bench_ab.PACKAGES.items():
        bench_ab.load_package(trees[side] / "src", name)
        profiles = importlib.import_module(f"{name}.profiles")
        assert profiles.data_dir() == trees[side] / "src" / "nanogrid_ems" / "data"
        scenario, pv, load = profiles.load_scenario("short")
        assert (scenario.name, scenario.duration_s) == ("short", 60.0)
        assert pv.t_s.tolist() == load.t_s.tolist() == [0.0, 60.0]


def test_one_pair_gives_one_digest_on_both_sides(bench_ab, trees, tmp_path, capsys):
    block = bench_ab.interleaved_report(trees, step_args(), tmp_path)["step_ab"]["flc"]
    assert len(block["parent"]) == len(block["change"]) == len(block["ratio"]) == 1
    assert block["parent"][0] > 0 and block["change"][0] > 0
    # The digest is that of one run of the scenario: every trace column in order.
    config = trees["change"] / "src" / "nanogrid_ems" / "data" / "short.cfg"
    scenario, pv, load = load_scenario(config)
    trace = run_scenario(replace(scenario, controller="flc"), pv, load)
    digest = hashlib.sha256()
    for name in TRACE_FIELDS:
        digest.update(getattr(trace, name).tobytes())
    assert block["trace_sha256"] == digest.hexdigest()
    assert capsys.readouterr().err.startswith("pair 0: ratio ")


def test_a_changed_trace_is_the_digest_error(bench_ab, trees, tmp_path):
    controller = trees["change"] / "src" / "nanogrid_ems" / "controller.py"
    text = controller.read_text(encoding="utf-8")
    default = "c_bat_ah: float = 100.0"
    assert text.count(default) == 1
    controller.write_text(text.replace(default, "c_bat_ah: float = 99.0"))
    with pytest.raises(SystemExit, match="error: trace_sha256 differs between calls"):
        bench_ab.interleaved_report(trees, step_args(), tmp_path)


# perfbench/run.py's last JSON line and result file, after a MODE line:
# "write" writes both, "silent" no result file, "fail" exits with status 1.
STUB = """
import json, sys
from pathlib import Path

if MODE == "fail":
    sys.exit("stub failed")
opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))
if MODE == "write":
    results = Path(".perfbench/results")
    results.mkdir(parents=True)
    name = f"{opts['--workload']}-seed{opts['--seed']}-trace{opts['--trace']}.json"
    (results / name).write_text(json.dumps({"environment": {"cpus": 2}}))
metric = {"value": 1.5, "unit": "s"}
print(json.dumps({"correct": True, "failed": 0, "metrics": {"best_wall_s": metric}}))
"""


def stub_checkout(tmp_path, mode):
    run = tmp_path / mode / "perfbench" / "run.py"
    run.parent.mkdir(parents=True)
    run.write_text(f"MODE = {mode!r}\n{STUB}", encoding="utf-8")
    return run.parents[1]


def bench_args():
    return argparse.Namespace(workload="bundled_flc", seed=1, trace=0)


def test_bench_keys_one_workload_and_reads_the_environment(bench_ab, tmp_path):
    result = bench_ab.bench(stub_checkout(tmp_path, "write"), bench_args())
    assert result["metrics"] == {"bundled_flc/best_wall_s": {"value": 1.5, "unit": "s"}}
    assert result["environment"] == {"cpus": 2}
    assert (result["correct"], result["failed"]) == (True, 0)


def test_bench_without_a_result_file_exits(bench_ab, tmp_path):
    with pytest.raises(SystemExit, match="wrote no result file"):
        bench_ab.bench(stub_checkout(tmp_path, "silent"), bench_args())


def test_bench_of_a_failed_run_exits(bench_ab, tmp_path):
    with pytest.raises(SystemExit, match="perfbench failed") as raised:
        bench_ab.bench(stub_checkout(tmp_path, "fail"), bench_args())
    assert "stub failed" in str(raised.value)


def test_the_change_side_leaves_out_what_git_ignores(bench_ab, tmp_path):
    root = tmp_path / "checkout"
    (root / "src").mkdir(parents=True)
    (root / ".gitignore").write_text("__pycache__/\n/.perfbench/\n")
    (root / "src" / "kept.py").write_text("a = 1\n")
    (root / "src" / "deleted.py").write_text("b = 2\n")
    subprocess.run(["git", "init", "-q", str(root)], check=True)
    subprocess.run(["git", "-C", str(root), "add", "-A"], check=True)
    (root / "src" / "kept.py").write_text("a = 3\n")
    (root / "src" / "deleted.py").unlink()
    (root / "src" / "untracked.py").write_text("c = 4\n")
    (root / "src" / "__pycache__").mkdir()
    (root / "src" / "__pycache__" / "kept.cpython-311.pyc").write_bytes(b"stale")
    (root / ".perfbench" / "results").mkdir(parents=True)
    (root / ".perfbench" / "results" / "old.json").write_text("{}")
    copy = bench_ab.snapshot(root, tmp_path / "change")
    files = sorted(p.relative_to(copy).as_posix() for p in copy.rglob("*") if p.is_file())
    assert files == [".gitignore", "src/kept.py", "src/untracked.py"]
    assert (copy / "src" / "kept.py").read_text() == "a = 3\n"
