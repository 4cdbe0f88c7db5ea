"""The benchmark's traced run still sees every layer of the simulator.

``perfbench/tracing.py`` wraps public functions where their callers look
them up.  If a refactor drops one of those names or calls around it, the
traced counts stop matching the simulated steps; this test runs a short
custom scenario through that tracer and checks the counts.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def hooks_scenario(write_scenario):
    """A 60-step scenario with its two profiles."""
    return write_scenario(
        "hooks",
        ["0,2230", "60,2230"],
        ["0,100", "60,100"],
        "soc_init_pct = 60",
        "duration_s = 60",
    )


def test_traced_run_counts_every_step(hooks_scenario, tmp_path):
    tracing = load_tracing()
    with tracing.TracedRun() as run:
        argv = ["run", str(hooks_scenario), "--out", str(tmp_path / "out")]
        assert tracing.cli.main(argv) == 0
    metrics = run.metrics()
    assert run.count_problems(metrics) == []
    assert metrics["engine.steps"] == 60
    assert metrics["fuzzy.infer_calls"] == 120


def test_traced_compare_parses_each_profile_once(hooks_scenario, tmp_path):
    tracing = load_tracing()
    with tracing.TracedRun() as run:
        argv = ["compare", str(hooks_scenario), "--out", str(tmp_path / "out")]
        assert tracing.cli.main(argv) == 0
    metrics = run.metrics()
    assert run.count_problems(metrics) == []
    assert metrics["profiles.load_profile_calls"] == 2
    assert metrics["profiles.rows_parsed_per_distinct_row"] == 1.0
    assert metrics["engine.steps"] == 120
    # Only the fuzzy run of the two calls infer, twice a step.
    assert metrics["fuzzy.infer_calls"] == 120
