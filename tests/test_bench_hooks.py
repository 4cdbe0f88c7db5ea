"""The benchmark's traced run still sees every layer of the simulator.

``perfbench/tracing.py`` wraps public functions where their callers look
them up.  If a refactor drops one of those names or calls around it, the
traced counts stop matching the simulated steps; this test runs a short
custom scenario through that tracer and checks the counts.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_run_counts_every_step(tmp_path):
    tracing = load_tracing()
    (tmp_path / "pv.csv").write_text("t_s,power_w\n0,2230\n60,2230\n")
    (tmp_path / "load.csv").write_text("t_s,power_w\n0,100\n60,100\n")
    cfg = tmp_path / "hooks.cfg"
    cfg.write_text(
        "name = hooks\npv_profile = pv.csv\nload_profile = load.csv\n"
        "soc_init_pct = 60\nduration_s = 60\n"
    )
    with tracing.TracedRun() as run:
        assert tracing.cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    metrics = run.metrics()
    assert run.count_problems(metrics) == []
    assert metrics["engine.steps"] == 60
    assert metrics["fuzzy.infer_calls"] == 120
