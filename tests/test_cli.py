import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nanogrid_ems
from nanogrid_ems import __version__
from nanogrid_ems.cli import main
from nanogrid_ems.profiles import data_dir

from fis_dump import parse_fuzzy_systems


def write_profile(path, rows):
    path.write_text("t_s,power_w\n" + "\n".join(rows) + "\n")


@pytest.fixture
def tiny_scenario(tmp_path):
    """Short scenario: large PV surplus into a small load at mid SOC."""
    write_profile(tmp_path / "pv.csv", ["0,2230", "600,2230"])
    write_profile(tmp_path / "load.csv", ["0,100", "600,100"])
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "name = tiny\npv_profile = pv.csv\nload_profile = load.csv\n"
        "soc_init_pct = 60\nduration_s = 600\n"
    )
    return cfg


@pytest.fixture
def dead_scenario(tmp_path):
    write_profile(tmp_path / "zero.csv", ["0,0", "600,0"])
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(
        "name = dead\npv_profile = zero.csv\nload_profile = zero.csv\n"
        "soc_init_pct = 60\nduration_s = 600\n"
    )
    return cfg


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_run_writes_outputs_and_prints_summary(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(tiny_scenario), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "max_charge_w" in captured.out
    assert captured.err == ""
    assert (out / "tiny_flc_trace.csv").exists()
    assert (out / "tiny_flc_summary.txt").exists()


@pytest.mark.parametrize(
    "load_rows,status,err",
    [
        # 11 steps clamp the SOC at 0, then 9000 W overloads the battery.
        (
            ["0,2000", "10,2000", "11,9000", "60,9000"],
            1,
            "error: battery asked for -8000 W (limit 4000 W)\n",
        ),
        # Every one of the 60 steps clamps the SOC at 0.
        (["0,1500", "60,1500"], 0, ""),
    ],
)
def test_soc_clamps_print_nothing_on_stderr(tmp_path, load_rows, status, err):
    # A child process has the real stderr: in-process, pytest's log capture
    # would hide clamp records that Python's last-resort handler prints.
    write_profile(tmp_path / "pv.csv", ["0,0", "60,0"])
    write_profile(tmp_path / "load.csv", load_rows)
    cfg = tmp_path / "empty.cfg"
    cfg.write_text(
        "name = empty\npv_profile = pv.csv\nload_profile = load.csv\n"
        "soc_init_pct = 0\nduration_s = 60\n"
    )
    src = str(Path(nanogrid_ems.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["run", str(cfg), "--out", str(tmp_path / "out")]
    child = subprocess.run(
        [sys.executable, "-m", "nanogrid_ems", *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (child.returncode, child.stderr) == (status, err)


def test_run_missing_profile_names_path(tmp_path, capsys):
    # A reference to nothing, then one to a directory: open() raises for both.
    (tmp_path / "profiles").mkdir()
    for ref in ("missing.csv", "profiles"):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text(f"pv_profile = {ref}\nload_profile = {ref}\nsoc_init_pct = 50\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and str(tmp_path / ref) in lines[0]


def test_nan_in_profile_is_one_error_line(tmp_path, capsys):
    write_profile(tmp_path / "pv.csv", ["0,2230", "300,nan", "600,2230"])
    write_profile(tmp_path / "load.csv", ["0,100", "600,100"])
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(
        "name = nan\npv_profile = pv.csv\nload_profile = load.csv\n"
        "soc_init_pct = 60\nduration_s = 600\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "non-finite" in lines[0]
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_late_bad_profile_row_is_one_error_line(tiny_scenario, tmp_path, capsys):
    # numpy's reader refuses the file; the line loop names the row.
    rows = [f"{i / 1000},100" for i in range(100_000)]
    rows[89_999] = "89.999,1e"  # line 1 is the header
    write_profile(tmp_path / "load.csv", rows)
    assert main(["run", str(tiny_scenario), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: line 90001: {tmp_path / 'load.csv'}: "
        "could not convert string to float: '1e'\n"
    )


@pytest.mark.parametrize(
    "line",
    [
        "params.c_bat_ah = inf",
        "params.m_pv_rad_s_per_w = nan",
        "params.p_aux_rating_w = inf",
        "duration_s = inf",
        "duration_s = nan",
    ],
)
def test_non_finite_config_value_is_one_error_line(
    tiny_scenario, tmp_path, line, capsys
):
    tiny_scenario.write_text(
        tiny_scenario.read_text().replace("duration_s = 600\n", "") + line + "\n"
    )
    assert main(["run", str(tiny_scenario), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and "must be finite" in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "line,reason",
    [
        ("params.p_pv_rating_w = 1e-320", "d_omega_plus_max = 0.0 outside"),
        ("params.p_aux_rating_w = 1e-320", "d_omega_minus_max = 0.0 outside"),
        ("params.m_pv_rad_s_per_w = 1.7e308", "d_omega_plus_max = inf outside"),
        ("params.m_aux_rad_s_per_w = 1.7e308", "d_omega_minus_max = inf outside"),
        ("params.c_bat_ah = 1e-30", "dt_s = 1.0 lets one step"),
        ("params.c_bat_ah = 1e-200\nparams.v_bat_v = 1e-200", "e_bat_wh = 0.0 must"),
        ("params.c_bat_ah = 1e200\nparams.v_bat_v = 1e200", "e_bat_wh = inf must"),
        ("params.v_bat_v = 1e-30", "dt_s = 1.0 lets one step"),
        ("params.v_bat_v = 1e-300", "dt_s = 1.0 lets one step"),
        ("params.soc_max_pct = 1e300", "SOC thresholds"),
        ("params.soc_min_pct = -5", "SOC thresholds"),
        # Bounds below omega_nom whose guards' sampled centroid sums overflow:
        # the run exited 0 with a constant shift of 0 and no curtailment.
        (
            "params.omega_nom_rad_s = 1e308\nparams.m_pv_rad_s_per_w = 1e303",
            "d_omega_plus_max = 2.23e+306 gives overcharge_guard",
        ),
        (
            "params.omega_nom_rad_s = 1e308\nparams.m_aux_rad_s_per_w = 2e303",
            "d_omega_minus_max = 2e+306 gives depletion_guard",
        ),
    ],
)
def test_extreme_plant_value_is_one_error_line(tmp_path, line, reason, capsys):
    """60 s over the bundled profiles: each value broke a guard or the SOC."""
    data = data_dir()
    cfg = tmp_path / "plant.cfg"
    cfg.write_text(
        f"name = plant\npv_profile = {data / 'pv_clear_day.csv'}\n"
        f"load_profile = {data / 'load_residential.csv'}\n"
        f"soc_init_pct = 50\nduration_s = 60\n{line}\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and reason in lines[0]
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_tiny_shift_bound_runs(tmp_path, capsys):
    # The overcharge guard's output spans 7.5e-15 rad/s; an absolute
    # empty-aggregate threshold called every aggregate on it empty.
    data = data_dir()
    cfg = tmp_path / "plant.cfg"
    cfg.write_text(
        f"name = plant\npv_profile = {data / 'pv_clear_day.csv'}\n"
        f"load_profile = {data / 'load_residential.csv'}\n"
        "soc_init_pct = 50\nduration_s = 60\nparams.p_pv_rating_w = 1e-10\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    summary = dict(line.split(" = ") for line in captured.out.splitlines())
    assert all(math.isfinite(float(value)) for value in summary.values())
    assert float(summary["curtailed_energy_wh"]) == 0.0


@pytest.mark.parametrize("name", ["a\x00b", "{tmp}/fz", "../fz"])
def test_name_outside_the_output_directory_is_one_error_line(
    tiny_scenario, tmp_path, name, capsys
):
    # A NUL ended in a ValueError traceback from open(); a '/' put the
    # files outside the output directory.
    name = name.format(tmp=tmp_path)
    tiny_scenario.write_text(
        tiny_scenario.read_text().replace("name = tiny", f"name = {name}")
    )
    out = tmp_path / "run" / "out"
    assert main(["run", str(tiny_scenario), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: name {name!r} must not hold '/' or NUL\n"
    assert not out.exists()


def test_overflowing_energy_total_is_one_error_line(tmp_path, capsys):
    # The turbine exactly carries a load of 2**1020 W, so the battery idles
    # while the aux energy sum overflows after 16 steps.
    big = repr(2.0**1020)
    write_profile(tmp_path / "zero.csv", ["0,0", "60,0"])
    write_profile(tmp_path / "big.csv", [f"0,{big}", f"60,{big}"])
    cfg = tmp_path / "big.cfg"
    cfg.write_text(
        "name = big\npv_profile = zero.csv\nload_profile = big.csv\n"
        "soc_init_pct = 0\nduration_s = 20\ncontroller = proportional\n"
        f"params.p_aux_rating_w = {big}\nparams.m_aux_rad_s_per_w = {2.0**-1030!r}\n"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: aux_energy_wh must be finite, got inf\n"
    assert captured.out == ""


def test_overflowing_load_multiplier_is_one_error_line(tmp_path, capsys):
    # 2 W times the largest float overflowed in numpy's multiply, which
    # printed a RuntimeWarning before the battery's error line.
    write_profile(tmp_path / "pv.csv", ["0,0", "60,0"])
    write_profile(tmp_path / "load.csv", ["0,2", "60,1"])
    cfg = tmp_path / "scaled.cfg"
    cfg.write_text(
        "name = scaled\npv_profile = pv.csv\nload_profile = load.csv\n"
        "load_multiplier = 1.7976931348623157e308\nsoc_init_pct = 0\nduration_s = 1\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: load_multiplier = ")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("bad_file", ["tiny.cfg", "pv.csv"])
def test_invalid_utf8_is_one_error_line(tiny_scenario, tmp_path, bad_file, capsys):
    path = tmp_path / bad_file
    rows = path.read_bytes().split(b"\n")
    # The config's name line, or the profile's second row.
    rows[0 if bad_file == "tiny.cfg" else 2] += b"\xff"
    path.write_bytes(b"\n".join(rows))
    assert main(["run", str(tiny_scenario), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and f"{bad_file}: not valid UTF-8" in lines[0]
    assert "Traceback" not in captured.err


def test_run_missing_scenario(tmp_path, capsys):
    # A path whose last component is a bundled name is still a path.
    for name in ("nope.cfg", "scenario1_high_soc"):
        assert main(["run", str(tmp_path / name), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert name in err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(tmp_path / name) in lines[0]


def test_proportional_override_exposes_violations(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["run", str(tiny_scenario), "--out", str(out), "--controller", "proportional"]
    )
    assert code == 0
    summary = capsys.readouterr().out
    violations = int(
        next(l for l in summary.splitlines() if l.startswith("violations_charge"))
        .split("=")[1]
    )
    assert violations > 0
    assert (out / "tiny_proportional_trace.csv").exists()


def test_compare_dead_network_all_zero_summaries(dead_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", str(dead_scenario), "--out", str(out)]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].startswith("controller")
    assert len(table) == 3
    # No energy moves under either controller; only the frequency extrema
    # (pure controller bias with nothing to act on) may differ.
    zero_fields = (
        "max_charge_w",
        "max_discharge_w",
        "curtailed_energy_wh",
        "aux_energy_wh",
        "charging_fraction",
        "violations_charge",
        "violations_discharge",
        "violations_soc_high",
        "violations_soc_low",
    )
    for kind in ("flc", "proportional"):
        text = (out / f"dead_{kind}_summary.txt").read_text()
        values = dict(
            (k.strip(), v.strip()) for k, v in (l.split("=") for l in text.splitlines())
        )
        for field in zero_fields:
            assert float(values[field]) == 0.0


def test_compare_table_layout(dead_scenario, tmp_path, capsys):
    # Each column is as wide as its widest cell, the header included; cells
    # are two spaces apart and no line ends in a space.
    assert main(["compare", str(dead_scenario), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == (
        "controller    violations_charge  violations_discharge  soc_min_pct"
        "  soc_max_pct  max_abs_p_bat_w  charging_fraction\n"
        "flc           0                  0                     60         "
        "  60           0                0\n"
        "proportional  0                  0                     60         "
        "  60           0                0\n"
    )


def test_compare_heavy_load_scenario_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "scenario2_low_soc_4x", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split()
    flc_row = next(l for l in lines[1:] if l.startswith("flc")).split()
    fraction = float(flc_row[header.index("charging_fraction")])
    assert fraction > 0.5


def test_compare_cells_read_as_their_summary_lines(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["compare", "stress_charge", "--out", str(out)]) == 0
    header, *rows = (line.split() for line in capsys.readouterr().out.splitlines())
    assert [row[0] for row in rows] == ["flc", "proportional"]
    for kind, *cells in rows:
        text = (out / f"stress_charge_{kind}_summary.txt").read_text()
        summary = dict(line.split(" = ") for line in text.splitlines())
        peaks = (summary["max_charge_w"], summary["max_discharge_w"])
        summary["max_abs_p_bat_w"] = max(peaks, key=float)
        assert cells == [summary[column] for column in header[1:]]


def test_repeat_run_is_byte_identical(tiny_scenario, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(tiny_scenario), "--out", str(out1)]) == 0
    assert main(["run", str(tiny_scenario), "--out", str(out2)]) == 0
    for name in ("tiny_flc_trace.csv", "tiny_flc_summary.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_dump_fis_round_trip(tmp_path):
    out = tmp_path / "guards.cfg"
    assert main(["dump-fis", "--out", str(out)]) == 0
    systems = parse_fuzzy_systems(out)
    assert len(systems) == 2
    assert {s.name for s in systems} == {"overcharge_guard", "depletion_guard"}
    again = tmp_path / "again.cfg"
    assert main(["dump-fis", "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_dump_fis_unwritable_path(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("not a directory")
    assert main(["dump-fis", "--out", str(blocker / "sub" / "x.cfg")]) == 1
    assert "error" in capsys.readouterr().err
