import io
import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import nanogrid_ems
from nanogrid_ems import __version__
from nanogrid_ems.cli import main
from nanogrid_ems.controller import CONTROLLER_KINDS
from nanogrid_ems.profiles import data_dir

from fis_dump import parse_fuzzy_systems


def child_env(environ):
    """``environ`` with this checkout's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(nanogrid_ems.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, environ.get("PYTHONPATH")]))
    return {**environ, "PYTHONPATH": path}


def one_error_line(err):
    """The one line of ``err``, which starts ``error: ``; no traceback precedes it."""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ")
    assert "Traceback" not in err
    return lines[0]


@pytest.fixture
def tiny_scenario(write_scenario):
    """Short scenario: large PV surplus into a small load at mid SOC."""
    return write_scenario(
        "tiny",
        ["0,2230", "600,2230"],
        ["0,100", "600,100"],
        "soc_init_pct = 60",
        "duration_s = 600",
    )


@pytest.fixture
def dead_scenario(write_scenario):
    # Both profiles read the one all-zero file.
    return write_scenario(
        "dead", ["0,0", "600,0"], "pv.csv", "soc_init_pct = 60", "duration_s = 600"
    )


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
def test_soc_clamps_print_nothing_on_stderr(
    tmp_path, write_scenario, load_rows, status, err
):
    # A child process has the real stderr: in-process, pytest's log capture
    # would hide clamp records that Python's last-resort handler prints.
    cfg = write_scenario(
        "empty", ["0,0", "60,0"], load_rows, "soc_init_pct = 0", "duration_s = 60"
    )
    argv = ["run", str(cfg), "--out", str(tmp_path / "out")]
    child = subprocess.run(
        [sys.executable, "-m", "nanogrid_ems", *argv],
        env=child_env(os.environ),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (child.returncode, child.stderr) == (status, err)


@pytest.mark.parametrize("command", ["run", "compare"])
@pytest.mark.parametrize("stdout", ["full", "broken_pipe", "closed"])
def test_failing_stdout_is_one_error_line(tiny_scenario, tmp_path, command, stdout):
    # With PYTHONUNBUFFERED unset, as by default, the summary waits in
    # stdout's buffer, so a full disk or a closed pipe fails at the flush;
    # a closed stdout is None in the child.
    env = child_env({k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"})
    argv = [sys.executable, "-m", "nanogrid_ems", command, str(tiny_scenario)]
    argv += ["--out", str(tmp_path / "out")]
    run = partial(
        subprocess.run, env=env, stderr=subprocess.PIPE, text=True, timeout=120
    )
    if stdout == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            child = run(argv, stdout=full)
    elif stdout == "broken_pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            child = run(argv, stdout=write)
        finally:
            os.close(write)
    else:
        child = run(["sh", "-c", 'exec "$@" >&-', "sh", *argv])
    assert child.returncode == 1, child.stderr
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1


def test_run_missing_profile_names_path(tmp_path, write_scenario, capsys):
    # A reference to nothing, then one to a directory: open() raises for both.
    (tmp_path / "profiles").mkdir()
    for ref in ("missing.csv", "profiles"):
        cfg = write_scenario("broken", ref, ref, "soc_init_pct = 50")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert str(tmp_path / ref) in one_error_line(capsys.readouterr().err)


def test_nan_in_profile_is_one_error_line(tmp_path, write_scenario, capsys):
    cfg = write_scenario(
        "nan",
        ["0,2230", "300,nan", "600,2230"],
        ["0,100", "600,100"],
        "soc_init_pct = 60",
        "duration_s = 600",
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    assert "non-finite" in one_error_line(capsys.readouterr().err)
    assert not out.exists()


def test_late_bad_profile_row_is_one_error_line(tmp_path, write_scenario, capsys):
    # numpy's reader refuses the file; the line loop names the row.
    rows = [f"{i / 1000},100" for i in range(100_000)]
    rows[89_999] = "89.999,1e"  # line 1 is the header
    cfg = write_scenario(
        "late", ["0,2230", "600,2230"], rows, "soc_init_pct = 60", "duration_s = 600"
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
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
    assert "must be finite" in one_error_line(capsys.readouterr().err)


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
        # A shift step of 0 on a guard's sample grid: its large term had no
        # mass, and the error named no config value.
        ("params.p_aux_rating_w = 1e-318", "d_omega_minus_max = 7.4e-323 outside"),
        # Bounds below omega_nom whose guards' sampled centroid sums overflow:
        # the run exited 0 with a constant shift of 0 and no curtailment.
        (
            "params.omega_nom_rad_s = 1e308\nparams.m_pv_rad_s_per_w = 1e303",
            "d_omega_plus_max = 2.23e+306 outside",
        ),
        (
            "params.omega_nom_rad_s = 1e308\nparams.m_aux_rad_s_per_w = 2e303",
            "d_omega_minus_max = 2e+306 outside",
        ),
        # A bound inside the range whose sum with omega_nom overflows: from SOC
        # 94.9 the run went through with omega = inf, and summarize named no
        # config value.
        (
            "params.omega_nom_rad_s = 1.7976931348623157e308\n"
            "params.m_pv_rad_s_per_w = 5e301",
            "d_omega_plus_max = 1.115e+305 overflows omega_nom_rad_s",
        ),
    ],
)
def test_extreme_plant_value_is_one_error_line(
    tmp_path, write_scenario, line, reason, capsys
):
    """60 s over the bundled profiles: each value broke a guard or the SOC.

    The plant rules do not depend on the controller, so both give the line.
    """
    data = data_dir()
    cfg = write_scenario(
        "plant",
        data / "pv_clear_day.csv",
        data / "load_residential.csv",
        "soc_init_pct = 50",
        "duration_s = 60",
        line,
    )
    out = tmp_path / "out"
    for controller in CONTROLLER_KINDS:
        argv = ["run", str(cfg), "--out", str(out), "--controller", controller]
        assert main(argv) == 1, controller
        assert reason in one_error_line(capsys.readouterr().err), controller
        assert not out.exists()


def test_tiny_shift_bound_runs(tmp_path, write_scenario, capsys):
    # The overcharge guard's output spans 7.5e-15 rad/s; an absolute
    # empty-aggregate threshold called every aggregate on it empty.
    data = data_dir()
    cfg = write_scenario(
        "plant",
        data / "pv_clear_day.csv",
        data / "load_residential.csv",
        "soc_init_pct = 50",
        "duration_s = 60",
        "params.p_pv_rating_w = 1e-10",
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


def test_overflowing_energy_total_is_one_error_line(tmp_path, write_scenario, capsys):
    # The turbine exactly carries a load of 2**1020 W, so the battery idles
    # while the aux energy sum overflows after 16 steps.
    big = repr(2.0**1020)
    cfg = write_scenario(
        "big",
        ["0,0", "60,0"],
        [f"0,{big}", f"60,{big}"],
        "soc_init_pct = 0",
        "duration_s = 20",
        "controller = proportional",
        f"params.p_aux_rating_w = {big}",
        f"params.m_aux_rad_s_per_w = {2.0**-1030!r}",
    )
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: aux_energy_wh must be finite, got inf\n"
    assert captured.out == ""


def test_overflowing_load_multiplier_is_one_error_line(
    tmp_path, write_scenario, capsys
):
    # 2 W times the largest float overflowed in numpy's multiply, which
    # printed a RuntimeWarning before the battery's error line.
    cfg = write_scenario(
        "scaled",
        ["0,0", "60,0"],
        ["0,2", "60,1"],
        "load_multiplier = 1.7976931348623157e308",
        "soc_init_pct = 0",
        "duration_s = 1",
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 1
    line = one_error_line(capsys.readouterr().err)
    assert line.startswith("error: load_multiplier = ")
    assert not out.exists()


@pytest.mark.parametrize("bad_file", ["tiny.cfg", "pv.csv"])
def test_invalid_utf8_is_one_error_line(tiny_scenario, tmp_path, bad_file, capsys):
    path = tmp_path / bad_file
    rows = path.read_bytes().split(b"\n")
    # The config's name line, or the profile's second row.
    rows[0 if bad_file == "tiny.cfg" else 2] += b"\xff"
    path.write_bytes(b"\n".join(rows))
    assert main(["run", str(tiny_scenario), "--out", str(tmp_path / "out")]) == 1
    assert f"{bad_file}: not valid UTF-8" in one_error_line(capsys.readouterr().err)


def test_run_missing_scenario(tmp_path, capsys):
    # A path whose last component is a bundled name is still a path.
    for name in ("nope.cfg", "scenario1_high_soc"):
        assert main(["run", str(tmp_path / name), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert name in err
        assert str(tmp_path / name) in one_error_line(err)


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


@pytest.mark.parametrize(
    "column,cells",
    [
        ("load", {"p_load_w": "0", "p_bat_w": "0"}),
        ("pv", {"p_pv_avail_w": "0", "p_pv_w": "0"}),
    ],
    ids=["load", "pv"],
)
def test_undershooting_sample_writes_no_negative_power(
    tmp_path, write_scenario, capsys, undershoot, column, cells
):
    profile, t_s = undershoot
    pairs = zip(profile.t_s.tolist(), profile.power_w.tolist())
    rows = [f"{t!r},{p!r}" for t, p in pairs]
    flat = "0" if column == "load" else "100"
    flat_rows = [f"0,{flat}", f"400,{flat}"]
    pv, load = (rows, flat_rows) if column == "pv" else (flat_rows, rows)
    cfg = write_scenario(
        "u",
        pv,
        load,
        "soc_init_pct = 60",
        "controller = proportional",
        f"dt_s = {t_s!r}",
        "duration_s = 380",
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()
    assert {"max_charge_w = 0", "charging_fraction = 0"} <= set(summary)
    # Line 2 is the step at t_s, where np.interp alone undershoots.
    header, _, step = (out / "u_proportional_trace.csv").read_text().splitlines()[:3]
    row = dict(zip(header.split(","), step.split(",")))
    assert {key: row[key] for key in cells} == cells


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
