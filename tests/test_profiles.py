import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import nanogrid_ems
from hypothesis import given, settings
from hypothesis import strategies as st

from nanogrid_ems.controller import FuzzyEms, NanogridParams
from nanogrid_ems.engine import (
    TRACE_FIELDS,
    Profile,
    Scenario,
    SummaryMetrics,
    Trace,
)
from nanogrid_ems.errors import (
    ParseError,
    ProfileOutOfRange,
    ValidationError,
)
from nanogrid_ems import profiles
from nanogrid_ems.profiles import (
    BLOCK_ROWS,
    load_profile,
    load_scenario,
    parse_scenario,
    render_fuzzy_systems,
    render_trace,
    write_outputs,
)

import reference_seed
from fis_dump import parse_fuzzy_systems, render_scenario
from trace_rows import Row, trace_of


def profile_text(rows):
    return "t_s,power_w\n" + "\n".join(rows) + "\n"


@pytest.fixture
def text_file(tmp_path):
    """Write text to a file under ``tmp_path`` and give its path."""

    def write(text):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        return path

    return write


def sample_at(profile, t_s):
    """The profile's value at one time, sampled as a run of duration ``t_s`` does."""
    return float(profile.sample(np.array([t_s]), t_s)[0])


class TestLoadProfile:
    def test_two_rows(self, text_file):
        profile = load_profile(text_file(profile_text(["0,0", "3600,500"])))
        assert profile.t_s.tolist() == [0.0, 3600.0]
        assert profile.power_w.tolist() == [0.0, 500.0]

    def test_out_of_order_times_rejected(self, text_file):
        with pytest.raises(ValidationError):
            load_profile(text_file(profile_text(["3600,500", "0,0"])))

    def test_header_only_rejected(self, text_file):
        with pytest.raises(ValidationError):
            load_profile(text_file("t_s,power_w\n"))

    def test_wrong_header_rejected(self, text_file):
        with pytest.raises(ParseError):
            load_profile(text_file("time,watts\n0,0\n10,1\n"))

    def test_bad_row_reports_line_number(self, text_file):
        with pytest.raises(ParseError, match="line 3"):
            load_profile(text_file(profile_text(["0,0", "60,1,2"])))

    def test_non_numeric_rejected(self, text_file):
        with pytest.raises(ParseError):
            load_profile(text_file(profile_text(["0,zero", "60,1"])))

    def test_negative_power_rejected(self, text_file):
        with pytest.raises(ValidationError):
            load_profile(text_file(profile_text(["0,-5", "60,1"])))

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,0", "60,nan", "120,1"],
            ["0,0", "60,inf"],
            ["0,0", "nan,1", "120,1"],
            ["-inf,0", "60,1"],
        ],
    )
    def test_non_finite_values_rejected(self, text_file, rows):
        with pytest.raises(ValidationError, match="non-finite"):
            load_profile(text_file(profile_text(rows)))

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_only_cr_and_lf_end_a_line(self, tmp_path, separator):
        path = tmp_path / "p.csv"
        path.write_text(f"t_s,power_w\n0,1{separator}60,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: .*expected 2 fields, got 3"):
            load_profile(path)


class TestNumpyReaderFallback:
    """Rows numpy's reader refuses (or might misread) go through the line loop."""

    def test_plain_rows_skip_the_line_loop(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(profile_text(["0,1", "60,2.5", "120,-0.0"]), encoding="utf-8")
        with mock.patch.object(profiles, "_parse_rows", side_effect=AssertionError):
            profile = load_profile(path)
        assert profile.t_s.tolist() == [0.0, 60.0, 120.0]
        assert profile.power_w.tobytes() == np.array([1.0, 2.5, -0.0]).tobytes()

    def test_late_bad_row_names_its_line(self, tmp_path):
        rows = [f"{i},1" for i in range(100_000)]
        rows[89_999] = "89999,x"  # line 1 is the header
        path = tmp_path / "long.csv"
        path.write_text(profile_text(rows), encoding="utf-8")
        with pytest.raises(ParseError, match="^line 90001: .*long.csv: could not"):
            load_profile(path)

    @pytest.mark.parametrize("rows", [[], ["0,1"]])
    def test_too_few_rows_is_a_validation_error(self, tmp_path, rows):
        # numpy warns on an empty body; no warning may escape, as the CLI
        # would print it.
        path = tmp_path / "short.csv"
        path.write_text(profile_text(rows), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValidationError, match="needs at least 2 samples"):
                load_profile(path)
        assert caught == []

    def test_three_fields_on_every_row(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text(profile_text(["0,1,2", "60,1,2"]), encoding="utf-8")
        with pytest.raises(ParseError, match="^line 2: .*expected 2 fields, got 3$"):
            load_profile(path)

    @pytest.mark.parametrize("space", ["\x1c", "\x1d", "\x1e", "\x1f"])
    def test_space_that_float_rejects(self, tmp_path, space):
        # numpy's reader strips these around a number; float() does not.
        path = tmp_path / "sep.csv"
        path.write_text(profile_text(["0,1", f"60,{space}2"]), encoding="utf-8")
        with pytest.raises(ParseError, match="^line 3: .*could not convert"):
            load_profile(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    @pytest.mark.parametrize("power", ["2", "1_0"])
    def test_pipe(self, power):
        # A pipe is read once; the line loop reparses the text it gave.
        read_fd, write_fd = os.pipe()
        with open(write_fd, "w", encoding="utf-8") as writer:
            writer.write(profile_text(["0,1", f"60,{power}"]))
        try:
            profile = load_profile(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        assert profile.power_w.tolist() == [1.0, float(power)]

    def test_underscore_and_blank_rows_accepted(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_text(profile_text(["0,1_0", "  ", "6_0,\u0661"]), encoding="utf-8")
        profile = load_profile(path)
        assert profile.t_s.tolist() == [0.0, 60.0]
        assert profile.power_w.tolist() == [10.0, 1.0]


class TestNumpyReaderRoute:
    """numpy reads a regular file by its path; the line loop parses every
    other source."""

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compression_suffix(self, tmp_path, suffix):
        # numpy would decompress a path by these suffixes, and fail on text.
        text = profile_text(["0,1", "60,2.5", "120,3"])
        (tmp_path / "p.csv").write_text(text, encoding="utf-8")
        (tmp_path / f"p{suffix}").write_text(text, encoding="utf-8")
        expected = parse_outcome(load_profile, tmp_path / "p.csv")
        assert parse_outcome(load_profile, tmp_path / f"p{suffix}") == expected

    def test_suffixes_cover_what_numpy_decompresses(self):
        openers = np.lib._datasource._file_openers.keys()
        assert {s for s in openers if s} <= set(profiles._NUMPY_DECOMPRESSES)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
    def test_fifo_filled_once(self, tmp_path):
        # A FIFO gives its text once: a second open would wait for a writer
        # forever, so the load runs in a child that a timeout ends.
        fifo = tmp_path / "p.csv"
        os.mkfifo(fifo)
        script = (
            "import json, sys, threading\n"
            "from nanogrid_ems.profiles import load_profile\n"
            "def fill():\n"
            "    with open(sys.argv[1], 'w', encoding='utf-8') as writer:\n"
            "        writer.write(sys.argv[2])\n"
            "threading.Thread(target=fill, daemon=True).start()\n"
            "profile = load_profile(sys.argv[1])\n"
            "print(json.dumps([profile.t_s.tolist(), profile.power_w.tolist()]))\n"
        )
        src = str(Path(nanogrid_ems.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        child = subprocess.run(
            [sys.executable, "-c", script, str(fifo), profile_text(["0,1", "60,2"])],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (child.returncode, child.stderr) == (0, "")
        assert json.loads(child.stdout) == [[0.0, 60.0], [1.0, 2.0]]

    def test_regular_file_is_read_by_path(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(profile_text(["0,1", "60,2"]), encoding="utf-8")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
            profile = load_profile(path)
        (source,) = spy.call_args.args
        assert isinstance(source, str) and Path(source) == path
        assert profile.power_w.tolist() == [1.0, 2.0]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_pipe_is_read_by_the_line_loop(self):
        read_fd, write_fd = os.pipe()
        with open(write_fd, "w", encoding="utf-8") as writer:
            writer.write(profile_text(["0,1", "60,2"]))
        try:
            with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
                profile = load_profile(f"/dev/fd/{read_fd}")
        finally:
            os.close(read_fd)
        spy.assert_not_called()
        assert profile.power_w.tolist() == [1.0, 2.0]

    def test_relative_path_that_parses_as_a_url(self, tmp_path, monkeypatch):
        # http://host/p.csv is also the relative path http:/host/p.csv; numpy
        # would fetch a str that parses as a URL.
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "p.csv").write_text(
            profile_text(["0,1", "60,2"]), encoding="utf-8"
        )
        monkeypatch.chdir(tmp_path)
        is_url = np.lib._datasource.DataSource(str(tmp_path))._isurl
        loadtxt = np.loadtxt

        def local_only(source, **kwargs):
            assert not (isinstance(source, str) and is_url(source))
            return loadtxt(source, **kwargs)

        with mock.patch.object(np, "loadtxt", side_effect=local_only) as spy:
            profile = load_profile("http://host/p.csv")
        assert spy.call_count == 1
        assert profile.power_w.tolist() == [1.0, 2.0]


# Spellings of a row's time that float() accepts.
SPELLINGS = (
    "{}", " {} ", "\t{}", "+{}", "{}.0", "{}e0", "{}_0e-1", "0{}", "\xa0{}\xa0",
)
# Whitespace that float() strips but str.splitlines (the seed parser's line
# split) breaks a line at, so only the numpy-against-loop test draws them.
LINE_BREAK_SPACES = ("\x0c{}", "{}\x85", "\u2028{}", "\x1c{} ")
POWERS = ("-1", "nan", "1e3", ".5", "5.", "1_0", "\u0661", "-0.0", "1e400", "Infinity")
BAD_TOKENS = (
    "", " ", "abc", "1..2", "0x10", "1,5", "\u0661x", "--1", "1e", "#", "#1", "1\x00",
)
BLANK_ROWS = ("", " ", "\t", "  \t ")
WRONG_FIELDS = ("1", "1,2,3", ",", "1,2,", ",,")


@st.composite
def profile_texts(draw, spellings=SPELLINGS):
    """Profile text with mixed line ends, blank rows, spellings and bad rows."""
    header = draw(
        st.sampled_from(["t_s,power_w"] * 4 + [" t_s,power_w\t", "t_s;power_w", ""])
    )
    kinds = ["row"] * 20 + ["blank"] * 4 + ["bad", "fields"]
    rows, t = [], 0
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=12)):
        if kind == "row":
            t += draw(st.sampled_from([1] * 9 + [0]))  # a repeated time is invalid
            power = draw(
                st.one_of(
                    st.floats(0.0, 5000.0).map(repr),
                    st.floats(0.0, 5000.0).map(lambda v: f"{v:.3f}"),
                    st.sampled_from(POWERS),
                )
            )
            rows.append(draw(st.sampled_from(spellings)).format(t) + "," + power)
        elif kind == "blank":
            rows.append(draw(st.sampled_from(BLANK_ROWS)))
        elif kind == "bad":
            bad = draw(st.sampled_from(BAD_TOKENS))
            rows.append(draw(st.sampled_from([f"{t},{bad}", f"{bad},1"])))
        else:
            rows.append(draw(st.sampled_from(WRONG_FIELDS)))
    ends = draw(
        st.lists(
            st.sampled_from(["\n", "\r\n", "\r"]),
            min_size=len(rows) + 1,
            max_size=len(rows) + 1,
        )
    )
    text = "".join(line + end for line, end in zip([header, *rows], ends))
    return text if draw(st.booleans()) else text[: -len(ends[-1])]


def parse_outcome(parse, path):
    """(name, bytes of times, bytes of powers) of a parsed profile, or
    (error type, message)."""
    try:
        profile = parse(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return profile.name, profile.t_s.tobytes(), profile.power_w.tobytes()


class TestInvalidUtf8:
    # The second case puts the bad byte a few chunks into a long profile.
    @pytest.mark.parametrize("rows", [1, 20_000])
    @pytest.mark.parametrize("reader", [load_profile, parse_scenario, parse_fuzzy_systems])
    def test_parse_error_names_the_file(self, tmp_path, reader, rows):
        path = tmp_path / "latin1.txt"
        text = profile_text([f"{i},1" for i in range(rows)])
        path.write_bytes(text.encode() + b"60,\xff\n")
        with pytest.raises(ParseError, match="latin1.txt: not valid UTF-8"):
            reader(path)

    def test_invalid_byte_wins_over_an_earlier_bad_row(self, tmp_path):
        # The body is decoded whole before a row is parsed, as in the seed
        # parser, so a bad byte past line 100 000 beats a bad line 3.
        path = tmp_path / "late.csv"
        rows = [f"{i},1" for i in range(100_000)]
        rows[1] = "1,x"
        path.write_bytes(profile_text(rows).encode() + b"100000,\xff\n")
        with pytest.raises(ParseError, match="late.csv: not valid UTF-8"):
            load_profile(path)

    def test_encoded_lone_surrogate(self, tmp_path):
        # The three bytes that would encode U+D800; strict UTF-8 refuses them.
        path = tmp_path / "surrogate.csv"
        path.write_bytes(profile_text(["0,1"]).encode() + b"60,\xed\xa0\x80\n")
        with pytest.raises(ParseError, match="surrogate.csv: not valid UTF-8"):
            load_profile(path)


def line_loop_only(path):
    """load_profile with numpy's reader refusing every body."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError("refused")):
        return load_profile(path)


class TestStreamedParseMatchesSeed:
    """load_profile gives the seed parser's arrays, bit for bit, or its error."""

    @settings(max_examples=300, deadline=None)
    @given(profile_texts())
    def test_same_arrays_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "generated.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = parse_outcome(reference_seed.load_profile, path)
            assert parse_outcome(load_profile, path) == expected

    @settings(max_examples=300, deadline=None)
    @given(profile_texts(SPELLINGS + LINE_BREAK_SPACES))
    def test_numpy_reader_matches_the_line_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "generated.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = parse_outcome(line_loop_only, path)
            assert parse_outcome(load_profile, path) == expected


@pytest.fixture(scope="module")
def long_rows():
    """200 000 rows of 8 to 25 characters, so read chunks end anywhere in a row."""
    rng = np.random.Generator(np.random.PCG64(12))
    n = 200_000
    scale = 10.0 ** rng.integers(0, 13, n)
    powers = np.round(rng.uniform(0, 3000, n) * scale) / scale
    rows = [f"{t / 10},{p!r}" for t, p in enumerate(powers.tolist())]
    return rows, np.arange(n) / 10, powers


class TestLongProfileMatchesSeed:
    """A profile longer than numpy's read chunk parses as the line loop and
    the seed parser parse it, whatever ends its lines."""

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_same_arrays(self, tmp_path, long_rows, end):
        rows, times, powers = long_rows
        path = tmp_path / "long.csv"
        path.write_bytes(end.join(["t_s,power_w", *rows, ""]).encode())
        outcome = parse_outcome(load_profile, path)
        assert outcome[1:] == (times.tobytes(), powers.tobytes())
        assert outcome == parse_outcome(line_loop_only, path)
        assert outcome == parse_outcome(reference_seed.load_profile, path)


class TestSampleProfile:
    @pytest.fixture
    def ramp(self):
        return Profile("ramp", np.array([0.0, 3600.0]), np.array([0.0, 500.0]))

    def test_midpoint_interpolation(self, ramp):
        assert sample_at(ramp, 1800.0) == 250.0

    def test_exact_at_samples(self, ramp):
        assert sample_at(ramp, 0.0) == 0.0
        assert sample_at(ramp, 3600.0) == 500.0

    def test_out_of_range(self, ramp):
        with pytest.raises(ProfileOutOfRange):
            sample_at(ramp, 4000.0)
        # A run starts at t = 0, so a profile starting later cannot cover it.
        late = Profile("late", np.array([1.0, 3600.0]), np.array([0.0, 500.0]))
        with pytest.raises(ProfileOutOfRange):
            sample_at(late, 0.0)

    def test_piecewise_linear_between_samples(self):
        profile = Profile(
            "pw", np.array([0.0, 10.0, 30.0]), np.array([0.0, 100.0, 40.0])
        )
        assert sample_at(profile, 5.0) == 50.0
        assert sample_at(profile, 20.0) == 70.0

    def test_sample_below_zero_is_clamped(self, undershoot):
        # np.interp alone gives -5.684341886080802e-14 W here.
        profile, t_s = undershoot
        assert sample_at(profile, t_s).hex() == (0.0).hex()


class TestParseScenario:
    MINIMAL = "pv_profile = pv.csv\nload_profile = load.csv\nsoc_init_pct = 60\n"

    def test_minimal_fills_defaults(self, text_file):
        sc = parse_scenario(text_file(self.MINIMAL))
        assert sc.dt_s == 1.0
        assert sc.load_multiplier == 1.0
        assert sc.controller == "flc"
        assert sc.params == NanogridParams()
        assert sc.soc_init_pct == 60.0

    def test_multiplier_four(self, text_file):
        sc = parse_scenario(text_file(self.MINIMAL + "load_multiplier = 4\n"))
        assert sc.load_multiplier == 4.0

    def test_unknown_controller_rejected(self, text_file):
        with pytest.raises(ValidationError):
            parse_scenario(text_file(self.MINIMAL + "controller = pid\n"))

    def test_unknown_key_rejected(self, text_file):
        with pytest.raises(ValidationError):
            parse_scenario(text_file(self.MINIMAL + "frequency = 50\n"))

    def test_missing_required_key_rejected(self, text_file):
        with pytest.raises(ValidationError):
            parse_scenario(text_file("pv_profile = pv.csv\n"))

    def test_param_override(self, text_file):
        sc = parse_scenario(
            text_file(self.MINIMAL + "params.p_aux_rating_w = 1500\n")
        )
        assert sc.params.p_aux_rating_w == 1500.0
        assert sc.params.p_pv_rating_w == 2230.0

    def test_duplicate_key_rejected(self, text_file):
        with pytest.raises(ParseError):
            parse_scenario(text_file(self.MINIMAL + "soc_init_pct = 50\n"))

    def test_comments_and_blanks_ignored(self, text_file):
        text = "# comment\n\n" + self.MINIMAL
        assert parse_scenario(text_file(text)).soc_init_pct == 60.0

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_only_cr_and_lf_end_a_line(self, text_file, separator):
        text = self.MINIMAL + f"load_multiplier = 4{separator}\nbogus\n"
        with pytest.raises(ParseError, match="^line 5: "):
            parse_scenario(text_file(text))


class TestScenarioRoundTrip:
    def test_default_params(self, text_file):
        sc = Scenario(
            name="rt",
            params=NanogridParams(),
            soc_init_pct=77.7,
            pv_profile="pv.csv",
            load_profile="load.csv",
            duration_s=1234.0,
        )
        assert parse_scenario(text_file(render_scenario(sc))) == sc

    def test_custom_params(self, text_file):
        sc = Scenario(
            name="rt2",
            params=NanogridParams(m_pv_rad_s_per_w=1e-4, soc_max_pct=90.0),
            soc_init_pct=50.0,
            pv_profile="a.csv",
            load_profile="b.csv",
            load_multiplier=2.5,
            controller="proportional",
            dt_s=0.5,
            duration_s=999.5,
        )
        assert parse_scenario(text_file(render_scenario(sc))) == sc


class TestWriteOutputs:
    @staticmethod
    def _one_record_trace():
        return [
            Row(
                t_s=0.0,
                p_pv_avail_w=0.0,
                p_pv_w=0.0,
                p_aux_w=0.0,
                p_load_w=0.0,
                p_bat_w=0.0,
                soc_pct=50.0,
                omega_rad_s=314.16,
                d_omega_plus=0.0,
                d_omega_minus=0.0,
            )
        ]

    @staticmethod
    def _metrics():
        return SummaryMetrics(
            max_charge_w=0.0,
            max_discharge_w=0.0,
            soc_min_pct=50.0,
            soc_max_pct=50.0,
            omega_min_rad_s=314.16,
            omega_max_rad_s=314.16,
            curtailed_energy_wh=0.0,
            aux_energy_wh=0.0,
            charging_fraction=0.0,
            violations_charge=0,
            violations_discharge=0,
            violations_soc_high=0,
            violations_soc_low=0,
        )

    def test_single_record_trace_file(self, tmp_path):
        trace_path, summary_path = write_outputs(
            trace_of(self._one_record_trace()), self._metrics(), tmp_path, "dead"
        )
        lines = trace_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "t_s,p_pv_avail_w,p_pv_w,p_aux_w,p_load_w,p_bat_w,"
            "soc_pct,omega_rad_s,d_omega_plus,d_omega_minus"
        )
        assert "aux_energy_wh = 0" in summary_path.read_text()

    def test_byte_determinism(self, tmp_path):
        trace = trace_of(self._one_record_trace())
        a = write_outputs(trace, self._metrics(), tmp_path / "a", "x")
        b = write_outputs(trace, self._metrics(), tmp_path / "b", "x")
        assert a[0].read_bytes() == b[0].read_bytes()
        assert a[1].read_bytes() == b[1].read_bytes()

    def test_six_significant_digits(self):
        trace = self._one_record_trace()
        trace = [replace(trace[0], omega_rad_s=314.32725000000005, p_bat_w=1234.5678)]
        text = render_trace(trace_of(trace))
        assert "314.327" in text
        assert "1234.57" in text

    @given(st.lists(st.floats(), min_size=len(TRACE_FIELDS), max_size=len(TRACE_FIELDS)))
    def test_rows_match_per_value_format(self, values):
        # One template per row gives the text of formatting each value alone,
        # negative zero folded to 0.
        record = Row(*values)
        row = render_trace(trace_of([record])).splitlines()[1]
        assert row == ",".join(f"{v + 0.0:.6g}" for v in values)

    def test_negative_zero_folds(self):
        (record,) = self._one_record_trace()
        record = replace(record, d_omega_minus=-0.0, p_bat_w=-0.0)
        row = render_trace(trace_of([record])).splitlines()[1].split(",")
        assert row[TRACE_FIELDS.index("d_omega_minus")] == "0"
        assert row[TRACE_FIELDS.index("p_bat_w")] == "0"

    @staticmethod
    def _random_trace(n):
        rng = np.random.default_rng(n)
        return Trace(**{f: rng.normal(0.0, 1000.0, n) for f in TRACE_FIELDS})

    # The block edges at BLOCK_ROWS, and the fixed sizes around 8 192 and
    # 16 384 rows, which stay block edges for any power-of-two block size
    # up to 8 192.
    @pytest.mark.parametrize(
        "n",
        sorted(
            {0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1}
            | {8191, 8192, 8193, 16385}
        ),
    )
    def test_blocks_write_the_whole_table(self, tmp_path, n):
        trace = self._random_trace(n)
        trace_path, _ = write_outputs(trace, self._metrics(), tmp_path, "x")
        assert trace_path.read_bytes() == render_trace(trace).encode("utf-8")

    @pytest.mark.parametrize("k", [1, 2, 12, 13])
    def test_row_ranges_join_to_the_whole_table(self, k):
        trace = self._random_trace(13)
        whole = render_trace(trace)
        assert render_trace(trace, 0, k) + render_trace(trace, k, 13) == whole
        assert render_trace(trace, 0, k) == "".join(whole.splitlines(True)[: k + 1])

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        # Bound: less than 1 B per added row. Holding the whole table at
        # once, as the folded columns, the row strings and the joined text,
        # costs ~300 B a row here, so doubling the rows would double the
        # peak; block by block the peak is one block's text whatever the
        # row count.
        peaks = {}
        for blocks in (4, 8):
            n = blocks * BLOCK_ROWS
            trace = self._random_trace(n)
            tracemalloc.start()
            try:
                write_outputs(trace, self._metrics(), tmp_path, "x")
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        (n_small, small), (n_large, large) = sorted(peaks.items())
        assert large - small < n_large - n_small

    def test_peak_memory_of_a_day(self, tmp_path):
        # Bound: 400 KiB for a 43 200-row trace. One block's folded columns,
        # row strings and joined text cost ~320 B a row here: ~324 KB at
        # 1 024 rows a block. Lists of the column values in place of the
        # memoryviews cost ~550 B a row, ~565 KB.
        trace = self._random_trace(43_200)
        tracemalloc.start()
        try:
            write_outputs(trace, self._metrics(), tmp_path, "x")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400 * 1024


class TestLoadScenario:
    def test_relative_profile_resolution(self, write_scenario):
        cfg = write_scenario(
            "sc",
            ["0,0", "60,0"],
            ["0,100", "60,100"],
            "soc_init_pct = 50",
            "duration_s = 60",
        )
        scenario, pv, load = load_scenario(cfg)
        assert pv.power_w.tolist() == [0.0, 0.0]
        assert load.power_w.tolist() == [100.0, 100.0]
        assert scenario.duration_s == 60.0

    def test_missing_profile_names_path(self, write_scenario):
        cfg = write_scenario("sc", "nope.csv", "nope.csv", "soc_init_pct = 50")
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_scenario(cfg)

    def test_nul_in_profile_reference_rejected(self, write_scenario):
        cfg = write_scenario("sc", "a\x00b.csv", "load.csv", "soc_init_pct = 50")
        with pytest.raises(ValidationError, match="must not hold NUL"):
            load_scenario(cfg)

    def test_bundled_name_resolves(self):
        scenario, pv, load = load_scenario("scenario1_high_soc")
        assert scenario.soc_init_pct == 94.9
        assert pv.t_s[-1] >= scenario.duration_s


class TestFuzzySystemDump:
    def test_round_trip(self, text_file, params):
        ems = FuzzyEms(params)
        systems = [ems.overcharge_guard, ems.depletion_guard]
        text = render_fuzzy_systems(systems)
        assert parse_fuzzy_systems(text_file(text)) == systems

    def test_dump_structure(self, params):
        ems = FuzzyEms(params)
        text = render_fuzzy_systems([ems.overcharge_guard, ems.depletion_guard])
        assert text.count(".rule.") == 18
        assert text.count(".term.") == 2 * 3 * 3
        assert "fis.count = 2" in text
        # Every system samples its output on the same 1 001 midpoints.
        assert "fis.0.resolution = 1001\n" in text
        assert "fis.1.resolution = 1001\n" in text
