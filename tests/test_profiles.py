import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanogrid_ems.controller import FuzzyEms, NanogridParams
from nanogrid_ems.engine import TRACE_FIELDS, Profile, Scenario, SummaryMetrics
from nanogrid_ems.errors import (
    ParseError,
    ProfileOutOfRange,
    ValidationError,
)
from nanogrid_ems.profiles import (
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


def sample_at(profile, t_s):
    """The profile's value at one time, sampled as a run of duration ``t_s`` does."""
    return float(profile.sample(np.array([t_s]), t_s)[0])


class TestLoadProfile:
    def test_two_rows(self):
        profile = load_profile(io.StringIO(profile_text(["0,0", "3600,500"])))
        assert profile.t_s.tolist() == [0.0, 3600.0]
        assert profile.power_w.tolist() == [0.0, 500.0]

    def test_out_of_order_times_rejected(self):
        with pytest.raises(ValidationError):
            load_profile(io.StringIO(profile_text(["3600,500", "0,0"])))

    def test_header_only_rejected(self):
        with pytest.raises(ValidationError):
            load_profile(io.StringIO("t_s,power_w\n"))

    def test_wrong_header_rejected(self):
        with pytest.raises(ParseError):
            load_profile(io.StringIO("time,watts\n0,0\n10,1\n"))

    def test_bad_row_reports_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            load_profile(io.StringIO(profile_text(["0,0", "60,1,2"])))

    def test_non_numeric_rejected(self):
        with pytest.raises(ParseError):
            load_profile(io.StringIO(profile_text(["0,zero", "60,1"])))

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            load_profile(io.StringIO(profile_text(["0,-5", "60,1"])))

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,0", "60,nan", "120,1"],
            ["0,0", "60,inf"],
            ["0,0", "nan,1", "120,1"],
            ["-inf,0", "60,1"],
        ],
    )
    def test_non_finite_values_rejected(self, rows):
        with pytest.raises(ValidationError, match="non-finite"):
            load_profile(io.StringIO(profile_text(rows)))

    @pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_only_cr_and_lf_end_a_line(self, tmp_path, separator):
        path = tmp_path / "p.csv"
        path.write_text(f"t_s,power_w\n0,1{separator}60,2\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 2: .*expected 2 fields, got 3"):
            load_profile(path)


# Spellings of a row's time that float() accepts.
SPELLINGS = ("{}", " {} ", "\t{}", "+{}", "{}.0", "{}e0", "{}_0e-1", "0{}")
BAD_TOKENS = ("", " ", "abc", "1..2", "0x10", "1,5", "\u0661x", "--1", "1e")
BLANK_ROWS = ("", " ", "\t", "  \t ")
WRONG_FIELDS = ("1", "1,2,3", ",", "1,2,", ",,")


@st.composite
def profile_texts(draw):
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
                    st.sampled_from(["-1", "nan", "1e3", ".5", "5.", "1_0", "\u0661"]),
                )
            )
            rows.append(draw(st.sampled_from(SPELLINGS)).format(t) + "," + power)
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
    """(name, times, powers) of a parsed profile, or (error type, message)."""
    try:
        profile = parse(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)
    return profile.name, profile.t_s.tolist(), profile.power_w.tolist()


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


class TestStreamedParseMatchesSeed:
    """The chunked parser gives the whole-text parser's arrays or its error."""

    @settings(max_examples=300, deadline=None)
    @given(profile_texts())
    def test_same_arrays_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "generated.csv"
            path.write_bytes(text.encode("utf-8"))
            expected = parse_outcome(reference_seed.load_profile, path)
            assert parse_outcome(load_profile, path) == expected


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


class TestParseScenario:
    MINIMAL = "pv_profile = pv.csv\nload_profile = load.csv\nsoc_init_pct = 60\n"

    def test_minimal_fills_defaults(self):
        sc = parse_scenario(io.StringIO(self.MINIMAL))
        assert sc.dt_s == 1.0
        assert sc.load_multiplier == 1.0
        assert sc.controller == "flc"
        assert sc.params == NanogridParams()
        assert sc.soc_init_pct == 60.0

    def test_multiplier_four(self):
        sc = parse_scenario(io.StringIO(self.MINIMAL + "load_multiplier = 4\n"))
        assert sc.load_multiplier == 4.0

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValidationError):
            parse_scenario(io.StringIO(self.MINIMAL + "controller = pid\n"))

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_scenario(io.StringIO(self.MINIMAL + "frequency = 50\n"))

    def test_missing_required_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_scenario(io.StringIO("pv_profile = pv.csv\n"))

    def test_param_override(self):
        sc = parse_scenario(
            io.StringIO(self.MINIMAL + "params.p_aux_rating_w = 1500\n")
        )
        assert sc.params.p_aux_rating_w == 1500.0
        assert sc.params.p_pv_rating_w == 2230.0

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_scenario(io.StringIO(self.MINIMAL + "soc_init_pct = 50\n"))

    def test_comments_and_blanks_ignored(self):
        text = "# comment\n\n" + self.MINIMAL
        assert parse_scenario(io.StringIO(text)).soc_init_pct == 60.0


class TestScenarioRoundTrip:
    def test_default_params(self):
        sc = Scenario(
            name="rt",
            params=NanogridParams(),
            soc_init_pct=77.7,
            pv_profile="pv.csv",
            load_profile="load.csv",
            duration_s=1234.0,
        )
        assert parse_scenario(io.StringIO(render_scenario(sc))) == sc

    def test_custom_params(self):
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
        assert parse_scenario(io.StringIO(render_scenario(sc))) == sc


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


class TestLoadScenario:
    def test_relative_profile_resolution(self, tmp_path):
        (tmp_path / "pv.csv").write_text(profile_text(["0,0", "60,0"]))
        (tmp_path / "load.csv").write_text(profile_text(["0,100", "60,100"]))
        (tmp_path / "sc.cfg").write_text(
            "pv_profile = pv.csv\nload_profile = load.csv\n"
            "soc_init_pct = 50\nduration_s = 60\n"
        )
        scenario, pv, load = load_scenario(tmp_path / "sc.cfg")
        assert pv.power_w.tolist() == [0.0, 0.0]
        assert load.power_w.tolist() == [100.0, 100.0]
        assert scenario.duration_s == 60.0

    def test_missing_profile_names_path(self, tmp_path):
        (tmp_path / "sc.cfg").write_text(
            "pv_profile = nope.csv\nload_profile = nope.csv\nsoc_init_pct = 50\n"
        )
        with pytest.raises(FileNotFoundError, match="nope.csv"):
            load_scenario(tmp_path / "sc.cfg")

    def test_bundled_name_resolves(self):
        scenario, pv, load = load_scenario("scenario1_high_soc")
        assert scenario.soc_init_pct == 94.9
        assert pv.t_s[-1] >= scenario.duration_s


class TestFuzzySystemDump:
    def test_round_trip(self, params):
        ems = FuzzyEms(params)
        systems = [ems.overcharge_guard, ems.depletion_guard]
        text = render_fuzzy_systems(systems)
        assert parse_fuzzy_systems(io.StringIO(text)) == systems

    def test_dump_structure(self, params):
        ems = FuzzyEms(params)
        text = render_fuzzy_systems([ems.overcharge_guard, ems.depletion_guard])
        assert text.count(".rule.") == 18
        assert text.count(".term.") == 2 * 3 * 3
        assert "fis.count = 2" in text

    def test_truncated_rule_clause_rejected(self, params):
        ems = FuzzyEms(params)
        text = render_fuzzy_systems([ems.overcharge_guard, ems.depletion_guard])
        broken = text.replace(
            "if soc_margin is low and power_margin is low then large weight 1.0",
            "if soc_margin is",
            1,
        )
        with pytest.raises(ValidationError):
            parse_fuzzy_systems(io.StringIO(broken))

    def test_missing_keys_rejected(self):
        with pytest.raises(ValidationError):
            parse_fuzzy_systems(io.StringIO("fis.count = 1\n"))
