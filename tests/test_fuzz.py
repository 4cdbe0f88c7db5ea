"""Fuzz ``nanogrid-ems run`` over config and profile text.

Every input must end one of two ways: exit 0 with a finite summary, or
exit 1 with exactly one ``error:`` line on stderr.  Nothing may escape
``main``.  Log records (the per-step SOC-clamp warning) go to the logging
system, not to the stderr checked here.
"""

import contextlib
import io
import math
import tempfile
from dataclasses import fields
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from nanogrid_ems.cli import main
from nanogrid_ems.controller import NanogridParams

EXTREME = ["1e300", "-1e300", "1.7976931348623157e308", "5e-324", "1e-300", "-5e-324"]
NON_FINITE = ["nan", "inf", "-inf", "NaN", "Infinity", "1e999"]
NOT_A_NUMBER = ["", "abc", "1,5", "0x10", "1e", "--1", "1 2", "\u0661", "\x00"]
# Text for one line (surrogates cannot be written as UTF-8).
LINE_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n")
)
BAD_NUMBER = st.one_of(
    st.sampled_from(EXTREME),
    st.sampled_from(["0", "0.0", "-0.0"]),
    st.floats(-1e4, -1e-3).map(repr),
    st.sampled_from(NON_FINITE),
    st.sampled_from(NOT_A_NUMBER),
)

# Valid durations over valid steps give at most 300 / 0.5 = 600 steps; an
# extreme duration or step is rejected before anything is allocated.
VALID = {
    "name": st.sampled_from(["fz"] * 4 + ["a b", "\u00e9t\u00e9", "-"]),
    "pv_profile": st.just("pv.csv"),
    "load_profile": st.just("load.csv"),
    "load_multiplier": st.floats(0.1, 4.0).map(repr),
    "soc_init_pct": st.floats(0.0, 100.0).map(repr),
    "controller": st.sampled_from(["flc", "proportional"]),
    "dt_s": st.sampled_from(["0.5", "1", "2.0", "7.5", "60"]),
    "duration_s": st.floats(1.0, 300.0).map(repr),
    **{
        f"params.{f.name}": st.floats(f.default * 0.8, f.default * 1.25).map(repr)
        for f in fields(NanogridParams)
    },
    "params.soc_min_pct": st.floats(0.0, 45.0).map(repr),
    "params.soc_min_plus10_pct": st.floats(46.0, 75.0).map(repr),
    "params.soc_max_pct": st.floats(76.0, 100.0).map(repr),
}
BROKEN = {
    **{key: BAD_NUMBER for key in VALID},
    "name": st.one_of(
        st.sampled_from(["", "\x00", "a\x00b", "x" * 300, "/fz", "../fz", "a/b"]),
        LINE_TEXT,
    ),
    "pv_profile": st.sampled_from(["missing.csv", "", "\x00", "."]),
    "load_profile": st.sampled_from(["pv.csv", "load", "fuzz.cfg"]),
    "controller": st.sampled_from(["pid", "", "FLC", "1"]),
}
EXTRA_LINES = ["params.n_v_per_var = 0.75e-4", "bogus = 1", "no equals sign", "# note"]
# The default duration (12 h) outlasts the profiles, so it is usually set.
OPTIONAL = set(VALID) - {"pv_profile", "load_profile", "soc_init_pct", "duration_s"}


@st.composite
def config_texts(draw):
    """key = value lines: a few keys broken or missing, the rest valid."""
    keys = st.sampled_from(sorted(VALID))
    n_broken = draw(st.sampled_from([0, 0, 0, 1, 1, 2]))
    broken = draw(st.sets(keys, min_size=n_broken, max_size=n_broken))
    missing = draw(st.sets(keys, max_size=1)) if draw(st.integers(0, 4)) == 4 else ()
    lines = [
        f"{key} = {draw(BROKEN[key] if key in broken else VALID[key])}"
        for key in VALID
        if key not in missing and (key not in OPTIONAL or draw(st.booleans()))
    ]
    if draw(st.integers(0, 9)) == 9:
        lines.append(draw(st.sampled_from(EXTRA_LINES)))
    return "\n".join(draw(st.permutations(lines))) + "\n"


@st.composite
def profile_texts(draw):
    """A short profile spanning [0, 600] s, valid or with one kind of damage."""
    rows = [f"0,{draw(st.floats(0.0, 3000.0))!r}"]
    for t in sorted(draw(st.sets(st.floats(1.0, 600.0), max_size=3))) + [600.0]:
        rows.append(f"{t!r},{draw(st.floats(0.0, 3000.0))!r}")
    header = "t_s,power_w"
    damage = draw(st.sampled_from(["none"] * 6 + ["header", "row", "blank", "short"]))
    if damage == "header":
        header = draw(st.sampled_from(["t,p", "", "t_s,power_w,x", "power_w,t_s"]))
    elif damage == "row":
        bad = draw(
            st.one_of(
                st.sampled_from(["0,-1", "5,nan", "5,inf", "5,1e308", "1", "1,2,3", ","]),
                LINE_TEXT,
            )
        )
        rows.insert(draw(st.integers(0, len(rows))), bad)
    elif damage == "blank":
        blank = draw(st.sampled_from(["", " ", "\t"]))
        rows.insert(draw(st.integers(0, len(rows))), blank)
    elif damage == "short":
        rows = rows[: draw(st.integers(0, len(rows) - 1))]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join([header, *rows]) + end


def encode(text, draw):
    """UTF-8 bytes, sometimes with one byte that is not UTF-8 spliced in."""
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 9:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_ends_in_finite_summary_or_one_error_line(data):
    draw = data.draw
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "fuzz.cfg").write_bytes(encode(draw(config_texts()), draw))
        (root / "pv.csv").write_bytes(encode(draw(profile_texts()), draw))
        (root / "load.csv").write_bytes(encode(draw(profile_texts()), draw))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["run", str(root / "fuzz.cfg"), "--out", str(root / "out")])
    event(f"exit {code}")

    if code == 0:
        assert stderr.getvalue() == ""
        summary = dict(line.split(" = ") for line in stdout.getvalue().splitlines())
        assert summary, "exit 0 without a summary"
        for key, value in summary.items():
            assert math.isfinite(float(value)), (key, value)
    else:
        assert code == 1
        lines = stderr.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), stderr.getvalue()
