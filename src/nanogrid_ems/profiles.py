"""File formats: power profiles, scenario configs, traces, summaries.

All formats are plain text, UTF-8 and locale-independent.  Outputs end
each line with LF; inputs end a line at LF, CRLF or CR.
Profiles are time-value tables with linear interpolation between samples
so that measured data can be substituted for the bundled curves.
"""

from __future__ import annotations

import io
import os
import stat
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .controller import NanogridParams
from .engine import (
    SUMMARY_FIELDS,
    TRACE_FIELDS,
    Profile,
    Scenario,
    SummaryMetrics,
    Trace,
)
from .errors import ParseError, ValidationError
from .fuzzy import SAMPLES, FuzzySystem, MembershipFunction

PROFILE_HEADER = "t_s,power_w"


@contextmanager
def _open_text(path):
    """Yield (text file, display name) for a path.

    Text that is not valid UTF-8 ends in a ParseError naming the file.
    """
    display = str(Path(path))
    with open(path, encoding="utf-8") as fh:
        try:
            yield fh, display
        except UnicodeDecodeError as exc:
            raise ParseError(f"{display}: not valid UTF-8 ({exc.reason})") from None


def _parse_rows(lines, display: str) -> tuple[list[float], list[float]]:
    """What a profile row may hold: two fields that float() accepts, or blanks."""
    ts, values = [], []
    for lineno, line in enumerate(lines, start=2):
        parts = line.rstrip("\n").split(",")
        if len(parts) != 2:
            if line.isspace():
                continue
            raise ParseError(f"{display}: expected 2 fields, got {len(parts)}", lineno)
        try:
            ts.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"{display}: {exc}", lineno) from None
    return ts, values


def _numpy_columns(path: str) -> np.ndarray | None:
    """The rows after the header of the file at ``path`` as a (2, n) array
    read by numpy's C reader, or None where it refuses them."""
    try:
        # An empty body warns; a warning refuses the rows like an error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path,
                delimiter=",",
                comments=None,
                skiprows=1,
                ndmin=2,
                encoding="utf-8",
            )
    except (ValueError, Warning):
        return None
    return table.T.copy() if table.shape[1] == 2 else None


# The suffixes by which numpy.lib._datasource decompresses a path it opens.
_NUMPY_DECOMPRESSES = (".bz2", ".gz", ".xz", ".lzma")


def load_profile(path) -> Profile:
    """Parse and validate a profile file (header ``t_s,power_w``) named by its stem.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r``. Python first reads the
    file as text: the header check, strict UTF-8 and the body kept for the
    line loop. numpy's reader then parses the rows of a regular file in one
    pass, opening it again by its path, as numpy reads a path in chunks but
    any file object line by line. ``_parse_rows`` parses the body of every
    other source (a pipe, a FIFO, a name that numpy would decompress by its
    suffix) and the rows numpy refuses: it accepts what numpy does not but
    float() does (``1_0``, blank rows), and otherwise raises the error for
    the first bad row.
    """
    with _open_text(path) as (fh, display):
        if fh.readline().strip() != PROFILE_HEADER:
            raise ParseError(f"{display}: expected header {PROFILE_HEADER!r}", line=1)
        body = fh.read()
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    name = os.fspath(path)
    by_path = regular and os.path.splitext(name)[1] not in _NUMPY_DECOMPRESSES
    columns = None
    # numpy's reader strips \x1c-\x1f around a number; float() does not.
    if by_path and not any(sep in body for sep in "\x1c\x1d\x1e\x1f"):
        # The leading ./ keeps numpy from taking a relative path such as
        # http://host/p.csv for a URL to fetch.
        columns = _numpy_columns(os.path.join(os.curdir, name))
    if columns is None:
        columns = np.array(_parse_rows(io.StringIO(body), display))
    t_s, power_w = columns
    return Profile(Path(display).stem, t_s, power_w)


def _parse_kv(text: str, display: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"{display}: expected 'key = value'", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in pairs:
            raise ParseError(f"{display}: duplicate key {key!r}", lineno)
        pairs[key] = value.strip()
    return pairs


def _parse_float(pairs: dict[str, str], key: str) -> float:
    try:
        return float(pairs[key])
    except ValueError:
        raise ValidationError(f"key {key!r} is not a number: {pairs[key]!r}") from None


def parse_scenario(path) -> Scenario:
    """Parse a flat key-value scenario config, filling defaults for omitted keys."""
    with _open_text(path) as (fh, display):
        pairs = _parse_kv(fh.read(), display)

    settings = {f.name: f for f in fields(Scenario) if f.name != "params"}
    params = {f"params.{f.name}": f.name for f in fields(NanogridParams)}
    unknown = set(pairs) - set(settings) - set(params)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key, f in settings.items():
        if f.default is MISSING and key not in pairs:
            raise ValidationError(f"missing required key {key!r}")

    overrides = {
        name: _parse_float(pairs, key) for key, name in params.items() if key in pairs
    }
    values = {
        key: pairs[key] if settings[key].type == "str" else _parse_float(pairs, key)
        for key in settings
        if key in pairs
    }
    return Scenario(params=NanogridParams(**overrides), **values)


def data_dir() -> Path:
    """Directory of the bundled profiles and scenarios."""
    return Path(resources.files("nanogrid_ems") / "data")


def resolve_scenario_path(name_or_path) -> Path:
    """Accept a scenario file path or the bare name of a bundled scenario."""
    path = Path(name_or_path)
    if path.exists():
        return path
    bundled = data_dir() / f"{path.name}.cfg"
    if str(name_or_path) == path.name and bundled.exists():
        return bundled
    raise FileNotFoundError(f"scenario file not found: {name_or_path}")


def load_scenario(name_or_path) -> tuple[Scenario, Profile, Profile]:
    """Load a scenario config plus the two profiles it references.

    Relative profile references resolve against the config file's directory.
    """
    path = resolve_scenario_path(name_or_path)
    scenario = parse_scenario(path)
    pv = load_profile(path.parent / scenario.pv_profile)
    return scenario, pv, load_profile(path.parent / scenario.load_profile)


def _format(value: float) -> str:
    # +0.0 folds negative zero into plain zero for the text outputs
    return f"{value + 0.0:.6g}"


_TRACE_ROW = ",".join(["%.6g"] * len(TRACE_FIELDS))


def render_trace(trace: Trace) -> str:
    # The text of _format on every value, with its + 0.0 fold done per column.
    columns = [(getattr(trace, f) + 0.0).tolist() for f in TRACE_FIELDS]
    lines = [",".join(TRACE_FIELDS)]
    lines.extend(_TRACE_ROW % row for row in zip(*columns))
    return "\n".join(lines) + "\n"


def render_summary(metrics: SummaryMetrics) -> str:
    lines = []
    for f in SUMMARY_FIELDS:
        value = getattr(metrics, f)
        lines.append(f"{f} = {value if isinstance(value, int) else _format(value)}")
    return "\n".join(lines) + "\n"


def write_outputs(
    trace: Trace,
    metrics: SummaryMetrics,
    out_dir,
    basename: str,
) -> tuple[Path, Path]:
    """Write one trace table and one summary document; byte-deterministic."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{basename}_trace.csv"
    summary_path = out / f"{basename}_summary.txt"
    trace_path.write_text(render_trace(trace), encoding="utf-8", newline="\n")
    summary_path.write_text(render_summary(metrics), encoding="utf-8", newline="\n")
    return trace_path, summary_path


# -- fuzzy system audit dump -------------------------------------------------

def _render_mf(mf: MembershipFunction) -> str:
    return " ".join([mf.kind] + [repr(p) for p in mf.points])


def render_fuzzy_systems(systems: list[FuzzySystem]) -> str:
    """Flat key-value dump of partitions, universes and rule tables."""
    lines = [f"fis.count = {len(systems)}"]
    for i, system in enumerate(systems):
        p = f"fis.{i}"
        lines.append(f"{p}.name = {system.name}")
        lines.append(f"{p}.resolution = {SAMPLES}")
        for j, var in enumerate(list(system.inputs) + [system.output]):
            v = f"{p}.output" if j == 2 else f"{p}.input.{j}"
            lines.append(f"{v}.name = {var.name}")
            lines.append(f"{v}.lo = {var.lo!r}")
            lines.append(f"{v}.hi = {var.hi!r}")
            for term, mf in var.terms:
                lines.append(f"{v}.term.{term} = {_render_mf(mf)}")
        for j, rule in enumerate(system.rules):
            clauses = f" {rule.connective} ".join(
                f"{var} is {term}" for var, term in rule.antecedent
            )
            lines.append(
                f"{p}.rule.{j} = if {clauses} then {rule.consequent}"
                f" weight {rule.weight!r}"
            )
    return "\n".join(lines) + "\n"
