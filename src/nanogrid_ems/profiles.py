"""File formats: power profiles, scenario configs, traces, summaries.

All formats are plain text, UTF-8, LF newlines, locale-independent.
Profiles are time-value tables with linear interpolation between samples
so that measured data can be substituted for the bundled curves.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from operator import add, attrgetter
from pathlib import Path

import numpy as np

from .controller import NanogridParams
from .engine import (
    SUMMARY_FIELDS,
    Scenario,
    SummaryMetrics,
    TimeStepRecord,
    TRACE_FIELDS,
)
from .errors import ParseError, ProfileOutOfRange, ValidationError
from .fuzzy import FuzzySystem, LinguisticVariable, MembershipFunction, Rule

PROFILE_HEADER = "t_s,power_w"

_SCENARIO_KEYS = (
    "name",
    "pv_profile",
    "load_profile",
    "load_multiplier",
    "soc_init_pct",
    "controller",
    "dt_s",
    "duration_s",
)
_PARAM_FIELDS = (
    "p_pv_rating_w",
    "p_aux_rating_w",
    "c_bat_ah",
    "v_bat_v",
    "soc_max_pct",
    "soc_min_plus10_pct",
    "soc_min_pct",
    "p_charge_max_w",
    "p_discharge_max_w",
    "omega_nom_rad_s",
    "m_pv_rad_s_per_w",
    "m_aux_rad_s_per_w",
    "n_v_per_var",
)


@dataclass(eq=False)
class Profile:
    """Ordered (t, power) samples: finite, strictly increasing t, non-negative power."""

    name: str
    t_s: np.ndarray
    power_w: np.ndarray

    def __post_init__(self):
        self.t_s = np.asarray(self.t_s, dtype=float)
        self.power_w = np.asarray(self.power_w, dtype=float)
        if self.t_s.size < 2:
            raise ValidationError(f"profile {self.name!r} needs at least 2 samples")
        if not (np.all(np.isfinite(self.t_s)) and np.all(np.isfinite(self.power_w))):
            raise ValidationError(f"profile {self.name!r} has non-finite values")
        if not np.all(np.diff(self.t_s) > 0):
            raise ValidationError(f"profile {self.name!r} times must strictly increase")
        if np.any(self.power_w < 0):
            raise ValidationError(f"profile {self.name!r} has negative power values")


def _read_text(source) -> tuple[str, str]:
    """Return (text, display name) for a path or file-like source."""
    if hasattr(source, "read"):
        return source.read(), getattr(source, "name", "<stream>")
    path = Path(source)
    return path.read_text(encoding="utf-8"), str(path)


def load_profile(source, name: str | None = None) -> Profile:
    """Parse and validate a profile file (header ``t_s,power_w``)."""
    text, display = _read_text(source)
    lines = text.splitlines()
    if not lines or lines[0].strip() != PROFILE_HEADER:
        raise ParseError(f"{display}: expected header {PROFILE_HEADER!r}", line=1)
    ts, values = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ParseError(f"{display}: expected 2 fields, got {len(parts)}", lineno)
        try:
            ts.append(float(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise ParseError(f"{display}: {exc}", lineno) from None
    if name is None:
        name = Path(display).stem
    return Profile(name, np.array(ts), np.array(values))


def sample_profile(profile: Profile, t_s: float) -> float:
    """Linear interpolation; exact at sample points."""
    if t_s < profile.t_s[0] or t_s > profile.t_s[-1]:
        raise ProfileOutOfRange(
            f"t={t_s:g} s outside profile {profile.name!r} "
            f"span [{profile.t_s[0]:g}, {profile.t_s[-1]:g}] s"
        )
    return float(np.interp(t_s, profile.t_s, profile.power_w))


def _parse_kv(text: str, display: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
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


def _parse_float(pairs: dict[str, str], key: str, default: float) -> float:
    if key not in pairs:
        return default
    try:
        return float(pairs[key])
    except ValueError:
        raise ValidationError(f"key {key!r} is not a number: {pairs[key]!r}") from None


def parse_scenario(source) -> Scenario:
    """Parse a flat key-value scenario config, filling defaults for omitted keys."""
    text, display = _read_text(source)
    pairs = _parse_kv(text, display)

    known = set(_SCENARIO_KEYS) | {f"params.{f}" for f in _PARAM_FIELDS}
    unknown = set(pairs) - known
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for required in ("pv_profile", "load_profile", "soc_init_pct"):
        if required not in pairs:
            raise ValidationError(f"missing required key {required!r}")

    defaults = NanogridParams()
    overrides = {
        f: _parse_float(pairs, f"params.{f}", getattr(defaults, f))
        for f in _PARAM_FIELDS
    }
    return Scenario(
        name=pairs.get("name", "scenario"),
        params=NanogridParams(**overrides),
        soc_init_pct=_parse_float(pairs, "soc_init_pct", 0.0),
        pv_profile=pairs["pv_profile"],
        load_profile=pairs["load_profile"],
        load_multiplier=_parse_float(pairs, "load_multiplier", 1.0),
        controller=pairs.get("controller", "flc"),
        dt_s=_parse_float(pairs, "dt_s", 1.0),
        duration_s=_parse_float(pairs, "duration_s", 43200.0),
    )


def render_scenario(scenario: Scenario) -> str:
    """Config text that parses back to an equal Scenario."""
    lines = [
        f"name = {scenario.name}",
        f"pv_profile = {scenario.pv_profile}",
        f"load_profile = {scenario.load_profile}",
        f"load_multiplier = {scenario.load_multiplier!r}",
        f"soc_init_pct = {scenario.soc_init_pct!r}",
        f"controller = {scenario.controller}",
        f"dt_s = {scenario.dt_s!r}",
        f"duration_s = {scenario.duration_s!r}",
    ]
    lines += [
        f"params.{f} = {getattr(scenario.params, f)!r}" for f in _PARAM_FIELDS
    ]
    return "\n".join(lines) + "\n"


def data_dir() -> Path:
    """Directory of the bundled profiles and scenarios."""
    return Path(resources.files("nanogrid_ems") / "data")


def resolve_scenario_path(name_or_path) -> Path:
    """Accept a scenario file path or the bare name of a bundled scenario."""
    path = Path(name_or_path)
    if path.exists():
        return path
    bundled = data_dir() / f"{path.name}.cfg"
    if path.suffix == "" and bundled.exists():
        return bundled
    raise FileNotFoundError(f"scenario file not found: {name_or_path}")


def load_scenario(name_or_path) -> tuple[Scenario, Profile, Profile]:
    """Load a scenario config plus the two profiles it references.

    Relative profile references resolve against the config file's directory.
    """
    path = resolve_scenario_path(name_or_path)
    scenario = parse_scenario(path)
    base = path.parent

    def _profile(ref: str) -> Profile:
        ref_path = Path(ref)
        if not ref_path.is_absolute():
            ref_path = base / ref_path
        if not ref_path.exists():
            raise FileNotFoundError(f"profile file not found: {ref_path}")
        return load_profile(ref_path)

    return scenario, _profile(scenario.pv_profile), _profile(scenario.load_profile)


def _format(value: float) -> str:
    # +0.0 folds negative zero into plain zero for the text outputs
    return f"{value + 0.0:.6g}"


_TRACE_ROW = ",".join(["%.6g"] * len(TRACE_FIELDS))
_TRACE_ZEROS = (0.0,) * len(TRACE_FIELDS)


def render_trace(trace: list[TimeStepRecord]) -> str:
    # The text of _format on every value: adding the zeros is its + 0.0 fold.
    values = attrgetter(*TRACE_FIELDS)
    lines = [",".join(TRACE_FIELDS)]
    lines.extend(_TRACE_ROW % tuple(map(add, values(r), _TRACE_ZEROS)) for r in trace)
    return "\n".join(lines) + "\n"


def render_summary(metrics: SummaryMetrics) -> str:
    lines = []
    for f in SUMMARY_FIELDS:
        value = getattr(metrics, f)
        lines.append(f"{f} = {value if isinstance(value, int) else _format(value)}")
    return "\n".join(lines) + "\n"


def write_outputs(
    trace: list[TimeStepRecord],
    metrics: SummaryMetrics,
    out_dir,
    basename: str,
) -> tuple[Path, Path]:
    """Write one trace table and one summary document; byte-deterministic."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / f"{basename}_trace.csv"
    summary_path = out / f"{basename}_summary.txt"
    with open(trace_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_trace(trace))
    with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_summary(metrics))
    return trace_path, summary_path


# -- fuzzy system audit dump -------------------------------------------------

def _render_mf(mf: MembershipFunction) -> str:
    return " ".join([mf.kind] + [repr(p) for p in mf.points])


def _parse_mf(text: str) -> MembershipFunction:
    parts = text.split()
    if len(parts) < 4 or parts[0] not in ("tri", "trap"):
        raise ValidationError(f"bad membership function spec {text!r}")
    return MembershipFunction(tuple(float(p) for p in parts[1:]))


def render_fuzzy_systems(systems: list[FuzzySystem]) -> str:
    """Flat key-value dump of partitions, universes and rule tables."""
    lines = [f"fis.count = {len(systems)}"]
    for i, system in enumerate(systems):
        p = f"fis.{i}"
        lines.append(f"{p}.name = {system.name}")
        lines.append(f"{p}.resolution = {system.resolution}")
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


def _parse_variable(pairs: dict[str, str], prefix: str) -> LinguisticVariable:
    terms = []
    for key, value in pairs.items():
        if key.startswith(f"{prefix}.term."):
            terms.append((key.removeprefix(f"{prefix}.term."), _parse_mf(value)))
    return LinguisticVariable(
        name=pairs[f"{prefix}.name"],
        lo=float(pairs[f"{prefix}.lo"]),
        hi=float(pairs[f"{prefix}.hi"]),
        terms=tuple(terms),
    )


def _parse_rule(text: str) -> Rule:
    tokens = text.split()
    if tokens[0] != "if" or "then" not in tokens or "weight" not in tokens:
        raise ValidationError(f"bad rule spec {text!r}")
    then_at = tokens.index("then")
    weight_at = tokens.index("weight")
    clause_tokens = tokens[1:then_at]
    antecedent = []
    connective = "and"
    i = 0
    while i < len(clause_tokens):
        if clause_tokens[i] in ("and", "or"):
            connective = clause_tokens[i]
            i += 1
            continue
        if i + 2 >= len(clause_tokens) or clause_tokens[i + 1] != "is":
            raise ValidationError(f"bad clause in rule {text!r}")
        antecedent.append((clause_tokens[i], clause_tokens[i + 2]))
        i += 3
    return Rule(
        antecedent=tuple(antecedent),
        consequent=tokens[then_at + 1],
        connective=connective,
        weight=float(tokens[weight_at + 1]),
    )


def parse_fuzzy_systems(source) -> list[FuzzySystem]:
    """Inverse of render_fuzzy_systems."""
    text, display = _read_text(source)
    pairs = _parse_kv(text, display)
    try:
        count = int(pairs["fis.count"])
        systems = []
        for i in range(count):
            p = f"fis.{i}"
            inputs = (
                _parse_variable(pairs, f"{p}.input.0"),
                _parse_variable(pairs, f"{p}.input.1"),
            )
            output = _parse_variable(pairs, f"{p}.output")
            rules = []
            j = 0
            while f"{p}.rule.{j}" in pairs:
                rules.append(_parse_rule(pairs[f"{p}.rule.{j}"]))
                j += 1
            systems.append(
                FuzzySystem(
                    name=pairs[f"{p}.name"],
                    inputs=inputs,
                    output=output,
                    rules=tuple(rules),
                    resolution=int(pairs[f"{p}.resolution"]),
                )
            )
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"{display}: bad fuzzy system dump: {exc}") from None
    return systems
