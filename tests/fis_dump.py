"""Inverses of the package's text formats, kept as test oracles.

``parse_fuzzy_systems`` reads a ``dump-fis`` file back into systems, and
``render_scenario`` writes a config that parses back to an equal
``Scenario``.  The round-trip tests use them to show that each format holds
everything needed to rebuild what it was written from.  The parser reads
through the package's own text reader and key-value parser, so it sees the
real format rules (UTF-8, comments, duplicate keys).
"""

from dataclasses import fields

from nanogrid_ems.controller import NanogridParams
from nanogrid_ems.engine import Scenario
from nanogrid_ems.errors import ValidationError
from nanogrid_ems.fuzzy import FuzzySystem, LinguisticVariable, MembershipFunction, Rule
from nanogrid_ems.profiles import _open_text, _parse_kv


def term(var: LinguisticVariable, name: str) -> MembershipFunction:
    """The membership function of one named term of ``var``."""
    for t, mf in var.terms:
        if t == name:
            return mf
    raise KeyError(name)


def render_scenario(scenario: Scenario) -> str:
    """Config text that parses back to an equal Scenario."""
    lines = []
    for f in fields(Scenario):
        if f.name != "params":
            value = getattr(scenario, f.name)
            lines.append(f"{f.name} = {value if isinstance(value, str) else repr(value)}")
    lines += [
        f"params.{f.name} = {getattr(scenario.params, f.name)!r}"
        for f in fields(NanogridParams)
    ]
    return "\n".join(lines) + "\n"


def _parse_mf(text: str) -> MembershipFunction:
    parts = text.split()
    if len(parts) < 4 or parts[0] not in ("tri", "trap"):
        raise ValidationError(f"bad membership function spec {text!r}")
    return MembershipFunction(tuple(float(p) for p in parts[1:]))


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


def parse_fuzzy_systems(path) -> list[FuzzySystem]:
    """Inverse of render_fuzzy_systems."""
    with _open_text(path) as (fh, display):
        pairs = _parse_kv(fh.read(), display)
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
