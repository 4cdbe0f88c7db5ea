"""Inverses of the package's text formats, kept as test oracles.

``parse_fuzzy_systems`` reads a ``dump-fis`` file back into systems, and
``render_scenario`` writes a config that parses back to an equal
``Scenario``.  The round-trip tests use them to show that each format holds
everything needed to rebuild what it was written from.  The parser reads
through the package's own text reader and key-value parser, so it sees the
real format rules (UTF-8, comments, duplicate keys), and reads only what
``render_fuzzy_systems`` writes: it checks nothing of its own, as the
package reads no FIS dump.
"""

from dataclasses import fields

from nanogrid_ems.controller import NanogridParams
from nanogrid_ems.engine import Scenario
from nanogrid_ems.fuzzy import (
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    Rule,
)
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
    return MembershipFunction(tuple(float(p) for p in text.split()[1:]))


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
    """``if V is T and|or V is T then C weight W``, as the guards' rules are."""
    clauses, _, tail = text.removeprefix("if ").partition(" then ")
    consequent, _, weight = tail.split()
    words = clauses.split()
    return Rule(
        antecedent=tuple(zip(words[0::4], words[2::4])),
        consequent=consequent,
        connective=words[3],
        weight=float(weight),
    )


def parse_fuzzy_systems(path) -> list[FuzzySystem]:
    """Inverse of render_fuzzy_systems."""
    with _open_text(path) as (fh, display):
        pairs = _parse_kv(fh.read(), display)
    systems = []
    for i in range(int(pairs["fis.count"])):
        p = f"fis.{i}"
        rules = []
        while f"{p}.rule.{len(rules)}" in pairs:
            rules.append(_parse_rule(pairs[f"{p}.rule.{len(rules)}"]))
        inputs = (
            _parse_variable(pairs, f"{p}.input.0"),
            _parse_variable(pairs, f"{p}.input.1"),
        )
        output = _parse_variable(pairs, f"{p}.output")
        systems.append(FuzzySystem(pairs[f"{p}.name"], inputs, output, tuple(rules)))
    return systems
