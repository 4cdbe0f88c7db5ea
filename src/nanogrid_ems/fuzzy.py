"""Two-input Mamdani-style fuzzy inference with centroid defuzzification.

Membership functions are piecewise linear (triangles and trapezoids).
A rule's activation is the min (AND) or max (OR) of its antecedent
degrees; the consequent term is scaled by ``weight * activation`` and
the scaled consequents are aggregated pointwise with max.  The crisp
output is the centroid of the aggregate, integrated by the midpoint
rule over a fixed number of uniform samples of the output universe, so
identical inputs always produce bit-identical outputs.  No constructor
checks its input; the one builder is ``controller.build_guard_system``.

``FuzzySystem`` compiles its rule base once, at construction, into one
straight-line Python function from the two crisp inputs to the strength
of every output term: each input term's degree with exactly the
arithmetic of ``mf_eval``, then each rule's activation, weight and
max-aggregation in rule order.  Every output term's samples, sample mass
and centroid are cached too.  When a single output term fires, ``infer``
returns that term's cached centroid; otherwise it sums the sampled
aggregate.

The midpoint sums stay although the aggregate is piecewise linear and
has a closed-form centroid: that form differs from the sampled sums in
the last ulp, the closed loop amplifies the difference, and the bundled
outputs are pinned to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyAggregate

AND = "and"
OR = "or"

SAMPLES = 1001  # midpoint samples of every output universe
# An aggregate summing under 1e-12 per sample is a rule-base coverage bug.
_EMPTY_SUM = 1e-12 * SAMPLES


@dataclass(frozen=True)
class MembershipFunction:
    """Triangle (3 breakpoints) or trapezoid (4), finite and non-decreasing.

    Coincident breakpoints express shoulders: ``tri(a, a, c)`` is a left
    shoulder, ``tri(a, c, c)`` a right shoulder.  ``corners`` is
    ``(left, top_lo, top_hi, right)``; a triangle's top is one point.
    """

    points: tuple[float, ...]

    def __post_init__(self):
        pts = self.points
        corners = (pts[0], pts[1], pts[1], pts[2]) if len(pts) == 3 else pts
        object.__setattr__(self, "corners", corners)

    @property
    def kind(self) -> str:
        return "tri" if len(self.points) == 3 else "trap"


def triangular(a: float, b: float, c: float) -> MembershipFunction:
    return MembershipFunction((float(a), float(b), float(c)))


def mf_eval(mf: MembershipFunction, x: float) -> float:
    """Degree of membership of ``x``, exact at breakpoints, 0 outside support."""
    left, top_lo, top_hi, right = mf.corners
    if x < left or x > right:
        return 0.0
    if top_lo <= x <= top_hi:
        return 1.0
    if x < top_lo:
        return (x - left) / (top_lo - left)
    return (right - x) / (right - top_hi)


@dataclass(frozen=True)
class LinguisticVariable:
    """Named variable over finite ``lo < hi``; one or more distinct terms inside it."""

    name: str
    lo: float
    hi: float
    terms: tuple[tuple[str, MembershipFunction], ...]

    def term_names(self) -> tuple[str, ...]:
        return tuple(t for t, _ in self.terms)


def fuzzify(var: LinguisticVariable, x: float) -> dict[str, float]:
    """Degree of every term at ``x``; degrees need not sum to 1."""
    return {t: mf_eval(mf, x) for t, mf in var.terms}


@dataclass(frozen=True)
class Rule:
    """IF <1-2 clauses joined by AND or OR> THEN <output term>; weight in [0, 1]."""

    antecedent: tuple[tuple[str, str], ...]  # (variable name, term name)
    consequent: str
    connective: str = AND
    weight: float = 1.0


@dataclass(eq=True)
class FuzzySystem:
    """Two distinctly named inputs, one output and rules over their terms; immutable."""

    name: str
    inputs: tuple[LinguisticVariable, LinguisticVariable]
    output: LinguisticVariable
    rules: tuple[Rule, ...]

    def __post_init__(self):
        self._compile()

    def _compile(self):
        # The strengths function: mf_eval of every input term, then every rule
        # in order.  Only float literals and indices enter its source.
        lines = ["def strengths(x1, x2):"]
        clause_index = {}
        for x, var in zip(("x1", "x2"), self.inputs):
            for term, mf in var.terms:
                i = clause_index[var.name, term] = len(clause_index)
                left, top_lo, top_hi, right = (repr(float(c)) for c in mf.corners)
                lines.append(
                    f" d{i} = 0.0 if {x} < {left} or {x} > {right}"
                    f" else 1.0 if {top_lo} <= {x} <= {top_hi}"
                    f" else ({x} - {left}) / ({top_lo} - {left}) if {x} < {top_lo}"
                    f" else ({right} - {x}) / ({right} - {top_hi})"
                )
        out_terms = self.output.term_names()
        lines += [f" s{k} = 0.0" for k in range(len(out_terms))]
        for rule in self.rules:
            # A one-clause rule reads its clause twice: min(a, a) == max(a, a) == a.
            a = clause_index[rule.antecedent[0]]
            b = clause_index[rule.antecedent[-1]]
            k = out_terms.index(rule.consequent)
            # The comparison of the builtin min(a, b) or max(a, b).
            op = "<" if rule.connective == AND else ">"
            weight = repr(float(rule.weight))
            lines.append(f" f = {weight} * (d{b} if d{b} {op} d{a} else d{a})")
            lines.append(f" if f > s{k}: s{k} = f")
        lines.append(f" return [{', '.join(f's{k}' for k in range(len(out_terms)))}]")
        namespace = {}
        exec("\n".join(lines), namespace)
        self._strengths = namespace["strengths"]

        dx = (self.output.hi - self.output.lo) / SAMPLES
        xs = self.output.lo + (np.arange(SAMPLES, dtype=float) + 0.5) * dx
        self._xs = xs
        self._term_values = tuple(
            np.array([mf_eval(mf, float(x)) for x in xs]) for _, mf in self.output.terms
        )
        self._term_masses = tuple(float(values.sum()) for values in self._term_values)
        self._term_centroids = tuple(
            float(np.dot(xs, values) / mass) if mass > 0.0 else None
            for values, mass in zip(self._term_values, self._term_masses)
        )

    def term_centroid(self, term: str) -> float:
        """Centroid of one output term alone, on the same sample grid as infer."""
        centroid = self._term_centroids[self.output.term_names().index(term)]
        if centroid is None:
            raise EmptyAggregate(
                f"term {term!r} of {self.name!r} has no mass on the sample grid"
            )
        return centroid

    def infer(self, x1: float, x2: float) -> float:
        """Crisp output for the two (already clamped) crisp inputs.

        Raises EmptyAggregate when no rule fires, which is unreachable for
        a rule base covering the whole input grid.
        """
        strengths = self._strengths(x1, x2)
        active = [k for k, strength in enumerate(strengths) if strength > 0.0]
        if not active:
            raise EmptyAggregate(f"no rule of {self.name!r} fired at ({x1}, {x2})")

        if len(active) == 1:
            # A uniformly scaled term keeps its centroid; evaluating it on the
            # unscaled samples avoids spurious last-ulp drift.
            k = active[0]
            if strengths[k] * self._term_masses[k] < _EMPTY_SUM:
                raise EmptyAggregate(
                    f"aggregate of {self.name!r} integrates to ~0 at ({x1}, {x2})"
                )
            return self._term_centroids[k]

        values = self._term_values
        aggregate = strengths[active[0]] * values[active[0]]
        for k in active[1:]:
            np.maximum(aggregate, strengths[k] * values[k], out=aggregate)

        total = float(aggregate.sum())
        if total < _EMPTY_SUM:
            raise EmptyAggregate(
                f"aggregate of {self.name!r} integrates to ~0 at ({x1}, {x2})"
            )
        return float(np.dot(self._xs, aggregate) / total)

