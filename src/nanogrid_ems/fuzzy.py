"""Two-input Mamdani-style fuzzy inference with centroid defuzzification.

Membership functions are piecewise linear (triangles and trapezoids).
A rule's activation is the min (AND) or max (OR) of its antecedent
degrees; the consequent term is scaled by ``weight * activation`` and
the scaled consequents are aggregated pointwise with max.  The crisp
output is the centroid of the aggregate, integrated by the midpoint
rule over a fixed number of uniform samples of the output universe, so
identical inputs always produce bit-identical outputs.  No constructor
checks its input; the one builder is ``controller.build_guard_system``.

``FuzzySystem`` compiles its whole inference once, at construction, into
one Python function of the two crisp inputs that ``infer`` calls: each
input term's degree with exactly the arithmetic of ``mf_eval``, each
rule's activation, weight and max-aggregation in rule order, then the
count of fired output terms.  One fired term gives its cached centroid;
more are scaled and max-aggregated in term order into two scratch arrays
that the system owns (so one thread at a time), with no array allocated
per call, and the sampled centroid of the aggregate is returned.

The midpoint sums stay although the aggregate is piecewise linear and
has a closed-form centroid: that form differs from the sampled sums in
the last ulp, the closed loop amplifies the difference, and the bundled
outputs are pinned to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

AND = "and"
OR = "or"

SAMPLES = 1001  # midpoint samples of every output universe


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
        dx = (self.output.hi - self.output.lo) / SAMPLES
        xs = self.output.lo + (np.arange(SAMPLES, dtype=float) + 0.5) * dx
        values = [
            np.array([mf_eval(mf, float(x)) for x in xs]) for _, mf in self.output.terms
        ]
        self._term_centroids = tuple(
            float(np.dot(xs, v) / float(v.sum())) for v in values
        )
        # The crisp function: mf_eval of every input term, then every rule in
        # order, then the defuzzification.  Only float literals and names
        # enter its source; the names are bound in ``namespace``.
        lines = ["def crisp(x1, x2):"]
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
        terms = range(len(out_terms))
        lines += [f" s{k} = 0.0" for k in terms]
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
        # Count the fired terms in ints: the comparisons give np.bool_ for
        # np.float64 inputs, and np.True_ + np.True_ is np.True_.
        lines.append(" n = " + " + ".join(f"(1 if s{k} > 0.0 else 0)" for k in terms))
        # One fired term: a uniformly scaled term keeps its centroid, and
        # returning the centroid of the unscaled samples avoids spurious
        # last-ulp drift.
        lines.append(" if n == 1:")
        for k in terms:
            lines.append(f"  if s{k} > 0.0: return c{k}")
        # Two or more: max-aggregate the scaled samples in term order into
        # scratch arrays, then take the midpoint centroid.
        lines.append(" first = True")
        for k in terms:
            lines.append(f" if s{k} > 0.0:")
            lines.append(f"  if first: multiply(v{k}, s{k}, out=agg); first = False")
            lines.append(f"  else: maximum(agg, multiply(v{k}, s{k}, out=tmp), out=agg)")
        lines.append(" return float(dot(agg)) / float(add_reduce(agg))")
        namespace = {
            "multiply": np.multiply,
            "maximum": np.maximum,
            "add_reduce": np.add.reduce,
            "dot": xs.dot,
            "agg": np.empty(SAMPLES),
            "tmp": np.empty(SAMPLES),
        }
        for k in terms:
            namespace[f"v{k}"] = values[k]
            namespace[f"c{k}"] = self._term_centroids[k]
        exec("\n".join(lines), namespace)
        self._crisp = namespace["crisp"]

    def term_centroid(self, term: str) -> float:
        """Centroid of one output term alone, on the same sample grid as infer."""
        return self._term_centroids[self.output.term_names().index(term)]

    def infer(self, x1: float, x2: float) -> float:
        """Crisp output for the two (already clamped) crisp inputs.

        Precondition: every output term has mass on the sample grid, and
        some rule fires at (x1, x2) strongly enough that its scaled term
        keeps a nonzero sum.  The guards of ``controller.build_guard_system``
        meet it on all of [0, 1]^2 (each term keeps at least 100 samples of
        mass, and some rule fires at 0.5 or more); outside it the value is
        undefined and nothing is raised.
        """
        return self._crisp(x1, x2)

