import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanogrid_ems.errors import EmptyAggregate
from nanogrid_ems.fuzzy import (
    AND,
    OR,
    FuzzySystem,
    LinguisticVariable,
    MembershipFunction,
    Rule,
    fuzzify,
    mf_eval,
    triangular,
)

from reference_fuzzy import (
    infer_reference,
    infer_sampled_seed,
    random_covering_system,
    term_centroid_seed,
)

STANDARD_TERMS = (
    ("low", triangular(0.0, 0.0, 0.5)),
    ("med", triangular(0.0, 0.5, 1.0)),
    ("high", triangular(0.5, 1.0, 1.0)),
)


def make_variable(name="x", terms=STANDARD_TERMS):
    return LinguisticVariable(name, 0.0, 1.0, terms)


def make_system(rules, out_terms=None):
    output = LinguisticVariable(
        "out",
        0.0,
        1.0,
        out_terms
        or (
            ("lo", triangular(0.0, 0.0, 0.4)),
            ("mid", triangular(0.2, 0.5, 0.8)),
            ("hi", triangular(0.6, 1.0, 1.0)),
        ),
    )
    inputs = (make_variable("a"), make_variable("b"))
    return FuzzySystem("sys", inputs, output, tuple(rules))


class TestMembership:
    @pytest.mark.parametrize(
        "x,expected",
        [(0.5, 1.0), (0.25, 0.5), (1.5, 0.0), (-0.1, 0.0), (0.0, 0.0), (1.0, 0.0)],
    )
    def test_triangle(self, x, expected):
        assert mf_eval(triangular(0.0, 0.5, 1.0), x) == expected

    def test_left_shoulder_peaks_at_coincident_breakpoints(self):
        mf = triangular(0.0, 0.0, 0.5)
        assert mf_eval(mf, 0.0) == 1.0
        assert mf_eval(mf, 0.25) == 0.5
        assert mf_eval(mf, 0.5) == 0.0

    def test_right_shoulder(self):
        mf = triangular(0.5, 1.0, 1.0)
        assert mf_eval(mf, 1.0) == 1.0
        assert mf_eval(mf, 0.75) == 0.5

    def test_trapezoid_plateau(self):
        mf = MembershipFunction((0.0, 0.2, 0.6, 1.0))
        assert mf_eval(mf, 0.2) == 1.0
        assert mf_eval(mf, 0.4) == 1.0
        assert mf_eval(mf, 0.6) == 1.0
        assert mf_eval(mf, 0.1) == pytest.approx(0.5)
        assert mf_eval(mf, 0.8) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "points", [(0.5, 0.2, 1.0), (0.0, 0.5), (0.0, math.inf, 1.0)]
    )
    def test_invalid_breakpoints_rejected(self, points):
        from nanogrid_ems.fuzzy import MembershipFunction

        with pytest.raises(ValueError):
            MembershipFunction(tuple(points))

    @given(st.floats(min_value=-2, max_value=3), st.data())
    def test_degree_always_in_unit_interval(self, x, data):
        pts = sorted(
            data.draw(
                st.lists(
                    st.floats(min_value=0, max_value=1), min_size=3, max_size=3
                )
            )
        )
        degree = mf_eval(triangular(*pts), x)
        assert 0.0 <= degree <= 1.0


class TestFuzzify:
    def test_partition_vertex(self):
        assert fuzzify(make_variable(), 0.5) == {"low": 0.0, "med": 1.0, "high": 0.0}

    def test_overlap_midpoint(self):
        assert fuzzify(make_variable(), 0.75) == {
            "low": 0.0,
            "med": 0.5,
            "high": 0.5,
        }

    def test_left_edge(self):
        assert fuzzify(make_variable(), 0.0) == {"low": 1.0, "med": 0.0, "high": 0.0}

    def test_duplicate_term_names_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable(
                "x", 0.0, 1.0, (("t", triangular(0, 0, 1)), ("t", triangular(0, 1, 1)))
            )

    def test_term_outside_universe_rejected(self):
        with pytest.raises(ValueError):
            LinguisticVariable("x", 0.0, 1.0, (("t", triangular(0.0, 0.5, 1.5)),))


class TestRuleValidation:
    def test_weight_range(self):
        with pytest.raises(ValueError):
            Rule((("a", "low"),), "lo", weight=1.5)

    def test_connective(self):
        with pytest.raises(ValueError):
            Rule((("a", "low"),), "lo", connective="xor")

    def test_unknown_variable_rejected_by_system(self):
        with pytest.raises(ValueError):
            make_system([Rule((("nope", "low"),), "lo")])

    def test_unknown_term_rejected_by_system(self):
        with pytest.raises(ValueError):
            make_system([Rule((("a", "tiny"),), "lo")])

    def test_unknown_consequent_rejected_by_system(self):
        with pytest.raises(ValueError):
            make_system([Rule((("a", "low"),), "nope")])


class TestInfer:
    def test_single_rule_full_triangle_centroid(self):
        # A rule firing at degree 1 leaves its consequent whole; the centroid
        # of a full triangle is the breakpoint mean.
        system = make_system(
            [Rule((("a", "low"), ("b", "low")), "mid")],
            out_terms=(("mid", triangular(0.1, 0.4, 0.9)),),
        )
        assert system.infer(0.0, 0.0) == pytest.approx((0.1 + 0.4 + 0.9) / 3, abs=1e-4)

    def test_symmetric_aggregate_gives_midpoint(self):
        system = make_system(
            [
                Rule((("a", "low"), ("b", "low")), "lo"),
                Rule((("a", "low"), ("b", "low")), "hi"),
            ],
            out_terms=(
                ("lo", triangular(0.0, 0.2, 0.4)),
                ("hi", triangular(0.6, 0.8, 1.0)),
            ),
        )
        assert system.infer(0.0, 0.0) == pytest.approx(0.5, abs=1e-9)

    def test_two_rule_case_matches_brute_force(self):
        system = make_system(
            [
                Rule((("a", "low"), ("b", "med")), "lo"),
                Rule((("a", "med"), ("b", "med")), "hi", weight=0.7),
            ]
        )
        value = system.infer(0.3, 0.55)
        oracle = infer_reference(system, 0.3, 0.55)
        assert value == pytest.approx(oracle, abs=1e-4)

    def test_or_connective_takes_max(self):
        system = make_system(
            [
                Rule((("a", "low"), ("b", "low")), "hi", connective="or"),
                Rule((("a", "high"), ("b", "high")), "lo"),
            ]
        )
        # a=0.0 gives low degree 1.0 even though b's low degree is 0.
        value = system.infer(0.0, 1.0)
        oracle = infer_reference(system, 0.0, 1.0)
        assert value == pytest.approx(oracle, abs=1e-4)

    def test_empty_aggregate_raises(self):
        system = make_system([Rule((("a", "low"), ("b", "low")), "lo")])
        with pytest.raises(EmptyAggregate):
            system.infer(1.0, 1.0)

    def test_term_with_no_sample_mass_raises(self):
        # A zero-width spike between two midpoints (0.25 lies between
        # 249.5 / 1001 and 250.5 / 1001) never lands on the sample grid, so its
        # centroid is undefined there.  infer's mass threshold rejects the lone
        # term before its centroid is read.
        system = make_system(
            [Rule((("a", "low"), ("b", "low")), "spike")],
            out_terms=(("spike", triangular(0.25, 0.25, 0.25)),),
        )
        with pytest.raises(EmptyAggregate, match="integrates to ~0"):
            system.infer(0.0, 0.0)
        with pytest.raises(EmptyAggregate, match="has no mass"):
            system.term_centroid("spike")

    def test_output_stays_in_universe_on_grid(self):
        system = make_system(
            [
                Rule((("a", t1), ("b", t2)), out)
                for (t1, t2), out in {
                    ("low", "low"): "hi",
                    ("low", "med"): "hi",
                    ("low", "high"): "hi",
                    ("med", "low"): "hi",
                    ("med", "med"): "mid",
                    ("med", "high"): "lo",
                    ("high", "low"): "hi",
                    ("high", "med"): "mid",
                    ("high", "high"): "lo",
                }.items()
            ]
        )
        for x1 in np.linspace(0, 1, 9):
            for x2 in np.linspace(0, 1, 9):
                value = system.infer(float(x1), float(x2))
                assert 0.0 <= value <= 1.0

    def test_determinism(self):
        system = make_system(
            [
                Rule((("a", "low"), ("b", "med")), "lo"),
                Rule((("a", "med"), ("b", "high")), "hi"),
            ]
        )
        first = [system.infer(0.31, 0.62) for _ in range(3)]
        assert first[0] == first[1] == first[2]

    def test_continuity_under_tiny_perturbation(self):
        system = make_system(
            [
                Rule((("a", "low"), ("b", "low")), "lo"),
                Rule((("a", "med"), ("b", "med")), "mid"),
                Rule((("a", "high"), ("b", "high")), "hi"),
                Rule((("a", "low"), ("b", "med")), "mid"),
                Rule((("a", "med"), ("b", "low")), "mid"),
                Rule((("a", "high"), ("b", "med")), "mid"),
                Rule((("a", "med"), ("b", "high")), "mid"),
                Rule((("a", "low"), ("b", "high")), "mid"),
                Rule((("a", "high"), ("b", "low")), "mid"),
            ]
        )
        width = system.output.hi - system.output.lo
        for x1 in np.linspace(0.0, 1.0 - 1e-9, 7):
            for x2 in np.linspace(0.0, 1.0 - 1e-9, 7):
                base = system.infer(float(x1), float(x2))
                bumped = system.infer(float(x1) + 1e-9, float(x2))
                assert abs(bumped - base) < 1e-6 * width

    @pytest.mark.parametrize("factor", [0.25, 0.5, 0.9])
    def test_common_weight_scaling_keeps_centroid(self, factor):
        rules = [
            Rule((("a", "low"), ("b", "low")), "lo", weight=1.0),
            Rule((("a", "med"), ("b", "med")), "mid", weight=0.8),
            Rule((("a", "high"), ("b", "high")), "hi", weight=0.6),
        ]
        scaled = [
            Rule(r.antecedent, r.consequent, r.connective, r.weight * factor)
            for r in rules
        ]
        base = make_system(rules)
        shrunk = make_system(scaled)
        for x1, x2 in [(0.2, 0.2), (0.5, 0.5), (0.8, 0.8), (0.4, 0.7)]:
            assert shrunk.infer(x1, x2) == pytest.approx(
                base.infer(x1, x2), abs=1e-12
            )

    def test_matches_reference_on_seeded_random_cases(self):
        rng = random.Random(7)
        for _ in range(10):
            system = random_covering_system(rng, (-2.0, 0.0), (0.5, 3.0))
            x1, x2 = rng.random(), rng.random()
            width = system.output.hi - system.output.lo
            assert system.infer(x1, x2) == pytest.approx(
                infer_reference(system, x1, x2, 200_000), abs=1e-4 * width
            )


# -- the compiled rule base against the original sampled inference ----------


def reals(lo, hi):
    """Floats in [lo, hi], -0.0 among them when 0 is, each drawn either as a
    Python float or as an np.float64 scalar: the compiled rule base must read
    both as the same literal."""
    values = st.floats(lo, hi)
    if lo <= 0.0 <= hi:
        values = st.one_of(values, st.just(-0.0))
    return st.one_of(values, values.map(np.float64))


@st.composite
def membership_functions(draw, lo, hi):
    """Triangles and trapezoids, with or without a shoulder, inside [lo, hi]."""
    points = sorted(draw(st.lists(reals(lo, hi), min_size=3, max_size=4)))
    shoulder = draw(st.sampled_from(["none", "left", "right"]))
    if shoulder == "left":
        points[1] = points[0]
    elif shoulder == "right":
        points[-2] = points[-1]
    return MembershipFunction(tuple(points))


@st.composite
def variables(draw, name, max_terms):
    lo = draw(st.floats(-2.0, 1.0))
    hi = lo + draw(st.floats(0.1, 3.0))
    count = draw(st.integers(1, max_terms))
    terms = tuple(
        (f"{name}{i}", draw(membership_functions(lo, hi))) for i in range(count)
    )
    return LinguisticVariable(name, lo, hi, terms)


@st.composite
def general_systems(draw):
    """Any valid two-input system: AND/OR, weights in [0, 1], one- and
    two-clause rules over either variable in either order."""
    a, b = draw(variables("a", 4)), draw(variables("b", 4))
    output = draw(variables("out", 3))

    def clause():
        var = draw(st.sampled_from([a, b]))
        return var.name, draw(st.sampled_from(var.term_names()))

    rules = tuple(
        Rule(
            antecedent=tuple(clause() for _ in range(draw(st.integers(1, 2)))),
            consequent=draw(st.sampled_from(output.term_names())),
            connective=draw(st.sampled_from([AND, OR])),
            weight=draw(reals(0.0, 1.0)),
        )
        for _ in range(draw(st.integers(1, 9)))
    )
    inputs = (a, b) if draw(st.booleans()) else (b, a)
    return FuzzySystem("general", inputs, output, rules)


def crisp_inputs(var):
    """Points inside and beyond the universe, and every breakpoint exactly."""
    breakpoints = [p for _, mf in var.terms for p in mf.points]
    return st.one_of(
        st.floats(var.lo - 0.5, var.hi + 0.5), st.sampled_from(breakpoints)
    )


def assert_same_as_seed(system, x1, x2):
    try:
        expected = infer_sampled_seed(system, x1, x2)
    except EmptyAggregate as seed_error:
        with pytest.raises(EmptyAggregate) as error:
            system.infer(x1, x2)
        assert str(error.value) == str(seed_error)
        return
    # Equal to the bit, the sign of zero included.
    assert system.infer(x1, x2).hex() == expected.hex()


class TestCompiledMatchesSeed:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_general_systems_bit_identical(self, data):
        system = data.draw(general_systems())
        in1, in2 = system.inputs
        for _ in range(data.draw(st.integers(1, 8))):
            x1 = data.draw(crisp_inputs(in1))
            x2 = data.draw(crisp_inputs(in2))
            assert_same_as_seed(system, x1, x2)

    def test_threshold_scales_with_resolution(self):
        # The term's samples sum to 500.5, so this weight gives a sample sum of
        # 7.5e-10, under 1e-12 per sample (1.001e-9 at SAMPLES = 1001), though
        # the integral (1.5e-12) clears 1e-12.
        a = LinguisticVariable("a", 0.0, 1.0, (("a0", triangular(0.0, 0.0, 1.0)),))
        b = LinguisticVariable("b", 0.0, 1.0, (("b0", triangular(0.0, 0.0, 1.0)),))
        out = LinguisticVariable("out", 0.0, 2.0, (("out0", triangular(0.0, 0.0, 2.0)),))
        rule = Rule((("a", "a0"),), "out0", AND, 1.5e-12)
        system = FuzzySystem("thin", (a, b), out, (rule,))
        with pytest.raises(EmptyAggregate, match="integrates to ~0"):
            system.infer(0.0, 0.0)
        assert_same_as_seed(system, 0.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(general_systems())
    def test_term_centroids_bit_identical(self, system):
        for term in system.output.term_names():
            try:
                expected = term_centroid_seed(system, term)
            except EmptyAggregate:
                with pytest.raises(EmptyAggregate):
                    system.term_centroid(term)
                continue
            assert system.term_centroid(term).hex() == expected.hex()

    @pytest.mark.parametrize("guard", ["overcharge_guard", "depletion_guard"])
    def test_guards_bit_identical_on_grid(self, ems, guard):
        system = getattr(ems, guard)
        # i / 40 is exact at the corners and at every input breakpoint.
        grid = [i / 40 for i in range(41)]
        for x1 in grid:
            for x2 in grid:
                assert_same_as_seed(system, x1, x2)
