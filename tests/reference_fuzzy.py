"""Brute-force reference for the fuzzy pipeline, kept independent of the
package implementation: membership functions are evaluated vectorially from
their breakpoints, every rule contributes its own scaled consequent, and the
centroid comes from plain Riemann summation on a fine grid.

A second reference, ``infer_sampled_seed``, keeps the package's original
sampled inference so the compiled one can be checked to the bit."""

import numpy as np

from nanogrid_ems.errors import EmptyAggregate
from nanogrid_ems.fuzzy import SAMPLES

from fis_dump import term

FINE_SAMPLES = 1_000_000


def membership_curve(points, xs):
    pts = tuple(points)
    if len(pts) == 3:
        a, b, c = pts
        top_lo = top_hi = b
        d = c
    else:
        a, top_lo, top_hi, d = pts
    out = np.zeros_like(xs)
    if top_lo > a:
        rising = (xs >= a) & (xs < top_lo)
        out[rising] = (xs[rising] - a) / (top_lo - a)
    if d > top_hi:
        falling = (xs > top_hi) & (xs <= d)
        out[falling] = (d - xs[falling]) / (d - top_hi)
    out[(xs >= top_lo) & (xs <= top_hi)] = 1.0
    return out


def membership_at(points, x):
    return float(membership_curve(points, np.array([float(x)]))[0])


def infer_reference(system, x1, x2, samples=FINE_SAMPLES):
    """Crisp output of the same rule semantics on a fine Riemann grid."""
    in1, in2 = system.inputs
    degrees = {
        in1.name: {t: membership_at(mf.points, x1) for t, mf in in1.terms},
        in2.name: {t: membership_at(mf.points, x2) for t, mf in in2.terms},
    }
    xs = np.linspace(system.output.lo, system.output.hi, samples, endpoint=False)
    aggregate = np.zeros_like(xs)
    fired_any = False
    for rule in system.rules:
        clause = [degrees[var][term] for var, term in rule.antecedent]
        activation = min(clause) if rule.connective == "and" else max(clause)
        strength = rule.weight * activation
        if strength <= 0.0:
            continue
        fired_any = True
        curve = membership_curve(term(system.output, rule.consequent).points, xs)
        np.maximum(aggregate, strength * curve, out=aggregate)
    if not fired_any:
        raise ArithmeticError("reference aggregate is empty")
    total = aggregate.sum()
    if total == 0.0:
        raise ArithmeticError("reference aggregate is empty")
    return float((xs * aggregate).sum() / total)


def calibrated_shift_reference(system, bound, x1, x2, samples=FINE_SAMPLES):
    """Reference for the calibrated guard output."""
    xs = np.linspace(system.output.lo, system.output.hi, samples, endpoint=False)
    zero_curve = membership_curve(term(system.output, "zero").points, xs)
    large_curve = membership_curve(term(system.output, "large").points, xs)
    c0 = float((xs * zero_curve).sum() / zero_curve.sum())
    c1 = float((xs * large_curve).sum() / large_curve.sum())
    raw = infer_reference(system, x1, x2, samples)
    frac = (raw - c0) / (c1 - c0)
    return bound * min(1.0, max(0.0, frac))


# -- the package's original sampled inference, kept as a second reference --
#
# Verbatim copies of the package's original dict-and-numpy ``mf_eval``,
# ``fuzzify``, sampling, ``term_centroid`` and ``infer``.  The compiled
# ``FuzzySystem`` must agree with them to the bit.  Only the empty-aggregate
# test differs from the original: like the package's, it compares the sample
# sum with a share of the sample count, not the integral with an absolute floor.

_EMPTY_INTEGRAL = 1e-12
# (system, xs, term values, term centroids) of the last system sampled.
_seed_cache = None


def _mf_eval_seed(mf, x):
    pts = mf.points
    if len(pts) == 3:
        left, top_lo, right = pts
        top_hi = top_lo
    else:
        left, top_lo, top_hi, right = pts
    if x < left or x > right:
        return 0.0
    if top_lo <= x <= top_hi:
        return 1.0
    if x < top_lo:
        return (x - left) / (top_lo - left)
    return (right - x) / (right - top_hi)


def _fuzzify_seed(var, x):
    return {t: _mf_eval_seed(mf, x) for t, mf in var.terms}


def _sampled_seed(system):
    global _seed_cache
    if _seed_cache is None or _seed_cache[0] is not system:
        n = SAMPLES
        dx = (system.output.hi - system.output.lo) / n
        xs = system.output.lo + (np.arange(n, dtype=float) + 0.5) * dx
        term_values = {
            term: np.array([_mf_eval_seed(mf, float(x)) for x in xs])
            for term, mf in system.output.terms
        }
        _seed_cache = (system, xs, term_values, {})
    return _seed_cache[1:]


def term_centroid_seed(system, term):
    xs, term_values, term_centroids = _sampled_seed(system)
    if term not in term_centroids:
        values = term_values[term]
        mass = float(values.sum())
        if mass <= 0.0:
            raise EmptyAggregate(
                f"term {term!r} of {system.name!r} has no mass on the sample grid"
            )
        term_centroids[term] = float(np.dot(xs, values) / mass)
    return term_centroids[term]


def infer_sampled_seed(system, x1, x2):
    xs, term_values, _ = _sampled_seed(system)
    in1, in2 = system.inputs
    degrees = {
        in1.name: _fuzzify_seed(in1, x1),
        in2.name: _fuzzify_seed(in2, x2),
    }
    strengths = {}
    for rule in system.rules:
        clause = [degrees[var][term] for var, term in rule.antecedent]
        activation = min(clause) if rule.connective == "and" else max(clause)
        fired = rule.weight * activation
        if fired > strengths.get(rule.consequent, 0.0):
            strengths[rule.consequent] = fired

    active = [(t, s) for t, s in strengths.items() if s > 0.0]
    if not active:
        raise EmptyAggregate(f"no rule of {system.name!r} fired at ({x1}, {x2})")

    if len(active) == 1:
        term, strength = active[0]
        values = term_values[term]
        if strength * float(values.sum()) < _EMPTY_INTEGRAL * SAMPLES:
            raise EmptyAggregate(
                f"aggregate of {system.name!r} integrates to ~0 at ({x1}, {x2})"
            )
        return term_centroid_seed(system, term)

    aggregate = None
    for term, strength in active:
        scaled = strength * term_values[term]
        if aggregate is None:
            aggregate = scaled
        else:
            np.maximum(aggregate, scaled, out=aggregate)

    total = float(aggregate.sum())
    if total < _EMPTY_INTEGRAL * SAMPLES:
        raise EmptyAggregate(
            f"aggregate of {system.name!r} integrates to ~0 at ({x1}, {x2})"
        )
    return float(np.dot(xs, aggregate) / total)
