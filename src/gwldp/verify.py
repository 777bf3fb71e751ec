"""The source paper's identities as named checks over fixed laws and grids.

Each entry of ``CHECKS`` maps a check name to (pairs, tolerance, note):
``pairs()`` yields (value, expected) over the check's laws and grids, the
tolerance is the default bound on their worst deviation, and the note says
what the check covers.  A property that must hold, such as an infinite rate
past a bracket, is a pair whose expected value is +inf, so any finite value
fails it.
"""

from __future__ import annotations

import math

import numpy as np

from . import offspring as off
from . import progeny as prog
from . import ratefn

# the paper's running example: f = Bernoulli(1/2), g = {1: 1/2, 2: 1/2}
F_SPEC = {"family": "bernoulli", "params": {"p": 0.5}}
G_SPEC = {"family": "explicit", "params": {"probs": [[1, 0.5], [2, 0.5]]}}
_CHILDLESS = {0: 1.0}


def _running_model(f: off.Pmf | None = None) -> prog.ProgenyModel:
    return prog.build_model(f or off.pmf_from_spec(F_SPEC),
                            off.pmf_from_spec(G_SPEC))


def _prop1():
    laws = [
        off.pmf_from_family("bernoulli", {"p": 0.3}),
        off.pmf_from_family("bernoulli", {"p": 0.5}),
        off.pmf_from_family("geometric", {"a": 0.3}, truncation_K=40),
        off.pmf_from_family("poisson", {"lambda": 0.6}, truncation_K=40),
    ]
    for f in laws:
        for y in np.linspace(1.05, 6.0, 60).tolist():
            yield (ratefn.rate_progeny_direct(f, y).value,
                   ratefn.rate_progeny_closed(f, y).value)


def _prop2():
    model = _running_model()
    grid = np.linspace(1.0, 6.0, 22)[1:-1]
    for y in grid.tolist():
        for z in grid[grid < y].tolist():
            yield (ratefn.rate_bivariate_oracle(model, y, z).value,
                   ratefn.rate_bivariate(model, y, z).value)
    yield ratefn.rate_bivariate_oracle(model, 3.0, 1.5).value, 0.0


def _prop3():
    model = _running_model()
    for x in np.linspace(0.0, 0.9, 40).tolist():
        yield (ratefn.ratio_rate_via_contraction(model, x).value,
               ratefn.rate_estimator_ratio(model, x).value)


def _two_point_entropy(z: float) -> float:
    # relative entropy of (2-z, z-1) against the fair two-point law
    if not 1.0 <= z <= 2.0:
        return math.inf
    return sum(w * math.log(2.0 * w) for w in (2.0 - z, z - 1.0) if w > 0.0)


def _prop4():
    model = _running_model(off.pmf_from_dict(_CHILDLESS))
    for x in np.linspace(-0.5, 0.95, 30).tolist():
        yield (ratefn.rate_estimator_meaninit(model, x).value,
               _two_point_entropy(model.mu_g / (1.0 - x)))
    yield ratefn.rate_estimator_meaninit(model, -0.5).value, math.log(2.0)
    for x in (-0.6, -1.0, -5.0):
        yield ratefn.rate_estimator_meaninit(model, x).value, math.inf


def _corollary1():
    model = _running_model()
    xs = np.linspace(0.0, 0.975, 40)
    for row in ratefn.compare_rates(model, xs):
        if not row.leq_ok:
            yield row.j_random, row.j_diamond
        gap = row.j_diamond - row.j_random
        if abs(row.x - model.mu_f) > 1e-12:
            # strict away from the mean: a gap of at most 1e-9 is equality
            yield (math.inf if gap > 1e-9 else 0.0), math.inf
        elif gap > 1e-9:
            yield gap, 0.0
    det_model = prog.build_model(model.f, off.pmf_from_dict({2: 1.0}))
    for row in ratefn.compare_rates(det_model, xs):
        yield row.j_random, row.j_diamond


def _remark6():
    f = off.pmf_from_dict(_CHILDLESS)
    model = _running_model(f)
    for x in np.linspace(0.0, 0.95, 20).tolist():
        j = ratefn.rate_estimator_ratio(model, x).value
        yield j, ratefn.rate_offspring(f, x).value
        yield j, ratefn.rate_estimator_deterministic(f, 1.5, x).value


CHECKS = {
    "prop1": (_prop1, 1e-6, "4 laws x 60 grid points on [1.05, 6]"),
    "prop2": (_prop2, 1e-5, "20x20 interior grid, zero at the joint mean"),
    "prop3_contraction": (
        _prop3, 1e-6, "contraction vs closed form on 40 points of [0, 0.9]"),
    "prop4_bracket": (
        _prop4, 1e-9,
        "childless offspring law collapses to I_g on the finite bracket"),
    "corollary1": (
        _corollary1, 1e-10,
        "Jensen ordering with equality only at the offspring mean"),
    "remark6": (
        _remark6, 1e-9, "no-offspring law: ratio rate equals the offspring "
        "rate and the deterministic-start rate"),
}


def worst_deviation(name: str) -> float:
    """Largest |value - expected| over the pairs of check ``name``, where a
    matching pair of infinities agrees exactly."""
    worst = 0.0
    for value, expected in CHECKS[name][0]():
        if not (math.isinf(value) and math.isinf(expected)):
            worst = max(worst, abs(value - expected))
    return worst
