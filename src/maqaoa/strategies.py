"""Angle initialization and post-processing strategies.

`_START_RULES` is the benchmark's table of five strategies: for each kind,
the rule that gives its start angles, and whether BFGS runs from them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .graphs import Graph, max_cut, max_degree_incidence
from .optimizer import optimize_angles
from .records import STRATEGY_KINDS, ExperimentRecord
from .simulator import AngleVector, expectation, run_circuit

PI8 = math.pi / 8
PI8_TOLERANCE = 5e-4


def normalize_angle(values) -> np.ndarray:
    """Map angles to [-pi, pi), elementwise; +pi lands on -pi.

    A scalar angle gives a numpy.float64, which is a Python float.
    """
    values = np.asarray(values, dtype=np.float64)
    out = values - 2.0 * np.pi * np.floor((values + np.pi) / (2.0 * np.pi))
    # just below an odd multiple of pi, values + pi can round up to the next
    # multiple of 2 pi, and the floor then steps one turn too far
    return np.where(out < -np.pi, out + 2.0 * np.pi, out)[()]


def round_to_pi8(values) -> np.ndarray:
    """Nearest multiples of pi/8, elementwise; halfway points round away from zero."""
    k = np.asarray(values, dtype=np.float64) / PI8
    # integer step counts, so that angles just below zero snap to 0.0, not
    # -0.0; a non-finite angle raises instead of casting to garbage
    with np.errstate(invalid="raise"):
        steps = np.where(k >= 0, np.floor(k + 0.5), np.ceil(k - 0.5)).astype(np.int64)
    return steps * PI8


def pi8_multiples(values) -> np.ndarray:
    """Elementwise: is the normalized angle within PI8_TOLERANCE of a pi/8 multiple?"""
    t = normalize_angle(values)
    return np.abs(t - round_to_pi8(t)) < PI8_TOLERANCE


def normalize_angles(angles: AngleVector) -> AngleVector:
    return AngleVector(normalize_angle(angles.gamma), normalize_angle(angles.beta))


def round_angles(angles: AngleVector) -> AngleVector:
    """Normalize then snap every angle to its nearest pi/8 multiple."""
    norm = normalize_angles(angles)
    return AngleVector(round_to_pi8(norm.gamma), round_to_pi8(norm.beta))


def init_uniform_random(g: Graph, p: int, seed: int) -> AngleVector:
    """Every angle independently uniform on [-pi, pi)."""
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(-np.pi, np.pi, size=(p, g.edge_count))
    beta = rng.uniform(-np.pi, np.pi, size=(p, g.n))
    return AngleVector(gamma, beta)


def init_random_pi8(g: Graph, p: int, seed: int) -> AngleVector:
    """Every angle uniform over the 17 multiples k*pi/8, k in [-8, 8].

    k = -8 and k = 8 are both pi mod 2*pi, so a normalized start holds -pi
    with probability 2/17, each other pi/8 multiple in [-pi, pi) with 1/17,
    and never +pi.
    """
    rng = np.random.default_rng(seed)
    gamma = rng.integers(-8, 9, size=(p, g.edge_count)) * PI8
    beta = rng.integers(-8, 9, size=(p, g.n)) * PI8
    return AngleVector(gamma, beta)


def init_max_degree_zero(g: Graph, p: int, seed: int) -> AngleVector:
    """Random pi/8 start with all angles at maximum-degree vertices zeroed.

    For every maximum-degree vertex v and every layer, beta_v and the gamma
    of each edge incident to v are set to zero.
    """
    angles = init_random_pi8(g, p, seed)
    hits, top = max_degree_incidence(g)
    angles.gamma[:, hits > 0] = 0.0
    angles.beta[:, top] = 0.0
    return angles


def _round_prior(
    g: Graph, p: int, seed: int, prior: ExperimentRecord | None
) -> AngleVector:
    if prior is None:
        raise ValueError("rounded_no_opt needs the prior normal record")
    if prior.p != p or prior.n != g.n or prior.edge_count != g.edge_count:
        raise ValueError("prior record does not match this graph and depth")
    return round_angles(prior.angle_vector())


def _seeded(init):
    """A start rule that draws from the cell's seed alone."""
    return lambda g, p, seed, prior: init(g, p, seed)


# kind -> (start rule (g, p, seed, prior) -> angles, whether BFGS runs from it);
# a kind without BFGS is evaluated at its start as-is
_START_RULES = {
    # uniform random angles in [-pi, pi)
    "normal": (_seeded(init_uniform_random), True),
    # the cell's normal result snapped to pi/8 multiples
    "rounded_no_opt": (_round_prior, False),
    # random pi/8 multiples
    "random_pi8_opt": (_seeded(init_random_pi8), True),
    # random pi/8 multiples, zero at every maximum-degree vertex
    "max_degree_zero_no_opt": (_seeded(init_max_degree_zero), False),
    "max_degree_zero_opt": (_seeded(init_max_degree_zero), True),
}


def run_strategy(
    g: Graph,
    kind: str,
    p: int,
    seed: int,
    prior: ExperimentRecord | None = None,
    replicate: int = 0,
) -> ExperimentRecord:
    """Execute one strategy on one graph and package the outcome.

    `prior` is the normal record of the same cell, which rounded_no_opt
    rounds; the other kinds ignore it. Approximation ratios divide the
    expected cut by the exact MaxCut value; an edgeless graph counts as
    ratio 1. Stored angles are normalized to [-pi, pi). Non-optimizing
    strategies report zero iterations and a single evaluation.
    """
    if kind not in STRATEGY_KINDS:
        raise ValueError(f"unknown strategy {kind!r}")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    start_rule, optimizes = _START_RULES[kind]
    start_time = time.perf_counter()
    best = max_cut(g)

    def ratio(value: float) -> float:
        return value / best if best else 1.0

    start = start_rule(g, p, seed, prior)
    if optimizes:
        result = optimize_angles(g, start)
        final = result.final_angles
        initial_value = result.trace[0]
        final_value = result.final_value
        iterations = result.iterations
        evaluations = result.function_evaluations
        converged = result.converged
    else:
        final = start
        final_value = expectation(g, run_circuit(g, start))
        initial_value = final_value
        iterations = 0
        evaluations = 1
        converged = True

    elapsed = time.perf_counter() - start_time
    return ExperimentRecord(
        graph_id=g.id,
        n=g.n,
        edge_count=g.edge_count,
        edges=g.edges,
        p=p,
        strategy=kind,
        replicate=replicate,
        seed=seed,
        initial_ar=ratio(initial_value),
        final_ar=ratio(final_value),
        final_angles=tuple(normalize_angle(final.flatten()).tolist()),
        iterations=iterations,
        function_evaluations=evaluations,
        converged=converged,
        wall_time=elapsed,
    )
