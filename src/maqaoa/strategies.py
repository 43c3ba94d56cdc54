"""Angle initialization and post-processing strategies.

Five named strategies cover the benchmark:

* normal: uniform random start in [-pi, pi), then BFGS.
* rounded_no_opt: snap a prior normal result to pi/8 multiples, no
  re-optimization.
* random_pi8_opt: random pi/8 multiples as the start, then BFGS.
* max_degree_zero_no_opt: random pi/8 multiples, but every angle touching a
  maximum-degree vertex (its beta and all incident gammas, every layer) is
  zero; evaluated as-is.
* max_degree_zero_opt: same start, then BFGS.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, max_cut, max_degree_vertices
from .optimizer import optimize_angles
from .records import ExperimentRecord
from .simulator import AngleVector, expectation, run_circuit

PI8 = math.pi / 8
PI8_TOLERANCE = 5e-4

STRATEGY_KINDS = (
    "normal",
    "rounded_no_opt",
    "random_pi8_opt",
    "max_degree_zero_no_opt",
    "max_degree_zero_opt",
)

_OPTIMIZING = {"normal", "random_pi8_opt", "max_degree_zero_opt"}


@dataclass(frozen=True)
class StrategySpec:
    kind: str
    seed: int
    p: int

    def __post_init__(self) -> None:
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")

    @property
    def requires_prior(self) -> bool:
        return self.kind == "rounded_no_opt"


def normalize_angle(theta: float) -> float:
    """Map an angle to [-pi, pi); +pi lands on -pi."""
    return float(_normalize_array(theta))


def _normalize_array(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return values - 2.0 * np.pi * np.floor((values + np.pi) / (2.0 * np.pi))


def _round_to_pi8_array(values: np.ndarray) -> np.ndarray:
    """Nearest multiples of pi/8; exact halfway points round away from zero."""
    k = np.asarray(values, dtype=np.float64) / PI8
    # integer step counts, so that angles just below zero snap to 0.0, not
    # -0.0; a non-finite angle raises instead of casting to garbage
    with np.errstate(invalid="raise"):
        steps = np.where(k >= 0, np.floor(k + 0.5), np.ceil(k - 0.5)).astype(np.int64)
    return steps * PI8


def round_to_pi8(theta: float) -> float:
    """Nearest multiple of pi/8; exact halfway points round away from zero."""
    return float(_round_to_pi8_array(theta))


def is_multiple_of_pi8(theta: float, tolerance: float = PI8_TOLERANCE) -> bool:
    """True when the normalized angle sits within tolerance of a pi/8 multiple."""
    t = normalize_angle(theta)
    return abs(t - round_to_pi8(t)) < tolerance


def normalize_angles(angles: AngleVector) -> AngleVector:
    return AngleVector(_normalize_array(angles.gamma), _normalize_array(angles.beta))


def round_angles(angles: AngleVector) -> AngleVector:
    """Normalize then snap every angle to its nearest pi/8 multiple."""
    norm = normalize_angles(angles)
    return AngleVector(_round_to_pi8_array(norm.gamma), _round_to_pi8_array(norm.beta))


def init_uniform_random(g: Graph, p: int, seed: int) -> AngleVector:
    """Every angle independently uniform on [-pi, pi)."""
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(-np.pi, np.pi, size=(p, g.edge_count))
    beta = rng.uniform(-np.pi, np.pi, size=(p, g.n))
    return AngleVector(gamma, beta)


def init_random_pi8(g: Graph, p: int, seed: int) -> AngleVector:
    """Every angle uniform over the 17 multiples k*pi/8, k in [-8, 8]."""
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
    gamma = angles.gamma.copy()
    beta = angles.beta.copy()
    tops = set(max_degree_vertices(g))
    for v in tops:
        beta[:, v] = 0.0
    for k, (u, v) in enumerate(g.edges):
        if u in tops or v in tops:
            gamma[:, k] = 0.0
    return AngleVector(gamma, beta)


def _prior_angles(g: Graph, p: int, prior: ExperimentRecord | None) -> AngleVector:
    if prior is None:
        raise ValueError("rounded_no_opt needs the prior normal record")
    if prior.p != p or prior.n != g.n or prior.edge_count != g.edge_count:
        raise ValueError("prior record does not match this graph and depth")
    return prior.angle_vector()


def run_strategy(
    g: Graph,
    spec: StrategySpec,
    prior: ExperimentRecord | None = None,
    replicate: int = 0,
) -> ExperimentRecord:
    """Execute one strategy on one graph and package the outcome.

    Approximation ratios divide the expected cut by the exact MaxCut value;
    an edgeless graph counts as ratio 1. Stored angles are normalized to
    [-pi, pi). Non-optimizing strategies report zero iterations and a single
    evaluation.
    """
    start_time = time.perf_counter()
    best = max_cut(g)

    def ratio(value: float) -> float:
        return value / best if best else 1.0

    kind = spec.kind
    if kind in _OPTIMIZING:
        if kind == "normal":
            start = init_uniform_random(g, spec.p, spec.seed)
        elif kind == "random_pi8_opt":
            start = init_random_pi8(g, spec.p, spec.seed)
        else:
            start = init_max_degree_zero(g, spec.p, spec.seed)
        result = optimize_angles(g, start)
        final = normalize_angles(result.final_angles)
        initial_value = result.trace[0]
        final_value = result.final_value
        iterations = result.iterations
        evaluations = result.function_evaluations
        converged = result.converged
    else:
        if kind == "rounded_no_opt":
            angles = round_angles(_prior_angles(g, spec.p, prior))
        else:  # max_degree_zero_no_opt
            angles = init_max_degree_zero(g, spec.p, spec.seed)
        final = normalize_angles(angles)
        final_value = expectation(g, run_circuit(g, angles))
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
        p=spec.p,
        strategy=kind,
        replicate=replicate,
        seed=spec.seed,
        initial_ar=ratio(initial_value),
        final_ar=ratio(final_value),
        final_angles=tuple(float(a) for a in final.flatten()),
        iterations=iterations,
        function_evaluations=evaluations,
        converged=converged,
        wall_time=elapsed,
    )
