"""BFGS maximization with a strong Wolfe line search.

Self-contained quasi-Newton loop over a joint value-and-gradient oracle.
Internally the objective is negated and minimized; the inverse Hessian
approximation starts as the identity and follows the standard two-sided BFGS
update. Updates are skipped when the curvature s'y is not safely positive.

The line search doubles its step until a bracket has a far end, then zooms
with safeguarded quadratic interpolation and a bisection fallback, accepting
only points that satisfy both strong Wolfe conditions, so every accepted step
strictly improves the objective.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Generic, TypeVar

import numpy as np

from .errors import NumericalError
from .simulator import AngleVector, expectation_and_gradient

#: A run converges once the gradient's infinity norm drops below this.
GRADIENT_TOLERANCE = 1e-6
# strong Wolfe constants, the standard quasi-Newton values (Nocedal & Wright,
# Numerical Optimization, section 3.1)
_C1 = 1e-4
_C2 = 0.9
_MAX_LINE_SEARCH_STEPS = 50  # objective evaluations per line search
_CURVATURE_SKIP = 1e-10

Point = TypeVar("Point")


@dataclass(frozen=True)
class OptimizerConfig:
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class OptimizationResult(Generic[Point]):
    """Outcome of a maximization run.

    final_angles is the best point reached: a flat array from bfgs_maximize
    and an AngleVector from optimize_angles. The trace lists the objective
    value at the start point and after every accepted iteration, so it is
    non-decreasing.
    """

    final_angles: Point
    final_value: float
    iterations: int
    function_evaluations: int
    #: why the run stopped: "gradient_tol", "max_iterations" or
    #: "line_search_failed"
    stop_reason: str
    trace: list[float] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """True when the gradient's infinity norm fell below GRADIENT_TOLERANCE."""
        return self.stop_reason == "gradient_tol"


def _quad_min(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa) with slope fpa and (b, fb),
    or None where it is undefined: a zero-width bracket or zero curvature.

    The arguments are Python floats, whose division by zero raises.
    """
    try:
        db = b - a
        B = (fb - fa - fpa * db) / (db * db)
        xmin = a - fpa / (2.0 * B)
    except ZeroDivisionError:
        return None
    return xmin if math.isfinite(xmin) else None


def _line_search(line, phi0, derphi0, alpha1):
    """Strong Wolfe line search (Nocedal & Wright, Algorithms 3.5 and 3.6).

    line maps a step length alpha to (value, slope, gradient) at that point
    of the search line. Returns (alpha, value, gradient), or None when no
    acceptable step was found within _MAX_LINE_SEARCH_STEPS evaluations,
    which the doubling phase and the zoom share, or when the bracket
    collapses to a single point.

    One loop runs both: the doubling phase is the zoom before the bracket
    has a far end (a_hi is None), stepping to alpha1 and then twice a_lo.
    """
    calls = 0
    # a_lo holds the lowest value seen that meets the decrease condition;
    # a_hi, once it exists, is the bracket's far end, on either side of a_lo
    a_lo = 0.0
    phi_lo = phi0
    derphi_lo = derphi0
    a_hi = phi_hi = None
    while calls < _MAX_LINE_SEARCH_STEPS:
        if a_hi is None:
            alpha = 2.0 * a_lo if calls else alpha1
        else:
            # the quadratic interpolant's minimizer, or the midpoint when that
            # is undefined or within a tenth of the width of either end
            dalpha = a_hi - a_lo
            if dalpha == 0:
                return None
            a, b = (a_lo, a_hi) if dalpha > 0 else (a_hi, a_lo)
            qchk = 0.1 * (b - a)
            alpha = _quad_min(a_lo, phi_lo, derphi_lo, a_hi, phi_hi)
            if alpha is None or alpha > b - qchk or alpha < a + qchk:
                alpha = a_lo + 0.5 * dalpha
        calls += 1
        phi_a, derphi_a, grad_a = line(alpha)
        # the first step answers to the decrease condition alone: near
        # convergence its value can round to phi0 and still meet it
        if phi_a > phi0 + _C1 * alpha * derphi0 or (phi_a >= phi_lo and calls > 1):
            a_hi = alpha
            phi_hi = phi_a
            continue
        if abs(derphi_a) <= -_C2 * derphi0:
            return alpha, phi_a, grad_a
        # a_lo becomes the far end once the slope at alpha points back
        # towards it; before a bracket exists, once the slope turns upward
        if derphi_a * (1.0 if a_hi is None else a_hi - a_lo) >= 0:
            a_hi = a_lo
            phi_hi = phi_lo
        a_lo = alpha
        phi_lo = phi_a
        derphi_lo = derphi_a
    return None


def bfgs_maximize(
    objective, start, config: OptimizerConfig | None = None
) -> OptimizationResult[np.ndarray]:
    """Maximize a smooth function with BFGS.

    Args:
        objective: callable mapping a flat float array to
            (value, gradient), both for the function being maximized.
        start: initial parameter vector.
        config: the iteration cap.

    Returns:
        OptimizationResult whose final_angles field holds the flat
        parameter array of the best point reached. stop_reason says why the
        run ended; converged is True only when the gradient infinity norm
        dropped below GRADIENT_TOLERANCE.
    """
    cfg = config or OptimizerConfig()
    calls = 0

    def neg(z):
        nonlocal calls
        calls += 1
        value, grad = objective(z)
        grad = np.asarray(grad, dtype=np.float64)
        # grad . grad is finite when every entry is, and a nan or an infinity
        # in it raises no numpy warning; it overflows, with a warning, only
        # past a norm of 1e154, where the loop's own dots overflow too
        if not math.isfinite(value) or not (math.isfinite(grad.dot(grad)) or np.isfinite(grad).all()):
            raise NumericalError(f"non-finite objective output at point {z!r}")
        return -float(value), -grad

    x = np.array(start, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("start point must have at least one parameter")
    f, g = neg(x)
    trace = [-f]
    H = np.eye(x.size)
    stop_reason = "max_iterations"
    iterations = 0
    # seed for the first step-length guess, mirroring a common heuristic
    old_f = f + math.sqrt(g @ g) / 2

    for _ in range(cfg.max_iterations):
        if np.abs(g).max() < GRADIENT_TOLERANCE:
            stop_reason = "gradient_tol"
            break
        direction = -(H @ g)
        derphi0 = float(np.dot(g, direction))
        if derphi0 >= 0:
            # numerical loss of positive definiteness: restart from identity
            H = np.eye(x.size)
            direction = -g
            derphi0 = -float(np.dot(g, g))
        guess = 1.01 * 2 * (f - old_f) / derphi0
        alpha1 = min(1.0, guess) if guess > 0 else 1.0

        def line(alpha):
            phi, grad = neg(x + alpha * direction)
            return phi, float(np.dot(grad, direction)), grad

        found = _line_search(line, f, derphi0, alpha1)
        if found is None:
            stop_reason = "line_search_failed"
            break
        alpha, f_new, g_new = found
        s = alpha * direction
        y = g_new - g
        iterations += 1
        sy = float(np.dot(s, y))
        if sy > _CURVATURE_SKIP * math.sqrt(s @ s) * math.sqrt(y @ y):
            Hy = H @ y
            rho = 1.0 / sy
            column = s[:, None]
            H -= rho * (column * Hy + Hy[:, None] * s)
            H += (rho * rho * float(np.dot(y, Hy)) + rho) * (column * s)
        old_f = f
        x = x + s
        f = f_new
        g = g_new
        trace.append(-f)

    return OptimizationResult(
        final_angles=x,
        final_value=-f,
        iterations=iterations,
        function_evaluations=calls,
        stop_reason=stop_reason,
        trace=trace,
    )


def optimize_angles(
    g, start: AngleVector, config: OptimizerConfig | None = None
) -> OptimizationResult[AngleVector]:
    """Maximize the expected cut of the circuit on graph g over its angles.

    Parameters are unconstrained; periodicity makes any representative
    equivalent. The result's final_angles is an AngleVector with the same
    shape as the start point.
    """
    p = start.p
    m = g.edge_count
    nv = g.n

    def objective(flat):
        # unchecked views of a point shaped like the validated start: the
        # optimizer never writes to a point it has evaluated, it only builds
        # new ones, and the oracle never writes its angles
        layers = flat.reshape(p, m + nv)
        return expectation_and_gradient(g, AngleVector._unchecked(layers[:, :m], layers[:, m:]))

    result = bfgs_maximize(objective, start.flatten(), config)
    final = AngleVector.unflatten(result.final_angles, p, m, nv)
    return dataclasses.replace(result, final_angles=final)
