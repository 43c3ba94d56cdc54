import numpy as np
import pytest
from scipy.optimize import minimize

from maqaoa import (
    AngleVector,
    NumericalError,
    OptimizerConfig,
    bfgs_maximize,
    expectation,
    expectation_and_gradient,
    optimize_angles,
    run_circuit,
)
from maqaoa.optimizer import GRADIENT_TOLERANCE, _line_search, _quad_min
from conftest import random_angles


def neg_quadratic(A, b):
    """Objective maximizing -(1/2 x'Ax - b'x); optimum at A^{-1} b."""

    def objective(x):
        return -(0.5 * x @ A @ x - b @ x), -(A @ x - b)

    return objective


def neg_rosenbrock(z):
    x, y = z
    f = (1 - x) ** 2 + 100 * (y - x * x) ** 2
    gx = -2 * (1 - x) - 400 * x * (y - x * x)
    gy = 200 * (y - x * x)
    return -f, -np.array([gx, gy])


# ----- config -----

def test_config_defaults():
    cfg = OptimizerConfig()
    assert cfg.max_iterations == 1000


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)


# ----- scalar and classic benchmarks -----

def test_one_dimensional_quadratic():
    result = bfgs_maximize(
        lambda x: (-((x[0] - 3.0) ** 2), np.array([-2 * (x[0] - 3.0)])),
        np.zeros(1),
    )
    assert result.converged
    assert abs(result.final_angles[0] - 3.0) < 1e-6
    assert abs(result.final_value) < 1e-10
    assert result.iterations <= 3


def test_rosenbrock():
    result = bfgs_maximize(neg_rosenbrock, np.array([-1.2, 1.0]))
    assert result.converged
    np.testing.assert_allclose(result.final_angles, [1.0, 1.0], atol=1e-4)
    assert abs(result.final_value) < 1e-8


def test_concave_quadratics_converge_fast():
    # on a d-dimensional strictly concave quadratic BFGS converges with no
    # more oracle calls than scipy's textbook BFGS at the same tolerance
    for d in (2, 4, 8, 12):
        for trial in range(5):
            rng = np.random.default_rng(1000 * d + trial)
            M = rng.normal(size=(d, d))
            A = M @ M.T + np.eye(d)
            b = rng.normal(size=d)
            x0 = rng.normal(size=d)
            objective = neg_quadratic(A, b)
            result = bfgs_maximize(objective, x0)
            assert result.converged, f"d={d} trial={trial}"
            assert result.stop_reason == "gradient_tol"

            def neg(x):
                value, grad = objective(x)
                return -value, -grad

            reference = minimize(
                neg, x0, jac=True, method="BFGS",
                options={"gtol": GRADIENT_TOLERANCE, "norm": np.inf},
            )
            assert result.function_evaluations <= reference.nfev, (
                f"d={d} trial={trial}: {result.function_evaluations} calls,"
                f" scipy {reference.nfev}"
            )
            np.testing.assert_allclose(
                result.final_angles, np.linalg.solve(A, b), atol=1e-5
            )


# ----- result contract -----

def test_start_at_optimum_returns_immediately():
    result = bfgs_maximize(
        lambda x: (-(x[0] ** 2), np.array([-2 * x[0]])), np.zeros(1)
    )
    assert result.converged
    assert result.iterations <= 2
    assert abs(result.final_value) < 1e-8


def test_trace_monotone_and_consistent(triangle):
    start = random_angles(triangle, 2, seed=21)
    result = optimize_angles(triangle, start)
    assert len(result.trace) == result.iterations + 1
    diffs = np.diff(result.trace)
    assert (diffs >= -1e-12).all()
    assert abs(result.trace[-1] - result.final_value) < 1e-12


def test_final_value_matches_reevaluation(c4):
    for p in (1, 2):
        result = optimize_angles(c4, random_angles(c4, p, seed=22))
        direct = expectation(c4, run_circuit(c4, result.final_angles))
        assert abs(result.final_value - direct) < 1e-10


def test_converged_implies_small_gradient(path4):
    result = optimize_angles(path4, random_angles(path4, 1, seed=23))
    assert result.converged
    _, grad = expectation_and_gradient(path4, result.final_angles)
    assert np.max(np.abs(grad)) < GRADIENT_TOLERANCE


def test_k2_reaches_exact_optimum(k2):
    for seed in range(5):
        result = optimize_angles(k2, random_angles(k2, 1, seed=30 + seed))
        assert result.converged
        assert abs(result.final_value - 1.0) < 1e-6


def test_optimize_angles_preserves_shape(star4):
    start = random_angles(star4, 3, seed=24)
    result = optimize_angles(star4, start)
    assert isinstance(result.final_angles, AngleVector)
    assert result.final_angles.gamma.shape == start.gamma.shape
    assert result.final_angles.beta.shape == start.beta.shape


def test_monotone_improvement(four_vertex_graphs):
    for g in four_vertex_graphs[:3]:
        start = random_angles(g, 2, seed=25)
        initial = expectation(g, run_circuit(g, start))
        result = optimize_angles(g, start)
        assert result.final_value >= initial - 1e-12


# ----- failure modes -----

def test_non_finite_objective_raises():
    def bad(x):
        return float("nan"), np.zeros_like(x)

    with pytest.raises(NumericalError):
        bfgs_maximize(bad, np.ones(2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_gradient_raises_at_the_start_and_on_the_line(bad):
    """A non-finite gradient entry raises at the start point, and at a
    line-search point where the search direction is zero in that entry."""
    def at_start(x):
        return 0.0, np.array([1.0, bad])

    with pytest.raises(NumericalError):
        bfgs_maximize(at_start, np.zeros(2))

    def on_the_line(x):
        # the gradient (1, 0) at the start sets the direction to (1, 0)
        return x[0] - x[0] ** 2 / 2, np.array([1.0 - x[0], 0.0 if x[0] == 0 else bad])

    with pytest.raises(NumericalError):
        bfgs_maximize(on_the_line, np.zeros(2))


def test_unbounded_direction_gives_unconverged_result():
    # maximize x (no interior optimum): the curvature condition is never
    # satisfiable, the line search gives up, converged stays False
    result = bfgs_maximize(lambda x: (x[0], np.ones(1)), np.zeros(1))
    assert not result.converged
    assert result.stop_reason == "line_search_failed"
    assert result.iterations == 0
    # the start point plus one full line-search budget of 50 evaluations
    assert result.function_evaluations == 51


def test_empty_start_rejected():
    with pytest.raises(ValueError):
        bfgs_maximize(lambda x: (0.0, x), np.zeros(0))


def test_iteration_cap_respected(c4):
    cfg = OptimizerConfig(max_iterations=2)
    result = optimize_angles(c4, random_angles(c4, 3, seed=26), cfg)
    assert result.iterations <= 2
    assert not result.converged
    assert result.stop_reason == "max_iterations"


# ----- line search -----

def line_search_cases():
    rng = np.random.default_rng(40)
    A = np.diag([1.0, 30.0])
    quad = lambda x: (0.5 * x @ A @ x, A @ x)
    quartic = lambda x: (float(np.sum(x ** 4) + x @ x), 4 * x ** 3 + 2 * x)

    def well(x):
        # a bowl with a narrow Gaussian well at its floor: zoom brackets
        # with a_hi < a_lo, whose interpolants can fall near an end
        e = 10.0 * np.exp(-(x @ x) / 0.18)
        return float(0.5 * x @ x - e), x + e * x / 0.09

    for fun in (quad, quartic, well):
        for _ in range(5):
            x = rng.normal(size=2) * 2
            _, g = fun(x)
            if np.linalg.norm(g) < 1e-12:
                continue
            yield fun, x, -g


def zoom_brackets(steps, phi0, derphi0, c1=1e-4, c2=0.9):
    """(alpha, a_lo, a_hi) of each zoom step among a line search's steps.

    Replays the bracket updates of Nocedal & Wright, Algorithms 3.5 and 3.6,
    on the recorded (alpha, value, slope) of each evaluation.
    """
    a_lo, phi_lo, a_hi = 0.0, phi0, None
    zooming = False
    out = []
    for k, (alpha, phi, derphi) in enumerate(steps):
        sufficient = phi <= phi0 + c1 * alpha * derphi0
        curvature = abs(derphi) <= -c2 * derphi0
        if not zooming:
            if not sufficient or (phi >= phi_lo and k > 0):
                a_hi, zooming = alpha, True
            elif curvature:
                break  # accepted
            else:
                a_hi, a_lo, phi_lo = a_lo, alpha, phi
                zooming = derphi >= 0
            continue
        out.append((alpha, a_lo, a_hi))
        if not sufficient or phi >= phi_lo:
            a_hi = alpha
        elif curvature:
            break
        else:
            if derphi * (a_hi - a_lo) >= 0:
                a_hi = a_lo
            a_lo, phi_lo = alpha, phi
    return out


def test_line_search_results_satisfy_strong_wolfe():
    c1, c2 = 1e-4, 0.9
    zoom_steps = []
    for fun, x, d in line_search_cases():
        f0, g0 = fun(x)
        derphi0 = float(g0 @ d)
        steps = []

        def line(alpha):
            value, grad = fun(x + alpha * d)
            steps.append((alpha, value, float(grad @ d)))
            return value, float(grad @ d), grad

        found = _line_search(line, f0, derphi0, 1.0)
        assert found is not None
        alpha, phi_a, grad_a = found
        assert alpha > 0
        assert phi_a <= f0 + c1 * alpha * derphi0
        assert abs(float(grad_a @ d)) <= -c2 * derphi0
        check_f, _ = fun(x + alpha * d)
        assert abs(check_f - phi_a) < 1e-12
        zoom_steps += zoom_brackets(steps, f0, derphi0)
    # every zoom step keeps a tenth of the bracket's width from either end,
    # or is the bracket's midpoint, in brackets of either orientation
    assert len(zoom_steps) > 20
    assert any(a_hi < a_lo for _, a_lo, a_hi in zoom_steps)
    for alpha, a_lo, a_hi in zoom_steps:
        a, b = min(a_lo, a_hi), max(a_lo, a_hi)
        margin = 0.1 * (b - a)
        assert alpha == a_lo + 0.5 * (a_hi - a_lo) or a + margin <= alpha <= b - margin


def counting_line(phi_and_slope):
    """A search line from alpha -> (value, slope) that records each step."""
    steps = []

    def line(alpha):
        steps.append(alpha)
        phi, slope = phi_and_slope(alpha)
        return phi, slope, np.array([slope])

    return line, steps


def test_line_search_budget_ends_a_search_that_never_brackets():
    line, steps = counting_line(lambda a: (-a, -1.0))
    assert _line_search(line, 0.0, -1.0, 1.0) is None
    assert steps == [2.0 ** k for k in range(50)]


def test_line_search_budget_covers_doubling_and_zoom():
    # V-shaped restriction with slopes of +-1: the doubling brackets the
    # vertex after 46 steps, and no zoom step meets the curvature condition
    m = 1.5 * 2.0 ** 44
    line, steps = counting_line(lambda a: (abs(a - m) - m, 1.0 if a > m else -1.0))
    assert _line_search(line, 0.0, -1.0, 1.0) is None
    assert len(steps) == 50
    assert steps[:46] == [2.0 ** k for k in range(46)]
    assert all(2.0 ** 44 < a < 2.0 ** 45 for a in steps[46:])


def test_line_search_accepts_the_last_budgeted_step():
    # the slope is -1 up to knee / 2 and rises to -0.1 at knee, so the 50th
    # doubling step, the last evaluation of the budget, is the first to meet
    # the curvature condition, and it is returned as it is
    knee = 2.0 ** 49
    c = 0.9 / knee

    def phi_and_slope(a):
        if a <= knee / 2:
            return -a, -1.0
        return -a + c * (a - knee / 2) ** 2, -1.0 + 2 * c * (a - knee / 2)

    line, steps = counting_line(phi_and_slope)
    found = _line_search(line, 0.0, -1.0, 1.0)
    assert found is not None
    assert found[0] == knee
    assert steps == [2.0 ** k for k in range(50)]


def test_line_search_first_step_needs_only_the_decrease_condition():
    # near convergence c1 * alpha * derphi0 is below half an ulp of phi0, so
    # a first step whose value equals phi0 meets the decrease condition; it
    # is accepted, not taken as a bracket's far end, for one evaluation
    line, steps = counting_line(lambda a: (1.0, 0.0))
    found = _line_search(line, 1.0, -1e-20, 1.0)
    assert found is not None
    assert found[0] == 1.0
    assert steps == [1.0]


def test_quadratic_step_pins_its_degenerate_brackets():
    # (x - 2)^2 from (0, 4) with slope -4 and (1, 1)
    assert _quad_min(0.0, 4.0, -4.0, 1.0, 1.0) == 2.0
    # a zero-width bracket and zero curvature divide by zero
    assert _quad_min(1.0, 4.0, -4.0, 1.0, 1.0) is None
    assert _quad_min(0.0, 1.0, -1.0, 1.0, 0.0) is None
    # a curvature that overflows to inf puts the minimizer at a
    a = 1e-140
    assert _quad_min(a, 0.0, 1.0, a + 1e-150, 1e10) == a
    # a NaN value propagates to the minimizer, which is not finite
    assert _quad_min(0.0, 0.0, -1.0, 1.0, float("nan")) is None
