"""Multi-angle QAOA MaxCut simulator and angle-heuristic benchmark."""

from .analysis import (
    AngleStats,
    ArDifferenceStats,
    angle_concentration,
    ar_difference_histogram,
    forest_check,
    max_degree_zero_fraction,
)
from .errors import CapacityError, GenerationError, NumericalError
from .graphs import (
    Graph,
    canonical_form,
    canonical_relabel,
    enumerate_connected,
    graph_id,
    is_connected,
    max_cut,
    parse_graph6,
    random_nonisomorphic_connected,
    read_edge_list,
    read_graph6,
    write_edge_list,
)
from .harness import (
    RunConfig,
    derive_seed,
    load_dataset,
    read_records,
    report,
    run_experiment,
    write_records,
)
from .optimizer import OptimizationResult, OptimizerConfig, bfgs_maximize, optimize_angles
from .records import ExperimentRecord
from .simulator import (
    AngleVector,
    StateVector,
    cut_values,
    expectation,
    expectation_and_gradient,
    run_circuit,
)
from .strategies import (
    PI8,
    PI8_TOLERANCE,
    STRATEGY_KINDS,
    init_max_degree_zero,
    init_random_pi8,
    init_uniform_random,
    normalize_angle,
    normalize_angles,
    pi8_multiples,
    round_angles,
    round_to_pi8,
    run_strategy,
)

__version__ = "0.1.0"
