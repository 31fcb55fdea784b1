"""Sensor selection and sensor-attack analysis for steady-state Kalman
filtering: steady-state covariance solves, greedy and exhaustive solvers,
closed-form cross-checks, counterexample families and exact-cover reduction
instances."""

from .closed_forms import (
    DomainError,
    diag_bounds,
    example1_predictions,
    example2_predictions,
    limit_ratio_attack,
    limit_ratio_select,
    msee_limit,
    repeated_sensor_msee,
    scalar_sensor_msee,
)
from .gadgets import (
    GadgetOutput,
    X3CInstance,
    build_example1,
    build_example2,
    build_kfsa_gadget,
    build_kfss_gadget,
    encode_x3c,
    no_instance_transform,
    x3c_bruteforce,
    x3c_decide_via_kfsa,
    x3c_decide_via_kfss,
)
from .model import (
    AttackVector,
    SelectionVector,
    SteadyStateResult,
    SystemModel,
    complement,
    restrict,
    validate_model,
)
from .riccati import (
    NoConvergence,
    is_detectable,
    posteriori_from_priori,
    pseudo_inverse_psd,
    solve_dare,
)
from .solvers import (
    SolveReport,
    evaluate_selection,
    exhaustive_attack,
    exhaustive_select,
    greedy_attack,
    greedy_select,
)

__version__ = "0.1.0"
