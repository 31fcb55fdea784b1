"""Closed-form steady-state error expressions for systems whose dynamics
matrix is diag(lambda1, 0, ..., 0) with unit process noise.

These serve two purposes: independent cross-checks of the iterative solver,
and exact predictions for the two counterexample families where greedy
selection/attack is provably far from optimal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import as_integer


class DomainError(ValueError):
    pass


def _check_lambda(lambda1: float) -> float:
    lam = float(lambda1)
    if not abs(lam) < 1.0:  # NaN fails too
        raise DomainError(f"|lambda1| must be < 1, got {lam}")
    return lam


def scalar_sensor_msee(lambda1: float, alpha_sq: float) -> float:
    """Steady-state a priori variance of state 1 when a single scalar sensor
    measures it through effective noise power alpha_sq.

    Solves the scalar fixed-point equation s = lam^2 s (1 - s/(a + s)) + 1
    (see repeated_sensor_msee for the root's form).
    """
    return repeated_sensor_msee(lambda1, alpha_sq, 1)


def repeated_sensor_msee(lambda1: float, rho_sq: float, n_meas: int) -> float:
    """Steady-state a priori variance of state 1 under n_meas parallel
    unit-gain measurements, each with independent noise power rho_sq.

    Reduces to scalar_sensor_msee at n_meas = 1.
    """
    lam = _check_lambda(lambda1)
    noise = float(rho_sq)
    if not 0.0 <= noise < math.inf:
        raise DomainError(f"noise power must be finite and nonnegative, got {noise}")
    n = as_integer(n_meas, "n_meas", DomainError)
    if n < 1:
        raise DomainError(f"n_meas must be >= 1, got {n_meas}")
    # x = noise (1 - lam^2) - n; the value is (-x + sqrt(x^2 + 4 n noise)) / (2n),
    # taken for x > 0 in the conjugate form, so that neither form cancels;
    # halves and roots keep every step finite up to the float maximum
    x = noise * ((1.0 - lam) * (1.0 + lam)) - n
    disc = math.hypot(x, 2.0 * math.sqrt(n) * math.sqrt(noise))
    return noise / (0.5 * disc + 0.5 * x) if x > 0.0 else (disc - x) / (2.0 * n)


def msee_limit(lambda1: float) -> float:
    """Common limit 1 / (1 - lambda1^2) of the two forms as the measurement
    noise power grows without bound; also the unobserved-state variance."""
    lam = _check_lambda(lambda1)
    return 1.0 / (1.0 - lam * lam)


def diag_bounds(lambda_i: float, w_ii: float) -> tuple[float, float, float, float]:
    """Envelope (priori_lo, priori_hi, post_lo, post_hi) for the i-th diagonal
    entry of the steady-state covariances when A and W are diagonal and
    stable, valid for every sensor selection."""
    lam = _check_lambda(lambda_i)
    w = float(w_ii)
    if not 0.0 <= w < math.inf:
        raise DomainError(f"w_ii must be finite and nonnegative, got {w}")
    hi = w / (1.0 - lam * lam)
    return (w, hi, 0.0, hi)


@dataclass(frozen=True)
class Example1Predictions:
    """Exact quantities for the three-sensor selection counterexample.

    msee_* fields are state-1 a priori variances under the indicated
    selections (single sensors and the pairs reached by greedy).
    """

    msee_1: float
    msee_2: float
    msee_3: float
    msee_12: float
    msee_23: float
    trace_greedy_priori: float
    trace_optimal_priori: float
    trace_greedy_posteriori: float
    trace_optimal_posteriori: float


def _check_h_sq(h: float) -> float:
    """h^2 of a family's h, which must be positive with a finite square."""
    h = float(h)
    if not (h > 0.0 and h * h < math.inf):  # NaN fails too
        raise DomainError(f"h must be positive with a finite square, got {h}")
    return h * h


def example1_predictions(lambda1: float, h: float) -> Example1Predictions:
    """Predicted solver outcomes on the example1 family at budget 2.

    Greedy picks sensor 2 then sensor 3; the optimum is sensors {1, 3}, whose
    rows combine to an exact measurement of state 1.
    """
    lam = _check_lambda(lambda1)
    h_sq = _check_h_sq(h)
    s2 = scalar_sensor_msee(lam, h_sq)
    s1 = scalar_sensor_msee(lam, 2.0 * h_sq)
    s3 = msee_limit(lam)
    s23 = scalar_sensor_msee(lam, h_sq / 2.0)
    return Example1Predictions(
        msee_1=s1,
        msee_2=s2,
        msee_3=s3,
        msee_12=s2,
        msee_23=s23,
        trace_greedy_priori=s23 + 2.0,
        trace_optimal_priori=3.0,
        trace_greedy_posteriori=1.0 + h_sq * (s23 - 1.0) / (2.0 * s23 + h_sq),
        trace_optimal_posteriori=1.0,
    )


@dataclass(frozen=True)
class Example2Predictions:
    """Exact quantities for the four-sensor attack counterexample.

    msee_drop4 is the state-1 a priori variance once sensor 4 (greedy's first
    target) has been removed.
    """

    msee_drop4: float
    trace_greedy_priori: float
    trace_optimal_priori: float
    trace_greedy_posteriori: float
    trace_optimal_posteriori: float


def example2_predictions(lambda1: float, h: float) -> Example2Predictions:
    """Predicted solver outcomes on the example2 family at attack budget 2.

    Greedy targets sensor 4 first; the optimal attack removes sensors {1, 2},
    leaving state 1 unobserved.
    """
    lam = _check_lambda(lambda1)
    h_sq = _check_h_sq(h)
    s4 = scalar_sensor_msee(lam, h_sq)
    limit = msee_limit(lam)
    return Example2Predictions(
        msee_drop4=s4,
        trace_greedy_priori=s4 + 2.0,
        trace_optimal_priori=limit + 2.0,
        trace_greedy_posteriori=1.0 + h_sq * (s4 - 1.0) / (s4 + h_sq),
        trace_optimal_posteriori=limit,
    )


def limit_ratio_select(lambda1: float) -> tuple[float, float]:
    """Limiting greedy-to-optimal trace ratios (priori, posteriori) of the
    example1 family as h grows without bound."""
    lam = _check_lambda(lambda1)
    limit = 1.0 / (1.0 - lam * lam)
    return (2.0 / 3.0 + limit / 3.0, limit)


def limit_ratio_attack(lambda1: float) -> tuple[float, float]:
    """Limiting optimal-to-greedy trace ratios (priori, posteriori) of the
    example2 family as h shrinks to zero; identical expressions to the
    selection limits."""
    return limit_ratio_select(lambda1)
