import math
from itertools import combinations

import numpy as np
import pytest

from kfsslab.closed_forms import (
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
from kfsslab.gadgets import build_example1, build_example2
from kfsslab import riccati
from kfsslab.riccati import solve_dare
from kfsslab.solvers import _ScoreTable, _score


def _stack(m, supports, metric):
    """Traces and diagonals of same-size ``supports``, scored as one request
    on a fresh table."""
    table = _ScoreTable(m, metric)
    return _score([(table, tuple(s)) for s in supports])


def _scalar_via_dare(lam, alpha_sq):
    res = solve_dare(np.array([[lam]]), np.array([[1.0]]), np.eye(1), np.array([[alpha_sq]]))
    return res.cov[0, 0]


def _repeated_via_dare(lam, rho_sq, n_meas):
    n = n_meas + 1
    A = np.diag([lam] + [0.0] * n_meas)
    C = np.hstack([np.ones((n_meas, 1)), math.sqrt(rho_sq) * np.eye(n_meas)])
    res = solve_dare(A, C, np.eye(n), np.zeros((n_meas, n_meas)))
    return res.cov[0, 0]


def test_scalar_perfect_measurement():
    for lam in (0.1, 0.5, -0.9):
        assert scalar_sensor_msee(lam, 0.0) == pytest.approx(1.0)


def test_scalar_memoryless_state():
    for alpha_sq in (0.0, 1.0, 1e6):
        assert scalar_sensor_msee(0.0, alpha_sq) == pytest.approx(1.0)


def test_scalar_hand_value_and_dare_cross_check():
    val = scalar_sensor_msee(0.5, 1.0)
    assert val == pytest.approx((0.25 + math.sqrt(4.0625)) / 2)
    assert abs(val - _scalar_via_dare(0.5, 1.0)) < 1e-8


def test_scalar_domain_error():
    with pytest.raises(DomainError):
        scalar_sensor_msee(1.0, 1.0)
    with pytest.raises(DomainError):
        scalar_sensor_msee(-1.2, 1.0)
    with pytest.raises(DomainError):
        scalar_sensor_msee(0.5, -1.0)


def test_repeated_reduces_to_scalar():
    for lam in (0.2, 0.9):
        for noise in (0.0, 3.7, 2e5):
            assert repeated_sensor_msee(lam, noise, 1) == scalar_sensor_msee(lam, noise)


def test_repeated_noiseless():
    assert repeated_sensor_msee(0.8, 0.0, 4) == pytest.approx(1.0)


def test_repeated_dare_cross_check():
    val = repeated_sensor_msee(0.9, 100.0, 2)
    assert abs(val - _repeated_via_dare(0.9, 100.0, 2)) < 1e-8


def test_limit_values():
    assert msee_limit(0.0) == pytest.approx(1.0)
    assert msee_limit(0.9375) == pytest.approx(1.0 / (1.0 - 0.87890625))
    assert msee_limit(0.9) > msee_limit(0.5) > msee_limit(0.1)
    with pytest.raises(DomainError):
        msee_limit(1.0)


def test_diag_bounds():
    assert diag_bounds(0.0, 1.0) == (1.0, 1.0, 0.0, 1.0)
    lo, hi, post_lo, post_hi = diag_bounds(0.5, 2.0)
    assert (lo, post_lo) == (2.0, 0.0)
    assert hi == pytest.approx(8.0 / 3.0)
    assert post_hi == pytest.approx(8.0 / 3.0)
    assert diag_bounds(0.7, 0.0) == (0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        diag_bounds(1.0, 1.0)
    with pytest.raises(DomainError):
        diag_bounds(0.5, -1.0)


def test_example1_predictions_ordering_and_floors():
    p = example1_predictions(0.9, 10.0)
    assert p.msee_2 < p.msee_1 < p.msee_3
    assert p.msee_12 == p.msee_2
    assert p.msee_23 < p.msee_12
    assert p.trace_optimal_priori == 3.0
    assert p.trace_optimal_posteriori == 1.0
    limit = msee_limit(0.9)
    for val in (p.msee_1, p.msee_2, p.msee_23):
        assert 1.0 <= val < limit


def test_example1_large_h_approaches_open_loop():
    p = example1_predictions(0.9, 1e6)
    assert abs(p.trace_greedy_priori - (1.0 / 0.19 + 2.0)) < 1e-3


def test_example2_predictions():
    p = example2_predictions(0.9, 1e-8)
    assert p.msee_drop4 == pytest.approx(1.0, abs=1e-12)
    assert p.trace_greedy_priori == pytest.approx(3.0, abs=1e-12)
    p9 = example2_predictions(0.9, 0.3)
    assert p9.trace_optimal_priori == pytest.approx(1.0 / 0.19 + 2.0)
    assert p9.trace_optimal_posteriori == pytest.approx(1.0 / 0.19)
    assert 1.0 < p9.msee_drop4 < msee_limit(0.9)


def test_limit_ratios():
    pri, post = limit_ratio_select(1e-9)
    assert pri == pytest.approx(1.0)
    assert post == pytest.approx(1.0)
    pri, post = limit_ratio_select(0.9)
    assert pri == pytest.approx(2.0 / 3.0 + 1.0 / (3 * 0.19))
    assert post == pytest.approx(1.0 / 0.19)
    assert limit_ratio_attack(0.9) == limit_ratio_select(0.9)
    assert limit_ratio_select(0.9999)[0] > limit_ratio_select(0.99)[0] > limit_ratio_select(0.9)[0]
    with pytest.raises(DomainError):
        limit_ratio_select(1.0)


def test_strict_monotonicity_over_random_grid():
    rng = np.random.default_rng(7)
    for _ in range(500):
        lam = rng.uniform(0.01, 0.99) * rng.choice([-1.0, 1.0])
        a, b = sorted(10.0 ** rng.uniform(-4, 5, size=2))
        if a == b:
            continue
        va = scalar_sensor_msee(lam, a)
        vb = scalar_sensor_msee(lam, b)
        assert 1.0 - 1e-12 <= va < vb
        assert vb < msee_limit(lam)
        n = int(rng.integers(1, 7))
        assert repeated_sensor_msee(lam, a, n) < repeated_sensor_msee(lam, b, n) < msee_limit(lam)


def test_oracle_equivalence_spot_grid():
    # a light version of the full acceptance grid
    for lam in (0.05, 0.45, 0.95):
        for alpha_sq in (0.0, 1.0, 100.0, 1e4):
            assert abs(scalar_sensor_msee(lam, alpha_sq) - _scalar_via_dare(lam, alpha_sq)) < 1e-8
    for n in (2, 3):
        for rho_sq in (0.5, 10.0):
            assert abs(repeated_sensor_msee(0.85, rho_sq, n) - _repeated_via_dare(0.85, rho_sq, n)) < 1e-8


# Sensor sets (0-based; an attack's survivors for example2) whose a priori
# state-1 variance ("s11"), priori trace or posteriori trace a prediction
# field gives.
EXAMPLE_FORMS = {
    "example1": (build_example1, example1_predictions, {
        (): {"s11": "msee_3"},
        (0,): {"s11": "msee_1"},
        (1,): {"s11": "msee_2"},
        (2,): {"s11": "msee_3"},
        (0, 1): {"s11": "msee_12"},
        (1, 2): {"s11": "msee_23", "priori": "trace_greedy_priori", "posteriori": "trace_greedy_posteriori"},
        (0, 2): {"priori": "trace_optimal_priori", "posteriori": "trace_optimal_posteriori"},
        (0, 1, 2): {"priori": "trace_optimal_priori"},
    }),
    "example2": (build_example2, example2_predictions, {
        (0, 1, 2): {"s11": "msee_drop4", "priori": "trace_greedy_priori"},
        (1, 2): {"priori": "trace_greedy_priori", "posteriori": "trace_greedy_posteriori"},
        (0, 3): {"priori": "trace_greedy_priori", "posteriori": "trace_greedy_posteriori"},
        (2, 3): {"priori": "trace_optimal_priori", "posteriori": "trace_optimal_posteriori"},
        (): {"priori": "trace_optimal_priori"},
    }),
}


@pytest.mark.parametrize("lam", [0.6, 0.7, 0.9, 0.95, 0.99])
@pytest.mark.parametrize("family", ["example1", "example2"])
def test_every_family_subset_obeys_floor_and_closed_forms(family, lam):
    build, predict, forms = EXAMPLE_FORMS[family]
    for h in [10.0**e for e in range(-4, 5)]:
        m, p = build(lam, h), predict(lam, h)
        for r in range(m.q + 1):
            supports = list(combinations(range(m.q), r))
            priori, diags = _stack(m, supports, "priori")
            posteriori, _ = _stack(m, supports, "posteriori")
            for support, diag, t_pri, t_post in zip(supports, diags, priori, posteriori):
                # S = A S* A' + W, so no a priori variance falls below W's
                assert np.all(diag >= np.diag(m.W) - 1e-12), (h, support, diag)
                got = {"s11": diag[0], "priori": t_pri, "posteriori": t_post}
                for what, field in forms.get(support, {}).items():
                    want = getattr(p, field)
                    assert abs(got[what] - want) <= 1e-12 * want, (h, support, field, got[what], want)


@pytest.mark.parametrize("family", ["example1", "example2"])
def test_no_family_subset_takes_more_than_three_newton_steps(family):
    # the Newton start from V + NEWTON_START_DELTA I with delta = 1e-3 is
    # close enough that every detectable subset of the grid above takes at
    # most 3 steps (delta = 1 took up to 6); V = 0, so all go through Newton
    build = EXAMPLE_FORMS[family][0]
    steps = []
    for lam in (0.6, 0.7, 0.9, 0.95, 0.99):
        for h in [10.0**e for e in range(-4, 5)]:
            m = build(lam, h)
            for r in range(1, m.q + 1):
                sets = np.array(list(combinations(range(m.q), r)))
                C, V = m.C[sets], m.V[sets[:, :, None], sets[:, None, :]]
                seen = np.array([riccati.is_detectable(m.A, c) for c in C])
                _, iters, _ = riccati._solve_detectable(m.A, m.W, C[seen], V[seen])
                steps += iters.tolist()
    assert len(steps) == {"example1": 315, "example2": 675}[family]
    assert max(steps) <= 3
