import decimal
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
from kfsslab.gadgets import X3CInstance, build_example1, build_example2, build_kfsa_gadget, build_kfss_gadget
from kfsslab import riccati
from kfsslab.riccati import solve_dare
from kfsslab.solvers import _ScoreTable


def _stack(m, supports, metric):
    """Traces and diagonals of ``supports``, scored as one request on a
    fresh table."""
    scored = _ScoreTable([m], metric, attack=False)([(0, tuple(sorted(s))) for s in supports])
    return [trace for trace, _ in scored], np.array([diag for _, diag in scored])


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


@pytest.mark.parametrize("call", [
    lambda: example1_predictions(0.9, math.inf),
    lambda: example1_predictions(0.9, math.nan),
    lambda: example2_predictions(math.nan, 1.0),
    lambda: example2_predictions(0.9, math.inf),
    lambda: example1_predictions(0.9, 1e200),
    lambda: example2_predictions(0.9, 1e200),
    lambda: msee_limit(math.nan),
    lambda: limit_ratio_select(math.nan),
    lambda: limit_ratio_attack(math.nan),
    lambda: scalar_sensor_msee(0.9, math.inf),
    lambda: scalar_sensor_msee(0.9, math.nan),
    lambda: repeated_sensor_msee(0.9, 1.0, 2.5),
    lambda: repeated_sensor_msee(0.9, 1.0, math.nan),
    lambda: diag_bounds(0.5, math.nan),
], ids=["ex1-h-inf", "ex1-h-nan", "ex2-lambda-nan", "ex2-h-inf", "ex1-h-square-inf", "ex2-h-square-inf",
        "limit-nan", "ratio-select-nan", "ratio-attack-nan", "scalar-inf", "scalar-nan", "repeated-fractional",
        "repeated-nan", "diag-w-nan"])
def test_non_finite_or_fractional_input_is_a_domain_error(call):
    # NaN fails every range check; n_meas = 2.5 is refused, not read as 2
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("predictions", [example1_predictions, example2_predictions])
def test_an_overflowing_h_square_is_refused_by_name(predictions):
    # h = 1e200 is finite, but h * h is not; the error names h, not the noise power
    with pytest.raises(DomainError, match=r"^h must be .* got 1e\+200$"):
        predictions(0.9, 1e200)


def test_repeated_sensor_msee_needs_a_measurement():
    with pytest.raises(DomainError, match="n_meas must be >= 1, got 0"):
        repeated_sensor_msee(0.9, 1.0, 0)


def test_repeated_reduces_to_scalar():
    for lam in (0.2, 0.9):
        for noise in (0.0, 3.7, 2e5):
            assert repeated_sensor_msee(lam, noise, 1) == scalar_sensor_msee(lam, noise)


def test_repeated_noiseless():
    assert repeated_sensor_msee(0.8, 0.0, 4) == pytest.approx(1.0)


def test_repeated_dare_cross_check():
    val = repeated_sensor_msee(0.9, 100.0, 2)
    assert abs(val - _repeated_via_dare(0.9, 100.0, 2)) < 1e-8


def _msee_exact(lam, noise, n):
    """repeated_sensor_msee of the floats lam and noise, to 60 digits: the
    root (-x + sqrt(x^2 + 4 n noise)) / (2n), x = noise (1 - lam^2) - n, in
    the form that loses no digits to cancellation at that precision."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam, noise = decimal.Decimal(lam), decimal.Decimal(noise)
        x = noise * (1 - lam * lam) - n
        disc = (x * x + 4 * n * noise).sqrt()
        return float(2 * noise / (disc + x) if x > 0 else (disc - x) / (2 * n))


def test_repeated_sensor_msee_is_within_round_off_of_its_exact_root():
    # the root form follows the sign of x, not the size of the noise: with
    # the form picked by noise > 1e4, lam = 0.3 at noise 9999 was 2.7e-13
    # off; a noise past 1e154 squared x to inf and answered 0, and one
    # near the float maximum overflowed 2 noise and answered inf
    rng = np.random.default_rng(34)
    cases = [(0.3, 9999.0, 1), (0.99999, 5e9, 1), (0.9, 1e200, 3), (0.5, 1.7e308, 3), (0.5, 0.0, 2)]
    cases += [(lam, noise, int(n)) for lam, noise, n in
              zip(rng.uniform(-1.0, 1.0, 2000), 10.0 ** rng.uniform(-4.0, 8.0, 2000), rng.integers(1, 7, 2000))]
    cases += [(1.0 - d, noise, 1) for d, noise in zip(10.0 ** rng.uniform(-6.0, -1.0, 500), 10.0 ** rng.uniform(0.0, 10.0, 500))]
    for lam, noise, n in cases:
        want = _msee_exact(lam, noise, n)
        assert abs(repeated_sensor_msee(lam, noise, n) - want) <= 1e-15 * want, (lam, noise, n)
    want = _msee_exact(0.99999, 1e10 / 2.0, 1) + 2.0
    assert abs(example1_predictions(0.99999, 1e5).trace_greedy_priori - want) <= 1e-15 * want


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
def test_no_family_subset_takes_more_than_22_doublings(family):
    # V = 0 and W = I, so every detectable subset of the grid above, and of
    # lambda = 0.9999 and 0.99999, takes the perfect-measurement reduction,
    # whose doubling takes at most 22 doublings (the slowest members keep a
    # pole of modulus up to 0.99999) and a median of 3.  A = diag(lam, 0, 0)
    # has one nonzero column, so the kernel solves it in closed form, in none
    build = EXAMPLE_FORMS[family][0]
    steps = []
    for lam in (0.6, 0.7, 0.9, 0.95, 0.99, 0.9999, 0.99999):
        for h in [10.0**e for e in range(-4, 5)]:
            m = build(lam, h)
            for r in range(1, m.q + 1):
                sets = np.array(list(combinations(range(m.q), r)))
                C, V = m.C[sets], m.V[sets[:, :, None], sets[:, None, :]]
                seen = np.array([riccati.is_detectable(m.A, c) for c in C])
                _, iters = riccati._solve_detectable(m.A, m.W, C[seen], V[seen], riccati.psd_root(m.W, "W"))
                steps += iters.tolist()
    assert len(steps) == {"example1": 441, "example2": 945}[family]
    assert max(steps) <= 22 and np.median(steps) <= 3
    assert not any(steps)


def _closed_and_doubled(m, posteriori):
    """(support, S, ref) for every detectable subset of m, whose A has one
    nonzero column: S the kernel's covariance, which takes the closed form
    (no member doubles), and ref the same member's from _doubling_dare run
    on _filtered's full output.  One stack per subset size."""
    out = []
    for r in range(m.q + 1):
        sets = np.array(list(combinations(range(m.q), r)), dtype=np.intp).reshape(math.comb(m.q, r), r)
        C, V = m.C[sets], m.V[sets[:, :, None], sets[:, None, :]]
        seen = np.array([riccati.is_detectable(m.A, c) for c in C])
        if not seen.any():
            continue
        sets, C, V = sets[seen], C[seen], V[seen]
        S, iters = riccati._solve_detectable(m.A, m.W, C, V, riccati.psd_root(m.W, "W"), posteriori)
        assert not iters.any()
        P, _ = riccati._doubling_dare(*riccati._filtered(m.A, m.W, riccati.psd_root(m.W, "W")[1], *riccati._noise(C, V)))
        ref = P if posteriori else riccati._sym(m.A @ P @ m.A.T + m.W)
        out += zip(map(tuple, sets), S, ref)
    return out


@pytest.mark.parametrize("family", ["example1", "example2"])
def test_closed_form_matches_the_filtered_doubling_and_the_predictions(family):
    # every subset of the family under both metrics, lambda up to 0.9999
    # and h from 1e-4 to 1e5: within 1e-12 of the doubling (6.2e-13 at
    # worst, at lambda = 0.9999) and of the family's predictions
    build, predict, forms = EXAMPLE_FORMS[family]
    for lam in (0.6, 0.9, 0.99, 0.9999):
        for h in (1e-4, 1e-2, 1.0, 1e2, 1e4, 1e5):
            m, p = build(lam, h), predict(lam, h)
            for metric in ("priori", "posteriori"):
                for support, S, ref in _closed_and_doubled(m, metric == "posteriori"):
                    assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max(), (lam, h, support, metric)
                    got = {"s11": S[0, 0], metric: np.trace(S)}
                    for what, field in forms.get(support, {}).items():
                        want = getattr(p, field)
                        if what in got and (what, metric) != ("s11", "posteriori"):
                            assert abs(got[what] - want) <= 1e-12 * want, (lam, h, support, field, got[what], want)


@pytest.mark.parametrize("K", [1.0, 300.0])
@pytest.mark.parametrize("build", [build_kfss_gadget, build_kfsa_gadget])
def test_closed_form_matches_the_filtered_doubling_on_the_named_gadgets(build, K):
    # every subset of the named yes instance's gadgets under both metrics:
    # within 1e-12 of the doubling, and at K = 1, where V is nonsingular,
    # of scipy's DARE.  At K = 300 two traces are known exactly (sensors
    # numbered from 1 in the comments): kfsa's survivor set {1, 2, 3, 4, 6,
    # 9} a priori, where the plain doubling is 3.7e-9 off, and kfss's set
    # {2, 3, 4} a posteriori
    m = build(X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5))), K).model
    exact = {(build_kfsa_gadget, "priori"): ((0, 1, 2, 3, 5, 8), 3003.0035346265852),
             (build_kfss_gadget, "posteriori"): ((1, 2, 3), 3603.250017362499)}
    for metric in ("priori", "posteriori"):
        for support, S, ref in _closed_and_doubled(m, metric == "posteriori"):
            assert np.abs(S - ref).max() <= 1e-12 * np.abs(ref).max(), (support, metric)
            if K == 1.0 and metric == "priori" and support:
                scipy_linalg = pytest.importorskip("scipy.linalg")
                C, V = m.C[list(support)], m.V[np.ix_(support, support)]
                want = scipy_linalg.solve_discrete_are(m.A.T, C.T, m.W, V)
                assert np.abs(S - want).max() <= 1e-12 * np.abs(want).max(), support
            if K == 300.0 and exact.get((build, metric), (None,))[0] == support:
                assert abs(np.trace(S) - exact[build, metric][1]) <= 1e-12 * exact[build, metric][1]
