"""The stacked candidate scorer against the per-subset solve.

``solvers._score`` solves many same-size supports as batched stacks; every
score must agree with ``evaluate_selection`` on the same support, whatever
mix of members a stack holds.
"""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfsslab import riccati, solvers
from kfsslab.gadgets import build_example1, build_example2
from kfsslab.model import AttackVector, SelectionVector, SystemModel, complement, validate_model
from kfsslab.riccati import NoConvergence
from kfsslab.solvers import (
    STACK_CHUNK,
    _score,
    evaluate_selection,
    exhaustive_attack,
    exhaustive_select,
    greedy_attack,
    greedy_select,
)

REL = 1e-12


def _spd(rng, size):
    B = rng.standard_normal((size, size))
    return B @ B.T / size + 0.5 * np.eye(size)


def _random_model(rng, q, n=None, V=None):
    """Nonsingular-V instance with one unstable mode every sensor sees."""
    n = n or max(1, q // 2)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    poles = np.concatenate([[1.05], np.linspace(-0.5, 0.5, n - 1)])
    C = rng.standard_normal((q, n))
    C += np.outer(np.sign(C @ Q[:, 0]), Q[:, 0])
    return validate_model(SystemModel(
        n=n, q=q, A=(Q * poles) @ Q.T, C=C, W=_spd(rng, n),
        V=_spd(rng, q) if V is None else V))


def _scalar(m, support, metric):
    return evaluate_selection(m, SelectionVector.from_support(m.q, support), metric).trace


def _assert_matches_scalar(m, supports, metric):
    stacked, _ = _score(m, supports, metric)
    assert len(stacked) == len(supports)
    for support, got in zip(supports, stacked):
        want = _scalar(m, support, metric)
        if np.isinf(want):
            assert np.isinf(got), support
        else:
            assert abs(got - want) <= REL * abs(want), (support, got, want)
    return stacked


@pytest.mark.parametrize("q, r", [(6, 2), (11, 3), (18, 3)])
@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_stacked_layers_match_scalar_solve(q, r, metric):
    rng = np.random.default_rng(100 + q)
    m = _random_model(rng, q)
    selections = [list(c) for c in combinations(range(q), r)]
    survivors = [[i for i in range(q) if i not in c] for c in combinations(range(q), r)]
    if q == 18:
        assert len(selections) > 10 * STACK_CHUNK  # many chunks, a partial last one
    _assert_matches_scalar(m, selections, metric)
    _assert_matches_scalar(m, survivors, metric)


def test_stack_members_stop_at_their_own_rule():
    m = _random_model(np.random.default_rng(8), 11)
    supports = np.array(list(combinations(range(11), 3)))
    C, V = m.C[supports], m.V[supports[:, :, None], supports[:, None, :]]
    S, iters = riccati._solve_detectable(m.A, C, m.W, V)
    alone = [riccati.solve_dare(m.A, c, m.W, v) for c, v in zip(C, V)]
    assert iters.tolist() == [res.iterations for res in alone]
    assert len(set(iters.tolist())) > 1  # members freeze at different doublings
    for cov, res in zip(S, alone):
        assert np.abs(cov - res.cov).max() <= REL * np.abs(res.cov).max()


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_driver_scores_match_scalar_solve(metric):
    rng = np.random.default_rng(7)
    m = _random_model(rng, 14)
    for report in (greedy_select(m, 3, metric), greedy_attack(m, 3, metric)):
        picked = []
        for step in report.steps:
            for i, score in step.scores.items():
                chosen = picked + [i]
                if report.mode == "attack":
                    sel = complement(AttackVector.from_support(m.q, chosen))
                else:
                    sel = SelectionVector.from_support(m.q, chosen)
                want = evaluate_selection(m, sel, metric).trace
                assert abs(score - want) <= REL * want
            picked.append(step.chosen)
    for report in (exhaustive_select(m, m.b, 2.0, metric), exhaustive_attack(m, m.omega, 2.0, metric)):
        again = evaluate_selection(m, report.chosen if report.mode == "select" else complement(report.chosen), metric)
        assert report.trace == again.trace


def test_stack_mixing_detectable_and_undetectable_members():
    # the unstable mode 1.2 is seen by sensors 0 and 2 only
    m = validate_model(SystemModel(
        n=3, q=5, A=np.diag([1.2, 0.5, -0.3]),
        C=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]),
        W=np.eye(3), V=_spd(np.random.default_rng(3), 5)))
    supports = [list(c) for c in combinations(range(5), 2)]
    for metric in ("priori", "posteriori"):
        traces = _assert_matches_scalar(m, supports, metric)
        blind = [np.isinf(t) for t in traces]
        assert blind == [not ({0, 2} & set(s)) for s in supports]
        assert any(blind) and not all(blind)


def test_stack_mixing_singular_and_nonsingular_noise(monkeypatch):
    rng = np.random.default_rng(11)
    V = _spd(rng, 6)
    V[1, :] = V[:, 1] = 0.0  # noiseless sensor: a zero diagonal entry
    V[4, :] = V[:, 4] = V[5, :] = V[:, 5] = 0.0
    V[4, 4] = V[5, 5] = V[4, 5] = V[5, 4] = 1.0  # perfectly correlated pair: singular, no zero diagonal
    m = _random_model(rng, 6, n=3, V=V)
    supports = [list(c) for c in combinations(range(6), 2)]
    singular = [1 in s or s == [4, 5] for s in supports]
    assert any(singular) and not all(singular)

    for metric in ("priori", "posteriori"):
        _assert_matches_scalar(m, supports, metric)
    # the singular members of the one chunk go to the Newton iteration as
    # one stack, with no second PBH test
    calls = []
    for name in ("is_detectable", "_newton_dare"):
        original = getattr(riccati, name)
        monkeypatch.setattr(riccati, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    _score(m, supports, "posteriori")
    assert len(supports) <= STACK_CHUNK
    assert calls == ["_newton_dare"]


def _blind_model():
    """Nonsingular V; the unstable mode 1.2 is seen by sensors 0 and 2 only,
    so the empty selection and attacks on both are undetectable."""
    return validate_model(SystemModel(
        n=3, q=4, A=np.diag([1.2, 0.5, -0.3]),
        C=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 1.0], [0.0, 1.0, 1.0]]),
        W=np.eye(3), V=_spd(np.random.default_rng(4), 4)))


@pytest.mark.parametrize("case", ["example1", "example2", "undetectable", "nonsingular"])
def test_reports_come_from_the_scoring_stack(case, monkeypatch):
    m = {"example1": lambda: build_example1(0.9, 100.0),  # singular V
         "example2": lambda: build_example2(0.9, 0.01),
         "undetectable": _blind_model,
         "nonsingular": lambda: _random_model(np.random.default_rng(9), 6)}[case]()
    calls = []
    for owner, name in ((riccati, "solve_dare"), (riccati, "posteriori_from_priori"),
                        (solvers, "posteriori_from_priori"), (solvers, "evaluate_selection")):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))
    reports = []
    for metric in ("priori", "posteriori"):
        for budget in (0, 1, 2):
            reports += [greedy_select(m, budget, metric), greedy_attack(m, budget, metric),
                        exhaustive_select(m, m.b, float(budget), metric),
                        exhaustive_attack(m, m.omega, float(budget), metric)]
    assert calls == []
    solvers.evaluate_selection(m, SelectionVector.from_support(m.q, range(m.q)), "posteriori")
    assert calls == ["evaluate_selection", "solve_dare", "posteriori_from_priori"]  # the spies see calls
    monkeypatch.undo()
    infinite = 0
    for report in reports:
        kept = report.chosen if report.mode == "select" else complement(report.chosen)
        want = evaluate_selection(m, kept, report.metric)
        assert (report.trace, report.diag) == (want.trace, want.diag), report
        infinite += math.isinf(report.trace)
    assert (infinite > 0) == (case in ("undetectable", "nonsingular"))  # A unstable


def test_stacked_solve_raises_no_convergence(monkeypatch):
    m = _random_model(np.random.default_rng(5), 10)
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as exc:
        _score(m, [list(c) for c in combinations(range(10), 2)], "priori")
    assert exc.value.iterations == 2
    assert exc.value.residual > 0
    with pytest.raises(NoConvergence):
        greedy_select(m, 2, "posteriori")
    with pytest.raises(NoConvergence):
        exhaustive_attack(m, m.omega, 2.0, "priori")


def _singular_stack(case):
    """A, W and the stacks C, V of sensor pairs whose every member has
    singular V."""
    rng = np.random.default_rng(12)
    if case == "rank-one W":  # singular solutions, smallest eigenvalue at round-off
        u = rng.standard_normal(3)
        m = SystemModel(n=3, q=4, A=np.diag([0.5, -0.3, 0.8]), C=rng.standard_normal((4, 3)),
                        W=np.outer(u, u), V=np.zeros((4, 4)))
    elif case == "zero-diagonal":
        V = _spd(rng, 6)
        V[1, :] = V[:, 1] = 0.0  # noiseless sensor 1, in every pair below
        m = _random_model(rng, 6, n=3, V=V)
    else:  # the noiseless example families at extreme gains
        m = build_example1(0.9, 1e4) if case == "example1" else build_example2(0.9, 1e-4)
    pairs = np.array([c for c in combinations(range(m.q), 2) if case != "zero-diagonal" or 1 in c])
    return m.A, m.W, m.C[pairs], m.V[pairs[:, :, None], pairs[:, None, :]]


@pytest.mark.parametrize("case", ["example1", "example2", "zero-diagonal", "rank-one W"])
def test_fixed_point_stack_equals_members_alone(case):
    A, W, C, V = _singular_stack(case)
    assert not riccati._noise_cholesky(V)[0].any()
    S, steps = riccati._newton_dare(A, C, W, V)
    for cov, count, c, v in zip(S, steps.tolist(), C, V):
        alone = riccati.solve_dare(A, c, W, v)
        assert count == alone.iterations and np.array_equal(cov, alone.cov)
        if case in ("zero-diagonal", "rank-one W"):
            # the result is a fixed point of the recursion
            residual = np.linalg.norm(riccati.riccati_step(cov, A, c, W, v) - cov)
            assert residual <= 1e-12 * max(1.0, np.linalg.norm(cov))
    if case != "rank-one W":
        assert len(set(steps.tolist())) > 1  # members freeze at different steps


def test_fixed_point_raises_no_convergence(monkeypatch):
    m = build_example1(0.9, 1e4)
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as alone:
        riccati.solve_dare(m.A, m.C[:2], m.W, m.V[:2, :2])
    with pytest.raises(NoConvergence) as stacked:
        _score(m, [list(c) for c in combinations(range(3), 2)], "posteriori")
    for exc in (alone, stacked):
        assert exc.value.iterations == 2
        assert exc.value.residual > 0


@st.composite
def _instances(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    q = draw(st.integers(2, 6))
    n = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    A = np.diag(rng.uniform(-1.2, 1.2, n))
    C = rng.standard_normal((q, n)) * (rng.random((q, n)) < 0.7)
    m = validate_model(SystemModel(n=n, q=q, A=A, C=C, W=_spd(rng, n), V=_spd(rng, q)))
    base = sorted(draw(st.sets(st.integers(0, q - 1), max_size=q - 1)))
    return m, base


@settings(max_examples=40, deadline=None)
@given(instance=_instances(), metric=st.sampled_from(["priori", "posteriori"]))
def test_stacked_scores_are_monotone_and_attack_is_complement(instance, metric):
    m, base = instance
    (before,), _ = _score(m, [base], metric)
    extra = [i for i in range(m.q) if i not in base]
    after, _ = _score(m, [sorted(base + [j]) for j in extra], metric)
    for t in after:
        assert t <= before * (1 + 1e-9) + 1e-12  # inf <= inf holds too
    # an attack scores what selecting its survivors scores alone
    attack = greedy_attack(m, 1, metric).steps[0].scores
    for i, score in attack.items():
        want = evaluate_selection(m, complement(AttackVector.from_support(m.q, [i])), metric).trace
        assert score == want or abs(score - want) <= REL * want


@settings(max_examples=40, deadline=None)
@given(instance=_instances(), quiet=st.integers(0, 6))
def test_stacked_priori_dominates_posteriori_and_couples(instance, quiet):
    m, _ = instance
    if quiet < m.q:  # a noiseless sensor: its sets take the Newton path
        m.V[quiet, :] = m.V[:, quiet] = 0.0
        m = validate_model(m)
    a_sq, w = np.diag(m.A) ** 2, np.diag(m.W)
    for r in range(m.q + 1):
        supports = list(combinations(range(m.q), r))
        t_pri, priori = _score(m, supports, "priori")
        t_post, posteriori = _score(m, supports, "posteriori")
        for support, tp, tq, pri, post in zip(supports, t_pri, t_post, priori, posteriori):
            if math.isinf(tp):
                assert math.isinf(tq)
                continue
            scale = np.maximum(1.0, pri)
            assert np.all(post <= pri + 1e-12 * scale), support
            # A is diagonal, so the diagonal of S = A S* A' + W is a^2 S*_ii + W_ii
            assert np.all(np.abs(pri - (a_sq * post + w)) <= 1e-9 * scale), support
