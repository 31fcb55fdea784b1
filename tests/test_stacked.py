"""The stacked candidate scorer against the per-subset solve.

``solvers._score`` solves many supports, of one size or of several, as
batched stacks; every score must agree with ``evaluate_selection`` on the
same support, whatever mix of members a stack holds.
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
    _ScoreTable,
    _score,
    evaluate_selection,
    exhaustive_attack,
    exhaustive_select,
    greedy_attack,
    greedy_select,
)

REL = 1e-12


def _stack(m, supports, metric):
    """Traces and diagonals of same-size ``supports``, scored as one request
    on a fresh table."""
    table = _ScoreTable(m, metric)
    return _score([(table, tuple(s)) for s in supports])


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
    stacked, _ = _stack(m, supports, metric)
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
    S, iters, _ = riccati._solve_detectable(m.A, m.W, C, V)
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
    _stack(m, supports, "posteriori")
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


def test_stack_of_several_tables_equals_each_member_alone():
    # example1 at several gains, noiseless (the Newton path) and with
    # V = 0.3 I (the doubling path), shares A and W, so one stack holds them
    models = [build_example1(0.9, h) for h in (1e-3, 1.0, 1e3)]
    for h in (1e-3, 1e3):
        m = build_example1(0.9, h)
        m.V = 0.3 * np.eye(m.q)
        models.append(validate_model(m))
    for metric in ("priori", "posteriori"):
        tables = [_ScoreTable(m, metric) for m in models]
        for r in range(4):
            members = [(table, s) for s in combinations(range(3), r) for table in tables]
            traces, diags = _score(members)
            for (table, s), trace, diag in zip(members, traces, diags):
                (alone,), alone_diag = _stack(table.model, [s], metric)
                assert repr(trace) == repr(alone) and np.array_equal(diag, alone_diag[0], equal_nan=True)
    other = _ScoreTable(build_example1(0.6, 1.0), "priori")
    with pytest.raises(ValueError, match="share A, W"):
        _score([(_ScoreTable(models[0], "priori"), (0,)), (other, (0,))])


def test_stacked_solve_raises_no_convergence(monkeypatch):
    m = _random_model(np.random.default_rng(5), 10)
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as exc:
        _stack(m, [list(c) for c in combinations(range(10), 2)], "priori")
    assert exc.value.iterations == 2
    assert exc.value.residual > 0
    with pytest.raises(NoConvergence):
        greedy_select(m, 2, "posteriori")
    with pytest.raises(NoConvergence):
        exhaustive_attack(m, m.omega, 2.0, "priori")


def _riccati_step(S, A, C, W, V):
    """A S A' + W - (A S C') M^+ (A S C')', M = C S C' + V, symmetrized; M^+
    drops the eigenvalues at or below the kernel's cutoff PINV_RTOL."""
    w, U = np.linalg.eigh(C @ S @ C.T + V)
    inv = np.zeros_like(w)
    inv[w > riccati.PINV_RTOL] = 1.0 / w[w > riccati.PINV_RTOL]
    ASC = A @ S @ C.T
    step = A @ S @ A.T + W - ASC @ (U * inv) @ U.T @ ASC.T
    return 0.5 * (step + step.T)


def _singular_model(case):
    """A model with singular V: noiseless, or with one noiseless sensor."""
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
    return m


def _singular_stack(case):
    """A, W and the stacks C, V of sensor pairs whose every member has
    singular V."""
    m = _singular_model(case)
    pairs = np.array([c for c in combinations(range(m.q), 2) if case != "zero-diagonal" or 1 in c])
    return m.A, m.W, m.C[pairs], m.V[pairs[:, :, None], pairs[:, None, :]]


@pytest.mark.parametrize("case", ["example1", "example2", "zero-diagonal", "rank-one W"])
def test_fixed_point_stack_equals_members_alone(case):
    A, W, C, V = _singular_stack(case)
    assert not riccati._noise_gain(C, V)[0].any()
    S, steps = riccati._newton_dare(A, C, W, V)
    for cov, count, c, v in zip(S, steps.tolist(), C, V):
        alone = riccati.solve_dare(A, c, W, v)
        assert count == alone.iterations and np.array_equal(cov, alone.cov)
        if case in ("zero-diagonal", "rank-one W"):
            # the result is a fixed point of the recursion
            residual = np.linalg.norm(_riccati_step(cov, A, c, W, v) - cov)
            assert residual <= 1e-12 * max(1.0, np.linalg.norm(cov))
    if case in ("example1", "example2"):
        # members freeze at different steps (from V + 1e-3 I, every member
        # of the other two stacks takes 3)
        assert len(set(steps.tolist())) > 1


@pytest.mark.parametrize("case", ["example1", "example2", "zero-diagonal", "rank-one W"])
def test_chunk_of_several_sensor_counts_equals_members_alone(case, monkeypatch):
    # one kernel run over the detectable sets of 1, 2 and 3 sensors with the
    # model's V (singular, or singular where sensor 1 is in) and the pairs
    # with V + 0.3 I as well, each padded to 3 sensors as _score pads a
    # chunk: null sensors with a zero row of C and unit, uncorrelated noise
    m = _singular_model(case)
    members = []
    for r, shift in ((1, 0.0), (2, 0.0), (3, 0.0), (2, 0.3)):
        for s in combinations(range(m.q), r):
            c, v = m.C[list(s)], m.V[np.ix_(s, s)] + shift * np.eye(r)
            if riccati.is_detectable(m.A, c):
                members.append((c, v))
    assert len(members) <= STACK_CHUNK
    C = np.zeros((len(members), 3, m.n))
    V = np.tile(np.eye(3), (len(members), 1, 1))
    for j, (c, v) in enumerate(members):
        C[j, :len(c)], V[j, :len(c), :len(c)] = c, v
    runs = []
    newton = riccati._newton_dare
    monkeypatch.setattr(riccati, "_newton_dare", lambda *a: runs.append(a[1]) or newton(*a))
    S, iters, (nonsingular, _) = riccati._solve_detectable(m.A, m.W, C, V)
    monkeypatch.undo()
    assert len(runs) == 1 and nonsingular.any() and not nonsingular.all()
    assert {len(c) for (c, _), ok in zip(members, nonsingular) if not ok} == {1, 2, 3}
    for cov, count, (c, v) in zip(S, iters.tolist(), members):
        alone = riccati.solve_dare(m.A, c, m.W, v)
        if len(c) == 3:  # no padding: the bits of the lone solve
            assert count == alone.iterations and np.array_equal(cov, alone.cov)
        else:
            assert np.abs(cov - alone.cov).max() <= REL * np.abs(alone.cov).max()


def test_padding_does_not_fool_pbh():
    # the unstable mode 1.2 has a two-dimensional kernel, so no single
    # sensor sees it; in one chunk every support is padded to four sensors,
    # and the null sensors must not count towards the kernel's rank
    rng = np.random.default_rng(19)
    m = validate_model(SystemModel(n=3, q=4, A=np.diag([1.2, 1.2, 0.5]), C=rng.standard_normal((4, 3)),
                                   W=np.eye(3), V=np.eye(4)))
    supports = [s for r in range(5) for s in combinations(range(4), r)]
    assert len(supports) <= STACK_CHUNK
    for metric in ("priori", "posteriori"):
        traces, _ = _score([(_ScoreTable(m, metric), s) for s in supports])
        for s, got in zip(supports, traces):
            want = _scalar(m, s, metric)
            assert np.isinf(got) == np.isinf(want) == (len(s) <= 1), (s, got, want)
            assert np.isinf(got) or abs(got - want) <= REL * want, (s, got, want)


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_empty_support_in_a_chunk_of_survivor_sets_keeps_its_bits(metric):
    # padded to three null sensors, the empty support has G = 0 exactly, so
    # nothing rounds differently from its lone solve
    m = build_example2(0.9, 0.01)
    table = _ScoreTable(m, metric)
    members = [(table, ())] + [(table, s) for s in combinations(range(m.q), 3)]
    traces, diags = _score(members)
    (alone,), alone_diag = _stack(m, [()], metric)
    assert repr(traces[0]) == repr(alone) and np.array_equal(diags[0], alone_diag[0])


def test_fixed_point_raises_no_convergence(monkeypatch):
    m = build_example1(0.9, 1e4)
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as alone:
        riccati.solve_dare(m.A, m.C[:2], m.W, m.V[:2, :2])
    with pytest.raises(NoConvergence) as stacked:
        _stack(m, [list(c) for c in combinations(range(3), 2)], "posteriori")
    for exc in (alone, stacked):
        assert exc.value.iterations == 2
        assert exc.value.residual > 0


def _stein_stack(rng, k, n, radii):
    """Stacks F (k x n x n) with the given spectral radii and Q (k x n x n)
    PSD, for the Stein equation S = F S F' + Q."""
    F = rng.standard_normal((k, n, n))
    F *= (np.asarray(radii) / np.abs(np.linalg.eigvals(F)).max(axis=1))[:, None, None]
    B = rng.standard_normal((k, n, n))
    return F, B @ B.transpose(0, 2, 1)


@pytest.mark.parametrize("seed", range(5))
def test_stein_doubling_equals_the_zero_g_run_bit_for_bit(seed):
    rng = np.random.default_rng(300 + seed)
    k, n = 12, int(rng.integers(1, 5))
    F, Q = _stein_stack(rng, k, n, rng.uniform(0.05, 0.99, k))
    S, counts = riccati._doubling_dare(F, None, Q)
    S0, counts0 = riccati._doubling_dare(F, np.zeros((k, n, n)), Q)
    assert np.array_equal(S, S0) and np.array_equal(counts, counts0)
    assert len(set(counts.tolist())) > 1  # members freeze at different doublings
    for cov, f, q in zip(S, F, Q):  # each member solves its Stein equation
        assert np.linalg.norm(f @ cov @ f.T + q - cov) <= 1e-9 * np.linalg.norm(cov)


def test_fro_equals_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(31)
    for shape in [(1, 1, 1), (5, 2, 2), (7, 3, 3), (4, 6, 6), (3, 2, 5), (0, 3, 3)]:
        X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape)
        assert riccati._fro(X).tobytes() == np.linalg.norm(X, axis=(1, 2)).tobytes()


def test_stein_doubling_without_a_stable_f_raises_no_convergence():
    rng = np.random.default_rng(32)
    k, n = 4, 3
    for radii, message in [([0.5, 1.0, 0.9, 0.3], "iteration cap"),  # H doubles
                           ([0.5, 1.2, 0.9, 0.3], "non-finite")]:  # H overflows
        F, Q = _stein_stack(rng, k, n, radii)
        if radii[1] == 1.0:  # a cyclic shift, whose powers stay exact
            F[1] = np.roll(np.eye(n), 1, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoConvergence, match=message) as stein:
                riccati._doubling_dare(F, None, Q)
            with pytest.raises(NoConvergence) as zero_g:
                riccati._doubling_dare(F, np.zeros((k, n, n)), Q)
        assert str(stein.value) == str(zero_g.value)


def test_stein_runs_of_a_newton_solve_call_no_linear_solve(monkeypatch):
    runs = []  # [Stein?, np.linalg.solve calls] of each doubling run, in order
    doubling, solve = riccati._doubling_dare, np.linalg.solve

    def spy_doubling(A, G, W):
        runs.append([G is None, 0])
        return doubling(A, G, W)

    def spy_solve(*args):
        if runs:
            runs[-1][1] += 1
        return solve(*args)

    monkeypatch.setattr(riccati, "_doubling_dare", spy_doubling)
    monkeypatch.setattr(np.linalg, "solve", spy_solve)
    m = build_example1(0.9, 1e4)
    res = riccati.solve_dare(m.A, m.C[:2], m.W, m.V[:2, :2])
    assert res.is_finite and res.iterations >= 2
    start, *stein = runs
    assert start[0] is False and start[1] > 0  # the V + delta I start solves
    assert len(stein) == res.iterations and all(run == [True, 0] for run in stein)


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
    (before,), _ = _stack(m, [base], metric)
    extra = [i for i in range(m.q) if i not in base]
    after, _ = _stack(m, [sorted(base + [j]) for j in extra], metric)
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
        t_pri, priori = _stack(m, supports, "priori")
        t_post, posteriori = _stack(m, supports, "posteriori")
        for support, tp, tq, pri, post in zip(supports, t_pri, t_post, priori, posteriori):
            if math.isinf(tp):
                assert math.isinf(tq)
                continue
            scale = np.maximum(1.0, pri)
            assert np.all(post <= pri + 1e-12 * scale), support
            # A is diagonal, so the diagonal of S = A S* A' + W is a^2 S*_ii + W_ii
            assert np.all(np.abs(pri - (a_sq * post + w)) <= 1e-9 * scale), support


def _old_pbh(A, C):
    """The batched-SVD PBH rule that the kernel-basis test replaced, kept as
    its reference: for every member of the stack C (k x p x n) and every
    unstable mode lam, one SVD of [A - lam I; C_S], at full rank when its
    smallest singular value is above PBH_TOL times its largest."""
    k, n = C.shape[0], A.shape[0]
    ok = np.ones(k, dtype=bool)
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - riccati.PBH_TOL:
            blocks = np.concatenate(
                (np.broadcast_to(A - lam * np.eye(n), (k, n, n)), C.astype(complex)), axis=1)
            sv = np.linalg.svd(blocks, compute_uv=False)
            ok &= ~((sv[:, 0] == 0.0) | (sv[:, -1] <= riccati.PBH_TOL * sv[:, 0]))
    return ok


def _pbh_verdicts(A, C, sizes=None):
    """Old and new PBH verdicts on every subset of C's rows with a size in
    ``sizes`` (every size by default), by size, then lexicographically."""
    q = C.shape[0]
    images = riccati._mode_images(A, C)
    old, new = [], []
    for r in range(q + 1) if sizes is None else sizes:
        combos = list(combinations(range(q), r))
        idx = np.array(combos, dtype=np.intp).reshape(len(combos), r)
        old += _old_pbh(A, C[idx]).tolist()
        new += riccati._detectable(images, idx).tolist()
    return old, new


def _modal_model(rng, J, stable, q, jordan):
    """A = Q diag(J, stable) Q' with Q random orthogonal, and q sensors C = R Q'
    whose modal rows R are random, with each coordinate of the unstable block
    J zeroed at random (a Jordan block's two coordinates together, so no
    sensor sees its generalized eigenvector alone)."""
    u, n = len(J), len(J) + len(stable)
    M = np.zeros((n, n))
    M[:u, :u], M[u:, u:] = J, np.diag(stable)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    R = rng.standard_normal((q, n))
    R[:, :u] *= rng.random((q, 1 if jordan else u)) < 0.5
    return Q @ M @ Q.T, R @ Q.T


UNSTABLE_BLOCKS = {
    "simple real": [[1.1]],
    "complex pair": [[1.0, -0.6], [0.6, 1.0]],
    "repeated, geometric multiplicity 2": [[1.2, 0.0], [0.0, 1.2]],
    "Jordan block": [[1.1, 1.0], [0.0, 1.1]],
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("block", list(UNSTABLE_BLOCKS))
def test_pbh_verdicts_match_the_batched_svd_rule(block, seed):
    rng = np.random.default_rng(500 + seed)
    A, C = _modal_model(rng, np.array(UNSTABLE_BLOCKS[block]), [0.5, -0.3], 7, block == "Jordan block")
    old, new = _pbh_verdicts(A, C)
    assert new == old
    assert any(new) and not all(new)
    # is_detectable is the stack of one
    for r in (0, 1, 2, 7):
        for support in list(combinations(range(7), r))[:5]:
            assert riccati.is_detectable(A, C[list(support)]) == _old_pbh(A, C[None, list(support)])[0]


@pytest.mark.parametrize("seed", range(3))
def test_pbh_verdicts_match_on_random_solve_instances(seed):
    # the benchmark's random-solve recipe: every subset for q = 6, 10, 14,
    # and for q = 18 the sizes its budget-3 select and attack runs score
    for q in (6, 10, 14, 18):
        m = _random_model(np.random.default_rng(600 + seed), q)
        old, new = _pbh_verdicts(m.A, m.C, (0, 1, 2, 3, 15, 16, 17, 18) if q == 18 else None)
        assert new == old
        assert not new[0] and all(new[1:])  # only the empty set is blind


@pytest.mark.parametrize("lam", [0.9, 1.1])
def test_pbh_verdicts_match_on_the_example_families(lam):
    # the families' A is stable; at lam = 1.1 state 1 is an unstable mode
    for m in (build_example1(0.9, 10.0), build_example1(0.9, 1e3), build_example2(0.9, 0.1),
              build_example2(0.9, 1e-4)):
        A = m.A.copy()
        A[0, 0] = lam
        old, new = _pbh_verdicts(A, m.C)
        assert new == old
        assert all(new) == (lam < 1.0)


def test_pbh_near_threshold_verdict_is_pinned():
    # C v = 1.6e-9 on the unstable eigenvector e1, with ||A||_2 = 1.2: above
    # PBH_TOL relative to ||A||_2, so the mode counts as seen; the old rule's
    # ratio sigma_min / sigma_max of [A - 1.2 I; C] is 7.5e-10 and said blind
    A, C = np.diag([1.2, 0.5]), np.array([[1.6e-9, 1.0]])
    assert riccati.is_detectable(A, C)
    assert not _old_pbh(A, C[None])[0]
    assert not riccati.is_detectable(A, np.array([[1.2e-9, 1.0]]))  # at PBH_TOL ||A||_2
    # modes 1e-7 apart are one double mode at PBH_TOL ||A||_2 = 5e-7, so one
    # sensor cannot see both, and two independent ones can
    A = np.diag([1.2, 1.2 + 1e-7, 500.0])
    C = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    old, new = _pbh_verdicts(A, C)
    assert new == old == [False] * 4 + [True] * 4


def test_pbh_verdicts_where_the_batched_svd_rule_was_wrong():
    # A = 1.2 I up to round-off: the mode's kernel is the whole plane, so
    # only two independent sensors see it; the old rule's scale was the
    # round-off in A - lam I, and it called the empty set detectable
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    A, C = Q @ (1.2 * np.eye(2)) @ Q.T, rng.standard_normal((3, 2))
    old, new = _pbh_verdicts(A, C)
    assert new == [False] * 4 + [True] * 4  # every pair and the triple
    assert old[0]
    # a sensor gain of 1e5 next to ||A||_2 = 1.1: sensors 0 and 1 see state 1
    # with gain 1, but the old rule's scale was the gain
    m = build_example1(0.9, 1e5)
    A = m.A.copy()
    A[0, 0] = 1.1
    old, new = _pbh_verdicts(A, m.C)
    assert new == [False, True, True, False, True, True, True, True]
    assert old == [False, False, False, False, False, False, False, False]


def _posteriori_stack(rng, k, n, p):
    B = rng.standard_normal((k, n, n))
    S = B @ B.transpose(0, 2, 1) + 0.1 * np.eye(n)
    return S, rng.standard_normal((k, p, n)), np.stack([_spd(rng, p) for _ in range(k)])


@pytest.mark.parametrize("seed", range(4))
def test_posteriori_g_form_matches_joseph_and_subtraction(seed):
    rng = np.random.default_rng(700 + seed)
    n, p = int(rng.integers(1, 8)), int(rng.integers(1, 16))
    S, C, V = _posteriori_stack(rng, 24, n, p)
    noise = riccati._noise_gain(C, V)
    assert noise[0].all()
    got = riccati._posteriori(S, C, V, noise)
    CS = C @ S
    M = CS @ C.transpose(0, 2, 1) + V
    K = np.linalg.solve(M, CS).transpose(0, 2, 1)
    F = np.eye(n) - K @ C
    joseph = F @ S @ F.transpose(0, 2, 1) + K @ V @ K.transpose(0, 2, 1)
    subtraction = S - CS.transpose(0, 2, 1) @ np.linalg.solve(M, CS)
    for ref in (joseph, subtraction):
        err = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert err.max() <= 1e-10


def test_posteriori_stack_mixing_singular_and_nonsingular_equals_members_alone():
    rng = np.random.default_rng(710)
    S, C, V = _posteriori_stack(rng, 12, 4, 3)
    V[::3, 1, :] = V[::3, :, 1] = 0.0  # a noiseless sensor: the Joseph form
    nonsingular, _ = noise = riccati._noise_gain(C, V)
    assert any(nonsingular) and not all(nonsingular)
    stacked = riccati._posteriori(S, C, V, noise)
    for got, s, c, v in zip(stacked, S, C, V):
        assert np.array_equal(got, riccati.posteriori_from_priori(s, c, v))
