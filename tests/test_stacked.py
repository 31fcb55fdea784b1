"""The stacked candidate scorer against the per-subset solve.

``solvers._ScoreTable`` solves many supports, of one size or of several, as
batched stacks; every score must agree with ``evaluate_selection`` on the
same support, whatever mix of members a stack holds.
"""

import math
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kfsslab import cli, gadgets, model, riccati, solvers
from kfsslab.gadgets import (
    X3CInstance,
    build_example1,
    build_example2,
    build_kfsa_gadget,
    build_kfss_gadget,
    x3c_decide_via_kfsa,
    x3c_decide_via_kfss,
)
from kfsslab.model import AttackVector, SelectionVector, SystemModel, complement, validate_model
from kfsslab.riccati import NoConvergence
from kfsslab.solvers import (
    STACK_CHUNK,
    _ScoreTable,
    evaluate_selection,
    exhaustive_attack,
    exhaustive_select,
    greedy_attack,
    greedy_select,
)

REL = 1e-12
ULPS = 4 * np.finfo(float).eps


def _stack(m, supports, metric):
    """Traces and diagonals of ``supports``, scored as one request on a
    fresh table."""
    scored = _ScoreTable([m], metric, attack=False)([(0, tuple(sorted(s))) for s in supports])
    return [trace for trace, _ in scored], np.array([diag for _, diag in scored])


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
    S, iters = riccati._solve_detectable(m.A, m.W, C, V, riccati.psd_root(m.W, "W"))
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
    # the members of the one chunk, singular or not, go to the filtered
    # doubling as one stack, with no second PBH test and no Newton run
    table = _ScoreTable([m], "posteriori", attack=False)  # its stabilizability test is a PBH test
    calls = []
    for name in ("is_detectable", "_filtered", "_newton_dare"):
        original = getattr(riccati, name)
        monkeypatch.setattr(riccati, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    table([(0, tuple(sorted(s))) for s in supports])
    assert len(supports) <= STACK_CHUNK
    assert calls == ["_filtered"]


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

    def spy(owner, name):
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original, _n=name, **k: calls.append(_n) or _f(*a, **k))

    for owner, name in ((riccati, "solve_dare"), (riccati, "posteriori_from_priori"),
                        (solvers, "posteriori_from_priori"), (solvers, "evaluate_selection")):
        spy(owner, name)
    reports = []
    for metric in ("priori", "posteriori"):
        for budget in (0, 1, 2):
            reports += [greedy_select(m, budget, metric), greedy_attack(m, budget, metric),
                        exhaustive_select(m, m.b, float(budget), metric),
                        exhaustive_attack(m, m.omega, float(budget), metric)]
    assert calls == []
    spy(riccati, "_solve_detectable")  # the kernel, which the drivers call directly
    solvers.evaluate_selection(m, SelectionVector.from_support(m.q, range(m.q)), "posteriori")
    riccati.posteriori_from_priori(m.W, m.C, m.V)
    # the spies see calls, and the reference reaches the kernel through solve_dare
    assert calls == ["evaluate_selection", "solve_dare", "_solve_detectable", "posteriori_from_priori"]
    monkeypatch.undo()
    infinite = 0
    for report in reports:
        kept = report.chosen if report.mode == "select" else complement(report.chosen)
        want = evaluate_selection(m, kept, report.metric)
        assert (report.trace, report.diag) == (want.trace, want.diag), report
        infinite += math.isinf(report.trace)
    assert (infinite > 0) == (case in ("undetectable", "nonsingular"))  # A unstable


def test_stack_of_several_tables_equals_each_member_alone():
    # example1 at several gains, noiseless (the reduced path) and with
    # V = 0.3 I (the doubling path), shares A and W, so one stack holds them
    models = [build_example1(0.9, h) for h in (1e-3, 1.0, 1e3)]
    for h in (1e-3, 1e3):
        m = build_example1(0.9, h)
        m.V = 0.3 * np.eye(m.q)
        models.append(validate_model(m))
    for metric in ("priori", "posteriori"):
        table = _ScoreTable(models, metric, attack=False)
        for r in range(4):
            members = [(j, s) for s in combinations(range(3), r) for j in range(len(models))]
            for (j, s), (trace, diag) in zip(members, table(members)):
                (alone,), alone_diag = _stack(models[j], [s], metric)
                assert repr(trace) == repr(alone) and np.array_equal(diag, alone_diag[0], equal_nan=True)
    with pytest.raises(ValueError, match="share A, W"):
        _ScoreTable([models[0], build_example1(0.6, 1.0)], "priori", attack=False)


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_a_stored_diagonal_does_not_keep_its_chunk_stack_alive(metric):
    # a stored diagonal is a row of the chunk's own k x n array, not a view
    # of the k x n x n covariance stack, in a chunk with undetectable
    # members (the pairs) and in one without (the triples)
    table = _ScoreTable([_blind_model()], metric, attack=False)
    pairs = table([(0, s) for s in combinations(range(4), 2)])
    triples = table([(0, s) for s in combinations(range(4), 3)])
    assert any(np.isinf(trace) for trace, _ in pairs) and not any(np.isinf(trace) for trace, _ in triples)
    for _, diag in pairs + triples:
        assert diag.shape == (3,) and (diag.base is None or diag.base.ndim == 2)


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
    else:  # the noiseless example families at extreme gains, or their A with a second nonzero column
        m = build_example1(0.9, 1e4) if case.startswith("example1") else build_example2(0.9, 1e-4)
        if case.endswith("two-column"):
            m = _two_column(m)
    return m


def _two_column(m):
    """m with 1e-3 added to A's state 2: a family A with two nonzero
    columns, whose members double instead of taking the closed form."""
    return validate_model(replace(m, A=m.A + np.diag([0.0, 1e-3, 0.0])))


# the example families' A has one nonzero column, which takes the closed
# form; "two-column" runs the filtered doubling on the same sensors
SINGULAR_CASES = ["example1", "example2", "example1 two-column", "example2 two-column", "zero-diagonal",
                  "rank-one W"]


def _singular_stack(case):
    """A, W and the stacks C, V of sensor pairs whose every member has
    singular V."""
    m = _singular_model(case)
    pairs = np.array([c for c in combinations(range(m.q), 2) if case != "zero-diagonal" or 1 in c])
    return m.A, m.W, m.C[pairs], m.V[pairs[:, :, None], pairs[:, None, :]]


def _singular_kernel(case):
    """The kernel that solves _singular_model(case)'s singular members:
    Newton for the singular W, the filtered doubling for the others."""
    return "_newton_dare" if case == "rank-one W" else "_filtered"


def _spy_runs(monkeypatch, name):
    """A list that records the arguments of each call of riccati's ``name``."""
    runs, kernel = [], getattr(riccati, name)
    monkeypatch.setattr(riccati, name, lambda *a: runs.append(a) or kernel(*a))
    return runs


@pytest.mark.parametrize("case", SINGULAR_CASES)
def test_fixed_point_stack_equals_members_alone(case, monkeypatch):
    A, W, C, V = _singular_stack(case)
    assert not riccati._noise_gain(C, V)[0].any()
    runs = _spy_runs(monkeypatch, _singular_kernel(case))
    S, steps = riccati._solve_detectable(A, W, C, V, riccati.psd_root(W, "W"))
    monkeypatch.undo()
    assert len(runs) == 1  # every member in one run of its kernel
    for cov, count, c, v in zip(S, steps.tolist(), C, V):
        alone = riccati.solve_dare(A, c, W, v)
        assert count == alone.iterations and np.array_equal(cov, alone.cov)
        if case in ("zero-diagonal", "rank-one W"):
            # the result is a fixed point of the recursion
            residual = np.linalg.norm(_riccati_step(cov, A, c, W, v) - cov)
            assert residual <= 1e-12 * max(1.0, np.linalg.norm(cov))
    if case.endswith("two-column"):
        # members freeze at different doublings
        assert len(set(steps.tolist())) > 1
    elif case.startswith("example"):
        assert not steps.any()  # the closed form doubles nothing


def _mixed_chunk(m):
    """The detectable sets of 1, 2 and 3 sensors with the model's V
    (singular, or singular where sensor 1 is in) and the pairs with
    V + 0.3 I as well, each padded to 3 sensors as _ScoreTable pads a
    chunk: null sensors with a zero row of C and unit, uncorrelated noise.
    Returns the unpadded (C, V) members and the padded stacks C and V."""
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
    return members, C, V


@pytest.mark.parametrize("case", SINGULAR_CASES)
def test_chunk_of_several_sensor_counts_equals_members_alone(case, monkeypatch):
    # one kernel run over _mixed_chunk's singular members.  A padded member
    # agrees with its lone solve to round-off; on these models the noiseless
    # filtered members keep their lone bits as well
    m = _singular_model(case)
    members, C, V = _mixed_chunk(m)
    runs = _spy_runs(monkeypatch, _singular_kernel(case))
    S, iters = riccati._solve_detectable(m.A, m.W, C, V, riccati.psd_root(m.W, "W"))
    monkeypatch.undo()
    nonsingular, _ = riccati._noise_gain(C, V)
    assert len(runs) == 1 and nonsingular.any() and not nonsingular.all()
    assert {len(c) for (c, _), ok in zip(members, nonsingular) if not ok} == {1, 2, 3}
    for cov, count, (c, v), ok in zip(S, iters.tolist(), members, nonsingular):
        alone = riccati.solve_dare(m.A, c, m.W, v)
        if len(c) == 3 or (not ok and case != "rank-one W"):  # the bits of the lone solve
            assert count == alone.iterations and np.array_equal(cov, alone.cov)
        else:
            assert np.abs(cov - alone.cov).max() <= REL * np.abs(alone.cov).max()


def _padded(c, v, pads):
    """The stack of one of c (p x n) and v (p x p) with ``pads`` null
    sensors, as _ScoreTable pads a chunk: zero rows of C with unit,
    uncorrelated noise."""
    p, n = c.shape
    C, V = np.zeros((1, p + pads, n)), np.eye(p + pads)[None].copy()
    C[0, :p], V[0, :p, :p] = c, v
    return C, V


def _noiseless_rows(C, V):
    """Each member's count of noiseless rows in _noise's description."""
    return riccati._noise(C, V)[0].any(axis=2).sum(axis=1)


def _pad_case(case):
    """(A, W, c, v) for one of the decompositions that see the pads:
    _split's rotation of a rank-one correlated V beside a noisy sensor,
    _measured's SVD of four noiseless rows on three states, and _update's
    augmented solve of a small noise beside a noiseless sensor, with a full
    A (the filtered doubling) or one nonzero column (the closed form)."""
    rng = np.random.default_rng(35)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A, W = (Q * [1.05, 0.5, -0.3]) @ Q.T, _spd(rng, 3)
    c = rng.standard_normal((4, 3))
    if case == "rotation":
        u = np.array([0.3, 0.7, 1.1])
        v = np.zeros((4, 4))
        v[:3, :3], v[3, 3] = np.outer(u, u), 0.5
    elif case == "wide":
        v = np.zeros((4, 4))
    else:
        noise, columns = case.split()[1:]
        if columns == "one-column":
            A = np.outer([1.1, 0.4, -0.2], [1.0, 0.0, 0.0])
        c, v = c[:2], np.diag([float(noise), 0.0])
    return A, W, c, v


PAD_CASES = ["rotation", "wide"] + [f"augmented {noise} {columns}" for noise in ("1e-8", "1e-6")
                                    for columns in ("full", "one-column")]


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
@pytest.mark.parametrize("case", PAD_CASES)
def test_a_padded_member_agrees_with_its_lone_solve(case, metric, monkeypatch):
    # with 1, 2 and 3 null sensors, the member keeps its noiseless rows and
    # its iteration count, and its covariance is within round-off
    A, W, c, v = _pad_case(case)
    alone = riccati.solve_dare(A, c, W, v, posteriori=metric == "posteriori")
    want = {"rotation": 2, "wide": 4}.get(case, 1)
    assert _noiseless_rows(c[None], v[None]).tolist() == [want]
    updates = _spy_runs(monkeypatch, "_update")
    for pads in (1, 2, 3):
        C, V = _padded(c, v, pads)
        assert _noiseless_rows(C, V).tolist() == [want]
        S, iters = riccati._solve_detectable(A, W, C, V, riccati.psd_root(W, "W"), metric == "posteriori")
        assert iters.tolist() == [alone.iterations]
        assert np.linalg.norm(S[0] - alone.cov) <= 1e-12 * max(1.0, np.linalg.norm(alone.cov))
    if case.startswith("augmented"):  # I + X G too ill-conditioned for the n x n solve
        X, F, _ = updates[-1]
        M = np.eye(3) + X @ F.transpose(0, 2, 1) @ F
        assert (np.linalg.norm(M, axis=(1, 2)) * np.linalg.norm(np.linalg.inv(M), axis=(1, 2)) > 1e3).all()
        assert (np.trace(X, axis1=1, axis2=2) * (F * F).sum(axis=(1, 2)) > riccati.UPDATE_BOUND).all()


def _graded_member(rng):
    """Sensors on up to 5 states with row gains and noise from 1e-3 to
    1e3, 40% of them noiseless; half the members with p > 1 correlate the
    noisy ones through a V of rank below p."""
    n, p = (int(x) for x in rng.integers(1, [6, 7]))
    gain, noise = 10.0 ** rng.uniform(-3.0, 3.0, (2, p))
    noise[rng.random(p) < 0.4] = 0.0
    c = gain[:, None] * rng.standard_normal((p, n))
    if p > 1 and rng.random() < 0.5:
        E = noise[:, None] * rng.standard_normal((p, p))
        E[:, int(rng.integers(1, p)):] = 0.0
        return c, E @ E.T
    return c, np.diag(noise**2)


def test_padding_keeps_every_noiseless_decision():
    # _split's round-off cut counts the rows that are not null, so no
    # padded member gains or loses a noiseless row; a cut that counted the
    # pads flipped 8 of these members (6 and 10 at seeds 1 and 2).  Members
    # of one shape share a stack, which keeps each member's decision
    rng = np.random.default_rng(0)
    lone = [_graded_member(rng) for _ in range(10000)]
    padded = [tuple(M[0] for M in _padded(c, v, int(rng.integers(1, 4)))) for c, v in lone]
    counts = []
    for members in (lone, padded):
        count = np.empty(len(members), dtype=int)
        for shape in {c.shape for c, _ in members}:
            idx = [j for j, (c, _) in enumerate(members) if c.shape == shape]
            count[idx] = _noiseless_rows(*(np.array([members[j][i] for j in idx]) for i in (0, 1)))
        counts.append(count)
    assert counts[0].any() and np.array_equal(*counts)


@pytest.mark.parametrize("case", SINGULAR_CASES)
def test_posteriori_solve_is_the_update_of_the_priori_solve(case):
    # the a posteriori traces agree with those of _posteriori of the a
    # priori stack to 1e-12 relative, doubling, filtered and Newton members
    # alike: the filtered run solves the a posteriori equation itself, a
    # different rounding of the same covariance
    m = _singular_model(case)
    _, C, V = _mixed_chunk(m)
    R0, F = riccati._noise(C, V)
    noiseless = R0.any(axis=(1, 2))
    assert noiseless.any() and not noiseless.all()
    S, _ = riccati._solve_detectable(m.A, m.W, C, V, riccati.psd_root(m.W, "W"))
    post, _ = riccati._solve_detectable(m.A, m.W, C, V, riccati.psd_root(m.W, "W"), posteriori=True)
    got, want = (np.trace(X, axis1=1, axis2=2) for X in (post, riccati._posteriori(S, R0, F)))
    assert np.all(np.abs(got - want) <= 1e-12 * want)
    assert not np.array_equal(post, S)


def _decimal_posteriori_trace(A, C, W, V, steps):
    """Trace of the a posteriori Riccati recursion P <- S - S C' M^-1 C S,
    S = A P A' + W, M = C S C' + V, from P = W, at 50 digits; C has two
    rows, so M is inverted by its adjugate."""
    from decimal import Decimal, localcontext

    def mul(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(len(Y))) for j in range(len(Y[0]))] for i in range(len(X))]

    def lin(X, Y, b):
        return [[x + b * y for x, y in zip(u, w)] for u, w in zip(X, Y)]

    with localcontext() as ctx:
        ctx.prec = 50
        A, C, W, V = ([[Decimal(float(x)) for x in row] for row in M] for M in (A, C, W, V))
        At, Ct = [list(r) for r in zip(*A)], [list(r) for r in zip(*C)]
        P = W
        for _ in range(steps):
            S = lin(mul(mul(A, P), At), W, 1)
            SC = mul(S, Ct)
            M = lin(mul(C, SC), V, 1)
            det = M[0][0] * M[1][1] - M[0][1] * M[1][0]
            inv = [[M[1][1] / det, -M[0][1] / det], [-M[1][0] / det, M[0][0] / det]]
            P = lin(S, mul(mul(SC, inv), [list(r) for r in zip(*SC)]), -1)
        return float(sum(P[i][i] for i in range(len(P))))


def test_posteriori_trace_off_the_gain_axes_matches_a_50_digit_recursion():
    # example1 at h = 1e4 with V = 0.3 I, sensors 0 and 2: G = C' V^-1 C is
    # large along a direction off the axes, where an n x n solve with
    # I + S G loses eps cond (6.7e8 here).  The a priori solve's G-form
    # update was 3.2e-10 off and a filtered run whose transform took that
    # solve 1.0e-9 off; the augmented solve of _update is within 1e-15
    m = build_example1(0.9, 1e4)
    m.V = 0.3 * np.eye(m.q)
    got = solvers.evaluate_selection(validate_model(m), SelectionVector.from_support(m.q, (0, 2)), "posteriori")
    c, v = m.C[[0, 2]], m.V[:2, :2]
    want = _decimal_posteriori_trace(m.A, c, m.W, v, 400)
    assert want == _decimal_posteriori_trace(m.A, c, m.W, v, 500)  # converged
    assert abs(got.trace - want) <= 1e-13 * want


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
        traces, _ = _stack(m, supports, metric)
        for s, got in zip(supports, traces):
            want = _scalar(m, s, metric)
            assert np.isinf(got) == np.isinf(want) == (len(s) <= 1), (s, got, want)
            assert np.isinf(got) or abs(got - want) <= REL * want, (s, got, want)


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_empty_support_in_a_chunk_of_survivor_sets_keeps_its_bits(metric):
    # padded to three null sensors, the empty support has G = 0 exactly, so
    # nothing rounds differently from its lone solve
    m = build_example2(0.9, 0.01)
    traces, diags = _stack(m, [()] + list(combinations(range(m.q), 3)), metric)
    (alone,), alone_diag = _stack(m, [()], metric)
    assert repr(traces[0]) == repr(alone) and np.array_equal(diags[0], alone_diag[0])


def test_null_sensors_pad_with_unit_uncorrelated_noise(monkeypatch):
    # a member padded with two or more null sensors gets an identity noise
    # block for them, so padding leaves a nonsingular V nonsingular: the 8
    # singletons of greedy_and_optimal's first scoring, padded to 3 sensors
    # next to the maximal triples, take the doubling, and no member the
    # reduction.  Padded to three, the empty selection of example2 with a
    # second nonzero column in A takes the doubling too, beside its
    # noiseless triples
    filtered = riccati._filtered
    members = []
    monkeypatch.setattr(riccati, "_filtered", lambda A, W, L, R0, F, *a: members.append(len(R0)) or filtered(
        A, W, L, R0, F, *a))
    m = _random_model(np.random.default_rng(41), 8)
    ((greedy, optimal, _),) = solvers.greedy_and_optimal([m], 3, "select", "priori")
    assert members == []
    for report in (greedy, optimal):
        assert abs(report.trace - _scalar(m, report.chosen.support, "priori")) <= REL * report.trace
    m = _two_column(build_example2(0.9, 0.01))
    triples = list(combinations(range(m.q), 3))
    _stack(m, [()] + triples, "priori")
    assert members == [sum(riccati.is_detectable(m.A, m.C[list(s)]) for s in triples)]


def test_fixed_point_raises_no_convergence(monkeypatch):
    m = _two_column(build_example1(0.9, 1e4))
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


def _zero_g_run(F, Q):
    """S = F S F' + Q for every member of the stacks F and Q: the G = 0
    doubling run, which solves Newton's Stein equations."""
    return riccati._doubling_dare(F, np.zeros_like(F), Q)[0]


@pytest.mark.parametrize("seed", range(5))
def test_stein_doubling_equals_the_zero_g_run_bit_for_bit(seed):
    rng = np.random.default_rng(300 + seed)
    k, n = 12, int(rng.integers(1, 5))
    F, Q = _stein_stack(rng, k, n, rng.uniform(0.05, 0.99, k))
    S, counts = riccati._doubling_dare(F, np.zeros_like(F), Q)
    assert len(set(counts.tolist())) > 1  # members freeze at different doublings
    for cov, f, q in zip(S, F, Q):  # each member solves its Stein equation
        assert np.linalg.norm(f @ cov @ f.T + q - cov) <= 1e-9 * np.linalg.norm(cov)


def test_fro_equals_linalg_norm_bit_for_bit():
    rng = np.random.default_rng(31)
    for shape in [(1, 1, 1), (5, 2, 2), (7, 3, 3), (4, 6, 6), (3, 2, 5), (0, 3, 3)]:
        X = rng.standard_normal(shape) * 10.0 ** rng.uniform(-150, 150, shape)
        assert riccati._fro(X).tobytes() == np.linalg.norm(X, axis=(1, 2)).tobytes()


def test_fro_of_entries_near_the_float_maximum_stays_finite():
    # squares above about 1.3e154 overflow: only such a member is summed
    # again, scaled; an infinite entry or a norm past the float maximum
    # stays infinite, and the other members keep the plain sum's bits
    X = np.zeros((5, 2, 2))
    X[0] = [[3.0, 4.0], [0.0, 0.0]]
    X[1] = [[1e200, 0.0], [0.0, 1e200]]
    X[2, 0, 0] = 1.7e308
    X[3, 0, 0] = np.inf
    X[4] = 1.7e308
    with np.errstate(over="ignore"):
        norm = riccati._fro(X)
    assert norm[0] == 5.0 and norm[2] == 1.7e308
    assert math.isclose(norm[1], np.hypot(1e200, 1e200), rel_tol=4 * np.finfo(float).eps)
    assert np.isinf(norm[3:]).all()


def test_stein_doubling_without_a_stable_f_raises_no_convergence():
    rng = np.random.default_rng(32)
    k, n = 4, 3
    for radii, message in [([0.5, 1.0, 0.9, 0.3], "iteration cap"),  # H doubles
                           ([0.5, 1.2, 0.9, 0.3], "non-finite")]:  # H overflows
        F, Q = _stein_stack(rng, k, n, radii)
        if radii[1] == 1.0:  # a cyclic shift, whose powers stay exact
            F[1] = np.roll(np.eye(n), 1, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoConvergence, match=message):
                _zero_g_run(F, Q)


def _frobenius_stack(rng, k, n, norms):
    """_stein_stack's stacks with F rescaled to the given Frobenius norms."""
    F, Q = _stein_stack(rng, k, n, np.ones(k))
    return F * (np.asarray(norms) / np.linalg.norm(F, axis=(1, 2)))[:, None, None], Q


def _direct_stein(F, Q):
    """S = F S F' + Q of every member by one solve of
    (I - F (x) F) vec S = vec Q, symmetrized: the kernel's reference."""
    k, n = F.shape[:2]
    kron = (F[:, :, None, :, None] * F[:, None, :, None, :]).reshape(k, n * n, n * n)
    S = np.linalg.solve(np.eye(n * n) - kron, Q.reshape(k, n * n, 1)).reshape(k, n, n)
    return 0.5 * (S + S.transpose(0, 2, 1))


@pytest.mark.parametrize("seed", range(4))
def test_direct_stein_solve_agrees_with_the_doubling(seed):
    # n = 1-3: on a member with ||F||_F <= 0.9999, where cond(I - F (x) F)
    # <= 1e4, the direct n^2 x n^2 solve has a residual at round-off, and
    # the Stein run of Newton's steps (the G = 0 doubling) agrees with it
    # to 1e-12 relative; members up to rho = 1 - 1e-5 run too
    rng = np.random.default_rng(340 + seed)
    cap = 0.9999
    for n in range(1, 4):
        radii = np.concatenate([rng.uniform(0.05, 0.99, 8), 1.0 - 10.0 ** -rng.uniform(2, 5, 8), [1.0 - 1e-5]])
        F, Q = _stein_stack(rng, len(radii), n, radii)
        near_cap = _frobenius_stack(rng, 8, n, cap * (1.0 - 10.0 ** -rng.uniform(0.5, 4, 8)))
        F, Q = np.concatenate([F, near_cap[0]]), np.concatenate([Q, near_cap[1]])
        direct = np.linalg.norm(F, axis=(1, 2)) <= cap
        assert direct.sum() >= 8 and not direct.all()
        S = _zero_g_run(F, Q)
        ref = _direct_stein(F[direct], Q[direct])
        scale = np.linalg.norm(S[direct], axis=(1, 2))
        residual = np.linalg.norm(F[direct] @ ref @ F[direct].transpose(0, 2, 1) + Q[direct] - ref, axis=(1, 2))
        assert np.all(residual <= 1e-13 * scale), (n, residual / scale)
        gap = np.linalg.norm(ref - S[direct], axis=(1, 2)) / scale
        assert np.all(gap <= 1e-12), (n, gap)


@pytest.mark.parametrize("radius, message", [(1.0, "iteration cap"), (1.2, "non-finite")])
def test_direct_stein_stack_with_an_unstable_member_raises_as_the_doubling(radius, message):
    # a Stein run with a member of rho(F) >= 1 raises for the whole stack
    # as the doubling does on that member alone, after as many doublings;
    # the stable members run without it keep the bits of their lone runs
    rng = np.random.default_rng(35)
    k, n = 6, 3
    radii = [0.5, 0.9, radius, 0.3, 0.99, 0.7]
    F, Q = _stein_stack(rng, k, n, radii)
    if radius == 1.0:  # a cyclic shift, whose powers stay exact
        F[2] = np.roll(np.eye(n), 1, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergence, match=message) as stack:
            _zero_g_run(F, Q)
        with pytest.raises(NoConvergence, match=message) as lone:
            _zero_g_run(F[2:3], Q[2:3])
    assert stack.value.iterations == lone.value.iterations
    stable = np.array(radii) < 1.0
    S = _zero_g_run(F[stable], Q[stable])
    for cov, f, q in zip(S, F[stable], Q[stable]):
        assert np.array_equal(cov, _zero_g_run(f[None], q[None])[0])


def test_stein_run_of_an_unexcited_unit_mode_keeps_its_lone_bits():
    # F = diag(1, F2) with Q = diag(0, Q2) never excites the unit mode: its
    # Kronecker system I - F (x) F is singular, and the Stein run solves it;
    # next to other members, every member keeps its lone bits
    rng = np.random.default_rng(37)
    F, Q = _frobenius_stack(rng, 6, 3, rng.uniform(0.05, 0.99, 6))
    F[3, 0], F[3, :, 0], Q[3, 0], Q[3, :, 0] = 0.0, 0.0, 0.0, 0.0
    F[3, 0, 0] = 1.0
    assert np.linalg.matrix_rank(np.eye(9) - np.kron(F[3], F[3])) < 9
    S = _zero_g_run(F, Q)
    for cov, f, q in zip(S, F, Q):
        assert np.array_equal(cov, _zero_g_run(f[None], q[None])[0])
    assert np.isfinite(S).all() and S[3, 0, 0] == 0.0
    assert np.linalg.norm(F[3] @ S[3] @ F[3].T + Q[3] - S[3]) <= 1e-12 * np.linalg.norm(S[3])


def test_direct_stein_stack_with_a_non_finite_member_raises_as_the_doubling():
    # a NaN closed loop makes the Stein run's iterate non-finite, which the
    # doubling reports for the whole stack as for that member alone
    rng = np.random.default_rng(36)
    F, Q = _frobenius_stack(rng, 8, 3, rng.uniform(0.05, 0.99, 8))
    F[5] = np.nan
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NoConvergence, match="non-finite") as stack:
            _zero_g_run(F, Q)
        with pytest.raises(NoConvergence, match="non-finite") as lone:
            _zero_g_run(F[5:6], Q[5:6])
    assert stack.value.iterations == lone.value.iterations


def _spy_kernel_events(monkeypatch):
    """A list that records, in order, ("doubling", Stein?) for each doubling
    run, a Stein run being one with an all-zero G, ("doublings", count) when
    it returns, and ("solve", matrix shape) for each np.linalg.solve call."""
    events = []
    doubling, solve = riccati._doubling_dare, np.linalg.solve

    def spy(A, G, W):
        events.append(("doubling", not G.any()))
        S, counts = doubling(A, G, W)
        events.append(("doublings", int(counts.max())))
        return S, counts

    monkeypatch.setattr(riccati, "_doubling_dare", spy)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: events.append(("solve", a.shape[1:])) or solve(a, b))
    return events


def _runs(events):
    """[Stein?, np.linalg.solve calls inside the run, doublings] of each
    doubling run in ``events``."""
    runs = []
    for kind, what in events:
        if kind == "doubling":
            runs.append([what, 0, None])
        elif kind == "doublings":
            runs[-1][2] = what
        elif runs and runs[-1][2] is None:
            runs[-1][1] += 1
    return runs


def test_stein_runs_of_a_newton_solve_take_one_linear_solve_per_doubling(monkeypatch):
    # five states, W singular, so the noiseless member takes Newton: every
    # Newton step solves its Stein equation by the G = 0 doubling, one
    # solve of I + G H per doubling
    events = _spy_kernel_events(monkeypatch)
    rng = np.random.default_rng(23)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    A = (Q * [0.95, 0.8, -0.6, 0.4, 0.2]) @ Q.T
    W = np.diag([1.0, 1.0, 1.0, 1.0, 0.0])
    res = riccati.solve_dare(A, rng.standard_normal((2, 5)), W, np.zeros((2, 2)))
    assert res.is_finite and res.iterations >= 2
    start, *stein = _runs(events)
    assert start[0] is False and start[1] == start[2] > 0  # the V + delta I start
    assert len(stein) == res.iterations and all(run[0] and run[1] == run[2] > 0 for run in stein)


def test_stein_equations_of_a_small_newton_solve_take_one_linear_solve_each(monkeypatch):
    # three states, a rank-one W, so a noiseless pair takes Newton: each
    # step's Stein equation is one G = 0 doubling run, one solve of I + G H
    # per doubling, and the answer is a fixed point of the recursion
    events = _spy_kernel_events(monkeypatch)
    A, W, C, V = _singular_stack("rank-one W")
    res = riccati.solve_dare(A, C[0], W, V[0])
    assert res.is_finite and res.iterations >= 2
    start, *stein = _runs(events)
    assert start[0] is False and start[1] == start[2] > 0
    assert len(stein) == res.iterations and all(run[0] and run[1] == run[2] > 0 for run in stein)
    residual = np.linalg.norm(_riccati_step(res.cov, A, C[0], W, V[0]) - res.cov)
    assert residual <= 1e-12 * max(1.0, np.linalg.norm(res.cov))


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
    # an attack table keyed by indicators gives a select table's scores on
    # the survivor sets, bit for bit: both solve the same sets in one order
    attacks = [(), tuple(base)] + [(i,) for i in extra]
    got = _ScoreTable([m], metric, attack=True)([(0, a) for a in attacks])
    survivors = [[i for i in range(m.q) if i not in a] for a in attacks]
    want = _ScoreTable([m], metric, attack=False)([(0, s) for s in map(tuple, survivors)])
    for (trace, diag), (trace_want, diag_want) in zip(got, want):
        assert repr(trace) == repr(trace_want) and np.array_equal(diag, diag_want, equal_nan=True)


@settings(max_examples=40, deadline=None)
@given(instance=_instances(), quiet=st.integers(0, 6))
def test_stacked_priori_dominates_posteriori_and_couples(instance, quiet):
    m, _ = instance
    if quiet < m.q:  # a noiseless sensor: its sets take the reduced path
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
    modes = riccati._modes(A)
    old, new = [], []
    for r in range(q + 1) if sizes is None else sizes:
        combos = list(combinations(range(q), r))
        idx = np.array(combos, dtype=np.intp).reshape(len(combos), r)
        old += _old_pbh(A, C[idx]).tolist()
        new += riccati._detectable(modes, C[idx]).tolist()
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
    R0, F = riccati._noise(C, V)
    assert riccati._noise_gain(C, V)[0].all() and not R0.any()
    got = riccati._posteriori(S, R0, F)
    CS = C @ S
    M = CS @ C.transpose(0, 2, 1) + V
    K = np.linalg.solve(M, CS).transpose(0, 2, 1)
    F = np.eye(n) - K @ C
    joseph = F @ S @ F.transpose(0, 2, 1) + K @ V @ K.transpose(0, 2, 1)
    subtraction = S - CS.transpose(0, 2, 1) @ np.linalg.solve(M, CS)
    for ref in (joseph, subtraction):
        err = np.abs(got - ref).max(axis=(1, 2)) / np.abs(ref).max(axis=(1, 2))
        assert err.max() <= 1e-10


def test_noise_gain_factors_members_one_by_one_after_a_failed_batch(monkeypatch):
    # V = ones((2, 2)) is singular with a positive diagonal: the batched
    # Cholesky factorization fails on it, and the members are factored one
    # by one; only that member is singular, its whitened rows are zero, and
    # every other member's keep the bits of its lone _noise_gain
    rng = np.random.default_rng(720)
    _, C, V = _posteriori_stack(rng, 8, 3, 2)
    V[5] = np.ones((2, 2))
    shapes, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: shapes.append(a.shape) or cholesky(a))
    nonsingular, F = riccati._noise_gain(C, V)
    monkeypatch.undo()
    assert shapes == [(8, 2, 2)] + [(2, 2)] * 8
    assert np.array_equal(nonsingular, np.arange(8) != 5)
    assert F.shape == C.shape and not F[5].any()
    for f, c, v in zip(F[nonsingular], C[nonsingular], V[nonsingular]):
        alone_ok, alone = riccati._noise_gain(c[None], v[None])
        assert alone_ok.all() and np.array_equal(f, alone[0])


def test_posteriori_stack_mixing_singular_and_nonsingular_equals_members_alone():
    rng = np.random.default_rng(710)
    S, C, V = _posteriori_stack(rng, 12, 4, 3)
    V[::3, 1, :] = V[::3, :, 1] = 0.0  # a noiseless sensor: the exact update
    nonsingular, _ = riccati._noise_gain(C, V)
    assert any(nonsingular) and not all(nonsingular)
    stacked = riccati._posteriori(S, *riccati._noise(C, V))
    for got, s, c, v in zip(stacked, S, C, V):
        assert np.array_equal(got, riccati.posteriori_from_priori(s, c, v))


def _assert_certified(A, G, W):
    """Run the doubling with a settle that drops nothing, and check that
    the interval [lo, hi] of each live member, before the first doubling
    and after every one, holds the trace of that member's covariance.  The
    interval is exact for n = 1 Stein members, whose hi is the fixed point
    itself, so it holds to a few ulps, far inside the solvers' tie
    tolerance."""
    S, counts = riccati._doubling_dare(A, G, W)
    seen = []

    def settle(lo, hi):
        seen.append((lo, hi))
        return np.zeros(lo.shape, dtype=bool)

    S_kept, counts_kept = riccati._doubling_dare(A, G, W, settle)
    assert np.array_equal(S_kept, S) and np.array_equal(counts_kept, counts)  # dropping nothing changes no bit
    assert len(seen) == counts.max() + 1
    trace = np.trace(S, axis1=1, axis2=2)
    for t, (lo, hi) in enumerate(seen):
        live = trace[counts >= t]  # members stop in stack order, so the live ones keep it
        assert np.all(lo <= live * (1 + ULPS)) and np.all(live <= hi * (1 + ULPS)), t
        assert np.array_equal(lo[counts[counts >= t] == t], hi[counts[counts >= t] == t])  # hi = lo on stopping
    assert any(np.isfinite(hi).all() and (hi > lo).any() for lo, hi in seen)  # the bound does close in


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_settle_sees_each_member_that_no_run_settles_once_as_its_trace(metric):
    # closed-form, Newton and a priori filtered members drop nothing, and
    # after every run settle gets each one's returned trace t once, as
    # [t, t], so that every kernel run lowers a caller's incumbent; the
    # members of a doubling run in the requested metric reach settle only
    # through that run's intervals, once before and once after each doubling
    posteriori = metric == "posteriori"
    C = np.random.default_rng(4201).standard_normal((4, 2, 2))
    V = np.array([np.diag([0.0, 1.0])] * 2 + [np.eye(2)] * 2)  # members 0 and 1 have a noiseless row
    A = np.array([[0.9, 0.1], [0.0, 0.5]])
    cases = [  # (A, W, the members that no run settles)
        (np.array([[0.9, 0.0], [0.3, 0.0]]), np.eye(2), [0, 1, 2, 3]),  # one nonzero column: the closed form
        (A, np.diag([1.0, 0.0]), [0, 1]),  # W singular: members 0 and 1 take Newton
        (A, np.eye(2), [] if posteriori else [0, 1]),  # members 0 and 1 filtered
    ]
    for A, W, relayed in cases:
        seen = []

        def settle(lo, hi):
            seen.append((lo.copy(), hi.copy()))
            return np.zeros(len(lo), dtype=bool)

        S, iters = riccati._solve_detectable(A, W, C, V, riccati.psd_root(W, "W"), posteriori, settle)
        t = np.trace(S, axis1=1, axis2=2)
        doubled = [i for i in range(4) if i not in relayed]
        assert len(seen) == (iters[doubled].max() + 1 if doubled else 0) + bool(relayed)
        if relayed:
            assert np.array_equal(seen[-1][0], t[relayed]) and np.array_equal(seen[-1][1], t[relayed])


def _nonsingular_members(A, C, V, supports):
    """The stacks of C and V rows of every detectable support (all of one
    size)."""
    idx = np.array(supports, dtype=np.intp)
    idx = idx[riccati._detectable(riccati._modes(A), C[idx])]
    return C[idx], V[idx[:, :, None], idx[:, None, :]]


def _nonsingular_gains(A, C, V, supports):
    """G = C' V^-1 C of every detectable support (all of one size)."""
    nonsingular, F = riccati._noise_gain(*_nonsingular_members(A, C, V, supports))
    assert nonsingular.all()
    return F.transpose(0, 2, 1) @ F


def _assert_certified_posteriori(A, W, C, V):
    """_assert_certified on the filtered run of the members (C, V), none
    with noiseless rows: its solution is the a posteriori covariance P,
    so every doubling's interval holds tr P."""
    R0, F = riccati._noise(C, V)
    assert riccati._noise_gain(C, V)[0].all() and not R0.any()
    _assert_certified(*riccati._filtered(A, W, None, R0, F))


@pytest.mark.parametrize("q", [6, 10, 14, 18])
def test_doubling_interval_holds_the_trace_on_random_solve_stacks(q):
    rng = np.random.default_rng(700 + q)
    m = _random_model(rng, q)
    triples = list(combinations(range(q), 3))
    for sets in (triples, [tuple(i for i in range(q) if i not in c) for c in triples]):
        picked = rng.choice(len(sets), min(len(sets), 2 * STACK_CHUNK), replace=False)
        _assert_certified(m.A, _nonsingular_gains(m.A, m.C, m.V, [sets[i] for i in picked]), m.W)


@pytest.mark.parametrize("K", [1.0, 30.0, 300.0])
def test_doubling_interval_holds_the_trace_on_the_reduction_gadgets(K):
    inst = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    for build, size in ((build_kfss_gadget, inst.m + 1), (build_kfsa_gadget, None)):
        m = build(inst, K).model
        sets = list(combinations(range(m.q), size or m.q - inst.m))
        _assert_certified(m.A, _nonsingular_gains(m.A, m.C, m.V, sets), m.W)


@pytest.mark.parametrize("seed", range(4))
def test_doubling_interval_holds_the_trace_of_stein_runs(seed):
    rng = np.random.default_rng(330 + seed)
    k, n = 16, int(rng.integers(1, 6))
    F, Q = _stein_stack(rng, k, n, rng.uniform(0.05, 0.99, k))
    _assert_certified(F, np.zeros_like(F), Q)


@pytest.mark.parametrize("q", [6, 10, 14, 18])
def test_posteriori_interval_holds_the_trace_on_random_solve_stacks(q):
    rng = np.random.default_rng(700 + q)
    m = _random_model(rng, q)
    triples = list(combinations(range(q), 3))
    for sets in (triples, [tuple(i for i in range(q) if i not in c) for c in triples]):
        picked = rng.choice(len(sets), min(len(sets), 2 * STACK_CHUNK), replace=False)
        _assert_certified_posteriori(m.A, m.W, *_nonsingular_members(m.A, m.C, m.V, [sets[i] for i in picked]))


@pytest.mark.parametrize("K", [1.0, 30.0, 300.0])
def test_posteriori_interval_holds_the_trace_on_the_reduction_gadgets(K):
    inst = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    for build, size in ((build_kfss_gadget, inst.m + 1), (build_kfsa_gadget, None)):
        m = build(inst, K).model
        sets = list(combinations(range(m.q), size or m.q - inst.m))
        _assert_certified_posteriori(m.A, m.W, *_nonsingular_members(m.A, m.C, m.V, sets))


def test_warmup_reaches_both_measurement_update_solves(monkeypatch):
    # warm-up's noisy members straddle UPDATE_BOUND, so the n x n solve
    # with I + X G and the augmented one both run before the first timed solve
    updates = _spy_runs(monkeypatch, "_update")
    riccati.warmup()
    t = np.concatenate([np.trace(X, axis1=1, axis2=2) * (F * F).sum(axis=(1, 2)) for X, F, _ in updates])
    assert (t <= riccati.UPDATE_BOUND).any() and (t > riccati.UPDATE_BOUND).any()


def test_a_request_pays_only_for_the_members_it_has(monkeypatch, tmp_path):
    # the solvers' door applies the one input rule, so the family sweeps
    # (with and without --v-scale) and the reductions validate no model
    # themselves; and no kernel path hands LAPACK a stack of zero members:
    # a measurement-update path, the whitening of no nonsingular V (V = 0,
    # or a rank-one V that fails Cholesky), or a certificate of a run whose
    # members the bound all dropped
    m = _random_model(np.random.default_rng(38), 10)  # a caller's validated model, random-solve-shaped
    validations, empty = [], []
    for owner in (model, gadgets):
        monkeypatch.setattr(owner, "validate_model", lambda raw: validations.append(raw) or validate_model(raw))
    for name in ("solve", "cholesky"):
        def spy(a, *rest, call=getattr(np.linalg, name), name=name):
            if a.ndim > 2 and not len(a):
                empty.append((name, a.shape))
            return call(a, *rest)
        monkeypatch.setattr(np.linalg, name, spy)
    flags = ([], ["--v-scale", "0.3"])
    for family, metric, v_scale in product(("example1", "example2"), ("priori", "posteriori"), flags):
        assert cli.main(["sweep", "--family", family, "--lambda1", "0.9", "--metric", metric, "--h-range", "1e-2",
                         "1e2", "4", *v_scale, "--output", str(tmp_path / "sweep.csv")]) == 0
    yes = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    assert x3c_decide_via_kfss(yes).answer and x3c_decide_via_kfsa(yes).answer
    reports = [greedy_select(m, 3, "priori"), greedy_attack(m, 3, "posteriori"),
               exhaustive_select(m, m.b, 3.0, "priori"), exhaustive_attack(m, m.omega, 3.0, "posteriori")]
    rank_one = riccati.solve_dare(np.diag([0.9, 0.5]), np.eye(2), np.eye(2), np.ones((2, 2)))
    monkeypatch.undo()
    assert all(math.isfinite(r.trace) for r in reports + [rank_one])
    assert validations == [] and empty == []


def _decomposition_spy(monkeypatch):
    """Record every np.linalg.eigvals call, and every SVD and symmetric
    eigendecomposition of a single matrix (the kernel decomposes stacks)."""
    calls = []
    for name in ("eigvals", "svd", "eigh"):
        def spy(a, *rest, call=getattr(np.linalg, name), name=name, **kwargs):
            if name == "eigvals" or a.ndim == 2:
                calls.append((name, a))
            return call(a, *rest, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_each_request_decomposes_A_and_W_once(monkeypatch, tmp_path):
    # per request, summed over the solvers' door and every kernel run: one
    # eigvals of A, one SVD of A - lam I per unstable eigenvalue lam, whose
    # right null vectors give A's mode bases and its left ones the
    # stabilizability test, and one eigendecomposition of W, whose root the
    # kernel takes from the door
    m = _random_model(np.random.default_rng(39), 10)  # one unstable mode
    yes = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    sweep = ["sweep", "--lambda1", "0.9", "--h-range", "1e-2", "1e2", "4", "--output", str(tmp_path / "sweep.csv")]
    runs = [
        (build_kfss_gadget(yes).model, 1, lambda: x3c_decide_via_kfss(yes).answer),
        (build_kfsa_gadget(yes).model, 1, lambda: x3c_decide_via_kfsa(yes).answer),
        (build_example1(0.9, 1.0), 1, lambda: cli.main(sweep + ["--family", "example1"]) == 0),
        (build_example2(0.9, 1.0), 1, lambda: cli.main(sweep + ["--family", "example2"]) == 0),
        (m, 4, lambda: all(math.isfinite(r.trace) for r in (
            greedy_select(m, 3, "priori"), greedy_attack(m, 3, "posteriori"),
            exhaustive_select(m, m.b, 3.0, "priori"), exhaustive_attack(m, m.omega, 3.0, "posteriori")))),
        (m, 1, lambda: riccati.solve_dare(m.A, m.C[:3], m.W, m.V[:3, :3], posteriori=True).is_finite),
    ]
    for mdl, requests, run in runs:
        lams = [lam for lam in np.linalg.eigvals(mdl.A) if abs(lam) >= 1.0 - riccati.PBH_TOL]
        assert len(lams) == (mdl is m)
        calls = _decomposition_spy(monkeypatch)
        assert run()
        monkeypatch.undo()
        eye = np.eye(mdl.n)
        assert all(np.array_equal(a, mdl.A) for name, a in calls if name == "eigvals")
        assert all(any(np.array_equal(a, mdl.A - lam * eye) for lam in lams) for name, a in calls if name == "svd")
        counts = [sum(name == kind and (kind != "eigh" or np.array_equal(a, mdl.W)) for name, a in calls)
                  for kind in ("eigvals", "svd", "eigh")]
        assert counts == [requests, requests * len(lams), requests]


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_a_member_keeps_its_bits_in_a_uniform_and_in_a_mixed_stack(metric):
    # a path that takes every member of a stack gathers and scatters
    # nothing; each member of such a stack must keep its trace and diagonal
    # bit for bit when one member that takes the other path joins it
    yes = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
    mixes = [  # (model, subset size, V of the joining member, which path the stack takes)
        (_random_model(np.random.default_rng(3902), 10), 3, 1e-8, "easy"),  # joined by a precise hard member
        (build_kfsa_gadget(yes).model, 7, 1e8, "hard"),  # gadget members, joined by an easy one
        (build_example1(0.9, 1.0), 2, 1.0, "noiseless"),  # family members, joined by a noisy one
    ]
    for m, r, v, kind in mixes:
        sets = np.array(list(combinations(range(m.q), r)), dtype=np.intp)
        sets = sets[riccati._detectable(riccati._modes(m.A), m.C[sets])]
        C, V = m.C[sets], m.V[sets[:, :, None], sets[:, None, :]]
        mixed_C, mixed_V = np.concatenate((C, C[:1])), np.concatenate((V, v * np.eye(r)[None]))
        R0, F = riccati._noise(mixed_C, mixed_V)
        easy = np.trace(m.W) * (F * F).sum(axis=(1, 2)) <= riccati.UPDATE_BOUND
        path = {"easy": easy, "hard": ~easy, "noiseless": R0.any(axis=(1, 2))}[kind]
        assert len(C) > 1 and path[:-1].all() and not path[-1]
        root = riccati.psd_root(m.W, "W")
        uniform, _ = riccati._solve_detectable(m.A, m.W, C, V, root, metric == "posteriori")
        mixed, _ = riccati._solve_detectable(m.A, m.W, mixed_C, mixed_V, root, metric == "posteriori")
        for alone, joined in zip(uniform, mixed):
            assert np.trace(alone) == np.trace(joined) and np.array_equal(alone.diagonal(), joined.diagonal())
