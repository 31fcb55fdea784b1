import re
from itertools import combinations, product

import numpy as np
import pytest

from kfsslab import gadgets, riccati
from kfsslab.closed_forms import DomainError, example2_predictions
from kfsslab.gadgets import (
    NoZeroColumn,
    TooLarge,
    X3CInstance,
    _reduction_constants,
    build_example1,
    build_example2,
    build_kfsa_gadget,
    build_kfss_gadget,
    encode_x3c,
    no_instance_transform,
    x3c_bruteforce,
    x3c_decide_via_kfsa,
    x3c_decide_via_kfss,
    x3c_from_dict,
)
from kfsslab.model import ModelError, SelectionVector, validate_model
from kfsslab.solvers import evaluate_selection, greedy_and_optimal

YES_INSTANCE = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))
NO_INSTANCE = X3CInstance(2, ((1, 2, 3), (1, 4, 5), (2, 5, 6)))


def test_x3c_validation():
    with pytest.raises(DomainError):
        X3CInstance(2, ((1, 2, 3), (1, 2, 3)))  # duplicate
    with pytest.raises(DomainError):
        X3CInstance(2, ((1, 2, 7), (0, 1, 2)))  # out of range
    with pytest.raises(DomainError):
        X3CInstance(1, ((1, 2, 2),))  # repeated element
    with pytest.raises(DomainError):
        X3CInstance(2, ((1, 2, 3),))  # fewer subsets than m
    with pytest.raises(DomainError, match="m must be >= 1, got 0"):
        X3CInstance(0, ())
    inst = X3CInstance(1, ((3, 1, 2),))
    assert inst.subsets == ((1, 2, 3),)
    # direct construction: non-integral values are refused, not truncated
    with pytest.raises(DomainError, match="subset element must be an integer"):
        X3CInstance(2, ((1, 2, 3.9), (4, 5, 6)))
    with pytest.raises(DomainError, match="m must be an integer"):
        X3CInstance(2.5, ((1, 2, 3), (4, 5, 6)))
    with pytest.raises(DomainError, match="m must be an integer"):
        X3CInstance(None, ((1, 2, 3), (4, 5, 6)))
    integral = X3CInstance(2.0, ((1.0, 2, 3), (4, 5, 6)))
    assert integral.m == 2 and type(integral.m) is int and integral.subsets == ((1, 2, 3), (4, 5, 6))
    assert x3c_bruteforce(integral) == (True, [0, 1])
    # JSON input: non-integral values are refused, not truncated
    with pytest.raises(ModelError, match="m must be an integer"):
        x3c_from_dict({"m": 2.7, "subsets": [[1, 2, 3], [4, 5, 6]]})
    with pytest.raises(ModelError, match="subset element must be an integer"):
        x3c_from_dict({"m": 1, "subsets": [[1, 2, 3.9]]})
    assert x3c_from_dict({"m": 1.0, "subsets": [[3.0, 1, 2]]}) == inst


def test_encode_x3c():
    assert np.array_equal(encode_x3c(X3CInstance(1, ((1, 2, 3),))), np.ones((1, 3)))
    G = encode_x3c(X3CInstance(2, ((1, 2, 3), (4, 5, 6))))
    expected = np.zeros((2, 6))
    expected[0, :3] = 1.0
    expected[1, 3:] = 1.0
    assert np.array_equal(G, expected)
    G_yes = encode_x3c(YES_INSTANCE)
    assert np.array_equal(G_yes.sum(axis=1), np.full(3, 3.0))


def test_kfss_gadget_constants_m2():
    g = build_kfss_gadget(YES_INSTANCE, K=1.0)
    assert g.kind == "kfss"
    assert g.constants.Z == 12
    assert g.constants.lambda1 == pytest.approx(11.5 / 12.0)
    assert g.constants.coupling == 97.0  # 2*12*ceil(sqrt(11)) + 1
    assert g.threshold == pytest.approx(12.0)
    m = g.model
    assert m.q == YES_INSTANCE.tau + 1
    assert m.n == 7
    assert m.budget_select == 3.0
    assert m.V[0, 0] == pytest.approx(1.0)
    for i in range(1, m.q):
        assert m.V[i, i] == pytest.approx(1.0 / 97.0**2)
    assert np.count_nonzero(m.A) == 1
    assert 0.0 < m.A[0, 0] < 1.0
    validate_model(m)


def test_kfsa_gadget_constants_m2_tau4():
    inst = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5), (2, 3, 6)))
    g = build_kfsa_gadget(inst, K=1.0)
    assert g.kind == "kfsa"
    assert g.constants.Z == 12
    assert g.constants.lambda1 == pytest.approx(11.5 / 12.0)
    assert g.constants.coupling == 121.0  # 2*12*ceil(sqrt(22)) + 1
    assert g.threshold == pytest.approx(12.0)
    m = g.model
    assert m.q == 3 * 2 + 4
    assert m.n == 5
    assert m.budget_attack == 2.0
    # element rows carry the coupling, subset rows pin the aux states
    assert np.array_equal(m.C[:6, 0], np.ones(6))
    assert np.array_equal(m.C[6:, 1:], np.eye(4))
    validate_model(m)


def test_gadget_requires_k_at_least_one():
    with pytest.raises(DomainError):
        build_kfss_gadget(YES_INSTANCE, K=0.5)
    with pytest.raises(DomainError):
        build_kfsa_gadget(YES_INSTANCE, K=0.0)
    # not finite, or so large that the coupled noise variance 1/gain^2 falls
    # to the pseudo-inverse cutoff (the first K there is 500 for kfsa with
    # m = 2, tau = 3, and between 500 and 1000 for kfss)
    for K in (float("inf"), float("nan"), 1e300, 1000.0):
        for build in (build_kfss_gadget, build_kfsa_gadget):
            with pytest.raises(DomainError, match="K"):
                build(YES_INSTANCE, K=K)
    with pytest.raises(DomainError, match="K"):
        build_kfsa_gadget(YES_INSTANCE, K=500.0)
    build_kfss_gadget(YES_INSTANCE, K=500.0)
    for build in (build_kfss_gadget, build_kfsa_gadget):
        build(YES_INSTANCE, K=450.0)


def test_builder_bounds_follow_the_pinv_cutoff(monkeypatch):
    # the K and h bounds read riccati.PINV_RTOL, the cutoff the kernel uses
    M = np.diag([1.0, 1e-7])
    assert riccati.pseudo_inverse_psd(M)[1, 1] == pytest.approx(1e7)
    _reduction_constants(100.0, 12, 1)
    build_example1(0.9, 1e3)
    monkeypatch.setattr(riccati, "PINV_RTOL", 1e-6)
    assert riccati.pseudo_inverse_psd(M)[1, 1] == 0.0
    with pytest.raises(DomainError, match="K"):
        _reduction_constants(100.0, 12, 1)
    with pytest.raises(DomainError, match="h"):
        build_example1(0.9, 1e3)


@pytest.mark.parametrize("build", [build_example1, build_example2])
def test_family_builders_reject_extreme_h(build):
    # h^2 at or beyond 1 / PINV_RTOL (h >= 1e6) is past the families'
    # checked range, though the reduction still solves it exactly
    for h in (float("inf"), float("nan"), 0.0, -1.0, 1e6, 1e8, 1e200):
        with pytest.raises(DomainError, match="h"):
            build(0.9, h)
    build(0.9, 999999.0)


def test_example2_up_to_the_family_bound_matches_its_closed_forms():
    # past 2 + 2 h^2 = 1 / PINV_RTOL (h ~ 7.07e5), where C_T C_T' of
    # T = {1, 3, 4} has its smallest eigenvalue at the cutoff: the noiseless
    # members take the reduction, whose rank rule is relative, so both
    # metrics' greedy and optimal traces keep the closed forms, and the three
    # noiseless sensors of T still determine x and score 3.  Traces, not
    # sets: at lambda <= 0.9 removing {1, 2} ties greedy's trace within the
    # solvers' 1e-9, and the tie rule reports the smaller set {4}, as at 7e5
    for lam, h in product((0.6, 0.9, 0.99), (9e5, 999999.0)):
        m = build_example2(lam, h)
        p = example2_predictions(lam, h)
        for metric in ("priori", "posteriori"):
            ((greedy, optimal, ratio),) = greedy_and_optimal([m], 2, "attack", metric)
            for got, want in ((greedy.trace, getattr(p, f"trace_greedy_{metric}")),
                              (optimal.trace, getattr(p, f"trace_optimal_{metric}"))):
                assert abs(got - want) <= 1e-10 * want, (lam, h, metric, got, want)
            assert ratio >= 1.0
        trace = evaluate_selection(m, SelectionVector((1, 0, 1, 1)), "priori").trace
        assert trace == pytest.approx(3.0, rel=1e-12)


def test_bruteforce_examples():
    assert x3c_bruteforce(X3CInstance(1, ((1, 2, 3),))) == (True, [0])
    answer, cover = x3c_bruteforce(X3CInstance(2, ((1, 2, 3), (3, 4, 5), (4, 5, 6))))
    assert answer is True and cover == [0, 2]
    assert x3c_bruteforce(NO_INSTANCE) == (False, None)


def test_bruteforce_cap(monkeypatch):
    monkeypatch.setattr(gadgets, "BRUTEFORCE_CAP", 2)
    with pytest.raises(TooLarge):
        x3c_bruteforce(YES_INSTANCE)


def test_reductions_agree_with_bruteforce_on_named_instances():
    for K, (inst, expected) in product((1.0, 300.0), ((YES_INSTANCE, True), (NO_INSTANCE, False))):
        d_sel = x3c_decide_via_kfss(inst, K=K, solver="exhaustive")
        d_att = x3c_decide_via_kfsa(inst, K=K, solver="exhaustive")
        assert d_sel.answer is expected
        assert d_att.answer is expected
        if expected:
            assert d_sel.trace <= d_sel.threshold
            assert d_att.trace > d_att.threshold
        else:
            assert d_sel.trace > d_sel.threshold
            assert d_att.trace <= d_att.threshold


# the ten triples of acceptance criterion 6, five complementary pairs
X3C_POOL = ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6), (1, 3, 5),
            (2, 4, 6), (1, 4, 5), (2, 3, 6), (1, 2, 5), (3, 4, 6))


def test_reductions_at_tau_4_and_5_make_one_kernel_run(monkeypatch):
    # the tie walk drops every candidate one sensor short of a scored set
    # that is not tied, so the run that scores the maximal sets decides
    # every kfsa reduction and every kfss yes; the kfss no-answers tie
    # among up to 8 maximal sets, and some of their walks still need a run
    runs = []
    original = riccati._solve_detectable
    monkeypatch.setattr(riccati, "_solve_detectable", lambda *a: runs.append(1) or original(*a))
    walked = 0
    for tau in (4, 5):
        for combo in list(combinations(range(len(X3C_POOL)), tau))[::6]:
            inst = X3CInstance(2, tuple(X3C_POOL[i] for i in combo))
            for decide in (x3c_decide_via_kfss, x3c_decide_via_kfsa):
                runs.clear()
                answer = decide(inst, K=1.0, solver="exhaustive").answer
                if decide is x3c_decide_via_kfsa or answer:
                    assert len(runs) == 1, (inst.subsets, decide.__name__)
                else:
                    assert len(runs) <= 2
                    walked += len(runs) == 2
    assert walked  # a walk that needs a solve still gets one


def _built_models():
    """Every family at lambda in {+-1e-9, 0.3, 0.6, 0.9, 1 - 1e-7} and h from
    1e-12 to the bound, and kfss and kfsa at K in {1, 10, 300} over every
    fifth tau-subset of X3C_POOL, tau = 2 ... 6."""
    for lam, h in product((-1e-9, 1e-9, 0.3, 0.6, 0.9, 1 - 1e-7), (1e-12, 1e-6, 1e-3, 1.0, 1e3, 999999.0)):
        yield build_example1(lam, h)
        yield build_example2(lam, h)
    for tau, K in product(range(2, 7), (1.0, 10.0, 300.0)):
        for combo in list(combinations(range(len(X3C_POOL)), tau))[::5]:
            inst = X3CInstance(2, tuple(X3C_POOL[i] for i in combo))
            yield build_kfss_gadget(inst, K).model
            yield build_kfsa_gadget(inst, K).model


def test_builders_return_what_validate_model_would():
    # the builders leave validation to the solvers' door: each model is
    # valid by construction, and validate_model returns its very bytes
    count = 0
    for m in _built_models():
        v = validate_model(m)
        assert (v.n, v.q, v.budget_select, v.budget_attack) == (m.n, m.q, m.budget_select, m.budget_attack)
        for name in ("A", "C", "W", "V", "b", "omega"):
            got, want = getattr(m, name), getattr(v, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        count += 1
    assert count == 72 + 2 * 3 * 168  # 168 subsets: 9, 24, 42, 51 and 42 for tau = 2 ... 6


def test_reduction_margins_are_clear():
    d_yes = x3c_decide_via_kfss(YES_INSTANCE)
    assert d_yes.threshold - d_yes.trace > 1.0
    d_no = x3c_decide_via_kfss(NO_INSTANCE)
    assert d_no.trace - d_no.threshold > 1.0


def test_greedy_reduction_is_heuristic_but_runs():
    d = x3c_decide_via_kfss(YES_INSTANCE, solver="greedy")
    assert isinstance(d.answer, bool)
    assert d.report.greedy_order  # per-step log present


def test_reduction_solver_dispatch():
    d = x3c_decide_via_kfsa(YES_INSTANCE, solver="greedy")
    assert d.report.mode == "attack"
    assert len(d.report.steps) == YES_INSTANCE.m
    for decide in (x3c_decide_via_kfss, x3c_decide_via_kfsa):
        with pytest.raises(DomainError):
            decide(YES_INSTANCE, solver="annealing")


def test_transform_single_row():
    rows = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]])
    basis = no_instance_transform(rows)
    assert basis.zero_columns == (3, 4, 5)
    N, N1, N2 = basis.N, basis.null_part, basis.range_part
    assert basis.rank == 1
    assert N1.shape == (6, 5)
    assert np.allclose(N.T @ N, np.eye(6), atol=1e-10)
    assert np.max(np.abs(rows @ N1)) < 1e-10
    assert np.linalg.matrix_rank(rows @ N2) == 1
    ones_hits = np.sum(np.abs(np.ones(6) @ N1 - 1.0) < 1e-10)
    assert ones_hits >= 3


def test_transform_requires_zero_column():
    with pytest.raises(NoZeroColumn):
        no_instance_transform(np.array([[1.0, 1.0, 1.0]]))


def test_transform_requires_a_matrix():
    with pytest.raises(ValueError, match=re.escape("expected an l x 3m matrix, got shape (6,)")):
        no_instance_transform(np.zeros(6))


def test_transform_of_all_zero_rows_is_the_identity():
    basis = no_instance_transform(np.zeros((2, 6)))
    assert basis.rank == 0 and basis.zero_columns == tuple(range(6))
    assert np.array_equal(basis.N, np.eye(6))


def test_transform_is_orthonormal_to_round_off():
    # the zero columns' axes and the covered columns' SVD basis have
    # disjoint supports, so N is orthonormal without any completion
    rng = np.random.default_rng(103)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        dim = 3 * m
        covered = rng.choice(dim, size=int(rng.integers(3, dim)), replace=False)
        rows = np.zeros((int(rng.integers(1, m + 2)), dim))
        for row in rows:
            row[rng.choice(covered, size=3, replace=False)] = 1.0
        basis = no_instance_transform(rows)
        assert np.abs(basis.N.T @ basis.N - np.eye(dim)).max() <= 1e-14
        assert np.abs(rows @ basis.null_part).max() <= 1e-14
        assert basis.rank == np.linalg.matrix_rank(rows)


def test_transform_random_membership_matrices():
    rng = np.random.default_rng(101)
    done = 0
    while done < 30:
        m = int(rng.integers(2, 5))
        l = int(rng.integers(1, m + 1))
        dim = 3 * m
        # keep at least 5 usable columns so l distinct triples always exist
        forced_zero = rng.choice(dim, size=int(rng.integers(1, dim - 4)), replace=False)
        allowed = [j for j in range(dim) if j not in set(forced_zero)]
        rows = set()
        while len(rows) < l:
            rows.add(tuple(sorted(rng.choice(allowed, size=3, replace=False))))
        G = np.zeros((l, dim))
        for i, r in enumerate(rows):
            G[i, list(r)] = 1.0
        basis = no_instance_transform(G)
        kappa = len(basis.zero_columns)
        assert kappa >= len(forced_zero) > 0
        N = basis.N
        assert np.max(np.abs(N.T @ N - np.eye(dim))) < 1e-10
        assert np.max(np.abs(G @ basis.null_part)) < 1e-10
        r = np.linalg.matrix_rank(G)
        assert basis.rank == r
        assert np.linalg.matrix_rank(G @ basis.range_part) == r
        hits = np.sum(np.abs(np.ones(dim) @ basis.null_part - 1.0) < 1e-10)
        assert hits >= kappa
        done += 1
