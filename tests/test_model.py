import json
import math
import re

import numpy as np
import pytest

from kfsslab.gadgets import build_example1, build_example2, build_kfss_gadget, X3CInstance
from kfsslab.model import (
    AttackVector,
    DimensionMismatch,
    ModelError,
    NegativeCost,
    NonFiniteInput,
    NotPSD,
    SelectionVector,
    SteadyStateResult,
    SystemModel,
    complement,
    loads_model,
    model_from_dict,
    model_to_dict,
    restrict,
    validate_model,
)


def _raw(n=3, q=3, **overrides):
    fields = dict(
        n=n, q=q,
        A=np.diag([0.9] + [0.0] * (n - 1)),
        C=np.ones((q, n)),
        W=np.eye(n),
        V=np.zeros((q, q)),
        b=np.ones(q),
        omega=np.ones(q),
        budget_select=2.0,
        budget_attack=2.0,
    )
    fields.update(overrides)
    return SystemModel(**fields)


def test_example1_model_is_valid():
    m = build_example1(0.9, 10.0)
    assert m.n == 3 and m.q == 3
    assert np.array_equal(m.W, np.eye(3))
    assert np.array_equal(m.V, np.zeros((3, 3)))
    assert m.budget_select == 2.0


def test_indefinite_w_rejected():
    W = np.diag([1.0, -0.5, 1.0])
    with pytest.raises(NotPSD):
        validate_model(_raw(W=W))


def test_the_psd_floor_is_relative_to_the_largest_eigenvalue():
    # a rank-deficient covariance's zero eigenvalues come out about eps
    # times its scale off zero: 1e7 u u' reads -3.9e-9, which an absolute
    # floor of -1e-10 refused.  An eigenvalue below -1e-10 max(1, largest)
    # is still refused, whatever its scale
    u = np.array([0.3, 0.7, 1.1])
    rng = np.random.default_rng(34)
    rotations = [np.linalg.qr(rng.standard_normal((3, 3)))[0] for _ in range(10)]
    singular = [np.outer(u, u)] + [(U * w) @ U.T for U in rotations for w in ([0.0, 0.5, 2.0], [0.0, 0.0, 1.0])]
    indefinite = [np.diag([1.0, -0.5, 1.0]), (rotations[0] * [1.0, -1e-6, 1.0]) @ rotations[0].T]
    for scale in (1.0, 1e4, 1e7, 1e8):
        for W in singular:
            m = validate_model(_raw(W=scale * W, V=scale * W))
            for got in (m.W, m.V):
                assert np.array_equal(got, got.T)
                assert np.abs(got - scale * W).max() <= 1e-14 * scale, scale
        for W in indefinite:
            for name in ("W", "V"):
                with pytest.raises(NotPSD, match=f"^{name} has eigenvalue -"):
                    validate_model(_raw(**{name: scale * W}))


def test_wrong_sensor_row_shape_rejected():
    with pytest.raises(DimensionMismatch):
        validate_model(_raw(C=np.ones((3, 4))))


def test_negative_cost_rejected():
    with pytest.raises(NegativeCost):
        validate_model(_raw(b=np.array([1.0, -1.0, 1.0])))
    with pytest.raises(NegativeCost):
        validate_model(_raw(budget_attack=-0.5))


@pytest.mark.parametrize("overrides, error, message", [
    (dict(n=0), DimensionMismatch, "need n >= 1 and q >= 1, got n=0, q=3"),
    (dict(q=0), DimensionMismatch, "need n >= 1 and q >= 1, got n=3, q=0"),
    (dict(b=np.ones(2)), DimensionMismatch, "b must have length 3, got shape (2,)"),
    (dict(omega=np.ones(4)), DimensionMismatch, "omega must have length 3, got shape (4,)"),
    (dict(A=np.diag([0.9, math.nan, 0.0])), NonFiniteInput, "A has an entry that is not finite"),
    (dict(V=np.diag([1.0, math.inf, 1.0])), NonFiniteInput, "V has an entry that is not finite"),
    (dict(b=np.array([1.0, math.inf, 1.0])), NonFiniteInput, "b has an entry that is not finite"),
    (dict(budget_select=math.inf), ModelError, "budgets must be finite"),
    (dict(budget_attack=math.nan), ModelError, "budgets must be finite"),
    (dict(omega=np.array([1.0, -1.0, 1.0])), NegativeCost, "attack costs must be nonnegative"),
], ids=["n-0", "q-0", "b-length", "omega-length", "A-nan", "V-inf", "b-inf", "budget-inf", "budget-nan",
        "negative-attack-cost"])
def test_invalid_model_is_rejected(overrides, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        validate_model(_raw(**overrides))


def test_instance_json_must_be_an_object_with_every_key():
    with pytest.raises(ModelError, match=re.escape("instance JSON missing keys: ['W', 'budget_attack']")):
        model_from_dict({k: v for k, v in model_to_dict(build_example1(0.9, 10.0)).items()
                         if k not in ("W", "budget_attack")})
    for text in ("[1, 2]", "3", "null"):
        with pytest.raises(ModelError, match="^instance JSON must be an object$"):
            loads_model(text)


def test_near_symmetric_w_is_symmetrized():
    W = np.eye(3)
    W[0, 1] = 1e-13  # asymmetric dirt from a text round-trip
    m = validate_model(_raw(W=W))
    assert np.array_equal(m.W, m.W.T)
    assert np.linalg.eigvalsh(m.W)[0] >= 0.0


def test_restrict_single_sensor_of_example1():
    h = 7.5
    m = build_example1(0.9, h)
    C_sel, V_sel = restrict(m, SelectionVector((0, 1, 0)))
    assert np.array_equal(C_sel, np.array([[1.0, 0.0, h]]))
    assert np.array_equal(V_sel, np.zeros((1, 1)))


def test_restrict_full_and_empty():
    m = build_example1(0.5, 2.0)
    C_all, V_all = restrict(m, SelectionVector((1, 1, 1)))
    assert np.array_equal(C_all, m.C)
    assert np.array_equal(V_all, m.V)
    C_none, V_none = restrict(m, SelectionVector((0, 0, 0)))
    assert C_none.shape == (0, 3)
    assert V_none.shape == (0, 0)


def test_restrict_refuses_an_indicator_of_another_length():
    with pytest.raises(DimensionMismatch, match="indicator has length 2, model has q=3"):
        restrict(build_example1(0.9, 10.0), SelectionVector((1, 0)))


def test_restrict_row_count_and_psd_submatrix():
    rng = np.random.default_rng(3)
    q, n = 6, 4
    L = rng.standard_normal((q, q))
    raw = _raw(n=n, q=q, C=rng.standard_normal((q, n)), V=L @ L.T,
               A=np.diag(rng.uniform(-0.9, 0.9, n)), W=np.eye(n),
               b=np.ones(q), omega=np.ones(q))
    m = validate_model(raw)
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, q))
        sel = SelectionVector(bits)
        C_sel, V_sel = restrict(m, sel)
        assert C_sel.shape[0] == sel.count
        assert V_sel.shape == (sel.count, sel.count)
        if sel.count:
            assert np.linalg.eigvalsh(V_sel)[0] >= -1e-10


def test_complement_examples():
    assert complement(AttackVector((1, 1, 0, 0))).bits == (0, 0, 1, 1)
    assert complement(AttackVector((0, 0, 0, 0))).bits == (1, 1, 1, 1)
    # attacking sensor 4 of the attack family leaves sensors 1..3
    att = AttackVector.from_support(4, [3])
    assert complement(att).support == (0, 1, 2)


def test_from_support_refuses_an_index_outside_the_sensors_or_given_twice():
    assert SelectionVector.from_support(3, [2, 0]).bits == (1, 0, 1)
    assert SelectionVector.from_support(3, range(0)).bits == (0, 0, 0)
    # -1 used to set the last bit, a repeat passed, and 3 raised a bare IndexError
    for support in ([-1], [0, 0], [3], [1, 2, 1]):
        with pytest.raises(ValueError, match="is repeated or outside 0..2$"):
            SelectionVector.from_support(3, support)


def test_complement_is_involution():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = int(rng.integers(1, 9))
        bits = tuple(int(b) for b in rng.integers(0, 2, q))
        att = AttackVector(bits)
        twice = complement(complement(att))
        assert isinstance(twice, AttackVector)
        assert twice.bits == bits


def test_complement_rejects_non_indicator():
    with pytest.raises(TypeError):
        complement((1, 0, 1))


def test_indicator_rejects_non_binary():
    with pytest.raises(ValueError):
        SelectionVector((0, 2, 1))


def test_json_round_trip_is_bit_exact():
    models = [
        build_example1(0.937565, 12345.678),
        build_example2(0.9, 1e-4),
        build_kfss_gadget(X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 4, 5)))).model,
    ]
    rng = np.random.default_rng(5)
    L = rng.standard_normal((4, 4))
    models.append(validate_model(_raw(n=3, q=4, C=rng.standard_normal((4, 3)),
                                      V=L @ L.T, b=rng.uniform(0, 2, 4),
                                      omega=rng.uniform(0, 2, 4))))
    for m in models:
        again = loads_model(json.dumps(model_to_dict(m)))  # repr floats round-trip float64
        for name in ("A", "C", "W", "V", "b", "omega"):
            assert np.array_equal(getattr(m, name), getattr(again, name)), name
        assert again.budget_select == m.budget_select
        assert again.budget_attack == m.budget_attack


def test_steady_state_result_tags():
    cov = np.diag([2.0, 3.0])
    fin = SteadyStateResult.finite(cov, iterations=7)
    assert fin.is_finite
    assert fin.trace == pytest.approx(5.0)
    assert fin.diag == (2.0, 3.0)
    inf = SteadyStateResult.infinite()
    assert not inf.is_finite
    assert inf.diag is None
    assert inf.trace > fin.trace
