import math
import warnings
from itertools import combinations

import numpy as np
import pytest

from kfsslab import riccati
from kfsslab.closed_forms import msee_limit, scalar_sensor_msee
from kfsslab.gadgets import (
    X3CInstance,
    build_example1,
    build_kfsa_gadget,
    build_kfss_gadget,
)
from kfsslab.model import SelectionVector, SystemModel, restrict, validate_model
from kfsslab.riccati import (
    NoConvergence,
    ShapeError,
    StabilizabilityViolation,
    is_detectable,
    posteriori_from_priori,
    pseudo_inverse_psd,
    solve_dare,
)
from kfsslab.solvers import evaluate_selection, exhaustive_select, greedy_and_optimal, greedy_select

EMPTY_V = np.zeros((0, 0))


def _riccati_step(S, A, C, W, V):
    """One application of the a priori recursion,
    A S A' + W - (A S C') M^+ (A S C')', M = C S C' + V, symmetrized; M^+
    drops the eigenvalues at or below the kernel's cutoff PINV_RTOL.  A
    reference that shares no code with the kernel."""
    w, U = np.linalg.eigh(C @ S @ C.T + V)
    inv = np.zeros_like(w)
    inv[w > riccati.PINV_RTOL] = 1.0 / w[w > riccati.PINV_RTOL]
    ASC = A @ S @ C.T
    step = A @ S @ A.T + W - ASC @ (U * inv) @ U.T @ ASC.T
    return 0.5 * (step + step.T)


def _diag_model(lams, W=None, C=None, V=None, **kw):
    n = len(lams)
    C = np.eye(n) if C is None else np.asarray(C, dtype=float)
    q = C.shape[0]
    V = np.zeros((q, q)) if V is None else V
    return validate_model(SystemModel(
        n=n, q=q, A=np.diag(lams), C=C,
        W=np.eye(n) if W is None else W, V=V,
        b=np.ones(q), omega=np.ones(q), **kw))


def test_empty_selection_reaches_open_loop_variances():
    lams = [0.3, -0.7, 0.0]
    m = _diag_model(lams)
    res = evaluate_selection(m, SelectionVector((0,) * 3), "priori")
    assert res.is_finite
    expected = [1.0 / (1.0 - l * l) for l in lams]
    assert np.allclose(np.diag(res.cov), expected, atol=1e-9)


def test_unobserved_unstable_mode_is_infinite():
    m = _diag_model([1.1, 0.0], C=np.array([[0.0, 1.0]]))
    res = evaluate_selection(m, SelectionVector((1,)), "priori")
    assert not res.is_finite
    assert math.isinf(res.trace)


def test_example1_optimal_pair_recovers_process_noise_floor():
    m = build_example1(0.9, 100.0)
    res = evaluate_selection(m, SelectionVector((1, 0, 1)), "priori")
    assert res.is_finite
    assert abs(res.trace - 3.0) < 1e-8


def test_posteriori_direct_measurement_zeroes_state():
    Sigma = np.diag([2.0, 3.0])
    post = posteriori_from_priori(Sigma, np.array([[1.0, 0.0]]), np.zeros((1, 1)))
    assert abs(post[0, 0]) < 1e-14
    assert post[1, 1] == pytest.approx(3.0)


def test_posteriori_empty_selection_is_identity_update():
    Sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    post = posteriori_from_priori(Sigma, np.zeros((0, 2)), EMPTY_V)
    assert np.array_equal(post, Sigma)


def test_posteriori_shape_errors():
    with pytest.raises(ShapeError):
        posteriori_from_priori(np.eye(2), np.ones((1, 3)), np.zeros((1, 1)))
    with pytest.raises(ShapeError):
        posteriori_from_priori(np.eye(2), np.ones((1, 2)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        posteriori_from_priori(np.eye(2), np.ones(2), np.zeros((1, 1)))


def test_posteriori_single_sensor_matches_family_formula():
    lam, h = 0.9, 3.0
    m = build_example1(lam, h)
    sel = SelectionVector((0, 1, 0))
    pri = evaluate_selection(m, sel, "priori")
    from kfsslab.model import restrict

    C_sel, V_sel = restrict(m, sel)
    post = posteriori_from_priori(pri.cov, C_sel, V_sel)
    s2 = scalar_sensor_msee(lam, h * h)
    expected = 2.0 + h * h * (s2 - 1.0) / (s2 + h * h)
    assert abs(np.trace(post) - expected) < 1e-8


def test_coupling_residual_of_converged_pair():
    m = build_example1(0.9, 10.0)
    from kfsslab.model import restrict

    for bits in [(1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 1, 0)]:
        sel = SelectionVector(bits)
        pri = evaluate_selection(m, sel, "priori")
        C_sel, V_sel = restrict(m, sel)
        post = posteriori_from_priori(pri.cov, C_sel, V_sel)
        assert np.linalg.norm(pri.cov - (m.A @ post @ m.A.T + m.W)) < 1e-8  # Sigma = A Sigma* A' + W


def test_detectability_cases():
    A = np.diag([1.1, 0.5])
    assert is_detectable(A, np.array([[1.0, 0.0]]))
    assert not is_detectable(A, np.array([[0.0, 1.0]]))
    # stable dynamics are detectable under any selection, even none
    m = build_example1(0.99, 5.0)
    assert is_detectable(m.A, np.zeros((0, 3)))


def test_pinv_basic_cases():
    assert np.array_equal(pseudo_inverse_psd(np.eye(3)), np.eye(3))
    assert np.array_equal(pseudo_inverse_psd(np.zeros((2, 2))), np.zeros((2, 2)))
    assert pseudo_inverse_psd(np.diag([4.0, 0.0])) == pytest.approx(np.diag([0.25, 0.0]))


def test_pinv_penrose_identity_on_random_psd():
    rng = np.random.default_rng(17)
    for k in range(20):
        p = int(rng.integers(1, 7))
        rank = int(rng.integers(0, p + 1))
        L = rng.standard_normal((p, rank)) if rank else np.zeros((p, 1))
        M = L @ L.T
        Minv = pseudo_inverse_psd(M)
        scale = max(1.0, np.linalg.norm(M))
        assert np.linalg.norm(M @ Minv @ M - M) / scale < 1e-8
        assert np.allclose(Minv, Minv.T)


def test_iterates_stay_inside_diagonal_envelope():
    rng = np.random.default_rng(23)
    lams = rng.uniform(-0.9, 0.9, 4)
    W = np.diag(rng.uniform(0.1, 2.0, 4))
    C = rng.standard_normal((3, 4))
    A = np.diag(lams)
    hi = np.diag(W) / (1.0 - lams**2) + 1.0
    S = np.eye(4)
    for _ in range(200):
        S = _riccati_step(S, A, C, W, np.zeros((3, 3)))
        d = np.diag(S)
        assert np.all(d >= -1e-12)
        assert np.all(d <= hi + 1e-9)


def test_fixed_point_property():
    m = build_example1(0.9, 50.0)
    from kfsslab.model import restrict

    for bits in [(1, 1, 0), (0, 1, 1), (1, 0, 1)]:
        sel = SelectionVector(bits)
        res = evaluate_selection(m, sel, "priori")
        C_sel, V_sel = restrict(m, sel)
        stepped = _riccati_step(res.cov, m.A, C_sel, m.W, V_sel)
        assert np.linalg.norm(stepped - res.cov) < 10 * riccati.TOL


def test_adding_sensors_never_hurts():
    rng = np.random.default_rng(41)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        q = int(rng.integers(2, 6))
        m = _diag_model(rng.uniform(-0.9, 0.9, n).tolist(),
                        W=np.diag(rng.uniform(0.1, 2.0, n)),
                        C=rng.standard_normal((q, n)))
        bits = rng.integers(0, 2, q)
        small = SelectionVector(tuple(int(b) for b in bits))
        grow = bits.copy()
        grow[int(rng.integers(0, q))] = 1
        large = SelectionVector(tuple(int(b) for b in grow))
        t_small = evaluate_selection(m, small, "priori").trace
        t_large = evaluate_selection(m, large, "priori").trace
        assert t_large <= t_small + 1e-8


def test_determinism_bit_identical():
    m = build_example1(0.93, 250.0)
    sel = SelectionVector((0, 1, 1))
    r1 = evaluate_selection(m, sel, "priori")
    r2 = evaluate_selection(m, sel, "priori")
    assert r1.iterations == r2.iterations
    assert np.array_equal(r1.cov, r2.cov)
    assert r1.trace == r2.trace


def test_no_convergence_reports_residual(monkeypatch):
    m = _diag_model([0.9])
    monkeypatch.setattr(riccati, "MAX_STEPS", 5)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as exc:
        evaluate_selection(m, SelectionVector((0,)), "priori")
    assert exc.value.residual > 0
    assert exc.value.iterations == 5


def test_solution_below_w_raises_no_convergence():
    # A = Q [[1.1, 1], [0, 1.1]] Q' has the defective eigenvalue 1.1 with
    # eigenvector Q e1, which the sensor c = [0, 1] Q' cannot see.  The
    # eigenvalue is computed 4e-9 off 1.1, where A - lam I has no numerical
    # kernel, so PBH passes and the doubling diverges (trace -1.2e17 before
    # the check); S = A S* A' + W >= W catches it
    t = 0.1
    Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    A, c = Q @ np.array([[1.1, 1.0], [0.0, 1.1]]) @ Q.T, np.array([[0.0, 1.0]]) @ Q.T
    assert is_detectable(A, c)
    with pytest.raises(NoConvergence, match="below W") as exc:
        solve_dare(A, c, np.eye(2), np.eye(1))
    assert exc.value.residual > 1e16


def test_diverging_noiseless_solve_ends_without_a_numpy_warning():
    # C is invertible and V = 0, so the exact answer is S = W.  On this model
    # the doubling's iterates overflow; the kernel's own finiteness checks
    # report that as NoConvergence, with no RuntimeWarning from numpy first
    A = np.array([[-0.5666503192218638, 0.2206024737077897], [0.963991113344353, 0.22672344782028991]])
    C = np.array([[-815.9699995269528, -696.3136860222626], [-1633.1929752036992, 1750.785808232638]])
    W = np.array([[5.068671535692923, 0.5306170441448594], [0.5306170441448594, 0.05554797653672328]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            res = solve_dare(A, C, W, np.zeros((2, 2)))
        except NoConvergence:
            return
    assert abs(res.trace - np.trace(W)) <= 1e-8


def test_unstabilizable_noise_pair_rejected():
    # unstable mode never excited by process noise
    with pytest.raises(StabilizabilityViolation):
        solve_dare(np.array([[1.5]]), np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))


# --- kernel choice: doubling for nonsingular V, Newton steps for singular V ---

def _scipy_priori(A, C, W, V):
    scipy_linalg = pytest.importorskip("scipy.linalg")
    return scipy_linalg.solve_discrete_are(A.T, C.T, W, V)


def _random_nonsingular_instance(rng):
    n = int(rng.integers(1, 7))
    p = int(rng.integers(1, 7))
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.2, 1.4) / max(abs(np.linalg.eigvals(A)))
    C = rng.standard_normal((p, n))
    B = rng.standard_normal((n, n))
    W = B @ B.T / n + 0.1 * np.eye(n)
    B = rng.standard_normal((p, p))
    V = B @ B.T / p + 0.1 * np.eye(p)
    return A, C, W, V


def test_doubling_matches_scipy_on_random_instances():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(60):
        A, C, W, V = _random_nonsingular_instance(rng)
        res = solve_dare(A, C, W, V)
        if not res.is_finite:
            continue
        P = _scipy_priori(A, C, W, V)
        assert abs(res.trace - np.trace(P)) <= 1e-9 * np.trace(P)
        PC = P @ C.T
        P_post = P - PC @ np.linalg.solve(C @ PC + V, PC.T)
        post = posteriori_from_priori(res.cov, C, V)
        assert abs(np.trace(post) - np.trace(P_post)) <= 1e-9 * np.trace(P_post)
        checked += 1
    assert checked >= 40


@pytest.mark.parametrize("build", [build_kfss_gadget, build_kfsa_gadget])
def test_gadget_subsets_match_scipy(build):
    inst = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6)))
    m = build(inst, 1.0).model
    for r in range(1, m.q + 1):
        for support in combinations(range(m.q), r):
            sel = SelectionVector.from_support(m.q, support)
            res = evaluate_selection(m, sel, "priori")
            if not res.is_finite:
                continue
            C_sel, V_sel = restrict(m, sel)
            ref = np.trace(_scipy_priori(m.A, C_sel, m.W, V_sel))
            assert abs(res.trace - ref) <= 1e-9 * ref, support


def test_doubling_cap_raises_no_convergence(monkeypatch):
    A, C, W, V = np.array([[0.99]]), np.array([[1.0]]), np.eye(1), np.eye(1)
    assert solve_dare(A, C, W, V).is_finite
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as exc:
        solve_dare(A, C, W, V)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0


def _kernel_spy(monkeypatch):
    used = []
    for name in ("_newton_dare", "_doubling_dare"):
        kernel = getattr(riccati, name)

        def spy(*args, _kernel=kernel, _name=name):
            used.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(riccati, name, spy)
    return used


@pytest.mark.parametrize("V, kernel", [
    (np.diag([1.0, 0.5]), "_doubling_dare"),
    (np.zeros((0, 0)), "_doubling_dare"),
    (np.diag([1.0, 0.0]), "_newton_dare"),  # a zero diagonal entry
    (np.ones((2, 2)), "_newton_dare"),  # singular without a zero diagonal entry
])
def test_kernel_follows_noise_singularity(monkeypatch, V, kernel):
    used = _kernel_spy(monkeypatch)
    p = V.shape[0]
    A = np.diag([0.9, 0.5])
    C = np.array([[1.0, 0.0], [1.0, 1.0]])[:p]
    res = solve_dare(A, C, np.eye(2), V)
    if kernel == "_doubling_dare":
        assert used == [kernel]
    else:
        # the start, then one Stein equation per Newton step, all through the
        # doubling; step 1 is never tested, so there are at least two steps
        assert used[0] == kernel and set(used[1:]) == {"_doubling_dare"}
        assert res.iterations == len(used) - 2 >= 2
    assert res.is_finite
    S = res.cov
    assert np.linalg.norm(_riccati_step(S, A, C, np.eye(2), V) - S) < 1e-9


def test_stabilizability_verdict_follows_pbh_tol(monkeypatch):
    # W^(1/2) keeps 1e-8 of the unstable mode: seen at PBH_TOL = 1e-9 only
    A, W = np.diag([1.2, 0.5]), np.diag([1e-16, 1.0])
    riccati.check_stabilizable(A, W)
    monkeypatch.setattr(riccati, "PBH_TOL", 1e-7)
    assert not riccati.is_stabilizable_noise(A, W)
    with pytest.raises(StabilizabilityViolation):
        riccati.check_stabilizable(A, W)
    monkeypatch.undo()
    riccati.check_stabilizable(A, W)


def test_stabilizability_checked_once_per_driver_run(monkeypatch):
    calls = []
    check = riccati.is_stabilizable_noise

    def counting(*args):
        calls.append(1)
        return check(*args)

    monkeypatch.setattr(riccati, "is_stabilizable_noise", counting)
    m = _diag_model([0.9, 0.5], C=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), V=np.eye(3))
    exhaustive_select(m, m.b, 2.0, "priori")
    greedy_select(m, 2, "posteriori")
    greedy_and_optimal([m, m, m], 2, "attack", "priori")
    assert len(calls) == 3
    # every public entry point refuses an unstabilizable pair, on every call
    bad = _diag_model([1.5], W=np.zeros((1, 1)), V=np.eye(1))
    for run in [lambda: evaluate_selection(bad, SelectionVector((1,)), "priori"),
                lambda: solve_dare(bad.A, bad.C, bad.W, bad.V),
                lambda: exhaustive_select(bad, bad.b, 1.0, "priori"),
                lambda: greedy_select(bad, 1, "priori"),
                lambda: greedy_and_optimal([bad, bad], 1, "select", "priori")] * 2:
        with pytest.raises(StabilizabilityViolation):
            run()
