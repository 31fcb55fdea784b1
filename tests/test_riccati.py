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
from kfsslab.model import NotPSD, SelectionVector, SystemModel, restrict, validate_model
from kfsslab.riccati import (
    NoConvergence,
    NonFiniteInput,
    ShapeError,
    StabilizabilityViolation,
    is_detectable,
    is_stabilizable_noise,
    posteriori_from_priori,
    pseudo_inverse_psd,
    solve_dare,
)
from kfsslab.solvers import (
    evaluate_selection,
    exhaustive_attack,
    exhaustive_select,
    greedy_and_optimal,
    greedy_attack,
    greedy_select,
)

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
    # symmetrized, as every update is
    post = posteriori_from_priori(np.array([[2.0, 1.0], [0.0, 3.0]]), np.zeros((0, 2)), EMPTY_V)
    assert np.array_equal(post, [[2.0, 0.5], [0.5, 3.0]])


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
    empty = pseudo_inverse_psd(np.zeros((0, 0)))
    assert empty.shape == (0, 0) and empty.dtype == float


def test_shape_errors_of_solve_dare_and_the_pseudo_inverse():
    with pytest.raises(ShapeError, match="A and W must be n x n"):
        solve_dare(np.eye(2), np.ones((1, 2)), np.eye(3), np.eye(1))
    with pytest.raises(ShapeError, match="C must be p x n with V p x p"):
        solve_dare(np.eye(2), np.ones((1, 3)), np.eye(2), np.eye(1))
    with pytest.raises(ShapeError, match="C must be p x n with V p x p"):
        solve_dare(np.eye(2), np.ones((1, 2)), np.eye(2), np.eye(2))
    for M in (np.ones((2, 3)), np.ones(3)):
        with pytest.raises(ShapeError, match="expected a square matrix"):
            pseudo_inverse_psd(M)


@pytest.mark.parametrize("A", [0.5 * np.eye(2), np.diag([1.5, 0.5])])
def test_pbh_tests_refuse_arrays_of_the_wrong_shape(A):
    # against a stable A the wrong widths were answered True, against an
    # unstable one they ended in numpy's own errors
    for C in (np.ones((1, 3)), np.ones(3), np.ones(2), np.ones((1, 1, 2))):
        with pytest.raises(ShapeError, match="^C must be p x n$"):
            is_detectable(A, C)
    with pytest.raises(ShapeError, match="^A and W must be n x n$"):
        is_stabilizable_noise(A, np.eye(3))
    for bad in (np.ones((2, 3)), np.ones(2), np.array(1.0)):
        with pytest.raises(ShapeError, match="^A must be n x n$"):
            is_detectable(bad, np.ones((1, 2)))
        with pytest.raises(ShapeError, match="^A and W must be n x n$"):
            is_stabilizable_noise(bad, np.eye(2))


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
    # two nonzero columns in A: one would take the closed form, which doubles nothing
    m = _diag_model([0.9, 0.5])
    monkeypatch.setattr(riccati, "MAX_STEPS", 5)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as exc:
        evaluate_selection(m, SelectionVector((0, 0)), "priori")
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


def test_filtered_solution_off_its_equation_raises_no_convergence():
    # the model above with a noiseless sensor: W = I is nonsingular, so the
    # filtered run solves it under both metrics.  Its P stays PSD (trace
    # about 1e17) and S = A P A' + W >= W, but P leaves its own equation
    t = 0.1
    Q = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    A, c = Q @ np.array([[1.1, 1.0], [0.0, 1.1]]) @ Q.T, np.array([[0.0, 1.0]]) @ Q.T
    for posteriori in (False, True):
        with pytest.raises(NoConvergence, match="a posteriori solution leaves its equation") as exc:
            solve_dare(A, c, np.eye(2), np.zeros((1, 1)), posteriori)
        assert exc.value.residual > 1e15


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused_before_any_kernel_runs(bad):
    # each public single-subset function names the array it refuses, where
    # numpy raised its own LinAlgError, the doubling "became non-finite",
    # the update answered NaN or -0, or the pseudo-inverse answered 0
    A, C, W, V = np.array([[0.5, 0.1], [0.0, 0.3]]), np.array([[1.0, 0.0]]), np.eye(2), np.eye(1)

    def spoilt(M):
        M = M.copy()
        M[0, 0] = bad
        return M

    for name, call in (("A", lambda A: solve_dare(A, C, W, V)), ("C", lambda C: solve_dare(A, C, W, V)),
                       ("W", lambda W: solve_dare(A, C, W, V)), ("A", lambda A: is_detectable(A, C)),
                       ("C", lambda C: is_detectable(A, C)), ("A", lambda A: is_stabilizable_noise(A, W)),
                       ("W", lambda W: is_stabilizable_noise(A, W)),
                       ("Sigma", lambda S: posteriori_from_priori(S, C, V)),
                       ("C", lambda C: posteriori_from_priori(W, C, V)),
                       ("M", pseudo_inverse_psd)):
        with pytest.raises(NonFiniteInput, match=f"^{name} has an entry that is not finite$"):
            call(spoilt({"A": A, "C": C, "W": W, "Sigma": W, "M": W}[name]))
    with pytest.raises(NonFiniteInput, match="^M "):  # off the diagonal, where eigh reads it
        pseudo_inverse_psd([[1.0, 0.0], [bad, 1.0]])
    with pytest.raises(NonFiniteInput, match="^Sigma "):  # a 1 x 1 covariance, given as lists
        posteriori_from_priori([[bad]], [[1.0]], [[1.0]])


@pytest.mark.parametrize("noise", [1.0, 0.0])  # the doubling and the reduced path
@pytest.mark.parametrize("rows", [2, 0])
def test_a_trace_past_the_float_maximum_raises_no_convergence(noise, rows):
    # W = 1e308 I, n = 2: each variance is at least 1e308 and finite, but
    # their sum overflows, and a trace of inf would read as undetectable
    A, W = 0.5 * np.eye(2), 1e308 * np.eye(2)
    with pytest.raises(NoConvergence, match="trace overflows") as exc:
        solve_dare(A, np.eye(2)[:rows], W, noise * np.eye(rows))
    assert exc.value.residual == math.inf
    m = SystemModel(n=2, q=2, A=A, C=np.eye(2), W=W, V=noise * np.eye(2))
    for metric in ("priori", "posteriori"):
        with pytest.raises(NoConvergence, match="trace overflows"):
            evaluate_selection(validate_model(m), SelectionVector.from_support(2, range(rows)), metric)


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


def test_a_large_valid_row_sees_its_mode_without_a_warning():
    # |C v|^2 of the row 1e200 overflows to inf, the right verdict for the
    # unstable mode it sees; the single-mode PBH test must not warn on it
    m = validate_model(SystemModel(n=2, q=2, A=np.diag([1.05, 0.5]), C=np.array([[1e200, 0.0], [0.0, 1.0]]),
                                   W=np.eye(2), V=np.eye(2), budget_select=2.0))
    assert is_detectable(m.A, m.C[:1]) and not is_detectable(m.A, m.C[1:])
    for report in (exhaustive_select(m, m.b, 2.0, "posteriori"), greedy_select(m, 2, "posteriori")):
        assert (report.trace, report.chosen.support) == (0.5311288741492748, (0, 1))


def test_stabilizability_of_a_noise_near_the_float_maximum():
    # W = 1e308 is finite and excites the unstable mode; its square root
    # must not overflow on the way (a RuntimeWarning fails the test)
    assert riccati.is_stabilizable_noise(np.array([[1.5]]), np.array([[1e308]]))


# --- kernel choice: doubling for nonsingular V; the reduction, or Newton steps, for singular V ---

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


def test_closed_form_of_an_unstable_one_column_a_matches_the_doubling_and_scipy():
    # A = u e_j' with |u_j| in (1.05, 2): the pole sits outside the unit
    # circle, so about two in three members have g om + mu^2 > 1 and take
    # the root's (h - b) / g form, which no paper instance (|lambda| < 1)
    # reaches.  Against the filtered doubling within 1e-12 (4.8e-16 here),
    # against scipy's DARE and its update within 1e-9 (3.1e-11)
    rng = np.random.default_rng(91)
    for _ in range(60):
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        j = int(rng.integers(n))
        A = np.zeros((n, n))
        A[:, j] = rng.standard_normal(n)
        A[j, j] = rng.choice([-1, 1]) * rng.uniform(1.05, 2.0)
        C = rng.standard_normal((p, n))
        B = rng.standard_normal((p, p))
        V = B @ B.T / p + 0.1 * np.eye(p)
        B = rng.standard_normal((n, n))
        W = B @ B.T / n + 0.1 * np.eye(n)
        assert is_detectable(A, C)
        S_scipy = _scipy_priori(A, C, W, V)
        PC = S_scipy @ C.T
        P_scipy = S_scipy - PC @ np.linalg.solve(C @ PC + V, PC.T)
        P, _ = riccati._doubling_dare(*riccati._filtered(A, W, riccati.psd_root(W, "W")[1], *riccati._noise(C[None], V[None])))
        for posteriori, doubled, want in ((False, riccati._sym(A @ P @ A.T + W)[0], S_scipy), (True, P[0], P_scipy)):
            res = solve_dare(A, C, W, V, posteriori)
            assert res.iterations == 0
            assert np.abs(res.cov - doubled).max() <= 1e-12 * np.abs(doubled).max()
            assert np.abs(res.cov - want).max() <= 1e-9 * np.abs(want).max()


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


@pytest.mark.parametrize("build", [build_kfss_gadget, build_kfsa_gadget])
def test_gadget_subsets_match_scipy_posteriori(build):
    # the filtered run's a posteriori trace against scipy's a priori
    # solution updated by P - P C' (C P C' + V)^-1 C P, on every subset
    inst = X3CInstance(2, ((1, 2, 3), (4, 5, 6), (1, 2, 4), (3, 5, 6)))
    m = build(inst, 1.0).model
    for r in range(1, m.q + 1):
        for support in combinations(range(m.q), r):
            sel = SelectionVector.from_support(m.q, support)
            res = evaluate_selection(m, sel, "posteriori")
            if not res.is_finite:
                continue
            C_sel, V_sel = restrict(m, sel)
            P = _scipy_priori(m.A, C_sel, m.W, V_sel)
            PC = P @ C_sel.T
            ref = np.trace(P - PC @ np.linalg.solve(C_sel @ PC + V_sel, PC.T))
            assert abs(res.trace - ref) <= 1e-9 * ref, support


def test_doubling_cap_raises_no_convergence(monkeypatch):
    # two nonzero columns in A, so the doubling runs (see above)
    A, C, W, V = np.diag([0.99, 0.5]), np.array([[1.0, 0.0]]), np.eye(2), np.eye(1)
    assert solve_dare(A, C, W, V).is_finite
    monkeypatch.setattr(riccati, "MAX_STEPS", 2)
    monkeypatch.setattr(riccati, "TOL", 1e-300)
    with pytest.raises(NoConvergence) as exc:
        solve_dare(A, C, W, V)
    assert exc.value.iterations == 2
    assert exc.value.residual > 0


def test_a_singular_doubling_system_raises_no_convergence():
    # G = -I is not PSD, as every C' V^-1 C is, so I + G H = 0 at the first doubling
    with pytest.raises(NoConvergence, match="doubling iterate became non-finite") as exc:
        riccati._doubling_dare(np.zeros((1, 1)), -np.eye(1)[None], np.eye(1))
    assert exc.value.iterations == 1


def test_newton_cap_raises_no_convergence(monkeypatch):
    # W = 0 is singular, so the noiseless member takes Newton; A = 0: the
    # start's doubling stops after one doubling, and step 1 is never tested
    monkeypatch.setattr(riccati, "MAX_STEPS", 1)
    with pytest.raises(NoConvergence, match="iteration cap reached above tolerance") as exc:
        solve_dare(np.zeros((1, 1)), np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)))
    assert exc.value.iterations == 1


DIAG_A = np.diag([0.5, 0.3])


@pytest.mark.parametrize("V", [[[-1.0]], [[math.nan]], 1e14 * np.ones((2, 2))])
def test_a_newton_start_that_cannot_be_factored_raises_no_convergence(monkeypatch, V):
    # with W singular, the noiseless member of the rank-one V takes Newton,
    # and 1e14 + NEWTON_START_DELTA rounds to 1e14, so its start
    # V + delta I keeps the rank; V = -1 and NaN are input errors, which
    # solve_dare refuses by validate_model's rule before any kernel runs
    used = _kernel_spy(monkeypatch)
    V = np.array(V)
    p = V.shape[0]
    if p == 1:
        error, message = (NonFiniteInput, "^V has an entry") if math.isnan(V[0, 0]) else (NotPSD, "^V has eigenvalue")
        with pytest.raises(error, match=message):
            solve_dare(DIAG_A[:p, :p], np.eye(p), np.diag([1.0, 0.0])[:p, :p], V)
        assert used == []
        return
    with pytest.raises(NoConvergence, match="Newton start") as exc:
        solve_dare(DIAG_A[:p, :p], np.eye(p), np.diag([1.0, 0.0])[:p, :p], V)
    assert exc.value.iterations == 0


def test_a_stack_member_does_not_borrow_another_members_newton_start():
    # alone, the second member raises; in a stack it must not take the
    # first's start.  W is singular, so both members take Newton
    C = np.stack([np.eye(2)] * 2)
    V = np.stack([np.zeros((2, 2)), 1e14 * np.ones((2, 2))])
    W = np.diag([1.0, 0.0])
    with pytest.raises(NoConvergence, match="Newton start"):
        riccati._solve_detectable(DIAG_A, W, C, V, riccati.psd_root(W, "W"))


@pytest.mark.parametrize("run", [
    lambda m: exhaustive_select(m, m.b, 2.0, "priori"),
    lambda m: greedy_attack(m, 0, "posteriori"),
], ids=["exhaustive_select", "greedy_attack"])
def test_solvers_refuse_a_noise_that_is_not_psd(monkeypatch, run):
    # an unvalidated model: the solvers apply validate_model's rule to
    # V = -I before any kernel runs
    used = _kernel_spy(monkeypatch)
    m = SystemModel(n=2, q=2, A=DIAG_A, C=np.eye(2), W=np.eye(2), V=-np.eye(2))
    with pytest.raises(NotPSD, match="^V has eigenvalue -1.000e"):
        run(m)
    assert used == []


def _rotated(w):
    """V = U diag(w) U' with U the rotation by 45 degrees."""
    U = np.array([[1.0, -1.0], [1.0, 1.0]]) / math.sqrt(2.0)
    return (U * w) @ U.T


@pytest.mark.parametrize("W", [np.eye(2), np.diag([1.0, 0.0])], ids=["W=I", "W singular"])
@pytest.mark.parametrize("V", [np.array([[1.0, math.nan], [math.nan, 1.0]]), _rotated([1.0, -1e-6])],
                         ids=["NaN off-diagonal", "eigenvalue -1e-6"])
def test_a_noise_that_is_not_finite_or_not_psd_is_refused_before_any_kernel(monkeypatch, V, W):
    used = _kernel_spy(monkeypatch)
    error, message = (NotPSD, "^V has eigenvalue -1.000e-06") if np.isfinite(V).all() else (NonFiniteInput, "^V has an entry")
    with pytest.raises(error, match=message):
        solve_dare(DIAG_A, np.eye(2), W, V)
    assert used == []


def test_split_refuses_only_a_row_that_overflows_when_scaled(monkeypatch):
    # the noiseless row [1e200, 1e200] has a norm past the float maximum;
    # its input is valid, so the refusal is a failed solve that names it
    used = _kernel_spy(monkeypatch)
    with pytest.raises(NoConvergence, match="^row 1 of C overflows when scaled to unit norm"):
        solve_dare(DIAG_A, np.array([[1.0, 0.0], [1e200, 1e200]]), np.eye(2), np.diag([1.0, 0.0]))
    assert used == []


def test_an_indefinite_noise_has_no_measurement_update(monkeypatch):
    used = _kernel_spy(monkeypatch)
    with pytest.raises(NotPSD, match="^V has eigenvalue -1.000e-06"):
        posteriori_from_priori(np.eye(2), np.eye(2), _rotated([1.0, -1e-6]))
    assert used == []


@pytest.mark.parametrize("W", [np.eye(2), np.diag([1.0, 0.0])], ids=["W=I", "W singular"])
def test_a_noisy_row_below_the_pivot_cutoff_takes_the_plain_doubling(monkeypatch, W):
    # V_00 = 1e-13 is singular by _noise_gain's absolute pivot rule, but
    # per squared gain (C_00 = 0.1) the row's noise is 1e-11, above _split's
    # cutoff: no row is noiseless, so the member takes the plain doubling
    # with the gain of _split's whitened rows, whatever W is
    used = _kernel_spy(monkeypatch)
    A, C, V = np.diag([0.9, 0.5]), np.diag([0.1, 1.0]), np.diag([1e-13, 1.0])
    res = solve_dare(A, C, W, V)
    assert used == ["_doubling_dare"]
    want = np.trace(_scipy_priori(A, C, W, V))
    assert abs(res.trace - want) <= 1e-12 * want


def _recursion_limit(A, C, W, V, steps):
    """_riccati_step iterated ``steps`` times from W."""
    S = W
    for _ in range(steps):
        S = _riccati_step(S, A, C, W, V)
    return S


@pytest.mark.parametrize("scale", [1e12, 1e13, 1e14, 1e15, 1e16])
def test_a_rank_one_noise_at_any_scale_is_the_equivalent_noiseless_sensor(scale):
    # V = s [[1, 1], [1, 1]]: the two sensors share one noise, so y1 - y2 =
    # x1 - x2 is exact and y1 + y2 carries noise 4 s; at every scale the
    # trace is the noiseless sensor [1, -1]'s, which the relative pivot rule
    # and the scaled eigenvalue split both see (an absolute rule answered
    # 1e13 and 1e15 wrongly and refused 1e14 and 1e16)
    want = np.trace(_recursion_limit(DIAG_A, np.array([[1.0, -1.0]]), np.eye(2), np.zeros((1, 1)), 200))
    assert abs(want - 2.2019294470871) <= 1e-12 * want
    res = solve_dare(DIAG_A, np.eye(2), np.eye(2), scale * np.ones((2, 2)))
    assert abs(res.trace - want) <= 1e-12 * want, (scale, res.trace, want)


@pytest.mark.parametrize("seed", range(4))
def test_noiseless_sensors_are_invariant_under_an_invertible_row_map(seed):
    # with W > 0, measuring T y instead of y for an invertible T (C -> T C,
    # V -> T V T') is the same information, so the trace cannot move; V is
    # singular, and T = D U mixes its noisy and noiseless rows (U
    # orthogonal) and rescales them by gains D of 1e-3 to 1e3
    rng = np.random.default_rng(900 + seed)
    for _ in range(25):
        n, p = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = (Q * rng.uniform(-0.95, 0.95, n)) @ Q.T
        B = rng.standard_normal((n, n))
        W = B @ B.T / n + 0.1 * np.eye(n)
        C = rng.standard_normal((p, n))
        L = rng.standard_normal((p, int(rng.integers(0, p))))
        V = L @ L.T
        U, _ = np.linalg.qr(rng.standard_normal((p, p)))
        T = 10.0 ** rng.integers(-3, 4, (p, 1)) * U
        base = solve_dare(A, C, W, V).trace
        mapped = solve_dare(A, T @ C, W, T @ V @ T.T).trace
        assert abs(mapped - base) <= 1e-10 * base, (n, p, base, mapped)


def test_a_precise_noisy_sensor_next_to_a_poor_one_stays_noisy():
    # sensor 2 has noise 1.5e-7 per squared gain, sensor 3 2e5: a cutoff
    # relative to the member's largest noise would call sensor 2 noiseless
    # and move the trace by 2.2e-8; the per-row cutoff keeps it noisy
    A, W = np.diag([0.9, 0.5, -0.4]), np.eye(3)
    C = np.array([[1.0, 0.5, 0.0], [1e3, 0.0, 1e3], [0.0, 1e-3, 2e-3]])
    V = np.diag([0.0, 0.3, 1.0])
    want = np.trace(_recursion_limit(A, C, W, V, 300))
    assert abs(solve_dare(A, C, W, V).trace - want) <= 1e-10 * want


@pytest.mark.parametrize("g", [1e4, 1e5, 1e7, 1e12])
def test_a_precise_sensor_off_the_axes_has_its_measurement_update(g):
    # C = [g, g] with V = 1e-11: I + X G is singular in float, and an n x n
    # solve with it raised numpy's LinAlgError; t = tr X ||F||_F^2 sends the
    # member to the augmented solve first.  The traces, from an 80-digit
    # recursion, are the same at every g
    C, W, V = np.array([[g, g]]), np.eye(2), np.array([[1e-11]])
    one_column = np.array([[0.9, 0.0], [0.4, 0.0]])  # the closed form
    for A, posteriori, want in ((np.array([[0.9, 0.1], [0.0, 0.5]]), True, 1.6864938965420604),
                                (one_column, False, 2.5069791685466556), (one_column, True, 1.0453178732920734)):
        assert abs(solve_dare(A, C, W, V, posteriori).trace - want) <= 1e-12 * want


def test_a_measurement_update_whose_bound_overflows_takes_the_augmented_solve():
    # Sigma = 1e300 and C = 1e5: t = tr Sigma ||F||_F^2 overflows to inf and
    # the member takes the augmented solve, with no numpy warning (I + Sigma G
    # overflowed before); the update is Sigma / (1 + 1e10 Sigma) = 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        P = posteriori_from_priori(np.array([[1e300]]), np.array([[1e5]]), np.array([[1.0]]))
    assert abs(P[0, 0] - 1e-10) <= 4 * np.finfo(float).eps * 1e-10


def test_the_bound_that_chooses_the_update_solve():
    # cond_F(I + X G) <= (sqrt(n) + t)(sqrt(n) + sqrt(t) / 2), t = tr X ||F||_F^2,
    # the inverse taken as I - X F' (I + F X F')^-1 F; and at t just below
    # and just above UPDATE_BOUND, _update agrees with the other solve
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n, p = (int(x) for x in rng.integers(1, 8, 2))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        X = (Q * 10.0 ** rng.uniform(-6.0, 4.0, n)) @ Q.T
        F = 10.0 ** rng.uniform(-3.0, 3.0, (p, 1)) * rng.standard_normal((p, n))
        t = np.trace(X) * (F * F).sum()
        inv = np.eye(n) - X @ F.T @ np.linalg.solve(np.eye(p) + F @ X @ F.T, F)
        cond = np.linalg.norm(np.eye(n) + X @ F.T @ F) * np.linalg.norm(inv)
        assert cond <= (np.sqrt(n) + t) * (np.sqrt(n) + np.sqrt(t) / 2) * (1 + 1e-9)
        F = np.array([F * np.sqrt(side * riccati.UPDATE_BOUND / t) for side in (0.99, 1.01)])
        X, Y = np.array([X, X]), rng.standard_normal((2, n, 3))
        Z, GZ = riccati._update(X, F, Y)
        for j, G in enumerate(F.transpose(0, 2, 1) @ F):  # each member against both solves
            nxn = np.linalg.solve(np.eye(n) + X[j] @ G, Y[j])
            ZU = np.linalg.solve(np.block([[np.eye(n), X[j] @ F[j].T], [-F[j], np.eye(p)]]),
                                 np.concatenate((Y[j], np.zeros((p, 3)))))
            for got, want in ((Z[j], nxn), (GZ[j], G @ nxn), (Z[j], ZU[:n]), (GZ[j], F[j].T @ ZU[n:])):
                assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


def test_a_noiseless_member_with_singular_w_takes_newton():
    # W = u u' and one noiseless sensor c with c W c' > 0: the reduced pair
    # has W_b = 0 and A_b an eigenvalue of 2.04, a zero of the sensor's
    # transfer function outside the unit circle, so the reduced doubling
    # would return 1.6444 where the recursion converges to 2.4246; a
    # singular W sends the member to Newton, which gets it right
    rng = np.random.default_rng(12)
    u = rng.standard_normal(3)
    A, C, W = np.diag([0.5, -0.3, 0.8]), rng.standard_normal((4, 3))[:1], np.outer(u, u)
    want = _recursion_limit(A, C, W, np.zeros((1, 1)), 3000)
    assert abs(np.trace(want) - 2.4246457436563) <= 1e-12
    res = solve_dare(A, C, W, np.zeros((1, 1)))
    assert abs(res.trace - np.trace(want)) <= 1e-9 * np.trace(want)


def _kernel_spy(monkeypatch):
    used = []
    for name in ("_newton_dare", "_filtered", "_doubling_dare"):
        kernel = getattr(riccati, name)

        def spy(*args, _kernel=kernel, _name=name):
            used.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(riccati, name, spy)
    return used


@pytest.mark.parametrize("V, kernel", [
    (np.diag([1.0, 0.5]), "_doubling_dare"),
    (np.zeros((0, 0)), "_doubling_dare"),
    (np.diag([1.0, 0.0]), "_newton_dare"),  # a zero diagonal entry, W singular
    (np.ones((2, 2)), "_newton_dare"),  # singular without a zero diagonal entry, W singular
    (np.diag([1.0, 0.0]), "_filtered"),
    (np.ones((2, 2)), "_filtered"),
])
def test_kernel_follows_noise_singularity(monkeypatch, V, kernel):
    # a singular V takes the perfect-measurement reduction when W is
    # nonsingular, and Newton when it is not
    used = _kernel_spy(monkeypatch)
    p = V.shape[0]
    A = np.diag([0.9, 0.5, 0.7, -0.3, 0.6])
    C = np.array([[1.0, 0.0, 0.5, 0.0, 0.2], [1.0, 1.0, 0.0, 0.3, 0.0]])[:p]
    W = np.diag([1.0, 1.0, 1.0, 1.0, 0.0]) if kernel == "_newton_dare" else np.eye(5)
    res = solve_dare(A, C, W, V)
    if kernel == "_doubling_dare":
        assert used == [kernel]
    elif kernel == "_filtered":
        # one doubling run, on the reduced equation; iterations counts its doublings
        assert used == [kernel, "_doubling_dare"] and res.iterations >= 1
    else:
        # the start and one Stein equation per Newton step, all through the
        # doubling; step 1 is never tested, so there are at least two steps
        assert used[0] == kernel and set(used[1:]) == {"_doubling_dare"}
        assert res.iterations == len(used) - 2 >= 2
    assert res.is_finite
    S = res.cov
    assert np.linalg.norm(_riccati_step(S, A, C, W, V) - S) < 1e-9


@pytest.mark.parametrize("V", [np.diag([1.0, 0.0]), np.ones((2, 2))])
def test_small_newton_solve_runs_the_doubling_only_for_its_start(monkeypatch, V):
    # two states, noiseless sensors, W = I: what was a Newton solve and its
    # start is one doubling run, on the reduced equation
    used = _kernel_spy(monkeypatch)
    A = np.diag([0.9, 0.5])
    C = np.array([[1.0, 0.0], [1.0, 1.0]])
    res = solve_dare(A, C, np.eye(2), V)
    assert used == ["_filtered", "_doubling_dare"] and res.iterations >= 1
    assert np.linalg.norm(_riccati_step(res.cov, A, C, np.eye(2), V) - res.cov) < 1e-9


def test_stabilizability_verdict_follows_pbh_tol(monkeypatch):
    # W^(1/2) keeps 1e-8 of the unstable mode: seen at PBH_TOL = 1e-9 only
    A, W = np.diag([1.2, 0.5]), np.diag([1e-16, 1.0])
    m = SystemModel(n=2, q=2, A=A, C=np.eye(2), W=W, V=np.eye(2))
    assert riccati.is_stabilizable_noise(A, W)
    assert math.isfinite(exhaustive_select(m, m.b, 2.0, "priori").trace)
    monkeypatch.setattr(riccati, "PBH_TOL", 1e-7)
    assert not riccati.is_stabilizable_noise(A, W)
    with pytest.raises(StabilizabilityViolation, match=r"^\(A, W\^\(1/2\)\) is not stabilizable$"):
        exhaustive_select(m, m.b, 2.0, "priori")
    monkeypatch.undo()
    assert riccati.is_stabilizable_noise(A, W)
    assert math.isfinite(exhaustive_select(m, m.b, 2.0, "priori").trace)


def _spoilt(M):
    M = np.array(M)
    M[0, 0] = math.nan
    return M


DOOR_CASES = [  # (array, its bad value, error, the start of the message)
    ("A", np.ones((2, 3)), ShapeError, "A and W must be n x n$"),
    ("W", np.eye(3), ShapeError, "A and W must be n x n$"),
    ("C", np.ones((2, 3)), ShapeError, "C must be p x n with V p x p$"),
    ("V", np.eye(2)[:, :, None], ShapeError, "C must be p x n with V p x p$"),
    ("A", _spoilt(np.diag([1.5, 0.5])), NonFiniteInput, "A has an entry that is not finite$"),
    ("C", _spoilt(np.eye(2)), NonFiniteInput, "C has an entry that is not finite$"),
    ("W", _spoilt(np.eye(2)), NonFiniteInput, "W has an entry that is not finite$"),
    ("V", _spoilt(np.eye(2)), NonFiniteInput, "V has an entry that is not finite$"),
    ("W", -np.eye(2), NotPSD, "W has eigenvalue -1.000e"),
    ("V", -np.eye(2), NotPSD, "V has eigenvalue -1.000e"),
    ("W", np.diag([0.0, 1.0]), StabilizabilityViolation, r"\(A, W\^\(1/2\)\) is not stabilizable$"),
]


@pytest.mark.parametrize("metric", ["priori", "posteriori"])
def test_a_process_noise_that_is_not_psd_is_refused_before_any_kernel(monkeypatch, metric):
    # W = -I once passed the stabilizability test on a clamped root and
    # ended in numpy's LinAlgError or an answer.  Every entry point has one
    # door, which refuses each bad input, W = -I among them, by the rule
    # validate_model applies: the same error and message from every
    # caller, and no kernel run (is_stabilizable_noise answers False on an
    # unstabilizable pair)
    used = _kernel_spy(monkeypatch)
    for name, bad, error, message in DOOR_CASES:
        m = SystemModel(n=2, q=2, A=np.diag([1.5, 0.5]), C=np.eye(2), W=np.eye(2), V=np.eye(2))
        setattr(m, name, bad)
        runs = [lambda: solve_dare(m.A, m.C, m.W, m.V, posteriori=metric == "posteriori"),
                lambda: evaluate_selection(m, SelectionVector((1, 1)), metric),
                lambda: greedy_select(m, 1, metric), lambda: greedy_attack(m, 1, metric),
                lambda: exhaustive_select(m, m.b, 2.0, metric), lambda: exhaustive_attack(m, m.omega, 1.0, metric),
                lambda: greedy_and_optimal([m], 1, "select", metric),
                lambda: greedy_and_optimal([m], 1, "attack", metric)]
        if name in "AW" and error is not StabilizabilityViolation:
            runs.append(lambda: is_stabilizable_noise(m.A, m.W))
        refusals = set()
        for run in runs:
            with pytest.raises(error, match="^" + message) as refused:
                run()
            refusals.add((type(refused.value), str(refused.value)))
        assert len(refusals) == 1, (name, refusals)
        if error is StabilizabilityViolation:
            assert not is_stabilizable_noise(m.A, m.W)
    assert used == []


def test_a_covariance_that_is_not_psd_has_no_measurement_update(monkeypatch):
    used = _kernel_spy(monkeypatch)
    for V in (np.eye(2), np.zeros((2, 2))):  # the noisy update and the noiseless one
        with pytest.raises(NotPSD, match="^Sigma has eigenvalue -1.000e"):
            posteriori_from_priori(-np.eye(2), np.eye(2), V)
    assert used == []


def test_stabilizability_checked_once_per_driver_run(monkeypatch):
    # the solvers' door tests it from its one eigvals of A per request (see
    # test_stacked.py::test_each_request_decomposes_A_and_W_once)
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(a) or eigvals(a))
    m = _diag_model([0.9, 0.5], C=np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), V=np.eye(3))
    exhaustive_select(m, m.b, 2.0, "priori")
    greedy_select(m, 2, "posteriori")
    greedy_and_optimal([m, m, m], 2, "attack", "priori")
    monkeypatch.undo()
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


def _rotation(t):
    return np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])


def _pbh_cases(rng):
    """(A, W, C) of n <= 5 states: random real A with stable and unstable
    real modes and complex pairs, and the structured cases the door's one
    SVD per mode must get right, each in a random orthonormal basis."""
    blocks = [
        [np.diag([1.1, 0.4])], [1.3 * _rotation(0.7), [[0.2]]],  # a real unstable mode, a complex pair
        [[[1.1, 1.0], [0.0, 1.1]]], [[[1.0, 1.0], [0.0, 1.0]], [[-0.5]]],  # defective Jordan blocks
        [np.diag([1.2, 1.2, 0.5])], [np.diag([-1.0, -1.0, 1.0])],  # repeated modes, 2-D null spaces
        [np.diag([1 + 1e-10, 0.3])], [np.diag([1 - 1e-10, 0.3])],  # moduli of 1 +- 1e-10
        [(1 - 1e-10) * _rotation(1.1), [[0.9]]], [(1 + 1e-10) * _rotation(2.0)],
        [np.diag([0.5, 0.2])],  # no unstable mode
    ]
    cases = []
    for parts in blocks:
        A = np.zeros((sum(len(b) for b in parts),) * 2)
        k = 0
        for b in parts:
            A[k:k + len(b), k:k + len(b)] = b
            k += len(b)
        n = len(A)
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        for rank in range(n + 1):  # a W singular along some modes, or along none
            B = rng.standard_normal((n, rank))
            C = rng.standard_normal((3, n)) * (rng.random((3, n)) < 0.7)
            cases.append((Q @ A @ Q.T, Q @ B @ B.T @ Q.T, C))
            cases.append((A, np.diag((np.arange(n) < rank).astype(float)), np.eye(n)[: min(n, 3)]))  # axis-aligned
    for _ in range(60):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n)) * rng.uniform(0.3, 0.9)
        B = rng.standard_normal((n, int(rng.integers(0, n + 1))))
        cases.append((A, B @ B.T, rng.standard_normal((3, n)) * (rng.random((3, n)) < 0.6)))
    cases.append((np.diag([1.05, 0.5]), np.diag([1e200, 1.0]), np.array([[1e200, 0.0], [0.0, 1.0]])))  # 1e200 rows
    return cases


def test_the_doors_pbh_tests_agree_with_the_public_ones():
    # one SVD of A - lam I per unstable mode: its left null vectors give the
    # verdict of is_detectable(A', L') (L W's root), its right ones the mode
    # bases, whose verdict on every row subset S is is_detectable(A, C_S)
    verdicts = set()
    for A, W, C in _pbh_cases(np.random.default_rng(3901)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                riccati._request(A, W, [C], [np.eye(len(C))])
                stabilizable = True
            except StabilizabilityViolation:
                stabilizable = False
            assert stabilizable == is_detectable(A.T, riccati.noise_root(W, "W")[2].T) == is_stabilizable_noise(A, W)
            _, _, _, modes = riccati._request(A, np.eye(len(A)), [C], [np.eye(len(C))])
            for r in range(len(C) + 1):
                idx = np.array(list(combinations(range(len(C)), r)), dtype=np.intp).reshape(math.comb(len(C), r), r)
                seen = riccati._detectable(modes, C[idx]).tolist()
                assert seen == [is_detectable(A, C[list(s)]) for s in idx]
                verdicts |= {(stabilizable, v) for v in seen}
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def _solved_or_refused(solve, exact):
    """True when ``solve()`` gives a trace within 1e-9 relative of ``exact``
    or raises NoConvergence: no wrong answer leaves."""
    try:
        trace = solve().trace
    except NoConvergence:
        return True
    return abs(trace - exact) <= 1e-9 * exact


@pytest.mark.xfail(strict=True, reason="ROADMAP items 23 and 26: a precise sensor off the axes is answered wrongly")
@pytest.mark.parametrize("g", [1.0, 1e10])
def test_a_precise_sensor_off_the_axes_is_solved_or_refused(g):
    # C = [g, g] with V = 1e-11, a priori: the exact trace is known to 16
    # digits; 2.750481229712803 comes back at g = 1 and 2.000000000000001 at
    # g = 1e10, both with no error
    A = np.array([[0.9, 0.1], [0.0, 0.5]])
    assert _solved_or_refused(lambda: solve_dare(A, np.array([[g, g]]), np.eye(2), np.array([[1e-11]])),
                              2.750489783961217)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 10: _split calls a unit-noise sensor noiseless")
def test_a_unit_noise_sensor_with_one_large_entry_is_solved_or_refused():
    # sensor 0 = [1, 1e6] has unit noise, sensor 1 = [0, 1] none: the exact
    # trace is scalar_sensor_msee(0.9, 1) + 1, and 2.0 comes back because
    # sensor 0's noise per squared gain, 1e-12, reads as noiseless
    exact = scalar_sensor_msee(0.9, 1.0) + 1.0
    assert abs(exact - 2.48389990267865) <= 1e-14 * exact
    C, V = np.array([[1.0, 1e6], [0.0, 1.0]]), np.diag([1.0, 0.0])
    assert _solved_or_refused(lambda: solve_dare(np.diag([0.9, 0.0]), C, np.eye(2), V), exact)
