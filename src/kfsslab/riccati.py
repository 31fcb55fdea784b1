"""Steady-state error covariance of the filter Riccati equation, plus the
PBH detectability test and a symmetric-PSD pseudo-inverse.

The a priori covariance is the stabilizing solution of

    S = A S A' + W - A S C' (C S C' + V)^+ C S A'.

One doubling loop computes it, in one of two ways chosen from the data:

* Nonsingular V (including the empty selection's 0 x 0 V): the equation is
  S = A S (I + G S)^-1 A' + W with G = C' V^-1 C, solved by the
  structure-preserving doubling algorithm (Chu, Fan & Lin; Anderson & Moore,
  Optimal Filtering, 1979), which converges quadratically.
* Singular V (noiseless sensors): Newton's method on the equation
  (Kleinman 1968; Hewer 1971).  Each step fixes the gain
  K = A S C' (C S C' + V)^+ and solves the closed-loop Stein equation
  S = F S F' + W + K V K', F = A - K C, by the same doubling with G = 0
  (Smith's squared iteration).  It starts from the doubling solution for
  V + delta I, whose gain is stabilizing, and converges quadratically.

The private helpers work on stacks: arrays of k same-shape members, one
per sensor subset (C is k x p x n, V is k x p x p).  The PBH test, the
noise factorization, the doubling, the Newton gain and the measurement
update each run as one batched numpy call per step over the stack, and
each member of a doubling or Newton run stops at its own stopping rule.
riccati_step and the Newton step share one gain (_gain); they, the
measurement update and pseudo_inverse_psd share one pseudo-inverse
(_pinv_psd).  The public functions are the stack of one, so a subset
solved alone and the same subset solved inside a stack take the same
arithmetic.

Three module constants hold the tolerances: TOL (the stopping rule),
PINV_RTOL (the pseudo-inverse cutoff, which also decides whether V is
singular) and PBH_TOL (the detectability test).  Every function reads them
from the module when it runs; no function takes a tolerance argument.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .model import SelectionVector, SteadyStateResult, SystemModel, restrict

class ShapeError(ValueError):
    pass


class NoConvergence(RuntimeError):
    """A doubling run or the Newton iteration reached MAX_STEPS above
    tolerance, or a doubling iterate became non-finite."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class StabilizabilityViolation(ValueError):
    pass


# Noise added to a singular V for the Newton start.  Any value above zero
# gives a stabilizing first gain; the value only moves the number of steps.
NEWTON_START_DELTA = 1.0

# Cap on the doublings of each doubling run and on Newton steps.  Both
# converge quadratically, and 100 doublings are 2^100 fixed-point steps.
MAX_STEPS = 100

# Stopping threshold on the Frobenius norm of a doubling or Newton step,
# relative to max(1, ||S||_F).
TOL = 1e-11

# Eigenvalue cutoff of the PSD pseudo-inverse; a V with a Cholesky pivot
# squared at or below it counts as singular.
PINV_RTOL = 1e-12

# Rank tolerance of the PBH detectability test.
PBH_TOL = 1e-9


def _noise_cholesky(V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which members of the stack V (k x p x p) are nonsingular, and their
    lower Cholesky factors, in stack order.

    V is PSD, so a diagonal entry at or below the pseudo-inverse cutoff
    already makes a member singular without a factorization; otherwise a
    failed factorization or a pivot squared at or below the cutoff does.  A
    batched factorization fails as a whole when one member is not positive
    definite; the members are then factored one by one.
    """
    k, p = V.shape[:2]
    if p == 0:
        return np.ones(k, dtype=bool), V
    ok = V.diagonal(axis1=1, axis2=2).min(axis=1) > PINV_RTOL
    tried = np.flatnonzero(ok)
    try:
        L = np.linalg.cholesky(V[tried])
    except np.linalg.LinAlgError:
        L = np.zeros((tried.size, p, p))  # a failed member keeps a zero pivot
        for j, m in enumerate(tried):
            try:
                L[j] = np.linalg.cholesky(V[m])
            except np.linalg.LinAlgError:
                pass
    pivots_ok = L.diagonal(axis1=1, axis2=2).min(axis=1) ** 2 > PINV_RTOL
    ok[tried] = pivots_ok
    return ok, L[pivots_ok]


def _doubling_dare(A, G, W):
    """Structure-preserving doubling for S = A S (I + G S)^-1 A' + W, for
    every member G of the stack G (k x n x n), G = C' V^-1 C.  A and W are
    n x n or stacks broadcast against G; with G = 0 the equation is the
    Stein equation S = A S A' + W.

    With A_0 = A', G_0 = G and H_0 = W, each doubling maps
    A <- A (I+GH)^-1 A, G <- G + A (I+GH)^-1 G A', H <- H + A' H (I+GH)^-1 A;
    H_k is the fixed-point iterate 2^k steps from zero, so H converges
    quadratically to the a priori covariance.  G and H stay PSD, so I + GH
    is nonsingular.  A member stops once its step ||H+ - H||_F is at most
    TOL * max(1, ||H+||_F) and is frozen from then on.  Returns the stack of
    covariances and each member's doubling count; raises NoConvergence when
    a member reaches MAX_STEPS doublings or any step turns non-finite.
    """
    k, n = G.shape[0], A.shape[-1]
    out = np.empty((k, n, n))
    doublings = np.zeros(k, dtype=int)
    live = np.arange(k)
    Ak = np.broadcast_to(A.swapaxes(-1, -2), (k, n, n)).copy()
    H = np.broadcast_to(W, (k, n, n)).copy()
    eye = np.eye(n)
    step = np.full(k, np.inf)
    for it in range(1, MAX_STEPS + 1):
        try:
            X = np.linalg.solve(eye + G @ H, np.concatenate((Ak, G), axis=2))
        except np.linalg.LinAlgError:
            raise NoConvergence("doubling iterate became non-finite", float(step[0]), it) from None
        XA, XG = X[:, :, :n], X[:, :, n:]
        AkT = Ak.transpose(0, 2, 1)
        H2 = _sym(H + AkT @ H @ XA)
        G = _sym(G + Ak @ XG @ AkT)
        Ak = Ak @ XA
        step = np.linalg.norm(H2 - H, axis=(1, 2))
        H = H2
        bad = ~np.isfinite(step)
        if bad.any():
            raise NoConvergence("doubling iterate became non-finite", float(step[bad][0]), it)
        done = step <= TOL * np.maximum(1.0, np.linalg.norm(H, axis=(1, 2)))
        if done.any():
            out[live[done]] = H[done]
            doublings[live[done]] = it
            keep = ~done
            live, Ak, G, H, step = live[keep], Ak[keep], G[keep], H[keep], step[keep]
            if not live.size:
                return out, doublings
    raise NoConvergence("iteration cap reached above tolerance", float(step[0]), MAX_STEPS)


def _sym(X: np.ndarray) -> np.ndarray:
    """Symmetric part of every member of the stack X (k x n x n)."""
    return 0.5 * (X + X.transpose(0, 2, 1))


def _pinv_psd(M: np.ndarray) -> np.ndarray:
    """pseudo_inverse_psd of every member of the stack M (k x p x p), read
    from its lower triangle.  Neither M nor the result is symmetrized here;
    callers that want symmetry symmetrize around the call."""
    w, U = np.linalg.eigh(M)
    inv = 1.0 / np.where(w > PINV_RTOL * np.maximum(w, 1.0), w, np.inf)  # cut-off ones give 0
    return (U * inv[:, None, :]) @ U.transpose(0, 2, 1)


def _gain(A, S, C, V) -> np.ndarray:
    """Filter gain A S C' (C S C' + V)^+ of every member of the stacks
    S (k x n x n), C (k x p x n) and V (k x p x p)."""
    CS = C @ S
    return A @ CS.transpose(0, 2, 1) @ _pinv_psd(CS @ C.transpose(0, 2, 1) + V)


def _step(A, S, C, W, V) -> np.ndarray:
    """One application of the a priori recursion to every member of the
    stacks S (k x n x n), C (k x p x n) and V (k x p x p), symmetrized:
    A S A' + W - (A S C') M^+ (A S C')' with M = C S C' + V."""
    return _sym(A @ S @ A.T + W - _gain(A, S, C, V) @ (C @ S @ A.T))


def _newton_dare(A, C, W, V) -> tuple[np.ndarray, np.ndarray]:
    """Newton-Hewer iteration for every member of the stacks C (k x p x n)
    and V (k x p x p), V singular.

    Step 1 takes the gain of the doubling solution S_0 for
    V + NEWTON_START_DELTA I, which stabilizes A - K C.  Step j solves
    S_j = F S_j F' + W + K V K', F = A - K C, as _doubling_dare(F, 0, .)
    and takes the gain K = A S_j C' (C S_j C' + V)^+ for step j + 1.  Step 1
    is measured from S_0, not from a Newton iterate, so it is never tested.
    From step 2 on a member stops once its step ||S_j - S_j-1||_F is at most
    TOL * max(1, ||S_j||_F), or once a step neither shrinks nor lowers
    the trace (the iterates decrease, so that step is round-off), and is
    frozen.  Returns the stack of covariances and each member's step count;
    raises NoConvergence when a member reaches MAX_STEPS steps, or as
    _doubling_dare does.
    """
    k, p, n = C.shape
    start = V + NEWTON_START_DELTA * np.eye(p)
    F = np.linalg.solve(np.linalg.cholesky(start), C)
    S, _ = _doubling_dare(A, F.transpose(0, 2, 1) @ F, W)
    K = _gain(A, S, C, start)
    out = np.empty((k, n, n))
    steps = np.zeros(k, dtype=int)
    live = np.arange(k)
    for it in range(1, MAX_STEPS + 1):
        Q = _sym(W + K @ V @ K.transpose(0, 2, 1))
        S2, _ = _doubling_dare(A - K @ C, np.zeros_like(S), Q)
        step = np.linalg.norm(S2 - S, axis=(1, 2))
        trace2 = np.trace(S2, axis1=1, axis2=2)
        S = S2
        if it > 1:
            done = step <= TOL * np.maximum(1.0, np.linalg.norm(S, axis=(1, 2)))
            done |= (step >= last) & (trace2 >= trace)
            if done.any():
                out[live[done]] = S[done]
                steps[live[done]] = it
                keep = ~done
                live, C, V, S, step, trace2 = live[keep], C[keep], V[keep], S[keep], step[keep], trace2[keep]
                if not live.size:
                    return out, steps
        last, trace = step, trace2
        K = _gain(A, S, C, V)
    raise NoConvergence("iteration cap reached above tolerance", float(last[0]), MAX_STEPS)


def _posteriori(S, C, V) -> np.ndarray:
    """posteriori_from_priori for every member of the stacks S (k x n x n),
    C (k x p x n) and V (k x p x p)."""
    if C.shape[1] == 0:
        return S.copy()
    CS = C @ S
    K = CS.transpose(0, 2, 1) @ _pinv_psd(CS @ C.transpose(0, 2, 1) + V)
    F = np.eye(S.shape[-1]) - K @ C
    return _sym(F @ S @ F.transpose(0, 2, 1) + K @ V @ K.transpose(0, 2, 1))


def pseudo_inverse_psd(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues at or below PINV_RTOL * max(eigenvalue, 1) are treated as
    zero.  The safeguard keeps informative but small eigenvalues of badly
    scaled matrices (entries of order h^2 with h large) invertible while
    still zeroing genuine rank deficiency.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"expected a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    return _sym(_pinv_psd(_sym(M[None])))[0]


def _measurement(n: int, C_sel, V_sel) -> tuple[np.ndarray, np.ndarray]:
    """C_sel (p x n) and V_sel (p x p) as float arrays, shapes checked."""
    C_sel = np.asarray(C_sel, dtype=float)
    V_sel = np.asarray(V_sel, dtype=float)
    if C_sel.ndim != 2 or C_sel.shape[1] != n:
        raise ShapeError(f"C must be p x {n}, got {C_sel.shape}")
    p = C_sel.shape[0]
    if V_sel.shape != (p, p):
        raise ShapeError(f"V must be {p} x {p}, got {V_sel.shape}")
    return C_sel, V_sel


def riccati_step(S, A, C_sel, W, V_sel) -> np.ndarray:
    """One application of the a priori covariance recursion, symmetrized:
    A S A' + W - (A S C') (C S C' + V)^+ (A S C')'.

    With an empty measurement matrix the gain term vanishes and the step is
    the Lyapunov update A S A' + W.
    """
    S = np.asarray(S, dtype=float)
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or S.shape != (n, n) or W.shape != (n, n):
        raise ShapeError("A, S, W must all be n x n")
    C_sel, V_sel = _measurement(n, C_sel, V_sel)
    return _step(A, S[None], C_sel[None], W, V_sel[None])[0]


def posteriori_from_priori(Sigma, C_sel, V_sel) -> np.ndarray:
    """Measurement-update covariance S - S C' M^+ C S, M = C S C' + V,
    computed in Joseph form (I - K C) S (I - K C)' + K V K' with the gain
    K = S C' M^+ and symmetrized.  The two forms agree in exact arithmetic;
    the Joseph form adds two PSD terms instead of subtracting a term close
    to S, so it keeps its accuracy when the gain is extreme."""
    Sigma = np.asarray(Sigma, dtype=float)
    n = Sigma.shape[0]
    if Sigma.shape != (n, n):
        raise ShapeError(f"covariance must be square, got {Sigma.shape}")
    C_sel, V_sel = _measurement(n, C_sel, V_sel)
    return _posteriori(Sigma[None], C_sel[None], V_sel[None])[0]


def coupling_check(Sigma_priori, Sigma_post, A, W) -> float:
    """Frobenius residual of the prediction identity Sigma = A Sigma* A' + W.

    Diagnostic only; solvers never call it.
    """
    Sigma_priori = np.asarray(Sigma_priori, dtype=float)
    Sigma_post = np.asarray(Sigma_post, dtype=float)
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    return float(np.linalg.norm(Sigma_priori - (A @ Sigma_post @ A.T + W)))


def _unstable_modes(A: np.ndarray) -> list:
    """Eigenvalues of A with modulus >= 1 - PBH_TOL, the modes PBH tests."""
    return [lam for lam in np.linalg.eigvals(A) if abs(lam) >= 1.0 - PBH_TOL]


def _detectable(A: np.ndarray, C: np.ndarray, modes: list) -> np.ndarray:
    """is_detectable for every member of the stack C (k x p x n), given the
    unstable modes of A: one batched SVD per mode."""
    k, n = C.shape[0], A.shape[0]
    ok = np.ones(k, dtype=bool)
    for lam in modes:
        blocks = np.concatenate(
            (np.broadcast_to(A - lam * np.eye(n), (k, n, n)), C.astype(complex)), axis=1
        )
        sv = np.linalg.svd(blocks, compute_uv=False)
        ok &= ~((sv[:, 0] == 0.0) | (sv[:, -1] <= PBH_TOL * sv[:, 0]))
    return ok


def is_detectable(A, C_sel) -> bool:
    """PBH test: every eigenvalue of A with modulus >= 1 - PBH_TOL must keep
    the stacked matrix [A - lam I; C] at full column rank (smallest singular
    value above PBH_TOL times the largest).

    A spectral radius below 1 - PBH_TOL short-circuits to True.
    """
    A = np.asarray(A, dtype=float)
    C_sel = np.asarray(C_sel, dtype=float)
    return bool(_detectable(A, C_sel[None], _unstable_modes(A))[0])


def _sqrt_psd(W: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(0.5 * (W + W.T))
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def is_stabilizable_noise(A, W) -> bool:
    """Dual PBH test that (A, W^{1/2}) is stabilizable."""
    return is_detectable(np.asarray(A, dtype=float).T, _sqrt_psd(np.asarray(W, dtype=float)))


@lru_cache(maxsize=1)
def _stabilizable(shape: tuple, a_bytes: bytes, w_bytes: bytes) -> bool:
    A = np.frombuffer(a_bytes).reshape(shape)
    W = np.frombuffer(w_bytes).reshape(shape)
    return is_stabilizable_noise(A, W)


def check_stabilizable(A, W) -> None:
    """Raise StabilizabilityViolation unless (A, W^{1/2}) is stabilizable.

    The verdict depends on A and W only, not on the sensors; the last
    verdict is remembered (keyed on the matrix contents, not on PBH_TOL),
    so the solver runs and solves on one pair test it once.
    """
    A = np.ascontiguousarray(A, dtype=float)
    W = np.ascontiguousarray(W, dtype=float)
    if not _stabilizable(A.shape, A.tobytes(), W.tobytes()):
        raise StabilizabilityViolation("(A, W^(1/2)) is not stabilizable")


def _solve_detectable(A, C, W, V) -> tuple[np.ndarray, np.ndarray]:
    """A priori covariances and iteration counts for the stacks C (k x p x n)
    and V (k x p x p), every member detectable.

    Nonsingular members share one doubling run and singular ones one
    Newton run.  Raises NoConvergence as solve_dare does.
    """
    k, n = C.shape[0], A.shape[0]
    S = np.empty((k, n, n))
    iters = np.zeros(k, dtype=int)
    nonsingular, L = _noise_cholesky(V)
    if nonsingular.any():
        F = C[nonsingular]
        if F.shape[1]:
            F = np.linalg.solve(L, F)
        S[nonsingular], iters[nonsingular] = _doubling_dare(A, F.transpose(0, 2, 1) @ F, W)
    singular = ~nonsingular
    if singular.any():
        S[singular], iters[singular] = _newton_dare(A, C[singular], W, V[singular])
    return S, iters


def solve_dare(A, C, W, V) -> SteadyStateResult:
    """Stabilizing solution of the filter Riccati equation (the a priori
    steady-state covariance).

    Nonsingular V (a 0 x 0 V included) is solved by doubling until the
    step falls to TOL relative to max(1, ||S||_F); the result's
    ``iterations`` counts doublings.  Singular V is solved by Newton steps
    whose Stein equations go through the same doubling, until a step falls
    to TOL by the same measure or to its round-off floor (see
    _newton_dare); ``iterations`` counts Newton steps.

    Returns the infinite result when (A, C) is undetectable.  Raises
    StabilizabilityViolation when (A, W^{1/2}) is not stabilizable and
    NoConvergence when a doubling run or the Newton iteration reaches
    MAX_STEPS above tolerance, or a doubling iterate turns non-finite.
    """
    A = np.ascontiguousarray(A, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    W = np.ascontiguousarray(W, dtype=float)
    V = np.ascontiguousarray(V, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or W.shape != (n, n):
        raise ShapeError("A and W must be n x n")
    if C.ndim != 2 or C.shape[1] != n or V.shape != (C.shape[0], C.shape[0]):
        raise ShapeError("C must be p x n with V p x p")
    check_stabilizable(A, W)
    if not is_detectable(A, C):
        return SteadyStateResult.infinite()
    S, iters = _solve_detectable(A, C[None], W, V[None])
    return SteadyStateResult.finite(S[0], int(iters[0]))


def dare_steady_state(model: SystemModel, sel: SelectionVector) -> SteadyStateResult:
    """Steady-state a priori covariance for the sensors indicated by ``sel``."""
    C_sel, V_sel = restrict(model, sel)
    return solve_dare(model.A, C_sel, model.W, V_sel)


def warmup() -> None:
    """Run one tiny singular-V solve, which runs both the doubling and the
    Newton loop, so that the first timed solve does not pay numpy's one-time
    set-up costs."""
    one = np.ones((1, 1, 1))
    _solve_detectable(np.array([[0.5]]), one, np.eye(1), 0.0 * one)
