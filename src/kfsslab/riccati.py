"""Steady-state error covariance of the filter Riccati equation, plus the
PBH detectability test and a symmetric-PSD pseudo-inverse.

The a priori covariance is the stabilizing solution of

    S = A S A' + W - A S C' (C S C' + V)^+ C S A'.

Two kernels compute it, chosen from the data:

* Nonsingular V (including the empty selection's 0 x 0 V): the equation is
  S = A S (I + G S)^-1 A' + W with G = C' V^-1 C, solved by the
  structure-preserving doubling algorithm (Chu, Fan & Lin; Anderson & Moore,
  Optimal Filtering, 1979), which converges quadratically.
* Singular V (noiseless sensors): fixed-point iteration of the recursion
  above from the identity.  The pseudo-inverse keeps the recursion well
  defined when C S C' + V is singular; convergence is linear.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import SelectionVector, SteadyStateResult, SystemModel, restrict

try:
    from numba import njit as _njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    _HAVE_NUMBA = False

    def _njit(**kwargs):
        def wrap(fn):
            return fn

        return wrap


class ShapeError(ValueError):
    pass


class NoConvergence(RuntimeError):
    """Iteration hit the cap, or an iterate lost positive semidefiniteness
    (fixed point) or became non-finite (doubling)."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class StabilizabilityViolation(ValueError):
    pass


@dataclass(frozen=True)
class SolverOptions:
    """Numerical knobs shared by every solve.

    tol        convergence threshold on the Frobenius norm of successive
               iterates (relative to the iterate's norm for doubling)
    max_iter   cap on fixed-point iterations or on doublings
    pinv_rtol  eigenvalue cutoff for the PSD pseudo-inverse; V with a
               Cholesky pivot at or below it counts as singular
    pbh_tol    rank tolerance of the detectability test
    """

    tol: float = 1e-11
    max_iter: int = 500_000
    pinv_rtol: float = 1e-12
    pbh_tol: float = 1e-9

    def __post_init__(self):
        for name in ("tol", "max_iter", "pinv_rtol", "pbh_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be strictly positive")


# Iterate eigenvalues below this are a solver failure; in [floor, 0) they are
# round-off and get clamped.
NEG_EIG_FLOOR = -1e-10

# Plateau acceptance inside the kernel: once the per-step change stops
# improving (by less than 1e-6 relative for 64 consecutive steps) and is
# already tiny (<= 1e-6 * the iterate norm), the iteration has reached its
# floating-point floor.  Large coupling gains put that floor slightly above
# very tight tolerances, where insisting on diff < tol would spin forever in
# a two-cycle of rounding noise.

_CONVERGED = 0
_MAX_ITER = 1
_INDEFINITE = 2
_NONFINITE = 3


@_njit(cache=True)
def _iterate_dare(A, C, W, V, tol, max_iter, pinv_rtol, neg_floor):
    n = A.shape[0]
    S = np.eye(n)
    best = np.inf
    stalled = 0
    last = np.inf
    for k in range(max_iter):
        CS = C @ S
        M = CS @ C.T + V
        w, U = np.linalg.eigh(M)
        inv = np.zeros_like(w)
        for i in range(w.shape[0]):
            if w[i] > pinv_rtol * max(w[i], 1.0):
                inv[i] = 1.0 / w[i]
        Minv = (U * inv) @ U.T
        ASC = A @ CS.T
        S2 = A @ S @ A.T + W - ASC @ Minv @ ASC.T
        S2 = 0.5 * (S2 + S2.T)
        ws = np.linalg.eigvalsh(S2)
        if ws[0] < neg_floor:
            return S2, k + 1, _INDEFINITE, last
        if ws[0] < 0.0:
            wv, Uv = np.linalg.eigh(S2)
            for i in range(n):
                if wv[i] < 0.0:
                    wv[i] = 0.0
            S2 = (Uv * wv) @ Uv.T
            S2 = 0.5 * (S2 + S2.T)
        last = np.linalg.norm(S2 - S)
        S = S2
        if last < tol:
            return S, k + 1, _CONVERGED, last
        if last < best * (1.0 - 1e-6):
            best = last
            stalled = 0
        else:
            stalled += 1
            if stalled >= 64 and last <= 1e-6 * max(1.0, np.linalg.norm(S)):
                return S, k + 1, _CONVERGED, last
    return S, max_iter, _MAX_ITER, last


def _noise_cholesky(V: np.ndarray, pinv_rtol: float) -> np.ndarray | None:
    """Lower Cholesky factor of V, or None when V is singular.

    V is PSD, so a diagonal entry at or below the pseudo-inverse cutoff
    already makes it singular without a factorization; otherwise a failed
    factorization or a pivot at or below the cutoff does.
    """
    if V.shape[0] == 0:
        return V
    if np.min(np.diag(V)) <= pinv_rtol:
        return None
    try:
        L = np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        return None
    return L if np.min(np.diag(L)) ** 2 > pinv_rtol else None


def _doubling_dare(A, C, W, L, tol, max_iter):
    """Structure-preserving doubling for S = A S (I + G S)^-1 A' + W with
    G = C' V^-1 C and V = L L'.

    With A_0 = A', G_0 = G and H_0 = W, each doubling maps
    A <- A (I+GH)^-1 A, G <- G + A (I+GH)^-1 G A', H <- H + A' H (I+GH)^-1 A;
    H_k is the fixed-point iterate 2^k steps from zero, so H converges
    quadratically to the a priori covariance.  G and H stay PSD, so I + GH
    is nonsingular.  Returns (H, doublings, status, last step norm).
    """
    n = A.shape[0]
    F = np.linalg.solve(L, C) if C.shape[0] else np.zeros((0, n))
    Ak = A.T.copy()
    G = F.T @ F
    H = W.copy()
    eye = np.eye(n)
    step = np.inf
    for k in range(1, max_iter + 1):
        try:
            X = np.linalg.solve(eye + G @ H, np.concatenate((Ak, G), axis=1))
        except np.linalg.LinAlgError:
            return H, k, _NONFINITE, step
        XA, XG = X[:, :n], X[:, n:]
        H2 = H + Ak.T @ H @ XA
        G = G + Ak @ XG @ Ak.T
        Ak = Ak @ XA
        H2 = 0.5 * (H2 + H2.T)
        G = 0.5 * (G + G.T)
        step = float(np.linalg.norm(H2 - H))
        H = H2
        if not np.isfinite(step):
            return H, k, _NONFINITE, step
        if step <= tol * max(1.0, float(np.linalg.norm(H))):
            return H, k, _CONVERGED, step
    return H, max_iter, _MAX_ITER, step


def pseudo_inverse_psd(M: np.ndarray, pinv_rtol: float = 1e-12) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues at or below pinv_rtol * max(eigenvalue, 1) are treated as
    zero.  The safeguard keeps informative but small eigenvalues of badly
    scaled matrices (entries of order h^2 with h large) invertible while
    still zeroing genuine rank deficiency.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"expected a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    sym = 0.5 * (M + M.T)
    w, U = np.linalg.eigh(sym)
    inv = np.zeros_like(w)
    for i in range(w.shape[0]):
        if w[i] > pinv_rtol * max(w[i], 1.0):
            inv[i] = 1.0 / w[i]
    out = (U * inv) @ U.T
    return 0.5 * (out + out.T)


def riccati_step(S, A, C_sel, W, V_sel, pinv_rtol: float = 1e-12) -> np.ndarray:
    """One application of the a priori covariance recursion, symmetrized.

    With an empty measurement matrix the gain term vanishes and the step is
    the Lyapunov update A S A' + W.
    """
    S = np.asarray(S, dtype=float)
    A = np.asarray(A, dtype=float)
    C_sel = np.asarray(C_sel, dtype=float)
    W = np.asarray(W, dtype=float)
    V_sel = np.asarray(V_sel, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or S.shape != (n, n) or W.shape != (n, n):
        raise ShapeError("A, S, W must all be n x n")
    if C_sel.ndim != 2 or C_sel.shape[1] != n:
        raise ShapeError(f"C must be p x {n}, got {C_sel.shape}")
    p = C_sel.shape[0]
    if V_sel.shape != (p, p):
        raise ShapeError(f"V must be {p} x {p}, got {V_sel.shape}")
    if p == 0:
        out = A @ S @ A.T + W
        return 0.5 * (out + out.T)
    CS = C_sel @ S
    Minv = pseudo_inverse_psd(CS @ C_sel.T + V_sel, pinv_rtol)
    ASC = A @ CS.T
    out = A @ S @ A.T + W - ASC @ Minv @ ASC.T
    return 0.5 * (out + out.T)


def posteriori_from_priori(Sigma, C_sel, V_sel, opts: SolverOptions | None = None) -> np.ndarray:
    """Measurement-update covariance S - S C' (C S C' + V)^+ C S, symmetrized."""
    opts = opts or SolverOptions()
    Sigma = np.asarray(Sigma, dtype=float)
    C_sel = np.asarray(C_sel, dtype=float)
    V_sel = np.asarray(V_sel, dtype=float)
    n = Sigma.shape[0]
    if Sigma.shape != (n, n):
        raise ShapeError(f"covariance must be square, got {Sigma.shape}")
    if C_sel.ndim != 2 or C_sel.shape[1] != n:
        raise ShapeError(f"C must be p x {n}, got {C_sel.shape}")
    p = C_sel.shape[0]
    if V_sel.shape != (p, p):
        raise ShapeError(f"V must be {p} x {p}, got {V_sel.shape}")
    if p == 0:
        return Sigma.copy()
    CS = C_sel @ Sigma
    Minv = pseudo_inverse_psd(CS @ C_sel.T + V_sel, opts.pinv_rtol)
    out = Sigma - CS.T @ Minv @ CS
    return 0.5 * (out + out.T)


def coupling_check(Sigma_priori, Sigma_post, A, W) -> float:
    """Frobenius residual of the prediction identity Sigma = A Sigma* A' + W.

    Diagnostic only; solvers never call it.
    """
    Sigma_priori = np.asarray(Sigma_priori, dtype=float)
    Sigma_post = np.asarray(Sigma_post, dtype=float)
    A = np.asarray(A, dtype=float)
    W = np.asarray(W, dtype=float)
    return float(np.linalg.norm(Sigma_priori - (A @ Sigma_post @ A.T + W)))


def is_detectable(A, C_sel, pbh_tol: float = 1e-9) -> bool:
    """PBH test: every eigenvalue of A with modulus >= 1 - pbh_tol must keep
    the stacked matrix [A - lam I; C] at full column rank (smallest singular
    value above pbh_tol times the largest).

    A spectral radius below 1 - pbh_tol short-circuits to True.
    """
    A = np.asarray(A, dtype=float)
    C_sel = np.asarray(C_sel, dtype=float)
    n = A.shape[0]
    eigvals = np.linalg.eigvals(A)
    unstable = [lam for lam in eigvals if abs(lam) >= 1.0 - pbh_tol]
    if not unstable:
        return True
    for lam in unstable:
        stacked = np.vstack([A - lam * np.eye(n), C_sel.astype(complex)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= pbh_tol * sv[0]:
            return False
    return True


def _sqrt_psd(W: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(0.5 * (W + W.T))
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def is_stabilizable_noise(A, W, pbh_tol: float = 1e-9) -> bool:
    """Dual PBH test that (A, W^{1/2}) is stabilizable."""
    return is_detectable(np.asarray(A, dtype=float).T, _sqrt_psd(np.asarray(W, dtype=float)), pbh_tol)


@lru_cache(maxsize=1)
def _stabilizable(shape: tuple, a_bytes: bytes, w_bytes: bytes, pbh_tol: float) -> bool:
    A = np.frombuffer(a_bytes).reshape(shape)
    W = np.frombuffer(w_bytes).reshape(shape)
    return is_stabilizable_noise(A, W, pbh_tol)


def check_stabilizable(A, W, pbh_tol: float = 1e-9) -> None:
    """Raise StabilizabilityViolation unless (A, W^{1/2}) is stabilizable.

    The verdict depends on A and W only, not on the sensors, and a solver
    run asks it for every subset it scores; the last verdict is remembered
    (keyed on the matrix contents), so one run tests its pair once.
    """
    A = np.ascontiguousarray(A, dtype=float)
    W = np.ascontiguousarray(W, dtype=float)
    if not _stabilizable(A.shape, A.tobytes(), W.tobytes(), pbh_tol):
        raise StabilizabilityViolation("(A, W^(1/2)) is not stabilizable")


def solve_dare(A, C, W, V, opts: SolverOptions | None = None) -> SteadyStateResult:
    """Stabilizing solution of the filter Riccati equation (the a priori
    steady-state covariance).

    Nonsingular V (a 0 x 0 V included) is solved by doubling until the
    step falls to opts.tol relative to the iterate's norm; the result's
    ``iterations`` counts doublings.  Singular V is solved by iterating the
    recursion from the identity until successive iterates are closer than
    opts.tol in Frobenius norm (or until the iteration reaches its
    floating-point floor, accepted as converged).

    Returns the infinite result when (A, C) is undetectable.  Raises
    StabilizabilityViolation when (A, W^{1/2}) is not stabilizable and
    NoConvergence when opts.max_iter is reached above tolerance, or an
    iterate turns indefinite (fixed point) or non-finite (doubling).
    """
    opts = opts or SolverOptions()
    A = np.ascontiguousarray(A, dtype=float)
    C = np.ascontiguousarray(C, dtype=float)
    W = np.ascontiguousarray(W, dtype=float)
    V = np.ascontiguousarray(V, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or W.shape != (n, n):
        raise ShapeError("A and W must be n x n")
    if C.ndim != 2 or C.shape[1] != n or V.shape != (C.shape[0], C.shape[0]):
        raise ShapeError("C must be p x n with V p x p")
    check_stabilizable(A, W, opts.pbh_tol)
    if not is_detectable(A, C, opts.pbh_tol):
        return SteadyStateResult.infinite()
    L = _noise_cholesky(V, opts.pinv_rtol)
    if L is None:
        S, iters, status, residual = _iterate_dare(
            A, C, W, V, opts.tol, opts.max_iter, opts.pinv_rtol, NEG_EIG_FLOOR
        )
    else:
        S, iters, status, residual = _doubling_dare(A, C, W, L, opts.tol, opts.max_iter)
    if status == _INDEFINITE:
        raise NoConvergence("iterate lost positive semidefiniteness", residual, iters)
    if status == _NONFINITE:
        raise NoConvergence("doubling iterate became non-finite", residual, iters)
    if status == _MAX_ITER:
        raise NoConvergence("iteration cap reached above tolerance", residual, iters)
    return SteadyStateResult.finite(S, iters)


def dare_steady_state(
    model: SystemModel, sel: SelectionVector, opts: SolverOptions | None = None
) -> SteadyStateResult:
    """Steady-state a priori covariance for the sensors indicated by ``sel``."""
    C_sel, V_sel = restrict(model, sel)
    return solve_dare(model.A, C_sel, model.W, V_sel, opts)


def warmup() -> None:
    """Force compilation of the iteration kernel (one tiny solve)."""
    A = np.array([[0.5]])
    C = np.array([[1.0]])
    _iterate_dare(A, C, np.eye(1), np.eye(1), 1e-11, 1000, 1e-12, NEG_EIG_FLOOR)
