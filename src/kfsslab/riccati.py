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
  S = F S F' + W + K V K', F = A - K C (_stein): one linear system in vec S
  if n <= STEIN_DIRECT_MAX_N and ||F||_F <= STEIN_DIRECT_MAX_FRO, else
  Smith's doubling with G = None.  It starts from the doubling solution for
  V + delta I, whose gain is stabilizing, and converges quadratically.

The private helpers work on stacks: arrays of k same-shape members, one
per sensor subset (C is k x p x n, V is k x p x p), and every batched
numpy call works member by member.  The public functions are the stack of
one, so a stack of one width keeps the bits of its members solved alone.
Subsets of several sizes share a stack when the smaller ones are padded
with null sensors, as the solvers module pads a chunk: a zero row of C
with unit noise, uncorrelated with every other sensor.  A null sensor adds
exactly 0 to C' V^-1 C, K C, K V K' and every PBH image, so a padded
member agrees with its lone solve up to the order of the sums over p.
Each member of a doubling or Newton run stops at its own stopping rule.
A doubling run may also drop members early: every doubling keeps the
invariant S = A_k' S (I + G_k S)^-1 A_k + H_k, which certifies
tr H_k <= tr S <= tr H_k / (1 - ||A_k||_F^2), and a caller's ``settle``
marks the members it no longer needs from these intervals (see
_doubling_dare).  Newton runs, their Stein solves included, drop nothing.
_solve_detectable alone chooses the metric: with ``posteriori`` it
returns the measurement-update covariances, and its doubling hands settle
the interval of tr post(S), post(X) = (I + X G)^-1 X with the member's
first G: H_k <= S <= H_k + (hi - lo) I in the Loewner order, and post is
monotone in it (Anderson & Moore, 1979).
PBH takes one kernel basis of A - lam I per unstable mode and request.
The update of a nonsingular member solves with the G = C' V^-1 C its
doubling used (_g_update); a singular one takes the Joseph form.  The
Newton gain and the Joseph form share _gain, which shares _pinv_psd with
pseudo_inverse_psd.
solve_dare, and every public solver call in the solvers module, tests
stabilizability once and uncached (check_stabilizable).

Three module constants hold the tolerances: TOL (the stopping rule),
PINV_RTOL (the pseudo-inverse cutoff, which also decides whether V is
singular) and PBH_TOL (the detectability test).  Every function reads them
from the module when it runs; no function takes a tolerance argument.
"""

from __future__ import annotations

import numpy as np

from .model import SteadyStateResult, restrict  # restrict: unused here, perfbench's tracer patches it

class ShapeError(ValueError):
    pass


class NoConvergence(RuntimeError):
    """A doubling run or the Newton iteration reached MAX_STEPS above
    tolerance, a doubling iterate became non-finite, a solution's trace
    overflowed, or a solution fell below W on the diagonal."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class StabilizabilityViolation(ValueError):
    pass


# Noise added to a singular V for the Newton start.  In exact arithmetic any
# value above zero gives a stabilizing first gain, and a smaller one starts
# closer to the noiseless solution.  On the 990 detectable nonempty subsets
# of the example families (lambda 0.6-0.99, h 1e-4-1e4) the most Newton
# steps any member takes are 6 at 1, 4 at 1e-2 and 3 at 1e-3 and 1e-4, and
# the grid's Newton steps fall from 2949 to 2627 at 1e-3.  Smaller values
# cost the start's doubling accuracy: on 3200 random noiseless stacks (Stein
# equations by doubling) 14 failed to converge at 1, 11 at 1e-3 and 15 at
# 1e-4, and from 1e-5 on family subsets fail too (15 of them at 1e-8).
NEWTON_START_DELTA = 1e-3

# A Newton step of a member with at most STEIN_DIRECT_MAX_N states and a
# closed loop of ||F||_F = phi <= STEIN_DIRECT_MAX_FRO solves its Stein
# equation as one n^2 x n^2 linear system (_stein).  phi < 1 bounds
# rho(F) <= phi and cond_2(I - F (x) F) <= (1 + phi^2) / (1 - phi^2), 1e4
# here.  On an ill-conditioned system the doubling, a sum of PSD terms, is
# the more accurate (8.7e-12 vs 2.5e-10 off a 40-digit reference at
# condition 3.5e7); under the bound the two agreed to 1.1e-13 relative on
# 24000 random members of 1-3 states.  Direct vs doubling per stack of 40
# (2 CPUs, numpy 2.4, OpenBLAS): 3 states 81-159 vs 271-347 us, 4 states
# 204-329 vs 309-471 us, 5 states 472-839 vs 251-486 us.  The noiseless
# models of every benchmark workload have 3 states.
STEIN_DIRECT_MAX_N = 3
STEIN_DIRECT_MAX_FRO = 0.9999

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


def _noise_gain(C: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which members of the stacks C (k x p x n) and V (k x p x p) have a
    nonsingular V, and G = C' V^-1 C of each of those, in stack order.

    V is PSD, so a diagonal entry at or below the pseudo-inverse cutoff
    already makes a member singular without a factorization; otherwise a
    failed Cholesky factorization or a pivot squared at or below the cutoff
    does.  A batched factorization fails as a whole when one member is not
    positive definite; the members are then factored one by one.
    """
    (k, p), n = V.shape[:2], C.shape[2]
    if p == 0:
        return np.ones(k, dtype=bool), np.zeros((k, n, n))
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
    F = np.linalg.solve(L[pivots_ok], C[ok])
    return ok, F.transpose(0, 2, 1) @ F


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises NoConvergence instead
def _doubling_dare(A, G, W, settle=None, posteriori=False):
    """Structure-preserving doubling for S = A S (I + G S)^-1 A' + W, for
    every member G of the stack G (k x n x n), G = C' V^-1 C.  A and W are
    n x n or stacks broadcast against G.  G = None stands for G = 0 with A a
    stack (k x n x n), the Stein equation S = A S A' + W: its doublings skip
    the solve and the G update, and give the bits of the G = 0 run.

    With A_0 = A', G_0 = G and H_0 = W, each doubling maps
    A <- A (I+GH)^-1 A, G <- G + A (I+GH)^-1 G A', H <- H + A' H (I+GH)^-1 A;
    H_k is the fixed-point iterate 2^k steps from zero, so H converges
    quadratically to the a priori covariance.  G and H stay PSD, so I + GH
    is nonsingular.  A member stops once its step ||H+ - H||_F is at most
    TOL * max(1, ||H+||_F) and is frozen from then on.  Returns the stack of
    covariances and each member's doubling count; raises NoConvergence when
    a member reaches MAX_STEPS doublings or any step turns non-finite.

    Every doubling keeps the invariant S = A_k' S (I + G_k S)^-1 A_k + H_k,
    whose first term is PSD and has trace at most ||A_k||_F^2 tr S, so
    lo = tr H_k <= tr S <= hi = tr H_k / (1 - ||A_k||_F^2), hi = inf while
    ||A_k||_F >= 1 and hi = lo for a member that has just stopped.  Given a
    callable ``settle``, after each doubling settle(lo, hi) gets both bounds
    of every live member and returns a mask of the members to drop: a
    dropped member that has not stopped gets a NaN covariance and is never
    solved further, so it raises nothing.  settle=None makes no extra call.

    With ``posteriori`` true, settle gets the interval of the a posteriori
    trace instead: S - H_k is PSD with trace at most hi - lo, so
    H_k <= S <= H_k + (hi - lo) I, and post(X) = (I + X G)^-1 X, G the
    member's first G, is monotone in the Loewner order, so tr post(H_k) <=
    tr post(S) <= min(hi, tr post(H_k + (hi - lo) I)), the upper end solved
    only where hi is finite.  Both ends widen by n eps hi ||G||_F for the
    update's round-off (6e-9 relative on the K = 300 kfss gadget, 1/500 of
    the widening at most on random and gadget stacks), except on stopping.
    """
    k, n = (A if G is None else G).shape[0], A.shape[-1]
    first = G if posteriori else None  # the loop rebinds G; the update takes the member's first
    out = np.empty((k, n, n))
    doublings = np.zeros(k, dtype=int)
    live = np.arange(k)
    Ak = np.broadcast_to(A.swapaxes(-1, -2), (k, n, n)).copy()
    H = np.broadcast_to(W, (k, n, n)).copy()
    eye = np.eye(n)
    step = np.full(k, np.inf)
    for it in range(1, MAX_STEPS + 1):
        AkT = Ak.transpose(0, 2, 1)
        XA = Ak  # the Stein case: (I + 0 H)^-1 A is A
        if G is not None:
            try:
                X = np.linalg.solve(eye + G @ H, np.concatenate((Ak, G), axis=2))
            except np.linalg.LinAlgError:
                raise NoConvergence("doubling iterate became non-finite", float(step[0]), it) from None
            XA = X[:, :, :n]
            G = _sym(G + Ak @ X[:, :, n:] @ AkT)
        H2 = _sym(H + AkT @ H @ XA)
        Ak = Ak @ XA
        step = _fro(H2 - H)
        H = H2
        bad = ~np.isfinite(step)
        if bad.any():
            raise NoConvergence("doubling iterate became non-finite", float(step[bad][0]), it)
        done = step <= TOL * np.maximum(1.0, _fro(H))
        if settle is not None:
            lo = np.trace(H, axis1=1, axis2=2)
            shrink = 1.0 - _fro(Ak) ** 2
            hi = np.maximum(lo, np.divide(lo, shrink, out=np.full(lo.shape, np.inf), where=shrink > 0.0))
            if posteriori:  # tr post(H) and tr post(H + (hi - lo) I), in one solve
                up = np.flatnonzero(np.isfinite(hi) & ~done)
                X = np.concatenate((H, H[up] + (hi - lo)[up, None, None] * eye))
                post = np.trace(_g_update(X, np.concatenate((first, first[up]))), axis1=1, axis2=2)
                slack = np.where(done, 0.0, n * np.finfo(float).eps * hi * _fro(first))  # NaN: G = 0, hi = inf
                hi[up] = np.minimum(hi[up], post[live.size:]) * (1.0 + slack[up])
                lo = post[:live.size] * np.fmax(0.0, 1.0 - slack)
            hi[done] = lo[done]
            drop = settle(lo, hi) & ~done
            H[drop] = np.nan
            done |= drop
        if done.any():
            out[live[done]] = H[done]
            doublings[live[done]] = it
            keep = ~done
            live, Ak, H, step = live[keep], Ak[keep], H[keep], step[keep]
            G = None if G is None else G[keep]
            first = first[keep] if posteriori else None
            if not live.size:
                return out, doublings
    raise NoConvergence("iteration cap reached above tolerance", float(step[0]), MAX_STEPS)


def _g_update(X: np.ndarray, G: np.ndarray) -> np.ndarray:
    """(I + X G)^-1 X, the unsymmetrized G-form update, member by member."""
    return np.linalg.solve(np.eye(X.shape[-1]) + X @ G, X)


def _sym(X: np.ndarray) -> np.ndarray:
    """Symmetric part of every member of the stack X (k x n x n), halved
    first so that entries near the float maximum do not overflow."""
    half = 0.5 * X
    return half + half.transpose(0, 2, 1)


def _fro(X: np.ndarray) -> np.ndarray:
    """np.linalg.norm(X, axis=(1, 2)) of a real stack X, without the
    dispatch.  Only a member whose sum of squares overflows is summed again,
    scaled by 2^-600 (exactly); callers hold np.errstate(over="ignore")."""
    norm = np.sqrt(np.add.reduce(X * X, axis=(1, 2)))
    if np.fmax.reduce(norm, initial=0.0) == np.inf:
        big = np.isinf(norm)
        Y = X[big] * 2.0**-600
        norm[big] = np.sqrt(np.add.reduce(Y * Y, axis=(1, 2))) * 2.0**600
    return norm


def _pinv_psd(M: np.ndarray) -> np.ndarray:
    """pseudo_inverse_psd of every member of the stack M (k x p x p), read
    from its lower triangle.  Neither M nor the result is symmetrized here;
    callers that want symmetry symmetrize around the call."""
    w, U = np.linalg.eigh(M)
    inv = 1.0 / np.where(w > PINV_RTOL, w, np.inf)  # cut-off ones give 0
    return (U * inv[:, None, :]) @ U.transpose(0, 2, 1)


def _stein(F, Q) -> np.ndarray:
    """S = F S F' + Q for every member of the stacks F and Q (k x n x n).
    The members that STEIN_DIRECT_MAX_N and STEIN_DIRECT_MAX_FRO admit take
    one batched solve of (I - F (x) F) vec S = vec Q; every other one, a
    non-finite one included, takes _doubling_dare(F, None, Q) and raises as
    it does.  Each member picks its own path, so it keeps its lone bits."""
    k, n = F.shape[:2]
    if n > STEIN_DIRECT_MAX_N:
        return _doubling_dare(F, None, Q)[0]
    direct = _fro(F) <= STEIN_DIRECT_MAX_FRO
    S = np.empty((k, n, n))
    f = F[direct]
    kron = (f[:, :, None, :, None] * f[:, None, :, None, :]).reshape(-1, n * n, n * n)
    S[direct] = _sym(np.linalg.solve(np.eye(n * n) - kron, Q[direct].reshape(-1, n * n, 1)).reshape(-1, n, n))
    if not direct.all():
        S[~direct], _ = _doubling_dare(F[~direct], None, Q[~direct])
    return S


def _gain(A, S, C, V) -> np.ndarray:
    """Filter gain A S C' (C S C' + V)^+ of every member of the stacks
    S (k x n x n), C (k x p x n) and V (k x p x p); A = I gives the
    measurement-update gain of the Joseph form."""
    CS = C @ S
    return A @ CS.transpose(0, 2, 1) @ _pinv_psd(CS @ C.transpose(0, 2, 1) + V)


@np.errstate(over="ignore", invalid="ignore")  # a diverging step raises NoConvergence instead
def _newton_dare(A, C, W, V) -> tuple[np.ndarray, np.ndarray]:
    """Newton-Hewer iteration for every member of the stacks C (k x p x n)
    and V (k x p x p), V singular.

    Step 1 takes the gain of the doubling solution S_0 for
    V + NEWTON_START_DELTA I, which stabilizes A - K C.  Step j solves
    S_j = F S_j F' + W + K V K', F = A - K C, by _stein and takes the gain
    K = A S_j C' (C S_j C' + V)^+ for step j + 1.  Step 1 is measured from
    S_0, not from a Newton iterate, so it is never tested.
    From step 2 on a member stops once its step ||S_j - S_j-1||_F is at most
    TOL * max(1, ||S_j||_F), or once a step neither shrinks nor lowers
    the trace (the iterates decrease, so that step is round-off), and is
    frozen.  Returns the stack of covariances and each member's step count;
    raises NoConvergence when a member reaches MAX_STEPS steps, or as
    _doubling_dare does.
    """
    k, p, n = C.shape
    start = V + NEWTON_START_DELTA * np.eye(p)
    S, _ = _doubling_dare(A, _noise_gain(C, start)[1], W)  # start is positive definite
    K = _gain(A, S, C, start)
    out = np.empty((k, n, n))
    steps = np.zeros(k, dtype=int)
    live = np.arange(k)
    for it in range(1, MAX_STEPS + 1):
        Q = _sym(W + K @ V @ K.transpose(0, 2, 1))
        S2 = _stein(A - K @ C, Q)
        step = _fro(S2 - S)
        trace2 = np.trace(S2, axis1=1, axis2=2)
        S = S2
        if it > 1:
            done = step <= TOL * np.maximum(1.0, _fro(S))
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


def _posteriori(S, C, V, noise) -> np.ndarray:
    """posteriori_from_priori for every member of the stacks S (k x n x n),
    C (k x p x n) and V (k x p x p), given noise = _noise_gain(C, V)."""
    if C.shape[1] == 0:
        return S.copy()
    nonsingular, G = noise
    out = np.empty_like(S)
    if nonsingular.any():
        out[nonsingular] = _sym(_g_update(S[nonsingular], G))
    singular = ~nonsingular
    if singular.any():
        S, C, V = S[singular], C[singular], V[singular]
        eye = np.eye(S.shape[-1])
        K = _gain(eye, S, C, V)
        F = eye - K @ C
        out[singular] = _sym(F @ S @ F.transpose(0, 2, 1) + K @ V @ K.transpose(0, 2, 1))
    return out


def pseudo_inverse_psd(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues at or below the absolute cutoff PINV_RTOL are treated as
    zero.  It keeps informative but small eigenvalues of badly scaled
    matrices (entries of order h^2 with h large, eigenvalues of order
    1/h^2) invertible while still zeroing genuine rank deficiency.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"expected a square matrix, got {M.shape}")
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    return _sym(_pinv_psd(_sym(M[None])))[0]


def posteriori_from_priori(Sigma, C_sel, V_sel) -> np.ndarray:
    """Measurement-update covariance S - S C' M^+ C S, M = C S C' + V,
    symmetrized.  A V nonsingular by solve_dare's test gives the equal
    (I + S G)^-1 S, G = C' V^-1 C, an n x n solve; a singular V gives the
    Joseph form (I - K C) S (I - K C)' + K V K', K = S C' M^+, on which the
    family closed forms rely.  Neither form subtracts a term close to S."""
    Sigma, C, V = (np.asarray(M, dtype=float) for M in (Sigma, C_sel, V_sel))
    if C.ndim != 2 or Sigma.shape != (C.shape[1],) * 2 or V.shape != (C.shape[0],) * 2:
        raise ShapeError(f"need C p x n, an n x n covariance and V p x p, got {C.shape}, {Sigma.shape}, {V.shape}")
    C, V = C[None], V[None]
    return _posteriori(Sigma[None], C, V, _noise_gain(C, V))[0]


def _mode_images(A: np.ndarray, C: np.ndarray) -> list:
    """C N / ||A||_2 for every eigenvalue lam of A with modulus >= 1 - PBH_TOL
    (C is q x n).  N, computed once for any number of subsets, is a basis of
    the numerical kernel of A - lam I: its right singular vectors whose
    singular value is at most PBH_TOL ||A||_2."""
    images = []
    for lam in np.linalg.eigvals(A):
        if abs(lam) >= 1.0 - PBH_TOL:
            scale = np.linalg.norm(A, 2)
            _, sv, Vh = np.linalg.svd(A - lam * np.eye(A.shape[0]))
            images.append(C @ Vh[sv <= PBH_TOL * scale].conj().T / scale)
    return images


def _detectable(images: list, idx: np.ndarray) -> np.ndarray:
    """is_detectable for the members idx (k x p rows of C), images =
    _mode_images(A, C).  [A - lam I; C_S] x = 0 iff x is in ker(A - lam I)
    and in ker C_S, so S sees lam iff C_S N has full column rank: every
    singular value above PBH_TOL.  A simple mode sums the q-vector |C v|^2.
    A negative index pads a member: it reads the zero last row of every
    image and does not count as a sensor."""
    ok = np.ones(len(idx), dtype=bool)
    for image in images:
        r = image.shape[1]
        if r == 1:
            ok &= np.sqrt((np.abs(image[:, 0]) ** 2)[idx].sum(axis=1)) > PBH_TOL
        elif r:  # fewer sensors than kernel directions never have full rank
            ok &= (idx >= 0).sum(axis=1) >= r
            if r <= idx.shape[1]:
                ok &= np.linalg.svd(image[idx], compute_uv=False)[:, -1] > PBH_TOL
    return ok


def is_detectable(A, C_sel) -> bool:
    """PBH test: [A - lam I; C] has full column rank for every eigenvalue
    lam of A with modulus >= 1 - PBH_TOL, PBH_TOL being the relative rank
    tolerance on the scale ||A||_2 (see _mode_images and _detectable).  A
    spectral radius below 1 - PBH_TOL short-circuits to True.
    """
    A = np.asarray(A, dtype=float)
    C_sel = np.asarray(C_sel, dtype=float)
    return bool(_detectable(_mode_images(A, C_sel), np.arange(C_sel.shape[0])[None])[0])


def _sqrt_psd(W: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(0.5 * W + 0.5 * W.T)  # no overflow near the float maximum
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def is_stabilizable_noise(A, W) -> bool:
    """Dual PBH test that (A, W^{1/2}) is stabilizable."""
    return is_detectable(np.asarray(A, dtype=float).T, _sqrt_psd(np.asarray(W, dtype=float)))


def check_stabilizable(A, W) -> None:
    """Raise StabilizabilityViolation unless (A, W^{1/2}) is stabilizable.

    The verdict depends on A, W and PBH_TOL only, not on the sensors, so
    each public solver call tests it once, uncached.
    """
    if not is_stabilizable_noise(A, W):
        raise StabilizabilityViolation("(A, W^(1/2)) is not stabilizable")


def _solve_detectable(A, W, C, V, posteriori=False, settle=None) -> tuple[np.ndarray, np.ndarray]:
    """Covariances and iteration counts for the stacks C (k x p x n) and
    V (k x p x p), every member detectable: the a priori covariances, or
    with ``posteriori`` their measurement updates (_posteriori).

    Nonsingular members share one doubling run, which gets ``settle`` and
    ``posteriori`` (see _doubling_dare; a member it drops has a NaN
    covariance), and singular ones one Newton run, which drops nothing.
    The checks read the a priori covariances: raises NoConvergence as
    _doubling_dare and _newton_dare do; when a member's trace overflows,
    since a score could not tell it from an undetectable member's infinity;
    and when a member's variance falls below W's by more than
    sqrt(TOL) * max(1, ||S||_F): every a priori covariance is
    A S* A' + W >= W, so such a member went astray, as on a pair (A, C)
    that is undetectable within round-off but passed the PBH test, where
    the shortfall is of the order of ||S||.  The bound is not TOL: with a
    large gain K against a singular V, the round-off of K V K' alone puts
    correct solutions up to 3e-9 relative below W (random noiseless
    models, n <= 4).
    """
    S = np.empty((C.shape[0],) + A.shape)
    iters = np.zeros(C.shape[0], dtype=int)
    nonsingular, G = noise = _noise_gain(C, V)
    if nonsingular.any():
        S[nonsingular], iters[nonsingular] = _doubling_dare(A, G, W, settle, posteriori)
    if not nonsingular.all():
        S[~nonsingular], iters[~nonsingular] = _newton_dare(A, C[~nonsingular], W, V[~nonsingular])
    shortfall = (W.diagonal() - S.diagonal(axis1=1, axis2=2)).max(axis=1)  # NaN, never below, if dropped
    with np.errstate(over="ignore"):  # see _fro
        below = np.flatnonzero(shortfall > np.sqrt(TOL) * np.maximum(1.0, _fro(S)))
        huge = np.flatnonzero(np.isinf(np.trace(S, axis1=1, axis2=2)))  # a dropped member's is NaN
    if below.size:
        j = below[0]
        raise NoConvergence("a priori variance below W's", float(shortfall[j]), int(iters[j]))
    if huge.size:
        j = huge[0]
        raise NoConvergence("a priori trace overflows the float range", np.inf, int(iters[j]))
    return (_posteriori(S, C, V, noise) if posteriori else S), iters


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
    MAX_STEPS above tolerance, a doubling iterate turns non-finite, or the
    solution's trace overflows or its variance falls below W's (see
    _solve_detectable).
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
    S, iters = _solve_detectable(A, W, C[None], V[None])
    return SteadyStateResult.finite(S[0], int(iters[0]))


def warmup() -> None:
    """Run one tiny singular-V solve, which runs the doubling, the Newton
    loop and its direct Stein solve, so that the first timed solve does not
    pay numpy's one-time set-up costs."""
    one = np.ones((1, 1, 1))
    _solve_detectable(np.array([[0.5]]), np.eye(1), one, 0.0 * one)
