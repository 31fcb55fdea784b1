"""Steady-state error covariance of the filter Riccati equation, plus the
PBH detectability test and a symmetric-PSD pseudo-inverse.

The a priori covariance is the stabilizing solution of

    S = A S A' + W - A S C' (C S C' + V)^+ C S A'.

Each member's noise is described once, before any kernel runs (_noise):
R0, its noiseless rows, and G, the gain C1' V1^-1 C1 of its noisy ones.
A V that _noise_gain finds nonsingular has R0 = 0 and G = C' V^-1 C from
its Cholesky factor.  Otherwise rows scaled to unit norm split V into
noisy rows and noiseless ones (_split), a decision that does not depend
on the scale of a measurement (a row of C and V's row and column alike);
a V that _split refuses (not finite, or not PSD within its cutoff)
raises NoConvergence.  One doubling loop then computes S, in one of three
ways chosen from (R0, G):

* No noiseless rows: S = A S (I + G S)^-1 A' + W, solved by the
  structure-preserving doubling algorithm (Chu, Fan & Lin; Anderson &
  Moore, Optimal Filtering, 1979), which converges quadratically.
* Noiseless rows with W nonsingular: the perfect-measurement reduction
  (Bryson & Johansen, 1965; Anderson & Moore, 1979).  The noiseless rows'
  next value measures C0 A x with noise C0 w, and decorrelating it from
  the process noise leaves an ordinary problem with nonsingular noise,
  which the same doubling solves (_reduced_dare).
* Noiseless rows with W singular: Newton's method on the equation
  (Kleinman 1968; Hewer 1971).  Each step fixes the gain
  K = A S C' (C S C' + V)^+ (_gain) and solves the closed-loop Stein
  equation S = F S F' + W + K V K', F = A - K C, as the G = 0 doubling
  (Smith's).  It starts from the doubling solution for V + delta I, whose
  gain is stabilizing, and converges quadratically.

The private helpers work on stacks: arrays of k same-shape members, one
per sensor subset (C is k x p x n, V is k x p x p), and every batched
numpy call works member by member.  The public functions are the stack of
one, so a stack of one width keeps the bits of its members solved alone.
Subsets of several sizes share a stack when the smaller ones are padded,
as the solvers module pads a chunk, with zero rows of C (no index marks
them) whose noise block is the identity, zero against every sensor.  A
zero row adds exactly 0 to C' V^-1 C, K C, K V K' and every PBH image, so
a padded member agrees with its lone solve up to the order of sums over p;
the reduction's decompositions leave such rows out, and a padded member
keeps its lone bits there.
Each member of a doubling or Newton run stops at its own stopping rule.
The plain doubling run may also drop members early: every doubling
keeps the invariant S = A_k' S (I + G_k S)^-1 A_k + H_k, which certifies
tr H_k <= tr S <= tr H_k / (1 - ||A_k||_F^2), and a caller's ``settle``
marks the members it no longer needs from these intervals (see
_doubling_dare).  Reduced and Newton runs drop nothing.
_solve_detectable alone chooses the metric: with ``posteriori`` it
returns the measurement-update covariances, and its doubling hands settle
the interval of tr post(S), post(X) = (I + X G)^-1 X with the member's
first G: H_k <= S <= H_k + (hi - lo) I in the Loewner order, and post is
monotone in it (Anderson & Moore, 1979).
PBH takes one kernel basis of A - lam I per unstable mode and request.
Every measurement update takes one formula (_posteriori): S updated
exactly by the noiseless rows R0, where a member has any, then by the
G-form (I + S G)^-1 S (_g_update).  Newton's gain shares _pinv_psd with
pseudo_inverse_psd.
solve_dare, and every public solver call in the solvers module, tests
stabilizability once and uncached (check_stabilizable).

Three module constants hold the tolerances: TOL (the stopping rule),
PINV_RTOL (the pseudo-inverse cutoff, and the cutoff of every rank
decision: whether V or W is singular, and which rows are noiseless) and
PBH_TOL (the detectability test).  Every function reads them from the
module when it runs; no function takes a tolerance argument.
"""

from __future__ import annotations

import numpy as np

from .model import SteadyStateResult, restrict  # restrict: unused here, perfbench's tracer patches it

class ShapeError(ValueError):
    pass


class NoConvergence(RuntimeError):
    """A V was not finite or not PSD, a doubling run (plain, reduced or
    Stein) or the Newton iteration reached MAX_STEPS above tolerance, a
    doubling iterate became non-finite, a Newton start was singular (a V
    too large for the delta to count), or a solution's trace overflowed or
    its diagonal fell below W's."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(f"{message} (residual {residual:.3e} after {iterations} iterations)")
        self.residual = residual
        self.iterations = iterations


class StabilizabilityViolation(ValueError):
    pass


# Noise added to a singular V for the Newton start, which only members with
# noiseless rows and a singular W reach.  In exact arithmetic any value
# above zero gives a stabilizing first gain, and a smaller one starts
# closer to the noiseless solution, but a much smaller one costs the
# start's doubling accuracy: of 600 random noiseless models with W singular
# (2 <= n <= 4, q <= 4, A's eigenvalues in (-1.2, 1.2), sensor gains 1e-3,
# 1 or 1e3, rank V < q), 11 raise NoConvergence at 1, 9 at 1e-2, 4 at
# 1e-3, 7 at 1e-4 and 14 at 1e-5, in 2094, 1824, 1733, 1665 and 1558
# Newton steps.
NEWTON_START_DELTA = 1e-3

# Cap on the doublings of each doubling run and on Newton steps.  Both
# converge quadratically, and 100 doublings are 2^100 fixed-point steps.
MAX_STEPS = 100

# Stopping threshold on the Frobenius norm of a doubling or Newton step,
# relative to max(1, ||S||_F).
TOL = 1e-11

# Eigenvalue cutoff of the PSD pseudo-inverse.  A V with a diagonal entry
# or a Cholesky pivot squared at or below PINV_RTOL * max(1, V_ii) counts as
# singular, and a W with an eigenvalue at or below PINV_RTOL * max(1,
# largest).  The reduction counts a measurement noiseless when its noise
# per squared gain is at most PINV_RTOL (_split), and keeps the noiseless
# directions whose singular values are above PINV_RTOL times the largest.
PINV_RTOL = 1e-12

# Rank tolerance of the PBH detectability test.
PBH_TOL = 1e-9


def _noise_gain(C: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which members of the stacks C (k x p x n) and V (k x p x p) have a
    nonsingular V, and G = C' V^-1 C of each of those, in stack order.

    A member is singular when a diagonal entry V_ii, or the squared
    Cholesky pivot of row i, is at or below PINV_RTOL * max(1, V_ii): the
    cutoff is absolute for entries up to 1 and relative to larger ones, so
    a rank-one s [[1, 1], [1, 1]] is singular at any scale s.  V is PSD, so
    the diagonal test decides some members without a factorization.  A
    batched factorization fails as a whole when one member is not positive
    definite; the members are then factored one by one.
    """
    p = V.shape[1]
    cut = PINV_RTOL * np.maximum(1.0, V.diagonal(axis1=1, axis2=2))
    ok = (V.diagonal(axis1=1, axis2=2) > cut).all(axis=1)
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
    pivots_ok = (L.diagonal(axis1=1, axis2=2) ** 2 > cut[tried]).all(axis=1)
    ok[tried] = pivots_ok
    F = np.linalg.solve(L[pivots_ok], C[ok])
    return ok, F.transpose(0, 2, 1) @ F


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises NoConvergence instead
def _doubling_dare(A, G, W, settle=None, posteriori=False):
    """Structure-preserving doubling for S = A S (I + G S)^-1 A' + W, for
    every member G of the stack G (k x n x n), G = C' V^-1 C, or G = 0 for
    the Stein equation S = A S A' + W.  A and W are n x n or stacks
    broadcast against G.

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
    k, n = G.shape[0], A.shape[-1]
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
            live, Ak, G, H, step = live[keep], Ak[keep], G[keep], H[keep], step[keep]
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


def _gain(A, S, C, V) -> np.ndarray:
    """Filter gain A S C' (C S C' + V)^+ of every member of the stacks
    S (k x n x n), C (k x p x n) and V (k x p x p): Newton's gain."""
    CS = C @ S
    return A @ CS.transpose(0, 2, 1) @ _pinv_psd(CS @ C.transpose(0, 2, 1) + V)


@np.errstate(over="ignore", invalid="ignore")  # a diverging step raises NoConvergence instead
def _newton_dare(A, C, W, V) -> tuple[np.ndarray, np.ndarray]:
    """Newton-Hewer iteration for every member of the stacks C (k x p x n)
    and V (k x p x p), V singular.

    Step 1 takes the gain of the doubling solution S_0 for
    V + NEWTON_START_DELTA I, which stabilizes A - K C.  Step j solves
    S_j = F S_j F' + W + K V K', F = A - K C, as the G = 0 doubling run
    (Smith's iteration, which raises as the doubling does) and takes the gain
    K = A S_j C' (C S_j C' + V)^+ for step j + 1.  Step 1 is measured from
    S_0, not from a Newton iterate, so it is never tested.
    From step 2 on a member stops once its step ||S_j - S_j-1||_F is at most
    TOL * max(1, ||S_j||_F), or once a step neither shrinks nor lowers
    the trace (the iterates decrease, so that step is round-off), and is
    frozen.  Returns the stack of covariances and each member's step count;
    raises NoConvergence on a singular start (V too large for the delta to
    lift), before any doubling, when a member reaches MAX_STEPS steps, or
    as _doubling_dare does.
    """
    k, p, n = C.shape
    start = V + NEWTON_START_DELTA * np.eye(p)
    factored, G = _noise_gain(C, start)
    if not factored.all():
        raise NoConvergence(f"Newton start V + {NEWTON_START_DELTA:g} I is not positive definite", np.nan, 0)
    S, _ = _doubling_dare(A, G, W)
    K = _gain(A, S, C, start)
    out = np.empty((k, n, n))
    steps = np.zeros(k, dtype=int)
    live = np.arange(k)
    for it in range(1, MAX_STEPS + 1):
        Q = _sym(W + K @ V @ K.transpose(0, 2, 1))
        S2, _ = _doubling_dare(A - K @ C, np.zeros_like(S), Q)
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


@np.errstate(over="ignore", invalid="ignore")  # a member with a non-finite scaled row is not ok
def _split(C, V):
    """The reduction's rank decision on V for the stacks C (k x p x n) and
    V (k x p x p), once per member: (ok, R0, G1), ok marking the members
    whose scaled C and V are finite with V PSD within the cutoff, R0
    (k x p x n) their noiseless rows (zeros elsewhere) and
    G1 = C1' V1^-1 C1 the gain of their noisy ones.

    Each row of C is scaled by 1/||C_i|| (a zero row, such as a pad, by 1)
    and V alike, so a diagonal entry is its row's noise per squared gain.
    A member whose scaled V is not diagonal is rotated into its
    eigenvectors, computed without its null rows (zero in C, uncorrelated
    in V, as pads are), so a padded member keeps its lone bits.  A row is
    noiseless when its noise is at most PINV_RTOL or, rotated, within the
    eigenvalues' round-off, 8 r eps times the largest of its r rows (zero
    eigenvalues of graded random V came out within 2.4 eps of it, r <= 6).
    """
    k, p, n = C.shape
    norm = np.sqrt((C * C).sum(axis=2))
    d = np.where(norm > 0.0, norm, 1.0)
    R = C / d[:, :, None]
    v = V / d[:, :, None] / d[:, None, :]
    ok = np.isfinite(norm).all(axis=1) & np.isfinite(v).all(axis=(1, 2))
    w = v.diagonal(axis1=1, axis2=2).copy()
    cut = np.full(w.shape, PINV_RTOL)
    off = ~np.eye(p, dtype=bool)
    full = ok & ((v != 0.0) & off).any(axis=(1, 2))
    if full.any():
        null = ~C.any(axis=2) & ~((V != 0.0) & off).any(axis=2)
        for g, keep in _groups(~null & full[:, None]):
            g2 = g[:, None]
            w[g2, keep], U = np.linalg.eigh(v[g2[:, :, None], keep[:, :, None], keep[:, None, :]])
            R[g2, keep] = U.transpose(0, 2, 1) @ R[g2, keep]
            cut[g2, keep] = np.maximum(PINV_RTOL, 8 * keep.shape[1] * np.finfo(float).eps * w[g2, keep][:, -1:])
    ok &= (w >= -cut).all(axis=1)
    noisy = w > cut
    R1 = R * np.sqrt(np.divide(1.0, w, out=np.zeros(w.shape), where=noisy))[:, :, None]
    return ok, np.where(ok[:, None, None] & ~noisy[:, :, None], R, 0.0), R1.transpose(0, 2, 1) @ R1


def _groups(rows):
    """Yield (g, keep) for each group g of the members with the same count
    r >= 1 of True entries in their row of the mask rows (k x p); keep
    (len(g) x r) holds those entries' indices, in order."""
    count = rows.sum(axis=1)
    order = np.argsort(~rows, axis=1, kind="stable")
    for r in np.unique(count[count > 0]):
        g = np.flatnonzero(count == r)
        yield g, order[g, :r]


def _basis(B) -> np.ndarray:
    """Q (k x n x n): per member of B (k x p x n), an orthonormal basis of
    its rows (the right singular vectors above PINV_RTOL times the largest
    singular value), then zero rows.  The SVD sees the nonzero rows only,
    in order, padded to n x n, so zero rows such as pads leave the bits
    alone; members with more than n nonzero rows go by count."""
    k, p, n = B.shape
    if p < n:
        B = np.concatenate((B, np.zeros((k, n - p, n))), axis=1)
    rows = B.any(axis=2)
    order = np.argsort(~rows, axis=1, kind="stable")
    _, sv, Q = np.linalg.svd(B[np.arange(k)[:, None], order[:, :n]])
    wide = rows.sum(axis=1) > n
    if wide.any():
        for g, keep in _groups(rows & wide[:, None]):
            _, sv[g], Q[g] = np.linalg.svd(B[g[:, None], keep], full_matrices=False)
    return Q * (sv > PINV_RTOL * sv[:, :1])[:, :, None]


def _noise(C, V):
    """(R0, G), the noise description of every member of the stacks
    C (k x p x n) and V (k x p x p): R0 (k x p x n) its noiseless rows and
    G (k x n x n) the gain C1' V1^-1 C1 of its noisy ones.  A member whose
    V _noise_gain finds nonsingular has R0 = 0 and its G; any other takes
    _split's R0 and G1.  Raises NoConvergence when _split refuses a
    member's V (not finite, or not PSD within its cutoff)."""
    nonsingular, G = _noise_gain(C, V)
    R0 = np.zeros(C.shape)
    if nonsingular.all():
        return R0, G
    singular = ~nonsingular
    ok, R0[singular], G1 = _split(C[singular], V[singular])
    if not ok.all():
        raise NoConvergence("noise V is not finite or not positive semidefinite", np.nan, 0)
    full = np.empty((C.shape[0],) + G1.shape[1:])
    full[nonsingular], full[singular] = G, G1
    return R0, full


def _root(X):
    """(w, L) for a PSD X (n x n or a stack): X = L L' with eigenvalues w."""
    w, U = np.linalg.eigh(X)
    return w, U * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def _measured(R0, L):
    """(Q, Z) for noiseless rows R0 (k x p x n) and the root L of a PSD X
    (_root): Q = _basis(R0 L) and Z = L (I - Q'Q).  Z Z' =
    X - X R0' (R0 X R0')^+ R0 X is X updated exactly by the rows; for
    X > 0, C0 = Q L^-1 spans them, C0 X C0' = I."""
    Q = _basis(R0 @ L)
    return Q, L - L @ Q.transpose(0, 2, 1) @ Q


def _reduced_dare(A, W, L, R0, G1):
    """A priori covariances and doubling counts of the members with
    noiseless rows R0 and noisy gain G1 (_noise) by the perfect-measurement
    reduction, in one doubling run; W = L L' (_root) must be nonsingular.

    With _measured's C0 = Q L^-1 for X = W, J = W C0' (C0 W C0')^-1 C0 =
    L Q'Q L^-1: the noiseless rows' next value measures C0 A x with noise
    C0 w, and decorrelated from the process noise that leaves
    Ab = (I - J) A = Z L^-1 A, Wb = (I - J) W = Z Z' and G = G1 + A' C0' C0 A.
    The run's Sigma is the covariance given the noisy rows up to k - 1 and
    the noiseless ones up to k, so P = (I + Sigma G1)^-1 Sigma is the a
    posteriori covariance and S = A P A' + W the a priori one.

    W > 0 makes (Ab, Wb^1/2) stabilizable: a left eigenvector x' of Ab with
    x' Wb = 0 has x' = x' J, so x' Ab = 0.  With W singular it need not
    be, and the doubling would return a solution that does not stabilize.
    """
    Q, Z = _measured(R0, L)
    B = np.linalg.solve(L, A)
    QB = Q @ B
    P, doublings = _doubling_dare(Z @ B, _sym(G1 + QB.transpose(0, 2, 1) @ QB), _sym(Z @ Z.transpose(0, 2, 1)))
    _update(P, G1)
    return _sym(A @ P @ A.T + W), doublings


def _update(X, G) -> None:
    """X <- (I + X G)^-1 X, symmetrized, in place, for every member of the
    stacks X and G whose G is not zero; on the others the update gives
    X's bits back."""
    noisy = G.any(axis=(1, 2))
    if noisy.any():
        X[noisy] = _sym(_g_update(X[noisy], G[noisy]))


def _posteriori(S, R0, G) -> np.ndarray:
    """The measurement updates of the symmetric stack S (k x n x n) given
    (R0, G) = _noise(C, V): S updated exactly by the noiseless rows R0
    where a member has any, Sigma = Z Z' (_measured with X = S), then by
    the noisy ones, (I + Sigma G)^-1 Sigma (_update)."""
    P = S.copy()
    noiseless = R0.any(axis=(1, 2))
    if noiseless.any():
        Z = _measured(R0[noiseless], _root(S[noiseless])[1])[1]
        P[noiseless] = _sym(Z @ Z.transpose(0, 2, 1))
    _update(P, G)
    return P


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
    return _sym(_pinv_psd(_sym(M[None])))[0]


def posteriori_from_priori(Sigma, C_sel, V_sel) -> np.ndarray:
    """Measurement-update covariance S - S C' M^+ C S, M = C S C' + V,
    symmetrized, in the equal form solve_dare's update takes (_posteriori):
    S updated exactly by V's noiseless rows, if any, then (I + S G)^-1 S
    with G the gain of the noisy rows, an n x n solve.  Neither step
    subtracts a term close to S.  Raises NoConvergence when V is not finite
    or not PSD (_noise)."""
    Sigma, C, V = (np.asarray(M, dtype=float) for M in (Sigma, C_sel, V_sel))
    if C.ndim != 2 or Sigma.shape != (C.shape[1],) * 2 or V.shape != (C.shape[0],) * 2:
        raise ShapeError(f"need C p x n, an n x n covariance and V p x p, got {C.shape}, {Sigma.shape}, {V.shape}")
    return _posteriori(_sym(Sigma[None]), *_noise(C[None], V[None]))[0]


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
    singular value above PBH_TOL.  A simple mode sums the q-vector |C v|^2,
    a multiple one counts the rows that see it first: a zero row of C, such
    as a pad, adds nothing to either, and no index or sign is special."""
    ok = np.ones(len(idx), dtype=bool)
    for image in images:
        r = image.shape[1]
        if r == 1:
            ok &= np.sqrt((np.abs(image[:, 0]) ** 2)[idx].sum(axis=1)) > PBH_TOL
        elif r:  # fewer rows that see the mode than kernel directions never have full rank
            ok &= (image[idx] != 0).any(axis=2).sum(axis=1) >= r
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

    The route is decided once per member, from its noise description
    (R0, G) = _noise(C, V), before any kernel runs: members without
    noiseless rows share one doubling run with their G, which gets
    ``settle`` and ``posteriori`` (see _doubling_dare; a member it drops
    has a NaN covariance).  Members with noiseless rows share one reduced
    doubling run when W is nonsingular (_reduced_dare), and one Newton run
    when it is not; neither drops anything.
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
    k = C.shape[0]
    S = np.empty((k,) + A.shape)
    iters = np.zeros(k, dtype=int)
    R0, G = _noise(C, V)
    plain = ~R0.any(axis=(1, 2))
    newton = np.zeros(k, dtype=bool)
    if not plain.all():
        w, L = _root(W)
        if not w[0] > PINV_RTOL * max(1.0, w[-1]):  # W singular: the reduction need not stabilize
            newton = ~plain
    reduced = ~plain & ~newton
    if plain.any():
        S[plain], iters[plain] = _doubling_dare(A, G[plain], W, settle, posteriori)
    if reduced.any():
        S[reduced], iters[reduced] = _reduced_dare(A, W, L, R0[reduced], G[reduced])
    if newton.any():
        S[newton], iters[newton] = _newton_dare(A, C[newton], W, V[newton])
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
    return (_posteriori(S, R0, G) if posteriori else S), iters


def solve_dare(A, C, W, V) -> SteadyStateResult:
    """Stabilizing solution of the filter Riccati equation (the a priori
    steady-state covariance).

    A member without noiseless rows (_noise; every nonsingular V, a 0 x 0
    V included) is solved by doubling until the step falls to TOL relative
    to max(1, ||S||_F); the result's ``iterations`` counts doublings.  One
    with noiseless rows and W nonsingular is solved by the
    perfect-measurement reduction, whose equation the same doubling
    solves; ``iterations`` counts the reduced run's doublings.  One with
    noiseless rows and W singular is solved by Newton steps (_newton_dare;
    each Stein equation takes the G = 0 doubling) until a step falls to
    TOL by the same measure or to its round-off floor; ``iterations``
    counts Newton steps.

    Returns the infinite result when (A, C) is undetectable.  Raises
    StabilizabilityViolation when (A, W^{1/2}) is not stabilizable and
    NoConvergence when V is not finite or not PSD, a doubling run or the
    Newton iteration reaches MAX_STEPS above tolerance, a doubling iterate
    turns non-finite, the Newton start V + NEWTON_START_DELTA I is singular
    (V too large for the delta to count), or the solution's trace
    overflows or its variance falls below W's (see _solve_detectable).
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
    """Run one tiny singular-V solve, which runs the reduction's
    decompositions and its doubling, so that the first timed solve does not
    pay numpy's one-time set-up costs."""
    one = np.ones((1, 1, 1))
    _solve_detectable(np.array([[0.5]]), np.eye(1), one, 0.0 * one)
