"""Steady-state error covariance of the filter Riccati equation, plus the
PBH detectability test and a symmetric-PSD pseudo-inverse.

The a priori covariance is the stabilizing solution of

    S = A S A' + W - A S C' (C S C' + V)^+ C S A'.

Each member's noise is described once, before any kernel runs (_noise):
R0, its noiseless rows, and F, its noisy ones whitened, whose gain
C1' V1^-1 C1 is G = F'F.  A V = L L' that _noise_gain finds nonsingular
has R0 = 0 and F = L^-1 C.  Otherwise rows scaled to unit norm split V into
noisy rows and noiseless ones (_split), a decision that does not depend
on the scale of a measurement (a row of C and V's row and column alike).
No kernel judges its input: every entry point has refused it first (see
below).  The covariance is then computed in one of three ways chosen from
(R0, F), A, W and the metric:

* An a priori member without noiseless rows: S = A S (I + G S)^-1 A' + W,
  solved by the structure-preserving doubling algorithm (Chu, Fan & Lin;
  Anderson & Moore, Optimal Filtering, 1979), which converges
  quadratically.
* Every other member whose noiseless rows, if any, meet a nonsingular W:
  the filtered form (_filtered).  Every row measures the next state,
  y+ = C A x + C w + v, with noise correlated with the process noise
  (Bryson & Johansen, 1965; Anderson & Moore, 1979).  Decorrelated, that
  is an equation P = Ab P (I + Gb P)^-1 Ab' + Wb whose stabilizing
  solution is the a posteriori covariance P, which the same doubling
  solves; the a priori one is S = A P A' + W.  Where A has one nonzero
  column j, u = A e_j, and W is nonsingular, as in every instance the
  paper builds, every member takes this form and none doubles: zero
  columns stay zero, so Ab = ub e_j', Gb = g e_j e_j' and
  P = Wb + c ub ub', c = x / (1 + g x), with x = P_jj the nonnegative root
  of a quadratic, and S = W + x u u' (_solve_detectable).
* Noiseless rows with W singular: Newton's method on the equation
  (Kleinman 1968; Hewer 1971).  Each step fixes the gain
  K = A S C' (C S C' + V)^+ (_gain) and solves the closed-loop Stein
  equation S = F S F' + W + K V K', F = A - K C, as the G = 0 doubling
  (Smith's).  It starts from the doubling solution for V + delta I, whose
  gain is stabilizing, and converges quadratically.  Its a posteriori
  covariance is the measurement update of S (_posteriori): S updated
  exactly by the noiseless rows R0, then by the noisy ones (_update).

The private helpers work on stacks: arrays of k same-shape members, one
per sensor subset (C is k x p x n, V is k x p x p), and every batched
numpy call works member by member.  The public functions are the stack of
one, so a stack of one width keeps the bits of its members solved alone.
Subsets of several sizes share a stack when the smaller ones are padded,
as the solvers module pads a chunk, with zero rows of C (no index marks
them) whose noise block is the identity, zero against every sensor.  A
pad is ordinary data: it adds exactly 0 to C' V^-1 C, K C, K V K' and
every PBH image, and is a zero or identity row of the reduction's
decompositions (_split, _measured, _update), which may round differently
at the larger size.  So a padded member agrees with its lone solve to
round-off, and a member in a chunk of one size keeps its bits.
Each member of a doubling or Newton run stops at its own stopping rule,
and the run's certificate then checks it, whatever the metric
(_solve_detectable): a plain or Newton member's variances may not fall
below W's, and a filtered member's P, or a closed-form member's x, must
solve its own equation.
A doubling run may also drop members early, those a caller's ``settle``
no longer needs, from the trace intervals that its invariant certifies
(_doubling_dare), in the run that solves in the requested metric; every
other member reports its trace to it once solved (_solve_detectable).  A
caller may screen members before any run on a lower bound, the second
iterate of the recursion from zero (_floor), or an attack's survivor sets
on a bracket from the full set's solution (_bracket): products formed
once, then per member a gather, an r x r solve and rank-r products, and a
refusal of its own.  Newton's gain shares _pinv_psd with pseudo_inverse_psd.
solve_dare, is_stabilizable_noise and the solvers' score table share one
door (_request): validate_model's input rule before any kernel runs, then
one root of W, which every kernel run takes (they solve with W's and V's
symmetric parts, model.noise_root), and one eigvals of A and one SVD of
A - lam I per unstable mode (_modes), whose left null vectors give the one
stabilizability test and whose right ones A's unstable-mode bases; a
stack's PBH test reads its rows' images of them (_images), which a
caller may gather from every row's (_detectable).  A stack path whose
mask selects every member gathers and scatters nothing (_members, _put).

Four module constants hold the tolerances: TOL (the stopping rule),
PINV_RTOL (the pseudo-inverse cutoff and every rank decision's: whether V
or W is singular, and which rows are noiseless), PBH_TOL (detectability)
and UPDATE_BOUND (_update's choice of solve).  Every function reads them
from the module when it runs; no function takes a tolerance argument.
"""

from __future__ import annotations

import numpy as np

from .model import DimensionMismatch, SteadyStateResult, check_finite, noise_root, psd_root, symmetric as _sym
from .model import NonFiniteInput, restrict  # unused: model's class re-exported, and the tracer patches restrict

class ShapeError(DimensionMismatch):
    pass


class NoConvergence(RuntimeError):
    """A solve failed: a scaled sensor row overflowed (_split), a doubling
    run (plain, filtered or Stein) or the Newton iteration reached
    MAX_STEPS above tolerance, a doubling iterate became non-finite, a
    Newton start was singular (a V too large for the delta to count), or a
    solution's trace overflowed or it failed its certificate."""

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

# Largest t = tr X ||F||_F^2 at which _update solves with I + X G, losing
# about eps cond_F <= 1.2e-10 at n <= 9, below solvers.TIE_REL (see _update).
# The benchmark's members reach t = 4.1e3 (random-solve) or start at 5.1e4.
UPDATE_BOUND = 1e4


def _noise_gain(C: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which members of the stacks C (k x p x n) and V (k x p x p) have a
    nonsingular V, and the stack F (k x p x n) of their whitened rows
    F = L^-1 C, with V = L L' (Cholesky): G = C' V^-1 C = F'F.  A singular
    member's rows of F are zero.

    A member is singular when a diagonal entry V_ii, or the squared
    Cholesky pivot of row i, is at or below PINV_RTOL * max(1, V_ii): the
    cutoff is absolute for entries up to 1 and relative to larger ones, so
    a rank-one s [[1, 1], [1, 1]] is singular at any scale s.  V is PSD, so
    the diagonal test decides some members without a factorization.  None
    left (V = 0) skips the factorization, no nonsingular member the solve,
    and a uniform stack is factored and solved as it is, F the solve's own
    result.  A batched factorization fails as a whole when one member is
    not positive definite; the members are then factored one by one.
    """
    cut = PINV_RTOL * np.maximum(1.0, V.diagonal(axis1=1, axis2=2))
    ok = (V.diagonal(axis1=1, axis2=2) > cut).all(axis=1)
    if not ok.any():
        return ok, np.zeros(C.shape)
    t = _members(ok)
    L = _batched(np.linalg.cholesky, V[t])  # a failed member gets NaN pivots
    pivots_ok = (L.diagonal(axis1=1, axis2=2) ** 2 > cut[t]).all(axis=1)
    ok[t] = pivots_ok
    F = np.linalg.solve(L[_members(pivots_ok)], C[_members(ok)]) if pivots_ok.any() else C[ok]
    return ok, _put(np.broadcast_to(0.0, C.shape), ok, F)


def _members(mask):  # a stack's members that mask selects: the whole stack, a view, when it selects every one
    return slice(None) if mask.all() else mask


def _put(X, mask, Y):  # the stack X (or a broadcast view) with Y in the members mask selects: Y if it selects all
    if mask.all():
        return Y
    X = X.copy()
    X[mask] = Y
    return X


def _batched(f, *X):  # the batched LAPACK call f on the stacks X; where it fails, member by member, NaN where one does
    try:
        return f(*X)
    except np.linalg.LinAlgError:
        if X[-1].ndim == 2:  # one member
            return np.full(X[-1].shape, np.nan)
        return np.stack([_batched(f, *(x[i] for x in X)) for i in range(len(X[-1]))])


@np.errstate(over="ignore", invalid="ignore")  # a non-finite step raises NoConvergence instead
def _doubling_dare(A, G, W, settle=None):
    """Structure-preserving doubling for S = A S (I + G S)^-1 A' + W, for
    every member G of the stack G (k x n x n), G = C' V^-1 C, or G = 0 for
    the Stein equation S = A S A' + W.  A and W are n x n or stacks
    broadcast against G; a filtered run (_filtered) passes stacks.

    With A_0 = A', G_0 = G and H_0 = W, each doubling maps
    A <- A (I+GH)^-1 A, G <- G + A (I+GH)^-1 G A', H <- H + A' H (I+GH)^-1 A;
    H_k is the fixed-point iterate 2^k steps from zero, so H converges
    quadratically to the stabilizing solution.  G and H stay PSD, so I + GH
    is nonsingular.  A member stops once its step ||H+ - H||_F is at most
    TOL * max(1, ||H+||_F) and is frozen from then on.  Returns the stack of
    solutions and each member's doubling count; raises NoConvergence when
    a member reaches MAX_STEPS doublings or any step turns non-finite.

    Every doubling keeps the invariant S = A_k' S (I + G_k S)^-1 A_k + H_k,
    whose first term is PSD and has trace at most ||A_k||_F^2 tr S, so
    lo = tr H_k <= tr S <= hi = tr H_k / (1 - ||A_k||_F^2), hi = inf while
    ||A_k||_F >= 1 and hi = lo for a member that has just stopped.  Given a
    callable ``settle``, before the first doubling (lo = tr W) and after
    each one settle(lo, hi) gets both bounds of every live member and
    returns a mask of the members to drop: a dropped member that has not
    stopped gets a NaN solution and is never solved further, so it raises
    nothing, and one dropped before any doubling counts 0 doublings.
    settle=None makes no extra call.
    The interval is in the metric of the equation solved: a filtered run's
    solution is the a posteriori covariance, so its interval is too.
    """
    k, n = G.shape[0], A.shape[-1]
    out = np.empty((k, n, n))
    doublings = np.zeros(k, dtype=int)
    live = np.arange(k)
    Ak = np.broadcast_to(A.swapaxes(-1, -2), (k, n, n)).copy()
    H = np.broadcast_to(W, (k, n, n)).copy()
    eye = np.eye(n)
    step, done = np.full(k, np.inf), np.zeros(k, dtype=bool)
    for it in range(MAX_STEPS + 1):
        if it:  # doubling 0 only settles
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
            hi[done] = lo[done]
            drop = settle(lo, hi) & ~done
            H[drop] = np.nan
            done |= drop
        if done.any():
            out[live[done]] = H[done]
            doublings[live[done]] = it
            keep = ~done
            live, Ak, G, H, step = live[keep], Ak[keep], G[keep], H[keep], step[keep]
            if not live.size:
                return out, doublings
    raise NoConvergence("iteration cap reached above tolerance", float(step[0]), MAX_STEPS)


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
    factored, F = _noise_gain(C, start)
    if not factored.all():
        raise NoConvergence(f"Newton start V + {NEWTON_START_DELTA:g} I is not positive definite", np.nan, 0)
    S, _ = _doubling_dare(A, F.transpose(0, 2, 1) @ F, W)
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


@np.errstate(over="ignore")  # an overflowing scaled row raises NoConvergence below
def _split(C, V):
    """The reduction's rank decision on V for the stacks C (k x p x n) and
    V (k x p x p), once per member: (R0, F1), R0 (k x p x n) the noiseless
    rows and F1 (k x p x n) the noisy ones whitened, zeros elsewhere in
    both, so that F1'F1 = C1' V1^-1 C1 is the noisy rows' gain.  V passed
    model.noise_root at every entry point; a row whose norm or scaled V
    overflows raises NoConvergence, which names the row.

    Each row of C is scaled by 1/||C_i|| (a zero row, such as a pad, by 1)
    and V alike, so a diagonal entry is its row's noise per squared gain.
    A member whose scaled V is not diagonal is rotated into its
    eigenvectors; a pad is an identity row there, so a padded member
    agrees with its lone solve to round-off.  A row is noiseless when its
    noise is at most PINV_RTOL or, rotated, within the eigenvalues'
    round-off, 8 r eps times the largest (zero eigenvalues of graded random
    V came out within 2.4 eps of it, r <= 6).  r counts the member's rows
    that are not null (zero in C, uncorrelated in V, as pads are), so pads
    do not move the cut.
    """
    k, p, n = C.shape
    norm = np.sqrt((C * C).sum(axis=2))
    d = np.where(norm > 0.0, norm, 1.0)
    R = C / d[:, :, None]
    v = V / d[:, :, None] / d[:, None, :]
    for _, i in np.argwhere(~(np.isfinite(norm) & np.isfinite(v).all(axis=2)))[:1]:
        raise NoConvergence(f"row {i} of C overflows when scaled to unit norm", np.nan, 0)
    w = v.diagonal(axis1=1, axis2=2).copy()
    cut = np.full(w.shape, PINV_RTOL)
    off = ~np.eye(p, dtype=bool)
    full = ((v != 0.0) & off).any(axis=(1, 2))
    if full.any():
        r = (C[full].any(axis=2) | ((V[full] != 0.0) & off).any(axis=2)).sum(axis=1)
        w[full], U = np.linalg.eigh(v[full])
        R[full] = U.transpose(0, 2, 1) @ R[full]
        cut[full] = np.maximum(PINV_RTOL, 8 * r[:, None] * np.finfo(float).eps * w[full][:, -1:])
    noisy = w > cut  # a negative w, round-off that the PSD floor let through, is noiseless
    R1 = R * np.sqrt(np.divide(1.0, w, out=np.zeros(w.shape), where=noisy))[:, :, None]
    return np.where(noisy[:, :, None], 0.0, R), R1


def _noise(C, V):
    """(R0, F), the noise description of every member of the stacks
    C (k x p x n) and V (k x p x p): R0 (k x p x n) its noiseless rows and
    F (k x p x n) its noisy ones whitened, so that G = F'F is their gain
    C1' V1^-1 C1.  A member whose V _noise_gain finds nonsingular has
    R0 = 0 and its F; _split's R0 and F1 fill the others' zero rows in place."""
    nonsingular, F = _noise_gain(C, V)
    R0, singular = np.zeros(C.shape), ~nonsingular
    if singular.any():
        R0[singular], F[singular] = _split(C[singular], V[singular])
    return R0, F


def _measured(R0, L):
    """(Q, Z) for noiseless rows R0 (k x p x n) and the root L of a PSD X
    (psd_root): Q (k x n x n) an orthonormal basis of the rows of R0 L,
    its right singular vectors above PINV_RTOL times the largest
    singular value, then zero rows, and Z = L (I - Q'Q).  Z Z' =
    X - X R0' (R0 X R0')^+ R0 X is X updated exactly by the rows; for
    X > 0, C0 = Q L^-1 spans them, C0 X C0' = I.  A zero row of R0, such
    as a pad, is a zero row of that SVD, so a padded member agrees with its
    lone solve to round-off."""
    k, p, n = R0.shape
    B = np.concatenate((R0, np.zeros((k, max(0, n - p), n))), axis=1) @ L  # n rows at least: Q is n x n
    _, sv, Q = np.linalg.svd(B, full_matrices=False)
    Q = Q * (sv > PINV_RTOL * sv[:, :1])[:, :, None]
    return Q, L - L @ Q.transpose(0, 2, 1) @ Q


def _filtered(A, W, L, R0, F, cols=None):
    """(Ab, Gb, Wb), stacks (k x n x n) of the equation
    P = Ab P (I + Gb P)^-1 Ab' + Wb whose stabilizing solution is the a
    posteriori covariance of each member with noiseless rows R0 and
    whitened noisy rows F (_noise); W = L L' (psd_root) must be nonsingular
    where a member has noiseless rows.  Given only the m nonzero columns of
    A (n x m), Ab holds those columns and Gb (k x m x m) their block; given
    ``cols``, Wb holds only those columns, unsymmetrized.

    The noiseless rows come first.  With _measured's C0 = Q L^-1 for X = W,
    J = W C0' (C0 W C0')^-1 C0 = L Q'Q L^-1, decorrelating C0 w from the
    process noise leaves A0 = (I - J) A = Z L^-1 A, W0 = (I - J) W = Z Z'
    and G0 = A' C0' C0 A; without noiseless rows A0 = A, W0 = W and G0 = 0.
    W > 0 makes (A0, W0^1/2) stabilizable: a left eigenvector x' of A0
    with x' W0 = 0 has x' = x' J, so x' A0 = 0; with W singular it need
    not be.  The noisy rows then give, by _update with G = F'F,
    Ab = (I + W0 G)^-1 A0, Wb = (I + W0 G)^-1 W0 and Gb = G0 + A0' G Ab,
    skipped where F = 0.  A and W are copied only for a mixed stack.
    """
    k, (n, m) = len(F), A.shape
    Ab, W0, Gb = np.broadcast_to(A, (k, n, m)), np.broadcast_to(W, (k, n, n)), np.zeros((k, m, m))
    noiseless = R0.any(axis=(1, 2))
    if noiseless.any():
        Q, Z = _measured(R0[_members(noiseless)], L)
        B = np.linalg.solve(L, A)
        QB = Q @ B
        Ab, W0 = _put(Ab, noiseless, Z @ B), _put(W0, noiseless, _sym(Z @ Z.transpose(0, 2, 1)))
        Gb = _put(Gb, noiseless, _sym(QB.transpose(0, 2, 1) @ QB))
    Wb = W0 if cols is None else W0[:, :, cols]
    noisy = F.any(axis=(1, 2))
    if noisy.any():
        s = _members(noisy)
        A0 = Ab[s]
        X, GX = _update(W0[s], F[s], np.concatenate((A0, Wb[s]), axis=2))
        Ab, Wb = _put(Ab, noisy, X[:, :, :m]), _put(Wb, noisy, X[:, :, m:] if cols is not None else _sym(X[:, :, m:]))
        Gb = _put(Gb, noisy, _sym(Gb[s] + A0.transpose(0, 2, 1) @ GX[:, :, :m]))
    return Ab, Gb, Wb


def _update(X, F, Y):
    """((I + X G)^-1 Y, G (I + X G)^-1 Y) for the stacks X (k x n x n, PSD)
    and Y (k x n x m), G = F'F the gain of the whitened noisy rows F, by one
    solve per member, chosen before it is made from t = tr X ||F||_F^2.
    M = I + X G has M^-1 = I - X F' (I + F X F')^-1 F, and B'(I + B B')^-1,
    B = F X^1/2, has singular values at most 1/2, so cond_F(M) <= (sqrt(n) +
    t)(sqrt(n) + sqrt(t) / 2), of which random members with t in (1e2, 1e4]
    reach 0.27.  A member with t <= UPDATE_BOUND solves with M, the others
    [[I, X F'/c], [-c F, I]] [Z; U] = [Y; 0], U = c F Z, which never forms G;
    c, a power of 2 near the root of X's largest variance, steers pivoting.
    A path with no members makes no call, and one with all of them copies none."""
    n = X.shape[1]
    with np.errstate(over="ignore"):  # an overflowing t is inf: not easy
        easy = np.trace(X, axis1=1, axis2=2) * np.add.reduce(F * F, axis=(1, 2)) <= UPDATE_BOUND
    Z, GZ, hard = np.empty(Y.shape), np.empty(Y.shape), ~easy
    if easy.any():
        e = _members(easy)
        G = F[e].transpose(0, 2, 1) @ F[e]
        ZE = np.linalg.solve(np.eye(n) + X[e] @ G, Y[e])
        Z, GZ = _put(Z, easy, ZE), _put(GZ, easy, G @ ZE)
    if hard.any():
        e = _members(hard)
        X, F, h, p = X[e], F[e], hard.sum(), F.shape[1]
        c = np.ldexp(1.0, np.frexp(np.sqrt(X.diagonal(axis1=1, axis2=2).max(axis=1)))[1])[:, None, None]
        FT = F.transpose(0, 2, 1) / c
        B = np.concatenate((np.concatenate((np.broadcast_to(np.eye(n), (h, n, n)), X @ FT), axis=2),
                            np.concatenate((-c * F, np.broadcast_to(np.eye(p), (h, p, p))), axis=2)), axis=1)
        ZU = np.linalg.solve(B, np.concatenate((Y[e], np.zeros((h, p, Y.shape[2]))), axis=1))
        Z, GZ = _put(Z, hard, ZU[:, :n]), _put(GZ, hard, FT @ ZU[:, n:])
    return Z, GZ


def _blocks(S, m):  # flat indices of each member's S[i] x S[i] block of an m x m matrix, negative entries from its end
    return (S % m)[:, :, None] * m + (S % m)[:, None, :]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite bound screens nothing
def _floor(A, W, C, V, S, posteriori=False) -> np.ndarray:
    """A lower bound on the trace of each member of the rows C (m x n) with
    noise V (m x m), without a kernel run: member i keeps the rows S[i]
    (k x p), negative entries counting from the end, where the caller puts
    its null sensors.  The bound is base - tr(Y' Q^-1 Y), Q = V + C W C' on
    the member's rows, by one p x p solve of the block it gathers from Q and
    Y, formed once for every row.  The Riccati recursion S <- A (S - S C'
    Q(S)^+ C S) A' + W from S = 0 rises monotonically to every PSD solution,
    so its second iterate bounds the a priori covariance: base =
    tr(W + A W A') with Y = C W A', the kernel's tr H_1.  The a posteriori
    covariance is the update of an a priori one, which is at least W, so
    with ``posteriori`` base = tr W with Y = C W bounds it, the filtered
    run's tr Wb.  A member's Q is within e = eps (n + p) (||V|| + ||CW||
    ||C||), norms of its rows, of its exact value, and solved by a method as
    stable.  Where ||Q^-1|| e <= 1e-3, the computed tr(Y' Q^-1 Y) is within
    about 2 e ||Q^-1 Y||^2 of the exact one, and the bound is lowered by that
    and by the round-off of the sums.  A member nearer to singular (two
    nearly parallel noiseless rows lose a direction of Q that Q^-1 weighs
    heavily), with a singular Q or a non-finite bound, gets -inf alone."""
    p, n, CW, at = S.shape[1], A.shape[0], C @ W, _blocks(S, len(C))
    base, Y = (np.trace(W), CW[S]) if posteriori else (np.trace(W) + np.trace(A @ W @ A.T), (CW @ A.T)[S])
    X = _batched(np.linalg.solve, np.take(V + CW @ C.T, at), np.concatenate((Y, np.take(np.eye(len(C)), at)), axis=2))
    eps, X, inverse = np.finfo(float).eps, X[:, :, :n], X[:, :, n:]
    x, e = _fro(X), eps * (n + p) * (_fro(np.take(V, at)) + _fro(CW[S]) * _fro(C[S]))
    t = np.add.reduce(Y * X, axis=(1, 2))
    bound = base - t - 2 * e * x * x - eps * (n + p) * (_fro(Y) * x + base + abs(t))
    return np.where(np.isfinite(bound) & (e * _fro(inverse) <= 1e-3), bound, -np.inf)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite end screens nothing
def _bracket(A, W, P, C, V, removed, posteriori):
    """[lo, hi] on the trace of each survivor set of an attack from the a
    priori covariance P of the full set, without a kernel run, or None where
    M = C P C' + V is singular or e ||N|| > 1e-3 (e as _floor's, C P for
    C W).  C (m x n) and V are _floor's rows, the full set's and the null
    sensors; member i removes removed[i] (k x r; pads -1, -2, ...) and gets
    [-inf, inf] alone where its N_RR is singular.  P must approach from
    below, as on every route but Newton's.

    With N = M^-1 and K = N C P, the block inverse of M makes P's update by
    the survivors the full update P+ = P - (CP)'K plus the rank-r
    D = U' Z U, U = K_R, Z = N_RR^-1, to which a pad adds 0: as M is
    block-diag(M_full, I), it reads zero rows of K and NC, N's I.  Removing
    sensors never lowers the Riccati solution and the update is monotone
    (Anderson & Moore, 1979): lo = tr(P+ + D), a priori tr(A (P+ + D) A') +
    tr W.  P's gain on the survivors, J = Jf + U' Z (NC)_R, Jf = I - K'C,
    costs more than the optimum (Kleinman, 1968; Hewer, 1971): P + E a
    priori, E = F E F' + T + Ric(P) - P, F = A J, T = A D A', and
    tr(P+ + D) + tr(J E J') a posteriori, the same Stein equation in
    F = J A, T = F D F'.  Its sum over k of F^k T F'^k has trace at most
    c tr T, c = 1 / (1 - ||F||_F^2), where ||F||_F < 1 (else hi = inf), and
    the residual's share at most c ||Ric(P) - P||_* (times ||J||_F^2 a
    posteriori): its nuclear norm bounds the k = 0 term, the trace of the
    residual itself, where its Frobenius norm need not.
    No member forms an n x n matrix: it gathers R x R blocks and R rows of
    the full set's products of K, NC, Jf and A, and each of its forms is a
    full-set term plus rank-r ones.  With Om = A'A a priori and I a
    posteriori and B = (K Om^1/2)_R, tr(Om D) = <Z, B B'>, and
    ||F0 + B' Z E||_F^2 = ||F0||_F^2 + 2 <Z, B F0 E'> + <B B' Z E E', Z>
    is ||F||_F^2 (F0 = A Jf, E = (NC)_R a priori; F0 = Jf A, E = (NCA)_R a
    posteriori) and ||J||_F^2 (F0 = Jf, E = (NC)_R); a posteriori
    tr T = <Z, UF UF'>, UF = U F' = (K F0')_R + M U, M = (K (NCA)')_RR Z'.
    Round-off, to first order in Frobenius norms: given the products, a
    form is within h = eps (n + r + 3)^2 times the sum of its terms'
    absolute values, at most its size, (||F0|| + ||B|| ||Z|| ||E||)^2,
    ||Z|| ||B||^2 for tr(Om D), ||Z|| (||(K F0')_R|| + ||M|| ||U||)^2 for
    tr T, and is moved by that to the safe side.  While e ||N|| <= 1e-3, N
    and K are exact for an M within e, which moves tr(P+ + D), J and D by
    g tr P, g sqrt(tr P tr P^-1) and 2 g tr P at most, g = 2 e ||N||,
    doubled; a product adds u = 3 eps (n + m) of its terms (||Z E|| <=
    ||Z|| ||E||, ||D|| <= tr D); m, ||V|| and ||N|| count the null sensors,
    which only widens e, g and u.  So lo is lowered, hi raised, by
    (g + u) (w tr P + tr W), w = ||A||_F^2 a priori, w = 1 and no tr W a
    posteriori; hi also takes the residual's round-off and the forcing's
    and F's errors, times c."""
    (m, n), (k, r) = C.shape, removed.shape
    eps, a, Y, trP = np.finfo(float).eps, np.linalg.norm(A), C @ P, np.trace(P)
    u, e = 3 * eps * (n + m), eps * (n + m) * (np.linalg.norm(V) + np.linalg.norm(Y) * np.linalg.norm(C))
    X = _batched(np.linalg.solve, (Y @ C.T + V)[None], np.concatenate((Y, np.eye(m)), axis=1)[None])[0]
    K, N, g, at = X[:, :n], X[:, n:], 2 * e * np.linalg.norm(X[:, n:]), _blocks(removed, m)
    if not g <= 2e-3:  # NaN, of a singular M, refuses too
        return None
    Pp, Jf, lam, h = _sym(P - Y.T @ K), np.eye(n) - K.T @ C, np.linalg.eigvalsh(P), eps * (n + r + 3) ** 2
    Z, NC = _batched(np.linalg.inv, np.take(N, at)), N @ C  # Z: NaN where N_RR is singular
    Om, tW, KO = (np.eye(n), 0.0, K) if posteriori else (A.T @ A, np.trace(W), K @ A.T)
    G, KK, EE, zn = np.take(KO @ KO.T, at), np.take(K @ K.T, at), np.take(NC @ NC.T, at), _fro(Z)
    tr, dot = lambda M: M.trace(axis1=1, axis2=2), lambda X, Y: np.add.reduce(X * Y, axis=(1, 2))  # noqa: E731
    nB, nU, nE = tr(G), tr(KK), tr(EE)  # ||B||_F^2, ||U||_F^2 and ||(NC)_R||_F^2

    def sq(F0, E, EE):  # ||F0 + B' Z E_R||_F^2 from the full set's term and rank-r ones, raised by h times its size
        form = np.sum(F0 * F0) + dot(Z, 2 * np.take(KO @ F0 @ E.T, at) + G @ Z @ EE)
        return form + h * (np.linalg.norm(F0) + np.sqrt(nB * tr(EE)) * zn) ** 2

    tD, allow = dot(Z, G), (g + u) * ((1.0 if posteriori else a * a) * trP + tW)  # tr(Om D)
    lo = np.trace(Om @ Pp) + tW - allow + tD - h * zn * nB
    res = np.linalg.norm(A @ Pp @ A.T + W - P, "nuc") + (g + u) * ((1 + a * a) * trP + np.trace(W))
    dJ = g * np.sqrt(trP * np.sum(1.0 / lam) if lam[0] > 0.0 else np.inf) + u * np.linalg.norm(K) * np.linalg.norm(C)
    dJ, dD = dJ + u * zn * np.sqrt(nU * nE), 2 * g * trP + u * zn * nU
    if posteriori:
        NCA, KF = NC @ A, K @ (Jf @ A).T
        f2, v = sq(Jf @ A, NCA, np.take(NCA @ NCA.T, at)), sq(Jf, NC, EE)
        M = np.take(K @ NCA.T, at) @ Z.transpose(0, 2, 1)  # UF = (K F0')_R + M U
        S, X0 = np.take(KF @ K.T, at) @ M.transpose(0, 2, 1), np.take(KF @ KF.T, at)
        trT = dot(Z, X0 + S + S.transpose(0, 2, 1) + M @ KK @ M.transpose(0, 2, 1))
        trT += h * zn * (np.sqrt(tr(X0)) + _fro(M) * np.sqrt(nU)) ** 2
        dT = a * a * (v * dD + 2 * np.sqrt(v) * dJ * tD)  # ||D||_F <= tr D = tD
    else:
        f2, v, trT, dT = sq(A @ Jf, NC, EE), 1.0, tD + h * zn * nB, a * a * dD
    c = 1.0 / (1.0 - f2)
    up = (lo + 2 * allow if posteriori else trP + allow) + c * (res * v + dT)
    up += (1.0 + u + 2 * c * a * dJ * np.sqrt(f2)) * c * trT
    return np.where(np.isnan(lo), -np.inf, lo), np.where(f2 < 1.0, up, np.inf)  # a singular N_RR: [-inf, inf]


def _posteriori(S, R0, F) -> np.ndarray:
    """The measurement updates of the symmetric stack S (k x n x n) given
    (R0, F) = _noise(C, V): S updated exactly by the noiseless rows R0
    where a member has any, Sigma = Z Z' (_measured with X = S), then by
    the noisy ones, (I + Sigma G)^-1 Sigma (_update), symmetrized, where F
    is not zero; elsewhere Sigma's bits."""
    P = S.copy()
    noiseless = R0.any(axis=(1, 2))
    if noiseless.any():
        Z = _measured(R0[noiseless], psd_root(S[noiseless], "S")[1])[1]
        P[noiseless] = _sym(Z @ Z.transpose(0, 2, 1))
    noisy = F.any(axis=(1, 2))
    if noisy.any():
        P[noisy] = _sym(_update(P[noisy], F[noisy], P[noisy])[0])
    return P


def pseudo_inverse_psd(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric PSD matrix via eigendecomposition.

    Eigenvalues at or below the absolute cutoff PINV_RTOL are treated as
    zero, and every one above it is inverted, however small against the
    largest.  Newton's gain takes the same inverse (_pinv_psd).  Raises
    NonFiniteInput when M is not finite.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ShapeError(f"expected a square matrix, got {M.shape}")
    check_finite(M=M)
    return _sym(_pinv_psd(_sym(M[None])))[0]


def posteriori_from_priori(Sigma, C_sel, V_sel) -> np.ndarray:
    """Measurement-update covariance S - S C' M^+ C S, M = C S C' + V, of a
    given covariance S, symmetrized, in an equal form (_posteriori): S
    updated exactly by V's noiseless rows, if any, then (I + S G)^-1 S with
    G the gain of the noisy rows, solved by _update.  Neither step
    subtracts a term close to S.  Of a solve_dare result it agrees with the a
    posteriori covariance that the solvers take from their filtered run to
    round-off, not bit for bit.  Raises ShapeError on mismatched shapes,
    and applies model.noise_root to S (named Sigma) and V, and updates
    their symmetric parts; NonFiniteInput is raised for C too."""
    Sigma, C, V = (np.asarray(M, dtype=float) for M in (Sigma, C_sel, V_sel))
    if C.ndim != 2 or Sigma.shape != (C.shape[1],) * 2 or V.shape != (C.shape[0],) * 2:
        raise ShapeError(f"need C p x n, an n x n covariance and V p x p, got {C.shape}, {Sigma.shape}, {V.shape}")
    check_finite(C=C)
    Sigma, V = noise_root(Sigma, "Sigma")[0], noise_root(V, "V")[0]
    return _posteriori(Sigma[None], *_noise(C[None], V[None]))[0]


def _check_shapes(A, C, W=None, V=None) -> None:
    """Raise ShapeError, naming the arrays, unless A is n x n, every member
    of the sequence C is p x n, one p for all, and, where given, W is n x n
    and every member of the sequence V is p x p."""
    n = A.shape[0] if A.ndim else None
    if A.shape != (n, n) or W is not None and W.shape != (n, n):
        raise ShapeError("A must be n x n" if W is None else "A and W must be n x n")
    p = len(C[0]) if C[0].ndim else None
    if any(c.shape != (p, n) for c in C) or V is not None and any(v.shape != (p, p) for v in V):
        raise ShapeError("C must be p x n" if V is None else "C must be p x n with V p x p")


def _modes(A: np.ndarray, L=None) -> tuple:
    """(bases, ||A||_2) for any number of sensor stacks (_detectable): for every eigenvalue lam of A with modulus
    >= 1 - PBH_TOL, a basis N of the numerical kernel of A - lam I, its right singular vectors whose singular value
    is at most PBH_TOL ||A||_2.  The conjugates M of the left ones span ker(A' - lam I) (real A), so given W's root L
    the SVDs make the door's stabilizability test too (Hautus, 1969): StabilizabilityViolation is raised unless
    (A', L') passes _detectable on the bases M."""
    lams = [lam for lam in np.linalg.eigvals(A) if abs(lam) >= 1.0 - PBH_TOL]
    scale, bases, duals = np.linalg.norm(A, 2) if lams else None, [], []
    for lam in lams:
        U, sv, Vh = np.linalg.svd(A - lam * np.eye(A.shape[0]))
        null = sv <= PBH_TOL * scale
        bases.append(Vh[null].conj().T)
        duals.append(U[:, null].conj())
    if L is not None and not _detectable(_images((duals, scale), L.T[None]), 1)[0]:
        raise StabilizabilityViolation("(A, W^(1/2)) is not stabilizable")
    return bases, scale


def _request(A, W, C, V) -> tuple:
    """(W's symmetric part, the stack of V's, W's root (w, L), A's unstable-mode bases (_modes)): the one door of
    solve_dare, is_stabilizable_noise and the solvers' score table, for A, W and the sequences C and V: one subset's
    rows and noise, or the table's models' C and V and its null rows, whose noise block the table lays, so the door
    decomposes only noise a caller gave.  Before any kernel runs it raises ShapeError (_check_shapes), NonFiniteInput
    for C, then as noise_root does for V's stack and for W, NonFiniteInput for A, then StabilizabilityViolation
    unless (A, W^(1/2)) is stabilizable (_modes)."""
    _check_shapes(A, C, W, V)
    check_finite(C=np.concatenate(C))
    V = noise_root(np.stack(V), "V")[0]
    W, w, L = noise_root(W, "W")
    check_finite(A=A)
    return W, V, (w, L), _modes(A, L)


def _images(modes: tuple, C: np.ndarray) -> list:  # C's images C N / ||A||_2 of the bases N (_modes), row by row
    return [C @ N / modes[1] for N in modes[0]]


def _detectable(images: list, k: int) -> np.ndarray:
    """is_detectable for each of the k members of a stack C (k x p x n) from
    its images (_images, or gathered from every row's).  [A - lam I; C] x = 0
    iff x is in ker(A - lam I) and in ker C, so C sees lam iff its image
    C N / ||A||_2 has full column rank: every singular value above PBH_TOL.
    A simple mode sums the p-vector |C v|^2, a multiple one counts the rows
    that see it first: a zero row of C, such as a pad, adds nothing."""
    ok = np.ones(k, dtype=bool)
    for image in images:
        r = image.shape[2]
        if r == 1:
            with np.errstate(over="ignore"):  # a row of 1e155 or more has an infinite norm: it sees the mode
                ok &= np.sqrt((np.abs(image[:, :, 0]) ** 2).sum(axis=1)) > PBH_TOL
        elif r:  # fewer rows that see the mode than kernel directions never have full rank
            ok &= (image != 0).any(axis=2).sum(axis=1) >= r
            if r <= image.shape[1]:
                ok &= np.linalg.svd(image, compute_uv=False)[:, -1] > PBH_TOL
    return ok


def is_detectable(A, C_sel) -> bool:
    """PBH test: [A - lam I; C] has full column rank for every eigenvalue
    lam of A with modulus >= 1 - PBH_TOL, PBH_TOL being the relative rank
    tolerance on the scale ||A||_2 (see _modes and _detectable).  A
    spectral radius below 1 - PBH_TOL short-circuits to True.  Raises
    ShapeError when A is not square or C not p x n, and NonFiniteInput
    when A or C is not finite.
    """
    A, C_sel = np.asarray(A, dtype=float), np.asarray(C_sel, dtype=float)
    _check_shapes(A, [C_sel])
    check_finite(A=A, C=C_sel)
    return bool(_detectable(_images(_modes(A), C_sel[None]), 1)[0])


def is_stabilizable_noise(A, W) -> bool:
    """Dual PBH test that (A, W^{1/2}) is stabilizable: the door's (_request,
    _modes) on a request without sensors, from the left null vectors of
    its SVDs.  Raises ShapeError unless A and W are n x n, then as noise_root
    does for W, and NonFiniteInput for A."""
    A, W = np.asarray(A, dtype=float), np.asarray(W, dtype=float)
    try:
        _request(A, W, [np.empty((0,) + A.shape[1:])], [np.empty((0, 0))])  # no sensors: C is 0 x n once A is n x n
    except StabilizabilityViolation:
        return False
    return True


def _newton_route(root, noiseless):
    """Which members Newton's method solves, from W's root (w, L) (_request)
    and whether each has noiseless rows (_noise): those with them when W is
    singular, where the filtered reduction need not stabilize; no other."""
    w = root[0]
    return noiseless & (not w[0] > PINV_RTOL * max(1.0, w[-1]))


def _solve_detectable(A, W, C, V, root, posteriori=False, settle=None) -> tuple[np.ndarray, np.ndarray]:
    """Covariances and iteration counts for the stacks C (k x p x n) and
    V (k x p x p), every member detectable, given W's root (w, L) from the
    door (_request): the a priori covariances, or with ``posteriori`` the a
    posteriori ones.

    The route is decided once per member, from its noise description
    (R0, F) = _noise(C, V), before any kernel runs.  Members with noiseless
    rows share one Newton run when W is singular; it returns the a priori
    covariance S, and the a posteriori one is its measurement update
    (_posteriori).  Of the others, an a priori request solves the members
    without noiseless rows in one plain doubling run with their G = F'F.
    Every remaining member joins one filtered run (_filtered), whose
    solution P is the a posteriori covariance, S = A P A' + W the a priori
    one.  ``settle`` (see _doubling_dare) goes to the run that solves in the
    requested metric: the plain run of an a priori request, the filtered run
    of an a posteriori one.  A member it drops has a NaN covariance; every
    other one (Newton's, an a priori request's filtered ones, the closed
    form's) drops nothing, and settle gets its returned trace t as [t, t].
    When A has one nonzero column j and W is nonsingular, every member is
    filtered and solved in closed form instead, with 0 iterations: x = P_jj
    solves g x^2 + (1 - g om - mu^2) x - om = 0, om = (Wb)_jj, mu = (ub)_j, whose
    root is taken in a form that neither cancels nor overflows.  _filtered
    gets the columns [a0, W0 e_j] only (a0 = A0 e_j) under the a priori
    metric, and [a0, W0] under the a posteriori one, which returns Wb + c ub ub'.

    Raises NoConvergence as _doubling_dare and _newton_dare do, when a
    member's a priori trace overflows (a score could not tell it from an
    undetectable member's infinity), and when a member fails its run's
    certificate, under either metric.  A plain or Newton member fails when
    its variance falls below W's by more than sqrt(TOL) * max(1, ||S||_F):
    every a priori covariance is A S* A' + W >= W, so it went astray, as on
    a pair (A, C) that is undetectable within round-off but passed the PBH
    test, where the shortfall is of the order of ||S||.  The bound is not
    TOL: with a large gain K against a singular V, the round-off of K V K'
    alone puts correct solutions up to 3e-9 relative below W (random
    noiseless models, n <= 4).  A filtered member keeps A P A' + W >= W, so
    it fails when P's residual in its own equation exceeds
    sqrt(TOL) * max(1, ||P||_F): 11% on the pair above, at most 3e-15 on
    the test suite's 27 246 other filtered members.  A closed-form member's
    residual is |x - om - mu^2 c| ||ub||^2 at most, and it fails when the
    scalar |x - om - mu^2 c| exceeds sqrt(TOL) * max(1, x), or is NaN.
    """
    k = C.shape[0]
    S = np.empty((k,) + A.shape)
    iters = np.zeros(k, dtype=int)
    R0, F = _noise(C, V)
    noiseless = R0.any(axis=(1, 2))
    cols = np.flatnonzero(A.any(axis=0))
    L, newton = root[1], _newton_route(root, noiseless)
    closed = cols.size == 1 and not _newton_route(root, True)  # W nonsingular
    filtered = ~newton & (noiseless | posteriori | closed)
    plain = ~newton & ~filtered
    if plain.any():
        p = _members(plain)
        S[p], iters[p] = _doubling_dare(A, F[p].transpose(0, 2, 1) @ F[p], W, settle)
    if closed:  # A = u e_j': Ab = ub e_j' and Gb = g e_j e_j', so P = Wb + c ub ub' with x = P_jj
        j = cols[0]
        Ab, Gb, Wb = _filtered(A[:, cols], W, L, R0, F, None if posteriori else cols)
        ub, g, om = Ab[:, :, 0], np.maximum(Gb[:, 0, 0], 0.0), np.maximum(Wb[:, j, j if posteriori else 0], 0.0)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a non-finite x fails a check below
            b = 0.5 * (1.0 - g * om - ub[:, j] ** 2)  # x solves g x^2 + 2 b x - om = 0
            h = np.hypot(b, np.sqrt(g) * np.sqrt(om))
            x = np.where(b > 0.0, om / (b + h), (h - b) / g)  # its nonnegative root, neither form cancelling
            c = x / (1.0 + g * x)
            off, scale, live = np.abs(x - om - ub[:, j] ** 2 * c), x, np.arange(k)
            S = _sym(W + x[:, None, None] * np.outer(A[:, j], A[:, j]))
            P = _sym(Wb + c[:, None, None] * ub[:, :, None] * ub[:, None, :]) if posteriori else None
    elif filtered.any():
        f = _members(filtered)
        Ab, Gb, Wb = _filtered(A, W, L, R0[f], F[f])
        P, iters[f] = _doubling_dare(Ab, Gb, Wb, settle if posteriori else None)
        S[f] = _sym(A @ P @ A.T + W)
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
    if filtered.any():
        if not closed:
            live = np.flatnonzero(~np.isnan(P[:, 0, 0]))  # a dropped member is NaN
            Ab, Gb, Wb, P1 = Ab[live], Gb[live], Wb[live], P[live]
            M = np.linalg.solve(np.eye(A.shape[0]) + Gb @ P1, Ab.transpose(0, 2, 1)) if live.size else P1
            off = _fro(Ab @ P1 @ M + Wb - P1)
            live, scale = np.flatnonzero(filtered)[live], _fro(P1)
        for j in live[~(off <= np.sqrt(TOL) * np.maximum(1.0, scale))][:1]:
            raise NoConvergence("a posteriori solution leaves its equation", float(off.max()), int(iters[j]))
        if posteriori:
            S[filtered] = P
    if posteriori and newton.any():
        S[newton] = _posteriori(S[newton], R0[newton], F[newton])
    unsettled = newton | filtered & (closed or not posteriori)
    if settle is not None and unsettled.any():  # their runs settled nothing in the requested metric
        t = np.trace(S[unsettled], axis1=1, axis2=2)
        settle(t, t)
    return S, iters


def solve_dare(A, C, W, V, posteriori=False) -> SteadyStateResult:
    """Steady-state covariance of one sensor subset, a priori (the
    stabilizing solution of the filter Riccati equation) or with
    ``posteriori`` a posteriori: the solvers' kernel run of a stack of one,
    so evaluate_selection, which calls it, keeps a scorer's bits.

    ``iterations`` counts the doublings of the run that solved
    (_solve_detectable): the plain run for an a priori member without
    noiseless rows (_noise; every nonsingular V, a 0 x 0 V included), the
    filtered run for an a posteriori one and, under either metric, for one
    with noiseless rows and W nonsingular.  One with noiseless rows and W
    singular takes Newton's method, and ``iterations`` counts its steps.
    With one nonzero column in A and W nonsingular, the filtered equation
    is solved in closed form, and ``iterations`` is 0.

    Returns the infinite result when (A, C) is undetectable.  Raises what
    the solvers' door (_request) raises, before any kernel runs, and
    NoConvergence when a solve fails (see _split and _solve_detectable).
    It solves with W's and V's symmetric parts (model.noise_root).
    """
    A, C, W, V = (np.ascontiguousarray(M, dtype=float) for M in (A, C, W, V))
    W, V, root, modes = _request(A, W, [C], [V])
    if not _detectable(_images(modes, C[None]), 1)[0]:
        return SteadyStateResult.infinite()
    S, iters = _solve_detectable(A, W, C[None], V, root, posteriori)
    return SteadyStateResult.finite(S[0], int(iters[0]))


def warmup() -> None:
    """Run one tiny stack of a noiseless member and two noisy ones (V = 0, 1
    and 1e-6) on each route: A = 0.5 I of n = 1 has one nonzero column and
    takes the closed form, where V = 1 and 1e-6 reach _update's two solves
    (t = 1 and 1e6), and n = 2 the doublings, plain and filtered.  The
    reduction's decompositions, _update's solves and the doubling's then
    have paid numpy's one-time set-up costs before the first timed solve."""
    V = np.array([0.0, 1.0, 1e-6]).reshape(3, 1, 1)
    for n in (1, 2):
        _solve_detectable(0.5 * np.eye(n), np.eye(n), np.ones((3, 1, n)), V, psd_root(np.eye(n), "W"))
