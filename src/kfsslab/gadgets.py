"""Instance generators: the two counterexample families where greedy fails,
exact-cover (X3C) decision instances embedded into selection/attack problems
with a yes/no trace threshold, a brute-force X3C oracle, and the orthogonal
basis certificate used to analyse uncovered elements.

The embeddings make a combinatorial decision readable off a covariance
trace: a selection instance whose optimal trace dips to the threshold
exactly when an exact cover exists, and an attack instance whose optimal
trace exceeds its threshold exactly when one does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import riccati
from .closed_forms import DomainError
from .model import SystemModel, as_integer, validate_model
from .solvers import SolveReport, exhaustive_attack, exhaustive_select, greedy_attack, greedy_select

BRUTEFORCE_CAP = 1_000_000


class TooLarge(ValueError):
    pass


class NoZeroColumn(ValueError):
    pass


@dataclass(frozen=True)
class X3CInstance:
    """Exact cover by 3-sets: a universe {1..3m} and a collection of
    3-element subsets, at least m of them, with no duplicates."""

    m: int
    subsets: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "m", as_integer(self.m, "m", DomainError))
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        size = 3 * self.m
        normalized = []
        for s in self.subsets:
            t = tuple(sorted(as_integer(x, "subset element", DomainError) for x in s))
            if len(t) != 3 or len(set(t)) != 3:
                raise DomainError(f"subset {s} must contain exactly 3 distinct elements")
            if t[0] < 1 or t[-1] > size:
                raise DomainError(f"subset {s} outside universe 1..{size}")
            normalized.append(t)
        if len(set(normalized)) != len(normalized):
            raise DomainError("duplicate subsets are not allowed")
        if len(normalized) < self.m:
            raise DomainError(f"need at least m={self.m} subsets, got {len(normalized)}")
        object.__setattr__(self, "subsets", tuple(normalized))

    @property
    def tau(self) -> int:
        return len(self.subsets)

    @property
    def universe_size(self) -> int:
        return 3 * self.m


def x3c_from_dict(data: dict) -> X3CInstance:
    subsets = tuple(tuple(as_integer(x, "subset element") for x in s) for s in data["subsets"])
    return X3CInstance(m=as_integer(data["m"], "m"), subsets=subsets)


def encode_x3c(inst: X3CInstance) -> np.ndarray:
    """Membership matrix: row i is the 0-1 indicator of subset i over the
    universe, so every row sums to 3."""
    G = np.zeros((inst.tau, inst.universe_size))
    for i, subset in enumerate(inst.subsets):
        for j in subset:
            G[i, j - 1] = 1.0
    return G


@dataclass(frozen=True)
class GadgetConstants:
    """Construction constants of a reduction instance."""

    K: float
    Z: int
    lambda1: float
    coupling: float  # epsilon (selection gadget) or rho (attack gadget)
    noise_std: float


@dataclass(frozen=True)
class GadgetOutput:
    model: SystemModel
    threshold: float
    constants: GadgetConstants
    kind: str  # "kfss" | "kfsa"


def _ceil_sqrt(x: int) -> int:
    # exact integer ceil(sqrt(x))
    return 0 if x <= 0 else math.isqrt(x - 1) + 1


def build_example1(lambda1: float, h: float) -> SystemModel:
    """Three-state, three-sensor selection family with budget 2.

    Sensors 1 and 3 together recover state 1 exactly, but sensor 2 looks
    best in isolation, so one-step greedy starts wrong and ends with noise
    of order h^2 on the only persistent state.
    """
    lam, h = _check_family_params(lambda1, h)
    A = np.diag([lam, 0.0, 0.0])
    C = np.array([[1.0, h, h], [1.0, 0.0, h], [0.0, 1.0, 1.0]])
    return validate_model(
        SystemModel(
            n=3, q=3, A=A, C=C, W=np.eye(3), V=np.zeros((3, 3)),
            b=np.ones(3), omega=np.ones(3), budget_select=2.0, budget_attack=0.0,
        )
    )


def build_example2(lambda1: float, h: float) -> SystemModel:
    """Three-state, four-sensor attack family with attack budget 2.

    Removing sensors 1 and 2 blinds the filter to state 1, but removing
    sensor 4 looks best in isolation, so one-step greedy attacks start
    wrong; the damage they forgo grows as h shrinks.

    At large h the sensors T = {1, 3, 4} give C_T C_T' the family's
    smallest eigenvalue, just above 1 / (2 + 2 h^2); h must keep that above
    riccati.PINV_RTOL (conservative: the a priori covariance is at least W).
    """
    lam, h = _check_family_params(lambda1, h)
    if 2.0 + 2.0 * h * h >= 1.0 / riccati.PINV_RTOL:
        raise DomainError(f"h = {h} puts 1 / (2 + 2 h^2) at or beyond the pseudo-inverse cutoff")
    A = np.diag([lam, 0.0, 0.0])
    C = np.array(
        [[1.0, h, h], [1.0, 0.0, h], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    return validate_model(
        SystemModel(
            n=3, q=4, A=A, C=C, W=np.eye(3), V=np.zeros((4, 4)),
            b=np.ones(4), omega=np.ones(4), budget_select=0.0, budget_attack=2.0,
        )
    )


def _check_family_params(lambda1: float, h: float) -> tuple[float, float]:
    """lambda1 and h as floats.  Raises DomainError unless 0 < |lambda1| < 1
    and 0 < h with h^2 below 1 / riccati.PINV_RTOL: beyond it the
    pseudo-inverse cutoff drops the informative eigenvalue of C S C' + V and
    the solves go wrong (the rule _reduction_constants applies to K)."""
    lam = float(lambda1)
    h = float(h)
    if not 0.0 < abs(lam) < 1.0:
        raise DomainError(f"need 0 < |lambda1| < 1, got {lam}")
    if not 0.0 < h < math.inf:
        raise DomainError(f"h must be positive and finite, got {h}")
    if h * h >= 1.0 / riccati.PINV_RTOL:  # an overflowing h * h is inf and fails too
        raise DomainError(f"h = {h} puts h^2 at or beyond the pseudo-inverse cutoff")
    return lam, h


def _reduction_constants(K: float, scale: int, spread: int) -> tuple[int, float, float]:
    """Z = ceil(K) * scale, the pole (Z - 1/2) / Z and the coupling gain
    2 Z ceil(sqrt(spread (Z - 1))) + 1 of a reduction instance.

    Raises DomainError unless K is finite and at least 1, and the coupled
    sensors' noise variance 1 / gain^2 stays above riccati.PINV_RTOL:
    at or below it their V counts as singular and the decisions go wrong.
    """
    if not 1.0 <= K < math.inf:
        raise DomainError(f"K must be finite and >= 1, got {K}")
    Z = math.ceil(K) * scale
    gain = 2 * Z * _ceil_sqrt(spread * (Z - 1)) + 1
    if gain * gain >= 1.0 / riccati.PINV_RTOL:  # int against float: exact, no overflow
        raise DomainError(f"K = {K} puts the coupled noise variance at the pseudo-inverse cutoff")
    return Z, (Z - 0.5) / Z, float(gain)


def build_kfss_gadget(inst: X3CInstance, K: float = 1.0) -> GadgetOutput:
    """Selection decision instance for an X3C input.

    One anchor sensor couples state 1 to every auxiliary state with gain
    epsilon; each remaining sensor is a subset row.  Under budget m+1 the
    optimal trace reaches the threshold exactly when some m subset rows
    cancel the anchor's coupling, i.e. when an exact cover exists.
    """
    m, tau = inst.m, inst.tau
    sigma_v = 1.0
    Z, lam, eps = _reduction_constants(K, (m + 1) * int(sigma_v**2 + 3), 1)
    n = 3 * m + 1
    G = encode_x3c(inst)
    C = np.zeros((tau + 1, n))
    C[0, 0] = 1.0
    C[0, 1:] = eps
    C[1:, 1:] = G
    V = np.zeros((tau + 1, tau + 1))
    V[0, 0] = sigma_v**2
    V[1:, 1:] = (sigma_v**2 / eps**2) * np.eye(tau)
    model = validate_model(
        SystemModel(
            n=n, q=tau + 1,
            A=np.diag([lam] + [0.0] * (n - 1)),
            C=C, W=np.eye(n), V=V,
            b=np.ones(tau + 1), omega=np.ones(tau + 1),
            budget_select=float(m + 1), budget_attack=0.0,
        )
    )
    threshold = K * (m + 1) * (sigma_v**2 + 3)
    return GadgetOutput(
        model=model,
        threshold=threshold,
        constants=GadgetConstants(K=K, Z=Z, lambda1=lam, coupling=eps, noise_std=sigma_v),
        kind="kfss",
    )


def build_kfsa_gadget(inst: X3CInstance, K: float = 1.0) -> GadgetOutput:
    """Attack decision instance for an X3C input.

    Element sensors couple state 1 to the subset states with gain rho;
    subset sensors pin the subset states down.  Under attack budget m the
    optimal trace exceeds the threshold exactly when removing m subset
    sensors leaves every element sensor shouting through unpinned states,
    i.e. when an exact cover exists.
    """
    m, tau = inst.m, inst.tau
    delta_v = 1.0
    Z, lam, rho = _reduction_constants(K, (tau + 2) * int(delta_v**2 + 1), m)
    n = tau + 1
    F = encode_x3c(inst).T  # 3m x tau
    q = 3 * m + tau
    C = np.zeros((q, n))
    C[: 3 * m, 0] = 1.0
    C[: 3 * m, 1:] = rho * F
    C[3 * m :, 1:] = np.eye(tau)
    V = np.zeros((q, q))
    V[: 3 * m, : 3 * m] = delta_v**2 * np.eye(3 * m)
    V[3 * m :, 3 * m :] = (delta_v**2 / rho**2) * np.eye(tau)
    model = validate_model(
        SystemModel(
            n=n, q=q,
            A=np.diag([lam] + [0.0] * (n - 1)),
            C=C, W=np.eye(n), V=V,
            b=np.ones(q), omega=np.ones(q),
            budget_select=0.0, budget_attack=float(m),
        )
    )
    threshold = K * (tau + 2) * (delta_v**2 + 1)
    return GadgetOutput(
        model=model,
        threshold=threshold,
        constants=GadgetConstants(K=K, Z=Z, lambda1=lam, coupling=rho, noise_std=delta_v),
        kind="kfsa",
    )


def gadget_to_dict(g: GadgetOutput) -> dict:
    return {
        "threshold": g.threshold,
        "kind": g.kind,
        "constants": {
            "K": g.constants.K,
            "Z": g.constants.Z,
            "lambda1": g.constants.lambda1,
            "coupling": g.constants.coupling,
            "noise_std": g.constants.noise_std,
        },
    }


def x3c_bruteforce(inst: X3CInstance, cap: int = BRUTEFORCE_CAP) -> tuple[bool, list[int] | None]:
    """Decide X3C by enumerating every m-subset of the collection.

    Returns (True, witness indices) for the lexicographically first exact
    cover, or (False, None).  Refuses instances with more than ``cap``
    candidate combinations.
    """
    if math.comb(inst.tau, inst.m) > cap:
        raise TooLarge(f"C({inst.tau},{inst.m}) exceeds enumeration cap {cap}")
    universe = frozenset(range(1, inst.universe_size + 1))
    for combo in combinations(range(inst.tau), inst.m):
        covered: set[int] = set()
        total = 0
        for i in combo:
            covered.update(inst.subsets[i])
            total += 3
        if total == len(covered) and covered == universe:
            return True, list(combo)
    return False, None


@dataclass(frozen=True)
class ReductionDecision:
    answer: bool
    trace: float
    threshold: float
    report: SolveReport


def _decide(inst: X3CInstance, K: float, solver: str, attack: bool) -> ReductionDecision:
    """Solve the selection (attack) embedding of inst with budget m + 1 (m)
    and read the answer off its trace: yes iff the trace is at most
    (strictly exceeds) the threshold."""
    gadget = (build_kfsa_gadget if attack else build_kfss_gadget)(inst, K)
    model = gadget.model
    budget = inst.m if attack else inst.m + 1
    if solver == "exhaustive":
        costs = model.omega if attack else model.b
        exhaustive = exhaustive_attack if attack else exhaustive_select
        report = exhaustive(model, costs, float(budget), "priori")
    elif solver == "greedy":
        report = (greedy_attack if attack else greedy_select)(model, budget, "priori")
    else:
        raise DomainError(f"solver must be 'greedy' or 'exhaustive', got {solver!r}")
    answer = report.trace > gadget.threshold if attack else report.trace <= gadget.threshold
    return ReductionDecision(
        answer=bool(answer), trace=report.trace, threshold=gadget.threshold, report=report
    )


def x3c_decide_via_kfss(inst: X3CInstance, K: float = 1.0, solver: str = "exhaustive") -> ReductionDecision:
    """Decide X3C through the selection embedding: answer yes iff the chosen
    solver's trace is at most the threshold.

    Exhaustive solving makes the decision exact; greedy is heuristic and may
    answer either way.
    """
    return _decide(inst, K, solver, attack=False)


def x3c_decide_via_kfsa(inst: X3CInstance, K: float = 1.0, solver: str = "exhaustive") -> ReductionDecision:
    """Decide X3C through the attack embedding: answer yes iff the chosen
    solver's trace strictly exceeds the threshold (orientation reversed from
    the selection embedding)."""
    return _decide(inst, K, solver, attack=True)


@dataclass(frozen=True)
class NullspaceBasis:
    """Orthogonal matrix N = [N1 N2] splitting R^{3m}: N1 spans the
    nullspace of the given subset rows and contains one exact coordinate
    axis per uncovered element; N2 spans the rowspace."""

    N: np.ndarray
    rank: int
    zero_columns: tuple[int, ...]

    @property
    def null_part(self) -> np.ndarray:
        return self.N[:, : self.N.shape[1] - self.rank]

    @property
    def range_part(self) -> np.ndarray:
        return self.N[:, self.N.shape[1] - self.rank :]


def no_instance_transform(rows: np.ndarray) -> NullspaceBasis:
    """Orthogonal certificate basis for a membership submatrix with at
    least one all-zero column (an uncovered element).

    The nullspace block starts with the coordinate axes of the zero columns
    (so the all-ones row vector hits exact 1 entries there) and is completed
    deterministically from the SVD nullspace; the rowspace block is the SVD
    row basis.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError(f"expected an l x 3m matrix, got shape {rows.shape}")
    dim = rows.shape[1]
    zero_cols = tuple(j for j in range(dim) if not rows[:, j].any())
    if not zero_cols:
        raise NoZeroColumn("every column has a nonzero entry; no uncovered element")
    _, sv, Vh = np.linalg.svd(rows)
    cutoff = max(rows.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cutoff))
    nullity = dim - rank

    basis: list[np.ndarray] = []
    for j in zero_cols:
        e = np.zeros(dim)
        e[j] = 1.0
        basis.append(e)
    # complete the nullspace block from the SVD basis, orthogonalizing
    # against the forced axes in a fixed order (re-orthogonalized once for
    # tight orthonormality)
    for cand in Vh[rank:]:
        v = cand.copy()
        for _ in range(2):
            for u in basis:
                v -= (u @ v) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == nullity:
            break
    if len(basis) != nullity:
        raise ArithmeticError("nullspace completion failed; inconsistent numerical rank")
    N1 = np.column_stack(basis)
    N2 = Vh[:rank].T
    return NullspaceBasis(N=np.hstack([N1, N2]), rank=rank, zero_columns=zero_cols)
