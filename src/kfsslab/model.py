"""Problem instance data model: system matrices, sensor indicator vectors,
steady-state results, validation and the JSON wire format.

A problem instance is a discrete-time linear system x[k+1] = A x[k] + w[k]
observed by q candidate scalar sensors y_i[k] = c_i x[k] + v_i[k], together
with per-sensor selection/attack costs and budgets.  Every sensor row is a
scalar measurement (1 x n); vector-valued sensors are rejected at validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

PSD_EIG_FLOOR = -1e-10  # eigenvalues below this * max(1, largest) are refused; above, round-off taken as 0


class ModelError(ValueError):
    """Base class for instance validation failures."""


class DimensionMismatch(ModelError):
    pass


class NotPSD(ModelError):
    pass


class NonFiniteInput(ModelError):
    pass


class NegativeCost(ModelError):
    pass


def as_integer(value, name: str, error: type[ValueError] = ModelError) -> int:
    """A count or index as an int.  Raises error unless it is an integral
    number, so that 3.6 is refused instead of truncated to 3."""
    try:
        if float(value).is_integer():
            return int(value)
    except (TypeError, ValueError):
        pass
    raise error(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SelectionVector:
    """0-1 indicator over the q sensors.  As a selection, bit i = 1 iff
    sensor i is selected; as an attack (the alias AttackVector), bit i = 1
    iff sensor i is removed.  A solver report's ``mode`` says which."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"indicator bits must be 0 or 1, got {self.bits}")

    @classmethod
    def from_support(cls, q: int, support: Sequence[int]) -> "SelectionVector":
        bits = [0] * q
        for i in support:
            if not 0 <= i < q or bits[i]:
                raise ValueError(f"support index {i} is repeated or outside 0..{q - 1}")
            bits[i] = 1
        return cls(tuple(bits))

    @property
    def q(self) -> int:
        return len(self.bits)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, b in enumerate(self.bits) if b)

    @property
    def count(self) -> int:
        return sum(self.bits)


AttackVector = SelectionVector


def complement(indicator: SelectionVector) -> SelectionVector:
    """Bitwise complement.

    For an attack this is the survivor selection (bit i = 1 iff sensor i is
    not attacked); applying it twice returns the original indicator.
    """
    if not isinstance(indicator, SelectionVector):
        raise TypeError(f"expected an indicator vector, got {type(indicator).__name__}")
    return SelectionVector(tuple(1 - b for b in indicator.bits))


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady-state error covariance, or the symbolic value "infinite" for
    undetectable pairs.  ``trace`` is ``math.inf`` in the infinite case so
    comparisons order it above every finite value."""

    cov: np.ndarray | None
    trace: float
    iterations: int

    @classmethod
    def finite(cls, cov: np.ndarray, iterations: int) -> "SteadyStateResult":
        cov = np.asarray(cov, dtype=float)
        return cls(cov=cov, trace=float(np.trace(cov)), iterations=iterations)

    @classmethod
    def infinite(cls) -> "SteadyStateResult":
        return cls(cov=None, trace=math.inf, iterations=0)

    @property
    def is_finite(self) -> bool:
        return self.cov is not None

    @property
    def diag(self) -> tuple[float, ...] | None:
        if self.cov is None:
            return None
        return tuple(float(x) for x in np.diag(self.cov))


@dataclass
class SystemModel:
    """Full problem instance.

    A is n x n, C stacks the q scalar sensor rows (q x n), W is the n x n
    process noise covariance, V the q x q measurement noise covariance, b and
    omega the per-sensor selection and attack costs.
    """

    n: int
    q: int
    A: np.ndarray
    C: np.ndarray
    W: np.ndarray
    V: np.ndarray
    b: np.ndarray = field(default=None)
    omega: np.ndarray = field(default=None)
    budget_select: float = 0.0
    budget_attack: float = 0.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=float)
        self.C = np.asarray(self.C, dtype=float)
        self.W = np.asarray(self.W, dtype=float)
        self.V = np.asarray(self.V, dtype=float)
        if self.b is None:
            self.b = np.ones(self.q)
        if self.omega is None:
            self.omega = np.ones(self.q)
        self.b = np.asarray(self.b, dtype=float)
        self.omega = np.asarray(self.omega, dtype=float)


def validate_model(raw: SystemModel) -> SystemModel:
    """Check dimensions, costs and noise covariances by the rules every solve
    applies (noise_root); return a model with the symmetric parts of W and V,
    which every solve reads, unclamped: psd_root alone takes a round-off
    eigenvalue below 0 as 0, so a raw model gets its copy's answers.

    Raises DimensionMismatch, NotPSD or NegativeCost listing every violation
    of the failing category, NonFiniteInput naming a non-finite array."""
    problems = []
    n, q = raw.n, raw.q
    if n < 1 or q < 1:
        raise DimensionMismatch(f"need n >= 1 and q >= 1, got n={n}, q={q}")
    for name, mat, shape in (
        ("A", raw.A, (n, n)),
        ("C", raw.C, (q, n)),
        ("W", raw.W, (n, n)),
        ("V", raw.V, (q, q)),
    ):
        if np.asarray(mat).shape != shape:
            problems.append(f"{name} must be {shape[0]}x{shape[1]}, got {np.asarray(mat).shape}")
    for name, vec in (("b", raw.b), ("omega", raw.omega)):
        if np.asarray(vec).shape != (q,):
            problems.append(f"{name} must have length {q}, got shape {np.asarray(vec).shape}")
    if problems:
        raise DimensionMismatch("; ".join(problems))

    check_finite(A=raw.A, C=raw.C, W=raw.W, V=raw.V, b=raw.b, omega=raw.omega)
    if not (math.isfinite(raw.budget_select) and math.isfinite(raw.budget_attack)):
        raise ModelError("budgets must be finite")

    cost_problems = []
    if np.any(raw.b < 0):
        cost_problems.append("selection costs must be nonnegative")
    if np.any(raw.omega < 0):
        cost_problems.append("attack costs must be nonnegative")
    if raw.budget_select < 0 or raw.budget_attack < 0:
        cost_problems.append("budgets must be nonnegative")
    if cost_problems:
        raise NegativeCost("; ".join(cost_problems))

    return SystemModel(
        n=n, q=q, A=raw.A.copy(), C=raw.C.copy(), W=noise_root(raw.W, "W")[0], V=noise_root(raw.V, "V")[0],
        b=raw.b.copy(), omega=raw.omega.copy(),
        budget_select=float(raw.budget_select),
        budget_attack=float(raw.budget_attack),
    )


def check_finite(**arrays) -> None:
    """Raise NonFiniteInput, naming the array, for the first of ``arrays``
    with an entry that is not finite: no kernel gives such input an answer."""
    for name, M in arrays.items():
        if not np.isfinite(M).all():
            raise NonFiniteInput(f"{name} has an entry that is not finite")


def symmetric(X: np.ndarray) -> np.ndarray:
    """Symmetric part of X (n x n or a stack), halved first: no overflow near the float maximum."""
    half = 0.5 * X
    return half + half.swapaxes(-1, -2)


def noise_root(M: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one rule for a noise covariance M (W, V or Sigma; n x n or a stack) named ``name``:
    NonFiniteInput unless M is finite, then (sym, *psd_root(sym, name)), sym = symmetric(M)."""
    check_finite(**{name: M})
    sym = symmetric(M)
    return (sym, *psd_root(sym, name))


def psd_root(X: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """(w, L) for a PSD X (n x n or a stack, lower triangle read): its
    eigenvalues w, ascending, and X = L L', negative ones taken as 0.  Raises
    NotPSD, naming X ``name``, for one below PSD_EIG_FLOOR * max(1, largest)."""
    w, U = np.linalg.eigh(X)
    low = w[..., :1] < PSD_EIG_FLOOR * np.maximum(1.0, w[..., -1:])
    if low.any():
        raise NotPSD(f"{name} has eigenvalue {w[..., :1][low].min():.3e} < {PSD_EIG_FLOOR:.0e} * max(1, largest)")
    return w, U * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def restrict(model: SystemModel, sel: SelectionVector) -> tuple[np.ndarray, np.ndarray]:
    """Measurement matrix and noise covariance of the selected sensors.

    Rows are stacked in ascending sensor index order; the noise covariance is
    the principal submatrix of V on the same indices.  An empty selection
    yields a 0 x n matrix and a 0 x 0 covariance.
    """
    if sel.q != model.q:
        raise DimensionMismatch(f"indicator has length {sel.q}, model has q={model.q}")
    idx = list(sel.support)
    return model.C[idx, :], model.V[np.ix_(idx, idx)]


MODEL_JSON_KEYS = ("n", "q", "A", "C", "W", "V", "b", "omega", "budget_select", "budget_attack")


def model_to_dict(model: SystemModel) -> dict:
    # tolist(): nested lists for the arrays, a plain int or float for n, q and the budgets
    return {key: np.asarray(getattr(model, key)).tolist() for key in MODEL_JSON_KEYS}


def model_from_dict(data: dict) -> SystemModel:
    missing = [k for k in MODEL_JSON_KEYS if k not in data]
    if missing:
        raise ModelError(f"instance JSON missing keys: {missing}")
    budgets = [data["budget_select"], data["budget_attack"]]
    try:
        budgets = [float(x) for x in budgets]
    except (TypeError, ValueError):
        raise ModelError(f"budget_select and budget_attack must be numbers, got {budgets}") from None
    arrays = {}
    for key in ("A", "C", "W", "V", "b", "omega"):
        try:
            arrays[key] = np.asarray(data[key], dtype=float)
        except (TypeError, ValueError):
            raise ModelError(f"{key} must be an array of numbers, got {data[key]!r}") from None
    return SystemModel(
        n=as_integer(data["n"], "n"),
        q=as_integer(data["q"], "q"),
        **arrays,
        budget_select=budgets[0], budget_attack=budgets[1],
    )


def loads_model(text: str) -> SystemModel:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"invalid instance JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ModelError("instance JSON must be an object")
    return model_from_dict(data)
