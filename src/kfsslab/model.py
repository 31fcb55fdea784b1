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

PSD_EIG_FLOOR = -1e-10  # eigenvalues below this fail validation; above, clamped to 0


class ModelError(ValueError):
    """Base class for instance validation failures."""


class DimensionMismatch(ModelError):
    pass


class NotPSD(ModelError):
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
    """Check dimensions, costs and noise covariances; return a model with W
    and V symmetrized and, when needed, eigenvalue-clamped to PSD.

    Raises DimensionMismatch, NotPSD or NegativeCost listing every violation
    of the failing category.
    """
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

    for name, arr in (("A", raw.A), ("C", raw.C), ("W", raw.W), ("V", raw.V),
                      ("b", raw.b), ("omega", raw.omega)):
        if not np.all(np.isfinite(arr)):
            raise ModelError(f"{name} contains non-finite entries")
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

    W = _symmetrize_psd(raw.W, "W")
    V = _symmetrize_psd(raw.V, "V")
    return SystemModel(
        n=n, q=q, A=raw.A.copy(), C=raw.C.copy(), W=W, V=V,
        b=raw.b.copy(), omega=raw.omega.copy(),
        budget_select=float(raw.budget_select),
        budget_attack=float(raw.budget_attack),
    )


def _symmetrize_psd(M: np.ndarray, name: str) -> np.ndarray:
    sym = 0.5 * (M + M.T)
    eigvals = np.linalg.eigvalsh(sym)
    if eigvals[0] < PSD_EIG_FLOOR:
        raise NotPSD(f"{name} has eigenvalue {eigvals[0]:.3e} < {PSD_EIG_FLOOR:.0e}")
    if eigvals[0] < 0.0:
        w, U = np.linalg.eigh(sym)
        sym = (U * np.clip(w, 0.0, None)) @ U.T
        sym = 0.5 * (sym + sym.T)
    return sym


def restrict(model: SystemModel, sel: SelectionVector) -> tuple[np.ndarray, np.ndarray]:
    """Measurement matrix and noise covariance of the selected sensors.

    Rows are stacked in ascending sensor index order; the noise covariance is
    the principal submatrix of V on the same indices.  An empty selection
    yields a 0 x n matrix and a 0 x 0 covariance.
    """
    if sel.q != model.q:
        raise DimensionMismatch(f"indicator has length {sel.q}, model has q={model.q}")
    idx = list(sel.support)
    C_sel = model.C[idx, :] if idx else np.zeros((0, model.n))
    V_sel = model.V[np.ix_(idx, idx)] if idx else np.zeros((0, 0))
    return C_sel, V_sel


MODEL_JSON_KEYS = ("n", "q", "A", "C", "W", "V", "b", "omega", "budget_select", "budget_attack")


def model_to_dict(model: SystemModel) -> dict:
    return {
        "n": model.n,
        "q": model.q,
        "A": model.A.tolist(),
        "C": model.C.tolist(),
        "W": model.W.tolist(),
        "V": model.V.tolist(),
        "b": model.b.tolist(),
        "omega": model.omega.tolist(),
        "budget_select": model.budget_select,
        "budget_attack": model.budget_attack,
    }


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
