"""Typed gate IR and gate matrices.

Gate kinds split into one-qubit (H, X, SX, ID, RZ, PHASE, U3, UNITARY),
two-qubit (CP, ECR) and the BARRIER pseudo-gate.  Matrices follow these
conventions:

* RZ(theta) = diag(e^{-i theta/2}, e^{i theta/2});  PHASE(theta) =
  diag(1, e^{i theta}) differs from RZ only by a global phase.
* U3(theta, phi, lam) uses half-angle phases:
  [[cos(t/2), -e^{i lam/2} sin(t/2)],
   [e^{i phi/2} sin(t/2), e^{i(lam+phi)/2} cos(t/2)]].
* ECR = (I (x) X - X (x) Y) / sqrt(2), with the first tensor factor acting
  on ``qubits[0]``.
* For multi-qubit gates, ``qubits[0]`` is the most significant index of the
  gate-local matrix (the control, for CP).

Within a circuit of width w the global basis index is sum_q 2**q * bit(q),
i.e. qubit 0 is the least significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Gate",
    "ONE_QUBIT_KINDS",
    "TWO_QUBIT_KINDS",
    "NATIVE_KINDS",
    "gate_matrix",
    "canonical_angle",
    "rz_matrix",
    "phase_matrix",
    "u3_matrix",
    "SX_MATRIX",
    "X_MATRIX",
    "H_MATRIX",
    "ECR_MATRIX",
]

ONE_QUBIT_KINDS = frozenset({"H", "X", "SX", "ID", "RZ", "PHASE", "U3", "UNITARY"})
TWO_QUBIT_KINDS = frozenset({"CP", "ECR"})
NATIVE_KINDS = frozenset({"ID", "RZ", "SX", "X", "ECR"})

_PARAM_COUNT = {"RZ": 1, "PHASE": 1, "CP": 1, "U3": 3}

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
SX_MATRIX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
ECR_MATRIX = (np.kron(np.eye(2), X_MATRIX) - np.kron(X_MATRIX, _Y)) / math.sqrt(2)


def rz_matrix(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def phase_matrix(theta: float) -> np.ndarray:
    return np.array([[1, 0], [0, np.exp(1j * theta)]], dtype=complex)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(0.5j * lam) * s],
            [np.exp(0.5j * phi) * s, np.exp(0.5j * (lam + phi)) * c],
        ]
    )


def canonical_angle(theta: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    reduced = math.fmod(theta, 2.0 * math.pi)
    if reduced > math.pi:
        reduced -= 2.0 * math.pi
    elif reduced <= -math.pi:
        reduced += 2.0 * math.pi
    return reduced


@dataclass(frozen=True, eq=False)
class Gate:
    """One gate application: a kind, target qubits and optional parameters.

    UNITARY gates carry an explicit 2x2 matrix payload; BARRIER spans any
    set of qubits and has no matrix.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()
    matrix: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in ONE_QUBIT_KINDS | TWO_QUBIT_KINDS | {"BARRIER"}:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} gate has repeated qubits {self.qubits}")
        if self.kind in ONE_QUBIT_KINDS and len(self.qubits) != 1:
            raise ValueError(f"{self.kind} takes exactly 1 qubit, got {self.qubits}")
        if self.kind in TWO_QUBIT_KINDS and len(self.qubits) != 2:
            raise ValueError(f"{self.kind} takes exactly 2 qubits, got {self.qubits}")
        if self.kind == "BARRIER" and not self.qubits:
            raise ValueError("BARRIER needs at least one qubit")
        expected = _PARAM_COUNT.get(self.kind, 0)
        if len(self.params) != expected:
            raise ValueError(
                f"{self.kind} takes {expected} parameter(s), got {len(self.params)}"
            )
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"{self.kind} parameters must be finite, got {self.params}")
        if self.kind == "UNITARY":
            if self.matrix is None or self.matrix.shape != (2, 2):
                raise ValueError("UNITARY gate needs a 2x2 matrix payload")
            defect = np.linalg.norm(
                self.matrix @ self.matrix.conj().T - np.eye(2)
            )
            if not (defect <= 1e-12):
                raise ValueError(f"UNITARY payload is not unitary (defect {defect:.2e})")
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} does not take a matrix payload")

    @property
    def n_qubits(self) -> int:
        return len(self.qubits)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.qubits, self.params) != (other.kind, other.qubits, other.params):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or bool(np.array_equal(self.matrix, other.matrix))

    def __hash__(self) -> int:
        return hash((self.kind, self.qubits, self.params))


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of the gate in its local qubit ordering (qubits[0] = MSB)."""
    kind = gate.kind
    if kind == "H":
        return H_MATRIX
    if kind == "X":
        return X_MATRIX
    if kind == "SX":
        return SX_MATRIX
    if kind == "ID":
        return np.eye(2, dtype=complex)
    if kind == "RZ":
        return rz_matrix(gate.params[0])
    if kind == "PHASE":
        return phase_matrix(gate.params[0])
    if kind == "U3":
        return u3_matrix(*gate.params)
    if kind == "UNITARY":
        return gate.matrix
    if kind == "CP":
        out = np.eye(4, dtype=complex)
        out[3, 3] = np.exp(1j * gate.params[0])
        return out
    if kind == "ECR":
        return ECR_MATRIX
    raise ValueError(f"gate kind {kind!r} has no matrix")
