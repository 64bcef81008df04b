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
    "CONSTANT_MATRICES",
    "gate_matrix",
    "canonical_angle",
    "unitarity_defect",
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
# kind -> (qubit count, parameter count); a BARRIER takes any nonempty qubit set
_SHAPES = {
    **dict.fromkeys(ONE_QUBIT_KINDS, (1, 0)), **dict.fromkeys(TWO_QUBIT_KINDS, (2, 0)),
    "RZ": (1, 1), "PHASE": (1, 1), "U3": (1, 3), "CP": (2, 1), "BARRIER": (None, 0),
}
_MAX_ANGLE = 1e6

H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
SX_MATRIX = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
ECR_MATRIX = (np.kron(np.eye(2), X_MATRIX) - np.kron(X_MATRIX, _Y)) / math.sqrt(2)

# the matrices fixed by the kind alone, shared by every gate of that kind
CONSTANT_MATRICES = {
    "H": H_MATRIX, "X": X_MATRIX, "SX": SX_MATRIX, "ID": np.eye(2, dtype=complex),
    "ECR": ECR_MATRIX,
}
for _m in CONSTANT_MATRICES.values():
    _m.flags.writeable = False


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


def unitarity_defect(m: np.ndarray) -> np.ndarray | float:
    """||M M^dag - I||_F of one matrix or of each of a stack; NaN, and no
    warning, where an entry is not finite or the product overflows."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.linalg.norm(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1]), axis=(-2, -1))


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
        shape = _SHAPES.get(self.kind)
        if shape is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_qubits, n_params = shape
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"{self.kind} gate has repeated qubits {self.qubits}")
        if n_qubits is None:
            if not self.qubits:
                raise ValueError("BARRIER needs at least one qubit")
        elif len(self.qubits) != n_qubits:
            plural = "s" if n_qubits > 1 else ""
            raise ValueError(
                f"{self.kind} takes exactly {n_qubits} qubit{plural}, got {self.qubits}"
            )
        if len(self.params) != n_params:
            raise ValueError(f"{self.kind} takes {n_params} parameter(s), got {len(self.params)}")
        # NaN and +-inf fail the bound too; canonical_angle reduces by the float
        # 2*pi, 2.45e-16 short of the true value, so a reduced angle drifts by
        # |theta| * 3.9e-17: at most 4e-11 here, far inside transpile's 1e-8
        for p in self.params:
            if not -_MAX_ANGLE <= p <= _MAX_ANGLE:
                if not all(map(math.isfinite, self.params)):
                    raise ValueError(f"{self.kind} parameters must be finite, got {self.params}")
                raise ValueError(
                    f"{self.kind} parameters must be at most {_MAX_ANGLE:g} in magnitude, "
                    f"got {self.params}"
                )
        if self.kind == "UNITARY":
            if self.matrix is None or self.matrix.shape != (2, 2):
                raise ValueError("UNITARY gate needs a 2x2 matrix payload")
            defect = unitarity_defect(self.matrix)
            if not (defect <= 1e-12):
                raise ValueError(f"UNITARY payload is not unitary (defect {defect:.2e})")
        elif self.matrix is not None:
            raise ValueError(f"{self.kind} does not take a matrix payload")
        # dicts keyed by tuples of gates rehash every gate on each lookup
        object.__setattr__(self, "_hash", hash((self.kind, self.qubits, self.params)))

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
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled gate hashes as its process does
        return Gate, (self.kind, self.qubits, self.params, self.matrix)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Dense matrix of the gate in its local qubit ordering (qubits[0] = MSB)."""
    kind = gate.kind
    if kind in CONSTANT_MATRICES:
        return CONSTANT_MATRICES[kind]
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
    raise ValueError(f"gate kind {kind!r} has no matrix")
