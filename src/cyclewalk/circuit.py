"""Circuit container, exact lowering to a dense unitary, depth analysis and
the line-oriented text serialization.

Execution order is list order: ``gates[0]`` acts first.  Measurement is
circuit metadata (``measured``), not a gate, so lowering stays unitary.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .gates import TWO_QUBIT_KINDS, Gate, gate_matrix

__all__ = [
    "Circuit",
    "DepthReport",
    "lower_to_unitary",
    "apply_matrix",
    "apply_circuit",
    "depth_report",
    "to_text",
    "from_text",
    "CircuitFormatError",
]

MAX_LOWER_WIDTH = 12


class Circuit:
    """An ordered list of gates on ``width`` qubits.

    Append-only; the width is fixed at construction and every appended gate
    is validated against it.  Builders construct a circuit once and callers
    treat it as immutable afterwards.
    """

    def __init__(self, width: int, name: str = "circuit", measured: tuple[int, ...] = ()):
        if width < 1:
            raise ValueError(f"circuit width must be >= 1, got {width}")
        if any(ch.isspace() for ch in name) or not name:
            raise ValueError(f"circuit name must be non-empty without spaces: {name!r}")
        self.width = width
        self.name = name
        self.gates: list[Gate] = []
        self.measured = tuple(measured)
        for q in self.measured:
            if not 0 <= q < width:
                raise ValueError(f"measured qubit {q} outside width {width}")

    def append(self, gate: Gate) -> "Circuit":
        for q in gate.qubits:
            if not 0 <= q < self.width:
                raise ValueError(
                    f"gate {gate.kind} on qubit {q} outside circuit width {self.width}"
                )
        self.gates.append(gate)
        return self

    def add(self, kind: str, *qubits: int, params: tuple[float, ...] = (), matrix=None) -> "Circuit":
        return self.append(Gate(kind, tuple(qubits), tuple(params), matrix))

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.append(g)
        return self

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, width={self.width}, gates={len(self.gates)})"


def apply_matrix(rows: np.ndarray, m: np.ndarray, qubits, width: int) -> np.ndarray:
    """Apply a 2**k matrix on ``qubits`` to the leading index of ``rows``.

    ``rows`` has 2**width entries along axis 0 (a statevector, a unitary's
    columns or a density matrix); the result has the shape of ``rows``.
    ``qubits[0]`` is the most significant qubit of ``m``'s index.  This is
    the one gate-application kernel: ``np.dot`` on the transposed view
    reproduces ``np.tensordot`` bit for bit, which batched ``matmul`` does not.
    """
    order, back = _axis_orders(tuple(qubits), width)
    moved = rows.reshape((2,) * width + (-1,)).transpose(order)
    out = np.dot(m, moved.reshape(1 << len(qubits), -1)).reshape(moved.shape)
    return out.transpose(back).reshape(rows.shape)


@functools.cache
def _axis_orders(qubits: tuple[int, ...], width: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """apply_matrix's axis permutation (target axes first) and its inverse."""
    axes = [width - 1 - q for q in qubits]
    order = axes + [ax for ax in range(width + 1) if ax not in axes]
    return tuple(order), tuple(sorted(range(width + 1), key=order.__getitem__))


def apply_circuit(rows: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply the circuit's gates in order to ``rows``; barriers are no-ops."""
    for gate in circuit.gates:
        if gate.kind != "BARRIER":
            rows = apply_matrix(rows, gate_matrix(gate), gate.qubits, circuit.width)
    return rows


def lower_to_unitary(circuit: Circuit) -> np.ndarray:
    """Multiply out the circuit into a dense 2**width unitary."""
    if circuit.width > MAX_LOWER_WIDTH:
        raise ValueError(
            f"refusing to lower width {circuit.width} > {MAX_LOWER_WIDTH} to a dense matrix"
        )
    return apply_circuit(np.eye(1 << circuit.width, dtype=complex), circuit)


@dataclass(frozen=True)
class DepthReport:
    """Greedy as-soon-as-possible layering of a circuit.

    ``per_layer`` holds gate indices per layer.  Barriers separate layers
    (gates after a barrier cannot share a layer with gates before it on the
    barrier's qubits) and are excluded from all counts.
    """

    depth: int
    counts_1q: int
    counts_2q: int
    per_layer: tuple[tuple[int, ...], ...]


def depth_report(circuit: Circuit) -> DepthReport:
    ready = [0] * circuit.width
    layers: list[list[int]] = []
    n1 = n2 = 0
    for idx, gate in enumerate(circuit.gates):
        if gate.kind == "BARRIER":
            floor = max(ready[q] for q in gate.qubits)
            for q in gate.qubits:
                ready[q] = floor
            continue
        layer = max(ready[q] for q in gate.qubits) + 1
        for q in gate.qubits:
            ready[q] = layer
        while len(layers) < layer:
            layers.append([])
        layers[layer - 1].append(idx)
        if gate.n_qubits == 1:
            n1 += 1
        else:
            n2 += 1
    return DepthReport(
        depth=len(layers),
        counts_1q=n1,
        counts_2q=n2,
        per_layer=tuple(tuple(layer) for layer in layers),
    )


def _format_float(x: float) -> str:
    return repr(float(x))


def to_text(circuit: Circuit, start_times=None) -> str:
    """Serialize to the line format ``KIND q... [params...]``.

    The header carries width, name and the measured qubits.  When
    ``start_times`` is given (one per gate), each line gets an ``@t=``
    annotation, the form used for scheduled circuits.
    """
    header = f"width={circuit.width} name={circuit.name}"
    if circuit.measured:
        header += " measure=" + ",".join(str(q) for q in circuit.measured)
    lines = [header]
    for i, gate in enumerate(circuit.gates):
        parts = [gate.kind] + [str(q) for q in gate.qubits]
        if gate.kind == "UNITARY":
            for entry in gate.matrix.reshape(-1):
                parts.append(_format_float(entry.real))
                parts.append(_format_float(entry.imag))
        else:
            parts.extend(_format_float(p) for p in gate.params)
        if start_times is not None:
            parts.append(f"@t={_format_float(start_times[i])}")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


class CircuitFormatError(ValueError):
    """Malformed circuit text; the message names the line number and its text."""


def _integer(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"bad {what} {token!r}") from None


def _parse_header(line: str) -> Circuit:
    fields = {}
    for item in line.split():
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"header item {item!r} is not key=value")
        if key not in ("width", "name", "measure"):
            raise ValueError(f"unknown header key {key!r}")
        fields[key] = value
    if "width" not in fields:
        raise ValueError("missing width in header")
    measured = ()
    if fields.get("measure"):
        measured = tuple(_integer(q, "measured qubit") for q in fields["measure"].split(","))
    return Circuit(_integer(fields["width"], "width"), fields.get("name", "circuit"), measured)


def _parse_gate(line: str) -> Gate:
    tokens = [t for t in line.split() if not t.startswith("@t=")]
    if not tokens:
        raise ValueError("no gate kind")
    kind, rest = tokens[0], tokens[1:]
    if kind == "BARRIER":
        return Gate(kind, tuple(_integer(t, "qubit") for t in rest))
    n_qubits = 2 if kind in TWO_QUBIT_KINDS else 1
    qubits = tuple(_integer(t, "qubit") for t in rest[:n_qubits])
    values = [float(t) for t in rest[n_qubits:]]
    if kind == "UNITARY":
        if len(values) != 8:
            raise ValueError("UNITARY line needs 8 floats")
        flat = np.array(values[0::2]) + 1j * np.array(values[1::2])
        return Gate(kind, qubits, matrix=flat.reshape(2, 2))
    return Gate(kind, qubits, tuple(values))


def from_text(text: str) -> Circuit:
    """Parse the serialization produced by :func:`to_text`.

    ``@t=`` annotations are accepted and ignored, so scheduled dumps parse
    back to their plain circuit.  A malformed line raises
    :class:`CircuitFormatError` naming its line number.
    """
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise CircuitFormatError("empty circuit text")
    n, line = lines[0]
    try:
        circuit = _parse_header(line)
        for n, line in lines[1:]:
            circuit.append(_parse_gate(line))
    except ValueError as exc:
        raise CircuitFormatError(f"line {n}: {exc}: {line.strip()!r}") from exc
    return circuit
