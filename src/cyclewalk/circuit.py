"""Circuit container, exact lowering to a dense unitary, the as-soon-as-possible
pass behind depth analysis and scheduling, and the line-oriented text
serialization.

Execution order is list order: ``gates[0]`` acts first.  Measurement is
circuit metadata (``measured``), not a gate, so lowering stays unitary.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .gates import TWO_QUBIT_KINDS, Gate, gate_matrix

__all__ = [
    "Circuit",
    "DepthReport",
    "lower_to_unitary",
    "Trail",
    "apply_matrix",
    "apply_circuit",
    "wire_runs",
    "RunPlan",
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
        _check_measured(self.measured, width)

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


def _check_measured(measured: tuple[int, ...], width: int) -> None:
    """Reject a measured qubit outside ``width`` or listed twice."""
    for i, q in enumerate(measured):
        if not 0 <= q < width:
            raise ValueError(f"measured qubit {q} outside width {width}")
        if q in measured[:i]:
            raise ValueError(f"measured qubit {q} repeated in {measured}")


def apply_matrix(rows: np.ndarray, m: np.ndarray, qubits, width: int) -> np.ndarray:
    """Apply a 2**k matrix on ``qubits`` to the leading index of ``rows``.

    ``rows`` has 2**width entries along axis 0 (a statevector, a unitary's
    columns or a density matrix), or it is a w-qubit density matrix given
    with width 2w: read as a vector over a doubled register, row qubit q as
    qubit q + w, on which ``m`` acts as a superoperator.  A stack of n
    matrices makes ``rows`` a stack of n arrays (any number for n = 1).  The
    result has the shape of ``rows``.  ``qubits[0]`` is the most significant
    qubit of ``m``'s index.  This is the one gate-application kernel:
    ``matmul`` on the rows permuted target bits first (the trailing axis
    never moves) reproduces ``np.tensordot`` bit for bit, per array.
    """
    gather, scatter = _row_orders(tuple(qubits), width)
    stack = rows.reshape(len(rows) if m.ndim == 3 else 1, 1 << width, -1)
    # unnamed, the gathered copy is freed before the scatter, which reuses its pages
    out = m @ stack.take(gather, axis=1).reshape(len(stack), m.shape[-1], -1)
    return out.reshape(stack.shape).take(scatter, axis=1).reshape(rows.shape)


@functools.lru_cache(maxsize=256)
def _row_orders(qubits: tuple[int, ...], width: int) -> tuple[np.ndarray, np.ndarray]:
    """apply_matrix's row order (target bits first) and its inverse, 2**width long."""
    axes = [width - 1 - q for q in qubits]
    order = axes + [ax for ax in range(width) if ax not in axes]
    index = np.arange(1 << width).reshape((2,) * width)
    back = sorted(range(width), key=order.__getitem__)  # np.argsort's code adds 0.3 MB RSS
    return index.transpose(order).reshape(-1), index.transpose(back).reshape(-1)


class Trail:
    """The arrays after each step of the last step list applied to a start array.

    ``resume(start, steps)`` returns the length n of the prefix ``steps``
    shares with the last list and keeps the start array and the arrays
    after those n steps; the caller applies ``steps[n:]`` to ``arrays[-1]``,
    appending each result.  A start array that differs in any bit begins a
    new trail.  The same steps on the same array in the same order give the
    same bits, so a resumed result equals a fresh one.  Arrays on the trail
    must not be modified in place.
    """

    def __init__(self) -> None:
        self.steps: list = []
        self.arrays: list[np.ndarray] = []

    def resume(self, start: np.ndarray, steps: list) -> int:
        first = self.arrays[0] if self.arrays else None
        if first is None or first.shape != start.shape or first.tobytes() != start.tobytes():
            self.steps, self.arrays = [], [start]
        n = 0
        # a run that raised part way left fewer arrays than steps
        for old, new in zip(self.steps[: len(self.arrays) - 1], steps):
            if old is not new and old != new:
                break
            n += 1
        self.steps = steps
        del self.arrays[n + 1:]
        return n


def apply_circuit(rows: np.ndarray, circuit: Circuit, trail: Trail | None = None) -> np.ndarray:
    """Apply the circuit's gates in order to ``rows``; barriers are no-ops.

    With a ``trail``, resume after the gates shared with its last circuit.
    """
    gates = circuit.gates
    done = 0
    if trail is not None:
        done = trail.resume(rows, list(gates))
        rows = trail.arrays[-1]
    for gate in gates[done:]:
        if gate.kind != "BARRIER":
            rows = apply_matrix(rows, gate_matrix(gate), gate.qubits, circuit.width)
        if trail is not None:
            trail.arrays.append(rows)
    return rows


def lower_to_unitary(circuit: Circuit, trail: Trail | None = None) -> np.ndarray:
    """Multiply out the circuit into a dense 2**width unitary, resuming
    ``trail`` when one is given."""
    if circuit.width > MAX_LOWER_WIDTH:
        raise ValueError(
            f"refusing to lower width {circuit.width} > {MAX_LOWER_WIDTH} to a dense matrix"
        )
    return apply_circuit(np.eye(1 << circuit.width, dtype=complex), circuit, trail)


def wire_runs(
    qubits: Sequence[tuple[int, ...]], joins: Sequence[bool]
) -> Iterator[tuple[int, ...]]:
    """The item positions in groups, in an order that keeps each wire's items
    in list order (an equivalent order for gates or noisy events).  Items act
    on ``qubits``; one with ``joins`` true acts on one wire and joins its run.
    Each run of adjacent joining items on a wire is a group, emitted just
    before that wire's next other item; every other item is a group of its
    own; the runs still open at the end follow in sorted wire order."""
    pending: dict[int, list[int]] = {}
    for i, (wires, join) in enumerate(zip(qubits, joins)):
        if join:
            pending.setdefault(wires[0], []).append(i)
            continue
        for q in wires:
            if q in pending:
                yield tuple(pending.pop(q))
        yield (i,)
    for wire in sorted(pending):
        yield tuple(pending[wire])


class RunPlan:
    """The ``wire_runs`` groups of items, each with its index among the runs
    of joining items (None for any other item); those runs and the positions
    in them; and, for ``products``, the run positions longest run first, row
    k of each at step k (a shorter run repeats its last, never multiplied)."""

    def __init__(self, qubits: Sequence[tuple[int, ...]], joins: Sequence[bool]) -> None:
        items = list(wire_runs(qubits, joins))
        self.runs = [p for p in items if joins[p[0]]]
        self.joined = [i for p in self.runs for i in p]
        index = {p: j for j, p in enumerate(self.runs)}
        self.items = [(p, index.get(p)) for p in items]
        order = sorted(range(len(self.runs)), key=lambda j: -len(self.runs[j]))
        longest = len(self.runs[order[0]]) if order else 1
        padded = [p + p[-1:] * (longest - len(p)) for p in (self.runs[j] for j in order)]
        self.steps = np.array(padded, dtype=np.intp).reshape(len(order), longest).T
        lengths = np.array([len(self.runs[j]) for j in order])
        self.active = [int(np.count_nonzero(lengths > k)) for k in range(1, longest)]
        self.back = np.array(sorted(range(len(order)), key=order.__getitem__), dtype=np.intp)

    def products(self, mats: np.ndarray) -> np.ndarray:
        """Each run's u = m_n ... m_1 (``mats``: a 2x2 matrix, or a stack of n,
        per item), one stacked matmul per step, bit for bit the scalar products."""
        stack = mats[self.steps]
        u = stack[0]
        for k, count in enumerate(self.active, 1):
            u[:count] = stack[k, :count] @ u[:count]
        return u[self.back]


def _asap_starts(gates: Sequence[Gate], durations: Sequence[float], width: int) -> list[float]:
    """As-soon-as-possible start times: a gate starts once all its qubits are
    free and holds them for its duration (a barrier, of duration 0, brings
    its qubits level).  The one ASAP pass: ``depth_report`` runs it on unit
    durations, ``transpile.schedule`` on the noise model's."""
    free = [0.0] * width
    starts = []
    for gate, dur in zip(gates, durations):
        start = max(free[q] for q in gate.qubits)
        for q in gate.qubits:
            free[q] = start + dur
        starts.append(start)
    return starts


@dataclass(frozen=True)
class DepthReport:
    """Greedy as-soon-as-possible layering of a circuit.

    Barriers separate layers (gates after a barrier cannot share a layer
    with gates before it on the barrier's qubits) and are excluded from all
    counts.
    """

    depth: int
    counts_1q: int
    counts_2q: int


def depth_report(circuit: Circuit) -> DepthReport:
    gates = circuit.gates
    durs = [int(g.kind != "BARRIER") for g in gates]
    starts = _asap_starts(gates, durs, circuit.width)
    n1 = sum([g.n_qubits == 1 for g, d in zip(gates, durs) if d])
    depth = int(max([s + d for s, d in zip(starts, durs)], default=0))
    return DepthReport(depth=depth, counts_1q=n1, counts_2q=sum(durs) - n1)


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
