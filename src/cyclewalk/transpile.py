"""Lowering to the native gate set {ID, RZ, SX, X, ECR}, optimization
levels, time scheduling and XY4 dynamical-decoupling insertion.

Levels:

* L0 decomposes gate by gate.
* L1 additionally fuses adjacent one-qubit runs per wire (resynthesizing
  the fused matrix when that is strictly shorter), drops identity-angle
  rotations and cancels adjacent ECR pairs, to a fixed point.
* L3 resynthesizes the whole circuit from its dense unitary (width <= 3)
  with a fixed-shape emission, so native gate count and depth depend only
  on the circuit width, never on the step count.  The L1 pipeline is the
  fallback for wider circuits.

Every transpile result is verified against the input unitary up to global
phase; a residual above 1e-8 raises TranspileError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .circuit import Circuit, lower_to_unitary
from .gates import Gate, NATIVE_KINDS, canonical_angle, gate_matrix
from .noise import NoiseModel, gate_duration
from .synthesis import (
    Stream,
    cp_stream,
    kak_stream,
    qsd_stream,
    stream_to_gates,
    _emit_matrix,
    _u,
)

__all__ = [
    "OptLevel",
    "TranspileError",
    "decompose_1q",
    "decompose_cp",
    "transpile",
    "ScheduledCircuit",
    "schedule",
    "scheduled_to_text",
    "insert_dd",
    "XY4_SEQUENCE",
]

SEMANTIC_TOL = 1e-8
_ZERO_ANGLE = 1e-12


class OptLevel(IntEnum):
    L0 = 0
    L1 = 1
    L3 = 3


class TranspileError(RuntimeError):
    """Resynthesis failed to reproduce the source unitary."""


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """min over global phase of ||u - e^{i g} v||_F."""
    overlap = np.trace(u.conj().T @ v)
    if abs(overlap) < 1e-14:
        return float(np.linalg.norm(u - v))
    return float(np.linalg.norm(u * np.exp(1j * np.angle(overlap)) - v))


# ---------------------------------------------------------------------------
# per-gate decomposition

def decompose_1q(gate: Gate) -> list[Gate]:
    """Rewrite any one-qubit gate over {ID, RZ, SX, X}, up to global phase.

    Native gates pass through (RZ angles canonicalized to (-pi, pi]);
    everything else becomes at most five gates from the RZ-SX-RZ-SX-RZ
    template, with zero-angle rotations dropped.
    """
    if gate.n_qubits != 1:
        raise ValueError(f"decompose_1q needs a one-qubit gate, got {gate.kind}")
    if gate.kind in ("ID", "SX", "X"):
        return [gate]
    if gate.kind == "RZ":
        angle = canonical_angle(gate.params[0])
        if abs(angle) < _ZERO_ANGLE:
            return []
        return [Gate("RZ", gate.qubits, (angle,))]
    return _emit_matrix(gate.qubits[0], gate_matrix(gate), fixed_shape=False)


def decompose_cp(theta: float, control: int, target: int) -> list[Gate]:
    """Controlled phase over the native set via two ECR-based CNOT blocks.

    The angle is reduced mod 2*pi; a multiple of 2*pi yields no gates.
    Product equals CP(theta) up to global phase.
    """
    angle = canonical_angle(theta)
    if abs(angle) < _ZERO_ANGLE:
        return []
    return stream_to_gates(cp_stream(angle, control, target), fixed_shape=False)


def _decompose_gate(gate: Gate) -> list[Gate]:
    if gate.kind in ("BARRIER", "ECR"):
        return [gate]
    if gate.kind == "CP":
        return decompose_cp(gate.params[0], gate.qubits[0], gate.qubits[1])
    return decompose_1q(gate)


# ---------------------------------------------------------------------------
# peephole passes (L1)

def _fuse_runs(gates: list[Gate]) -> list[Gate]:
    """Fuse per-wire runs of adjacent one-qubit gates.

    A fused run is resynthesized only when the result is strictly shorter,
    so the pass monotonically shrinks the circuit and terminates.
    """
    out: list[Gate] = []
    pending: dict[int, list[Gate]] = {}

    def flush(wire: int) -> None:
        run = pending.pop(wire, [])
        if not run:
            return
        if len(run) == 1:
            out.extend(run)
            return
        product = np.eye(2, dtype=complex)
        for g in run:
            product = gate_matrix(g) @ product
        candidate = _emit_matrix(wire, product, fixed_shape=False)
        out.extend(candidate if len(candidate) < len(run) else run)

    for gate in gates:
        if gate.n_qubits == 1 and gate.kind != "BARRIER":
            if gate.kind == "RZ" and abs(canonical_angle(gate.params[0])) < _ZERO_ANGLE:
                continue
            pending.setdefault(gate.qubits[0], []).append(gate)
        else:
            for q in gate.qubits:
                flush(q)
            out.append(gate)
    for wire in sorted(pending):
        flush(wire)
    return out


def _cancel_ecr_pairs(gates: list[Gate]) -> list[Gate]:
    """Remove adjacent identical ECR pairs (ECR is an involution)."""
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        next_on: dict[int, int] = {}
        for i in range(len(gates) - 1, -1, -1):
            g = gates[i]
            if g.kind != "ECR":
                for q in g.qubits:
                    next_on[q] = i
                continue
            partners = {next_on.get(q) for q in g.qubits}
            if len(partners) == 1:
                j = partners.pop()
                if j is not None and gates[j].kind == "ECR" and gates[j].qubits == g.qubits:
                    del gates[j]
                    del gates[i]
                    changed = True
                    break
            for q in g.qubits:
                next_on[q] = i
    return gates


def _peephole(gates: list[Gate]) -> list[Gate]:
    current = gates
    for _ in range(20):
        fused = _cancel_ecr_pairs(_fuse_runs(current))
        if len(fused) == len(current):
            return fused
        current = fused
    return current


# ---------------------------------------------------------------------------
# whole-circuit resynthesis (L3)

def _resynthesize(unitary: np.ndarray, width: int) -> list[Gate]:
    """Fixed-shape native gates for the dense unitary of a width <= 3 circuit."""
    if width == 1:
        stream: Stream = [_u(0, unitary)]
    elif width == 2:
        stream = kak_stream(unitary, 1, 0)
    else:
        stream = qsd_stream(unitary, [2, 1, 0])
    return stream_to_gates(stream, fixed_shape=True)


def transpile(circuit: Circuit, level: OptLevel | int = OptLevel.L1) -> Circuit:
    """Rewrite a circuit over the native gate set at the given level."""
    level = OptLevel(level)
    # the source unitary, lowered once: the L3 input and the check's reference
    source = lower_to_unitary(circuit) if circuit.width <= 6 else None
    if level == OptLevel.L3 and circuit.width <= 3:
        gates = _resynthesize(source, circuit.width)
    else:
        gates = [g for src in circuit.gates for g in _decompose_gate(src)]
        if level >= OptLevel.L1:
            gates = _peephole(gates)
    out = Circuit(circuit.width, name=f"{circuit.name}-native{int(level)}",
                  measured=circuit.measured)
    out.extend(gates)
    bad = [g.kind for g in out.gates if g.kind not in NATIVE_KINDS | {"BARRIER"}]
    if bad:
        raise TranspileError(f"non-native kinds left after transpile: {sorted(set(bad))}")
    if source is not None:
        residual = phase_aligned_distance(lower_to_unitary(out), source)
        if not residual <= SEMANTIC_TOL:
            raise TranspileError(
                f"transpiled circuit deviates from source (residual {residual:.2e})"
            )
    return out


# ---------------------------------------------------------------------------
# scheduling

@dataclass(frozen=True)
class ScheduledCircuit:
    """A native circuit with as-soon-as-possible start times.

    ``idle_windows`` lists (qubit, t_start, t_end) gaps between consecutive
    gate events on a wire, i.e. the complement of busy time between the
    wire's first and last gate.
    """

    circuit: Circuit
    start_times: tuple[float, ...]
    durations: tuple[float, ...]
    idle_windows: tuple[tuple[int, float, float], ...]

    @property
    def total_time(self) -> float:
        if not self.start_times:
            return 0.0
        return max(s + d for s, d in zip(self.start_times, self.durations))


def _compute_idle_windows(
    circuit: Circuit, starts: list[float], durs: list[float]
) -> list[tuple[int, float, float]]:
    events: dict[int, list[tuple[float, float]]] = {}
    for gate, start, dur in zip(circuit.gates, starts, durs):
        if gate.kind == "BARRIER":
            continue
        for q in gate.qubits:
            events.setdefault(q, []).append((start, start + dur))
    windows = []
    for q, spans in sorted(events.items()):
        spans.sort()
        for (_, end), (nxt, _) in zip(spans, spans[1:]):
            if nxt - end > 1e-12:
                windows.append((q, end, nxt))
    return windows


def schedule(circuit: Circuit, nm: NoiseModel) -> ScheduledCircuit:
    """As-soon-as-possible schedule under the noise model's durations."""
    free = [0.0] * circuit.width
    starts: list[float] = []
    durs: list[float] = []
    for gate in circuit.gates:
        dur = gate_duration(gate, nm)
        start = max(free[q] for q in gate.qubits)
        for q in gate.qubits:
            free[q] = start + dur
        starts.append(start)
        durs.append(dur)
    return ScheduledCircuit(
        circuit=circuit,
        start_times=tuple(starts),
        durations=tuple(durs),
        idle_windows=tuple(_compute_idle_windows(circuit, starts, durs)),
    )


def scheduled_to_text(sc: ScheduledCircuit) -> str:
    """Circuit text format with an ``@t=<start>`` annotation per gate."""
    from .circuit import to_text

    return to_text(sc.circuit, start_times=sc.start_times)


# ---------------------------------------------------------------------------
# dynamical decoupling

XY4_SEQUENCE = "xy4"


def _y_pulse(qubit: int) -> list[Gate]:
    # Y realized natively as RZ(-pi/2) X RZ(pi/2), up to global phase
    return [
        Gate("RZ", (qubit,), (math.pi / 2,)),
        Gate("X", (qubit,)),
        Gate("RZ", (qubit,), (-math.pi / 2,)),
    ]


def insert_dd(
    sc: ScheduledCircuit,
    nm: NoiseModel,
    sequence: str = XY4_SEQUENCE,
    min_window: float | None = None,
) -> ScheduledCircuit:
    """Fill idle windows with the XY4 train Y-d-X-d-Y-d-X-d.

    Each window of length at least ``min_window`` (default 4 * dur_1q, the
    minimum that fits the four pulses) receives four equally spaced pulses;
    the free-evolution gaps d all equal (window - 4 * dur_1q) / 4.  Shorter
    windows are left untouched.  The pulse block multiplies to the identity
    up to a global phase, so the noiseless unitary is unchanged.
    """
    if sequence != XY4_SEQUENCE:
        raise ValueError(f"unsupported DD sequence {sequence!r}")
    d = nm.dur_1q
    if min_window is None:
        min_window = 4.0 * d
    if min_window < 4.0 * d - 1e-12:
        raise ValueError(f"min_window {min_window} cannot fit four pulses of {d}")
    entries = [
        (start, seq, gate, dur)
        for seq, (gate, start, dur) in enumerate(
            zip(sc.circuit.gates, sc.start_times, sc.durations)
        )
    ]
    seq = len(entries)
    for qubit, t0, t1 in sc.idle_windows:
        length = t1 - t0
        if length < min_window - 1e-12:
            continue
        gap = (length - 4.0 * d) / 4.0
        cursor = t0
        for pulse_index in range(4):
            pulses = _y_pulse(qubit) if pulse_index % 2 == 0 else [Gate("X", (qubit,))]
            for g in pulses:
                entries.append((cursor, seq, g, gate_duration(g, nm)))
                seq += 1
            cursor += d + gap
    entries.sort(key=lambda e: (e[0], e[1]))
    out = Circuit(sc.circuit.width, name=sc.circuit.name + "-dd", measured=sc.circuit.measured)
    starts: list[float] = []
    durs: list[float] = []
    for start, _, gate, dur in entries:
        out.append(gate)
        starts.append(start)
        durs.append(dur)
    return ScheduledCircuit(
        circuit=out,
        start_times=tuple(starts),
        durations=tuple(durs),
        idle_windows=tuple(_compute_idle_windows(out, starts, durs)),
    )
