"""Lowering to the native gate set {ID, RZ, SX, X, ECR}, optimization
levels, time scheduling and XY4 dynamical-decoupling insertion.

Levels:

* L0 decomposes gate by gate.
* L1 additionally fuses each per-wire one-qubit run once and keeps a
  resynthesis only when it is strictly shorter.
* L3 resynthesizes the whole circuit from its dense unitary (width <= 3)
  with a fixed-shape emission, so native gate count and depth depend only
  on the circuit width, never on the step count.  Wider circuits run the
  L1 pipeline, and the result is named after L1.

Every transpile result is verified against the input unitary up to global
phase; a residual above 1e-8 raises TranspileError.  The source is lowered
gate by gate (once: it is also L3's input).  The output is lowered run by
run: each per-wire run of one-qubit gates is multiplied into one 2x2
matrix, so an L3 circuit of 279 native gates costs 75 matrix applications,
and the products are left for ``run_noisy`` in a bundle cache.  Both
lowerings are dense, so a circuit wider than MAX_LOWER_WIDTH raises.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

from .circuit import Circuit, apply_matrix, lower_to_unitary
from .gates import Gate, NATIVE_KINDS, canonical_angle, gate_matrix
from .noise import NoiseModel, gate_duration
from .synthesis import (
    ZERO_ANGLE,
    Stream,
    cp_stream,
    kak_stream,
    qsd_stream,
    stream_to_gates,
    _emit_matrix,
    _u,
)

if TYPE_CHECKING:
    from .simulate import BundleCache

__all__ = [
    "OptLevel",
    "TranspileError",
    "decompose_1q",
    "decompose_cp",
    "transpile",
    "ScheduledCircuit",
    "schedule",
    "insert_dd",
]

SEMANTIC_TOL = 1e-8


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
        if abs(angle) < ZERO_ANGLE:
            return []
        return [Gate("RZ", gate.qubits, (angle,))]
    return _emit_matrix(gate.qubits[0], gate_matrix(gate), fixed_shape=False)


def decompose_cp(theta: float, control: int, target: int) -> list[Gate]:
    """Controlled phase over the native set via two ECR-based CNOT blocks.

    The angle is reduced mod 2*pi; a multiple of 2*pi yields no gates.
    Product equals CP(theta) up to global phase.
    """
    angle = canonical_angle(theta)
    if abs(angle) < ZERO_ANGLE:
        return []
    return stream_to_gates(cp_stream(angle, control, target), fixed_shape=False)


def _decompose_gate(gate: Gate) -> list[Gate]:
    if gate.kind in ("BARRIER", "ECR"):
        return [gate]
    if gate.kind == "CP":
        return decompose_cp(gate.params[0], gate.qubits[0], gate.qubits[1])
    return decompose_1q(gate)


# ---------------------------------------------------------------------------
# run fusion (L1)

def _wire_runs(gates: list[Gate]) -> Iterator[tuple[Gate, ...]]:
    """The gates in an order equivalent to list order, each per-wire run of
    adjacent one-qubit gates as one item, emitted just before the next other
    gate on its wire (or at the end, in wire order).  Every other gate,
    barriers included, is an item of its own."""
    pending: dict[int, list[Gate]] = {}
    for gate in gates:
        if gate.n_qubits == 1 and gate.kind != "BARRIER":
            pending.setdefault(gate.qubits[0], []).append(gate)
            continue
        for q in gate.qubits:
            if q in pending:
                yield tuple(pending.pop(q))
        yield (gate,)
    for wire in sorted(pending):
        yield tuple(pending[wire])


def _fuse_runs(gates: list[Gate]) -> list[Gate]:
    """Fuse per-wire runs of adjacent one-qubit gates.

    A fused run is resynthesized only when the result is strictly shorter,
    so the pass never lengthens the circuit.
    """
    out: list[Gate] = []
    for run in _wire_runs(gates):
        if len(run) > 1:
            product = np.eye(2, dtype=complex)
            for g in run:
                product = gate_matrix(g) @ product
            candidate = _emit_matrix(run[0].qubits[0], product, fixed_shape=False)
            if len(candidate) < len(run):
                run = candidate
        out.extend(run)
    return out


def _lower_runs(circuit: Circuit, products: dict[tuple[Gate, ...], np.ndarray]) -> np.ndarray:
    """The circuit's dense unitary, applied one ``_wire_runs`` item at a time.

    A one-qubit run is applied as its product u = g_n ... g_1, multiplied in
    ``run_noisy``'s order and kept in ``products`` for it to reuse.
    """
    rows = np.eye(1 << circuit.width, dtype=complex)
    for run in _wire_runs(circuit.gates):
        if run[0].kind == "BARRIER":
            continue
        u = gate_matrix(run[0])
        for gate in run[1:]:
            u = gate_matrix(gate) @ u
        if run[0].n_qubits == 1:
            products[run] = u
        rows = apply_matrix(rows, u, run[0].qubits, circuit.width)
    return rows


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


def transpile(
    circuit: Circuit, level: OptLevel | int = OptLevel.L1, cache: BundleCache | None = None
) -> Circuit:
    """Rewrite a circuit over the native gate set at the given level.

    L3 above width 3 runs L1, and the result's name ends in ``-native1``.
    With a bundle ``cache``, the source lowering resumes its trail, and the
    check leaves this circuit's one-qubit run products in it for ``run_noisy``.
    """
    level = OptLevel(level)
    if level == OptLevel.L3 and circuit.width > 3:
        level = OptLevel.L1
    trail, products = (None, {}) if cache is None else (cache.source, cache.products)
    products.clear()
    # the source unitary, lowered once: the L3 input and the check's reference
    source = lower_to_unitary(circuit, trail)
    if level == OptLevel.L3:
        gates = _resynthesize(source, circuit.width)
    else:
        gates = [g for src in circuit.gates for g in _decompose_gate(src)]
        if level == OptLevel.L1:
            gates = _fuse_runs(gates)
    out = Circuit(circuit.width, name=f"{circuit.name}-native{int(level)}",
                  measured=circuit.measured)
    out.extend(gates)
    bad = [g.kind for g in out.gates if g.kind not in NATIVE_KINDS | {"BARRIER"}]
    if bad:
        raise TranspileError(f"non-native kinds left after transpile: {sorted(set(bad))}")
    residual = phase_aligned_distance(_lower_runs(out, products), source)
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


# ---------------------------------------------------------------------------
# dynamical decoupling

def _y_pulse(qubit: int) -> list[Gate]:
    # Y realized natively as RZ(-pi/2) X RZ(pi/2), up to global phase
    return [
        Gate("RZ", (qubit,), (math.pi / 2,)),
        Gate("X", (qubit,)),
        Gate("RZ", (qubit,), (-math.pi / 2,)),
    ]


def insert_dd(sc: ScheduledCircuit, nm: NoiseModel) -> ScheduledCircuit:
    """Fill idle windows with the XY4 train Y-d-X-d-Y-d-X-d.

    Each window of length at least 4 * dur_1q, the minimum that fits the
    four pulses, receives four equally spaced pulses; the free-evolution gaps
    d all equal (window - 4 * dur_1q) / 4.  Shorter windows are left
    untouched.  The pulse block multiplies to the identity up to a global
    phase, so the noiseless unitary is unchanged.
    """
    d = nm.dur_1q
    entries = [
        (start, seq, gate, dur)
        for seq, (gate, start, dur) in enumerate(
            zip(sc.circuit.gates, sc.start_times, sc.durations)
        )
    ]
    seq = len(entries)
    for qubit, t0, t1 in sc.idle_windows:
        length = t1 - t0
        if length < 4.0 * d - 1e-12:
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
