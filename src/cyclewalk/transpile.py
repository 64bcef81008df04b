"""Lowering to the native gate set {ID, RZ, SX, X, ECR}, optimization
levels, time scheduling and XY4 dynamical-decoupling insertion.

Levels: L0 decomposes gate by gate.  L1 also fuses each per-wire one-qubit
run once, keeping a resynthesis only when it is strictly shorter.  L3
resynthesizes the whole circuit from its dense unitary (width <= 3) at a
fixed shape, so native gate count and depth depend only on the width, never
on the step count; wider circuits run L1 and are named after it.

Every transpile result is verified against the input unitary up to global
phase; a residual above 1e-8 raises TranspileError.  The source is lowered
gate by gate (once: it is also L3's input), the output run by run.  L1
fusion and the check share one run kernel: ``circuit.wire_runs`` groups the
per-wire one-qubit runs and ``_run_products`` multiplies them from the gates
in one stacked pass.  The check applies each 2x2 run product with
``circuit.apply_matrix`` and leaves it in a bundle cache, where
``run_noisy`` folds it into its events' superoperators.  Both lowerings
are dense, so a circuit wider than MAX_LOWER_WIDTH raises.  In a bundle,
the check's run plan and the schedule come from the cache while the
skeleton repeats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

from .circuit import Circuit, apply_matrix, lower_to_unitary, wire_runs
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
    return _emit_matrix(gate.qubits[0], gate_matrix(gate))


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
# one-qubit runs: L1 fusion and the run-wise check

def _skeleton(gates: list[Gate]) -> tuple:
    """The gate kinds and qubits: all that grouping and scheduling read."""
    return tuple([(g.kind, g.qubits) for g in gates])


# one-qubit kinds whose matrix is fixed by the kind alone
_CONSTANT_KINDS = ("ID", "SX", "X")


class _RunPlan:
    """What ``_fuse_runs`` and ``_lower_runs`` read of a skeleton: the
    ``wire_runs`` items of the gates (a barrier separates runs on its wires),
    each with its index among the one-qubit runs (None for any other gate);
    those runs; the positions of their RZ gates, of their gates of each
    constant kind (one list per kind present) and of their other gates; and
    the run indices grouped by length, with their positions as a (k, n)
    array."""

    def __init__(self, gates: list[Gate]) -> None:
        joins = [g.n_qubits == 1 and g.kind != "BARRIER" for g in gates]
        items = list(wire_runs([g.qubits for g in gates], joins))
        self.runs = [p for p in items if joins[p[0]]]
        index = {p: j for j, p in enumerate(self.runs)}
        self.items = [(p, index.get(p)) for p in items]
        by_kind: dict[str, list[int]] = {}
        for i in (i for p in self.runs for i in p):
            by_kind.setdefault(gates[i].kind, []).append(i)
        self.rz = by_kind.pop("RZ", [])
        self.constant = [by_kind.pop(kind) for kind in _CONSTANT_KINDS if kind in by_kind]
        self.other = [i for positions in by_kind.values() for i in positions]
        by_length: dict[int, list[int]] = {}
        for j, p in enumerate(self.runs):
            by_length.setdefault(len(p), []).append(j)
        self.by_length = [(js, np.array([self.runs[j] for j in js])) for js in by_length.values()]


def _run_products(gates: list[Gate], plan: _RunPlan) -> np.ndarray:
    """The products u = g_n ... g_1 of the plan's one-qubit runs, in
    ``run_noisy``'s order, as one stack: the RZ matrices built from the
    gates' angles in one call, one ``gate_matrix`` call per constant kind,
    each run length's group multiplied as a (k, n, 2, 2) stack.  Bit for bit
    the per-gate products."""
    mats = np.zeros((len(gates), 2, 2), dtype=complex)
    if plan.rz:
        theta = np.array([gates[i].params[0] for i in plan.rz])
        mats[plan.rz, 0, 0] = np.exp(-0.5j * theta)
        mats[plan.rz, 1, 1] = np.exp(0.5j * theta)
    for positions in plan.constant:
        mats[positions] = gate_matrix(gates[positions[0]])
    if plan.other:
        mats[plan.other] = [gate_matrix(gates[i]) for i in plan.other]
    products = np.empty((len(plan.runs), 2, 2), dtype=complex)
    for js, positions in plan.by_length:
        stack = mats[positions]
        u = stack[:, 0]
        for k in range(1, stack.shape[1]):
            u = stack[:, k] @ u
        products[js] = u
    return products


def _fuse_runs(gates: list[Gate]) -> list[Gate]:
    """Fuse per-wire runs of adjacent one-qubit gates, each run's product
    taken from the check's stacked ``_run_products``.

    A fused run is resynthesized only when the result is strictly shorter,
    so the pass never lengthens the circuit.
    """
    plan = _RunPlan(gates)
    products = _run_products(gates, plan)
    out: list[Gate] = []
    for positions, j in plan.items:
        run = [gates[i] for i in positions]
        if len(run) > 1:
            candidate = _emit_matrix(run[0].qubits[0], products[j])
            if len(candidate) < len(run):
                run = candidate
        out.extend(run)
    return out


def _lower_runs(circuit: Circuit, cache: BundleCache | None = None) -> np.ndarray:
    """The circuit's dense unitary, applied one ``wire_runs`` item at a time
    (barriers skipped), a one-qubit run as its 2x2 product from
    ``_run_products``.  With a bundle ``cache`` these products replace
    ``cache.products`` for ``run_noisy`` to fold, and the plan is kept while
    the skeleton repeats."""
    gates, width = circuit.gates, circuit.width
    if cache is None:
        plan, products = _RunPlan(gates), {}
    else:
        plan = cache.plan("runs", _skeleton(gates), lambda: _RunPlan(gates))
        products = cache.products = {}
    ops = _run_products(gates, plan)
    rows = np.eye(1 << width, dtype=complex)
    for positions, j in plan.items:
        gate = gates[positions[0]]
        if j is not None:
            products[tuple([gates[i] for i in positions])] = ops[j]
            rows = apply_matrix(rows, ops[j], gate.qubits, width)
        elif gate.kind != "BARRIER":
            rows = apply_matrix(rows, gate_matrix(gate), gate.qubits, width)
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
    """Rewrite a circuit over the native gate set at the given level (L3 above
    width 3 runs L1, and the result's name ends in ``-native1``).  With a
    bundle ``cache``, the source lowering resumes its trail, the check leaves
    its one-qubit run products there, and the cache notes an L3 resynthesis.
    """
    level = OptLevel(level)
    if level == OptLevel.L3 and circuit.width > 3:
        level = OptLevel.L1
    if cache is not None:
        cache.resynthesized = level == OptLevel.L3
    # the source unitary, lowered once: the L3 input and the check's reference
    source = lower_to_unitary(circuit, None if cache is None else cache.source)
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
    residual = phase_aligned_distance(_lower_runs(out, cache), source)
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
    wire's first and last gate.  ``run_noisy`` trusts all of these, so each
    gate must have one finite time >= 0 and each window 0 <= t_start < t_end.
    """

    circuit: Circuit
    start_times: tuple[float, ...]
    durations: tuple[float, ...]
    idle_windows: tuple[tuple[int, float, float], ...]

    def __post_init__(self) -> None:
        n = len(self.circuit.gates)
        if not len(self.start_times) == len(self.durations) == n:
            raise ValueError(f"need one start time and one duration for each of {n} gates")
        if not all(0.0 <= x < math.inf for x in (*self.start_times, *self.durations)):
            raise ValueError("start times and durations must be finite and >= 0")
        for q, t0, t1 in self.idle_windows:
            if not (0 <= q < self.circuit.width and 0.0 <= t0 < t1 < math.inf):
                raise ValueError(f"bad idle window {(q, t0, t1)} on width {self.circuit.width}")

    @property
    def total_time(self) -> float:
        if not self.start_times:
            return 0.0
        return max(s + d for s, d in zip(self.start_times, self.durations))


def _idle_windows(gates: list[Gate], starts: list[float], durs: list[float]) -> tuple:
    events: dict[int, list[tuple[float, float]]] = {}
    for gate, start, dur in zip(gates, starts, durs):
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
    return tuple(windows)


def _asap(circuit: Circuit, nm: NoiseModel) -> tuple[tuple, tuple, tuple]:
    """Start times, durations and idle windows of the ASAP schedule."""
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
    return tuple(starts), tuple(durs), _idle_windows(circuit.gates, starts, durs)


def schedule(
    circuit: Circuit, nm: NoiseModel, cache: BundleCache | None = None
) -> ScheduledCircuit:
    """As-soon-as-possible schedule under the noise model's durations; it
    depends only on the skeleton, so a bundle ``cache`` plans it."""
    if cache is None:
        return ScheduledCircuit(circuit, *_asap(circuit, nm))
    key = (nm, _skeleton(circuit.gates))
    return ScheduledCircuit(circuit, *cache.plan("schedule", key, lambda: _asap(circuit, nm)))


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
    windows = _idle_windows(out.gates, starts, durs)
    return ScheduledCircuit(out, tuple(starts), tuple(durs), windows)
