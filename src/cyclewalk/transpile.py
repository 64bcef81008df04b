"""Lowering to the native gate set {ID, RZ, SX, X, ECR}, optimization
levels, time scheduling and XY4 dynamical-decoupling insertion.

Levels: L0 decomposes gate by gate, each distinct gate of a bundle once.
L1 also fuses each per-wire one-qubit run once, keeping a resynthesis only
when it is strictly shorter.  L3 resynthesizes the whole circuit from its dense
unitary (width <= 3) at a fixed shape, a bundle's circuits in one stacked
pass, so gate count and depth depend only on the width; wider circuits run
L1 and are named after it.

Every transpile result is verified against the input unitary up to global
phase; a residual above 1e-8 raises TranspileError.  The source is lowered
gate by gate (once: it is also L3's input), the output run by run, each run
of consecutive rows of one skeleton as one stack (at L3, all of a bundle's
t).  One kernel, ``run_products``, forms every one-qubit run product, for L1
fusion, the check and ``run_noisy``: the runs of gate lists of one skeleton,
multiplied by ``circuit.RunPlan`` in one stacked pass.  The check forms each
two-qubit gate with the runs leading into it, g (u_hi (x) u_lo), in one
more, and applies each step to the stack in one ``circuit.apply_matrix``
call.  Both lowerings are dense, so a circuit wider than MAX_LOWER_WIDTH
raises.  A bundle cache plans the rows and residuals of all of a bundle's t
at once, at every level, and the schedule (times checked once) per skeleton.

A schedule is its start times and durations; its idle windows, where XY4
pulses go and relaxation acts, are found in the pass that checks them.  The
start times come from the ASAP pass that ``circuit.depth_report`` also runs.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from typing import TYPE_CHECKING

import numpy as np

from .circuit import Circuit, RunPlan, Trail, _asap_starts, apply_matrix, lower_to_unitary
from .gates import CONSTANT_MATRICES, NATIVE_KINDS, Gate, canonical_angle, gate_matrix
from .noise import NoiseModel, gate_duration
from .synthesis import (
    ZERO_ANGLE,
    Stream,
    cp_stream,
    kak_stream,
    qsd_stream,
    stream_to_gates,
    _emit_matrix,
    _kron2,
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
    "run_products",
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
    return _emit_matrix(gate.qubits, gate_matrix(gate)[None])[0]


def decompose_cp(theta: float, control: int, target: int) -> list[Gate]:
    """Controlled phase over the native set via two ECR-based CNOT blocks.

    The angle is reduced mod 2*pi; a multiple of 2*pi yields no gates.
    Product equals CP(theta) up to global phase.
    """
    angle = canonical_angle(theta)
    if abs(angle) < ZERO_ANGLE:
        return []
    return stream_to_gates(cp_stream(angle, control, target))[0]


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


def _one_qubit_runs(gates: Sequence[Gate]) -> RunPlan:
    """``RunPlan.of_items`` over the gates' one-qubit runs; barriers split runs."""
    return RunPlan.of_items([g.qubits for g in gates],
                            [g.n_qubits == 1 and g.kind != "BARRIER" for g in gates])


def _check_plan(gates: list[Gate]) -> tuple[RunPlan, list, np.ndarray]:
    """What ``_lower_runs`` reads of a skeleton: its one-qubit runs; the check's
    steps (fused?, index, qubits), a two-qubit gate with its leading runs or a
    run closed by a barrier or the end; the fused (position, hi run, lo run)."""
    plan = _one_qubit_runs(gates)
    # wire_runs emits a run just before its wire's next other item
    lead: dict[int, int] = {}  # the runs that no gate or barrier took yet
    fused, check = [], []
    for positions, j in plan.items:
        gate = gates[positions[0]]
        if j is not None:
            lead[gate.qubits[0]] = j
        elif gate.kind == "BARRIER":
            check += [(False, lead.pop(q), (q,)) for q in gate.qubits if q in lead]
        else:
            check.append((True, len(fused), gate.qubits))
            fused.append((positions[0], *[lead.pop(q, -1) for q in gate.qubits]))
    check += [(False, j, (q,)) for q, j in lead.items()]
    return plan, check, np.array(fused, dtype=np.intp).reshape(-1, 3).T


def run_products(rows: Sequence[Sequence[Gate]], plan: RunPlan) -> np.ndarray:
    """The products u = g_n ... g_1 of the plan's one-qubit runs in each of
    ``rows``, gate lists of one skeleton, as a (runs, rows, 2, 2) stack: the
    RZ matrices from all rows' angles in one ``np.exp``, one shared matrix
    per constant kind, ``gate_matrix`` for any other kind, then
    ``RunPlan.products``.  Bit for bit the per-gate products."""
    first, n = rows[0], len(rows)
    by_kind: dict[str, list[int]] = {}
    for i in plan.joined:
        by_kind.setdefault(first[i].kind, []).append(i)
    mats = np.zeros((len(first), n, 2, 2), dtype=complex)
    rz = by_kind.pop("RZ", [])
    theta = np.array([row[i].params[0] for i in rz for row in rows]).reshape(-1, n, 1)
    mats.reshape(-1, n, 4)[rz, :, ::3] = np.exp(theta * [-0.5j, 0.5j])  # the diagonals
    for kind, positions in by_kind.items():
        mats[positions] = (CONSTANT_MATRICES[kind] if kind in CONSTANT_MATRICES else np.reshape(
            [gate_matrix(row[i]) for i in positions for row in rows], (-1, n, 2, 2)))
    return plan.products(mats)


def _fuse_runs(gates: list[Gate]) -> list[Gate]:
    """Fuse per-wire runs of adjacent one-qubit gates, each run's product
    taken from one stacked ``run_products`` call and all runs of several
    gates emitted by one ``_emit_matrix`` call.

    A fused run is resynthesized only when the result is strictly shorter,
    so the pass never lengthens the circuit.
    """
    plan = _one_qubit_runs(gates)
    products = run_products([gates], plan)[:, 0]
    multi = [j for j, positions in enumerate(plan.runs) if len(positions) > 1]
    wires = [gates[plan.runs[j][0]].qubits[0] for j in multi]
    emitted = dict(zip(multi, _emit_matrix(wires, products[multi])))
    out: list[Gate] = []
    for positions, j in plan.items:
        run = [gates[i] for i in positions]
        candidate = emitted.get(j)
        out.extend(candidate if candidate is not None and len(candidate) < len(run) else run)
    return out


def _lower_runs(rows: Sequence[Sequence[Gate]], width: int) -> np.ndarray:
    """The (n, 2**w, 2**w) stack of the dense unitaries of ``rows``, gate lists
    on ``width`` qubits.  Each run of consecutive rows of one skeleton is one
    stack, applied one check step of its plan at a time: the runs as their
    2x2 products u from one ``run_products`` call, each two-qubit gate g as
    g (u_hi (x) u_lo), formed in one stacked pass."""
    done = []
    for group in (list(g) for _, g in itertools.groupby(rows, _skeleton)):
        plan, check, fused = _check_plan(group[0])
        ops, n = run_products(group, plan), len(group)  # padded adds the identity as run -1
        padded = np.concatenate([ops, np.broadcast_to(CONSTANT_MATRICES["ID"], (1, n, 2, 2))])
        entanglers = np.reshape([gate_matrix(r[i]) for i in fused[0] for r in group], (-1, n, 4, 4))
        stacks = (ops, entanglers @ _kron2(*padded[fused[1:]]))  # g (u_hi (x) u_lo)
        out = np.array([np.eye(1 << width, dtype=complex)] * n)
        for is_fused, k, qubits in check:
            out = apply_matrix(out, stacks[is_fused][k], qubits, width)
        done.append(out)
    return np.concatenate(done)


# ---------------------------------------------------------------------------
# the transpile pass: emit the native rows, check them in one stack

def _native(bundle: tuple[Circuit, ...], level: OptLevel) -> tuple:
    """The native gates of each of ``bundle``'s circuits, of one width, and the
    residual of each against its source, lowered through one trail (none for a
    lone circuit): at L3 from one stacked fixed-shape resynthesis, else gate by
    gate, each distinct gate of the bundle decomposed once (fused at L1)."""
    trail = Trail() if len(bundle) > 1 else None
    sources = np.array([lower_to_unitary(c, trail) for c in bundle])
    width = bundle[0].width
    if level == OptLevel.L3:
        stream: Stream = ([_u(0, sources)] if width == 1 else kak_stream(sources, 1, 0)
                          if width == 2 else qsd_stream(sources, [2, 1, 0]))
        rows = stream_to_gates(stream, fixed_shape=True)
    else:
        # each distinct source gate once: the builders share their gates across steps
        decompose = functools.cache(_decompose_gate)
        rows = [[g for src in c.gates for g in decompose(src)] for c in bundle]
        if level == OptLevel.L1:
            rows = [_fuse_runs(gates) for gates in rows]
    return rows, [phase_aligned_distance(u, s) for u, s in zip(_lower_runs(rows, width), sources)]


def transpile(
    circuit: Circuit, level: OptLevel | int = OptLevel.L1, cache: BundleCache | None = None
) -> Circuit:
    """Rewrite a circuit over the native gate set at the given level (L3 above
    width 3 runs L1, and the result's name ends in ``-native1``).  With a
    bundle ``cache``, the first call for one of its ``circuits`` lowers,
    emits and checks them all, at every level, and each call takes its own
    row's gates and residual from the cache's plan and raises only for its
    own row.
    """
    level = OptLevel(level)
    if level == OptLevel.L3 and circuit.width > 3:
        level = OptLevel.L1
    bundle = cache.circuits if cache is not None and circuit in cache.circuits else (circuit,)
    build = lambda: _native(bundle, level)  # noqa: E731
    rows, residuals = build() if cache is None else cache.plan("native", (level, bundle), build)
    out = Circuit(circuit.width, name=f"{circuit.name}-native{int(level)}",
                  measured=circuit.measured)
    out.extend(rows[bundle.index(circuit)])
    bad = [g.kind for g in out.gates if g.kind not in NATIVE_KINDS and g.kind != "BARRIER"]
    if bad:
        raise TranspileError(f"non-native kinds left after transpile: {sorted(set(bad))}")
    residual = residuals[bundle.index(circuit)]
    if not residual <= SEMANTIC_TOL:
        raise TranspileError(
            f"{out.name} deviates from its source {circuit.name} (residual {residual:.2e})"
        )
    return out


# ---------------------------------------------------------------------------
# scheduling

@dataclass(frozen=True)
class ScheduledCircuit:
    """A native circuit with a start time and a duration for each gate.

    ``run_noisy`` trusts the times as given, so each gate must have one
    finite time >= 0 and start no earlier than the gates before it on its
    qubits, and a gate of nonzero duration no earlier than their ends (to
    1e-12 * max(1, t) at time t, above the few-ulp rounding of summed times).
    A barrier takes no time.  The same pass finds ``idle_windows``, (qubit,
    t_start, t_end) by wire, then time: the gaps beyond that slack in each
    wire's busy time (barriers not counted) between its first and last gate.
    """

    circuit: Circuit
    start_times: tuple[float, ...]
    durations: tuple[float, ...]
    idle_windows: tuple[tuple[int, float, float], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.circuit.gates)
        if not len(self.start_times) == len(self.durations) == n:
            raise ValueError(f"need one start time and one duration for each of {n} gates")
        if not all(0.0 <= x < math.inf for x in (*self.start_times, *self.durations)):
            raise ValueError("start times and durations must be finite and >= 0")
        # per wire: the latest start, and the end of the busy time so far (no
        # entry before the wire's first gate that is not a barrier)
        last = [0.0] * self.circuit.width
        busy: dict[int, float] = {}
        windows = []
        for i, (gate, start, dur) in enumerate(
            zip(self.circuit.gates, self.start_times, self.durations)
        ):
            barrier = gate.kind == "BARRIER"
            if barrier and dur:
                raise ValueError(f"gate {i} (BARRIER) has duration {dur}, not 0")
            end = start + dur
            slack = 1e-12 * (start if start > 1.0 else 1.0)
            for q in gate.qubits:
                if start < last[q]:
                    raise ValueError(f"gate {i} ({gate.kind}) starts at {start}, before "
                                     f"an earlier gate on qubit {q} at {last[q]}")
                last[q] = start
                if barrier:
                    continue
                prev = busy.get(q, start)
                if start - prev > slack:
                    windows.append((q, prev, start))
                elif dur and prev - start > slack:
                    raise ValueError(f"gate {i} ({gate.kind}) starts at {start}, before "
                                     f"an earlier gate on qubit {q} ends at {prev}")
                busy[q] = end if end > prev else prev
        object.__setattr__(self, "idle_windows", tuple(sorted(windows)))

    @property
    def total_time(self) -> float:
        if not self.start_times:
            return 0.0
        return max(s + d for s, d in zip(self.start_times, self.durations))


def _asap(circuit: Circuit, nm: NoiseModel) -> ScheduledCircuit:
    """The ASAP schedule, its times checked and idle windows found."""
    durs = tuple([gate_duration(g, nm) for g in circuit.gates])
    return ScheduledCircuit(circuit, tuple(_asap_starts(circuit.gates, durs, circuit.width)), durs)


def schedule(
    circuit: Circuit, nm: NoiseModel, cache: BundleCache | None = None
) -> ScheduledCircuit:
    """As-soon-as-possible schedule under the noise model's durations; it depends
    only on the skeleton, so a bundle ``cache`` plans it, times checked once."""
    if cache is None:
        return _asap(circuit, nm)
    planned = cache.plan("schedule", (nm, _skeleton(circuit.gates)), lambda: _asap(circuit, nm))
    sc = object.__new__(ScheduledCircuit)  # the key fixes all that __post_init__ reads
    sc.__dict__.update(vars(planned), circuit=circuit)
    return sc


# ---------------------------------------------------------------------------
# dynamical decoupling

@functools.lru_cache(maxsize=64)
def _y_pulse(qubit: int) -> tuple[Gate, ...]:
    # Y realized natively as RZ(-pi/2) X RZ(pi/2), up to global phase; one
    # set of pulse gates per wire, shared by every window and circuit
    return (Gate("RZ", (qubit,), (math.pi / 2,)), Gate("X", (qubit,)),
            Gate("RZ", (qubit,), (-math.pi / 2,)))


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
        if length < 4.0 * d - 1e-12 * max(1.0, t1):
            continue
        gap = (length - 4.0 * d) / 4.0
        cursor = t0
        for pulse_index in range(4):
            pulses = _y_pulse(qubit) if pulse_index % 2 == 0 else _y_pulse(qubit)[1:2]
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
    return ScheduledCircuit(out, tuple(starts), tuple(durs))
