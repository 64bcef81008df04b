"""Circuit execution: statevector simulation, shot sampling, and exact
density-matrix simulation up to width ``MAX_DENSITY_WIDTH`` = 4 (the
8-cycle) under the noise model: depolarizing after every gate, thermal
relaxation over every scheduled idle window.

``run_noisy`` merges each per-wire run of n one-qubit gates (``wire_runs``)
into one event, the product U = g_n ... g_1 then D_p, 1 - p = (1 - p1)**n;
the products of all rows' runs come from one ``transpile.run_products`` call.
This is exact: depolarizing channels commute with unitaries on their qubits
and compose by multiplying their 1 - p (Nielsen & Chuang 8.3.4).  Each event
is one local superoperator, its channel's sum_k K_k (x) conj(K_k) times
U (x) conj(U): 4x4 on one qubit, 16x16 on two.  It acts on rho read as a
vector over a doubled register of 2w qubits, where row qubit q is qubit
q + w and column qubit q is qubit q, through the one gate kernel
``circuit.apply_matrix``, which takes a stack of rho: circuits of one
skeleton and schedule (a bundle's t at L3) share events and run as one.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, RunPlan, Trail, _check_measured, apply_circuit, wire_runs
from .circuit import apply_matrix as _apply_matrix_rows
from .gates import Gate, gate_matrix
from .noise import NoiseModel, depolarizing_kraus, thermal_relaxation_kraus
from .transpile import ScheduledCircuit, _skeleton, run_products, schedule

__all__ = [
    "BundleCache",
    "Distribution",
    "run_exact",
    "measure_positions",
    "state_to_density",
    "validate_density",
    "run_noisy",
    "readout_distribution",
]

MAX_DENSITY_WIDTH = 4


@dataclass(frozen=True)
class Distribution:
    """Probabilities (or counts) over measured outcomes.

    ``shots`` is None for exact probabilities; otherwise ``outcomes`` holds
    sampled counts summing to ``shots``.
    """

    outcomes: dict[int, float]
    shots: int | None = None

    def probabilities(self) -> dict[int, float]:
        """Outcome map normalized to probabilities."""
        if self.shots is None:
            return dict(self.outcomes)
        if self.shots <= 0:
            raise ValueError("cannot normalize a distribution with zero shots")
        return {k: v / self.shots for k, v in self.outcomes.items()}


class BundleCache:
    """Work shared by the circuits t = 1 .. t_max of one ``run_experiment``,
    bound to its noise model (None if noiseless) and circuit width.  It holds
    the bundle's ``circuits``, all resynthesized in the first L3 ``transpile``
    (its "resynthesis" plan) and their ``scheduled`` circuits, each group
    of which ``run_noisy`` runs as one stack (the "noisy" plan: each row's
    final rho); the channels' local superoperators; trails (``circuit.Trail``)
    of the source unitary, the statevector and rho (for a stack of one),
    which resume after the prefix circuit t shares with t - 1; and one plan
    per stage, reused while a circuit's skeleton (gate kinds and qubits)
    repeats, as at L3: the schedule and the check's run plan.
    """

    def __init__(self, nm: NoiseModel | None, width: int, circuits: Sequence[Circuit] = ()) -> None:
        self.nm = nm
        self.width = width
        self.circuits = tuple(circuits)
        self.scheduled: tuple[ScheduledCircuit, ...] = ()
        self.source = Trail()
        self.state = Trail()
        self.noisy = Trail()
        self.channels: dict[tuple, np.ndarray | None] = {}
        self.plans: dict[str, tuple] = {}

    def plan(self, stage: str, key: tuple, build: Callable):
        """``build()``, or its value from the last call for ``stage`` if
        that call's key equals ``key``."""
        last = self.plans.get(stage)
        if last is None or last[0] != key:
            last = self.plans[stage] = (key, build())
        return last[1]


def run_exact(
    circuit: Circuit, initial: np.ndarray, cache: BundleCache | None = None
) -> np.ndarray:
    """Apply the circuit's gates to a statevector; norm-checked result.

    With a bundle ``cache``, resume after the gates shared with the last
    circuit run from the same initial state.
    """
    dim = 1 << circuit.width
    if initial.shape != (dim,):
        raise ValueError(
            f"initial state has shape {initial.shape}, circuit needs ({dim},)"
        )
    state = apply_circuit(initial.astype(complex), circuit, None if cache is None else cache.state)
    norm = np.linalg.norm(state)
    if not abs(norm - 1.0) <= 1e-10:
        raise ArithmeticError(f"statevector norm drifted to {norm}")
    return state


def _marginal_probabilities(probs: np.ndarray, measured_qubits: tuple[int, ...]) -> np.ndarray:
    """Marginal of the 2**width basis probabilities over outcomes
    sum_i 2**i * bit(measured_qubits[i])."""
    if probs.size < 1 or probs.size & (probs.size - 1):
        raise ValueError(f"{probs.size} basis probabilities: size is not a power of two")
    width = probs.size.bit_length() - 1
    _check_measured(measured_qubits, width)
    probs = probs.reshape((2,) * width)
    # outcome bit i is axis keep[-1 - i]: the last measured qubit leads
    keep = [width - 1 - q for q in reversed(measured_qubits)]
    drop = tuple(ax for ax in range(width) if ax not in keep)
    marginal = probs.sum(axis=drop) if drop else probs
    # surviving axes come out in increasing original order; realign to `keep`
    remaining = sorted(keep)
    return np.transpose(marginal, [remaining.index(k) for k in keep]).reshape(-1)


def measure_positions(
    state: np.ndarray,
    measured_qubits: tuple[int, ...],
    shots: int = 0,
    seed: int | None = None,
) -> Distribution:
    """Measure the given qubits; bit i of the outcome is measured_qubits[i].

    ``shots == 0`` returns exact probabilities; otherwise multinomial counts
    drawn with the given seed.
    """
    probs = _marginal_probabilities(np.abs(state) ** 2, tuple(measured_qubits))
    if shots == 0:
        return Distribution(outcomes={k: float(p) for k, p in enumerate(probs)})
    if shots < 0:
        raise ValueError(f"shots must be >= 0, got {shots}")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / probs.sum())
    return Distribution(
        outcomes={k: int(c) for k, c in enumerate(counts)}, shots=shots
    )


# ---------------------------------------------------------------------------
# density-matrix simulation

def state_to_density(state: np.ndarray) -> np.ndarray:
    return np.outer(state, state.conj())


def validate_density(rho: np.ndarray) -> None:
    """Reject arrays that are not unit-trace Hermitian positive matrices."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got shape {rho.shape}")
    if not abs(np.trace(rho).real - 1.0) <= 1e-9:
        raise ValueError(f"density matrix trace is {np.trace(rho).real}, expected 1")
    if not np.linalg.norm(rho - rho.conj().T) <= 1e-10:
        raise ValueError("density matrix is not Hermitian")
    smallest = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if not smallest >= -1e-9:
        raise ValueError(f"density matrix has negative eigenvalue {smallest}")


def _apply_kraus(rho: np.ndarray, op: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """sum_k K_k rho K_k^dagger for an event on ``qubits``, given as its local
    superoperator ``op`` = sum_k K_k (x) conj(K_k): rho read as a vector over
    2w qubits, row qubit q as qubit q + w and column qubit q as qubit q."""
    width = rho.shape[-1].bit_length() - 1
    doubled = tuple([q + width for q in qubits]) + tuple(qubits)
    return _apply_matrix_rows(rho, op, doubled, 2 * width)


def _liouville(u: np.ndarray) -> np.ndarray:
    """u (x) conj(u), the superoperator of rho -> u rho u^dagger, of each u of a
    stack (one u is a stack of one), by broadcasting (an einsum is slower here)."""
    n = u.shape[-1]
    return (u[:, :, None, :, None] * u.conj()[:, None, :, None, :]).reshape(-1, n * n, n * n)


def _channel(key: tuple, nm: NoiseModel) -> np.ndarray | None:
    """The local superoperator of an event's channel as a stack of one, or
    None for the identity channel (a single operator from either
    constructor).  Keys carry their kind: a 10-gate run must not find the
    channel of an idle window of length 10.0, and 10 == 10.0."""
    kind, qubits, size = key
    if kind == "idle":
        kraus = thermal_relaxation_kraus(nm.t1, nm.t2, size)
    else:
        p = nm.p2 if len(qubits) == 2 else 1.0 - (1.0 - nm.p1) ** size
        kraus = depolarizing_kraus(p, len(qubits))
    return None if len(kraus) == 1 else sum(_liouville(np.array(kraus)))[None]


def _check_density(rho: np.ndarray, names: Sequence[str]) -> None:
    for i, diagonal in enumerate(rho.diagonal(0, 1, 2).real.tolist()):  # half np.trace's time
        if not abs((trace := sum(diagonal)) - 1.0) <= 1e-9:
            raise ArithmeticError(f"density trace drifted to {trace} running {names[i]}")


def _noisy_events(sc: ScheduledCircuit, nm: NoiseModel) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """The noisy events of ``sc`` in an order equivalent to its schedule:
    (("gates", qubits, n), positions of n gates) or (("idle", (qubit,),
    length), ()) for a window of at least ``dur_idle_unit``.  A two-qubit
    gate is an event of its own; a wire's one-qubit gates form one
    ``wire_runs`` run up to its next event, moved there (exact: the events
    in between act on other wires)."""
    gates = sc.circuit.gates
    n = len(gates)
    events = [
        (start, seq, gate.qubits)
        for seq, (gate, start) in enumerate(zip(gates, sc.start_times))
        if gate.kind != "BARRIER"
    ]
    events += [
        (t0, n + i, (qubit,))
        for i, (qubit, t0, t1) in enumerate(sc.idle_windows)
        if t1 - t0 >= nm.dur_idle_unit - 1e-12
    ]
    events.sort()  # by (start, seq): seq is unique
    joins = [seq < n and len(qubits) == 1 for _, seq, qubits in events]
    for group in wire_runs([qubits for _, _, qubits in events], joins):
        _, seq, qubits = events[group[0]]
        if seq < n:
            yield ("gates", qubits, len(group)), tuple([events[i][1] for i in group])
        else:
            _, t0, t1 = sc.idle_windows[seq - n]
            yield ("idle", qubits, t1 - t0), ()


def _groups(scheduled: Sequence[ScheduledCircuit]) -> dict[int, tuple[list, int]]:
    """By id, each circuit's group (a run with one schedule and skeleton) and row."""
    out, group = {}, []
    for sc in scheduled:
        last = group[-1] if group else sc
        if (last is sc or (last.start_times, last.durations) != (sc.start_times, sc.durations)
                or _skeleton(last.circuit.gates) != _skeleton(sc.circuit.gates)):
            group = []
        out[id(sc)] = group, len(group)
        group.append(sc)
    return out


def run_noisy(
    circuit: Circuit | ScheduledCircuit,
    initial: np.ndarray,
    nm: NoiseModel,
    cache: BundleCache | None = None,
) -> np.ndarray:
    """Exact channel simulation: unitaries plus depolarizing after each gate
    and thermal relaxation over idle windows.

    Accepts a plain circuit (scheduled greedily here) or a ScheduledCircuit
    whose start times (e.g. with DD pulses inserted) are trusted as given.
    A bundle ``cache`` must be bound to ``nm`` and the circuit's width.  The
    first call for a group of its ``scheduled`` runs the group as one stack.
    """
    sc = circuit if isinstance(circuit, ScheduledCircuit) else schedule(circuit, nm, cache)
    width = sc.circuit.width
    if width > MAX_DENSITY_WIDTH:
        raise ValueError(f"density simulation capped at width {MAX_DENSITY_WIDTH}")
    dim = 1 << width
    if initial.shape != (dim, dim):
        raise ValueError(f"initial density has shape {initial.shape}, need {(dim, dim)}")
    if cache is None:
        cache = BundleCache(nm, width)
    elif (cache.nm, cache.width) != (nm, width):
        raise ValueError(f"bundle cache is bound to width {cache.width} and {cache.nm}, "
                         f"not width {width} and {nm}")
    groups = cache.plan("groups", cache.scheduled, lambda: _groups(cache.scheduled))
    group, row = groups.get(id(sc), ([sc], 0))  # the scheduled circuits are alive: ids unique
    rho0 = initial.astype(complex)
    return cache.plan("noisy", (group, rho0.tobytes()),
                      lambda: _run_stack(group, rho0, nm, cache))[row].copy()


def _run_stack(group: list, rho0: np.ndarray, nm: NoiseModel, cache: BundleCache) -> np.ndarray:
    """The final rho of each circuit of ``group`` from ``rho0``, in one pass."""
    validate_density(rho0)
    sc, n = group[0], len(group)
    events, rows = list(_noisy_events(sc, nm)), [s.circuit.gates for s in group]
    rho, trail = np.array([rho0] * n), cache.noisy if n == 1 else None
    if trail is not None:  # a stack of one: its steps are the events with their gates
        done = trail.resume(rho, [(key, tuple([rows[0][i] for i in run])) for key, run in events])
        rho, events = trail.arrays[-1], events[done:]
    # u (x) conj(u) of each one-qubit run to apply, u = g_n ... g_1, for all rows in one
    # call; two-qubit folds are kept per channel and gate, one if all agree
    runs = RunPlan([run for key, run in events if run and len(key[1]) == 1])
    singles = iter(_liouville(run_products(rows, runs).reshape(-1, 2, 2)).reshape(-1, n, 4, 4))
    channels, names = cache.channels, [s.circuit.name for s in group]
    pairs: dict[tuple[tuple, Gate], np.ndarray] = {}
    for key, run in events:
        if key not in channels:
            channels[key] = _channel(key, nm)
        op = channels[key]
        if run and len(key[1]) == 1:
            sup = next(singles)
            op = sup if op is None else op @ sup
        elif run:
            gates = [row[run[0]] for row in rows]  # each row's gate
            gates = gates[:1] if gates.count(gates[0]) == n else gates
            for g in gates:
                if (key, g) not in pairs:
                    sup = _liouville(gate_matrix(g)[None])
                    pairs[key, g] = sup if op is None else op @ sup
            op = np.concatenate([pairs[key, g] for g in gates])
        if op is not None:
            rho = _apply_kraus(rho, op, key[1])
        _check_density(rho, names)
        if trail is not None:
            trail.arrays.append(rho)
    return 0.5 * (rho + rho.conj().transpose(0, 2, 1))


def readout_distribution(
    rho: np.ndarray, measured_qubits: tuple[int, ...], nm: NoiseModel
) -> Distribution:
    """Diagonal marginal over the measured qubits with readout bit flips."""
    diag = np.real(np.diagonal(rho)).clip(min=0.0)
    probs = _marginal_probabilities(diag, tuple(measured_qubits))
    if nm.readout_flip > 0.0:
        f = nm.readout_flip
        confusion = np.array([[1 - f, f], [f, 1 - f]])
        full = np.eye(1)
        for _ in measured_qubits:
            full = np.kron(confusion, full)
        probs = full @ probs
    return Distribution(outcomes={k: float(p) for k, p in enumerate(probs)})
