"""Circuit execution: statevector simulation, shot sampling, and exact
density-matrix simulation under the parametrized noise model.

Gates act through the one kernel ``circuit.apply_matrix``; density
matrices are dense and limited to width 6.  Noisy runs apply a depolarizing
channel after every gate and a thermal-relaxation channel over every
scheduled idle window.  One ``run_noisy`` call builds each channel once, as
a stack of full-width Kraus operators keyed by gate qubits or by (qubit,
idle length): at most w + w(w-1) depolarizing stacks plus one per distinct
idle window.  Up to width ``FOLD_MAX_WIDTH`` = 4 it also folds each distinct
gate into the channel after it, F_k = K_k U (U alone when that channel is the
identity), so that every gate event is one Kraus product.  The fold cache
holds n_K * 4**w complex entries per distinct gate of the circuit (n_K = 1
for the identity channel, 4 for a 1q and 16 for a 2q depolarizing channel):
at most 64 KB per distinct gate.  The largest call of the 4-cycle demo
holds 472 KB, that of the width-4 8-cycle bundle 1.0 MB.  Wider circuits
apply each gate to its own qubits and then the channel stack: there the fold
would cost 256 KB to 1 MB per distinct gate and save little per event.  Both
caches are dropped when the call returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, apply_circuit
from .circuit import apply_matrix as _apply_matrix_rows
from .gates import Gate, gate_matrix
from .noise import NoiseModel, depolarizing_kraus, thermal_relaxation_kraus
from .transpile import ScheduledCircuit, schedule

__all__ = [
    "Distribution",
    "run_exact",
    "measure_positions",
    "state_to_density",
    "validate_density",
    "run_noisy",
    "readout_distribution",
]

MAX_DENSITY_WIDTH = 6
# widest circuit whose gates run_noisy folds into their noise channels
FOLD_MAX_WIDTH = 4


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


def run_exact(circuit: Circuit, initial: np.ndarray) -> np.ndarray:
    """Apply the circuit's gates to a statevector; norm-checked result."""
    dim = 1 << circuit.width
    if initial.shape != (dim,):
        raise ValueError(
            f"initial state has shape {initial.shape}, circuit needs ({dim},)"
        )
    state = apply_circuit(initial.astype(complex), circuit)
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
    for q in measured_qubits:
        if not 0 <= q < width:
            raise ValueError(f"measured qubit {q} outside width {width}")
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


def _apply_kraus(rho: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_k K rho K^dagger for a (n, dim, dim) stack of full-width Kraus operators.

    Two products: every K rho at once, then [K_1 rho ... K_n rho] times
    [K_1 ... K_n]^dagger, which sums over k inside the second product.
    """
    n, dim, _ = stack.shape
    left = (stack.reshape(n * dim, dim) @ rho).reshape(n, dim, dim)
    wide = stack.transpose(1, 0, 2).reshape(dim, n * dim)
    return left.transpose(1, 0, 2).reshape(dim, n * dim) @ wide.conj().T


def _channel(
    qubits: tuple[int, ...], idle: float | None, nm: NoiseModel, width: int
) -> np.ndarray | None:
    """Noise after a gate on ``qubits`` (``idle`` None) or over an idle window
    of length ``idle``, as a full-width Kraus stack.  None marks the identity
    channel, which both constructors return as a single operator."""
    if idle is None:
        kraus = depolarizing_kraus(nm.p1 if len(qubits) == 1 else nm.p2, len(qubits))
    else:
        kraus = thermal_relaxation_kraus(nm.t1, nm.t2, idle)
    if len(kraus) == 1:
        return None
    eye = np.eye(1 << width, dtype=complex)
    return np.stack([_apply_matrix_rows(eye, k, qubits, width) for k in kraus])


def _check_density(rho: np.ndarray, where: str) -> None:
    trace = np.trace(rho).real
    if not abs(trace - 1.0) <= 1e-9:
        raise ArithmeticError(f"density trace drifted to {trace} {where}")


def run_noisy(
    circuit: Circuit | ScheduledCircuit,
    initial: np.ndarray,
    nm: NoiseModel,
) -> np.ndarray:
    """Exact channel simulation: unitaries plus depolarizing after each gate
    and thermal relaxation over idle windows.

    Accepts a plain circuit (scheduled greedily here) or a ScheduledCircuit
    whose start times (e.g. with DD pulses inserted) are trusted as given.
    """
    sc = circuit if isinstance(circuit, ScheduledCircuit) else schedule(circuit, nm)
    circ = sc.circuit
    if circ.width > MAX_DENSITY_WIDTH:
        raise ValueError(f"density simulation capped at width {MAX_DENSITY_WIDTH}")
    dim = 1 << circ.width
    if initial.shape != (dim, dim):
        raise ValueError(f"initial density has shape {initial.shape}, need {(dim, dim)}")
    validate_density(initial)

    # (start, order, gate or None, channel key: (qubits, idle length or None))
    events = [
        (start, seq, gate, (gate.qubits, None))
        for seq, (gate, start) in enumerate(zip(circ.gates, sc.start_times))
        if gate.kind != "BARRIER"
    ]
    events += [
        (t0, len(circ.gates) + i, None, ((qubit,), t1 - t0))
        for i, (qubit, t0, t1) in enumerate(sc.idle_windows)
        if t1 - t0 >= nm.dur_idle_unit - 1e-12
    ]
    channels: dict[tuple, np.ndarray | None] = {}
    folded: dict[Gate, np.ndarray] = {}
    eye = np.eye(dim, dtype=complex)
    rho = initial.astype(complex)
    fold = circ.width <= FOLD_MAX_WIDTH
    for _, _, gate, key in sorted(events, key=lambda e: e[:2]):
        if key not in channels:
            channels[key] = _channel(*key, nm, circ.width)
        stack = channels[key]
        if gate is not None and fold:
            if gate not in folded:
                u = _apply_matrix_rows(eye, gate_matrix(gate), gate.qubits, circ.width)
                folded[gate] = u[None] if stack is None else stack @ u
            stack = folded[gate]
        elif gate is not None:
            u = gate_matrix(gate)
            rho = _apply_matrix_rows(rho, u, gate.qubits, circ.width)
            rho = _apply_matrix_rows(rho.conj().T, u, gate.qubits, circ.width).conj().T
        if stack is not None:
            rho = _apply_kraus(rho, stack)
        _check_density(rho, "during noisy run")
    return 0.5 * (rho + rho.conj().T)


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
