"""Circuit execution: statevector simulation, shot sampling, and exact
density-matrix simulation under the parametrized noise model.

Gates act through the one kernel ``circuit.apply_matrix``; density
matrices are dense and limited to width ``MAX_DENSITY_WIDTH`` = 4, the width
of the widest walk circuit (the 8-cycle).  Noisy runs apply a depolarizing
channel after every gate and a thermal-relaxation channel over every
scheduled idle window.

``run_noisy`` merges each run of one-qubit gates on a wire, up to the next
two-qubit gate or kept idle window on that wire, into one event: the product
U = g_n ... g_1 followed by the depolarizing channel D_p with
1 - p = (1 - p1)**n.  This is exact, because a depolarizing channel commutes
with every unitary on its qubits and two of them compose to one whose 1 - p
multiply (Nielsen & Chuang 8.3.4).  A two-qubit gate is a run of its own
with p2.  Each channel is built once, as a stack of full-width Kraus
operators keyed by (qubits, run length) or by (qubit, idle length), and
each distinct run is folded into its channel, F_k = K_k U (U alone when
the channel is the identity), so that every event is one Kraus product.

A ``BundleCache`` carries work across the circuits of one bundle (one
``run_experiment`` call, t = 1 .. t_max).  It is bound to the bundle's
noise model and circuit width.  A call without one shares nothing, so no
state outlives a call or a bundle.  It holds:

* the channel stacks, built once per bundle;
* three trails (``circuit.Trail``): the source unitary and the statevector
  after each gate, and rho after each noisy event, of the previous t.  The
  circuit for t is the one for t - 1 with one more step before the closing
  Fourier block, so each resumes after the longest shared prefix and gives
  the same bits as a fresh run (at L3 the noisy events differ from the
  first one on, since the whole circuit is resynthesized);
* the one-qubit run products of the circuit transpiled last, which the
  transpile check computes in this module's order (u = g_n ... g_1) and
  ``run_noisy`` reuses for the same t.  They are replaced at each t.

The fold cache stays per call.  It holds n_K * 4**w complex entries per
distinct run (n_K = 1 for the identity channel, 4 for a 1q and 16 for a 2q
depolarizing channel), at most 64 KB per run, and most runs of a t are new
at L3 (803 distinct among the 1,275 one-qubit runs of the 4-cycle bundle),
so a fold cache or product memo kept for the whole bundle would grow with
t_max.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, Trail, apply_circuit
from .circuit import apply_matrix as _apply_matrix_rows
from .gates import Gate, gate_matrix
from .noise import NoiseModel, depolarizing_kraus, thermal_relaxation_kraus
from .transpile import ScheduledCircuit, schedule

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
    """Work shared by the circuits of one bundle, bound to its noise model
    (None for a noiseless bundle) and circuit width: the source lowering's,
    the statevector's and the noisy run's trails, the channel stacks, and the
    one-qubit run products of the circuit transpiled last."""

    def __init__(self, nm: NoiseModel | None, width: int) -> None:
        self.nm = nm
        self.width = width
        self.source = Trail()
        self.state = Trail()
        self.noisy = Trail()
        self.channels: dict[tuple, np.ndarray | None] = {}
        self.products: dict[tuple[Gate, ...], np.ndarray] = {}


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


def _channel(kraus: list[np.ndarray], qubits: tuple[int, ...], width: int) -> np.ndarray | None:
    """The Kraus operators ``kraus`` on ``qubits`` as a full-width stack.  None
    marks the identity channel, which both constructors return as a single
    operator."""
    if len(kraus) == 1:
        return None
    eye = np.eye(1 << width, dtype=complex)
    return np.stack([_apply_matrix_rows(eye, k, qubits, width) for k in kraus])


def _check_density(rho: np.ndarray, where: str) -> None:
    trace = np.trace(rho).real
    if not abs(trace - 1.0) <= 1e-9:
        raise ArithmeticError(f"density trace drifted to {trace} {where}")


def _noisy_events(
    sc: ScheduledCircuit, nm: NoiseModel
) -> Iterator[tuple[tuple[int, ...], tuple[Gate, ...] | float]]:
    """The noisy events of ``sc`` in an order equivalent to its schedule:
    (qubits, gates) for a gate run or (qubits, idle length) for an idle window.

    A two-qubit gate is a run of its own.  Consecutive one-qubit gates on a
    wire form one run, emitted just before the next two-qubit gate or kept
    idle window on that wire, or at the end.  Moving the run there is exact,
    because the events in between act on other wires.  Idle windows shorter
    than ``dur_idle_unit`` are not events, so they do not break a run.
    """
    circ = sc.circuit
    events: list[tuple[float, int, Gate | tuple[int, float]]] = [
        (start, seq, gate)
        for seq, (gate, start) in enumerate(zip(circ.gates, sc.start_times))
        if gate.kind != "BARRIER"
    ]
    events += [
        (t0, len(circ.gates) + i, (qubit, t1 - t0))
        for i, (qubit, t0, t1) in enumerate(sc.idle_windows)
        if t1 - t0 >= nm.dur_idle_unit - 1e-12
    ]
    runs: dict[int, list[Gate]] = {}
    for _, _, what in sorted(events, key=lambda e: e[:2]):
        if isinstance(what, Gate) and what.n_qubits == 1:
            runs.setdefault(what.qubits[0], []).append(what)
            continue
        qubits = what.qubits if isinstance(what, Gate) else (what[0],)
        for q in qubits:
            if q in runs:
                yield (q,), tuple(runs.pop(q))
        yield qubits, (what,) if isinstance(what, Gate) else what[1]
    for q, run in runs.items():
        yield (q,), tuple(run)


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
    A bundle ``cache`` must be bound to ``nm`` and the circuit's width.
    """
    sc = circuit if isinstance(circuit, ScheduledCircuit) else schedule(circuit, nm)
    width = sc.circuit.width
    if width > MAX_DENSITY_WIDTH:
        raise ValueError(f"density simulation capped at width {MAX_DENSITY_WIDTH}")
    dim = 1 << width
    if initial.shape != (dim, dim):
        raise ValueError(f"initial density has shape {initial.shape}, need {(dim, dim)}")
    validate_density(initial)
    if cache is None:
        cache, trail = BundleCache(nm, width), None
    elif (cache.nm, cache.width) != (nm, width):
        raise ValueError(
            f"bundle cache is bound to width {cache.width} and {cache.nm}, "
            f"not width {width} and {nm}"
        )
    else:
        trail = cache.noisy

    # channel keys carry their kind: a 10-gate run must not find the stack of
    # an idle window of length 10.0, and 10 == 10.0
    channels = cache.channels
    folded: dict[tuple[Gate, ...], np.ndarray] = {}
    eye = np.eye(dim, dtype=complex)
    events = list(_noisy_events(sc, nm))
    rho = initial.astype(complex)
    done = 0
    if trail is not None:
        done = trail.resume(rho, events)
        rho = trail.arrays[-1]
    for qubits, what in events[done:]:
        if isinstance(what, tuple):
            stack = folded.get(what)
            if stack is None:
                key = ("gates", qubits, len(what))
                if key not in channels:
                    p = nm.p2 if len(qubits) == 2 else 1.0 - (1.0 - nm.p1) ** len(what)
                    channels[key] = _channel(depolarizing_kraus(p, len(qubits)), qubits, width)
                u = cache.products.get(what)
                if u is None:
                    u = gate_matrix(what[0])
                    for gate in what[1:]:
                        u = gate_matrix(gate) @ u
                u = _apply_matrix_rows(eye, u, qubits, width)
                stack = folded[what] = u[None] if channels[key] is None else channels[key] @ u
        else:
            key = ("idle", qubits, what)
            if key not in channels:
                kraus = thermal_relaxation_kraus(nm.t1, nm.t2, what)
                channels[key] = _channel(kraus, qubits, width)
            stack = channels[key]
        if stack is not None:
            rho = _apply_kraus(rho, stack)
        _check_density(rho, "during noisy run")
        if trail is not None:
            trail.arrays.append(rho)
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
