"""Walk-circuit and Fourier-block construction.

Qubit layout for an N = 2**n cycle (and for the padded 3-cycle, n = 2):
qubit n is the coin, qubits n-1 .. 0 encode the position as
position = sum_k 2**k q_k.  One Fourier block opens the circuit and its
gate-wise inverse closes it; every step in between is a coin gate, a phase
kick PHASE(-2pi 2**(n-1-k) / N) on each position qubit k and a controlled
kick CP(4pi 2**(n-1-k) / N) from the coin, the same body for every cycle;
its gates are built once per cycle and coins and shared by all circuits.

Both Fourier blocks are bit-reversed (no swap network).  The 2**n-cycle
block is the Hadamard/controlled-phase ladder, whose lowered unitary is the
bit-reversed Fourier matrix; the per-step phase assignments are stated for
that frame, and the matrix oracle in the test suite pins the whole product
against the dense walk operator.

The 3-node block realizes the bit-reversed 4x4 Fourier matrix with node 3
isolated (P @ fourier_3cycle_matrix(), P swapping basis states 1 and 2) as
four layers of two U3 gates separated by three controlled-phase gates
(8 one-qubit and 3 two-qubit gates, depth 7).  Its parameters are derived
on first use from the controlled-phase form of the Cartan decomposition
(``synthesis.cp_template``), so the block equals P @ F3 only up to a global
phase; the closing block is the exact gate-wise inverse, so that phase
cancels in every walk circuit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuit import Circuit
from .gates import Gate
from .synthesis import cp_template, u3_params
from .walk import CoinSchedule, coin_operator

__all__ = [
    "fourier_matrix",
    "fourier_3cycle_matrix",
    "build_walk_circuit_even",
    "build_walk_circuit_4cycle",
    "build_walk_circuit_3cycle",
]

PI = math.pi


def fourier_matrix(dim: int) -> np.ndarray:
    """The dim x dim Fourier matrix with entries omega^{jk} / sqrt(dim)."""
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * PI * j * k / dim) / math.sqrt(dim)


def fourier_3cycle_matrix() -> np.ndarray:
    """3-node Fourier matrix embedded in 4 dimensions with node 3 fixed."""
    out = np.zeros((4, 4), dtype=complex)
    out[:3, :3] = fourier_matrix(3)
    out[3, 3] = 1.0
    return out


# ---------------------------------------------------------------------------
# Fourier blocks

def _qft_noswap_gates(n: int) -> list[Gate]:
    """Hadamard/controlled-phase ladder; lowers to the bit-reversed Fourier
    matrix (reversal absorbed by the walk's phase-kick convention)."""
    gates: list[Gate] = []
    for j in reversed(range(n)):
        gates.append(Gate("H", (j,)))
        for k in reversed(range(j)):
            gates.append(Gate("CP", (k, j), (PI / 2 ** (j - k),)))
    return gates


@functools.cache
def _fourier3_params() -> tuple[tuple[tuple[float, float, float], ...], tuple[float, ...]]:
    """U3 parameters (layer by layer, hi then lo) and CP angles of the
    3-node block, from the Cartan template of P @ F3.  Built on first use,
    so importing the package or building even-cycle walks pays no KAK."""
    target = fourier_3cycle_matrix()[[0, 2, 1, 3]]  # P @ F3: rows 1 and 2 swapped
    layers, cp_angles, _ = cp_template(target)
    return tuple(u3_params(m)[:3] for layer in layers for m in layer), tuple(cp_angles)


def _fourier3_gates(hi: int, lo: int) -> list[Gate]:
    u3s, cp_angles = _fourier3_params()
    gates: list[Gate] = []
    for layer in range(4):
        if layer > 0:
            gates.append(Gate("CP", (hi, lo), (cp_angles[layer - 1],)))
        gates.append(Gate("U3", (hi,), u3s[2 * layer]))
        gates.append(Gate("U3", (lo,), u3s[2 * layer + 1]))
    return gates


def _inverse_block(gates: list[Gate]) -> list[Gate]:
    """Exact inverse of a Fourier block (H, CP and U3 gates), gate by gate."""
    out: list[Gate] = []
    for g in reversed(gates):
        if g.kind == "CP":
            g = Gate("CP", g.qubits, (-g.params[0],))
        elif g.kind == "U3":
            theta, phi, lam = g.params
            g = Gate("U3", g.qubits, (theta, 2 * PI - lam, 2 * PI - phi))
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# walk circuits

@functools.lru_cache(maxsize=8)
def _walk_gates(cycle: int, n: int, coins: tuple[tuple[str, bytes], ...]) -> tuple:
    """The gates, shared and read only, of all walk circuits on the cycle with these coins
    (label, matrix bytes); CP(2pi) = I is left out (k = 0 on a power-of-two cycle)."""
    block = _fourier3_gates(hi=1, lo=0) if cycle == 3 else _qft_noswap_gates(n)
    coin = {label: Gate("UNITARY", (n,), matrix=np.frombuffer(m, dtype=complex).reshape(2, 2))
            for label, m in coins}
    kicks = [Gate("PHASE", (k,), (-2 * PI * 2 ** (n - 1 - k) / cycle,)) for k in range(n)]
    kicks += [Gate("CP", (n, k), (angle,)) for k in (*range(1, n), 0)
              if (angle := 4 * PI * 2 ** (n - 1 - k) / cycle) != 2 * PI]
    return block, Gate("BARRIER", tuple(range(n + 1))), coin, kicks, _inverse_block(block)


def _walk_circuit(cycle: int, n: int, schedule: CoinSchedule, steps: int) -> Circuit:
    """Fourier block, per-step coin and phase kicks on n position qubits for
    the N = cycle walk, inverse block."""
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    coins = tuple([(k, coin_operator(p).tobytes()) for k, p in sorted(schedule.coins.items())])
    fourier, barrier, coin, kicks, inverse = _walk_gates(cycle, n, coins)
    circuit = Circuit(n + 1, name=f"walk{cycle}cycle-t{steps}", measured=tuple(range(n)))
    circuit.extend(fourier)
    circuit.append(barrier)
    for step in range(steps):
        circuit.append(coin[schedule.label_at(step)])
        circuit.extend(kicks)
    circuit.append(barrier)
    circuit.extend(inverse)
    return circuit


def build_walk_circuit_even(
    n_position_qubits: int, schedule: CoinSchedule, steps: int
) -> Circuit:
    """Walk circuit on the 2**n cycle."""
    n = n_position_qubits
    if not 2 <= n <= 3:
        raise ValueError(f"even-cycle builder supports 2 or 3 position qubits, got {n}")
    return _walk_circuit(1 << n, n, schedule, steps)


def build_walk_circuit_4cycle(schedule: CoinSchedule, steps: int) -> Circuit:
    """3-qubit walk circuit for the 4-cycle (coin on qubit 2)."""
    return build_walk_circuit_even(2, schedule, steps)


def build_walk_circuit_3cycle(schedule: CoinSchedule, steps: int) -> Circuit:
    """3-qubit walk circuit for the padded 3-cycle (coin on qubit 2)."""
    return _walk_circuit(3, 2, schedule, steps)
