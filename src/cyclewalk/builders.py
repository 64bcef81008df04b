"""Walk-circuit and Fourier-block construction.

Qubit layout for an N = 2**n cycle (and for the padded 3-cycle, n = 2):
qubit n is the coin, qubits n-1 .. 0 encode the position as
position = sum_k 2**k q_k.  One Fourier block opens the circuit and one
inverse block closes it; every step in between is a coin gate plus phase
kicks on the position qubits and controlled phase kicks from the coin.

Both Fourier blocks are bit-reversed (no swap network).  The 2**n-cycle
block is the Hadamard/controlled-phase ladder, whose lowered unitary is the
bit-reversed Fourier matrix; the per-step phase assignments are stated for
that frame, and the matrix oracle in the test suite pins the whole product
against the dense walk operator.

The 3-node blocks realize the bit-reversed 4x4 Fourier matrix with node 3
isolated (P @ fourier_3cycle_matrix(), P swapping basis states 1 and 2) as
a fixed gate template: four layers of two U3 gates separated by three
controlled-phase gates (8 one-qubit and 3 two-qubit gates, depth 7).  The
template parameters were solved offline by least squares against that
matrix and are frozen here; ``TestFourier3Cycle.test_matches_target_entrywise``
in ``tests/test_builders.py`` pins them entrywise.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit
from .gates import Gate
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
# even-cycle Fourier blocks

def _qft_noswap_gates(n: int, inverse: bool = False) -> list[Gate]:
    """Hadamard/controlled-phase ladder; lowers to the bit-reversed Fourier
    matrix (reversal absorbed by the walk's phase-kick convention)."""
    gates: list[Gate] = []
    for j in reversed(range(n)):
        gates.append(Gate("H", (j,)))
        for k in reversed(range(j)):
            gates.append(Gate("CP", (k, j), (PI / 2 ** (j - k),)))
    if inverse:
        gates = [_inverse_gate(g) for g in reversed(gates)]
    return gates


def _inverse_gate(g: Gate) -> Gate:
    """Inverse of a Fourier-block gate (H, CP or U3)."""
    if g.kind == "H":
        return g
    if g.kind == "CP":
        return Gate("CP", g.qubits, (-g.params[0],))
    theta, phi, lam = g.params
    return Gate("U3", g.qubits, (theta, 2 * PI - lam, 2 * PI - phi))


# ---------------------------------------------------------------------------
# 3-node Fourier block (frozen solved constants)

# rows: layer0 hi, layer0 lo, layer1 hi, layer1 lo, ..., layer3 lo
# layers execute first to last with CP(_FOURIER3_BITREV_CPS[k]) between them.
_FOURIER3_BITREV_U3S = (
    (3.4908336087579825, 8.927227487112901, 3.900235221133833),
    (2.439454886560015, 4.431653097428904, -8.57573376969868),
    (-1.271429741681602, 6.52064570310009, -13.365072007843944),
    (-0.3936516769856097, -3.225887519803926, -11.913803211006933),
    (-1.8867233557818144, -9.697862702324544, -6.426986811717379),
    (2.208811834074783, -8.114620630565186, 1.521398181372587),
    (5.777755752968525, 12.202771674172608, 10.098852842408476),
    (-0.7619641043614328, -2.10555800723866, 7.222603465349019),
)
_FOURIER3_BITREV_CPS = (10.072883568064194, -10.074853537546987, 3.8897179772189334)


def _fourier3_gates(hi: int, lo: int, inverse: bool = False) -> list[Gate]:
    gates: list[Gate] = []
    for layer in range(4):
        if layer > 0:
            gates.append(Gate("CP", (hi, lo), (_FOURIER3_BITREV_CPS[layer - 1],)))
        gates.append(Gate("U3", (hi,), tuple(_FOURIER3_BITREV_U3S[2 * layer])))
        gates.append(Gate("U3", (lo,), tuple(_FOURIER3_BITREV_U3S[2 * layer + 1])))
    if inverse:
        gates = [_inverse_gate(g) for g in reversed(gates)]
    return gates


# ---------------------------------------------------------------------------
# walk circuits

def _coin_gate(schedule: CoinSchedule, step: int, coin_qubit: int) -> Gate:
    return Gate(
        "UNITARY", (coin_qubit,), matrix=coin_operator(schedule.coin_at(step))
    )


def build_walk_circuit_even(
    n_position_qubits: int, schedule: CoinSchedule, steps: int
) -> Circuit:
    """Walk circuit on the 2**n cycle: one Fourier block, per-step coin and
    phase kicks, one inverse block."""
    n = n_position_qubits
    if not 2 <= n <= 3:
        raise ValueError(f"even-cycle builder supports 2 or 3 position qubits, got {n}")
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    cycle = 1 << n
    coin_q = n
    circuit = Circuit(n + 1, name=f"walk{cycle}cycle-t{steps}", measured=tuple(range(n)))
    all_qubits = tuple(range(n + 1))
    circuit.extend(_qft_noswap_gates(n))
    circuit.add("BARRIER", *all_qubits)
    for step in range(steps):
        circuit.append(_coin_gate(schedule, step, coin_q))
        for k in range(n):
            circuit.add("PHASE", k, params=(-2 * PI * 2 ** (n - 1 - k) / cycle,))
        for k in range(1, n):
            circuit.add("CP", coin_q, k, params=(4 * PI * 2 ** (n - 1 - k) / cycle,))
    circuit.add("BARRIER", *all_qubits)
    circuit.extend(_qft_noswap_gates(n, inverse=True))
    return circuit


def build_walk_circuit_4cycle(schedule: CoinSchedule, steps: int) -> Circuit:
    """3-qubit walk circuit for the 4-cycle (coin on qubit 2)."""
    return build_walk_circuit_even(2, schedule, steps)


def build_walk_circuit_3cycle(schedule: CoinSchedule, steps: int) -> Circuit:
    """3-qubit walk circuit for the 3-cycle.

    Per step: coin, phase kicks P(-4pi/3) on qubit 0 and P(-2pi/3) on
    qubit 1, then controlled kicks P(4pi/3) on qubit 1 and P(8pi/3) on
    qubit 0 (kept literally; the transpiler reduces angles mod 2pi).
    """
    if steps < 0:
        raise ValueError(f"step count must be >= 0, got {steps}")
    circuit = Circuit(3, name=f"walk3cycle-t{steps}", measured=(0, 1))
    circuit.extend(_fourier3_gates(hi=1, lo=0))
    circuit.add("BARRIER", 0, 1, 2)
    for step in range(steps):
        circuit.append(_coin_gate(schedule, step, 2))
        circuit.add("PHASE", 0, params=(-4 * PI / 3,))
        circuit.add("PHASE", 1, params=(-2 * PI / 3,))
        circuit.add("CP", 2, 1, params=(4 * PI / 3,))
        circuit.add("CP", 2, 0, params=(8 * PI / 3,))
    circuit.add("BARRIER", 0, 1, 2)
    circuit.extend(_fourier3_gates(hi=1, lo=0, inverse=True))
    return circuit
