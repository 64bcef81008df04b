"""Parametrized noise model and channel (Kraus) constructors.

The model applies a depolarizing channel after every gate (strength p1 on
one-qubit gates, p2 on two-qubit gates), a thermal-relaxation channel over
every scheduled idle window, and an independent readout bit flip per
measured qubit.  Durations: RZ and PHASE are virtual (zero duration, as on
fixed-frequency hardware), barriers cost nothing, every other one-qubit
gate takes dur_1q and two-qubit gates take dur_2q.  Idle windows shorter
than dur_idle_unit are treated as scheduling slack and accrue no noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .gates import Gate

__all__ = [
    "NoiseModel",
    "gate_duration",
    "depolarizing_kraus",
    "thermal_relaxation_kraus",
]


@dataclass(frozen=True)
class NoiseModel:
    """Noise strengths and timing parameters (arbitrary time units); all
    finite, except ``t1`` and ``t2``, which may be ``math.inf`` (no relaxation)."""

    p1: float = 2e-4
    p2: float = 8e-3
    t1: float = 300.0
    t2: float = 200.0
    dur_1q: float = 1.0
    dur_2q: float = 10.0
    dur_idle_unit: float = 1.0
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "readout_flip"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"noise probability {name} must be in [0, 1], got {v}")
        if not (0 < self.t1 <= math.inf and 0 < self.t2 <= math.inf):
            raise ValueError(f"relaxation times t1={self.t1}, t2={self.t2} must be > 0 or inf")
        if self.t2 > 2.0 * self.t1 + 1e-12:
            raise ValueError(f"t2 must not exceed 2*t1 (t1={self.t1}, t2={self.t2})")
        for name in ("dur_1q", "dur_2q", "dur_idle_unit"):
            v = getattr(self, name)
            if not 0.0 <= v < math.inf:
                raise ValueError(f"duration {name} must be finite and >= 0, got {v}")

    @classmethod
    def noiseless(cls) -> "NoiseModel":
        """Zero gate noise and infinitely slow relaxation; timing kept."""
        return cls(p1=0.0, p2=0.0, t1=math.inf, t2=math.inf)


def gate_duration(gate: Gate, nm: NoiseModel) -> float:
    if gate.kind in ("RZ", "PHASE", "BARRIER"):
        return 0.0
    if gate.n_qubits == 2:
        return nm.dur_2q
    return nm.dur_1q


_PAULIS_1Q = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@functools.cache
def _pauli_strings(n_qubits: int) -> tuple[np.ndarray, ...]:
    """The 4**n n-qubit Pauli strings, identity first.  Built once per n and
    never handed out: callers get scaled copies."""
    strings = [np.eye(1, dtype=complex)]
    for _ in range(n_qubits):
        strings = [np.kron(a, s) for a in strings for s in _PAULIS_1Q]
    return tuple(strings)


def depolarizing_kraus(p: float, n_qubits: int) -> list[np.ndarray]:
    """Kraus operators of the n-qubit depolarizing channel of strength p.

    rho -> (1 - p) rho + p * I / 2**n (x) tr_sub(rho), via the uniform Pauli
    twirl; p = 1 fully mixes the acted-on qubits.
    """
    if not (0.0 <= p <= 1.0 and n_qubits >= 1):
        raise ValueError(f"depolarizing p={p} must be in [0, 1] and n_qubits={n_qubits} >= 1")
    if p == 0.0:
        return [np.eye(2**n_qubits, dtype=complex)]
    dim4 = 4**n_qubits
    strings = _pauli_strings(n_qubits)
    out = [math.sqrt(1.0 - p + p / dim4) * strings[0]]
    w = math.sqrt(p / dim4)
    out.extend(w * s for s in strings[1:])
    return out


def thermal_relaxation_kraus(t1: float, t2: float, duration: float) -> list[np.ndarray]:
    """Kraus operators for idling: amplitude damping composed with dephasing.

    Populations decay with t1; coherences decay with t2.  Needs duration in
    [0, inf), t1 and t2 in (0, inf], and t2 <= 2*t1 (a dephasing rate >= 0).
    """
    if not (0.0 <= duration < math.inf and 0.0 < t1 <= math.inf and 0.0 < t2 <= math.inf):
        raise ValueError(f"relaxation needs a finite duration >= 0 and t1, t2 > 0 or inf, "
                         f"got duration={duration}, t1={t1}, t2={t2}")
    if duration <= 0.0 or (math.isinf(t1) and math.isinf(t2)):
        return [np.eye(2, dtype=complex)]
    gamma = 1.0 - math.exp(-duration / t1) if not math.isinf(t1) else 0.0
    rate_phi = (0.0 if math.isinf(t2) else 1.0 / t2) - (
        0.0 if math.isinf(t1) else 0.5 / t1
    )
    if rate_phi < -1e-12:
        raise ValueError(f"t2={t2} exceeds 2*t1={2 * t1}")
    lam = 1.0 - math.exp(-2.0 * duration * max(rate_phi, 0.0))
    ad = [
        np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex),
    ]
    pd = [
        np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex),
        np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex),
    ]
    kraus = [a @ p for a in ad for p in pd]
    return [k for k in kraus if np.linalg.norm(k) > 1e-15]
