"""Dense-matrix dynamics for discrete-time quantum walks on N-cycle graphs.

The walker lives in the tensor product of a 2-level coin space and an
N-node position space.  Two embeddings are supported:

* ``"exact"``  - dimension 2N, positions are integers mod N.
* ``"padded"`` - dimension 2 * 2**n with n = ceil(log2(N)); nodes >= N are
  isolated (they map to themselves under the shift).  This is the basis a
  qubit circuit acts on.  For N a power of two both embeddings coincide.

Basis ordering is coin-major throughout: amplitude index = coin * dim_p +
position, i.e. the coin bit is the most significant.  For the padded
embedding of a 3-qubit circuit this reads |q2 q1 q0> with q2 the coin and
position = 2*q1 + q0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NORM_TOL = 1e-10

__all__ = [
    "CoinParams",
    "CoinSchedule",
    "coin_operator",
    "shift_operator",
    "step_operator",
    "circulant_step_operator",
    "initial_state",
    "evolve",
    "return_probability",
    "parrondo_schedule",
    "padded_dim",
    "unitarity_defect",
]


@dataclass(frozen=True)
class CoinParams:
    """Parameters (r, a, b) of the 2x2 unitary coin.

    ``r`` is a reflectivity in [0, 1]; ``a`` and ``b`` are phases in
    radians.  Phases are accepted anywhere in [0, 2pi) although the
    canonical range is [0, pi].
    """

    r: float
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"coin parameter r must lie in [0, 1], got {self.r}")
        for name, angle in (("a", self.a), ("b", self.b)):
            if not 0.0 <= angle < 2.0 * math.pi:
                raise ValueError(
                    f"coin phase {name} must lie in [0, 2*pi), got {angle}"
                )


def coin_operator(p: CoinParams) -> np.ndarray:
    """Return the 2x2 coin unitary for the given parameters.

    The matrix is ``[[sqrt(r), sqrt(1-r) e^{ia}],
    [sqrt(1-r) e^{ib}, -sqrt(r) e^{i(a+b)}]]``.
    """
    sr = math.sqrt(p.r)
    sq = math.sqrt(1.0 - p.r)
    return np.array(
        [
            [sr, sq * np.exp(1j * p.a)],
            [sq * np.exp(1j * p.b), -sr * np.exp(1j * (p.a + p.b))],
        ],
        dtype=complex,
    )


def padded_dim(n_nodes: int) -> int:
    """Number of position basis states in the padded embedding (2**n)."""
    return 1 << max(1, math.ceil(math.log2(n_nodes)))


def _position_dim(n_nodes: int, embedding: str) -> int:
    if n_nodes < 3:
        raise ValueError(f"cycle must have at least 3 nodes, got {n_nodes}")
    if embedding == "exact":
        return n_nodes
    if embedding == "padded":
        return padded_dim(n_nodes)
    raise ValueError(f"unknown embedding {embedding!r} (use 'exact' or 'padded')")


def shift_operator(n_nodes: int, embedding: str = "exact") -> np.ndarray:
    """Conditional shift permutation on the cycle.

    Coin |0> decrements the position (j -> j-1 mod N), coin |1> increments
    it.  In the padded embedding, nodes >= N are fixed points of both
    branches.
    """
    dim_p = _position_dim(n_nodes, embedding)
    dec = np.zeros((dim_p, dim_p))
    inc = np.zeros((dim_p, dim_p))
    for j in range(dim_p):
        if j < n_nodes:
            dec[(j - 1) % n_nodes, j] = 1.0
            inc[(j + 1) % n_nodes, j] = 1.0
        else:
            dec[j, j] = 1.0
            inc[j, j] = 1.0
    out = np.zeros((2 * dim_p, 2 * dim_p), dtype=complex)
    out[:dim_p, :dim_p] = dec
    out[dim_p:, dim_p:] = inc
    return out


def step_operator(
    n_nodes: int, coin: CoinParams, embedding: str = "exact"
) -> np.ndarray:
    """One-step evolution operator U = S . (C (x) I_p) in the coin-major basis."""
    c = coin_operator(coin)
    dim_p = _position_dim(n_nodes, embedding)
    return shift_operator(n_nodes, embedding) @ np.kron(c, np.eye(dim_p))


def circulant_step_operator(n_nodes: int, coin: CoinParams) -> np.ndarray:
    """Independent construction of the exact step operator as a block circulant.

    Position-major block row j, column k holds block M_{(k-j) mod N} where
    only M_1 (top row of the coin) and M_{N-1} (bottom row) are nonzero.
    The result is permuted back into the coin-major basis, so it must equal
    ``step_operator(n_nodes, coin, "exact")`` entrywise.  Kept separate from
    step_operator on purpose: it is the oracle the circulant tests check
    against.
    """
    c = coin_operator(coin)
    blocks = {
        1: np.array([[c[0, 0], c[0, 1]], [0.0, 0.0]]),
        n_nodes - 1: np.array([[0.0, 0.0], [c[1, 0], c[1, 1]]]),
    }
    pos_major = np.zeros((2 * n_nodes, 2 * n_nodes), dtype=complex)
    for j in range(n_nodes):
        for k in range(n_nodes):
            m = blocks.get((k - j) % n_nodes)
            if m is not None:
                pos_major[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = m
    # reindex position-major (pos*2 + coin) -> coin-major (coin*N + pos)
    perm = np.zeros(2 * n_nodes, dtype=int)
    for pos in range(n_nodes):
        for coin_bit in range(2):
            perm[coin_bit * n_nodes + pos] = pos * 2 + coin_bit
    return pos_major[np.ix_(perm, perm)]


def initial_state(
    theta: float, phi: float, n_nodes: int, embedding: str = "exact"
) -> np.ndarray:
    """Walker at position 0 with coin state cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi must lie in [0, 2*pi), got {phi}")
    dim_p = _position_dim(n_nodes, embedding)
    state = np.zeros(2 * dim_p, dtype=complex)
    state[0] = math.cos(theta / 2.0)
    state[dim_p] = np.exp(1j * phi) * math.sin(theta / 2.0)
    return state


@dataclass(frozen=True)
class CoinSchedule:
    """A cyclic coin pattern bound to named coin parameters.

    ``pattern`` repeats: the coin used at step ``i`` is
    ``pattern[i % len(pattern)]``.  ``length`` is the total number of steps.
    """

    pattern: tuple[str, ...]
    coins: dict[str, CoinParams] = field(compare=False)
    length: int = 0

    def __post_init__(self) -> None:
        if not self.pattern:
            raise ValueError("schedule pattern must not be empty")
        if self.length < 0:
            raise ValueError(f"schedule length must be >= 0, got {self.length}")
        missing = [lab for lab in self.pattern if lab not in self.coins]
        if missing:
            raise KeyError(f"pattern labels with no bound coin: {sorted(set(missing))}")

    def __len__(self) -> int:
        return self.length

    def label_at(self, step: int) -> str:
        return self.pattern[step % len(self.pattern)]

    def coin_at(self, step: int) -> CoinParams:
        return self.coins[self.label_at(step)]

    def labels(self) -> list[str]:
        """The pattern expanded to the schedule's full length."""
        return [self.label_at(i) for i in range(self.length)]


def parrondo_schedule(
    pattern: str, coins: dict[str, CoinParams], steps: int
) -> CoinSchedule:
    """Cyclically expand ``pattern`` (e.g. "AABB") over ``steps`` steps."""
    return CoinSchedule(pattern=tuple(pattern), coins=dict(coins), length=steps)


def evolve(
    state: np.ndarray,
    schedule: CoinSchedule,
    n_nodes: int,
    embedding: str = "exact",
) -> list[np.ndarray]:
    """Apply the scheduled step operators; return the state after each step.

    The trajectory has one entry per step (t = 1 .. len(schedule)); the
    initial state is not included.  Each step is one ``ndarray.dot``, and the
    norm, checked after every step, is ``np.linalg.norm``'s own formula for a
    complex vector, sqrt(re.re + im.im), without its call overhead.
    """
    dim = 2 * _position_dim(n_nodes, embedding)
    if state.shape != (dim,):
        raise ValueError(
            f"state has dimension {state.shape}, expected ({dim},) for "
            f"N={n_nodes} {embedding}"
        )
    ops = {
        label: step_operator(n_nodes, params, embedding)
        for label, params in schedule.coins.items()
    }
    trajectory = []
    current = state
    for i, label in enumerate(schedule.labels(), 1):
        current = ops[label].dot(current)
        re, im = current.real, current.imag
        norm = math.sqrt(re.dot(re) + im.dot(im))
        if not (abs(norm - 1.0) <= NORM_TOL):
            raise ArithmeticError(f"state norm drifted to {norm} at step {i}")
        trajectory.append(current)
    return trajectory


def return_probability(
    state: np.ndarray, n_nodes: int, embedding: str = "exact"
) -> float:
    """Probability of finding the walker at position 0, marginal over the coin."""
    dim_p = _position_dim(n_nodes, embedding)
    return float(abs(state[0]) ** 2 + abs(state[dim_p]) ** 2)


def unitarity_defect(m: np.ndarray) -> float:
    """Frobenius norm of M M^dag - I; ~0 for unitary M."""
    return float(np.linalg.norm(m @ m.conj().T - np.eye(m.shape[0])))
