"""Distribution- and state-level comparison metrics.

Hellinger distance h(P, Q) = sqrt(sum_k (sqrt(p_k) - sqrt(q_k))**2) / sqrt(2)
and the derived fidelity (1 - h**2)**2 compare measured position
distributions; trace distance compares density matrices.  Distributions
are compared over the union of their outcome alphabets with missing
outcomes treated as zero.
"""

from __future__ import annotations

import math

import numpy as np

from .simulate import Distribution

__all__ = [
    "hellinger_distance",
    "hellinger_fidelity",
    "trace_distance",
]

_NORM_TOL = 1e-6


def _as_probabilities(dist: Distribution | dict) -> dict[int, float]:
    """The outcome probabilities; they must sum to 1 and none may be below 0."""
    if isinstance(dist, Distribution):
        probs = dist.probabilities()
    else:
        probs = dict(dist)
    total = sum(probs.values())
    if not (abs(total - 1.0) <= _NORM_TOL):
        raise ValueError(f"distribution is not normalized (sums to {total})")
    if any(p < 0.0 for p in probs.values()):
        raise ValueError(f"distribution has a negative probability: {probs}")
    return probs


def hellinger_distance(p: Distribution | dict, q: Distribution | dict) -> float:
    """Hellinger distance in [0, 1]; 0 iff equal, 1 iff disjoint supports."""
    pp = _as_probabilities(p)
    qq = _as_probabilities(q)
    keys = set(pp) | set(qq)
    acc = sum((math.sqrt(pp.get(k, 0.0)) - math.sqrt(qq.get(k, 0.0))) ** 2 for k in keys)
    return min(1.0, math.sqrt(acc / 2.0))


def hellinger_fidelity(p: Distribution | dict, q: Distribution | dict) -> float:
    """(1 - h**2)**2: 1 for identical distributions, 0 for disjoint ones."""
    h2 = hellinger_distance(p, q) ** 2
    return (1.0 - h2) ** 2


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) * trace norm of rho - sigma."""
    if rho.shape != sigma.shape:
        raise ValueError(f"density dimensions differ: {rho.shape} vs {sigma.shape}")
    if not (np.isfinite(rho).all() and np.isfinite(sigma).all()):
        raise ValueError("density matrices must be finite")
    diff = rho - sigma
    eigenvalues = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return float(0.5 * np.sum(np.abs(eigenvalues)))
