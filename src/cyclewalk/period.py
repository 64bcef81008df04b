"""Periodicity detection for walk operators.

A walk with step operator U is periodic with period T when U^T acts as the
identity.  Two notions are supported:

* strict: U^T = I entrywise (no phase allowance),
* phase-insensitive: U^T = e^{i gamma} I for some common phase gamma.

Both a direct matrix-power search and an eigenvalue-based search are
provided; they must agree and serve as mutual regression oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gates import unitarity_defect

__all__ = ["PeriodResult", "EigendecompositionError", "find_period_power", "find_period_eigen"]

DEFAULT_T_MAX = 1000
DEFAULT_TOL = 1e-8
# steps whose residuals the finders compute in one vectorised block
BLOCK = 128


class EigendecompositionError(RuntimeError):
    """Eigenvalue computation failed to converge."""


@dataclass(frozen=True)
class PeriodResult:
    """Outcome of a period search up to ``bound`` steps.

    ``period`` is the smallest passing T, or None if no T <= bound passed;
    ``residual`` is the identity distance at the reported T (or the closest
    approach seen when no period was found).
    """

    period: int | None
    residual: float
    bound: int

    @property
    def found(self) -> bool:
        return self.period is not None


def _check_inputs(u: np.ndarray, t_max: int, tol: float) -> None:
    defect = unitarity_defect(u)
    if not (defect <= 1e-8):
        raise ValueError(f"operator is not unitary (defect {defect:.2e})")
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if not (0.0 < tol < np.inf):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def _unit_phase(z: np.ndarray, floor: float) -> np.ndarray:
    """z / |z| elementwise, and 1 where |z| <= floor."""
    size = np.hypot(z.real, z.imag)  # the same bits as abs() of one complex
    big = size > floor
    return np.where(big, z, 1.0) / np.where(big, size, 1.0)


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """||M||_F of each matrix M in a stack, summed in np.linalg.norm's order for one matrix."""
    flat = stack.reshape(len(stack), 1, -1)
    re, im = flat.real, flat.imag
    squares = np.matmul(re, re.swapaxes(1, 2)) + np.matmul(im, im.swapaxes(1, 2))
    return np.sqrt(squares[:, 0, 0])


def _search(residuals_of, t_max: int, tol: float) -> PeriodResult:
    """The first t <= t_max whose residual is below tol.

    ``residuals_of(start, n)`` returns the residuals of t = start .. start+n-1;
    it is called for consecutive blocks of at most BLOCK steps, so working
    memory does not grow with t_max and a short period returns early.
    """
    best = np.inf
    for start in range(1, t_max + 1, BLOCK):
        residuals = residuals_of(start, min(BLOCK, t_max + 1 - start))
        hits = np.flatnonzero(residuals < tol)
        if hits.size:
            i = int(hits[0])
            return PeriodResult(period=start + i, residual=float(residuals[i]), bound=t_max)
        best = min(best, float(residuals.min()))
    return PeriodResult(period=None, residual=best, bound=t_max)


def find_period_power(
    u: np.ndarray,
    t_max: int = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
    phase_insensitive: bool = False,
) -> PeriodResult:
    """Search for the smallest T <= t_max with U^T = I by direct matrix powers.

    Each power is one product U @ U^(T-1), never a squaring or a function of
    the spectrum: one ``ndarray.dot`` into its slot of the block, the same
    BLAS call as ``np.dot`` without its Python dispatcher.  A block of
    consecutive powers is checked at once.  In phase-insensitive mode the
    comparison allows a common phase, fixed from the largest-magnitude
    diagonal entry of U^T.  The residual is the Frobenius distance
    ||U^T - e^{i gamma} I||_F.
    """
    _check_inputs(u, t_max, tol)
    dim = u.shape[0]
    block = np.empty((min(BLOCK, t_max), dim, dim), dtype=complex)
    outs = list(block)
    dot = u.dot
    power = np.eye(dim, dtype=complex)

    def residuals_of(start: int, n: int) -> np.ndarray:
        nonlocal power
        powers = block[:n]
        for out in outs[:n]:
            power = dot(power, out)
        power = power.copy()  # the block becomes U^t - e^{i gamma} I below
        diagonals = powers.reshape(n, -1)[:, :: dim + 1]
        if phase_insensitive:
            lead = diagonals[np.arange(n), np.argmax(np.abs(diagonals), axis=1)]
            # a subnormal |lead| would overflow z / |z|
            diagonals -= _unit_phase(lead, np.finfo(float).tiny)[:, None]
        else:
            diagonals -= 1.0
        return _frobenius(powers)

    return _search(residuals_of, t_max, tol)


def find_period_eigen(
    u: np.ndarray,
    t_max: int = DEFAULT_T_MAX,
    tol: float = DEFAULT_TOL,
    phase_insensitive: bool = False,
) -> PeriodResult:
    """Search for the period through the spectrum of U.

    U^T = e^{i gamma} I iff every eigenvalue satisfies lambda_j^T =
    e^{i gamma}.  For each candidate T the common phase is the least-squares
    fit over all eigenvalues (their normalized mean); strict mode forces
    gamma = 0.  The reported residual is max_j |lambda_j^T - e^{i gamma}|.
    A block of consecutive candidates is checked at once.
    """
    _check_inputs(u, t_max, tol)
    try:
        eigenvalues = np.linalg.eigvals(u)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"eigenvalue computation failed: {exc}") from exc
    turns = 1j * np.angle(eigenvalues)

    def residuals_of(start: int, n: int) -> np.ndarray:
        powered = np.exp(turns * np.arange(start, start + n)[:, None])
        if phase_insensitive:
            phase = _unit_phase(np.mean(powered, axis=1), 1e-12)[:, None]
        else:
            phase = 1.0
        return np.max(np.abs(powered - phase), axis=1)

    return _search(residuals_of, t_max, tol)
