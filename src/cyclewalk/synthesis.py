"""Exact unitary synthesis helpers.

Three layers, each verified against dense linear algebra:

* one qubit: ZXZXZ Euler angles over the native set (RZ, SX),
* two qubits: Cartan decomposition U = e^{ig} (A1 (x) A0) .
  exp(i(a XX + b YY + c ZZ)) . (B1 (x) B0), realized either as a logical
  template (four layers of single-qubit gates separated by three
  controlled-phase gates) or as a native stream with three ECR-class
  entanglers,
* three qubits: cosine-sine recursion (two block demultiplexers around a
  multiplexed Y rotation), giving an entangler skeleton whose size depends
  only on the width; its four two-qubit blocks take one stacked Cartan pass.

Each layer synthesizes a stack of n unitaries in one call (one matrix is a
stack of one).  Native streams are lists of ("u", wire, matrix) and ("ecr",
hi, lo) items, a "u" matrix an (n, 2, 2) stack or a 2x2 constant of all
rows; adjacent single-qubit items on a wire merge before emission, in one
stacked pass planned once per skeleton, so the emitted gate count is
structure-determined, never angle-determined.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np
import scipy.linalg

from .circuit import RunPlan
from .gates import (
    Gate,
    H_MATRIX,
    X_MATRIX,
    canonical_angle,
    phase_matrix,
    rz_matrix,
)

__all__ = [
    "zxzxz_angles",
    "u3_params",
    "kak_decompose",
    "cp_template",
    "kak_stream",
    "qsd_stream",
    "stream_to_gates",
    "cx_stream",
    "cp_stream",
]

_EPS = 1e-12
# A rotation whose canonical angle is below this in magnitude is emitted as
# no gate; the one rule for dropping zero angles, also used by transpile.
ZERO_ANGLE = 1e-12

# ---------------------------------------------------------------------------
# one qubit

def _check_unitary_2x2(u: np.ndarray, caller: str) -> None:
    """Raise ValueError if ||u u^dag - I||_F > 1e-8 (or NaN), in plain float
    arithmetic on the four entries: cheaper here than any numpy call."""
    (a, b), (c, d) = u.tolist()
    defect = math.hypot(abs(a) ** 2 + abs(b) ** 2 - 1.0, abs(c) ** 2 + abs(d) ** 2 - 1.0,
                        math.sqrt(2.0) * abs(a * c.conjugate() + b * d.conjugate()))
    if not defect <= 1e-8:
        raise ValueError(f"{caller} needs a unitary matrix (defect {defect:.2e})")


def zxzxz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (a, b, c, delta) with u = e^{i delta} RZ(a) SX RZ(b) SX RZ(c).

    Uses SX RZ(b) SX = [[sin(b/2), cos(b/2)], [cos(b/2), -sin(b/2)]], which
    holds exactly (no leftover phase).  A non-unitary u raises ValueError.
    """
    _check_unitary_2x2(u, "zxzxz_angles")
    s = abs(u[0, 0])
    cmag = abs(u[0, 1])
    b = 2.0 * math.atan2(s, cmag)
    if s > _EPS and cmag > _EPS:
        apc = np.angle(-u[1, 1] / u[0, 0])
        amc = np.angle(u[1, 0] / u[0, 1])
        a = 0.5 * (apc + amc)
        c = 0.5 * (apc - amc)
        delta = np.angle(u[0, 0]) + 0.5 * (a + c)
        # the half-angle split leaves a branch ambiguity that flips the
        # off-diagonal sign; detect and shift (a, c) by (+pi, -pi)
        probe = np.exp(1j * delta) * np.exp(-0.5j * (a - c)) * cmag
        if abs(probe - u[0, 1]) > abs(probe + u[0, 1]):
            a += math.pi
            c -= math.pi
    elif s <= _EPS:
        # anti-diagonal: b = 0, only a - c matters
        a = float(np.angle(u[1, 0] / u[0, 1]))
        c = 0.0
        delta = np.angle(u[0, 1]) + 0.5 * (a - c)
    else:
        # diagonal: b = pi, only a + c matters
        a = float(np.angle(-u[1, 1] / u[0, 0]))
        c = 0.0
        delta = np.angle(u[0, 0]) + 0.5 * (a + c)
    return float(a), float(b), float(c), float(delta)


def u3_params(u: np.ndarray) -> tuple[float, float, float, float]:
    """Parameters (theta, phi, lam, delta) with u = e^{i delta} U3(theta, phi, lam);
    a non-unitary u raises ValueError."""
    _check_unitary_2x2(u, "u3_params")
    mag00 = abs(u[0, 0])
    theta = 2.0 * math.atan2(abs(u[1, 0]), mag00)
    if mag00 > _EPS:
        delta = float(np.angle(u[0, 0]))
        v = u * np.exp(-1j * delta)
        if abs(v[1, 0]) > _EPS:
            phi = 2.0 * float(np.angle(v[1, 0]))
            lam = 2.0 * float(np.angle(-v[0, 1]))
        else:
            half = float(np.angle(v[1, 1]))
            phi = half
            lam = half
    else:
        delta = 0.0
        theta = math.pi
        phi = 2.0 * float(np.angle(u[1, 0]))
        lam = 2.0 * float(np.angle(-u[0, 1]))
    return theta, float(phi), float(lam), delta


# ---------------------------------------------------------------------------
# two qubits: Cartan decomposition

_MAGIC = np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
) / math.sqrt(2)
_MAGIC_DAG = _MAGIC.conj().T

_PAULI = {
    "X": X_MATRIX,
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _magic_signs() -> np.ndarray:
    """Rows: diagonal sign patterns of XX, YY, ZZ in the magic basis, plus ones."""
    rows = []
    for p in ("X", "Y", "Z"):
        pp = np.kron(_PAULI[p], _PAULI[p])
        diag = _MAGIC_DAG @ pp @ _MAGIC
        off = np.linalg.norm(diag - np.diag(np.diagonal(diag)))
        if off > 1e-12:
            raise AssertionError(f"{p}{p} is not diagonal in the magic basis")
        rows.append(np.real(np.diagonal(diag)))
    rows.append(np.ones(4))
    return np.array(rows).T  # shape (4, 4): columns (sx, sy, sz, 1)


_SIGNS = _magic_signs()


def _stack(u: np.ndarray, d: int) -> np.ndarray:
    """A copy of a d x d matrix or an (n, d, d) stack, as a stack; other shapes raise ValueError."""
    u = np.array(u, dtype=complex)
    if u.ndim not in (2, 3) or u.shape[-2:] != (d, d):
        raise ValueError(f"need a {d}x{d} matrix or an (n, {d}, {d}) stack, got shape {u.shape}")
    return u.reshape(-1, d, d)


def _first_non_unitary(u: np.ndarray) -> tuple[int, float] | None:
    """(row, defect) of a stack's first row with ||u u^dag - I||_F > 1e-8 (or NaN), or None."""
    defect = np.linalg.norm(u @ u.conj().transpose(0, 2, 1) - np.eye(u.shape[-1]), axis=(1, 2))
    bad = np.flatnonzero(~(defect <= 1e-8))
    return (int(bad[0]), float(defect[bad[0]])) if bad.size else None


def _joint_diagonalize(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Orthogonal O diagonalizing each pair of commuting real symmetric
    matrices of two (n, 4, 4) stacks.

    Diagonalizes ``re`` first, then ``im`` restricted to each eigenspace of
    ``re``; robust against degenerate spectra.  Only rows with a degenerate
    spectrum take the per-block pass.
    """
    w, o = np.linalg.eigh(re)
    split = w[:, 1:] - w[:, :-1] > 1e-9
    for i in np.flatnonzero(~split.all(axis=1)).tolist():
        bounds = [0, *(np.flatnonzero(split[i]) + 1).tolist(), 4]
        for start, stop in zip(bounds, bounds[1:]):
            if stop - start == 1:  # eigh of a 1x1 block gives [[1.0]]: keep o's column
                continue
            block = o[i, :, start:stop]
            sub = block.T @ im[i] @ block
            _, p = np.linalg.eigh(0.5 * (sub + sub.T))
            o[i, :, start:stop] = block @ p
    return o


def interaction_matrix(a, b, c) -> np.ndarray:
    """exp(i (a XX + b YY + c ZZ)), evaluated in the magic eigenbasis: one
    4x4 matrix, or an (n, 4, 4) stack for (n,) arrays a, b, c."""
    phases = np.stack([a, b, c], axis=-1) @ _SIGNS[:, :3].T
    return _MAGIC * np.exp(1j * phases)[..., None, :] @ _MAGIC_DAG


def _factor_kron(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split each exact Kronecker product of an (n, 4, 4) stack into its
    (hi, lo) 2x2 factors, as two (n, 2, 2) stacks."""
    w = m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4, 4)
    u, s, vh = np.linalg.svd(w)
    if not (s[:, 1] <= 1e-9).all():
        raise AssertionError(f"matrix is not a Kronecker product (s1={s[:, 1].max():.2e})")
    scale = np.sqrt(s[:, :1])
    return (u[:, :, 0] * scale).reshape(-1, 2, 2), (vh[:, 0] * scale).reshape(-1, 2, 2)


def _kron2(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """np.kron of each pair of an (n, 2, 2) stack, as an (n, 4, 4) stack."""
    return (hi[:, :, None, :, None] * lo[:, None, :, None, :]).reshape(-1, 4, 4)


def _rotated_split(p: np.ndarray) -> np.ndarray:
    """Orthogonal O with O^T p O diagonal for each symmetric unitary of an
    (n, 4, 4) stack, from one eigh of Re(e^{-it} p) per row.

    Eigenvalues e^{i phi_j}, e^{i phi_k} of p merge in Re(e^{-it} p) only at
    t = (phi_j + phi_k) / 2 (mod pi), so t is the one of twelve angles in
    [0, pi) farthest from all six such points: there |sin| >= sin(pi/24), and
    a close pair of p's eigenvalues leaves a residual of a few ulps.
    """
    phi = np.angle(np.linalg.eigvals(p))
    j, k = np.triu_indices(4, 1)
    merge = 0.5 * (phi[:, j] + phi[:, k])
    grid = np.arange(12) * (math.pi / 12)
    clearance = np.abs(np.sin(grid[None, :, None] - merge[:, None, :])).min(axis=2)
    t = grid[clearance.argmax(axis=1)]
    m = (np.exp(-1j * t)[:, None, None] * p).real
    return np.linalg.eigh(0.5 * (m + m.transpose(0, 2, 1)))[1]


def _phases_and_q2t(o1: np.ndarray, p: np.ndarray, um: np.ndarray) -> tuple[np.ndarray, ...]:
    """theta = arg(diag(o1^T p o1)) / 2 and Q2^T = diag(e^{-i theta}) o1^T um
    for each row of the stacks."""
    theta = 0.5 * np.angle(np.diagonal(o1.transpose(0, 2, 1) @ p @ o1, axis1=1, axis2=2))
    return theta, _diag(np.exp(-1j * theta)) @ o1.transpose(0, 2, 1) @ um


def _diag(d: np.ndarray) -> np.ndarray:
    """The diagonal matrices of the rows of an (n, 4) array, as a stack: a product
    with it is np.diag's, where a broadcast can flip the sign of a zero."""
    out = np.zeros((len(d), 4, 4), dtype=complex)
    out.reshape(-1, 16)[:, ::5] = d
    return out


def _cartan(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cartan decomposition of each unitary of an (n, 4, 4) stack, every
    step one stacked call (a single matrix is the stack of one).

    Returns (abcg, a1, a0, b1, b0): an (n, 4) stack of (a, b, c, g) and four
    (n, 2, 2) stacks, with u[i] = e^{i g} (a1 (x) a0)
    exp(i(a XX + b YY + c ZZ)) (b1 (x) b0) to machine precision.  Raises
    ValueError naming the first row with ||u u^dag - I||_F > 1e-8 (or NaN).
    """
    n = len(u)
    if (bad := _first_non_unitary(u)) is not None:
        raise ValueError("row {} of the stack is not unitary (defect {:.2e})".format(*bad))
    um = _MAGIC_DAG @ u @ _MAGIC
    p = um @ um.transpose(0, 2, 1)
    re, im = p.real, p.imag  # transpose(0, 2, 1), as ndarray.mT needs NumPy 2
    o1 = _joint_diagonalize(
        0.5 * (re + re.transpose(0, 2, 1)), 0.5 * (im + im.transpose(0, 2, 1))
    )
    theta, q2t = _phases_and_q2t(o1, p, um)
    # a gap of Re p just above the split tolerance leaves its eigenvectors too
    # loose for Im p; dropping an Im Q2 of norm e moves the rebuilt u by about
    # e, so rows with e above 1e-10 take the rotated split instead
    loose = np.flatnonzero(~((q2t.imag ** 2).sum(axis=(1, 2)) <= 1e-20))
    if loose.size:
        o1[loose] = _rotated_split(p[loose])
        theta[loose], q2t[loose] = _phases_and_q2t(o1[loose], p[loose], um[loose])
    if not ((q2t.imag ** 2).sum(axis=(1, 2)) <= 1e-16).all():  # norm at most 1e-8
        raise AssertionError("Cartan factor Q2 is not real")
    # q2 = q2t^T; a factor of determinant -1 flips its first column into theta
    q1, q2 = o1, q2t.real.transpose(0, 2, 1).copy()
    for q in (q1, q2):
        flip = np.linalg.det(q) < 0
        q[flip, :, 0] = -q[flip, :, 0]
        theta[flip, 0] += math.pi
    abcg = np.linalg.solve(_SIGNS, theta[:, :, None])[:, :, 0]
    hi, lo = _factor_kron(_MAGIC @ np.concatenate([q1, q2.transpose(0, 2, 1)]) @ _MAGIC_DAG)
    kron = _kron2(hi, lo)
    middle = interaction_matrix(*abcg[:, :3].T)
    rebuilt = np.exp(1j * abcg[:, 3, None, None]) * kron[:n] @ middle @ kron[n:]
    err = np.linalg.norm(rebuilt - u, axis=(1, 2))
    if not (err <= 1e-9).all():
        raise AssertionError(f"Cartan reconstruction failed (residual {err.max():.2e})")
    return abcg, hi[:n], lo[:n], hi[n:], lo[n:]


def kak_decompose(
    u4: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, float, float, float, np.ndarray, np.ndarray]:
    """Cartan decomposition of a 4x4 unitary: the one-row case of ``_cartan``.

    Returns (g, a1, a0, a, b, c, b1, b0) such that
    u4 = e^{ig} (a1 (x) a0) exp(i(a XX + b YY + c ZZ)) (b1 (x) b0)
    to machine precision.  The hi factor acts on the more significant of the
    two qubits the matrix is written in.
    """
    abcg, a1, a0, b1, b0 = _cartan(np.asarray(u4)[None])
    a, b, c, g = abcg[0].tolist()
    return g, a1[0], a0[0], a, b, c, b1[0], b0[0]


_S_GATE = np.diag([1.0, 1j])
_G_CONJ = _S_GATE @ H_MATRIX  # G Z G^dag = Y


def cp_template(
    u4: np.ndarray,
) -> tuple[list[tuple[np.ndarray, np.ndarray]], list[float], float]:
    """Four single-qubit layers and three controlled-phase angles realizing u4.

    Returns (layers, cp_angles, phase): layers[k] = (hi, lo) 2x2 matrices,
    executed as layer 0, CP(cp_angles[0]), layer 1, CP(cp_angles[1]),
    layer 2, CP(cp_angles[2]), layer 3, the whole product equalling
    e^{-i phase} u4 (i.e. u4 up to the reported phase).

    Uses e^{i t ZZ} = e^{it} (P(-2t) (x) P(-2t)) CP(4t) and the conjugations
    XX = (H(x)H) ZZ (H(x)H), YY = (G(x)G) ZZ (G(x)G)^dag with G = S H.
    ``builders`` derives the 3-node Fourier block of the walk circuits from it.
    """
    g, a1, a0, a, b, c, b1, b0 = kak_decompose(u4)
    gd = _G_CONJ.conj().T
    layers = [
        (b1, b0),
        (gd @ phase_matrix(-2 * c), gd @ phase_matrix(-2 * c)),
        (H_MATRIX @ _G_CONJ @ phase_matrix(-2 * b), H_MATRIX @ _G_CONJ @ phase_matrix(-2 * b)),
        (a1 @ H_MATRIX @ phase_matrix(-2 * a), a0 @ H_MATRIX @ phase_matrix(-2 * a)),
    ]
    cp_angles = [4 * c, 4 * b, 4 * a]
    phase = g + a + b + c
    return layers, cp_angles, phase


# ---------------------------------------------------------------------------
# native streams

Stream = list[tuple]


def _u(wire: int, matrix: np.ndarray) -> tuple:
    return ("u", wire, matrix)


def _rx(theta: float) -> np.ndarray:
    """RX(theta) = exp(-i theta X / 2) in closed form."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    """RY(theta) = exp(-i theta Y / 2) in closed form."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rows(rotation: Callable[[float], np.ndarray], theta: np.ndarray) -> np.ndarray:
    """``rotation`` at each angle of an (n,) array, as an (n, 2, 2) stack: one
    scalar call per row, since vector trig may differ in the last bit."""
    return np.array([rotation(t) for t in theta.tolist()])


@functools.cache
def _cx_locals() -> tuple[np.ndarray, np.ndarray]:
    """The constant (control, target) locals of cx_stream, from
    ECR = (I (x) X) exp(-i pi/4 X (x) Z) and CX = e^{i pi/4} exp(i pi/4 Z1 X0)
    (RZ(pi/2) (x) RX(pi/2)); built on first use, so importing costs nothing."""
    return H_MATRIX @ rz_matrix(math.pi / 2), X_MATRIX @ H_MATRIX @ _rx(math.pi / 2)


def cx_stream(control: int, target: int) -> Stream:
    """CNOT as locals around one ECR (exact up to a global phase)."""
    control_local, target_local = _cx_locals()
    return [
        _u(control, control_local),
        _u(target, target_local),
        ("ecr", control, target),
        _u(control, H_MATRIX),
        _u(target, H_MATRIX),
    ]


def cz_stream(q_a: int, q_b: int) -> Stream:
    """Controlled-Z: CX with Hadamards on the target."""
    return [_u(q_b, H_MATRIX)] + cx_stream(q_a, q_b) + [_u(q_b, H_MATRIX)]


def cp_stream(theta: float, control: int, target: int) -> Stream:
    """Controlled phase via two CNOTs and RZ rotations (up to global phase)."""
    half = 0.5 * theta
    return (
        [_u(control, rz_matrix(half))]
        + cx_stream(control, target)
        + [_u(target, rz_matrix(-half))]
        + cx_stream(control, target)
        + [_u(target, rz_matrix(half))]
    )


# eigenbasis of ZX = iY: columns are the eigenvectors for +i and -i
_ZX_BASIS = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2)
_ZX_BASIS_DAG = _ZX_BASIS.conj().T
_PHASE_HALF_PI = phase_matrix(math.pi / 2)


def _merged_cz_cx_stream(hi: int, lo: int) -> Stream:
    """The composite CZ . CX(hi->lo) as a single entangling block.

    CZ CX = |0><0| (x) I + |1><1| (x) ZX, and ZX = iY has eigenphases
    (+i, -i) in the _ZX_BASIS frame, so the composite is one CZ dressed
    with locals: (I (x) B) P(pi/2)_hi CZ (I (x) B^dag).
    """
    return (
        [_u(lo, _ZX_BASIS_DAG)]
        + cz_stream(hi, lo)
        + [_u(lo, _ZX_BASIS), _u(hi, _PHASE_HALF_PI)]
    )


def _kak_stream(cartan: tuple[np.ndarray, ...], hi: int, lo: int) -> Stream:
    """Native stream for each row of a ``_cartan`` result, up to global phase.

    Skeleton: three entangling blocks.  With W = exp(i(a XX + b YY + c ZZ)),
    W = CX . RX(-2a)_hi . CZ . (RX(2b)_hi RZ(-2c)_lo) . CZ . CX
    holds exactly; the first CX and the adjacent CZ merge into a single
    entangling block, leaving three two-qubit natives in total.
    """
    abcg, a1, a0, b1, b0 = cartan
    a, b, c, _ = abcg.T
    stream: Stream = [_u(hi, b1), _u(lo, b0)]
    stream += _merged_cz_cx_stream(hi, lo)
    stream += [_u(lo, _rows(rz_matrix, -2 * c)), _u(hi, _rows(_rx, 2 * b))]
    stream += cz_stream(hi, lo)
    stream += [_u(hi, _rows(_rx, -2 * a))]
    stream += cx_stream(hi, lo)
    stream += [_u(hi, a1), _u(lo, a0)]
    return stream


def kak_stream(u4: np.ndarray, hi: int, lo: int) -> Stream:
    """Native stream for a 4x4 unitary or an (n, 4, 4) stack, up to global
    phase (three ECRs; see ``_kak_stream``); another shape raises ValueError."""
    return _kak_stream(_cartan(_stack(u4, 4)), hi, lo)


# ---------------------------------------------------------------------------
# multiplexed rotations and the three-qubit recursion

def _gray(i: int) -> int:
    return i ^ (i >> 1)


@functools.cache
def _gray_signs(n: int) -> np.ndarray:
    """The n x n matrix (-1)^{popcount(gray(i) & j)}, row j and column i."""
    m = np.array(
        [[(-1.0) ** bin(_gray(i) & j).count("1") for i in range(n)] for j in range(n)]
    )
    m.flags.writeable = False
    return m


def mux_rotation_stream(
    axis: str, target: int, controls: list[int], thetas: np.ndarray
) -> Stream:
    """Uniformly controlled RZ or RY on ``target`` for each row of an (n, 2**k)
    stack of angles (one row of 2**k is a stack of one).

    ``thetas[:, p]`` applies when the control bits spell p (controls[0] is
    the most significant).  Gray-code construction: 2**k rotations, whose
    angles phi solve theta_j = sum_i phi_i (-1)^{popcount(gray(i) & j)},
    interleaved with 2**k CNOTs whose controls follow the Gray transition bit.
    """
    k = len(controls)
    n = 1 << k
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.shape[1] != n:
        raise ValueError(f"need {n} angles for {k} controls, got {thetas.shape[1]}")
    rot = {"z": rz_matrix, "y": _ry}.get(axis)
    if rot is None:
        raise ValueError(f"unsupported rotation axis {axis!r}")
    if k == 0:
        return [_u(target, _rows(rot, thetas[:, 0]))]
    phis = np.linalg.solve(_gray_signs(n), thetas[:, :, None])[:, :, 0]
    stream: Stream = []
    for i in range(n):
        stream.append(_u(target, _rows(rot, phis[:, i])))
        transition = _gray(i) ^ _gray((i + 1) % n)
        bit = transition.bit_length() - 1
        stream += cx_stream(controls[k - 1 - bit], target)
    return stream


def _demux(
    a_block: np.ndarray, b_block: np.ndarray, select: int, lower: list[int]
) -> tuple[np.ndarray, np.ndarray, Stream]:
    """Demultiplex each block-diagonal operator A (+) B of two (n, 4, 4) stacks.

    Uses A = V D W, B = V D^dag W with D = exp(i delta) from the spectrum of
    A B^dag (a Schur form per row); returns W, V and the middle, a
    multiplexed RZ on the select qubit.
    """
    m = a_block @ b_block.conj().transpose(0, 2, 1)
    t, v = map(np.array, zip(*[scipy.linalg.schur(x, output="complex") for x in m]))
    off = np.linalg.norm(np.triu(t, 1), axis=(1, 2))
    if not (off <= 1e-9).all():
        raise AssertionError(f"schur form of a normal matrix not diagonal ({off.max():.2e})")
    delta = 0.5 * np.angle(np.diagonal(t, axis1=1, axis2=2))
    w_block = _diag(np.exp(1j * delta)) @ v.conj().transpose(0, 2, 1) @ b_block
    return w_block, v, mux_rotation_stream("z", select, lower, -2.0 * delta)


def qsd_stream(u8: np.ndarray, wires: list[int]) -> Stream:
    """Cosine-sine synthesis of an 8x8 unitary or (n, 8, 8) stack on wires [hi, mid, lo].

    u8 = (L1 (+) L2) . CS . (R1 (+) R2): the CS factor is a multiplexed RY
    on the top wire and each block-diagonal factor demultiplexes into two
    4x4 blocks around a multiplexed RZ.  The 4n blocks take one stacked
    Cartan pass.  Raises ValueError on another shape, and naming the first
    row with ||u8 u8^dag - I||_F > 1e-8 (or NaN).
    """
    u8 = _stack(u8, 8)
    if (bad := _first_non_unitary(u8)) is not None:
        raise ValueError("qsd_stream needs a unitary matrix (defect {1:.2e} in row {0})"
                         .format(*bad))
    # LAPACK's zuncsd can fail to converge on parts near 1e-150 (a sine of a
    # tiny angle); zeroing parts below 1e-100 moves u8 by less than 1e-99
    for part in (u8.real, u8.imag):
        part[np.abs(part) < 1e-100] = 0.0
    left, theta, right = map(np.array, zip(*[  # (n, 2, 4, 4), (n, 4), (n, 2, 4, 4)
        scipy.linalg.cossin(u, p=4, q=4, separate=True) for u in u8]))
    sel, *low = wires
    # the angles as the CS factor gives them: scipy builds it from cos, sin
    thetas = 2.0 * np.arctan2(np.sin(theta), np.cos(theta))
    w_right, v_right, mux_right = _demux(right[:, 0], right[:, 1], sel, low)
    w_left, v_left, mux_left = _demux(left[:, 0], left[:, 1], sel, low)
    cartan = _cartan(np.concatenate([w_right, v_right, w_left, v_left]))
    k = [_kak_stream(block, *low) for block in zip(*[np.split(x, 4) for x in cartan])]
    mux_y = mux_rotation_stream("y", sel, low, thetas)
    return k[0] + mux_right + k[1] + mux_y + k[2] + mux_left + k[3]


# ---------------------------------------------------------------------------
# stream emission

@functools.cache
def _fixed_gate(kind: str, qubits: tuple[int, ...]) -> Gate:
    """The one shared SX or ECR gate on ``qubits`` (gates are immutable)."""
    return Gate(kind, qubits)


def _zxzxz_stack(u: np.ndarray) -> np.ndarray:
    """The canonical ``zxzxz_angles`` (a, b, c) of each matrix of an (n, 2, 2)
    stack, bit for bit, as an (n, 3) array: one numpy pass over the rows with
    |u00| and |u01| above _EPS, the scalar form for the rest.  ``np.hypot``
    is the scalar ``abs`` of a complex entry (``np.abs`` of an array is not),
    vector ``arctan2`` is not ``math.atan2`` (so b stays scalar), and
    ``np.fmod`` is exact, as ``math.fmod`` is."""
    u00, u01, u10, u11 = u[:, 0, 0], u[:, 0, 1], u[:, 1, 0], u[:, 1, 1]
    s = np.hypot(u00.real, u00.imag)
    cmag = np.hypot(u01.real, u01.imag)
    general = (s > _EPS) & (cmag > _EPS)
    g = np.flatnonzero(general)
    apc = np.angle(-u11[g] / u00[g])
    amc = np.angle(u10[g] / u01[g])
    a = 0.5 * (apc + amc)
    c = 0.5 * (apc - amc)
    delta = np.angle(u00[g]) + 0.5 * (a + c)
    # the branch test of zxzxz_angles; probe may differ from the scalar one in
    # the last bits, far from a tie for any row that reaches it
    probe = np.exp(1j * delta) * np.exp(-0.5j * (a - c)) * cmag[g]
    minus, plus = probe - u01[g], probe + u01[g]
    flip = np.hypot(minus.real, minus.imag) > np.hypot(plus.real, plus.imag)
    a[flip] += math.pi
    c[flip] -= math.pi
    angles = np.empty((len(u), 3))
    angles[g, 0], angles[g, 2] = a, c
    angles[:, 1] = [2.0 * math.atan2(x, y) for x, y in zip(s.tolist(), cmag.tolist())]
    for i in np.flatnonzero(~general).tolist():
        angles[i] = zxzxz_angles(u[i])[:3]
    angles = np.fmod(angles, 2.0 * math.pi)
    # a value above pi lands in (-pi, 0) exactly, so the second test is the elif
    angles[angles > math.pi] -= 2.0 * math.pi
    angles[angles <= -math.pi] += 2.0 * math.pi
    return angles


def _zxzxz_gates(wire: int, a: float, b: float, c: float) -> list[Gate]:
    """RZ(c) SX RZ(b) SX RZ(a) on ``wire``; the angles are canonical."""
    sx = _fixed_gate("SX", (wire,))
    return [
        Gate("RZ", (wire,), (c,)),
        sx,
        Gate("RZ", (wire,), (b,)),
        sx,
        Gate("RZ", (wire,), (a,)),
    ]


def _emit_matrix(wire: int, matrix: np.ndarray) -> list[Gate]:
    """The shortest RZ SX RZ SX RZ form of a 2x2 unitary: a diagonal matrix
    becomes one RZ, and zero-angle RZs are dropped."""
    if abs(matrix[0, 1]) < 1e-12 and abs(matrix[1, 0]) < 1e-12:
        angle = canonical_angle(float(np.angle(matrix[1, 1] / matrix[0, 0])))
        return [Gate("RZ", (wire,), (angle,))] if abs(angle) >= ZERO_ANGLE else []
    gates = _zxzxz_gates(wire, *map(canonical_angle, zxzxz_angles(matrix)[:3]))
    return [g for g in gates if g.kind == "SX" or abs(g.params[0]) >= ZERO_ANGLE]


_stream_plan = functools.lru_cache(maxsize=64)(RunPlan.of_items)  # per stream skeleton


def stream_to_gates(stream: Stream, fixed_shape: bool = False) -> list[list[Gate]]:
    """Merge per-wire single-qubit runs, then emit native gates: item i of
    the result holds the gates of the stream's row i.

    The skeleton is planned once, and the runs of all rows are multiplied
    by one ``RunPlan.products`` call.  Each merged run becomes its shortest
    form (``_emit_matrix``), or with ``fixed_shape`` exactly five gates
    (RZ SX RZ SX RZ), their angles taken for all runs of all rows in one
    pass, so the output shape depends only on the entangler skeleton.
    """
    joins = tuple([item[0] == "u" for item in stream])
    wires = tuple([item[1:2] if join else item[1:] for item, join in zip(stream, joins)])
    plan = _stream_plan(wires, joins)
    n = max([len(item[2]) for item in stream if item[0] == "u" and item[2].ndim == 3], default=1)
    mats = np.zeros((len(stream), n, 2, 2), dtype=complex)
    for i in plan.joined:
        mats[i] = stream[i][2]  # a constant broadcasts over the rows
    runs = plan.products(mats)  # (runs, n, 2, 2)
    if fixed_shape:
        runs = _zxzxz_stack(runs.reshape(-1, 2, 2)).reshape(-1, n, 3).tolist()
    rows: list[list[Gate]] = [[] for _ in range(n)]
    for positions, j in plan.items:
        wire = wires[positions[0]]
        for i, out in enumerate(rows):
            if j is None:
                out.append(_fixed_gate("ECR", wire))
            elif fixed_shape:
                out.extend(_zxzxz_gates(wire[0], *runs[j][i]))
            else:
                out.extend(_emit_matrix(wire[0], runs[j][i]))
    return rows
