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

Native streams are lists of ("u", wire, matrix) and ("ecr", hi, lo) items;
adjacent single-qubit items on a wire merge before emission, in one stacked
pass planned once per skeleton, so the emitted gate count is
structure-determined, never angle-determined.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .circuit import Circuit, RunPlan, lower_to_unitary
from .gates import (
    Gate,
    H_MATRIX,
    SX_MATRIX,
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
    "assemble_stream",
    "cx_stream",
    "cp_stream",
]

_EPS = 1e-12
# A rotation whose canonical angle is below this in magnitude is emitted as
# no gate; the one rule for dropping zero angles, also used by transpile.
ZERO_ANGLE = 1e-12

# ---------------------------------------------------------------------------
# one qubit

def zxzxz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """Angles (a, b, c, delta) with u = e^{i delta} RZ(a) SX RZ(b) SX RZ(c).

    Uses SX RZ(b) SX = [[sin(b/2), cos(b/2)], [cos(b/2), -sin(b/2)]], which
    holds exactly (no leftover phase).
    """
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


def zxzxz_matrix(a: float, b: float, c: float) -> np.ndarray:
    return rz_matrix(a) @ SX_MATRIX @ rz_matrix(b) @ SX_MATRIX @ rz_matrix(c)


def u3_params(u: np.ndarray) -> tuple[float, float, float, float]:
    """Parameters (theta, phi, lam, delta) with u = e^{i delta} U3(theta, phi, lam)."""
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


def _cartan(u: np.ndarray) -> tuple[np.ndarray, ...]:
    """Cartan decomposition of each unitary of an (n, 4, 4) stack, every
    step one stacked call (a single matrix is the stack of one).

    Returns (abcg, a1, a0, b1, b0): an (n, 4) stack of (a, b, c, g) and four
    (n, 2, 2) stacks, with u[i] = e^{i g} (a1 (x) a0)
    exp(i(a XX + b YY + c ZZ)) (b1 (x) b0) to machine precision.  Raises
    ValueError naming the first row with ||u u^dag - I||_F > 1e-8 (or NaN).
    """
    n = len(u)
    defect = np.linalg.norm(u @ u.conj().transpose(0, 2, 1) - np.eye(4), axis=(1, 2))
    bad = np.flatnonzero(~(defect <= 1e-8))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"row {i} of the stack is not unitary (defect {defect[i]:.2e})")
    um = _MAGIC_DAG @ u @ _MAGIC
    p = um @ um.transpose(0, 2, 1)
    re, im = p.real, p.imag  # transpose(0, 2, 1), as ndarray.mT needs NumPy 2
    o1 = _joint_diagonalize(
        0.5 * (re + re.transpose(0, 2, 1)), 0.5 * (im + im.transpose(0, 2, 1))
    )
    theta = 0.5 * np.angle(np.diagonal(o1.transpose(0, 2, 1) @ p @ o1, axis1=1, axis2=2))
    # diag(e^{-i theta}) as a matrix product: a broadcast one can flip the sign of a zero
    phases = np.zeros((n, 4, 4), dtype=complex)
    phases.reshape(n, 16)[:, ::5] = np.exp(-1j * theta)
    q2t = phases @ o1.transpose(0, 2, 1) @ um
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


def _kak_stream(cartan: tuple[np.ndarray, ...], i: int, hi: int, lo: int) -> Stream:
    """Native stream for row ``i`` of a ``_cartan`` result, up to global phase.

    Skeleton: three entangling blocks.  With W = exp(i(a XX + b YY + c ZZ)),
    W = CX . RX(-2a)_hi . CZ . (RX(2b)_hi RZ(-2c)_lo) . CZ . CX
    holds exactly; the first CX and the adjacent CZ merge into a single
    entangling block, leaving three two-qubit natives in total.
    """
    abcg, a1, a0, b1, b0 = cartan
    a, b, c, _ = abcg[i].tolist()
    stream: Stream = [_u(hi, b1[i]), _u(lo, b0[i])]
    stream += _merged_cz_cx_stream(hi, lo)
    stream += [_u(lo, rz_matrix(-2 * c)), _u(hi, _rx(2 * b))]
    stream += cz_stream(hi, lo)
    stream += [_u(hi, _rx(-2 * a))]
    stream += cx_stream(hi, lo)
    stream += [_u(hi, a1[i]), _u(lo, a0[i])]
    return stream


def kak_stream(u4: np.ndarray, hi: int, lo: int) -> Stream:
    """Native stream for an arbitrary 4x4 unitary, up to global phase
    (three ECRs; see ``_kak_stream``)."""
    return _kak_stream(_cartan(np.asarray(u4)[None]), 0, hi, lo)


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


def _mux_angles(thetas: np.ndarray) -> np.ndarray:
    """Solve theta_j = sum_i phi_i (-1)^{popcount(gray(i) & j)} for phi."""
    return np.linalg.solve(_gray_signs(len(thetas)), np.asarray(thetas, dtype=float))


def mux_rotation_stream(
    axis: str, target: int, controls: list[int], thetas: np.ndarray
) -> Stream:
    """Uniformly controlled RZ or RY on ``target``.

    ``thetas[p]`` applies when the control bits spell p (controls[0] is the
    most significant).  Gray-code construction: 2**k rotations interleaved
    with 2**k CNOTs whose controls follow the Gray transition bit.
    """
    k = len(controls)
    n = 1 << k
    if len(thetas) != n:
        raise ValueError(f"need {n} angles for {k} controls, got {len(thetas)}")
    if axis == "z":
        rot = rz_matrix
    elif axis == "y":
        rot = _ry
    else:
        raise ValueError(f"unsupported rotation axis {axis!r}")
    if k == 0:
        return [_u(target, rot(float(thetas[0])))]
    phis = _mux_angles(thetas)
    stream: Stream = []
    for i in range(n):
        stream.append(_u(target, rot(float(phis[i]))))
        transition = _gray(i) ^ _gray((i + 1) % n)
        bit = transition.bit_length() - 1
        stream += cx_stream(controls[k - 1 - bit], target)
    return stream


def _demux(
    a_block: np.ndarray, b_block: np.ndarray, select: int, lower: list[int]
) -> tuple[np.ndarray, np.ndarray, Stream]:
    """Demultiplex the block-diagonal operator A (+) B over the select qubit.

    Uses A = V D W, B = V D^dag W with D = exp(i delta) from the spectrum of
    A B^dag; returns W, V and the middle, a multiplexed RZ on ``select``.
    """
    m = a_block @ b_block.conj().T
    t, v = scipy.linalg.schur(m, output="complex")
    off = np.linalg.norm(t - np.diag(np.diagonal(t)))
    if off > 1e-9:
        raise AssertionError(f"schur form of a normal matrix not diagonal ({off:.2e})")
    delta = 0.5 * np.angle(np.diagonal(t))
    d = np.exp(1j * delta)
    w_block = np.diag(d) @ v.conj().T @ b_block
    return w_block, v, mux_rotation_stream("z", select, lower, -2.0 * delta)


def qsd_stream(u8: np.ndarray, wires: list[int]) -> Stream:
    """Cosine-sine synthesis of an 8x8 unitary on wires [hi, mid, lo].

    u8 = (L1 (+) L2) . CS . (R1 (+) R2): the CS factor is a multiplexed RY
    on the top wire and each block-diagonal factor demultiplexes into two
    4x4 blocks around a multiplexed RZ.  The four blocks take one stacked
    Cartan pass.
    """
    (u1, u2), theta, (v1h, v2h) = scipy.linalg.cossin(u8, p=4, q=4, separate=True)
    sel, *low = wires
    # the angles as the CS factor gives them: scipy builds it from cos, sin
    thetas = 2.0 * np.arctan2(np.sin(theta), np.cos(theta))
    w_right, v_right, mux_right = _demux(v1h, v2h, sel, low)
    w_left, v_left, mux_left = _demux(u1, u2, sel, low)
    cartan = _cartan(np.array([w_right, v_right, w_left, v_left]))
    k = [_kak_stream(cartan, i, *low) for i in range(4)]
    mux_y = mux_rotation_stream("y", sel, low, thetas)
    return k[0] + mux_right + k[1] + mux_y + k[2] + mux_left + k[3]


# ---------------------------------------------------------------------------
# stream emission and verification

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


_stream_plan = functools.lru_cache(maxsize=64)(RunPlan)  # per stream skeleton


def stream_to_gates(stream: Stream, fixed_shape: bool = False) -> list[Gate]:
    """Merge per-wire single-qubit runs, then emit native gates.

    The stream's skeleton is planned once, and the runs of its stacked "u"
    matrices are multiplied by ``RunPlan.products``.  Each merged run becomes
    its shortest form (``_emit_matrix``), or with ``fixed_shape`` exactly
    five gates (RZ SX RZ SX RZ), their angles taken for all runs in one
    pass, so the output shape depends only on the entangler skeleton.
    """
    joins = tuple([item[0] == "u" for item in stream])
    wires = tuple([item[1:2] if join else item[1:] for item, join in zip(stream, joins)])
    plan = _stream_plan(wires, joins)
    mats = np.zeros((len(stream), 2, 2), dtype=complex)
    mats[plan.joined] = np.reshape([stream[i][2] for i in plan.joined], (-1, 2, 2))
    products = plan.products(mats)
    if fixed_shape:
        angles = _zxzxz_stack(products).tolist()
    gates: list[Gate] = []
    for positions, j in plan.items:
        wire = wires[positions[0]]
        if j is None:
            gates.append(_fixed_gate("ECR", wire))
        elif fixed_shape:
            gates.extend(_zxzxz_gates(wire[0], *angles[j]))
        else:
            gates.extend(_emit_matrix(wire[0], products[j]))
    return gates


def assemble_stream(stream: Stream, width: int) -> np.ndarray:
    """Dense unitary of a stream (verification helper)."""
    circuit = Circuit(width)
    for item in stream:
        if item[0] == "u":
            circuit.add("UNITARY", item[1], matrix=item[2])
        else:
            circuit.add("ECR", item[1], item[2])
    return lower_to_unitary(circuit)
