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
  only on the width.

Native streams are lists of ("u", wire, matrix) and ("ecr", hi, lo) items;
adjacent single-qubit items on a wire merge before emission, so the emitted
gate count is structure-determined, never angle-determined.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .circuit import Circuit, lower_to_unitary
from .gates import (
    Gate,
    H_MATRIX,
    SX_MATRIX,
    X_MATRIX,
    ECR_MATRIX,
    gate_matrix,
    canonical_angle,
    phase_matrix,
    rz_matrix,
    u3_matrix,
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

# ---------------------------------------------------------------------------
# one qubit

_V_HALF = SX_MATRIX  # shorthand used in comments: V(b) = SX RZ(b) SX


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
        diag = _MAGIC.conj().T @ pp @ _MAGIC
        off = np.linalg.norm(diag - np.diag(np.diagonal(diag)))
        if off > 1e-12:
            raise AssertionError(f"{p}{p} is not diagonal in the magic basis")
        rows.append(np.real(np.diagonal(diag)))
    rows.append(np.ones(4))
    return np.array(rows).T  # shape (4, 4): columns (sx, sy, sz, 1)


_SIGNS = _magic_signs()


def _joint_diagonalize(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Orthogonal O diagonalizing two commuting real symmetric matrices.

    Diagonalizes ``re`` first, then ``im`` restricted to each eigenspace of
    ``re``; robust against degenerate spectra.
    """
    w, o = np.linalg.eigh(re)
    out = o.copy()
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] - w[stop - 1] > 1e-9:
            block = o[:, start:stop]
            sub = block.T @ im @ block
            _, p = np.linalg.eigh(0.5 * (sub + sub.T))
            out[:, start:stop] = block @ p
            start = stop
    return out


def interaction_matrix(a: float, b: float, c: float) -> np.ndarray:
    """exp(i (a XX + b YY + c ZZ)), evaluated in the magic eigenbasis."""
    phases = _SIGNS[:, :3] @ np.array([a, b, c])
    return _MAGIC @ np.diag(np.exp(1j * phases)) @ _MAGIC.conj().T


def _factor_kron(u4: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split an exact Kronecker product into (hi, lo) 2x2 factors."""
    w = u4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(w)
    if s[1] > 1e-9:
        raise AssertionError(f"matrix is not a Kronecker product (s1={s[1]:.2e})")
    hi = (u[:, 0] * math.sqrt(s[0])).reshape(2, 2)
    lo = (vh[0] * math.sqrt(s[0])).reshape(2, 2)
    return hi, lo


def kak_decompose(
    u4: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, float, float, float, np.ndarray, np.ndarray]:
    """Cartan decomposition of a 4x4 unitary.

    Returns (g, a1, a0, a, b, c, b1, b0) such that
    u4 = e^{ig} (a1 (x) a0) exp(i(a XX + b YY + c ZZ)) (b1 (x) b0)
    to machine precision.  The hi factor acts on the more significant of the
    two qubits the matrix is written in.
    """
    um = _MAGIC.conj().T @ u4 @ _MAGIC
    p = um @ um.T
    o1 = _joint_diagonalize(0.5 * (p.real + p.real.T), 0.5 * (p.imag + p.imag.T))
    d2 = np.diagonal(o1.T @ p @ o1)
    theta = 0.5 * np.angle(d2)
    q2t = np.diag(np.exp(-1j * theta)) @ o1.T @ um
    q2 = q2t.T
    if np.linalg.norm(q2.imag) > 1e-8:
        raise AssertionError("Cartan factor Q2 is not real")
    q2 = q2.real
    q1 = o1
    if np.linalg.det(q1) < 0:
        q1 = q1.copy()
        q1[:, 0] = -q1[:, 0]
        theta = theta.copy()
        theta[0] += math.pi
    if np.linalg.det(q2) < 0:
        q2 = q2.copy()
        q2[:, 0] = -q2[:, 0]
        theta = theta.copy()
        theta[0] += math.pi
    abcg = np.linalg.solve(_SIGNS, theta)
    a, b, c, g = (float(x) for x in abcg)
    left = _MAGIC @ q1 @ _MAGIC.conj().T
    right = _MAGIC @ q2.T @ _MAGIC.conj().T
    a1, a0 = _factor_kron(left)
    b1, b0 = _factor_kron(right)
    rebuilt = (
        np.exp(1j * g)
        * np.kron(a1, a0)
        @ interaction_matrix(a, b, c)
        @ np.kron(b1, b0)
    )
    err = np.linalg.norm(rebuilt - u4)
    if err > 1e-9:
        raise AssertionError(f"Cartan reconstruction failed (residual {err:.2e})")
    return g, a1, a0, a, b, c, b1, b0


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
    """The constant (control, target) locals of cx_stream.

    Derived from ECR = (I (x) X) exp(-i pi/4 X (x) Z) and
    CX = e^{i pi/4} exp(i pi/4 Z1 X0) (RZ(pi/2) (x) RX(pi/2)), with RX in
    closed form.  Built on first use, not at import: building them at import
    raised the peak RSS of ``import cyclewalk`` by about 0.15 MB, which code
    that never synthesises need not pay.
    """
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


def _merged_cz_cx_stream(hi: int, lo: int) -> Stream:
    """The composite CZ . CX(hi->lo) as a single entangling block.

    CZ CX = |0><0| (x) I + |1><1| (x) ZX, and ZX = iY has eigenphases
    (+i, -i) in the _ZX_BASIS frame, so the composite is one CZ dressed
    with locals: (I (x) B) P(pi/2)_hi CZ (I (x) B^dag).
    """
    return (
        [_u(lo, _ZX_BASIS.conj().T)]
        + cz_stream(hi, lo)
        + [_u(lo, _ZX_BASIS), _u(hi, phase_matrix(math.pi / 2))]
    )


def kak_stream(u4: np.ndarray, hi: int, lo: int) -> Stream:
    """Native stream for an arbitrary 4x4 unitary, up to global phase.

    Skeleton: three entangling blocks.  With W = exp(i(a XX + b YY + c ZZ)),
    W = CX . RX(-2a)_hi . CZ . (RX(2b)_hi RZ(-2c)_lo) . CZ . CX
    holds exactly; the first CX and the adjacent CZ merge into a single
    entangling block, leaving three two-qubit natives in total.
    """
    g, a1, a0, a, b, c, b1, b0 = kak_decompose(u4)
    del g
    stream: Stream = [_u(hi, b1), _u(lo, b0)]
    stream += _merged_cz_cx_stream(hi, lo)
    stream += [_u(lo, rz_matrix(-2 * c)), _u(hi, _rx(2 * b))]
    stream += cz_stream(hi, lo)
    stream += [_u(hi, _rx(-2 * a))]
    stream += cx_stream(hi, lo)
    stream += [_u(hi, a1), _u(lo, a0)]
    return stream


# ---------------------------------------------------------------------------
# multiplexed rotations and the three-qubit recursion

def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _mux_angles(thetas: np.ndarray) -> np.ndarray:
    """Solve theta_j = sum_i phi_i (-1)^{popcount(gray(i) & j)} for phi."""
    n = len(thetas)
    m = np.array(
        [[(-1.0) ** bin(_gray(i) & j).count("1") for i in range(n)] for j in range(n)]
    )
    return np.linalg.solve(m, np.asarray(thetas, dtype=float))


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


def _demux_stream(
    a_block: np.ndarray, b_block: np.ndarray, select: int, lower: list[int]
) -> Stream:
    """Stream for the block-diagonal operator A (+) B over the select qubit.

    Uses A = V D W, B = V D^dag W with D = exp(i delta) from the spectrum of
    A B^dag; the middle becomes a multiplexed RZ on ``select``.
    """
    m = a_block @ b_block.conj().T
    t, v = scipy.linalg.schur(m, output="complex")
    off = np.linalg.norm(t - np.diag(np.diagonal(t)))
    if off > 1e-9:
        raise AssertionError(f"schur form of a normal matrix not diagonal ({off:.2e})")
    delta = 0.5 * np.angle(np.diagonal(t))
    d = np.exp(1j * delta)
    w_block = np.diag(d) @ v.conj().T @ b_block
    stream: Stream = []
    stream += _two_qubit_block_stream(w_block, lower)
    stream += mux_rotation_stream("z", select, lower, -2.0 * delta)
    stream += _two_qubit_block_stream(v, lower)
    return stream


def _two_qubit_block_stream(u4: np.ndarray, wires: list[int]) -> Stream:
    return kak_stream(u4, wires[0], wires[1])


def qsd_stream(u8: np.ndarray, wires: list[int]) -> Stream:
    """Cosine-sine synthesis of an 8x8 unitary on wires [hi, mid, lo].

    u8 = (L1 (+) L2) . CS . (R1 (+) R2): the CS factor is a multiplexed RY
    on the top wire and each block-diagonal factor demultiplexes into two
    4x4 blocks around a multiplexed RZ.
    """
    (u_list, cs, vdh_list) = scipy.linalg.cossin(u8, p=4, q=4, separate=False)
    sel, *low = wires
    c_diag = np.diagonal(cs[:4, :4]).real
    s_diag = np.diagonal(cs[4:, :4]).real
    thetas = 2.0 * np.arctan2(s_diag, c_diag)
    stream: Stream = []
    stream += _demux_stream(vdh_list[:4, :4], vdh_list[4:, 4:], sel, low)
    stream += mux_rotation_stream("y", sel, low, thetas)
    stream += _demux_stream(u_list[:4, :4], u_list[4:, 4:], sel, low)
    return stream


# ---------------------------------------------------------------------------
# stream emission and verification

def _emit_matrix(wire: int, matrix: np.ndarray, fixed_shape: bool) -> list[Gate]:
    a, b, c, _ = zxzxz_angles(matrix)
    if fixed_shape:
        return [
            Gate("RZ", (wire,), (canonical_angle(c),)),
            Gate("SX", (wire,)),
            Gate("RZ", (wire,), (canonical_angle(b),)),
            Gate("SX", (wire,)),
            Gate("RZ", (wire,), (canonical_angle(a),)),
        ]
    gates: list[Gate] = []
    if abs(matrix[0, 1]) < 1e-12 and abs(matrix[1, 0]) < 1e-12:
        angle = canonical_angle(float(np.angle(matrix[1, 1] / matrix[0, 0])))
        if abs(angle) > 1e-12:
            gates.append(Gate("RZ", (wire,), (angle,)))
        return gates
    for kind, param in (
        ("RZ", canonical_angle(c)),
        ("SX", None),
        ("RZ", canonical_angle(b)),
        ("SX", None),
        ("RZ", canonical_angle(a)),
    ):
        if kind == "RZ":
            if abs(param) > 1e-12:
                gates.append(Gate("RZ", (wire,), (param,)))
        else:
            gates.append(Gate("SX", (wire,)))
    return gates


def stream_to_gates(stream: Stream, fixed_shape: bool = False) -> list[Gate]:
    """Merge per-wire single-qubit runs, then emit native gates.

    With ``fixed_shape`` every merged run becomes exactly five gates
    (RZ SX RZ SX RZ), so the output shape depends only on the entangler
    skeleton of the stream.
    """
    pending: dict[int, np.ndarray] = {}
    gates: list[Gate] = []

    def flush(wire: int) -> None:
        m = pending.pop(wire, None)
        if m is not None:
            gates.extend(_emit_matrix(wire, m, fixed_shape))

    for item in stream:
        if item[0] == "u":
            _, wire, matrix = item
            pending[wire] = matrix @ pending.get(wire, np.eye(2, dtype=complex))
        else:
            _, hi, lo = item
            flush(hi)
            flush(lo)
            gates.append(Gate("ECR", (hi, lo)))
    for wire in sorted(pending):
        flush(wire)
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
