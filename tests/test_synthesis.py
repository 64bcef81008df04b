import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.stats import unitary_group

from conftest import phase_aligned

from cyclewalk import Gate, OptLevel, build_walk_circuit_3cycle, build_walk_circuit_4cycle, transpile
from cyclewalk.gates import ECR_MATRIX, H_MATRIX, X_MATRIX, canonical_angle, rz_matrix, u3_matrix
from cyclewalk.circuit import wire_runs
from cyclewalk.synthesis import (
    _MAGIC,
    _SIGNS,
    _cartan,
    _emit_matrix,
    _rx,
    _ry,
    assemble_stream,
    cp_template,
    cx_stream,
    cz_stream,
    cp_stream,
    interaction_matrix,
    kak_decompose,
    kak_stream,
    mux_rotation_stream,
    qsd_stream,
    stream_to_gates,
    u3_params,
    zxzxz_angles,
    zxzxz_matrix,
)

CX_10 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1.0, 1, 1, -1]).astype(complex)


def special_two_qubit_cases():
    return [
        np.eye(4, dtype=complex),
        np.kron(H_MATRIX, H_MATRIX),
        CZ,
        CX_10,
        ECR_MATRIX,
        np.eye(4, dtype=complex)[[0, 2, 1, 3]],  # swap
    ]


class TestOneQubit:
    def test_zxzxz_exact_on_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            u = unitary_group.rvs(2, random_state=rng)
            a, b, c, d = zxzxz_angles(u)
            assert np.linalg.norm(np.exp(1j * d) * zxzxz_matrix(a, b, c) - u) < 1e-12

    def test_zxzxz_special_cases(self):
        for u in (np.diag([1, 1j]), np.array([[0, 1], [1, 0]]), H_MATRIX):
            a, b, c, d = zxzxz_angles(np.asarray(u, dtype=complex))
            m = np.exp(1j * d) * zxzxz_matrix(a, b, c)
            assert np.linalg.norm(m - u) < 1e-12

    def test_u3_params_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = unitary_group.rvs(2, random_state=rng)
            t, p, l, d = u3_params(u)
            assert np.linalg.norm(np.exp(1j * d) * u3_matrix(t, p, l) - u) < 1e-12


class TestCartan:
    def test_reconstruction_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = unitary_group.rvs(4, random_state=rng)
            g, a1, a0, a, b, c, b1, b0 = kak_decompose(u)
            rebuilt = (
                np.exp(1j * g)
                * np.kron(a1, a0)
                @ interaction_matrix(a, b, c)
                @ np.kron(b1, b0)
            )
            assert np.linalg.norm(rebuilt - u) < 1e-9

    @pytest.mark.parametrize("idx", range(6))
    def test_reconstruction_special(self, idx):
        u = special_two_qubit_cases()[idx]
        g, a1, a0, a, b, c, b1, b0 = kak_decompose(u)
        rebuilt = (
            np.exp(1j * g) * np.kron(a1, a0) @ interaction_matrix(a, b, c) @ np.kron(b1, b0)
        )
        assert np.linalg.norm(rebuilt - u) < 1e-9

    def test_cp_template_exact_including_phase(self):
        rng = np.random.default_rng(4)
        for u in special_two_qubit_cases() + [unitary_group.rvs(4, random_state=rng) for _ in range(10)]:
            layers, cps, phase = cp_template(np.asarray(u, dtype=complex))
            m = np.kron(*layers[0])
            for k in range(3):
                m = np.kron(*layers[k + 1]) @ np.diag([1, 1, 1, np.exp(1j * cps[k])]) @ m
            assert np.linalg.norm(np.exp(1j * phase) * m - u) < 1e-9


# The per-matrix Cartan decomposition that the stacked kernel replaced, kept
# as the bit-for-bit reference (its raises are asserts here).

def reference_joint_diagonalize(re, im):
    w, o = np.linalg.eigh(re)
    out = o.copy()
    start = 0
    for stop in range(1, len(w) + 1):
        if stop == len(w) or w[stop] - w[stop - 1] > 1e-9:
            if stop - start == 1:
                start = stop
                continue
            block = o[:, start:stop]
            sub = block.T @ im @ block
            _, p = np.linalg.eigh(0.5 * (sub + sub.T))
            out[:, start:stop] = block @ p
            start = stop
    return out


def reference_factor_kron(u4):
    w = u4.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(w)
    assert s[1] <= 1e-9
    return (u[:, 0] * math.sqrt(s[0])).reshape(2, 2), (vh[0] * math.sqrt(s[0])).reshape(2, 2)


def reference_kak_decompose(u4):
    um = _MAGIC.conj().T @ u4 @ _MAGIC
    p = um @ um.T
    o1 = reference_joint_diagonalize(0.5 * (p.real + p.real.T), 0.5 * (p.imag + p.imag.T))
    d2 = np.diagonal(o1.T @ p @ o1)
    theta = 0.5 * np.angle(d2)
    q2t = np.diag(np.exp(-1j * theta)) @ o1.T @ um
    q2 = q2t.T
    assert np.linalg.norm(q2.imag) <= 1e-8
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
    a, b, c, g = (float(x) for x in np.linalg.solve(_SIGNS, theta))
    a1, a0 = reference_factor_kron(_MAGIC @ q1 @ _MAGIC.conj().T)
    b1, b0 = reference_factor_kron(_MAGIC @ q2.T @ _MAGIC.conj().T)
    return g, a1, a0, a, b, c, b1, b0


@st.composite
def two_qubit_unitaries(draw):
    """A Haar 4x4 unitary, a special case, or an exact Kronecker product of two
    Haar 2x2 unitaries (the last two have degenerate spectra)."""
    kind = draw(st.sampled_from(["haar", "special", "kron"]))
    if kind == "special":
        return draw(st.sampled_from(special_two_qubit_cases()))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "haar":
        return unitary_group.rvs(4, random_state=rng)
    return np.kron(unitary_group.rvs(2, random_state=rng), unitary_group.rvs(2, random_state=rng))


def cartan_rows(stack):
    abcg, a1, a0, b1, b0 = _cartan(np.asarray(stack, dtype=complex))
    return [(abcg[i], a1[i], a0[i], b1[i], b0[i]) for i in range(len(stack))]


class TestStackedCartan:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(two_qubit_unitaries(), min_size=1, max_size=8))
    def test_every_row_equals_the_per_matrix_reference(self, stack):
        # row i of the stack, the n = 1 call and kak_decompose all give the
        # reference's bits, so a row does not depend on its stack
        rows = cartan_rows(stack)
        for i, u in enumerate(stack):
            g, a1, a0, a, b, c, b1, b0 = reference_kak_decompose(u)
            want = (np.array([a, b, c, g]), a1, a0, b1, b0)
            for got in (rows[i], cartan_rows(stack[i:i + 1])[0]):
                assert all(np.array_equal(x, y) for x, y in zip(got, want))
            single = kak_decompose(u)
            assert all(np.array_equal(x, y) for x, y in zip(single, (g, a1, a0, a, b, c, b1, b0)))

    @pytest.mark.parametrize("bad", range(8))
    def test_one_corrupt_row_fails_the_reconstruction_check(self, monkeypatch, bad):
        # a wrong Kronecker factor on any one row of a stack of four: a1 for
        # rows 0-3, b1 for rows 4-7 of the split's (2n, 2, 2) stack
        from cyclewalk import synthesis

        factor = synthesis._factor_kron

        def corrupted(m):
            hi, lo = factor(m)
            hi[bad] = hi[bad] @ X_MATRIX
            return hi, lo

        monkeypatch.setattr(synthesis, "_factor_kron", corrupted)
        rng = np.random.default_rng(bad)
        stack = unitary_group.rvs(4, size=4, random_state=rng)
        with pytest.raises(AssertionError, match="Cartan reconstruction failed"):
            _cartan(stack)

    def test_scaled_unitary_is_rejected(self):
        # decomposition and reconstruction check are both covariant under scaling
        u = unitary_group.rvs(4, random_state=np.random.default_rng(3))
        with pytest.raises(ValueError, match=r"^row 0 of the stack is not unitary"):
            kak_decompose(1.01 * u)

    @pytest.mark.parametrize("bad", range(4))
    def test_the_first_non_unitary_row_is_named(self, bad):
        stack = unitary_group.rvs(4, size=4, random_state=np.random.default_rng(bad))
        stack[bad] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match=rf"^row {bad} of the stack is not unitary"):
            _cartan(stack)
        stack[bad] /= 1.0 + 1e-6
        _cartan(stack)

    def test_nan_entry_is_rejected_before_lapack(self):
        stack = unitary_group.rvs(4, size=4, random_state=np.random.default_rng(9))
        stack[2, 1, 3] = math.nan
        with pytest.raises(ValueError, match=r"^row 2 of the stack is not unitary \(defect nan\)$"):
            _cartan(stack)


class TestStreams:
    def test_cx_stream(self):
        assert phase_aligned(assemble_stream(cx_stream(1, 0), 2), CX_10) < 1e-12

    def test_cz_stream(self):
        assert phase_aligned(assemble_stream(cz_stream(1, 0), 2), CZ) < 1e-12

    def test_cp_stream(self):
        target = np.diag([1, 1, 1, np.exp(0.7j)])
        assert phase_aligned(assemble_stream(cp_stream(0.7, 1, 0), 2), target) < 1e-12

    def test_kak_stream_three_entanglers(self):
        rng = np.random.default_rng(5)
        for u in special_two_qubit_cases() + [unitary_group.rvs(4, random_state=rng) for _ in range(20)]:
            st = kak_stream(np.asarray(u, dtype=complex), 1, 0)
            assert sum(1 for item in st if item[0] == "ecr") == 3
            assert phase_aligned(assemble_stream(st, 2), u) < 1e-9

    def test_mux_rotations_match_direct_construction(self):
        rng = np.random.default_rng(6)
        for axis in ("z", "y"):
            thetas = rng.uniform(-3, 3, 4)
            got = assemble_stream(mux_rotation_stream(axis, 2, [1, 0], thetas), 3)
            direct = np.zeros((8, 8), dtype=complex)
            for p in range(4):
                if axis == "z":
                    r = rz_matrix(thetas[p])
                else:
                    half = thetas[p] / 2
                    r = np.array(
                        [[np.cos(half), -np.sin(half)], [np.sin(half), np.cos(half)]]
                    )
                for i in range(2):
                    for j in range(2):
                        direct[i * 4 + p, j * 4 + p] = r[i, j]
            assert phase_aligned(got, direct) < 1e-12

    def test_qsd_stream(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            u = unitary_group.rvs(8, random_state=rng)
            st = qsd_stream(u, [2, 1, 0])
            assert sum(1 for item in st if item[0] == "ecr") == 24
            assert phase_aligned(assemble_stream(st, 3), u) < 1e-9

    def test_fixed_shape_emission_is_input_independent(self):
        rng = np.random.default_rng(8)
        shapes = set()
        for _ in range(3):
            u = unitary_group.rvs(8, random_state=rng)
            gates = stream_to_gates(qsd_stream(u, [2, 1, 0]), fixed_shape=True)
            shapes.add(tuple((g.kind, g.qubits) for g in gates))
        assert len(shapes) == 1

    def test_minimal_emission_drops_identity_rotations(self):
        gates = stream_to_gates([("u", 0, np.eye(2, dtype=complex))], fixed_shape=False)
        assert gates == []


_PHASES = st.floats(-math.pi, math.pi)


@st.composite
def degenerate_unitaries(draw):
    """Diagonal and anti-diagonal 2x2 unitaries, and ones with |u00| or |u01|
    between 1e-13 and 1e-11, around the degenerate threshold of zxzxz_angles."""
    kind = draw(st.sampled_from(["diagonal", "anti", "small00", "small01"]))
    p, q, r = (np.exp(1j * draw(_PHASES)) for _ in range(3))
    if kind == "diagonal":
        return np.diag([p, q])
    if kind == "anti":
        return np.array([[0, p], [q, 0]])
    eps = 10.0 ** draw(st.floats(-13, -11))
    big = math.sqrt(1.0 - eps * eps)
    a, b = (eps * p, big * q) if kind == "small00" else (big * p, eps * q)
    return r * np.array([[a, -b.conjugate()], [b, a.conjugate()]])


def scalar_fixed_shape(wire, u):
    """The per-run reference: RZ(c) SX RZ(b) SX RZ(a) from the scalar angles."""
    a, b, c, _ = zxzxz_angles(u)
    return [Gate("RZ", (wire,), (canonical_angle(c),)), Gate("SX", (wire,)),
            Gate("RZ", (wire,), (canonical_angle(b),)), Gate("SX", (wire,)),
            Gate("RZ", (wire,), (canonical_angle(a),))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.lists(degenerate_unitaries(), max_size=8))
def test_fixed_shape_emission_equals_the_scalar_reference(seed, n_random, degenerate):
    # a stack of Haar-random and degenerate matrices in random order, each
    # its own run on a random wire, closed by an ECR on that wire: the
    # stacked pass must emit the scalar angles bit for bit
    rng = np.random.default_rng(seed)
    matrices = list(unitary_group.rvs(2, size=n_random, random_state=rng).reshape(-1, 2, 2))
    matrices += degenerate
    stream, expected = [], []
    for k in rng.permutation(len(matrices)):
        wire = int(rng.integers(3))
        stream += [("u", wire, matrices[k]), ("ecr", wire, (wire + 1) % 3)]
        expected += scalar_fixed_shape(wire, matrices[k]) + [Gate("ECR", (wire, (wire + 1) % 3))]
    assert stream_to_gates(stream, fixed_shape=True) == expected


@st.composite
def run_streams(draw):
    """A stream on 3 wires: runs of 1 to 5 "u" items (Haar-random or
    degenerate) on random wires, with ECRs between some of them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stream = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):
            hi, lo = draw(st.permutations(range(3)))[:2]
            stream.append(("ecr", hi, lo))
            continue
        wire = draw(st.integers(0, 2))
        for _ in range(draw(st.integers(1, 5))):
            if draw(st.integers(0, 3)) == 0:
                u = draw(degenerate_unitaries())
            else:
                u = unitary_group.rvs(2, random_state=rng)
            stream.append(("u", wire, u))
    return stream


def scalar_emission(stream, fixed_shape):
    """The per-run reference: each run's product as the scalar left fold
    m = item @ m, emitted on its own."""
    joins = [item[0] == "u" for item in stream]
    wires = [item[1:2] if join else item[1:] for item, join in zip(stream, joins)]
    gates = []
    for group in wire_runs(wires, joins):
        if not joins[group[0]]:
            gates.append(Gate("ECR", wires[group[0]]))
            continue
        wire, m = stream[group[0]][1:]
        for i in group[1:]:
            m = stream[i][2] @ m
        gates += scalar_fixed_shape(wire, m) if fixed_shape else _emit_matrix(wire, m)
    return gates


@settings(max_examples=80, deadline=None)
@given(run_streams(), st.booleans())
@example([("ecr", 0, 1), ("ecr", 2, 1)], True)
@example([("ecr", 0, 1), ("ecr", 2, 1)], False)
@example([], True)
def test_stacked_emission_equals_the_scalar_fold(stream, fixed_shape):
    # runs of several items, multiplied as stacks, emit what the scalar left
    # fold of each run emits, in both modes; a stream may have no "u" item
    assert stream_to_gates(stream, fixed_shape) == scalar_emission(stream, fixed_shape)


class TestClosedFormRotations:
    Y = np.array([[0, -1j], [1j, 0]])

    def test_match_expm_on_an_angle_grid(self):
        for theta in np.linspace(-4 * math.pi, 4 * math.pi, 257):
            assert np.abs(_rx(theta) - scipy.linalg.expm(-0.5j * theta * X_MATRIX)).max() <= 1e-15
            assert np.abs(_ry(theta) - scipy.linalg.expm(-0.5j * theta * self.Y)).max() <= 1e-15

    @pytest.mark.parametrize("level", [OptLevel.L1, OptLevel.L3])
    def test_walk_transpiles_never_call_expm(self, monkeypatch, schedule_3cycle, schedule_4cycle, level):
        def refuse(*args, **kwargs):
            raise AssertionError("synthesis called scipy.linalg.expm")

        monkeypatch.setattr(scipy.linalg, "expm", refuse)
        for build, sched in (
            (build_walk_circuit_3cycle, schedule_3cycle),
            (build_walk_circuit_4cycle, schedule_4cycle),
        ):
            for steps in (1, 7):
                transpile(build(sched, steps), level)
