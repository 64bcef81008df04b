import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st
from scipy.stats import unitary_group

from conftest import phase_aligned

from cyclewalk import Gate, OptLevel, build_walk_circuit_3cycle, build_walk_circuit_4cycle, transpile
from cyclewalk.gates import (ECR_MATRIX, H_MATRIX, SX_MATRIX, X_MATRIX, canonical_angle, rz_matrix,
                             u3_matrix)
from cyclewalk.circuit import Circuit, lower_to_unitary, wire_runs
from cyclewalk.synthesis import (
    ZERO_ANGLE,
    _MAGIC,
    _SIGNS,
    _cartan,
    _rx,
    _ry,
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
)


def zxzxz_matrix(a, b, c):
    return rz_matrix(a) @ SX_MATRIX @ rz_matrix(b) @ SX_MATRIX @ rz_matrix(c)


def reference_zxzxz_angles(u):
    """The scalar split (a, b, c, delta) with u = e^{i delta} RZ(a) SX RZ(b) SX RZ(c),
    angles not reduced: the bit-for-bit reference of the stacked kernel."""
    s, cmag = abs(u[0, 0]), abs(u[0, 1])
    b = 2.0 * math.atan2(s, cmag)
    if s > 1e-12 and cmag > 1e-12:
        apc = np.angle(-u[1, 1] / u[0, 0])
        amc = np.angle(u[1, 0] / u[0, 1])
        a, c = 0.5 * (apc + amc), 0.5 * (apc - amc)
        delta = np.angle(u[0, 0]) + 0.5 * (a + c)
        probe = np.exp(1j * delta) * np.exp(-0.5j * (a - c)) * cmag
        if abs(probe - u[0, 1]) > abs(probe + u[0, 1]):  # the half-angle branch
            a, c = a + math.pi, c - math.pi
    elif s <= 1e-12:  # anti-diagonal: b = 0, only a - c matters
        a, c = float(np.angle(u[1, 0] / u[0, 1])), 0.0
        delta = np.angle(u[0, 1]) + 0.5 * a
    else:  # diagonal: b = pi, only a + c matters
        a, c = float(np.angle(-u[1, 1] / u[0, 0])), 0.0
        delta = np.angle(u[0, 0]) + 0.5 * a
    return float(a), float(b), float(c), float(delta)


def assemble_stream(stream, width, row=0):
    """Dense unitary of row ``row`` of a stream; a 2x2 "u" item is shared by all rows."""
    circuit = Circuit(width)
    for item in stream:
        if item[0] == "u":
            circuit.add("UNITARY", item[1], matrix=item[2] if item[2].ndim == 2 else item[2][row])
        else:
            circuit.add("ECR", item[1], item[2])
    return lower_to_unitary(circuit)


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
        # the reference rebuilds u with its phase, the kernel's canonical
        # angles up to one, each stack row as the matrix alone
        rng = np.random.default_rng(1)
        stack = np.array([unitary_group.rvs(2, random_state=rng) for _ in range(200)])
        rows = zxzxz_angles(stack)
        assert rows.shape == (200, 3)
        for u, row in zip(stack, rows):
            a, b, c, d = reference_zxzxz_angles(u)
            assert np.linalg.norm(np.exp(1j * d) * zxzxz_matrix(a, b, c) - u) < 1e-12
            assert phase_aligned(zxzxz_matrix(*row), u) < 1e-12
            assert np.array_equal(zxzxz_angles(u), row[None])

    def test_zxzxz_special_cases(self):
        for u in (np.diag([1, 1j]), np.array([[0, 1], [1, 0]]), H_MATRIX):
            u = np.asarray(u, dtype=complex)
            a, b, c, d = reference_zxzxz_angles(u)
            m = np.exp(1j * d) * zxzxz_matrix(a, b, c)
            assert np.linalg.norm(m - u) < 1e-12
            assert phase_aligned(zxzxz_matrix(*zxzxz_angles(u)[0]), u) < 1e-12

    def test_u3_params_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            u = unitary_group.rvs(2, random_state=rng)
            t, p, l, d = u3_params(u)
            assert np.linalg.norm(np.exp(1j * d) * u3_matrix(t, p, l) - u) < 1e-12

    @pytest.mark.parametrize("shape", ["diagonal", "anti-diagonal"])
    @pytest.mark.parametrize("phases", [(0.0, 0.0), (0.3, -2.1), (math.pi, -math.pi), (-3.0, 1e-13)])
    def test_u3_params_special_cases(self, shape, phases):
        # u10 = 0 takes the branch with phi = lam; u00 = 0 the one with theta = pi
        p, q = np.exp(1j * np.array(phases))
        u = np.diag([p, q]) if shape == "diagonal" else np.array([[0, p], [q, 0]])
        t, phi, lam, d = u3_params(u)
        if shape == "diagonal":
            assert t == 0.0 and phi == lam
        else:
            assert (t, d) == (math.pi, 0.0)
        assert np.linalg.norm(np.exp(1j * d) * u3_matrix(t, phi, lam) - u) < 1e-12

    @pytest.mark.parametrize("damage", ["scaled", "row", "skewed", "nan", "inf"])
    @pytest.mark.parametrize("angles", [zxzxz_angles, u3_params])
    def test_a_non_unitary_matrix_is_rejected(self, angles, damage):
        # before the check, both returned angles for another matrix, 1.1 U
        # and U with a scaled row among them
        u = unitary_group.rvs(2, random_state=1)
        if damage == "scaled":
            u = 1.1 * u
        elif damage == "row":
            u[1] *= 1.2
        elif damage == "skewed":  # unit rows that are not orthogonal
            u[1] = u[0] * 1j
        else:
            u[1, 0] = np.nan if damage == "nan" else np.inf
        message = rf"^{angles.__name__} needs a unitary matrix \(defect "
        with pytest.raises(ValueError, match=message):
            angles(u)

    def test_the_defect_is_the_frobenius_norm(self):
        # the stacked check reports numpy's norm, and a matrix just inside
        # the bound of 1e-8 passes
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            with pytest.raises(ValueError) as err:
                zxzxz_angles(m)
            defect = np.linalg.norm(m @ m.conj().T - np.eye(2))
            assert str(err.value).endswith(f"(defect {defect:.2e})")
        u = unitary_group.rvs(2, random_state=4) * (1 + 3e-9)  # defect 8.5e-9
        assert np.linalg.norm(u @ u.conj().T - np.eye(2)) < 1e-8
        zxzxz_angles(u)
        u3_params(u)

    def test_stack_reduces_an_angle_of_minus_two_pi_as_the_scalar_form(self):
        # -u11/u00 = -1 - 0j and u10/u01 = -1 + 0j split into a = 0,
        # c = -pi; the branch test then shifts c to exactly -2 pi, which
        # the fmod reduction maps to -0.0 as canonical_angle does (without
        # it, the interval shift gives +0.0)
        cos, sin = math.cos(0.3), math.sin(0.3)
        u = np.array([[complex(cos, -0.0), sin], [-sin, cos]])
        assert np.angle(-u[1, 1] / u[0, 0]) == -math.pi and np.angle(u[1, 0] / u[0, 1]) == math.pi
        got = zxzxz_angles(u[None])[0].tolist()
        want = [canonical_angle(x) for x in reference_zxzxz_angles(u)[:3]]
        assert got == want
        assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
        assert math.copysign(1.0, got[2]) == -1.0


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


def split_gap_unitary(case):
    """A two-qubit unitary whose Re p has an eigenvalue gap just above the
    Cartan split tolerance: a CP(1e-9) or a UNITARY diag(1, 1 + 1e-9j) before
    an ECR."""
    c = Circuit(2)
    if case == "cp":
        c.add("CP", 0, 1, params=(1e-9,))
        for kind, qubits in [("SX", (0,)), ("SX", (0,)), ("ECR", (0, 1)), ("H", (0,))]:
            c.add(kind, *qubits)
    else:
        c.add("UNITARY", 0, matrix=np.diag([1, 1 + 1e-9j]))
        for kind, qubits in [("ECR", (0, 1)), ("H", (0,)), ("H", (1,)), ("X", (0,)), ("X", (0,))]:
            c.add(kind, *qubits)
        c.add("RZ", 0, params=(4 * math.pi,))
    return lower_to_unitary(c)


def underflow_unitary(angle):
    """A three-qubit unitary with a top-wire rotation by a tiny ``angle``, whose
    cosine-sine parts are near underflow."""
    ry = np.exp(-1j * angle) * np.array(
        [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
    )
    return np.kron(ry, np.kron(np.eye(2), H_MATRIX))


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

    @pytest.mark.parametrize("case", ["cp", "unitary"])
    def test_a_gap_just_above_the_split_tolerance(self, case):
        # Re p of these has eigenvalue gaps of 1.0000001e-9 and 2.0000001e-9,
        # just above the split tolerance of 1e-9: its eigenvectors left Q2 an
        # imaginary part of 1e-7 ("not real") and 1.2e-9 (reconstruction 1.2e-9)
        u = split_gap_unitary(case)
        assert phase_aligned(assemble_stream(kak_stream(u, 1, 0), 2), u) < 1e-9
        # in a stack the other rows keep the bits of their own decomposition
        haar = unitary_group.rvs(4, size=2, random_state=np.random.default_rng(4))
        rows = cartan_rows(np.array([haar[0], u, haar[1]]))
        for i, row in zip((0, 2), (rows[0], rows[2])):
            alone = cartan_rows(haar[i // 2:i // 2 + 1])[0]
            assert all(np.array_equal(x, y) for x, y in zip(row, alone))

    def test_nan_entry_is_rejected_before_lapack(self):
        stack = unitary_group.rvs(4, size=4, random_state=np.random.default_rng(9))
        stack[2, 1, 3] = math.nan
        with pytest.raises(ValueError, match=r"^row 2 of the stack is not unitary \(defect nan\)$"):
            _cartan(stack)

    def test_inf_entry_is_rejected_before_lapack(self):
        # u u^dag of an inf entry holds inf - inf: the check reads it as NaN
        # without a numpy warning (under -W error the warning raised first)
        stack = unitary_group.rvs(4, size=4, random_state=np.random.default_rng(9))
        stack[1, 0, 2] = math.inf
        with pytest.raises(ValueError, match=r"^row 1 of the stack is not unitary \(defect nan\)$"):
            kak_stream(stack, 1, 0)


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
        # five unitaries one at a time, then as one stack whose rows are read apart
        stack = unitary_group.rvs(8, size=5, random_state=np.random.default_rng(7))
        for u in stack:
            st = qsd_stream(u, [2, 1, 0])
            assert sum(1 for item in st if item[0] == "ecr") == 24
            assert phase_aligned(assemble_stream(st, 3), u) < 1e-9
        st = qsd_stream(stack, [2, 1, 0])
        assert sum(1 for item in st if item[0] == "ecr") == 24
        assert all(phase_aligned(assemble_stream(st, 3, i), u) < 1e-9 for i, u in enumerate(stack))

    @pytest.mark.parametrize("angle", [1e-147, 1e-150, 1e-159])
    def test_qsd_stream_with_a_sine_near_underflow(self, angle):
        # a top-wire rotation by a tiny angle: zuncsd did not converge on these
        u = underflow_unitary(angle)
        st = qsd_stream(u, [2, 1, 0])
        assert phase_aligned(assemble_stream(st, 3), u) < 1e-9

    @pytest.mark.parametrize("damage", ["scaled", "column", "nan", "inf"])
    def test_qsd_stream_rejects_a_non_unitary_matrix(self, damage):
        # before the check, 1.01 U and U with column 0 scaled by 1.2 gave
        # streams 0.028 and 0.20 from their input (phase-aligned Frobenius)
        u = unitary_group.rvs(8, random_state=1)
        if damage == "scaled":
            u = 1.01 * u
        elif damage == "column":
            u[:, 0] *= 1.2
        else:
            u[2, 5] = np.nan if damage == "nan" else np.inf
        with pytest.raises(ValueError, match=r"^qsd_stream needs a unitary matrix \(defect "):
            qsd_stream(u, [2, 1, 0])

    @pytest.mark.parametrize("bad", range(3))
    def test_a_non_unitary_row_is_named(self, bad):
        # a stack resynthesized in one pass names the row that fails, at
        # width 3 (qsd_stream) and width 2 (kak_stream, through _cartan)
        rng = np.random.default_rng(bad)
        for dim, call, message in [
            (8, lambda m: qsd_stream(m, [2, 1, 0]),
             rf"^qsd_stream needs a unitary matrix \(defect 5\.66e-06 in row {bad}\)$"),
            (4, lambda m: kak_stream(m, 1, 0),
             rf"^row {bad} of the stack is not unitary \(defect 4\.00e-06\)$"),
        ]:
            stack = unitary_group.rvs(dim, size=3, random_state=rng)
            stack[bad] *= 1.0 + 1e-6
            with pytest.raises(ValueError, match=message):
                call(stack)

    def test_a_wrong_shape_is_a_shape_error(self):
        # an 8x8 holds as many entries as a stack of four 4x4s, and a 4x4
        # stack of 4 as one 8x8; neither may be read as the other
        u8 = unitary_group.rvs(8, random_state=np.random.default_rng(2))
        u4 = unitary_group.rvs(4, size=4, random_state=np.random.default_rng(2))
        for call, arg, shape in [(lambda m: kak_stream(m, 1, 0), u8, r"\(8, 8\)"),
                                 (lambda m: kak_stream(m, 1, 0), u4[None], r"\(1, 4, 4, 4\)"),
                                 (lambda m: qsd_stream(m, [2, 1, 0]), u4, r"\(4, 4, 4\)")]:
            with pytest.raises(ValueError, match=rf"^need a \dx\d matrix or an .* got shape {shape}$"):
                call(arg)

    def test_fixed_shape_emission_is_input_independent(self):
        rng = np.random.default_rng(8)
        shapes = set()
        for _ in range(3):
            u = unitary_group.rvs(8, random_state=rng)
            gates = stream_to_gates(qsd_stream(u, [2, 1, 0]), fixed_shape=True)[0]
            shapes.add(tuple((g.kind, g.qubits) for g in gates))
        assert len(shapes) == 1

    def test_minimal_emission_drops_identity_rotations(self):
        gates = stream_to_gates([("u", 0, np.eye(2, dtype=complex))], fixed_shape=False)[0]
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
    a, b, c, _ = reference_zxzxz_angles(u)
    return [Gate("RZ", (wire,), (canonical_angle(c),)), Gate("SX", (wire,)),
            Gate("RZ", (wire,), (canonical_angle(b),)), Gate("SX", (wire,)),
            Gate("RZ", (wire,), (canonical_angle(a),))]


def scalar_shortest(wire, u):
    """The per-run reference of the shortest form: one RZ for a diagonal u, else
    the scalar angles' five gates, zero-angle RZs dropped."""
    if abs(u[0, 1]) < 1e-12 and abs(u[1, 0]) < 1e-12:
        angle = canonical_angle(float(np.angle(u[1, 1] / u[0, 0])))
        return [Gate("RZ", (wire,), (angle,))] if abs(angle) >= ZERO_ANGLE else []
    return [g for g in scalar_fixed_shape(wire, u) if g.kind == "SX" or abs(g.params[0]) >= ZERO_ANGLE]


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
    got = stream_to_gates(stream, fixed_shape=True)[0]
    assert got == expected and gate_bits(got) == gate_bits(expected)


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
        gates += scalar_fixed_shape(wire, m) if fixed_shape else scalar_shortest(wire, m)
    return gates


@settings(max_examples=80, deadline=None)
@given(run_streams(), st.booleans())
@example([("ecr", 0, 1), ("ecr", 2, 1)], True)
@example([("ecr", 0, 1), ("ecr", 2, 1)], False)
@example([], True)
def test_stacked_emission_equals_the_scalar_fold(stream, fixed_shape):
    # runs of several items, multiplied as stacks, emit what the scalar left
    # fold of each run emits, in both modes; a stream may have no "u" item
    got, want = stream_to_gates(stream, fixed_shape)[0], scalar_emission(stream, fixed_shape)
    assert got == want and gate_bits(got) == gate_bits(want)


def resynthesis_stream(stack, width):
    """The fixed-shape stream of a stack of unitaries of one width, as L3 builds it."""
    if width == 1:
        return [("u", 0, stack)]
    return kak_stream(stack, 1, 0) if width == 2 else qsd_stream(stack, [2, 1, 0])


def gate_bits(gates):
    """Each gate's kind, qubits and the exact bits of its parameters."""
    return [(g.kind, g.qubits, [p.hex() for p in g.params]) for g in gates]


@st.composite
def resynthesis_stacks(draw):
    """A width of 1 to 3 and a stack of 1 to 6 unitaries of it: Haar-random
    rows mixed with rows that strain one layer (degenerate 2x2 rows, Cartan
    split gaps, cosine-sine parts near underflow)."""
    width = draw(st.integers(1, 3))
    special = {
        1: degenerate_unitaries(),
        2: st.sampled_from([split_gap_unitary("cp"), split_gap_unitary("unitary")]
                           + special_two_qubit_cases()),
        3: st.sampled_from([underflow_unitary(a) for a in (1e-147, 1e-150, 1e-159)]
                           + [np.kron(H_MATRIX, split_gap_unitary("cp"))]),
    }[width]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = [draw(special) if draw(st.booleans()) else unitary_group.rvs(1 << width, random_state=rng)
             for _ in range(draw(st.integers(1, 6)))]
    return width, np.array(stack, dtype=complex)


@settings(max_examples=40, deadline=None)
@given(resynthesis_stacks())
def test_every_row_of_a_stack_emits_the_gates_of_its_stack_of_one(case):
    # one stacked resynthesis of n unitaries (L3's pass over a bundle) and n
    # passes of one emit the same gates, bit for bit, and each row is exact
    width, stack = case
    rows = stream_to_gates(resynthesis_stream(stack, width), fixed_shape=True)
    for i, u in enumerate(stack):
        alone = stream_to_gates(resynthesis_stream(stack[i:i + 1], width), fixed_shape=True)[0]
        assert rows[i] == alone and gate_bits(rows[i]) == gate_bits(alone)
        assert phase_aligned(lower_to_unitary(Circuit(width).extend(alone)), u) < 1e-9


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
