import math

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import unitary_group

from conftest import phase_aligned

from cyclewalk import OptLevel, build_walk_circuit_3cycle, build_walk_circuit_4cycle, transpile
from cyclewalk.gates import ECR_MATRIX, H_MATRIX, X_MATRIX, rz_matrix, u3_matrix
from cyclewalk.synthesis import (
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
