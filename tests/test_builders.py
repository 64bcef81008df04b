import math

import numpy as np
import pytest

from conftest import phase_aligned

from cyclewalk import (
    CoinParams,
    Circuit,
    build_walk_circuit_3cycle,
    build_walk_circuit_4cycle,
    build_walk_circuit_even,
    default_coins,
    depth_report,
    fourier_3cycle_matrix,
    fourier_matrix,
    from_text,
    lower_to_unitary,
    parrondo_schedule,
    shift_operator,
    step_operator,
    to_text,
)
from cyclewalk.builders import _fourier3_gates, _inverse_block, _qft_noswap_gates
from cyclewalk.gates import Gate
from cyclewalk.walk import coin_operator


def walk_operator_product(cycle, schedule, steps):
    """Dense walk evolution in the padded basis (the circuit oracle)."""
    dim = 8 if cycle in (3, 4) else 16
    out = np.eye(dim, dtype=complex)
    for i in range(steps):
        out = step_operator(cycle, schedule.coin_at(i), "padded") @ out
    return out


def block_unitary(width, gates):
    c = Circuit(width)
    c.extend(gates)
    return lower_to_unitary(c)


def bit_reversal(n):
    """Permutation matrix sending basis state j to its n-bit reversal."""
    dim = 2**n
    rev = [int(format(j, f"0{n}b")[::-1], 2) for j in range(dim)]
    return np.eye(dim)[rev]


class TestFourierEven:
    """The no-swap ladder lowers to the bit-reversed Fourier matrix."""

    def test_single_qubit_is_hadamard(self):
        gates = _qft_noswap_gates(1)
        assert len(gates) == 1 and gates[0].kind == "H"
        assert np.allclose(block_unitary(1, gates), fourier_matrix(2), atol=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_entrywise_fourier(self, n):
        got = block_unitary(n, _qft_noswap_gates(n))
        dim = 2**n
        omega = np.exp(2j * math.pi / dim)
        expected = np.array(
            [[omega ** (j * k) for k in range(dim)] for j in range(dim)]
        ) / math.sqrt(dim)
        assert np.linalg.norm(got - bit_reversal(n) @ expected) < 1e-10

    def test_unitary(self):
        q = block_unitary(2, _qft_noswap_gates(2))
        assert np.allclose(q @ q.conj().T, np.eye(4), atol=1e-12)

    def test_inverse_composition(self):
        c = Circuit(2)
        c.extend(_qft_noswap_gates(2))
        c.extend(_inverse_block(_qft_noswap_gates(2)))
        assert phase_aligned(lower_to_unitary(c), np.eye(4)) < 1e-10


class TestFourier3Cycle:
    def test_matches_target_entrywise(self):
        # the derived block realizes the bit-reversed target up to a global
        # phase: P swaps basis states 1 and 2 of the natural-order target
        got = block_unitary(2, _fourier3_gates(1, 0))
        assert phase_aligned(got, bit_reversal(2) @ fourier_3cycle_matrix()) < 1e-9

    def test_isolated_node_column(self):
        q = fourier_3cycle_matrix()
        assert np.allclose(q[:, 3], [0, 0, 0, 1])
        assert np.allclose(q[3, :], [0, 0, 0, 1])

    def test_unitary(self):
        q = fourier_3cycle_matrix()
        assert np.allclose(q @ q.conj().T, np.eye(4), atol=1e-12)

    def test_template_budget(self):
        c = Circuit(2)
        c.extend(_fourier3_gates(1, 0))
        rep = depth_report(c)
        assert rep.counts_1q == 8
        assert rep.counts_2q == 3
        assert rep.depth == 7

    def test_template_gates_are_u3_and_cp(self):
        kinds = {g.kind for g in _fourier3_gates(1, 0)}
        assert kinds == {"U3", "CP"}


class TestDiagonalization:
    def test_4cycle_shift_blocks(self):
        q = fourier_matrix(4)
        phases = np.diag([1, 1j, -1, -1j])
        s = shift_operator(4)
        dec, inc = s[:4, :4], s[4:, 4:]
        assert np.linalg.norm(q.conj().T @ phases @ q - inc) < 1e-12
        assert np.linalg.norm(q.conj().T @ phases.conj().T @ q - dec) < 1e-12

    def test_3cycle_shift_blocks(self):
        # brute-force conjugation with the padded increment: the Fourier
        # block turns it into diag(1, w, w^2, 1) with w = exp(2 pi i / 3)
        q = fourier_3cycle_matrix()
        s = shift_operator(3, "padded")
        inc = s[4:, 4:]
        w = np.exp(2j * math.pi / 3)
        got = q @ inc @ q.conj().T
        assert np.linalg.norm(got - np.diag([1, w, w**2, 1])) < 1e-12


class TestWalkCircuits:
    def test_zero_steps_is_identity(self, schedule_4cycle, schedule_3cycle):
        for build, sched in (
            (build_walk_circuit_4cycle, schedule_4cycle),
            (build_walk_circuit_3cycle, schedule_3cycle),
        ):
            u = lower_to_unitary(build(sched, 0))
            assert phase_aligned(u, np.eye(8)) < 1e-10

    def test_one_step_is_shift_times_coin(self, schedule_4cycle):
        u = lower_to_unitary(build_walk_circuit_4cycle(schedule_4cycle, 1))
        expected = step_operator(4, schedule_4cycle.coin_at(0), "padded")
        assert phase_aligned(u, expected) < 1e-9

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 20])
    def test_oracle_equivalence_4cycle(self, schedule_4cycle, steps):
        u = lower_to_unitary(build_walk_circuit_4cycle(schedule_4cycle, steps))
        assert phase_aligned(u, walk_operator_product(4, schedule_4cycle, steps)) < 1e-9

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 20])
    def test_oracle_equivalence_3cycle(self, schedule_3cycle, steps):
        u = lower_to_unitary(build_walk_circuit_3cycle(schedule_3cycle, steps))
        assert phase_aligned(u, walk_operator_product(3, schedule_3cycle, steps)) < 1e-9

    def test_oracle_equivalence_random_coins(self):
        rng = np.random.default_rng(31)
        for cycle, build in ((4, build_walk_circuit_4cycle), (3, build_walk_circuit_3cycle)):
            coins = {
                "A": CoinParams(rng.uniform(), rng.uniform(0, 6.28), rng.uniform(0, 6.28)),
                "B": CoinParams(rng.uniform(), rng.uniform(0, 6.28), rng.uniform(0, 6.28)),
            }
            sched = parrondo_schedule("AB", coins, 9)
            u = lower_to_unitary(build(sched, 9))
            assert phase_aligned(u, walk_operator_product(cycle, sched, 9)) < 1e-9

    @pytest.mark.parametrize(
        "cycle,build",
        [
            (3, build_walk_circuit_3cycle),
            (4, build_walk_circuit_4cycle),
            (8, lambda sched, steps: build_walk_circuit_even(3, sched, steps)),
        ],
    )
    def test_oracle_equivalence_without_phase_alignment(self, cycle, build):
        # the closing block is the exact inverse of the opening one, so any
        # global phase of a Fourier block cancels in the walk circuit
        sched = parrondo_schedule("AABB", default_coins(cycle), 25)
        for steps in range(26):
            u = lower_to_unitary(build(sched, steps))
            assert np.max(np.abs(u - walk_operator_product(cycle, sched, steps))) < 1e-12

    @pytest.mark.parametrize("steps", [1, 5])
    def test_oracle_equivalence_8cycle(self, steps):
        sched = parrondo_schedule("A", {"A": CoinParams(0.5)}, steps)
        u = lower_to_unitary(build_walk_circuit_even(3, sched, steps))
        assert phase_aligned(u, walk_operator_product(8, sched, steps)) < 1e-9

    def test_return_amplitude_at_20(self, schedule_4cycle, schedule_3cycle):
        for build, sched in (
            (build_walk_circuit_4cycle, schedule_4cycle),
            (build_walk_circuit_3cycle, schedule_3cycle),
        ):
            u = lower_to_unitary(build(sched, 20))
            assert abs(u[0, 0]) > 1 - 1e-6

    def test_negative_steps_rejected(self, schedule_4cycle, schedule_3cycle):
        with pytest.raises(ValueError, match=">= 0"):
            build_walk_circuit_4cycle(schedule_4cycle, -1)
        with pytest.raises(ValueError, match=">= 0"):
            build_walk_circuit_3cycle(schedule_3cycle, -2)

    @pytest.mark.parametrize("n", [1, 4])
    def test_even_builder_takes_2_or_3_position_qubits(self, schedule_4cycle, n):
        with pytest.raises(ValueError, match=f"supports 2 or 3 position qubits, got {n}$"):
            build_walk_circuit_even(n, schedule_4cycle, 1)

    def test_measured_qubits_are_position(self, schedule_4cycle):
        assert build_walk_circuit_4cycle(schedule_4cycle, 2).measured == (0, 1)

    def test_serialization_round_trip(self, schedule_3cycle):
        c = build_walk_circuit_3cycle(schedule_3cycle, 4)
        rt = from_text(to_text(c))
        assert phase_aligned(lower_to_unitary(rt), lower_to_unitary(c)) < 1e-12
        assert to_text(rt) == to_text(c)


def per_step_walk_circuit(cycle, n, fourier, schedule, steps):
    """The walk circuit as built gate by gate, a new coin and new kicks at
    every step: the oracle for the builder, which shares them."""
    coin_q = n
    circuit = Circuit(n + 1, name=f"walk{cycle}cycle-t{steps}", measured=tuple(range(n)))
    all_qubits = tuple(range(n + 1))
    circuit.extend(fourier)
    circuit.add("BARRIER", *all_qubits)
    for step in range(steps):
        circuit.append(
            Gate("UNITARY", (coin_q,), matrix=coin_operator(schedule.coin_at(step)))
        )
        for k in range(n):
            circuit.add("PHASE", k, params=(-2 * math.pi * 2 ** (n - 1 - k) / cycle,))
        for k in (*range(1, n), 0):
            angle = 4 * math.pi * 2 ** (n - 1 - k) / cycle
            if angle != 2 * math.pi:
                circuit.add("CP", coin_q, k, params=(angle,))
    circuit.add("BARRIER", *all_qubits)
    circuit.extend(_inverse_block(fourier))
    return circuit


@pytest.mark.parametrize("steps", [0, 1, 7, 25])
@pytest.mark.parametrize("cycle", [3, 4, 8])
def test_shared_step_gates_serialize_as_the_per_step_circuit(cycle, steps):
    coins = {"A": CoinParams(0.998489), "B": CoinParams(0.119545, 0.3, 1.1)}
    sched = parrondo_schedule("AABB", coins, steps)
    if cycle == 3:
        got = build_walk_circuit_3cycle(sched, steps)
        want = per_step_walk_circuit(3, 2, _fourier3_gates(hi=1, lo=0), sched, steps)
    else:
        n = cycle.bit_length() - 1
        got = build_walk_circuit_even(n, sched, steps)
        want = per_step_walk_circuit(cycle, n, _qft_noswap_gates(n), sched, steps)
    assert to_text(got) == to_text(want)
    assert got.gates == want.gates
    # every step with the same label appends the one coin gate of that label
    coin_gates = [g for g in got.gates if g.kind == "UNITARY"]
    assert len(coin_gates) == steps
    for step, gate in enumerate(coin_gates):
        first = sched.labels().index(sched.label_at(step))
        assert gate is coin_gates[first]
    assert len({id(g) for g in coin_gates}) == len(set(sched.labels()))


class TestDepthFormula:
    @pytest.mark.parametrize("steps", range(1, 26))
    def test_3cycle_counts(self, schedule_3cycle, steps):
        rep = depth_report(build_walk_circuit_3cycle(schedule_3cycle, steps))
        assert rep.depth == 14 + 3 * steps
        assert rep.counts_2q == 6 + 2 * steps
        assert rep.counts_1q == 16 + 3 * steps


class TestStructure:
    @pytest.mark.parametrize(
        "build,fixture",
        [(build_walk_circuit_4cycle, "schedule_4cycle"), (build_walk_circuit_3cycle, "schedule_3cycle")],
    )
    def test_single_fourier_block_each_end(self, build, fixture, request):
        sched = request.getfixturevalue(fixture)
        prefix_lengths = set()
        suffix_lengths = set()
        for steps in (1, 4, 9):
            c = build(sched, steps)
            barrier_idx = [i for i, g in enumerate(c.gates) if g.kind == "BARRIER"]
            assert len(barrier_idx) == 2
            prefix_lengths.add(barrier_idx[0])
            suffix_lengths.add(len(c.gates) - barrier_idx[1] - 1)
            body = c.gates[barrier_idx[0] + 1 : barrier_idx[1]]
            assert all(g.kind in ("UNITARY", "PHASE", "CP") for g in body)
        # the Fourier blocks do not grow with the step count
        assert len(prefix_lengths) == 1
        assert len(suffix_lengths) == 1

    def test_prefix_lowers_to_inverse_of_suffix(self, schedule_3cycle):
        c = build_walk_circuit_3cycle(schedule_3cycle, 3)
        barrier_idx = [i for i, g in enumerate(c.gates) if g.kind == "BARRIER"]
        pre = Circuit(3)
        pre.extend(c.gates[: barrier_idx[0]])
        post = Circuit(3)
        post.extend(c.gates[barrier_idx[1] + 1 :])
        assert phase_aligned(
            lower_to_unitary(pre) @ lower_to_unitary(post), np.eye(8)
        ) < 1e-10
