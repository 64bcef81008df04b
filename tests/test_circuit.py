import importlib
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclewalk import (
    Circuit,
    CircuitFormatError,
    Gate,
    depth_report,
    from_text,
    lower_to_unitary,
    to_text,
)
from cyclewalk.circuit import Trail, apply_circuit, wire_runs
from cyclewalk.gates import (
    ECR_MATRIX,
    H_MATRIX,
    NATIVE_KINDS,
    SX_MATRIX,
    X_MATRIX,
    canonical_angle,
    gate_matrix,
)


class TestGateValidation:
    @pytest.mark.parametrize("kind, qubits, params", [
        ("RZ", (0,), (math.nan,)),
        ("CP", (0, 1), (math.inf,)),
        ("U3", (0,), (0.1, -math.inf, 0.2)),
    ])
    def test_non_finite_parameters(self, kind, qubits, params):
        with pytest.raises(ValueError, match="must be finite"):
            Gate(kind, qubits, params)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown gate kind"):
            Gate("CNOT", (0, 1))

    def test_arity(self):
        with pytest.raises(ValueError, match="exactly 1"):
            Gate("H", (0, 1))
        with pytest.raises(ValueError, match="exactly 2"):
            Gate("CP", (0,), (1.0,))

    def test_repeated_qubits(self):
        with pytest.raises(ValueError, match="repeated"):
            Gate("ECR", (1, 1))

    def test_param_count(self):
        with pytest.raises(ValueError, match="parameter"):
            Gate("RZ", (0,))
        with pytest.raises(ValueError, match="parameter"):
            Gate("U3", (0,), (1.0,))

    def test_unitary_payload_checked(self):
        with pytest.raises(ValueError, match="not unitary"):
            Gate("UNITARY", (0,), matrix=np.array([[1, 0], [0, 2]], dtype=complex))
        with pytest.raises(ValueError, match="not unitary"):
            Gate("UNITARY", (0,), matrix=np.array([[1, 0], [0, math.nan]], dtype=complex))

    def test_circuit_width_check(self):
        c = Circuit(2)
        with pytest.raises(ValueError, match="outside circuit width"):
            c.add("H", 2)

    def test_repeated_measured_qubit(self):
        with pytest.raises(ValueError, match=r"measured qubit 0 repeated in \(0, 0\)"):
            Circuit(2, measured=(0, 0))
        with pytest.raises(ValueError, match="measured qubit 1 repeated"):
            Circuit(3, measured=(1, 2, 1))

    def test_native_matrices(self):
        # ECR = (I (x) X - X (x) Y)/sqrt(2); SX squared is X up to phase
        y = np.array([[0, -1j], [1j, 0]])
        expected = (np.kron(np.eye(2), X_MATRIX) - np.kron(X_MATRIX, y)) / math.sqrt(2)
        assert np.allclose(ECR_MATRIX, expected)
        assert np.allclose(SX_MATRIX @ SX_MATRIX, X_MATRIX)
        assert np.allclose(ECR_MATRIX @ ECR_MATRIX, np.eye(4))

    def test_canonical_angle(self):
        assert canonical_angle(3 * math.pi) == pytest.approx(math.pi)
        assert canonical_angle(-math.pi) == pytest.approx(math.pi)
        assert canonical_angle(0.25) == pytest.approx(0.25)


class TestGateHash:
    def test_equal_gates_hash_equal_and_the_hash_is_fixed(self):
        a, b = Gate("RZ", (1,), (0.25,)), Gate("RZ", (1,), (0.25,))
        assert a == b and hash(a) == hash(b) == hash(("RZ", (1,), (0.25,)))
        before = hash(a)
        assert {(a, Gate("SX", (1,))): 1}[(b, Gate("SX", (1,)))] == 1
        assert hash(a) == before
        assert hash(a) != hash(Gate("RZ", (0,), (0.25,)))

    def test_unitary_payload_decides_equality_not_the_hash(self):
        x = Gate("UNITARY", (0,), matrix=X_MATRIX)
        h = Gate("UNITARY", (0,), matrix=H_MATRIX)
        assert hash(x) == hash(h) and x != h
        assert x == Gate("UNITARY", (0,), matrix=X_MATRIX.copy())

    def test_unpickled_gate_hashes_as_this_process(self):
        # a gate pickled under another string-hash seed is rebuilt here, so
        # its hash is this process's and dict lookups find it
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=str(src))
        code = ("import pickle, sys; from cyclewalk import Gate; "
                "sys.stdout.buffer.write(pickle.dumps(Gate('RZ', (1,), (0.5,))))")
        blob = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              check=True).stdout
        gate = pickle.loads(blob)
        assert {Gate("RZ", (1,), (0.5,)): "found"}[gate] == "found"
        assert hash(gate) == hash(("RZ", (1,), (0.5,)))


class TestLowering:
    def test_empty_circuit(self):
        assert np.array_equal(lower_to_unitary(Circuit(3)), np.eye(8))

    def test_x_on_lsb_swaps_adjacent_pairs(self):
        c = Circuit(2)
        c.add("X", 0)
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i ^ 1, i] = 1.0
        assert np.allclose(lower_to_unitary(c), expected)

    def test_x_on_msb(self):
        c = Circuit(2)
        c.add("X", 1)
        expected = np.zeros((4, 4))
        for i in range(4):
            expected[i ^ 2, i] = 1.0
        assert np.allclose(lower_to_unitary(c), expected)

    def test_qft2_circuit_matches_fourier_entries(self):
        c = Circuit(2)
        c.add("H", 1)
        c.add("CP", 0, 1, params=(math.pi / 2,))
        c.add("H", 0)
        # direct evaluation of omega^{jk}/2 with omega = i, rows bit-reversed
        omega = np.exp(2j * math.pi / 4)
        dft = np.array([[omega ** (j * k) for k in range(4)] for j in range(4)]) / 2
        rev = np.eye(4)[[0, 2, 1, 3]]
        assert np.allclose(lower_to_unitary(c), rev @ dft, atol=1e-14)

    def test_cp_is_symmetric_diag(self):
        c = Circuit(2)
        c.add("CP", 0, 1, params=(0.7,))
        assert np.allclose(
            lower_to_unitary(c), np.diag([1, 1, 1, np.exp(0.7j)]), atol=1e-15
        )

    def test_barrier_is_identity(self):
        c = Circuit(2)
        c.add("BARRIER", 0, 1)
        assert np.array_equal(lower_to_unitary(c), np.eye(4))

    def test_width_cap(self):
        with pytest.raises(ValueError, match="width 13"):
            lower_to_unitary(Circuit(13))

    def test_gate_order_is_execution_order(self):
        c = Circuit(1)
        c.add("H", 0)
        c.add("RZ", 0, params=(1.1,))
        expected = gate_matrix(Gate("RZ", (0,), (1.1,))) @ gate_matrix(Gate("H", (0,)))
        assert np.allclose(lower_to_unitary(c), expected)


class TestTrail:
    @staticmethod
    def circuits():
        first, second = Circuit(2), Circuit(2)
        first.add("H", 0).add("CP", 0, 1, params=(0.3,)).add("RZ", 1, params=(0.5,))
        second.add("H", 0).add("CP", 0, 1, params=(0.3,)).add("SX", 1).add("X", 0)
        return first, second

    @pytest.fixture
    def applied(self, monkeypatch):
        """The matrices apply_circuit applies; once ``fail_at`` of them are
        recorded, the next application raises."""
        circuit_module = importlib.import_module("cyclewalk.circuit")
        apply = circuit_module.apply_matrix
        class Calls(list):
            fail_at = None

        calls = Calls()

        def counted(rows, m, *rest):
            if len(calls) == calls.fail_at:
                raise ArithmeticError("injected")
            calls.append(m)
            return apply(rows, m, *rest)

        monkeypatch.setattr(circuit_module, "apply_matrix", counted)
        return calls

    def test_resumes_after_the_shared_prefix(self, applied):
        first, second = self.circuits()
        trail = Trail()
        lower_to_unitary(first, trail)
        applied.clear()
        resumed = lower_to_unitary(second, trail)
        assert len(applied) == 2
        assert resumed.tobytes() == lower_to_unitary(second).tobytes()

    def test_new_start_array_starts_over(self):
        first, second = self.circuits()
        trail = Trail()
        apply_circuit(np.eye(4, dtype=complex), first, trail)
        start = np.eye(4, dtype=complex)[::-1].copy()
        resumed = apply_circuit(start, second, trail)
        assert resumed.tobytes() == apply_circuit(start, second).tobytes()

    def test_resume_after_a_failed_run(self, applied):
        first, second = self.circuits()
        trail = Trail()
        lower_to_unitary(first, trail)
        applied.clear()
        applied.fail_at = 1  # SX goes on the trail, X raises
        with pytest.raises(ArithmeticError):
            lower_to_unitary(second, trail)
        applied.fail_at = None
        assert lower_to_unitary(second, trail).tobytes() == lower_to_unitary(second).tobytes()


@st.composite
def wire_items(draw):
    """(qubits, joins) of up to 30 items on 1-4 wires: joining items on one
    wire, other items on one or more distinct wires."""
    width = draw(st.integers(1, 4))
    wire = st.integers(0, width - 1)
    joining = st.tuples(st.just(True), wire.map(lambda q: (q,)))
    wires = st.lists(wire, min_size=1, max_size=width, unique=True).map(tuple)
    other = st.tuples(st.just(False), wires)
    items = draw(st.lists(st.one_of(joining, other), max_size=30))
    return [q for _, q in items], [j for j, _ in items]


@given(wire_items())
def test_wire_runs_groups_each_item_once_in_an_equivalent_order(items):
    qubits, joins = items
    groups = list(wire_runs(qubits, joins))
    assert sorted(i for g in groups for i in g) == list(range(len(qubits)))
    emitted = {i: k for k, g in enumerate(groups) for i in g}
    # a group is one other item, or joining items on one wire in list order
    for g in groups:
        if not joins[g[0]]:
            assert len(g) == 1
        else:
            assert all(joins[i] for i in g) and len({qubits[i] for i in g}) == 1
            assert list(g) == sorted(g)
    # a run is emitted before the next item on its wire, and the joining
    # items between two other items on a wire are one run
    for i, wires in enumerate(qubits):
        for q in wires:
            nxt = next((j for j in range(i + 1, len(qubits)) if q in qubits[j]), None)
            if nxt is None:
                continue
            if joins[i] and joins[nxt]:
                assert emitted[i] == emitted[nxt]
            else:
                assert emitted[i] < emitted[nxt]
    # the runs left open at the end come last, in sorted wire order
    tail = [g for g in groups if joins[g[0]]
            and not any(qubits[g[0]][0] in qubits[j] for j in range(g[-1] + 1, len(qubits)))]
    assert groups[len(groups) - len(tail):] == tail
    assert [qubits[g[0]] for g in tail] == sorted(qubits[g[0]] for g in tail)


class TestDepthReport:
    def test_single_gate(self):
        c = Circuit(2)
        c.add("H", 0)
        assert depth_report(c).depth == 1

    def test_parallel_gates_share_layer(self):
        c = Circuit(3)
        c.add("H", 0)
        c.add("H", 1)
        c.add("H", 2)
        rep = depth_report(c)
        assert rep.depth == 1
        assert rep.counts_1q == 3

    def test_shared_qubit_serializes(self):
        c = Circuit(2)
        c.add("CP", 0, 1, params=(1.0,))
        c.add("H", 0)
        rep = depth_report(c)
        assert rep.depth == 2
        assert rep.counts_1q == 1 and rep.counts_2q == 1

    def test_barrier_forces_boundary_and_is_not_counted(self):
        c = Circuit(2)
        c.add("H", 0)
        c.add("BARRIER", 0, 1)
        c.add("H", 1)
        rep = depth_report(c)
        assert rep.depth == 2
        assert rep.counts_1q == 2 and rep.counts_2q == 0

    def test_without_barrier_gates_pack(self):
        c = Circuit(2)
        c.add("H", 0)
        c.add("H", 1)
        assert depth_report(c).depth == 1


class TestSerialization:
    def _sample(self):
        c = Circuit(3, name="sample", measured=(0, 1))
        c.add("H", 1)
        c.add("CP", 0, 1, params=(math.pi / 2,))
        c.add("UNITARY", 2, matrix=np.array([[0, 1j], [1j, 0]], dtype=complex))
        c.add("BARRIER", 0, 1, 2)
        c.add("RZ", 0, params=(-0.375,))
        c.add("ECR", 2, 0)
        return c

    def test_round_trip(self):
        c = self._sample()
        rt = from_text(to_text(c))
        assert rt.width == c.width
        assert rt.name == c.name
        assert rt.measured == c.measured
        assert len(rt.gates) == len(c.gates)
        assert np.allclose(lower_to_unitary(rt), lower_to_unitary(c), atol=1e-15)
        assert to_text(rt) == to_text(c)

    def test_scheduled_annotations_ignored(self):
        c = self._sample()
        text = to_text(c, start_times=[0.0, 1.0, 2.0, 3.0, 3.0, 4.0])
        assert "@t=" in text
        rt = from_text(text)
        assert to_text(rt) == to_text(c)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            from_text("\n\n")

    def test_header_required(self):
        with pytest.raises(ValueError, match="width"):
            from_text("name=x\nH 0\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("width=3 name=x foo\nH 0\n", "line 1: header item 'foo' is not key=value"),
            ("width=two\n", "line 1: bad width 'two'"),
            ("width=2 mesure=0\n", "line 1: unknown header key 'mesure'"),
            ("\nwidth=2\nH 0\n\nFOO 1\n", "line 5: unknown gate kind 'FOO': 'FOO 1'"),
            ("width=2\nH q0\n", "line 2: bad qubit 'q0': 'H q0'"),
            ("width=2\nCP 0\n", r"line 2: CP takes exactly 2 qubits, got \(0,\): 'CP 0'"),
            ("width=2\nRZ 0\n", r"line 2: RZ takes 1 parameter\(s\), got 0: 'RZ 0'"),
            ("width=2\nH 3\n", "line 2: gate H on qubit 3 outside circuit width 2"),
            (
                "width=2 name=x measure=0,0\nH 0\n",
                r"line 1: measured qubit 0 repeated in \(0, 0\): 'width=2 name=x measure=0,0'",
            ),
            (
                "width=2\nRZ 0 nan\n",
                r"line 2: RZ parameters must be finite, got \(nan,\): 'RZ 0 nan'",
            ),
            (
                "width=1\nRZ 0 1e9\n",
                r"line 2: RZ parameters must be at most 1e\+06 in magnitude, "
                r"got \(1000000000.0,\): 'RZ 0 1e9'",
            ),
        ],
        ids=[
            "header-item", "header-width", "header-key", "unknown-kind", "qubit-token", "qubits",
            "params", "range", "repeated-measure", "non-finite", "too-large",
        ],
    )
    def test_malformed_line_is_located(self, text, message):
        with pytest.raises(CircuitFormatError, match=message):
            from_text(text)


@st.composite
def scheduled_native_circuits(draw):
    """A native circuit with barriers, a header name and measured qubits, and
    one start time per gate."""
    width = draw(st.integers(1, 6))
    name = draw(st.text(min_size=1).filter(lambda s: not any(ch.isspace() for ch in s)))
    measured = tuple(draw(st.lists(st.integers(0, width - 1), max_size=width, unique=True)))
    c = Circuit(width, name=name, measured=measured)
    kinds = sorted(NATIVE_KINDS | {"BARRIER"})
    if width == 1:
        kinds.remove("ECR")
    for _ in range(draw(st.integers(0, 20))):
        kind = draw(st.sampled_from(kinds))
        if kind == "ECR":
            c.add(kind, *draw(st.permutations(range(width)))[:2])
        elif kind == "BARRIER":
            c.add(kind, *draw(st.lists(st.integers(0, width - 1), min_size=1, unique=True)))
        else:
            # every angle Gate accepts: finite and at most 1e6 in magnitude
            angle = st.floats(-1e6, 1e6)
            params = (draw(angle),) if kind == "RZ" else ()
            c.add(kind, draw(st.integers(0, width - 1)), params=params)
    n = len(c.gates)
    times = draw(st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=n, max_size=n))
    return c, times


@settings(max_examples=100, deadline=None)
@given(scheduled_native_circuits())
def test_text_round_trip_on_random_native_circuits(case):
    c, times = case
    text = to_text(c, start_times=times)
    back = from_text(text)
    assert (back.width, back.name, back.measured, back.gates) == (
        c.width, c.name, c.measured, c.gates
    )
    assert to_text(back) == to_text(c)
    stamps = [tok for line in text.splitlines() for tok in line.split() if tok.startswith("@t=")]
    assert [float(tok[3:]) for tok in stamps] == times
