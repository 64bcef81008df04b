import math

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
from cyclewalk.gates import (
    ECR_MATRIX,
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
        assert rep.per_layer == ((0, 1, 2),)

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
                "width=2\nRZ 0 nan\n",
                r"line 2: RZ parameters must be finite, got \(nan,\): 'RZ 0 nan'",
            ),
        ],
        ids=[
            "header-item", "header-width", "header-key", "unknown-kind", "qubit-token", "qubits",
            "params", "range", "non-finite",
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
    measured = tuple(draw(st.lists(st.integers(0, width - 1), max_size=width)))
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
            # every finite angle: Gate rejects NaN and infinite parameters
            angle = st.floats(allow_nan=False, allow_infinity=False)
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
