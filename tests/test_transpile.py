import importlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import unitary_group

from conftest import phase_aligned, ground_state

from cyclewalk import (
    Circuit,
    CoinParams,
    Gate,
    NoiseModel,
    OptLevel,
    build_walk_circuit_3cycle,
    build_walk_circuit_4cycle,
    build_walk_circuit_even,
    coin_operator,
    decompose_1q,
    decompose_cp,
    default_coins,
    depth_report,
    insert_dd,
    lower_to_unitary,
    measure_positions,
    parrondo_schedule,
    run_exact,
    run_noisy,
    schedule,
    state_to_density,
    transpile,
    hellinger_fidelity,
    trace_distance,
    readout_distribution,
)
from cyclewalk.circuit import MAX_LOWER_WIDTH, wire_runs
from cyclewalk.experiments import build_walk_circuit
from cyclewalk.synthesis import ZERO_ANGLE
from cyclewalk.gates import NATIVE_KINDS, gate_matrix, u3_matrix
from cyclewalk.transpile import ScheduledCircuit, TranspileError


def product_of(gates):
    out = np.eye(2, dtype=complex)
    for g in gates:
        out = gate_matrix(g) @ out
    return out


class TestDecompose1q:
    def test_rz_passthrough(self):
        out = decompose_1q(Gate("RZ", (0,), (0.3,)))
        assert [(g.kind, g.params) for g in out] == [("RZ", (0.3,))]

    def test_rz_angle_canonicalized(self):
        (g,) = decompose_1q(Gate("RZ", (0,), (7.0,)))
        assert g.params[0] == pytest.approx(7.0 - 2 * math.pi)

    def test_identity_angle_dropped(self):
        assert decompose_1q(Gate("RZ", (0,), (0.0,))) == []
        assert decompose_1q(Gate("PHASE", (0,), (2 * math.pi,))) == []

    @pytest.mark.parametrize("angle, kept", [(ZERO_ANGLE, True), (ZERO_ANGLE / 2, False)])
    def test_zero_angle_boundary(self, angle, kept):
        # the RZ passthrough and the diagonal-matrix emission share one rule
        rz = decompose_1q(Gate("RZ", (0,), (angle,)))
        diagonal = decompose_1q(Gate("PHASE", (0,), (angle,)))
        expected = [("RZ", (angle,))] if kept else []
        assert [(g.kind, g.params) for g in rz] == expected
        assert [(g.kind, g.params) for g in diagonal] == expected

    def test_native_passthrough(self):
        for kind in ("ID", "SX", "X"):
            assert decompose_1q(Gate(kind, (0,))) == [Gate(kind, (0,))]

    def test_near_reflective_coin_core(self):
        # hardware form of the r = 0.998489 coin: SX RZ(theta) SX with
        # theta = pi - 2 acos(sqrt(r)) = 3.0638, matching the reported 3.06
        gates = decompose_1q(
            Gate("UNITARY", (0,), matrix=coin_operator(CoinParams(0.998489)))
        )
        kinds = [g.kind for g in gates]
        assert kinds == ["SX", "RZ", "SX"]
        assert abs(gates[1].params[0] - 3.06) < 0.01
        assert phase_aligned(product_of(gates), coin_operator(CoinParams(0.998489))) < 1e-10

    def test_hadamard(self):
        gates = decompose_1q(Gate("H", (0,)))
        assert phase_aligned(product_of(gates), gate_matrix(Gate("H", (0,)))) < 1e-10
        assert all(g.kind in NATIVE_KINDS for g in gates)

    def test_random_unitaries(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            u = unitary_group.rvs(2, random_state=rng)
            gates = decompose_1q(Gate("UNITARY", (0,), matrix=u))
            assert len(gates) <= 5
            assert all(g.kind in NATIVE_KINDS for g in gates)
            assert phase_aligned(product_of(gates), u) < 1e-10
            for g in gates:
                if g.kind == "RZ":
                    assert -math.pi < g.params[0] <= math.pi

    def test_rejects_two_qubit(self):
        with pytest.raises(ValueError, match="one-qubit"):
            decompose_1q(Gate("ECR", (0, 1)))


class TestDecomposeCp:
    def _lowered(self, gates, width=2):
        c = Circuit(width)
        c.extend(gates)
        return lower_to_unitary(c)

    def test_pi_gives_cz(self):
        gates = decompose_cp(math.pi, 1, 0)
        assert phase_aligned(self._lowered(gates), np.diag([1, 1, 1, -1])) < 1e-9

    def test_two_entanglers(self):
        gates = decompose_cp(1.2345, 1, 0)
        assert sum(1 for g in gates if g.kind == "ECR") == 2
        assert all(g.kind in NATIVE_KINDS for g in gates)

    def test_angle_wraps(self):
        a = self._lowered(decompose_cp(8 * math.pi / 3, 1, 0))
        b = self._lowered(decompose_cp(2 * math.pi / 3, 1, 0))
        assert phase_aligned(a, b) < 1e-9
        target = np.diag([1, 1, 1, np.exp(8j * math.pi / 3)])
        assert phase_aligned(a, target) < 1e-9

    def test_trivial_angles_empty(self):
        assert decompose_cp(0.0, 0, 1) == []
        assert decompose_cp(2 * math.pi, 0, 1) == []


class TestTranspile:
    @pytest.mark.parametrize("level", [OptLevel.L0, OptLevel.L1, OptLevel.L3])
    @pytest.mark.parametrize("steps", [1, 4, 9])
    def test_semantics_and_closure(self, schedule_3cycle, level, steps):
        source = build_walk_circuit_3cycle(schedule_3cycle, steps)
        native = transpile(source, level)
        assert all(g.kind in NATIVE_KINDS or g.kind == "BARRIER" for g in native.gates)
        assert phase_aligned(lower_to_unitary(native), lower_to_unitary(source)) < 1e-8

    def test_monotone_l1_vs_l0(self, schedule_4cycle, schedule_3cycle):
        for build, sched in (
            (build_walk_circuit_4cycle, schedule_4cycle),
            (build_walk_circuit_3cycle, schedule_3cycle),
        ):
            for steps in (1, 5, 10, 20):
                src = build(sched, steps)
                l0 = depth_report(transpile(src, OptLevel.L0))
                l1 = depth_report(transpile(src, OptLevel.L1))
                assert l1.counts_1q + l1.counts_2q <= l0.counts_1q + l0.counts_2q
                assert l1.depth <= l0.depth

    def test_monotone_l3_vs_l1_deep_circuits(self, schedule_4cycle, schedule_3cycle):
        # whole-circuit resynthesis has a fixed cost, so it wins once the
        # step count amortizes it (t >= 20 for these walks); below that the
        # fused L1 output is smaller and constant depth cannot beat linear
        for build, sched in (
            (build_walk_circuit_4cycle, schedule_4cycle),
            (build_walk_circuit_3cycle, schedule_3cycle),
        ):
            for steps in (20, 25):
                src = build(sched, steps)
                l1 = depth_report(transpile(src, OptLevel.L1))
                l3 = depth_report(transpile(src, OptLevel.L3))
                assert l3.counts_1q + l3.counts_2q <= l1.counts_1q + l1.counts_2q
                assert l3.depth <= l1.depth

    def test_l3_depth_independent_of_steps(self, schedule_4cycle, schedule_3cycle):
        for build, sched in (
            (build_walk_circuit_4cycle, schedule_4cycle),
            (build_walk_circuit_3cycle, schedule_3cycle),
        ):
            stats = {
                (depth_report(transpile(build(sched, t), OptLevel.L3)).depth,
                 len(transpile(build(sched, t), OptLevel.L3).gates))
                for t in (5, 10, 20, 25)
            }
            assert len(stats) == 1

    def test_l0_depth_affine_in_steps(self, schedule_3cycle):
        depths = [
            depth_report(transpile(build_walk_circuit_3cycle(schedule_3cycle, t), OptLevel.L0)).depth
            for t in range(1, 11)
        ]
        diffs = {b - a for a, b in zip(depths, depths[1:])}
        assert len(diffs) == 1  # exactly linear growth per step

    def test_l1_merges_rotation_runs(self):
        c = Circuit(1)
        c.add("RZ", 0, params=(0.4,))
        c.add("RZ", 0, params=(0.7,))
        c.add("RZ", 0, params=(-1.1,))
        out = transpile(c, OptLevel.L1)
        assert len(out.gates) == 0  # angles cancel exactly

    @pytest.mark.parametrize("cycle", [3, 4, 8])
    @pytest.mark.parametrize("pattern", ["AABB", "A", "AB"])
    def test_one_fusion_pass_is_a_fixed_point(self, cycle, pattern):
        # on every walk circuit a second fusion pass changes nothing, and no
        # ECR is followed on both wires by an identical ECR to cancel
        fuse = importlib.import_module("cyclewalk.transpile")._fuse_runs
        sched = parrondo_schedule(pattern, default_coins(cycle), 25)
        for t in range(26):
            gates = transpile(build_walk_circuit(cycle, sched, t), OptLevel.L1).gates
            assert fuse(gates) == gates
            next_on = {}
            for g in reversed(gates):
                if g.kind == "ECR":
                    a, b = (next_on.get(q) for q in g.qubits)
                    assert not (a is b and a == g), (cycle, pattern, t)
                for q in g.qubits:
                    next_on[q] = g

    @pytest.mark.parametrize("level", [OptLevel.L0, OptLevel.L1, OptLevel.L3])
    def test_largest_accepted_angle_transpiles(self, level):
        # the canonical-angle drift at |theta| = 1e6 is far inside the check
        c = Circuit(1)
        c.add("RZ", 0, params=(1e6,))
        assert transpile(c, level).gates

    @pytest.mark.parametrize("level", [OptLevel.L1, OptLevel.L3])
    def test_source_lowered_once(self, monkeypatch, schedule_4cycle, level):
        # one lowering of the source (L3 input and check reference), one
        # run-wise lowering of the output; the package attribute ``transpile``
        # is the function, so import the module by name
        transpile_module = importlib.import_module("cyclewalk.transpile")
        calls = {"lower_to_unitary": [], "_lower_runs": []}
        for name, record in calls.items():
            original = getattr(transpile_module, name)
            monkeypatch.setattr(
                transpile_module, name,
                lambda c, *rest, record=record, original=original:
                    record.append(c) or original(c, *rest),
            )
        source = build_walk_circuit_4cycle(schedule_4cycle, 3)
        native = transpile(source, level)
        assert [c is source for c in calls["lower_to_unitary"]] == [True]
        assert [c is native for c in calls["_lower_runs"]] == [True]

    def test_semantic_guard_raises_on_tamper(self):
        # non-unitary payloads cannot arise through the public API; the
        # guard is exercised through the error type being exported
        assert issubclass(TranspileError, RuntimeError)

    def test_wide_circuit_is_verified(self, monkeypatch):
        # above width 6 the output is checked too: a fusion pass that loses
        # a gate must not go unnoticed
        transpile_module = importlib.import_module("cyclewalk.transpile")
        fuse = transpile_module._fuse_runs
        monkeypatch.setattr(transpile_module, "_fuse_runs", lambda gates: fuse(gates)[:-1])
        c = Circuit(7)
        for q in range(7):
            c.add("H", q)
        for q in range(6):
            c.add("CP", q, q + 1, params=(0.3 * (q + 1),))
        with pytest.raises(TranspileError, match="deviates"):
            transpile(c, OptLevel.L1)

    def test_run_wise_check_catches_a_shifted_rz(self, monkeypatch, schedule_4cycle):
        # the check applies each one-qubit run as one product, so a tampered
        # gate inside a five-gate RZ-SX-RZ-SX-RZ run must still be caught
        transpile_module = importlib.import_module("cyclewalk.transpile")
        resynthesize = transpile_module._resynthesize

        def tampered(unitary, width):
            gates = resynthesize(unitary, width)
            joins = [g.n_qubits == 1 for g in gates]
            run = next(r for r in wire_runs([g.qubits for g in gates], joins) if len(r) == 5)
            i = run[2]
            assert gates[i].kind == "RZ"
            gates[i] = Gate("RZ", gates[i].qubits, (gates[i].params[0] + 1e-6,))
            return gates

        monkeypatch.setattr(transpile_module, "_resynthesize", tampered)
        with pytest.raises(TranspileError, match="deviates"):
            transpile(build_walk_circuit_4cycle(schedule_4cycle, 3), OptLevel.L3)

    def test_too_wide_to_verify_raises(self):
        with pytest.raises(ValueError, match="refusing to lower"):
            transpile(Circuit(MAX_LOWER_WIDTH + 1), OptLevel.L0)

    def test_l3_above_width_3_is_named_l1(self):
        # the 8-cycle circuit is 4 qubits wide, so L3 runs the L1 pipeline
        sched = parrondo_schedule("AABB", default_coins(8), 3)
        source = build_walk_circuit_even(3, sched, 3)
        l3 = transpile(source, OptLevel.L3)
        assert l3.name.endswith("-native1")
        assert l3.gates == transpile(source, OptLevel.L1).gates


_ANGLES = st.one_of(
    st.floats(-4 * math.pi, 4 * math.pi),
    st.just(0.0),
    st.integers(-3, 3).map(lambda k: 2 * math.pi * k),
)


@st.composite
def logical_unitaries(draw):
    """A 2x2 unitary: diagonal, anti-diagonal or general, with a global phase."""
    a, b, c = draw(_ANGLES), draw(_ANGLES), draw(_ANGLES)
    shape = draw(st.sampled_from(["diagonal", "anti-diagonal", "general"]))
    if shape == "diagonal":
        return np.diag([np.exp(1j * a), np.exp(1j * b)])
    if shape == "anti-diagonal":
        return np.array([[0, np.exp(1j * a)], [np.exp(1j * b), 0]])
    return np.exp(1j * draw(_ANGLES)) * u3_matrix(a, b, c)


@st.composite
def logical_circuits(draw):
    """A circuit of width 1-3 over every logical gate kind."""
    width = draw(st.integers(1, 3))
    c = Circuit(width)
    kinds = ["H", "X", "SX", "ID", "RZ", "PHASE", "U3", "UNITARY", "BARRIER"]
    if width > 1:
        kinds += ["CP", "ECR"]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("CP", "ECR"):
            qubits = draw(st.permutations(range(width)))[:2]
            c.add(kind, *qubits, params=(draw(_ANGLES),) if kind == "CP" else ())
        elif kind == "BARRIER":
            c.add(kind, *range(width))
        elif kind == "UNITARY":
            c.add(kind, draw(st.integers(0, width - 1)), matrix=draw(logical_unitaries()))
        else:
            n_params = {"RZ": 1, "PHASE": 1, "U3": 3}.get(kind, 0)
            params = tuple(draw(_ANGLES) for _ in range(n_params))
            c.add(kind, draw(st.integers(0, width - 1)), params=params)
    return c


def _shape(circuit):
    return [(g.kind, g.qubits) for g in circuit.gates]


@settings(max_examples=60, deadline=None)
@given(logical_circuits())
def test_transpile_is_native_and_exact_on_random_circuits(c):
    source = lower_to_unitary(c)
    for level in (OptLevel.L0, OptLevel.L1, OptLevel.L3):
        native = transpile(c, level)
        assert all(g.kind in NATIVE_KINDS or g.kind == "BARRIER" for g in native.gates)
        assert phase_aligned(lower_to_unitary(native), source) <= 1e-8
    # L3 emits the same gate shape for every circuit of a width
    assert _shape(transpile(c, OptLevel.L3)) == _shape(transpile(Circuit(c.width), OptLevel.L3))


class TestSchedule:
    def test_single_wire_has_no_idle(self):
        nm = NoiseModel()
        c = Circuit(1)
        for _ in range(4):
            c.add("SX", 0)
        assert schedule(c, nm).idle_windows == ()

    def test_two_qubit_wait_window(self):
        # q1 runs one SX (1 unit) then waits until the ECR can start at the
        # end of q0's three SX gates (3 units): idle window (1, 3) on q1
        nm = NoiseModel()
        c = Circuit(2)
        c.add("SX", 0)
        c.add("SX", 0)
        c.add("SX", 0)
        c.add("SX", 1)
        c.add("ECR", 0, 1)
        sc = schedule(c, nm)
        assert sc.idle_windows == ((1, 1.0, 3.0),)
        assert sc.start_times[-1] == pytest.approx(3.0)

    def test_empty_circuit(self):
        sc = schedule(Circuit(2), NoiseModel())
        assert sc.start_times == () and sc.idle_windows == ()

    def test_virtual_rz_takes_no_time(self):
        nm = NoiseModel()
        c = Circuit(1)
        c.add("RZ", 0, params=(0.5,))
        c.add("SX", 0)
        sc = schedule(c, nm)
        assert sc.start_times == (0.0, 0.0)
        assert sc.total_time == pytest.approx(nm.dur_1q)

    @pytest.mark.parametrize("starts, durs", [
        ((), ()),  # run_noisy once returned rho0 unchanged for this
        ((0.0,), (1.0, 10.0)),  # truncated: the ECR was dropped by zip
        ((0.0, 1.0), (1.0,)),
        ((0.0, 1.0, 2.0), (1.0, 10.0, 1.0)),
    ])
    def test_one_time_per_gate(self, starts, durs):
        c = Circuit(2).add("SX", 0).add("ECR", 0, 1)
        with pytest.raises(ValueError, match="one start time and one duration"):
            ScheduledCircuit(c, starts, durs, ())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
    @pytest.mark.parametrize("field", ["start_times", "durations"])
    def test_times_are_finite_and_non_negative(self, bad, field):
        c = Circuit(2).add("SX", 0).add("ECR", 0, 1)
        sc = schedule(c, NoiseModel())
        times = list(getattr(sc, field))
        times[1] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            replace(sc, **{field: tuple(times)})

    @pytest.mark.parametrize("window", [
        (2, 0.0, 1.0), (-1, 0.0, 1.0),  # qubit outside width 2
        (0, 1.0, 1.0), (0, 2.0, 1.0),  # empty or reversed
        (0, math.nan, 1.0), (0, 0.0, math.nan), (0, 0.0, math.inf), (0, -1.0, 1.0),
    ])
    def test_idle_windows_are_sound(self, window):
        sc = schedule(Circuit(2).add("SX", 0).add("ECR", 0, 1), NoiseModel())
        with pytest.raises(ValueError, match="bad idle window"):
            replace(sc, idle_windows=(window,))


class TestInsertDd:
    def _window_circuit(self, idle_units: float) -> Circuit:
        # q1 idles for `idle_units` between its SX and the closing ECR
        c = Circuit(2)
        n = int(idle_units) + 1
        for _ in range(n):
            c.add("SX", 0)
        c.add("SX", 1)
        c.add("ECR", 0, 1)
        return c

    def test_exact_fit_window_gets_four_pulses(self):
        nm = NoiseModel()
        sc = schedule(self._window_circuit(4.0), nm)
        assert sc.idle_windows == ((1, 1.0, 5.0),)
        out = insert_dd(sc, nm)
        xs = [g for g in out.circuit.gates if g.kind == "X"]
        assert len(xs) == 4  # two bare X pulses, two inside the Y pulses
        starts = [s for g, s in zip(out.circuit.gates, out.start_times) if g.kind == "X"]
        assert starts == pytest.approx([1.0, 2.0, 3.0, 4.0])  # delta = 0

    def test_short_windows_untouched(self):
        nm = NoiseModel()
        sc = schedule(self._window_circuit(3.0), nm)
        out = insert_dd(sc, nm)
        assert len(out.circuit.gates) == len(sc.circuit.gates)

    def test_noiseless_unitary_unchanged(self, schedule_3cycle):
        nm = NoiseModel()
        native = transpile(build_walk_circuit_3cycle(schedule_3cycle, 6), OptLevel.L1)
        sc = schedule(native, nm)
        out = insert_dd(sc, nm)
        assert len(out.circuit.gates) > len(sc.circuit.gates)
        assert phase_aligned(
            lower_to_unitary(out.circuit), lower_to_unitary(sc.circuit)
        ) < 1e-9

    def test_trace_distance_not_worse_under_idle_noise(self, schedule_3cycle):
        nm = NoiseModel(p1=0.0, p2=0.0, t1=60.0, t2=40.0)
        native = transpile(build_walk_circuit_3cycle(schedule_3cycle, 10), OptLevel.L1)
        ideal = state_to_density(run_exact(native, ground_state(3)))
        sc = schedule(native, nm)
        with_dd = insert_dd(sc, nm)
        d_plain = trace_distance(run_noisy(sc, state_to_density(ground_state(3)), nm), ideal)
        d_dd = trace_distance(run_noisy(with_dd, state_to_density(ground_state(3)), nm), ideal)
        assert d_dd <= d_plain + 1e-12

    def test_fidelity_improves_when_dephasing_dominates(self, schedule_3cycle):
        # pulses displace idle time, so with dephasing-limited idle noise the
        # mean per-step distribution fidelity goes up; amplitude-damping
        # dominated idling is NOT improved (the X pulses symmetrize decay
        # toward the mixed state), matching the hardware observation that
        # XY4 sometimes buys little
        nm = NoiseModel(p1=0.0, p2=0.0, t1=1e5, t2=40.0)
        psi0 = ground_state(3)
        plain, decoupled = [], []
        for steps in range(1, 21):
            native = transpile(build_walk_circuit_3cycle(schedule_3cycle, steps), OptLevel.L1)
            exact = measure_positions(run_exact(native, psi0), (0, 1))
            sc = schedule(native, nm)
            rho = run_noisy(sc, state_to_density(psi0), nm)
            plain.append(hellinger_fidelity(readout_distribution(rho, (0, 1), nm), exact))
            rho = run_noisy(insert_dd(sc, nm), state_to_density(psi0), nm)
            decoupled.append(hellinger_fidelity(readout_distribution(rho, (0, 1), nm), exact))
        assert np.mean(decoupled) > np.mean(plain)

    def test_y_pulse_is_y_up_to_phase(self):
        from cyclewalk.transpile import _y_pulse

        y = np.array([[0, -1j], [1j, 0]])
        assert phase_aligned(product_of(_y_pulse(0)), y) < 1e-12


class TestScheduleInvariants:
    def test_no_overlap_on_shared_wires(self, schedule_3cycle):
        nm = NoiseModel()
        native = transpile(build_walk_circuit_3cycle(schedule_3cycle, 8), OptLevel.L1)
        sc = schedule(native, nm)
        spans = {}
        for gate, start, dur in zip(sc.circuit.gates, sc.start_times, sc.durations):
            if gate.kind == "BARRIER":
                continue
            for q in gate.qubits:
                spans.setdefault(q, []).append((start, start + dur))
        for intervals in spans.values():
            intervals.sort()
            for (_, end), (nxt, _) in zip(intervals, intervals[1:]):
                assert nxt >= end - 1e-12

    def test_idle_windows_match_gaps(self, schedule_3cycle):
        nm = NoiseModel()
        native = transpile(build_walk_circuit_3cycle(schedule_3cycle, 5), OptLevel.L1)
        sc = schedule(native, nm)
        for qubit, t0, t1 in sc.idle_windows:
            assert t1 > t0
            for gate, start, dur in zip(sc.circuit.gates, sc.start_times, sc.durations):
                if gate.kind != "BARRIER" and qubit in gate.qubits:
                    # no gate activity strictly inside the window
                    assert start + dur <= t0 + 1e-12 or start >= t1 - 1e-12
