import importlib
import math
from collections import Counter
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
from cyclewalk.circuit import MAX_LOWER_WIDTH, to_text, wire_runs
from cyclewalk.experiments import build_walk_circuit
from cyclewalk.synthesis import ZERO_ANGLE
from cyclewalk.gates import NATIVE_KINDS, gate_matrix, u3_matrix
from cyclewalk.noise import thermal_relaxation_kraus
from cyclewalk.simulate import BundleCache
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


def _tamper_first(monkeypatch, level, kind, change):
    """Make the pass that emits the gates of ``level`` (the per-gate
    decomposition at L0, the fusion at L1, the stacked resynthesis at L3)
    emit ``change(g)`` for its first gate of ``kind``; returns the gates
    changed.  The tampered lists are copies: emitters may share theirs."""
    transpile_module = importlib.import_module("cyclewalk.transpile")
    name = {OptLevel.L0: "_decompose_gate", OptLevel.L1: "_fuse_runs",
            OptLevel.L3: "stream_to_gates"}[level]
    emit, changed = getattr(transpile_module, name), []

    def tampered(*args, **kwargs):
        out = emit(*args, **kwargs)
        rows = [list(gates) for gates in (out if level == OptLevel.L3 else [out])]
        for gates in rows:
            k = next((i for i, g in enumerate(gates) if g.kind == kind), None)
            if k is not None and not changed:
                changed.append(gates[k])
                gates[k] = change(gates[k])
        return rows if level == OptLevel.L3 else rows[0]

    monkeypatch.setattr(transpile_module, name, tampered)
    return changed


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
        # one lowering of each source (L3 input and check reference) and one
        # run-wise check, on the gates that transpile returns: per circuit
        # alone, per bundle with a cache, at every level.  The package
        # attribute ``transpile`` is the function, so import the module by name
        transpile_module = importlib.import_module("cyclewalk.transpile")
        calls = {"lower_to_unitary": [], "_lower_runs": []}
        for name, record in calls.items():
            original = getattr(transpile_module, name)
            monkeypatch.setattr(
                transpile_module, name,
                lambda c, *rest, record=record, original=original:
                    record.append(c) or original(c, *rest),
            )

        def ids(rows):  # the objects themselves, not equal copies
            return [[id(g) for g in gates] for gates in rows]

        source = build_walk_circuit_4cycle(schedule_4cycle, 3)
        native = transpile(source, level)
        assert [c is source for c in calls["lower_to_unitary"]] == [True]
        assert [ids(rows) for rows in calls["_lower_runs"]] == [ids([native.gates])]
        for record in calls.values():
            record.clear()
        sources = [build_walk_circuit_4cycle(schedule_4cycle, t) for t in (1, 2, 3)]
        cache = BundleCache(None, 3, sources)
        natives = [transpile(c, level, cache).gates for c in sources]
        assert ids([calls["lower_to_unitary"]]) == ids([sources])
        assert [ids(rows) for rows in calls["_lower_runs"]] == [ids(natives)]
        # the check stacks rows of one skeleton: all t at L3, each row alone at L1
        firsts, plan = [], transpile_module._check_plan
        monkeypatch.setattr(transpile_module, "_check_plan", lambda gates:
                            firsts.append(gates) or plan(gates))
        transpile_module._lower_runs(natives, 3)
        assert ids([firsts]) == ids([natives[:1] if level == OptLevel.L3 else natives])

    def test_a_lone_circuit_is_lowered_without_a_trail(self, schedule_4cycle, monkeypatch):
        # a bundle of one (no cache, a cache of one, or a circuit outside the
        # cache's) keeps no intermediate arrays: creating a Trail would raise
        monkeypatch.setattr(importlib.import_module("cyclewalk.transpile"), "Trail", None)
        c = build_walk_circuit_4cycle(schedule_4cycle, 3)
        for level in OptLevel:
            for cache in (None, BundleCache(None, 3, [c]), BundleCache(None, 3)):
                assert transpile(c, level, cache).gates == transpile(c, level).gates

    def test_bundle_resynthesis_equals_each_circuit_alone(self, monkeypatch):
        # the 4-cycle bundle's 25 circuits take one stacked qsd_stream and one
        # lowering each, and every t emits the gates of its own stack of one
        transpile_module = importlib.import_module("cyclewalk.transpile")
        calls = Counter()
        for name in ("qsd_stream", "lower_to_unitary"):
            original = getattr(transpile_module, name)
            monkeypatch.setattr(transpile_module, name, lambda *args, name=name, original=original:
                                calls.update([name]) or original(*args))
        sched = parrondo_schedule("AABB", default_coins(4), 25)
        circuits = [build_walk_circuit(4, sched, t) for t in range(1, 26)]
        cache = BundleCache(NoiseModel(), 3, circuits)
        natives = [transpile(c, OptLevel.L3, cache) for c in circuits]
        assert calls == {"qsd_stream": 1, "lower_to_unitary": 25}
        for c, native in zip(circuits, natives):
            alone = transpile(c, OptLevel.L3)
            assert native.gates == alone.gates and to_text(native) == to_text(alone)
        assert calls == {"qsd_stream": 26, "lower_to_unitary": 50}

    @pytest.mark.parametrize("level", [OptLevel.L0, OptLevel.L1, OptLevel.L3])
    def test_semantic_guard_raises_on_tamper(self, monkeypatch, schedule_4cycle, level):
        # one emitted RZ shifted by 1e-6 deviates from the source
        shifted = _tamper_first(monkeypatch, level, "RZ", lambda g: Gate(
            "RZ", g.qubits, (g.params[0] + 1e-6,)))
        with pytest.raises(TranspileError, match=r"deviates .* \(residual "):
            transpile(build_walk_circuit_4cycle(schedule_4cycle, 3), level)
        assert len(shifted) == 1

    @pytest.mark.parametrize("level", [OptLevel.L0, OptLevel.L1, OptLevel.L3])
    def test_non_native_guard_raises(self, monkeypatch, schedule_4cycle, level):
        # one emitted SX as the equal UNITARY passes the check, not the kinds
        swapped = _tamper_first(monkeypatch, level, "SX", lambda g: Gate(
            "UNITARY", g.qubits, matrix=gate_matrix(g)))
        with pytest.raises(TranspileError, match=r"non-native kinds left after transpile: "
                                                 r"\['UNITARY'\]"):
            transpile(build_walk_circuit_4cycle(schedule_4cycle, 3), level)
        assert len(swapped) == 1

    def test_each_level_in_one_cache_equals_it_alone(self, schedule_4cycle):
        # one cache of a bundle of one across levels: a plan keyed without the
        # level would hand L3 rows to the later L1 call
        c = build_walk_circuit_4cycle(schedule_4cycle, 3)
        cache = BundleCache(None, 3, [c])
        for level in (OptLevel.L0, OptLevel.L1, OptLevel.L3, OptLevel.L1):
            native, alone = transpile(c, level, cache), transpile(c, level)
            assert native.gates == alone.gates and to_text(native) == to_text(alone)

    def test_l1_decomposes_each_distinct_source_gate_once(self, monkeypatch, schedule_3cycle):
        # the builder shares its gates across steps, so the 25-step walk holds
        # few distinct gates, each decomposed once; fresh copies of the gates
        # (shared by no step) give the same rows, bit for bit
        transpile_module = importlib.import_module("cyclewalk.transpile")
        decompose, calls = transpile_module._decompose_gate, Counter()

        def counted(gate):
            calls[gate] += 1
            return decompose(gate)

        monkeypatch.setattr(transpile_module, "_decompose_gate", counted)
        source = build_walk_circuit_3cycle(schedule_3cycle, 25)
        (row,), _ = transpile_module._native((source,), OptLevel.L1)
        assert set(calls.values()) == {1}
        assert len(calls) == len(set(source.gates)) < len(source.gates) / 4  # 29 of 149
        fresh = Circuit(source.width).extend(
            [Gate(g.kind, g.qubits, g.params, None if g.matrix is None else g.matrix.copy())
             for g in source.gates])
        (fresh_row,), _ = transpile_module._native((fresh,), OptLevel.L1)
        bits = lambda gates: [(g.kind, g.qubits, [p.hex() for p in g.params]) for g in gates]  # noqa: E731
        assert fresh_row == row and bits(fresh_row) == bits(row)

    def test_l1_bundle_decomposes_each_distinct_gate_of_all_t_once(
        self, monkeypatch, schedule_3cycle
    ):
        # one L1 bundle of the 3-cycle walk at t = 1 .. 25: the first call
        # decomposes each distinct source gate of the whole bundle once (29
        # of them), and its rows equal each circuit transpiled alone
        transpile_module = importlib.import_module("cyclewalk.transpile")
        decompose, calls = transpile_module._decompose_gate, Counter()
        monkeypatch.setattr(transpile_module, "_decompose_gate",
                            lambda gate: calls.update([gate]) or decompose(gate))
        circuits = [build_walk_circuit_3cycle(schedule_3cycle, t) for t in range(1, 26)]
        cache = BundleCache(None, circuits[0].width, circuits)
        natives = [transpile(c, OptLevel.L1, cache) for c in circuits]
        distinct = {g for c in circuits for g in c.gates}
        assert set(calls) == distinct and set(calls.values()) == {1} and len(distinct) == 29
        for c, native in zip(circuits, natives):
            alone = transpile(c, OptLevel.L1)
            assert native.gates == alone.gates and to_text(native) == to_text(alone)

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
        # gate inside a five-gate RZ-SX-RZ-SX-RZ run must still be caught: in
        # a bundle resynthesized in one stacked pass, at the tampered row's t
        # and there only, and in a circuit resynthesized alone
        transpile_module = importlib.import_module("cyclewalk.transpile")
        native, emit = transpile_module._native, transpile_module.stream_to_gates
        circuits = [build_walk_circuit_4cycle(schedule_4cycle, t) for t in (1, 2, 3)]
        passes = []

        def recorded(bundle, level):
            passes.append(bundle)
            return native(bundle, level)

        def tampered(stream, fixed_shape=False):
            rows = emit(stream, fixed_shape)
            if circuits[1] in passes[-1]:
                gates = rows[passes[-1].index(circuits[1])]
                joins = [g.n_qubits == 1 for g in gates]
                run = next(r for r in wire_runs([g.qubits for g in gates], joins) if len(r) == 5)
                k = run[2]
                assert gates[k].kind == "RZ"
                gates[k] = Gate("RZ", gates[k].qubits, (gates[k].params[0] + 1e-6,))
            return rows

        monkeypatch.setattr(transpile_module, "_native", recorded)
        monkeypatch.setattr(transpile_module, "stream_to_gates", tampered)
        cache = BundleCache(None, 3, circuits)
        transpile(circuits[0], OptLevel.L3, cache)
        with pytest.raises(TranspileError, match="deviates"):
            transpile(circuits[1], OptLevel.L3, cache)
        transpile(circuits[2], OptLevel.L3, cache)
        with pytest.raises(TranspileError, match="deviates"):
            transpile(circuits[1], OptLevel.L3)
        assert passes == [tuple(circuits), (circuits[1],)]

    def test_a_tampered_row_of_the_4cycle_bundle_raises_at_its_t_alone(self, monkeypatch):
        # the 25 circuits of the shipped bundle are checked in one stack in
        # the first call; a shifted RZ in row 13 raises in t = 13's call only,
        # and the message names that circuit
        transpile_module = importlib.import_module("cyclewalk.transpile")
        emit = transpile_module.stream_to_gates

        def tampered(stream, fixed_shape=False):
            rows = emit(stream, fixed_shape)
            k = next(i for i, g in enumerate(rows[12]) if g.kind == "RZ")
            rows[12][k] = Gate("RZ", rows[12][k].qubits, (rows[12][k].params[0] + 1e-6,))
            return rows

        monkeypatch.setattr(transpile_module, "stream_to_gates", tampered)
        sched = parrondo_schedule("AABB", default_coins(4), 25)
        circuits = [build_walk_circuit(4, sched, t) for t in range(1, 26)]
        cache = BundleCache(NoiseModel(), 3, circuits)
        for t, c in enumerate(circuits, 1):
            if t == 13:
                with pytest.raises(TranspileError, match="walk4cycle-t13-native3 deviates "
                                                         "from its source walk4cycle-t13 "):
                    transpile(c, OptLevel.L3, cache)
            else:
                assert transpile(c, OptLevel.L3, cache).name == f"walk4cycle-t{t}-native3"

    @pytest.mark.parametrize("level", [OptLevel.L0, OptLevel.L1])
    def test_a_tampered_l0_or_l1_row_raises_at_its_t_alone(self, monkeypatch, schedule_3cycle,
                                                           level):
        # an L0/L1 bundle is emitted and checked in the first call too: an RZ
        # shifted by 1e-6 in the decomposition of a gate that only t = 3 holds
        # (its first B coin) raises in t = 3's call only
        transpile_module = importlib.import_module("cyclewalk.transpile")
        decompose = transpile_module._decompose_gate
        circuits = [build_walk_circuit_3cycle(schedule_3cycle, t) for t in (1, 2, 3)]
        only_last = set(circuits[2].gates) - set(circuits[1].gates)
        shifted = []

        def tampered(gate):
            out = decompose(gate)
            k = next((i for i, g in enumerate(out) if g.kind == "RZ"), None)
            if gate in only_last and k is not None and not shifted:
                shifted.append(gate)
                out = [*out[:k], Gate("RZ", out[k].qubits, (out[k].params[0] + 1e-6,)),
                       *out[k + 1:]]
            return out

        monkeypatch.setattr(transpile_module, "_decompose_gate", tampered)
        cache = BundleCache(None, 3, circuits)
        for c in circuits[:2]:
            transpile(c, level, cache)
        with pytest.raises(TranspileError, match=f"walk3cycle-t3-native{int(level)} deviates"):
            transpile(circuits[2], level, cache)
        assert len(shifted) == 1

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
            ScheduledCircuit(c, starts, durs)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-9])
    @pytest.mark.parametrize("field", ["start_times", "durations"])
    def test_times_are_finite_and_non_negative(self, bad, field):
        c = Circuit(2).add("SX", 0).add("ECR", 0, 1)
        sc = schedule(c, NoiseModel())
        times = list(getattr(sc, field))
        times[1] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            replace(sc, **{field: tuple(times)})

    def test_start_times_keep_wire_order(self):
        # were it accepted, run_noisy would apply RZ before SX: another unitary
        c = Circuit(1).add("SX", 0).add("RZ", 0, params=(0.3,))
        with pytest.raises(ValueError, match=r"gate 1 \(RZ\) starts at 0.0, before an earlier "
                                             r"gate on qubit 0"):
            ScheduledCircuit(c, (1.0, 0.0), (1.0, 0.0))
        c = Circuit(2).add("SX", 0).add("SX", 1).add("ECR", 1, 0)
        with pytest.raises(ValueError, match=r"gate 2 \(ECR\) .* qubit 1 at 2.0"):
            ScheduledCircuit(c, (0.0, 2.0, 1.0), (1.0, 1.0, 1.0))
        ScheduledCircuit(c, (0.0, 1.0, 1.0), (1.0, 0.0, 1.0))  # equal starts are in order

    def test_gates_do_not_overlap_on_a_wire(self):
        c = Circuit(1).add("SX", 0).add("SX", 0)
        with pytest.raises(ValueError, match=r"gate 1 \(SX\) starts at 0.5, before an earlier "
                                             r"gate on qubit 0 ends at 1.0"):
            ScheduledCircuit(c, (0.0, 0.5), (1.0, 1.0))
        c = Circuit(2).add("SX", 1).add("ECR", 0, 1)
        with pytest.raises(ValueError, match=r"gate 1 \(ECR\) .* qubit 1 ends at 1.0"):
            ScheduledCircuit(c, (0.0, 1.0 - 1e-9), (1.0, 1.0))
        ScheduledCircuit(c, (0.0, 1.0 - 1e-13), (1.0, 1.0))  # within 1e-12
        # past t = 1 the tolerance is relative: 1e-8 at t = 1e4, where a float is 1.8e-12 apart
        late = Circuit(1).add("SX", 0).add("SX", 0)
        ScheduledCircuit(late, (0.0, 1e4 - 5e-9), (1e4, 1.0))
        assert ScheduledCircuit(late, (0.0, 1e4 + 5e-9), (1e4, 1.0)).idle_windows == ()
        with pytest.raises(ValueError, match=r"gate 1 \(SX\) .* qubit 0 ends at 10000.0"):
            ScheduledCircuit(late, (0.0, 1e4 - 2e-8), (1e4, 1.0))
        # a zero-duration gate occupies no time: only the start order binds it
        c = Circuit(1).add("SX", 0).add("RZ", 0, params=(0.3,)).add("SX", 0)
        ScheduledCircuit(c, (0.0, 0.5, 1.0), (1.0, 0.0, 1.0))

    def test_idle_windows_are_ordered_by_wire_then_time(self):
        # wire 1 has the first gate and the earlier windows; wire 0 still leads
        c = Circuit(2).add("SX", 1).add("SX", 1).add("SX", 1).add("SX", 0).add("SX", 0)
        sc = ScheduledCircuit(c, (0.0, 2.0, 4.0, 3.0, 6.0), (1.0,) * 5)
        assert sc.idle_windows == ((0, 4.0, 6.0), (1, 1.0, 2.0), (1, 3.0, 4.0))

    def test_idle_windows_follow_the_times(self):
        # moving the ECR later opens a window on both wires; windows are not an input
        sc = schedule(Circuit(2).add("SX", 0).add("SX", 1).add("ECR", 0, 1), NoiseModel())
        assert sc.idle_windows == ()
        moved = replace(sc, start_times=(0.0, 0.0, 3.0))
        assert moved.idle_windows == ((0, 1.0, 3.0), (1, 1.0, 3.0))
        with pytest.raises(ValueError, match="init=False"):
            replace(sc, idle_windows=((0, 1.0, 3.0),))

    def _rz_inside_span(self, second: float) -> ScheduledCircuit:
        # the RZ starts at 5, inside the first SX's busy time (0, 10)
        c = Circuit(1).add("SX", 0).add("RZ", 0, params=(0.3,)).add("SX", 0)
        return ScheduledCircuit(c, (0.0, 5.0, second), (10.0, 0.0, 1.0))

    def test_a_zero_duration_gate_inside_a_span_opens_no_window(self):
        assert self._rz_inside_span(12.0).idle_windows == ((0, 10.0, 12.0),)

    def test_relaxation_spans_only_the_idle_time(self):
        # no depolarizing, so rho is SX, RZ, 2 units of relaxation, SX
        nm = NoiseModel(p1=0.0)
        sc = self._rz_inside_span(12.0)
        rho = np.diag([1.0, 0.0]).astype(complex)
        for g in sc.circuit.gates[:2]:
            u = gate_matrix(g)
            rho = u @ rho @ u.conj().T
        rho = sum(k @ rho @ k.conj().T for k in thermal_relaxation_kraus(nm.t1, nm.t2, 2.0))
        u = gate_matrix(sc.circuit.gates[2])
        rho = u @ rho @ u.conj().T
        out = run_noisy(sc, np.diag([1.0, 0.0]).astype(complex), nm)
        assert np.abs(out - rho).max() <= 1e-12

    @pytest.mark.parametrize("second, pulses", [(12.0, 0), (20.0, 4)])
    def test_pulses_fill_only_the_idle_time(self, second, pulses):
        nm = NoiseModel()
        out = insert_dd(self._rz_inside_span(second), nm)
        assert isinstance(out, ScheduledCircuit)
        xs = [s for g, s in zip(out.circuit.gates, out.start_times) if g.kind == "X"]
        assert len(xs) == pulses and all(10.0 <= s <= second - nm.dur_1q for s in xs)

    def test_a_barrier_takes_no_time(self):
        c = Circuit(2).add("SX", 0).add("SX", 1).add("BARRIER", 0, 1).add("SX", 0)
        with pytest.raises(ValueError, match=r"gate 2 \(BARRIER\) has duration 5.0"):
            ScheduledCircuit(c, (0.0, 0.0, 1.0, 6.0), (1.0, 1.0, 5.0, 1.0))
        sc = ScheduledCircuit(c, (0.0, 0.0, 1.0, 6.0), (1.0, 1.0, 0.0, 1.0))
        assert sc.idle_windows == ((0, 1.0, 6.0),)


_SLACK = 1e-12


@st.composite
def valid_schedules(draw):
    """A ScheduledCircuit on 1-3 wires whose times are valid by construction:
    SX/X of dur_1q, RZ of duration 0 (some starting inside an earlier span),
    ECR of dur_2q and zero-duration barriers, each after a random delay."""
    nm = NoiseModel()
    width = draw(st.integers(1, 3))
    last = [0.0] * width  # latest start per wire
    free = [0.0] * width  # busy end per wire
    c, starts, durs = Circuit(width), [], []
    delays = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 4.0]), st.floats(0.0, 8.0))
    for _ in range(draw(st.integers(0, 14))):
        kind = draw(st.sampled_from(["SX", "X", "RZ", "RZ", "ECR", "BARRIER"]))
        if kind == "ECR" and width < 2:
            kind = "SX"
        if kind == "ECR":
            qubits = tuple(draw(st.permutations(range(width)))[:2])
        elif kind == "BARRIER":
            qubits = tuple(sorted(draw(st.sets(st.integers(0, width - 1), min_size=1))))
        else:
            qubits = (draw(st.integers(0, width - 1)),)
        earliest = max(last[q] for q in qubits)
        if kind == "RZ" and draw(st.booleans()):
            # somewhere between the wire's latest start and its busy end
            start = earliest + draw(st.floats(0.0, 1.0)) * max(0.0, free[qubits[0]] - earliest)
        elif kind in ("RZ", "BARRIER"):
            start = earliest + draw(delays)
        else:
            start = max(earliest, *[free[q] for q in qubits]) + draw(delays)
        dur = {"SX": nm.dur_1q, "X": nm.dur_1q, "ECR": nm.dur_2q}.get(kind, 0.0)
        c.add(kind, *qubits, params=(draw(st.floats(-4.0, 4.0)),) if kind == "RZ" else ())
        starts.append(start)
        durs.append(dur)
        for q in qubits:
            last[q] = start
            if kind != "BARRIER":
                free[q] = max(free[q], start + dur)
    return ScheduledCircuit(c, tuple(starts), tuple(durs))


def interval_gaps(sc):
    """Per wire, merge the [start, start + dur] intervals of the non-barrier
    gates (touching within the slack) and list the gaps between them."""
    spans = {}
    for gate, start, dur in zip(sc.circuit.gates, sc.start_times, sc.durations):
        if gate.kind != "BARRIER":
            for q in gate.qubits:
                spans.setdefault(q, []).append((start, start + dur))
    gaps = []
    for q in sorted(spans):
        merged = []
        for a, b in sorted(spans[q]):
            if merged and a - merged[-1][1] <= _SLACK * max(1.0, a):
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        gaps += [(q, x[1], y[0]) for x, y in zip(merged, merged[1:])]
    return tuple(gaps)


@settings(max_examples=300, deadline=None)
@given(valid_schedules())
def test_idle_windows_are_the_gaps_in_busy_time(sc):
    assert sc.idle_windows == interval_gaps(sc)
    nm = NoiseModel()
    out = insert_dd(sc, nm)
    assert isinstance(out, ScheduledCircuit)
    # the pulses are what insert_dd added: the output's entries less the input's
    entries = Counter(zip(out.circuit.gates, out.start_times, out.durations))
    entries.subtract(Counter(zip(sc.circuit.gates, sc.start_times, sc.durations)))
    assert min(entries.values(), default=0) >= 0
    for gate, start, dur in +entries:
        slack = _SLACK * max(1.0, start + dur)
        assert any(w == gate.qubits[0] and t0 - slack <= start and start + dur <= t1 + slack
                   for w, t0, t1 in sc.idle_windows)



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

    @pytest.mark.parametrize("t0, d, shortfall", [(1.0, 1.0, 0.0), (1.0, 1.0, 1e-13),
                                                  (1e4, 0.35, 0.0), (1e5, 0.35, 0.0)])
    def test_exact_fit_pulses_are_a_valid_schedule(self, t0, d, shortfall):
        # a window 1e-13 short of 4 * dur_1q still takes the train, whose
        # gaps of -2.5e-14 overlap the pulses within the schedule's tolerance;
        # past t = 1e4 the summed times of a non-dyadic dur_1q round by 1e-12
        # or more: a fixed 1e-12 bound rejected the train's last pulse (1e4)
        # or measured the window as too short for it (1e5)
        nm = NoiseModel(dur_1q=d)
        c = Circuit(1).add("SX", 0).add("SX", 0)
        out = insert_dd(ScheduledCircuit(c, (0.0, t0 + 4.0 * d - shortfall), (t0, d)), nm)
        assert [g.kind for g in out.circuit.gates].count("X") == 4
        assert out.circuit.gates[-1] == Gate("SX", (0,))

    def test_pulses_at_equal_times_follow_the_window_order(self):
        # both wires idle over (1, 5); wire 1's gates come first in the
        # circuit, yet at each pulse time wire 0's pulse is ordered first
        nm = NoiseModel()
        d = nm.dur_1q
        c = Circuit(2).add("SX", 1).add("SX", 0).add("SX", 1).add("SX", 0)
        out = insert_dd(ScheduledCircuit(c, (0.0, 0.0, 5.0 * d, 5.0 * d), (d,) * 4), nm)
        y0, y1 = [("RZ", 0), ("X", 0), ("RZ", 0)], [("RZ", 1), ("X", 1), ("RZ", 1)]
        pulses = 2 * (y0 + y1 + [("X", 0), ("X", 1)])
        expected = [("SX", 1), ("SX", 0), *pulses, ("SX", 1), ("SX", 0)]
        assert [(g.kind, *g.qubits) for g in out.circuit.gates] == expected

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
