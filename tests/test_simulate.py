import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import unitary_group

from conftest import ground_state

from cyclewalk import (
    Circuit,
    Distribution,
    Gate,
    NoiseModel,
    OptLevel,
    build_walk_circuit_4cycle,
    config_from_text,
    hellinger_fidelity,
    insert_dd,
    lower_to_unitary,
    measure_positions,
    readout_distribution,
    run_exact,
    run_noisy,
    schedule,
    state_to_density,
    transpile,
    validate_density,
)
from cyclewalk.circuit import Trail, _row_orders, apply_matrix, wire_runs
from cyclewalk.experiments import build_walk_circuit
from cyclewalk.gates import gate_matrix
from cyclewalk.noise import depolarizing_kraus, thermal_relaxation_kraus
from cyclewalk import simulate
from cyclewalk.simulate import (BundleCache, _apply_kraus, _check_density, _liouville,
                                _noisy_events)
from cyclewalk.synthesis import _emit_matrix
from cyclewalk.transpile import (ScheduledCircuit, _check_plan, _fuse_runs, _lower_runs,
                                 run_products)

ROOT = Path(__file__).resolve().parents[1]


def kron_embed(m, qubits, width):
    """Full-width operator of ``m`` on ``qubits`` built from np.kron products.

    One qubit: I (x) m (x) I.  Two qubits: m = sum_rt |r><t| (x) B_rt with
    B_rt the 2x2 blocks of m, each factor embedded on its own qubit.
    """
    def one(a, q):
        return np.kron(np.kron(np.eye(1 << (width - 1 - q)), a), np.eye(1 << q))

    if len(qubits) == 1:
        return one(m, qubits[0])
    hi, lo = qubits
    out = np.zeros((1 << width, 1 << width), dtype=complex)
    for r in range(2):
        for t in range(2):
            e = np.zeros((2, 2))
            e[r, t] = 1.0
            out += one(e, hi) @ one(m[2 * r:2 * r + 2, 2 * t:2 * t + 2], lo)
    return out


def reference_noisy(sc, rho, nm):
    """Kraus-by-Kraus density evolution with kron-embedded operators."""
    width = sc.circuit.width
    events = [(t, i, g) for i, (g, t) in enumerate(zip(sc.circuit.gates, sc.start_times))]
    events += [
        (t0, len(events) + i, (q, t1 - t0))
        for i, (q, t0, t1) in enumerate(sc.idle_windows)
        if t1 - t0 >= nm.dur_idle_unit - 1e-12
    ]
    for _, _, what in sorted(events, key=lambda e: e[:2]):
        if isinstance(what, tuple):
            qubits = (what[0],)
            kraus = thermal_relaxation_kraus(nm.t1, nm.t2, what[1])
        else:
            qubits = what.qubits
            u = kron_embed(gate_matrix(what), qubits, width)
            rho = u @ rho @ u.conj().T
            kraus = depolarizing_kraus(nm.p1 if len(qubits) == 1 else nm.p2, len(qubits))
        ops = [kron_embed(k, qubits, width) for k in kraus]
        rho = sum(e @ rho @ e.conj().T for e in ops)
    return rho


def apply_channel(kraus, rho):
    return sum(k @ rho @ k.conj().T for k in kraus)


def random_density(n_qubits, rng):
    """A full-rank mixed state: a random spectrum in a random eigenbasis."""
    u = unitary_group.rvs(2**n_qubits, random_state=rng)
    spectrum = rng.random(2**n_qubits)
    return (u * (spectrum / spectrum.sum())) @ u.conj().T


def random_native_circuit(width, n_gates, rng):
    c = Circuit(width)
    for _ in range(n_gates):
        if width >= 2 and rng.random() < 0.3:
            c.add("ECR", *(int(x) for x in rng.choice(width, 2, replace=False)))
        else:
            q = int(rng.integers(width))
            kind = str(rng.choice(["RZ", "SX", "X"]))
            params = (float(rng.uniform(-3, 3)),) if kind == "RZ" else ()
            c.add(kind, q, params=params)
    return c


def random_circuit(width, n_gates, rng):
    c = Circuit(width)
    for _ in range(n_gates):
        if rng.random() < 0.3 and width >= 2:
            pair = tuple(int(x) for x in rng.choice(width, 2, replace=False))
            if rng.random() < 0.5:
                c.add("CP", *pair, params=(float(rng.uniform(-3, 3)),))
            else:
                c.add("ECR", *pair)
        else:
            q = int(rng.integers(width))
            kind = str(rng.choice(["H", "X", "SX", "RZ", "PHASE", "U3", "UNITARY"]))
            if kind in ("RZ", "PHASE"):
                c.add(kind, q, params=(float(rng.uniform(-3, 3)),))
            elif kind == "U3":
                c.add(kind, q, params=tuple(float(x) for x in rng.uniform(-3, 3, 3)))
            elif kind == "UNITARY":
                c.add(kind, q, matrix=unitary_group.rvs(2, random_state=rng))
            else:
                c.add(kind, q)
    return c


class TestApplyMatrix:
    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_kron_embedding_for_every_qubit_order(self, width):
        rng = np.random.default_rng(100 + width)
        targets = [(q,) for q in range(width)]
        targets += [(a, b) for a in range(width) for b in range(width) if a != b]
        dim = 1 << width
        for qubits in targets:
            k = 1 << len(qubits)
            m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            full = kron_embed(m, qubits, width)
            for rows in (rng.normal(size=dim) + 0j, rng.normal(size=(dim, dim)) + 0j):
                got = apply_matrix(rows, m, qubits, width)
                assert got.shape == rows.shape
                assert np.abs(got - full @ rows).max() <= 1e-12


def transpose_reference(rows, m, qubits, width):
    """The axis-transpose form of apply_matrix: the target axes moved first
    on a (2,) * width + (-1,) view, np.dot, and the axes moved back."""
    axes = [width - 1 - q for q in qubits]
    order = axes + [ax for ax in range(width + 1) if ax not in axes]
    moved = rows.reshape((2,) * width + (-1,)).transpose(order)
    out = np.dot(m, moved.reshape(1 << len(qubits), -1)).reshape(moved.shape)
    return out.transpose(np.argsort(order)).reshape(rows.shape)


@pytest.mark.parametrize("width", range(1, 9))
def test_row_permutation_kernel_equals_the_transpose_form(width):
    # every 1- and 2-qubit target order, on a vector, a square and (at even
    # widths) a density matrix over the doubled register: equal bit for bit
    rng = np.random.default_rng(200 + width)
    dim = 1 << width
    targets = [(q,) for q in range(width)]
    targets += [(a, b) for a in range(width) for b in range(width) if a != b]
    arrays = [rng.normal(size=dim) + 1j * rng.normal(size=dim),
              rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))]
    if width % 2 == 0:
        half = 1 << (width // 2)
        arrays.append(rng.normal(size=(half, half)) + 1j * rng.normal(size=(half, half)))
    for qubits in targets:
        k = 1 << len(qubits)
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        for rows in arrays:
            got = apply_matrix(rows, m, qubits, width)
            assert got.shape == rows.shape
            assert np.array_equal(got, transpose_reference(rows, m, qubits, width))
        # the cached row orders are 2**width long, whatever the trailing axis
        gather, scatter = _row_orders(qubits, width)
        assert len(gather) == len(scatter) == dim
        assert np.array_equal(gather[scatter], np.arange(dim))


class TestRunExact:
    def test_empty_circuit(self):
        psi = ground_state(3)
        assert np.array_equal(run_exact(Circuit(3), psi), psi)

    def test_matches_dense_lowering(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            w = int(rng.integers(1, 5))
            c = random_circuit(w, int(rng.integers(1, 12)), rng)
            psi0 = unitary_group.rvs(2**w, random_state=rng)[:, 0]
            assert np.linalg.norm(run_exact(c, psi0) - lower_to_unitary(c) @ psi0) < 1e-10

    def test_norm_preserved(self):
        rng = np.random.default_rng(43)
        c = random_circuit(3, 30, rng)
        assert np.linalg.norm(run_exact(c, ground_state(3))) == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            run_exact(Circuit(3), np.zeros(4, dtype=complex))

    def test_nan_state_rejected(self):
        with pytest.raises(ArithmeticError, match="norm"):
            run_exact(Circuit(1), np.array([math.nan, 0.0], dtype=complex))

    def test_parrondo_return(self, schedule_4cycle):
        c = build_walk_circuit_4cycle(schedule_4cycle, 20)
        state = run_exact(c, ground_state(3))
        dist = measure_positions(state, (0, 1))
        assert dist.outcomes[0] == pytest.approx(1.0, abs=1e-6)


class TestMeasurePositions:
    def test_deterministic_state(self):
        d = measure_positions(ground_state(3), (0, 1), shots=500, seed=3)
        assert d.outcomes == {0: 500, 1: 0, 2: 0, 3: 0}
        assert d.shots == 500

    def test_exact_mode(self, schedule_4cycle):
        c = build_walk_circuit_4cycle(schedule_4cycle, 20)
        d = measure_positions(run_exact(c, ground_state(3)), (0, 1))
        assert d.shots is None
        assert d.outcomes[0] == pytest.approx(1.0, abs=1e-6)
        assert sum(d.outcomes.values()) == pytest.approx(1.0, abs=1e-9)

    def test_uniform_within_binomial_bounds(self):
        psi = np.zeros(8, dtype=complex)
        psi[0] = psi[1] = 1 / math.sqrt(2)
        d = measure_positions(psi, (0, 1), shots=100_000, seed=9)
        # 5 sigma around 50000 with sigma = sqrt(n p (1-p)) ~ 158
        assert abs(d.outcomes[0] - 50_000) < 5 * 158
        assert abs(d.outcomes[1] - 50_000) < 5 * 158
        assert d.outcomes[2] == 0 and d.outcomes[3] == 0

    def test_same_seed_same_counts(self):
        psi = np.ones(4, dtype=complex) / 2
        a = measure_positions(psi, (0, 1), shots=5000, seed=77)
        b = measure_positions(psi, (0, 1), shots=5000, seed=77)
        assert a == b

    def test_size_not_power_of_two(self):
        with pytest.raises(ValueError, match="6 basis probabilities: size is not a power of two"):
            measure_positions(np.ones(6, dtype=complex) / math.sqrt(6), (0,))

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError, match="measured qubit"):
            measure_positions(ground_state(2), (0, 2))

    def test_repeated_qubit(self):
        with pytest.raises(ValueError, match="measured qubit 1 repeated"):
            measure_positions(ground_state(2), (1, 1))

    def test_bit_order_convention(self):
        # outcome bit i comes from measured_qubits[i]
        psi = np.zeros(4, dtype=complex)
        psi[2] = 1.0  # q1 = 1, q0 = 0
        assert measure_positions(psi, (0, 1)).outcomes[2] == pytest.approx(1.0)
        assert measure_positions(psi, (1, 0)).outcomes[1] == pytest.approx(1.0)


class TestChannels:
    def test_depolarizing_cptp(self):
        for p, k in ((0.3, 1), (1.0, 1), (0.8, 2)):
            ks = depolarizing_kraus(p, k)
            acc = sum(m.conj().T @ m for m in ks)
            assert np.allclose(acc, np.eye(2**k), atol=1e-12)

    def test_thermal_cptp(self):
        for tau in (0.1, 1.0, 25.0):
            ks = thermal_relaxation_kraus(300.0, 200.0, tau)
            acc = sum(m.conj().T @ m for m in ks)
            assert np.allclose(acc, np.eye(2), atol=1e-12)

    def test_thermal_coherence_decay_rate(self):
        # off-diagonals must decay by exactly exp(-tau/t2)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        tau, t2 = 7.0, 50.0
        ks = thermal_relaxation_kraus(80.0, t2, tau)
        out = sum(k @ rho @ k.conj().T for k in ks)
        assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-tau / t2), abs=1e-12)

    def test_t2_bound_enforced(self):
        with pytest.raises(ValueError, match="t2"):
            NoiseModel(t1=100.0, t2=250.0)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"t1": math.nan, "t2": math.nan}, "relaxation times"),
            ({"t2": math.nan}, "relaxation times"),
            ({"dur_1q": math.nan}, "dur_1q"),
            ({"dur_2q": math.inf}, "dur_2q"),
            ({"dur_idle_unit": math.nan}, "dur_idle_unit"),
            ({"p1": math.nan}, "p1"),
        ],
    )
    def test_non_finite_values_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**kwargs)

    def test_infinite_relaxation_times_accepted(self):
        assert NoiseModel(t1=math.inf, t2=math.inf).t1 == math.inf

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("p", [0.01, 0.37, 1.0])
    def test_depolarizing_commutes_with_every_unitary(self, n_qubits, p):
        # D_p(U rho U^dagger) = U D_p(rho) U^dagger: a run of one-qubit gates
        # can take one channel after its product
        rng = np.random.default_rng(500 + n_qubits)
        kraus = depolarizing_kraus(p, n_qubits)
        for _ in range(5):
            u = unitary_group.rvs(2**n_qubits, random_state=rng)
            rho = random_density(n_qubits, rng)
            lhs = apply_channel(kraus, u @ rho @ u.conj().T)
            rhs = u @ apply_channel(kraus, rho) @ u.conj().T
            assert np.abs(lhs - rhs).max() <= 1e-14

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("pa, pb", [(2e-4, 2e-4), (0.01, 0.3), (0.5, 1.0), (0.0, 0.2)])
    def test_depolarizing_channels_compose(self, n_qubits, pa, pb):
        # D_pb after D_pa is D_p with 1 - p = (1 - pa)(1 - pb)
        rng = np.random.default_rng(600 + n_qubits)
        rho = random_density(n_qubits, rng)
        twice = apply_channel(
            depolarizing_kraus(pb, n_qubits), apply_channel(depolarizing_kraus(pa, n_qubits), rho)
        )
        once = apply_channel(depolarizing_kraus(1.0 - (1.0 - pa) * (1.0 - pb), n_qubits), rho)
        assert np.abs(twice - once).max() <= 1e-14

    @pytest.mark.parametrize("t", [1, 25])
    def test_run_noisy_matches_reference_on_the_4cycle_bundle(self, t):
        # the transpiled, scheduled circuits of the shipped L3 bundle
        cfg = config_from_text((ROOT / "demos" / "configs" / "parrondo_4cycle.cfg").read_text())
        circuit = build_walk_circuit(cfg.cycle, cfg.schedule(), t)
        sc = schedule(transpile(circuit, cfg.opt_level), cfg.noise)
        rho0 = state_to_density(ground_state(circuit.width))
        want = reference_noisy(sc, rho0, cfg.noise)
        assert np.abs(run_noisy(sc, rho0, cfg.noise) - want).max() <= 1e-12


class TestRunNoisy:
    def test_zero_noise_matches_projector(self, schedule_4cycle):
        c = build_walk_circuit_4cycle(schedule_4cycle, 5)
        nm = NoiseModel.noiseless()
        rho = run_noisy(c, state_to_density(ground_state(3)), nm)
        pure = state_to_density(run_exact(c, ground_state(3)))
        assert np.linalg.norm(rho - pure) < 1e-9

    def test_full_depolarization_gives_maximally_mixed(self):
        c = Circuit(1)
        c.add("H", 0)
        nm = NoiseModel(p1=1.0, p2=0.0, t1=math.inf, t2=math.inf)
        rho = run_noisy(c, np.array([[1, 0], [0, 0]], dtype=complex), nm)
        assert np.allclose(rho, np.eye(2) / 2, atol=1e-12)

    def test_trace_and_positivity_preserved(self):
        rng = np.random.default_rng(47)
        nm = NoiseModel(p1=0.01, p2=0.05, t1=50.0, t2=30.0)
        for _ in range(10):
            c = random_circuit(3, 15, rng)
            rho = run_noisy(c, state_to_density(ground_state(3)), nm)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_noise_reduces_return_probability(self, schedule_4cycle):
        c = build_walk_circuit_4cycle(schedule_4cycle, 20)
        nm = NoiseModel(p1=1e-3, p2=1e-3, t1=math.inf, t2=math.inf)
        rho = run_noisy(c, state_to_density(ground_state(3)), nm)
        noisy = readout_distribution(rho, (0, 1), nm)
        exact = measure_positions(run_exact(c, ground_state(3)), (0, 1))
        assert noisy.outcomes[0] < exact.outcomes[0]

    def test_width_cap(self):
        with pytest.raises(ValueError, match="width"):
            run_noisy(Circuit(5), np.eye(32, dtype=complex) / 32, NoiseModel())

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_matches_kron_kraus_reference(self, width):
        # gate, depolarizing and idle-relaxation channels with XY4 pulses in
        # the idle windows, against the Kraus-by-Kraus reference
        rng = np.random.default_rng(200 + width)
        nm = NoiseModel(p1=0.01, p2=0.05, t1=50.0, t2=30.0)
        for _ in range(3):
            c = random_native_circuit(width, 12, rng)
            sc = insert_dd(schedule(c, nm), nm)
            psi = unitary_group.rvs(1 << width, random_state=rng)[:, 0]
            rho0 = state_to_density(psi)
            want = reference_noisy(sc, rho0, nm)
            assert np.abs(run_noisy(sc, rho0, nm) - want).max() <= 1e-12

    def test_noiseless_gates_fold_the_unitary_alone(self):
        # identity channels: each run's product U is its own one-operator stack
        width = 4
        rng = np.random.default_rng(300 + width)
        nm = NoiseModel.noiseless()
        c = random_native_circuit(width, 20, rng)
        sc = schedule(c, nm)
        rho0 = state_to_density(unitary_group.rvs(1 << width, random_state=rng)[:, 0])
        assert np.abs(run_noisy(sc, rho0, nm) - reference_noisy(sc, rho0, nm)).max() <= 1e-12

    def test_unitary_payloads_fold_apart(self):
        # UNITARY gates on one qubit share a hash; the fold cache tells them
        # apart by payload
        rng = np.random.default_rng(17)
        a, b = (unitary_group.rvs(2, random_state=rng) for _ in range(2))
        c = Circuit(2)
        for m in (a, b, a, b):
            c.add("UNITARY", 0, matrix=m)
            c.add("ECR", 1, 0)
        nm = NoiseModel(p1=0.01, p2=0.05, t1=50.0, t2=30.0)
        sc = schedule(c, nm)
        rho0 = state_to_density(ground_state(2))
        assert np.abs(run_noisy(sc, rho0, nm) - reference_noisy(sc, rho0, nm)).max() <= 1e-12

    def test_noisy_fidelity_below_one_and_decreasing(self, schedule_4cycle):
        # fixed noise on linearly deepening circuits: fidelity to exact sits
        # below 1 and trends down (negative Mann-Kendall statistic)
        nm = NoiseModel()
        psi0 = ground_state(3)
        fids = []
        for steps in range(1, 26):
            native = transpile(build_walk_circuit_4cycle(schedule_4cycle, steps), OptLevel.L1)
            exact = measure_positions(run_exact(native, psi0), (0, 1))
            rho = run_noisy(native, state_to_density(psi0), nm)
            fids.append(hellinger_fidelity(readout_distribution(rho, (0, 1), nm), exact))
        assert all(f < 1.0 for f in fids)
        mann_kendall = sum(
            np.sign(fids[j] - fids[i])
            for i in range(len(fids))
            for j in range(i + 1, len(fids))
        )
        assert mann_kendall < 0


class TestReadout:
    def test_identity_confusion_is_diagonal_marginal(self):
        rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
        d = readout_distribution(rho, (0, 1), NoiseModel.noiseless())
        assert d.outcomes == pytest.approx({0: 0.5, 1: 0.25, 2: 0.25, 3: 0.0})

    def test_half_flip_scrambles_uniform(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        nm = NoiseModel(readout_flip=0.5, t1=math.inf, t2=math.inf, p1=0, p2=0)
        d = readout_distribution(rho, (0, 1), nm)
        assert all(v == pytest.approx(0.25) for v in d.outcomes.values())

    def test_size_not_power_of_two(self):
        with pytest.raises(ValueError, match="6 basis probabilities: size is not a power of two"):
            readout_distribution(np.eye(6, dtype=complex) / 6, (0,), NoiseModel())

    def test_repeated_qubit(self):
        with pytest.raises(ValueError, match="measured qubit 0 repeated"):
            readout_distribution(np.eye(4, dtype=complex) / 4, (0, 1, 0), NoiseModel())

    def test_one_percent_flip_products(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        nm = NoiseModel(readout_flip=0.01, t1=math.inf, t2=math.inf, p1=0, p2=0)
        d = readout_distribution(rho, (0, 1), nm)
        assert d.outcomes[0] == pytest.approx(0.9801, abs=1e-12)
        assert d.outcomes[1] == pytest.approx(0.0099, abs=1e-12)
        assert d.outcomes[2] == pytest.approx(0.0099, abs=1e-12)
        assert d.outcomes[3] == pytest.approx(0.0001, abs=1e-12)


class TestDistribution:
    def test_zero_shot_normalization_error(self):
        with pytest.raises(ValueError, match="zero shots"):
            Distribution({0: 0}, shots=0).probabilities()


class TestValidateDensity:
    def test_accepts_valid(self):
        from cyclewalk import validate_density

        validate_density(np.diag([0.5, 0.5]).astype(complex))

    def test_rejects_bad_trace(self):
        from cyclewalk import validate_density

        with pytest.raises(ValueError, match="trace"):
            validate_density(np.diag([0.5, 0.9]).astype(complex))

    def test_rejects_non_hermitian(self):
        from cyclewalk import validate_density

        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        from cyclewalk import validate_density

        with pytest.raises(ValueError, match="negative"):
            validate_density(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="trace"):
            validate_density(np.full((2, 2), math.nan, dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            validate_density(np.array([[0.5, math.nan], [0.0, 0.5]], dtype=complex))

    def test_density_check_rejects_nan(self):
        with pytest.raises(ArithmeticError, match="trace"):
            _check_density(np.full((1, 2, 2), math.nan, dtype=complex), ["c"])

    def test_density_check_names_the_first_drifting_row(self):
        # one check covers a stack of t, so it names the circuit of the row
        stack = np.array([np.eye(2) / 2, np.eye(2), np.full((2, 2), math.nan)], dtype=complex)
        names = ["walk4cycle-t4-native3", "walk4cycle-t5-native3", "walk4cycle-t6-native3"]
        _check_density(stack[:1], names)
        with pytest.raises(ArithmeticError, match="drifted to 2.0 .* walk4cycle-t5-native3$"):
            _check_density(stack, names)

    def test_run_noisy_validates_input(self):
        c = Circuit(1)
        c.add("X", 0)
        with pytest.raises(ValueError, match="Hermitian|trace|negative"):
            run_noisy(c, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), NoiseModel())


@pytest.mark.parametrize("n_ops", [1, 4, 16])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_apply_kraus_matches_operator_sum(n_ops, width):
    # a mixed-unitary channel, so every entry stays of order 1, of one or two
    # qubits on random qubits in random order, applied as its local
    # superoperator sum_k K (x) conj(K) on the doubled register
    rng = np.random.default_rng(10 * width + n_ops)
    n_qubits = min(width, 1 + (width + n_ops) % 2)
    qubits = tuple(int(q) for q in rng.permutation(width)[:n_qubits])
    stack = [unitary_group.rvs(1 << n_qubits, random_state=rng) / math.sqrt(n_ops)
             for _ in range(n_ops)]
    rho = random_density(width, rng)
    want = sum(e @ rho @ e.conj().T for e in (kron_embed(k, qubits, width) for k in stack))
    op = sum(_liouville(np.array(stack)))
    assert np.abs(_apply_kraus(rho, op, qubits) - want).max() <= 1e-14


@st.composite
def native_circuits(draw):
    """Widths 1-4; ECR gates between runs of 1 to 8 one-qubit gates on a wire."""
    width = draw(st.integers(1, 4))
    c = Circuit(width)
    for _ in range(draw(st.integers(0, 8))):
        if width >= 2 and draw(st.booleans()):
            c.add("ECR", *draw(st.permutations(range(width)))[:2])
            continue
        q = draw(st.integers(0, width - 1))
        for _ in range(draw(st.integers(1, 8))):
            kind = draw(st.sampled_from(["RZ", "SX", "X"]))
            params = (draw(st.floats(-math.pi, math.pi)),) if kind == "RZ" else ()
            c.add(kind, q, params=params)
    return c


def with_barriers(circuit, barriers):
    """The circuit with a barrier on wires 0..i % width before each gate i
    listed in ``barriers``."""
    c = Circuit(circuit.width)
    for i, g in enumerate(circuit.gates):
        if i in barriers:
            c.add("BARRIER", *range(i % c.width + 1))
        c.append(g)
    return c


def left_fold(run):
    """u = g_n ... g_1 of a run of gates, multiplied gate by gate."""
    u = gate_matrix(run[0])
    for g in run[1:]:
        u = gate_matrix(g) @ u
    return u


def per_item_check(circuit):
    """The check as it applied one ``wire_runs`` item at a time, each run as
    its own gate-by-gate 2x2 product and each two-qubit gate alone: the
    oracle for the fused steps.  Returns the unitary and the run products
    in ``wire_runs`` order."""
    gates, width = circuit.gates, circuit.width
    joins = [g.n_qubits == 1 and g.kind != "BARRIER" for g in gates]
    products = []
    rows = np.eye(1 << width, dtype=complex)
    for positions in wire_runs([g.qubits for g in gates], joins):
        gate = gates[positions[0]]
        if joins[positions[0]]:
            products.append(left_fold([gates[i] for i in positions]))
            rows = apply_matrix(rows, products[-1], gate.qubits, width)
        elif gate.kind != "BARRIER":
            rows = apply_matrix(rows, gate_matrix(gate), gate.qubits, width)
    return rows, products


def _barrier_between_run_and_entangler():
    # q0's run (SX, RZ) is closed by a barrier, not by the ECR after it; the
    # ECR takes q1's run alone, and a run on q1 is left open at the end
    c = Circuit(2).add("SX", 0).add("RZ", 0, params=(0.4,)).add("X", 1).add("BARRIER", 0)
    return c.add("ECR", 0, 1).add("SX", 1).add("ECR", 1, 0).add("RZ", 1, params=(1.0,))


@st.composite
def barrier_sets(draw):
    """Positions and wire masks of barriers to put into a circuit."""
    return draw(st.lists(st.tuples(st.integers(0, 64), st.integers(1, 15)), max_size=4))


def with_barrier_sets(circuit, barriers):
    """The circuit with a barrier before gate i on the wires of each (i, mask)
    (bit q of the mask for wire q; wire 0 if none is inside the width)."""
    c = Circuit(circuit.width)
    for i, g in enumerate(circuit.gates + [None]):
        for _, mask in [b for b in barriers if b[0] == i]:
            c.add("BARRIER", *([q for q in range(c.width) if mask >> q & 1] or [0]))
        if g is not None:
            c.append(g)
    return c


@settings(max_examples=100, deadline=None)
@given(native_circuits(), barrier_sets())
@example(_barrier_between_run_and_entangler(), [])
@example(_barrier_between_run_and_entangler(), [(1, 3), (6, 2)])
def test_run_products_are_the_per_gate_products(circuit, barriers):
    # run_products gives each one-qubit run's per-gate 2x2 product u = g_n ...
    # g_1 bit for bit, in wire_runs order; barriers split runs and have none.
    # Stacked rows of one skeleton each get their own.  The check's steps (a
    # two-qubit gate with its leading runs, or a run that a barrier or the end
    # closes) give what the per-item check gives, and it keeps only its plan
    c = with_barrier_sets(circuit, barriers)
    cache = BundleCache(None, c.width)
    rows = _lower_runs(c, cache)
    want, products = per_item_check(c)
    assert np.abs(rows - lower_to_unitary(c)).max() <= 1e-12
    assert np.abs(want - lower_to_unitary(c)).max() <= 1e-12
    assert list(cache.plans) == ["runs"]
    plan, check, _ = _check_plan(c.gates)
    assert sum(fused for fused, _, _ in check) == sum(g.kind == "ECR" for g in c.gates)
    ops = run_products([c.gates], plan)
    assert ops.shape == (len(products), 1, 2, 2)
    assert all(np.array_equal(u, v) for u, v in zip(ops[:, 0], products))
    rng = np.random.default_rng(len(c.gates))
    others = [_with_angles(c, iter(rng.uniform(-math.pi, math.pi, len(c.gates)))) for _ in range(2)]
    stacked = run_products([c.gates] + [o.gates for o in others], plan)
    for i, row in enumerate([c] + others):
        assert all(np.array_equal(stacked[j, i], left_fold([row.gates[k] for k in p]))
                   for j, p in enumerate(plan.runs))


@settings(max_examples=80, deadline=None)
@given(native_circuits(), st.lists(st.integers(0, 64), max_size=3))
def test_fusion_through_the_stacked_products_is_the_per_gate_fusion(circuit, barriers):
    # L1 fusion reads each run's product from the check's stacked pass; it
    # must emit the very gates that a per-gate scalar product gives
    gates = with_barriers(circuit, barriers).gates
    joins = [g.n_qubits == 1 and g.kind != "BARRIER" for g in gates]
    want = []
    for p in wire_runs([g.qubits for g in gates], joins):
        run = [gates[i] for i in p]
        if len(run) > 1:
            u = gate_matrix(run[0])
            for g in run[1:]:
                u = gate_matrix(g) @ u
            candidate = _emit_matrix(run[0].qubits[0], u)
            if len(candidate) < len(run):
                run = candidate
        want.extend(run)
    assert _fuse_runs(gates) == want


@st.composite
def noise_models(draw):
    prob = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    t1 = draw(st.one_of(st.just(math.inf), st.floats(1.0, 1e3)))
    if math.isinf(t1):
        t2 = draw(st.one_of(st.just(math.inf), st.floats(1.0, 1e3)))
    else:
        t2 = 2.0 * t1 * draw(st.floats(1e-3, 1.0))
    return NoiseModel(p1=draw(prob), p2=draw(prob), t1=t1, t2=t2)


def _repeated_gates():
    # the runs (SX, RZ) on q0 and (X, SX) on q1 recur three times
    c = Circuit(3)
    for _ in range(3):
        c.add("SX", 0).add("RZ", 0, params=(0.25,)).add("ECR", 0, 1)
        c.add("X", 1).add("SX", 1).add("ECR", 1, 2)
    return c


def _run_beside_equal_idle():
    # q0 runs 10 gates, then idles for exactly 10.0 while q1 and q2 work:
    # the merged channel of the run and the idle channel must not share a key
    c = Circuit(3)
    for _ in range(5):
        c.add("SX", 0).add("X", 0)
    c.add("ECR", 1, 2).add("ECR", 2, 1).add("ECR", 0, 1)
    return c


def _run_into_dd_window():
    # q0's run (SX, RZ) continues into the first XY4 pulse, and the idle
    # gaps between the pulses break the runs that follow
    c = Circuit(3)
    c.add("SX", 0).add("RZ", 0, params=(0.7,))
    c.add("ECR", 1, 2).add("ECR", 2, 1).add("ECR", 0, 1)
    return c


_NOISE = NoiseModel(p1=0.01, p2=0.05, t1=50.0, t2=30.0)


@settings(max_examples=60, deadline=None)
@given(native_circuits(), noise_models(), st.booleans(), st.integers(0, 2**32 - 1))
@example(_repeated_gates(), NoiseModel.noiseless(), True, 0)  # the U alone folds
@example(_repeated_gates(), NoiseModel(), False, 1)  # fold-cache hits
@example(_repeated_gates(), NoiseModel(p1=0.0, p2=0.0), True, 2)
@example(_run_beside_equal_idle(), _NOISE, False, 3)  # 10 gates vs idle 10.0
@example(_run_into_dd_window(), _NOISE, True, 4)  # runs broken by idle windows
@example(_repeated_gates(), NoiseModel(p1=1.0, p2=0.05, t1=50.0, t2=30.0), True, 5)
def test_run_noisy_matches_reference_on_random_noise(circuit, nm, dd, seed):
    sc = schedule(circuit, nm)
    if dd:
        sc = insert_dd(sc, nm)
    psi = unitary_group.rvs(1 << circuit.width, random_state=seed)[:, 0]
    rho0 = state_to_density(psi)
    rho = run_noisy(sc, rho0, nm)
    assert np.abs(rho - reference_noisy(sc, rho0, nm)).max() <= 1e-12
    assert abs(np.trace(rho) - 1.0) <= 1e-12
    assert np.array_equal(rho, rho.conj().T)
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


def _with_angles(circuit, angles):
    """``circuit`` with its RZ angles replaced in order: the same skeleton."""
    c = Circuit(circuit.width)
    for g in circuit.gates:
        c.append(Gate("RZ", g.qubits, (next(angles),)) if g.kind == "RZ" else g)
    return c


@settings(max_examples=40, deadline=None)
@given(native_circuits(), noise_models(), st.booleans(), st.data())
def test_planned_stages_equal_fresh_calls(circuit, nm, dd, data):
    # two more circuits with the skeleton of ``circuit`` and new RZ angles,
    # then one with a gate added: every stage keeps its plan for the first
    # three and rebuilds it for the last, and every result equals a fresh call
    n_rz = sum(g.kind == "RZ" for g in circuit.gates)
    angles = st.lists(st.floats(-math.pi, math.pi), min_size=n_rz, max_size=n_rz)
    family = [circuit] + [_with_angles(circuit, iter(data.draw(angles))) for _ in range(2)]
    family.append(_with_angles(circuit, iter(data.draw(angles))).add("SX", 0))
    rho0 = random_density(circuit.width, np.random.default_rng(data.draw(st.integers(0, 99))))
    cache = BundleCache(nm, circuit.width)
    plans = []
    for c in family:
        sc, fresh_sc = schedule(c, nm, cache), schedule(c, nm)
        assert (sc.start_times, sc.durations, sc.idle_windows) == (
            fresh_sc.start_times, fresh_sc.durations, fresh_sc.idle_windows)
        assert np.array_equal(_lower_runs(c, cache), _lower_runs(c))
        if dd:
            sc = insert_dd(sc, nm)
        assert np.array_equal(run_noisy(sc, rho0, nm, cache), run_noisy(sc, rho0, nm))
        plans.append(dict(cache.plans))
    for stage in ("schedule", "runs"):
        assert plans[0][stage] is plans[1][stage] is plans[2][stage]
        assert plans[3][stage] is not plans[2][stage]
    # one skeleton under other durations: other start times and idle windows
    for durs in ({}, {"dur_1q": nm.dur_1q + 0.5, "dur_2q": nm.dur_2q + 3.0}):
        other = replace(nm, **durs)
        sc, fresh_sc = schedule(circuit, other, cache), schedule(circuit, other)
        assert (sc.start_times, sc.idle_windows) == (fresh_sc.start_times, fresh_sc.idle_windows)
        assert np.array_equal(run_noisy(sc, rho0, nm, cache), run_noisy(sc, rho0, nm))


@settings(max_examples=60, deadline=None)
@given(native_circuits(), noise_models(), st.booleans(), st.integers(1, 6), st.integers(0, 99))
@example(_run_into_dd_window(), NoiseModel(p1=0.0, p2=0.0), True, 4, 0)
@example(_repeated_gates(), NoiseModel(p1=0.0, p2=0.0, t1=50.0, t2=30.0), False, 6, 1)
@example(_run_beside_equal_idle(), _NOISE, True, 3, 2)
def test_each_row_of_a_stack_equals_its_lone_run(circuit, nm, dd, n, seed):
    # n circuits of one skeleton and schedule, with their own RZ angles, run as
    # one stack of rho; every row equals a run of that circuit alone, bit for
    # bit, including identity channels (p1 = p2 = 0) and XY4 pulses
    rng = np.random.default_rng(seed)
    rows = [circuit] + [_with_angles(circuit, iter(rng.uniform(-math.pi, math.pi, len(circuit))))
                        for _ in range(n - 1)]
    cache = BundleCache(nm, circuit.width)
    scheduled = []
    for c in rows:
        _lower_runs(c, cache)  # the check keeps its plan, as in a bundle
        sc = schedule(c, nm, cache)
        scheduled.append(insert_dd(sc, nm) if dd else sc)
    cache.scheduled = tuple(scheduled)
    rho0 = random_density(circuit.width, rng)
    for sc in scheduled:
        assert np.array_equal(run_noisy(sc, rho0, nm, cache), run_noisy(sc, rho0, nm))
    assert len(cache.plans["noisy"][1]) == n  # one stack of all rows
    assert cache.noisy.arrays == [] or n == 1
    rho1 = random_density(circuit.width, rng)  # another start runs the stack again
    assert np.array_equal(run_noisy(sc, rho1, nm, cache), run_noisy(sc, rho1, nm))


@pytest.mark.parametrize("angles", [(0.3, 0.3), (0.3, 0.3, 1.1), (1.1, 0.3)])
def test_a_stack_folds_each_rows_own_two_qubit_gate(angles):
    # rows whose two-qubit gates differ (CP angles) fold one superoperator per
    # row; equal gates, as every ECR, share one fold
    rows = [Circuit(2).add("SX", 0).add("CP", 0, 1, params=(a,)).add("RZ", 1, params=(a,))
            .add("ECR", 1, 0) for a in angles]
    cache = BundleCache(_NOISE, 2)
    cache.scheduled = tuple([schedule(c, _NOISE, cache) for c in rows])
    rho0 = random_density(2, np.random.default_rng(7))
    for sc in cache.scheduled:
        assert np.array_equal(run_noisy(sc, rho0, _NOISE, cache), run_noisy(sc, rho0, _NOISE))
    assert len(cache.plans["noisy"][1]) == len(angles)


def _l3_bundle(n):
    """The first n circuits of the shipped 4-cycle bundle, transpiled at L3
    in one stacked pass: one skeleton, with each t's own angles."""
    cfg = config_from_text((ROOT / "demos" / "configs" / "parrondo_4cycle.cfg").read_text())
    circuits = [build_walk_circuit(cfg.cycle, cfg.schedule(), t) for t in range(1, n + 1)]
    cache = BundleCache(_NOISE, circuits[0].width, circuits)
    return [transpile(c, OptLevel.L3, cache) for c in circuits]


@pytest.mark.parametrize("bundle", ["angles", "L3"])
def test_an_xy4_stack_whose_pulses_split_the_check_runs(bundle):
    # XY4 pulses join and split the one-qubit runs that the transpile check
    # multiplied; each row of the decoupled stack forms its own run products
    # and equals the per-event folds bit for bit
    rng = np.random.default_rng(11)
    if bundle == "L3":
        rows = _l3_bundle(3)
    else:
        c = _run_into_dd_window()
        rows = [c] + [_with_angles(c, iter(rng.uniform(-math.pi, math.pi, len(c))))
                      for _ in range(2)]
    cache = BundleCache(_NOISE, rows[0].width)
    for c in rows:
        _lower_runs(c, cache)
    cache.scheduled = tuple([insert_dd(schedule(c, _NOISE, cache), _NOISE) for c in rows])
    plan, _, _ = _check_plan(rows[0].gates)
    checked = {tuple([rows[0].gates[i] for i in p]) for p in plan.runs}
    sc = cache.scheduled[0]
    noisy = {tuple([sc.circuit.gates[i] for i in run])
             for key, run in _noisy_events(sc, _NOISE) if run and len(key[1]) == 1}
    assert noisy - checked  # runs that no check formed
    rho0 = random_density(rows[0].width, rng)
    for sc in cache.scheduled:
        assert np.array_equal(run_noisy(sc, rho0, _NOISE, cache), per_event_noisy(sc, rho0, _NOISE))
    assert len(cache.plans["noisy"][1]) == len(rows)  # one stack of all rows


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_stacked_kernel_gives_the_bits_of_np_dot_per_row(width):
    # the premise of the stacked rho: matmul on a stack of rows, with a matrix
    # per row or one broadcast to all, gives per row the bits of np.dot on that
    # row alone (the one-row kernel's BLAS call), for the superoperators of
    # one and two qubits on the doubled register
    rng = np.random.default_rng(300 + width)
    dim = 1 << width
    targets = [(q,) for q in range(2 * width)] + [(q + width, q) for q in range(width)]
    targets += [(a + width, b + width, a, b) for a in range(width) for b in range(width) if a != b]
    for n in (1, 2, 25):
        rho = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
        for qubits in targets:
            k = 1 << len(qubits)
            ms = rng.normal(size=(n, k, k)) + 1j * rng.normal(size=(n, k, k))
            per_row = apply_matrix(rho, ms, qubits, 2 * width)
            broadcast = apply_matrix(rho, ms[:1], qubits, 2 * width)
            for i in range(n):
                assert np.array_equal(per_row[i], transpose_reference(rho[i], ms[i], qubits, 2 * width))
                assert np.array_equal(broadcast[i], transpose_reference(rho[i], ms[0], qubits, 2 * width))


def test_events_plan_follows_the_durations():
    # same skeleton and start times; longer one-qubit gates close both idle windows
    c = Circuit(2).add("SX", 0).add("SX", 1).add("ECR", 0, 1)
    nm = NoiseModel()
    rho0 = random_density(2, np.random.default_rng(5))
    cache = BundleCache(nm, 2)
    for durs in ((1.0, 1.0, 10.0), (3.0, 3.0, 10.0)):
        sc = ScheduledCircuit(c, (0.0, 0.0, 3.0), durs)
        assert len(sc.idle_windows) == (2 if durs[0] == 1.0 else 0)
        assert np.array_equal(run_noisy(sc, rho0, nm, cache), run_noisy(sc, rho0, nm))


# ---------------------------------------------------------------------------
# stacked folds against the per-event folds, and the planned schedule

def _liouville_2d(u):
    n = len(u)
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(n * n, n * n)


def per_event_channel(key, nm):
    kind, qubits, size = key
    if kind == "idle":
        kraus = thermal_relaxation_kraus(nm.t1, nm.t2, size)
    else:
        p = nm.p2 if len(qubits) == 2 else 1.0 - (1.0 - nm.p1) ** size
        kraus = depolarizing_kraus(p, len(qubits))
    return None if len(kraus) == 1 else sum(_liouville_2d(k) for k in kraus)


def per_event_noisy(sc, rho, nm):
    """``run_noisy`` as it folded one event at a time: the run's product
    gate by gate, its own u (x) conj(u), then its channel, each fold kept
    per run for the call.  The oracle for the stacked folds."""
    gates = sc.circuit.gates
    channels, folded = {}, {}
    for key, positions in _noisy_events(sc, nm):
        run = tuple([gates[i] for i in positions])
        if key not in channels:
            channels[key] = per_event_channel(key, nm)
        op = channels[key]
        if run:
            fold = folded.get(run)
            if fold is None:
                u = left_fold(run)
                fold = _liouville_2d(u) if op is None else op @ _liouville_2d(u)
                folded[run] = fold
            op = fold
        if op is not None:
            rho = _apply_kraus(rho, op, key[1])
    return 0.5 * (rho + rho.conj().T)


@settings(max_examples=60, deadline=None)
@given(native_circuits(), noise_models(), st.booleans(), st.integers(0, 99))
@example(_repeated_gates(), _NOISE, False, 0)
@example(_repeated_gates(), NoiseModel(p1=0.0, p2=0.0), True, 1)
@example(_run_into_dd_window(), _NOISE, True, 2)
def test_stacked_folds_equal_the_per_event_folds(circuit, nm, dd, seed):
    # bit for bit, without a cache, and in a bundle where the check runs
    # first and the second, longer circuit resumes the trail
    rho0 = random_density(circuit.width, np.random.default_rng(seed))
    longer = Circuit(circuit.width).extend(circuit.gates).add("SX", 0).add("X", circuit.width - 1)
    cache = BundleCache(nm, circuit.width)
    for c in (circuit, longer):
        _lower_runs(c, cache)
        sc = schedule(c, nm, cache)
        if dd:
            sc = insert_dd(sc, nm)
        assert np.array_equal(run_noisy(sc, rho0, nm, cache), per_event_noisy(sc, rho0, nm))
        assert np.array_equal(run_noisy(sc, rho0, nm), per_event_noisy(sc, rho0, nm))


@pytest.mark.parametrize("dd", [False, True])
def test_stacked_folds_after_a_resumed_trail(monkeypatch, dd):
    # the second circuit resumes the rho trail after its shared prefix: its
    # call of run_products forms the one-qubit runs after that point alone
    resumed, plans = [], []
    resume, products = Trail.resume, simulate.run_products
    monkeypatch.setattr(Trail, "resume",
                        lambda self, *a: resumed.append(resume(self, *a)) or resumed[-1])
    monkeypatch.setattr(simulate, "run_products",
                        lambda rows, plan: plans.append(plan) or products(rows, plan))
    rho0 = random_density(3, np.random.default_rng(3))
    cache = BundleCache(_NOISE, 3)
    first = _repeated_gates()
    second = Circuit(3).extend(first.gates).add("SX", 2).add("ECR", 2, 0)
    second.add("RZ", 0, params=(0.3,))
    for c in (first, second):
        _lower_runs(c, cache)
        sc = schedule(c, _NOISE, cache)
        if dd:
            sc = insert_dd(sc, _NOISE)
        got = run_noisy(sc, rho0, _NOISE, cache)
        assert np.array_equal(got, per_event_noisy(sc, rho0, _NOISE))
        runs = [(i, run) for i, (key, run) in enumerate(_noisy_events(sc, _NOISE))
                if run and len(key[1]) == 1]
        assert plans[-1].runs == [run for i, run in runs if i >= resumed[-1]]
    assert resumed[0] == 0 and resumed[1] > 0
    assert 0 < len(plans[-1].runs) < len(runs)


def test_a_planned_schedule_takes_the_new_circuit_without_a_second_check(monkeypatch):
    nm = NoiseModel()
    first, second = (Circuit(2).add("SX", 0).add("SX", 0).add("RZ", 0, params=(angle,))
                     .add("X", 1).add("ECR", 0, 1) for angle in (0.1, 0.2))
    cache = BundleCache(nm, 2)
    planned = schedule(first, nm, cache)
    checked = []
    post_init = ScheduledCircuit.__post_init__
    monkeypatch.setattr(ScheduledCircuit, "__post_init__",
                        lambda self: checked.append(self.circuit) or post_init(self))
    sc = schedule(second, nm, cache)
    assert checked == []
    assert sc.circuit is second and planned.circuit is first
    fresh = ScheduledCircuit(second, sc.start_times, sc.durations)  # any other way: checked
    assert checked == [second]
    assert (sc.start_times, sc.durations, sc.idle_windows) == (
        fresh.start_times, fresh.durations, fresh.idle_windows)
    assert sc.idle_windows == ((1, 1.0, 2.0),)  # q1 waits for q0's run
    other = Circuit(2).add("SX", 1).add("ECR", 0, 1)  # a new skeleton is planned and checked
    schedule(other, nm, cache)
    assert checked == [second, other]
