import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import unitary_group

from conftest import ground_state

from cyclewalk import (
    Circuit,
    Distribution,
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
from cyclewalk.circuit import apply_matrix
from cyclewalk.experiments import build_walk_circuit
from cyclewalk.gates import gate_matrix
from cyclewalk.noise import depolarizing_kraus, thermal_relaxation_kraus
from cyclewalk.simulate import _apply_kraus, _check_density

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
            _check_density(np.full((2, 2), math.nan, dtype=complex), "in test")

    def test_run_noisy_validates_input(self):
        c = Circuit(1)
        c.add("X", 0)
        with pytest.raises(ValueError, match="Hermitian|trace|negative"):
            run_noisy(c, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), NoiseModel())


@pytest.mark.parametrize("n_ops", [1, 4, 16])
@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_apply_kraus_matches_operator_sum(n_ops, width):
    # a mixed-unitary channel, so every entry stays of order 1
    rng = np.random.default_rng(10 * width + n_ops)
    dim = 1 << width
    stack = np.stack([unitary_group.rvs(dim, random_state=rng) for _ in range(n_ops)])
    stack /= math.sqrt(n_ops)
    rho = state_to_density(unitary_group.rvs(dim, random_state=rng)[:, 0])
    want = sum(k @ rho @ k.conj().T for k in stack)
    assert np.abs(_apply_kraus(rho, stack) - want).max() <= 1e-14


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
