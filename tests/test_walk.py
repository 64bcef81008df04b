import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclewalk import (
    CoinParams,
    coin_operator,
    hadamard_coin,
    shift_operator,
    step_operator,
    circulant_step_operator,
    initial_state,
    evolve,
    return_probability,
    parrondo_schedule,
)
from cyclewalk.walk import unitarity_defect

INV_SQRT2 = 1 / math.sqrt(2)


class TestCoinOperator:
    def test_hadamard(self):
        expected = np.array([[1, 1], [1, -1]]) * INV_SQRT2
        assert np.allclose(coin_operator(CoinParams(0.5)), expected, atol=1e-15)
        assert np.allclose(hadamard_coin(), expected, atol=1e-15)

    def test_reflective_limit(self):
        assert np.allclose(coin_operator(CoinParams(1.0)), np.diag([1, -1]), atol=1e-15)

    def test_near_reflective_magnitude(self):
        c = coin_operator(CoinParams(0.998489))
        assert abs(c[0, 0]) == pytest.approx(math.sqrt(0.998489), abs=1e-12)
        assert abs(c[0, 0]) == pytest.approx(0.999244, abs=1e-6)

    def test_r_out_of_range(self):
        with pytest.raises(ValueError, match="r must"):
            CoinParams(1.2)
        with pytest.raises(ValueError, match="r must"):
            CoinParams(-0.1)

    def test_phase_out_of_range(self):
        with pytest.raises(ValueError, match="phase a"):
            CoinParams(0.5, a=7.0)
        with pytest.raises(ValueError, match="phase b"):
            CoinParams(0.5, b=-0.1)

    @given(
        st.floats(0.0, 1.0),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
        st.floats(0.0, 2 * math.pi, exclude_max=True),
    )
    def test_always_unitary(self, r, a, b):
        assert unitarity_defect(coin_operator(CoinParams(r, a, b))) < 1e-12


class TestShiftOperator:
    def test_4cycle_blocks(self):
        s = shift_operator(4)
        dec = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
        inc = np.array([[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
        assert np.array_equal(s[:4, :4].real, dec)
        assert np.array_equal(s[4:, 4:].real, inc)
        assert not s[:4, 4:].any() and not s[4:, :4].any()

    def test_3cycle_padded_blocks(self):
        s = shift_operator(3, "padded")
        dec = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 0, 1]])
        inc = np.array([[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.array_equal(s[:4, :4].real, dec)
        assert np.array_equal(s[4:, 4:].real, inc)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    @pytest.mark.parametrize("embedding", ["exact", "padded"])
    def test_unitary_permutation(self, n, embedding):
        s = shift_operator(n, embedding)
        assert unitarity_defect(s) < 1e-14
        assert np.allclose(np.abs(s) ** 2, np.abs(s))  # 0/1 entries

    def test_too_small(self):
        with pytest.raises(ValueError, match="at least 3"):
            shift_operator(2)

    def test_bad_embedding(self):
        with pytest.raises(ValueError, match="embedding"):
            shift_operator(4, "sparse")


class TestStepOperator:
    def test_hadamard_4cycle_period8(self):
        u = step_operator(4, CoinParams(0.5))
        assert np.allclose(np.linalg.matrix_power(u, 8), np.eye(8), atol=1e-12)

    def test_r23_3cycle_period8(self):
        u = step_operator(3, CoinParams(2 / 3))
        assert u.shape == (6, 6)
        assert np.allclose(np.linalg.matrix_power(u, 8), np.eye(6), atol=1e-12)

    def test_unitarity_random_coins(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = CoinParams(rng.uniform(), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
            n = int(rng.integers(3, 9))
            assert unitarity_defect(step_operator(n, p)) < 1e-12

    def test_circulant_form(self):
        # independent block-circulant construction must agree entrywise
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.choice([3, 4, 5, 8]))
            p = CoinParams(rng.uniform(), rng.uniform(0, 6.28), rng.uniform(0, 6.28))
            assert np.allclose(
                step_operator(n, p), circulant_step_operator(n, p), atol=1e-14
            )


class TestInitialState:
    def test_coin_zero(self):
        state = initial_state(0.0, 0.0, 4)
        expected = np.zeros(8)
        expected[0] = 1
        assert np.allclose(state, expected)

    def test_coin_one(self):
        state = initial_state(math.pi, 0.0, 4)
        assert state[4] == pytest.approx(1.0)
        assert np.linalg.norm(state) == pytest.approx(1.0)

    def test_equator(self):
        state = initial_state(math.pi / 2, math.pi / 2, 4)
        assert state[0] == pytest.approx(INV_SQRT2)
        assert state[4] == pytest.approx(1j * INV_SQRT2)

    def test_angle_validation(self):
        with pytest.raises(ValueError, match="theta"):
            initial_state(3.5, 0.0, 4)
        with pytest.raises(ValueError, match="phi"):
            initial_state(0.0, -1.0, 4)


class TestSchedule:
    def test_cyclic_expansion(self, coins_4cycle):
        sched = parrondo_schedule("AABB", coins_4cycle, 6)
        assert sched.labels() == ["A", "A", "B", "B", "A", "A"]

    def test_single_label(self, coins_4cycle):
        assert parrondo_schedule("A", coins_4cycle, 3).labels() == ["A", "A", "A"]

    def test_zero_length(self, coins_4cycle):
        assert parrondo_schedule("AABB", coins_4cycle, 0).labels() == []

    def test_unbound_label(self, coins_4cycle):
        with pytest.raises(KeyError, match="C"):
            parrondo_schedule("AC", coins_4cycle, 4)


class TestEvolve:
    def test_single_hadamard_step_amplitudes(self):
        # Moving from position 0: coin |0> goes to node 3, coin |1> to node 1
        # (hand matrix-vector product of S (C (x) I) |000>).
        sched = parrondo_schedule("A", {"A": CoinParams(0.5)}, 1)
        state = initial_state(0.0, 0.0, 4, "padded")
        (after,) = evolve(state, sched, 4, "padded")
        expected = np.zeros(8, dtype=complex)
        expected[3] = INV_SQRT2  # coin 0, position 3
        expected[4 + 1] = INV_SQRT2  # coin 1, position 1
        assert np.allclose(after, expected, atol=1e-14)

    def test_empty_schedule(self, coins_4cycle):
        sched = parrondo_schedule("AABB", coins_4cycle, 0)
        assert evolve(initial_state(0, 0, 4), sched, 4) == []

    def test_parrondo_return_at_20(self, schedule_4cycle):
        psi0 = initial_state(0, 0, 4)
        traj = evolve(psi0, schedule_4cycle, 4)
        # the coin parameters carry six digits, which limits the revival to
        # ~2e-6 in vector norm (measured; the probability deficit is ~5e-12)
        assert np.linalg.norm(traj[19] - psi0) < 3e-6

    def test_parrondo_return_3cycle(self, schedule_3cycle):
        psi0 = initial_state(0, 0, 3)
        traj = evolve(psi0, schedule_3cycle, 3)
        assert np.linalg.norm(traj[19] - psi0) < 3e-6

    def test_norm_preserved(self, schedule_3cycle):
        traj = evolve(initial_state(0, 0, 3), schedule_3cycle, 3)
        for state in traj:
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_nan_state_rejected(self, schedule_4cycle):
        state = initial_state(0, 0, 4)
        state[1] = math.nan
        with pytest.raises(ArithmeticError, match="norm"):
            evolve(state, schedule_4cycle, 4)

    def test_dimension_mismatch(self, schedule_4cycle):
        with pytest.raises(ValueError, match="dimension"):
            evolve(initial_state(0, 0, 4, "exact"), schedule_4cycle, 8, "exact")

    def test_padded_exact_consistency(self, schedule_3cycle):
        exact = evolve(initial_state(0, 0, 3, "exact"), schedule_3cycle, 3, "exact")
        padded = evolve(initial_state(0, 0, 3, "padded"), schedule_3cycle, 3, "padded")
        live = [0, 1, 2, 4, 5, 6]
        for se, sp in zip(exact, padded):
            assert np.linalg.norm(se - sp[live]) < 1e-10
            assert abs(sp[3]) < 1e-12 and abs(sp[7]) < 1e-12


class TestReturnProbability:
    def test_initial(self):
        assert return_probability(initial_state(0, 0, 4), 4) == pytest.approx(1.0)

    def test_after_one_step(self):
        sched = parrondo_schedule("A", {"A": CoinParams(0.5)}, 1)
        (after,) = evolve(initial_state(0, 0, 4), sched, 4)
        assert return_probability(after, 4) == pytest.approx(0.0, abs=1e-14)

    def test_parrondo_peak(self, schedule_4cycle):
        traj = evolve(initial_state(0, 0, 4), schedule_4cycle, 4)
        assert return_probability(traj[19], 4) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("pattern", ["A", "B"])
    def test_pure_schedules_never_return(self, pattern, coins_4cycle, coins_3cycle):
        for n, coins in ((4, coins_4cycle), (3, coins_3cycle)):
            sched = parrondo_schedule(pattern, coins, 25)
            traj = evolve(initial_state(0, 0, n), sched, n)
            assert max(return_probability(s, n) for s in traj) < 0.999
