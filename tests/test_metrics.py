import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cyclewalk import (
    Distribution,
    classify_fidelity,
    hellinger_distance,
    hellinger_fidelity,
    state_distance_phase_aligned,
    trace_distance,
)


def random_distribution(rng, n_outcomes=4):
    weights = rng.dirichlet(np.ones(n_outcomes))
    return {k: float(w) for k, w in enumerate(weights)}


class TestHellinger:
    def test_identical_distributions(self):
        p = {0: 0.3, 1: 0.7}
        assert hellinger_distance(p, p) == pytest.approx(0.0, abs=1e-15)
        assert hellinger_fidelity(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_point_masses(self):
        assert hellinger_distance({0: 1.0}, {1: 1.0}) == pytest.approx(1.0)
        assert hellinger_fidelity({0: 1.0}, {1: 1.0}) == pytest.approx(0.0, abs=1e-12)

    def test_half_half_vs_point(self):
        p = {0: 0.5, 1: 0.5}
        q = {0: 1.0, 1: 0.0}
        # direct evaluation: h = sqrt(1 - 1/sqrt(2)), fidelity = (1/sqrt2)^2
        assert hellinger_distance(p, q) == pytest.approx(
            math.sqrt(1 - 1 / math.sqrt(2)), abs=1e-12
        )
        assert hellinger_fidelity(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_missing_outcomes_are_zero_filled(self):
        assert hellinger_distance({0: 1.0}, {0: 0.5, 7: 0.5}) == pytest.approx(
            hellinger_distance({0: 1.0, 7: 0.0}, {0: 0.5, 7: 0.5})
        )

    def test_counts_are_normalized_first(self):
        counted = Distribution({0: 600, 1: 400}, shots=1000)
        exact = Distribution({0: 0.6, 1: 0.4})
        assert hellinger_distance(counted, exact) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            hellinger_distance({0: 0.5}, {0: 1.0})
        with pytest.raises(ValueError, match="not normalized"):
            hellinger_fidelity({0: math.nan, 1: 0.5}, {0: 0.5, 1: 0.5})

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(51)
        for _ in range(1000):
            p, q = random_distribution(rng), random_distribution(rng)
            assert hellinger_fidelity(p, q) == pytest.approx(
                hellinger_fidelity(q, p), abs=1e-12
            )

    def test_triangle_inequality_on_random_triples(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            p, q, r = (random_distribution(rng) for _ in range(3))
            assert hellinger_distance(p, r) <= (
                hellinger_distance(p, q) + hellinger_distance(q, r) + 1e-12
            )

    @given(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6))
    def test_bounds(self, weights):
        total = sum(weights)
        p = {k: w / total for k, w in enumerate(weights)}
        q = {k: 1.0 / len(weights) for k in range(len(weights))}
        assert 0.0 <= hellinger_distance(p, q) <= 1.0
        assert 0.0 <= hellinger_fidelity(p, q) <= 1.0


class TestClassification:
    def test_thresholds(self):
        assert classify_fidelity(0.96) == "almost alike"
        assert classify_fidelity(0.95) == "similar"  # strictly greater required
        assert classify_fidelity(0.51) == "similar"
        assert classify_fidelity(0.5) == "distinct"
        assert classify_fidelity(0.1) == "distinct"


class TestStateDistance:
    def test_identical(self):
        # the sqrt(2 - 2|<a|b>|) form floors out around sqrt(eps) ~ 1e-8
        a = np.array([1, 1j]) / math.sqrt(2)
        assert state_distance_phase_aligned(a, a) == pytest.approx(0.0, abs=1e-7)

    def test_global_phase_invariance(self):
        a = np.array([0.6, 0.8j])
        assert state_distance_phase_aligned(a, 1j * a) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        assert state_distance_phase_aligned(a, b) == pytest.approx(math.sqrt(2))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            state_distance_phase_aligned(np.zeros(2), np.zeros(4))


class TestTraceDistance:
    def test_equal_states(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

