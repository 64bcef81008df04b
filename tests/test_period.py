import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cyclewalk import (
    CoinParams,
    coin_operator,
    find_period_eigen,
    find_period_power,
    step_operator,
)
from cyclewalk.period import (
    BLOCK,
    DEFAULT_TOL,
    EigendecompositionError,
    PeriodResult,
    _frobenius,
    _search,
    _unit_phase,
)

HADAMARD = CoinParams(0.5)

# coins with known walk periods on their cycles
REGRESSION = [
    (4, HADAMARD, 8),
    (8, HADAMARD, 24),
    (3, CoinParams(2 / 3), 8),
    (3, CoinParams((5 - math.sqrt(5)) / 6), 10),
    (4, CoinParams(0.998489), None),  # chaotic
    (3, HADAMARD, None),  # chaotic on odd cycles
]


@pytest.mark.parametrize("cycle,coin,expected", REGRESSION[:4])
def test_known_periods(cycle, coin, expected):
    u = step_operator(cycle, coin)
    result = find_period_power(u, t_max=100, phase_insensitive=True)
    assert result.period == expected
    assert result.residual < 1e-10


def test_known_periods_hold_strictly():
    # these revivals have no global phase at all
    for cycle, coin, expected in REGRESSION[:4]:
        result = find_period_power(step_operator(cycle, coin), t_max=100)
        assert result.period == expected


def test_chaotic_coins_have_no_period():
    for cycle, coin, expected in REGRESSION[4:]:
        assert expected is None
        result = find_period_eigen(
            step_operator(cycle, coin), t_max=1000, phase_insensitive=True
        )
        assert result.period is None
        assert result.residual > 1e-8
        assert result.bound == 1000


def test_identity_has_period_one():
    result = find_period_eigen(np.eye(6, dtype=complex), t_max=10)
    assert result.period == 1
    assert result.residual < 1e-14


@pytest.mark.parametrize("cycle,coin,_", REGRESSION)
@pytest.mark.parametrize("phase_insensitive", [False, True])
def test_power_and_eigen_agree(cycle, coin, _, phase_insensitive):
    u = step_operator(cycle, coin)
    a = find_period_power(u, t_max=200, phase_insensitive=phase_insensitive)
    b = find_period_eigen(u, t_max=200, phase_insensitive=phase_insensitive)
    assert a.period == b.period


def test_composite_block_period(coins_4cycle):
    # one AABB super-step: W = U_B U_B U_A U_A; five blocks make the 20-step
    # revival.  Brute-force matrix powers put the closest approach at T = 5
    # with residual ~3e-6 (the coins are six-digit truncations), so the
    # detection tolerance is loosened accordingly.
    ua = step_operator(4, coins_4cycle["A"])
    ub = step_operator(4, coins_4cycle["B"])
    w = ub @ ub @ ua @ ua
    result = find_period_eigen(w, t_max=100, tol=1e-5, phase_insensitive=True)
    assert result.period == 5
    strict_tol = find_period_eigen(w, t_max=100, tol=1e-8, phase_insensitive=True)
    assert strict_tol.period is None


def test_non_unitary_rejected():
    with pytest.raises(ValueError, match="unitary"):
        find_period_power(np.ones((4, 4), dtype=complex), t_max=10)
    with pytest.raises(ValueError, match="unitary"):
        find_period_eigen(2 * np.eye(4, dtype=complex), t_max=10)
    with_nan = step_operator(4, HADAMARD)
    with_nan[1, 2] = math.nan
    for finder in (find_period_power, find_period_eigen):
        with pytest.raises(ValueError, match="unitary"):
            finder(with_nan, t_max=10)


@pytest.mark.parametrize("finder", [find_period_power, find_period_eigen])
def test_a_non_finite_operator_is_rejected_without_a_warning(finder):
    # inf in M M^dag gives NaN: the defect check raises, numpy does not warn
    with pytest.raises(ValueError, match=r"^operator is not unitary \(defect nan\)$"):
        finder(np.diag([np.inf, 1.0]), t_max=10)


def test_bad_t_max():
    with pytest.raises(ValueError, match="t_max"):
        find_period_power(np.eye(2, dtype=complex), t_max=0)
    with pytest.raises(ValueError, match="t_max"):
        find_period_eigen(np.eye(2, dtype=complex), t_max=0)


@pytest.mark.parametrize("finder", [find_period_power, find_period_eigen])
@pytest.mark.parametrize("tol", [math.nan, 0.0, -0.0, -1.0, math.inf, -math.inf])
def test_bad_tol(finder, tol):
    # nan or <= 0 found no period with residual 0.0, inf found period 1
    with pytest.raises(ValueError, match=rf"^tol must be finite and > 0, got {tol}$"):
        finder(np.eye(2, dtype=complex), t_max=10, tol=tol)


@pytest.mark.parametrize("finder", [find_period_power, find_period_eigen])
def test_input_messages_and_their_order(finder):
    # unitarity first, then t_max, then tol
    with pytest.raises(ValueError, match=r"^operator is not unitary \(defect 4\.24e\+00\)$"):
        finder(2 * np.eye(2, dtype=complex), t_max=0, tol=math.nan)
    with pytest.raises(ValueError, match=r"^t_max must be >= 1, got 0$"):
        finder(np.eye(2, dtype=complex), t_max=0, tol=math.nan)


def test_eigendecomposition_error_is_distinct():
    assert issubclass(EigendecompositionError, RuntimeError)


# Reference searches: the plain one-t-at-a-time loops that the block searches
# must reproduce.
def reference_power(u, t_max, tol=DEFAULT_TOL, phase_insensitive=False):
    dim = u.shape[0]
    eye = np.eye(dim)
    power = np.eye(dim, dtype=complex)
    best = np.inf
    for t in range(1, t_max + 1):
        power = u @ power
        if phase_insensitive:
            k = int(np.argmax(np.abs(np.diagonal(power))))
            phase = power[k, k] / abs(power[k, k]) if abs(power[k, k]) > 0 else 1.0
        else:
            phase = 1.0
        residual = float(np.linalg.norm(power - phase * eye))
        best = min(best, residual)
        if residual < tol:
            return PeriodResult(period=t, residual=residual, bound=t_max)
    return PeriodResult(period=None, residual=best, bound=t_max)


def reference_eigen(u, t_max, tol=DEFAULT_TOL, phase_insensitive=False):
    angles = np.angle(np.linalg.eigvals(u))
    best = np.inf
    for t in range(1, t_max + 1):
        powered = np.exp(1j * angles * t)
        if phase_insensitive:
            mean = np.mean(powered)
            phase = mean / abs(mean) if abs(mean) > 1e-12 else 1.0
        else:
            phase = 1.0
        residual = float(np.max(np.abs(powered - phase)))
        best = min(best, residual)
        if residual < tol:
            return PeriodResult(period=t, residual=residual, bound=t_max)
    return PeriodResult(period=None, residual=best, bound=t_max)


def block_power(u, t_max, tol=DEFAULT_TOL, phase_insensitive=False):
    # find_period_power as it was with each power one np.dot(u, power, out=out)
    # into the block; the bound ndarray.dot must give every bit of it
    dim = u.shape[0]
    block = np.empty((min(BLOCK, t_max), dim, dim), dtype=complex)
    power = np.eye(dim, dtype=complex)

    def residuals_of(start, n):
        nonlocal power
        powers = block[:n]
        for out in powers:
            power = np.dot(u, power, out=out)
        power = power.copy()
        diagonals = powers.reshape(n, -1)[:, :: dim + 1]
        if phase_insensitive:
            lead = diagonals[np.arange(n), np.argmax(np.abs(diagonals), axis=1)]
            diagonals -= _unit_phase(lead, np.finfo(float).tiny)[:, None]
        else:
            diagonals -= 1.0
        return _frobenius(powers)

    return _search(residuals_of, t_max, tol)


FINDERS = [(find_period_power, reference_power), (find_period_eigen, reference_eigen)]


def assert_same_search(result, expected):
    assert (result.period, result.bound) == (expected.period, expected.bound)
    assert result.residual == pytest.approx(expected.residual, abs=1e-15)


def random_coin(rng):
    return CoinParams(rng.uniform(0.02, 0.98), *rng.uniform(0.0, math.pi, size=2))


@pytest.mark.parametrize("finder,reference", FINDERS)
@pytest.mark.parametrize("phase_insensitive", [False, True])
@pytest.mark.parametrize("cycle", [3, 4, 5, 8])
def test_matches_per_step_reference(cycle, phase_insensitive, finder, reference):
    rng = np.random.default_rng(100 + cycle)
    coins = [random_coin(rng) for _ in range(4)]
    coins += [coin for c, coin, _ in REGRESSION if c == cycle]
    for coin in coins:
        u = step_operator(cycle, coin)
        assert_same_search(
            finder(u, t_max=300, phase_insensitive=phase_insensitive),
            reference(u, t_max=300, phase_insensitive=phase_insensitive),
        )


def root_of_unity_operator(period):
    # eigenvalues 1, w and w^-3 with w = e^{2 pi i / period}: U^t is a multiple
    # of I first at t = period, in both modes
    return np.diag([1.0, np.exp(2j * math.pi / period), np.exp(-6j * math.pi / period)])


@pytest.mark.parametrize("finder,reference", FINDERS)
@pytest.mark.parametrize("phase_insensitive", [False, True])
@pytest.mark.parametrize(
    "period,t_max",
    [
        (BLOCK - 1, 3 * BLOCK),
        (BLOCK, 3 * BLOCK),
        (BLOCK + 1, 3 * BLOCK),
        (2 * BLOCK + 7, 2 * BLOCK + 7),  # the period is t_max itself
        (2 * BLOCK + 7, 2 * BLOCK + 6),  # one step short: no period
        (5, BLOCK // 2),  # t_max below one block
        (BLOCK // 2 + 1, BLOCK // 2),
    ],
)
def test_block_edges(period, t_max, phase_insensitive, finder, reference):
    u = root_of_unity_operator(period)
    result = finder(u, t_max=t_max, phase_insensitive=phase_insensitive)
    assert result.period == (period if period <= t_max else None)
    assert_same_search(result, reference(u, t_max, phase_insensitive=phase_insensitive))


@pytest.mark.parametrize("t_max", [1, 3])
def test_power_phase_from_largest_diagonal_entry(t_max):
    # odd powers have |U_00| = sqrt(0.3) < |U_22| = 1, so the fitted phase,
    # and with it the closest approach, depends on which entry fixes it
    u = np.eye(3, dtype=complex)
    u[:2, :2] = coin_operator(CoinParams(0.3))
    u[2, 2] = np.exp(1j)
    result = find_period_power(u, t_max, phase_insensitive=True)
    assert result.period is None
    assert_same_search(result, reference_power(u, t_max, phase_insensitive=True))


@pytest.mark.parametrize("finder", [find_period_power, find_period_eigen])
def test_short_period_returns_early_under_a_huge_bound(finder):
    # working memory is one block, not t_max steps, and the search stops at the period
    result = finder(root_of_unity_operator(3), t_max=10**12)
    assert (result.period, result.bound) == (3, 10**12)


@given(
    st.integers(3, 8),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.integers(1, 200),
    st.booleans(),
)
# a subnormal leading diagonal entry: the power path must not divide by |z|
@example(cycle=5, r=8.503204135369465e-128, a=0.0, b=0.0, t_max=5, phase_insensitive=True)
def test_power_and_eigen_agree_on_random_coins(cycle, r, a, b, t_max, phase_insensitive):
    u = step_operator(cycle, CoinParams(r, a, b))
    power = find_period_power(u, t_max, phase_insensitive=phase_insensitive)
    eigen = find_period_eigen(u, t_max, phase_insensitive=phase_insensitive)
    if power.period != eigen.period:
        # The Frobenius residual lies between the largest eigenvalue deviation
        # and sqrt(dim) times it, and the two phase fits differ, so near tol
        # the finders may split (e.g. r = 1e-17 on the 3-cycle).  Then the
        # finder that missed must pass at the other's period with tol widened
        # by 2 sqrt(dim).
        first = min(p for p in (power.period, eigen.period) if p is not None)
        missed = find_period_eigen if power.period == first else find_period_power
        wide = 2 * math.sqrt(u.shape[0]) * DEFAULT_TOL
        assert missed(u, first, tol=wide, phase_insensitive=phase_insensitive).found


BLOCK_EDGES = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1, 1000]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(3, 8),
    st.floats(0.0, 1.0),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.floats(0.0, 2 * math.pi, exclude_max=True),
    st.sampled_from(BLOCK_EDGES),
    st.booleans(),
)
def test_power_search_equals_the_np_dot_block_loop(cycle, r, a, b, t_max, phase_insensitive):
    # == on PeriodResult: the same period and the same residual bits
    u = step_operator(cycle, CoinParams(r, a, b))
    got = find_period_power(u, t_max, phase_insensitive=phase_insensitive)
    assert got == block_power(u, t_max, phase_insensitive=phase_insensitive)


@pytest.mark.parametrize("phase_insensitive", [False, True])
@pytest.mark.parametrize("period", [3, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 7])
def test_found_periods_equal_the_np_dot_block_loop(period, phase_insensitive):
    u = root_of_unity_operator(period)
    got = find_period_power(u, 3 * BLOCK, phase_insensitive=phase_insensitive)
    assert got.period == period
    assert got == block_power(u, 3 * BLOCK, phase_insensitive=phase_insensitive)
