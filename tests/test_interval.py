import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibdist import (
    BadConfig,
    BadWidth,
    EmpiricalDistribution,
    IntervalEstimatorConfig,
    SeededRng,
    TooLarge,
    gap_quadratic,
    induce_gamma_exact,
    make_empirical,
    rintce_exact,
    rintce_hat,
    sintce_exact,
    sintce_hat,
)
from calibdist.interval import _shift_profile, default_shifts, width_exponent

from _oracles import (BLAS_PROBE_DIST, random_distribution, rintce_hat_loop, rintce_mc_direct,
                      shift_profile_at_group_ends, shift_profile_loop, sintce_all_widths,
                      sintce_hat_loop, stdout_per_blas_threads)

# Predictions on a 1e-3 grid (ties, as in quantized files), on a 1e-6 grid,
# or drawn from a few values that hit both ends of [0, 1].
_prediction = st.one_of(
    st.sampled_from([0.0, 0.125, 0.3, 0.5, 1.0]),
    st.integers(0, 1000).map(lambda k: k / 1000),
    st.integers(0, 10**6).map(lambda k: k / 10**6),
)
_samples = st.lists(st.tuples(_prediction, st.integers(0, 1)), min_size=1, max_size=60)
_width = st.sampled_from([2.0**-k for k in range(9)] + [0.3, 0.17])
_fuzz = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_rintce_zero_on_calibrated_endpoints():
    d = make_empirical([(0.0, 0), (1.0, 1)])
    for width in (1.0, 0.5, 0.125, 0.3):
        assert rintce_exact(d, width) == 0.0
        assert rintce_hat(d, width, 50, SeededRng(1)) == 0.0


def test_rintce_single_sample():
    d = make_empirical([(0.5, 1)])
    assert rintce_exact(d, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert rintce_hat(d, 1.0, 200, SeededRng(2)) == pytest.approx(0.5, abs=1e-15)


def test_rintce_two_point_closed_form():
    # residuals +-0.75 at distance 0.5: with width 1 the points share a bin
    # with probability 1/2 (contribution 0, the residuals cancel) and split
    # otherwise (contribution 0.75); with width exactly 0.5 a bin boundary
    # always falls between them.
    d = make_empirical([(0.25, 1), (0.75, 0)])
    assert rintce_exact(d, 1.0) == pytest.approx(0.375, abs=1e-12)
    assert rintce_exact(d, 0.5) == pytest.approx(0.75, abs=1e-12)


def _moment_instances():
    """50 rows at three decimals, tied among 12 values, and 50 at full precision."""
    rng = np.random.default_rng(20)
    tied = rng.choice(np.round(rng.random(12), 3), 50)
    full = rng.random(50)
    return [make_empirical(list(zip(v, (rng.random(50) < v**2).astype(int))))
            for v in (tied, full)]


def _assert_shift_moments(estimate, d, width, shifts_m, seeds=2000):
    # Over seeds 0..seeds-1, the estimates' mean lies within 4 standard errors
    # of rintce_exact and their variance near the exact one: a single shift
    # lands on piece i with probability p_i = length_i / width, so the mean of
    # shifts_m has variance sum p_i (value_i - exact)^2 / shifts_m.
    exact = rintce_exact(d, width)
    breaks, values = shift_profile_loop(d, width)
    p = np.diff(np.concatenate([[0.0], breaks, [width]])) / width
    var = float(np.sum(p * (values - exact) ** 2)) / shifts_m
    est = np.array([estimate(d, width, shifts_m, SeededRng(seed)) for seed in range(seeds)])
    assert abs(est.mean() - exact) <= 4 * np.sqrt(var / seeds)
    assert 0.85 <= est.var(ddof=1) / var <= 1.15


def test_rintce_hat_has_the_shift_distribution():
    for d in _moment_instances():
        _assert_shift_moments(rintce_hat, d, 0.125, 1000)


def test_rintce_matches_direct_monte_carlo():
    # The direct estimator bins every draw in Python, so it makes 20 draws a seed.
    for d in _moment_instances():
        _assert_shift_moments(rintce_mc_direct, d, 0.125, 20)


def test_zero_length_pieces_are_never_drawn():
    # 0.25 and 0.75 cross at the same shift 0.25, so the profile value
    # between their two breaks, 1.4/3 with all three samples apart, sits on a
    # piece of length 0; the pieces of positive length hold 0.2 and 0.3.
    d = make_empirical([(0.25, 1), (0.4, 0), (0.75, 1)])
    u, _, _, R = d.grouped()
    breaks, values = _shift_profile(u, R, d.n, 0.5)
    assert breaks.tolist() == [0.25, 0.25, 0.4]
    assert values.tolist() == pytest.approx([0.2, 1.4 / 3, 0.3, 0.2], abs=1e-15)
    drawn = {rintce_hat(d, 0.5, 1, SeededRng(seed)) for seed in range(300)}
    assert values[2] in drawn and drawn <= {values[0], values[2], values[3]}


def test_rintce_hat_converges_to_exact():
    rng = np.random.default_rng(21)
    for _ in range(5):
        d = random_distribution(rng, max_n=80)
        exact = rintce_exact(d, 0.25)
        est = rintce_hat(d, 0.25, 20_000, SeededRng(5))
        assert est == pytest.approx(exact, abs=0.02)


def test_rintce_monotone_in_width():
    # doubling the width never increases the exact randomized-shift error
    rng = np.random.default_rng(22)
    for _ in range(20):
        d = random_distribution(rng, max_n=100)
        for eps in (0.05, 0.1, 0.25, 0.5):
            assert rintce_exact(d, 2 * eps) <= rintce_exact(d, eps) + 1e-12


def test_rintce_range_and_errors():
    rng = np.random.default_rng(23)
    for _ in range(20):
        d = random_distribution(rng, max_n=50)
        val = rintce_exact(d, 0.31)
        assert 0.0 <= val <= 1.0
    with pytest.raises(BadWidth):
        rintce_exact(make_empirical([(0.5, 1)]), 0.0)
    with pytest.raises(BadWidth):
        rintce_hat(make_empirical([(0.5, 1)]), 1.5, 10, SeededRng(0))


def test_width_exponent_rule():
    assert width_exponent(0.01) == 8  # eps/4 < 2^-8 = 0.0039.. <= eps/2
    assert width_exponent(0.5) == 2
    assert default_shifts(0.01) >= 1


def test_subnormal_eps_raises_bad_width():
    # 2 / eps overflows below about 1.1e-308; k* still follows the rule there
    assert width_exponent(1e-300) == 998
    assert width_exponent(1e-310) == 1031 and width_exponent(5e-324) == 1075
    d = make_empirical([(0.1, 1), (0.9, 0)])
    for eps in (1e-310, 5e-324):
        with pytest.raises(BadWidth):
            sintce_exact(d, eps)
        with pytest.raises(BadWidth):
            sintce_hat(d, IntervalEstimatorConfig(epsilon=eps, shifts_m=100))


def test_estimator_config_validation():
    with pytest.raises(BadConfig):
        IntervalEstimatorConfig(epsilon=0.0)
    with pytest.raises(BadConfig):
        IntervalEstimatorConfig(epsilon=1.0)
    with pytest.raises(BadConfig):
        IntervalEstimatorConfig(epsilon=0.1, shifts_m=0)
    assert IntervalEstimatorConfig(epsilon=0.01).resolved_shifts() == default_shifts(0.01)


def test_shift_counts_must_be_positive_integers():
    d = make_empirical([(0.2, 1), (0.7, 0)])
    for bad in (2.5, "3", True, 0, -1):
        message = re.escape(f"shifts_m must be a positive integer, got {bad!r}")
        with pytest.raises(BadConfig, match=message):
            IntervalEstimatorConfig(epsilon=0.1, shifts_m=bad)
        with pytest.raises(BadConfig, match=message):
            rintce_hat(d, 0.5, bad, SeededRng(0))
    # any integer type is a count
    assert rintce_hat(d, 0.5, np.int64(30), SeededRng(0)) == rintce_hat(d, 0.5, 30, SeededRng(0))
    cfg = IntervalEstimatorConfig(epsilon=0.1, shifts_m=np.int32(30), rng=SeededRng(1))
    assert type(cfg.resolved_shifts()) is int
    assert sintce_hat(d, cfg) == sintce_hat(
        d, IntervalEstimatorConfig(epsilon=0.1, shifts_m=30, rng=SeededRng(1)))
    # a numpy count is a Python int before the count guard compares it
    assert rintce_hat(d, 0.5, np.int64(2**62), SeededRng(0)) == pytest.approx(
        rintce_exact(d, 0.5), abs=1e-6)
    cfg = IntervalEstimatorConfig(epsilon=0.1, shifts_m=np.int64(2**62))
    assert 0.0 < sintce_hat(d, cfg) <= 2.0
    with pytest.raises(TooLarge):
        rintce_hat(d, 0.5, np.uint64(2**63), SeededRng(0))
    with pytest.raises(TooLarge):
        sintce_hat(d, IntervalEstimatorConfig(epsilon=0.1, shifts_m=np.uint64(2**63)))


def test_draw_count_guard_raises_before_allocating():
    # The piece counts are int64, so 2^63 - 1 draws per width is the most.
    # Nothing shifts_m long is allocated: eps 1e-4 (4,563,025,980 draws at
    # each of 16 widths) gives a value.
    d = make_empirical([(0.2, 1), (0.7, 0)])
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=f"^{2**63} shift draws per width"):
            rintce_hat(d, 0.5, 2**63, SeededRng(0))
        with pytest.raises(TooLarge, match=f"^{default_shifts(1e-20)} shift draws per width"):
            sintce_hat(d, IntervalEstimatorConfig(epsilon=1e-20))
        most = rintce_hat(d, 1.0, 2**63 - 1, SeededRng(0))
        value = sintce_hat(d, IntervalEstimatorConfig(epsilon=1e-4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert default_shifts(1e-4) == 4_563_025_980
    assert most == pytest.approx(rintce_exact(d, 1.0), abs=1e-6)
    assert value == pytest.approx(sintce_exact(d, 1e-4), abs=1e-12)


def test_sintce_calibrated_floor():
    d = make_empirical([(0.0, 0), (1.0, 1)])
    assert sintce_exact(d, 0.01) == pytest.approx(2**-8, abs=1e-15)
    cfg = IntervalEstimatorConfig(epsilon=0.01, shifts_m=100, rng=SeededRng(3))
    assert sintce_hat(d, cfg) == pytest.approx(2**-8, abs=1e-15)


def test_sintce_single_sample():
    # every width >= the support sees the full 0.5 residual, so the dyadic
    # minimization bottoms out at width 2^-2 from k* = 2
    d = make_empirical([(0.5, 1)])
    assert sintce_exact(d, 0.5) == pytest.approx(0.75, abs=1e-12)


def test_sintce_gap_fixture_stays_large():
    gamma = induce_gamma_exact(gap_quadratic(0.2))
    assert sintce_exact(gamma, 0.01) >= 0.2


def test_sintce_deterministic_given_seed():
    rng = np.random.default_rng(24)
    d = random_distribution(rng, max_n=120)
    cfg = lambda: IntervalEstimatorConfig(epsilon=0.05, shifts_m=500, rng=SeededRng(11))
    assert sintce_hat(d, cfg()) == sintce_hat(d, cfg())


def test_sintce_sits_in_the_distance_chain():
    # post-processing distance <= sintce (+ estimator error) <= 6 sqrt(ldce)
    from calibdist import ldce, udce_bruteforce

    slack = 3 * (0.005 + 0.005) + 1e-6
    rng = np.random.default_rng(26)
    checked = 0
    while checked < 15:
        d = random_distribution(rng, max_n=60)
        if len(np.unique(d.v)) > 9:
            continue
        checked += 1
        s = sintce_exact(d, 0.01)
        assert udce_bruteforce(d) <= s + 0.02
        assert s <= 6 * np.sqrt(ldce(d) + slack) + 0.02


def test_sintce_range():
    rng = np.random.default_rng(25)
    for _ in range(10):
        d = random_distribution(rng, max_n=60)
        val = sintce_hat(d, IntervalEstimatorConfig(epsilon=0.1, shifts_m=50, rng=SeededRng(4)))
        assert 0.0 < val <= 2.0
        exact = sintce_exact(d, 0.1)
        assert 0.0 < exact <= 2.0


# Five pairs whose width-1 profile summed to -5.55e-18 where the walk reads 0
_ROUNDS_BELOW_ZERO = [(0.7, 1), (0.4, 1), (0.6, 0), (0.2, 0), (0.1, 0)]

# Tenths and sevenths, whose residual sums cancel only up to round-off;
# hundredths and full precision; few tied values with many samples each.
_decimal = st.one_of(st.integers(0, 10).map(lambda k: k / 10),
                     st.integers(0, 7).map(lambda k: k / 7),
                     st.integers(0, 100).map(lambda k: k / 100),
                     st.floats(0.0, 1.0))
_clamp_samples = st.one_of(
    st.lists(st.tuples(_decimal, st.integers(0, 1)), min_size=1, max_size=40),
    st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.2, 0.3, 1 / 7, 3 / 7, 0.7, 1.0]),
                       st.integers(0, 1)), min_size=2, max_size=200),
)


@_fuzz
@given(_clamp_samples)
@example(_ROUNDS_BELOW_ZERO)
def test_profile_values_are_never_negative(samples):
    # The stop rule in sintce relies on every estimate being >= 0.
    d = make_empirical(samples)
    u, _, _, R = d.grouped()
    for width in [2.0**-k for k in range(12)] + [0.3, 1 / 7]:
        assert _shift_profile(u, R, d.n, width)[1].min() >= 0.0


@_fuzz
@given(st.one_of(_samples, _clamp_samples), st.sampled_from([0.5, 0.2, 0.05, 0.01, 0.002]),
       st.integers(1, 3000), st.integers(0, 2**32))
@example([(0.5, 0), (0.5, 1)], 0.01, 100, 0)  # only the narrowest width is evaluated
@example(_ROUNDS_BELOW_ZERO, 0.5, 7, 1)
@example([(0.5, 0), (0.6, 1)], 0.05, 1000, 2)  # 2^-2 wins (0.46) after 2^-6 gave 0.466
def test_sintce_stop_rule_keeps_the_all_widths_min(samples, epsilon, shifts_m, seed):
    d = make_empirical(samples)
    assert sintce_exact(d, epsilon).hex() == sintce_all_widths(d, epsilon).hex()
    cfg = IntervalEstimatorConfig(epsilon=epsilon, shifts_m=shifts_m, rng=SeededRng(seed))
    want = sintce_all_widths(d, epsilon, shifts_m, SeededRng(seed))
    assert sintce_hat(d, cfg).hex() == want.hex()


def test_sintce_stops_at_the_first_width_that_cannot_win(monkeypatch):
    from calibdist import interval

    widths = []
    profile = interval._shift_profile
    monkeypatch.setattr(interval, "_shift_profile",
                        lambda u, R, n, width: widths.append(width) or profile(u, R, n, width))
    # exactly calibrated: est = 0 at 2^-8, and 2^-7 already cannot win
    calibrated = make_empirical([(0.5, 0), (0.5, 1)])
    assert sintce_exact(calibrated, 0.01) == 2.0**-8
    cfg = IntervalEstimatorConfig(epsilon=0.01, shifts_m=100, rng=SeededRng(3))
    assert sintce_hat(calibrated, cfg) == 2.0**-8
    assert widths == [2.0**-8, 2.0**-8]
    # est = 0.5 at every width: 1/4 gives 0.75, 1/2 gives 1.0, and 1 >= 0.75 stops
    widths.clear()
    assert sintce_exact(make_empirical([(0.5, 1)]), 0.5) == 0.75
    assert widths == [0.25, 0.5]


# Values within a few ulps of k * w at the non-dyadic widths w, where
# floor(v / w) and the drift guard decide the bin: the sweep needs the guarded
# bin numbers nondecreasing along the sorted values.
_near_multiple = st.builds(lambda w, k, j: min(max(k * w + j * math.ulp(k * w), 0.0), 1.0),
                           st.sampled_from([0.3, 0.17, 1 / 3]), st.integers(0, 5),
                           st.integers(-6, 6))
# Full precision and -0.0 next to the grids; many ties among few values; values
# next to multiples of the non-dyadic widths; the widths of eps = 0.001 (down
# to 2^-11), non-dyadic ones and a narrow one whose bin numbers the profile
# compacts.
_profile_samples = st.one_of(
    st.lists(st.tuples(st.one_of(_prediction, st.floats(0.0, 1.0), st.just(-0.0)),
                       st.integers(0, 1)), min_size=1, max_size=80),
    st.lists(st.tuples(st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0]), st.integers(0, 1)),
             min_size=20, max_size=300),
    st.lists(st.tuples(_near_multiple, st.integers(0, 1)), min_size=1, max_size=80),
)
_profile_width = st.sampled_from([2.0**-k for k in range(12)] + [0.3, 0.17, 1 / 3, 2.0**-30])


# The grouped profile sums each value's residuals as ones - count * u and
# takes a bin's sum as a difference of one prefix sum over the sorted values,
# the walk sample by sample in input order, so the values differ by
# round-off; the breaks are equal.
_PROFILE_TOL = 1e-14


def _assert_matches_loop(d, width):
    want_breaks, want_values = shift_profile_at_group_ends(d, width)
    u, _, _, R = d.grouped()
    breaks, values = _shift_profile(u, R, d.n, width)
    assert len(breaks) == len(want_breaks) and (breaks == want_breaks).all()
    assert np.abs(values - want_values).max() <= _PROFILE_TOL


@_fuzz
@given(_profile_samples, _profile_width)
@example([(0.5, 1)], 1.0)  # n = 1
@example([(0.0, 0), (1.0, 1), (1.0, 0), (0.0, 1)], 0.5)  # both ends, tied
@example([(0.3, 1)] * 5 + [(0.6, 0)] * 3, 0.3)  # v a multiple of the width
@example([(0.17, 0), (0.34, 1), (0.51, 1)], 0.17)
@example([(0.0, 1), (0.5, 0), (0.5000001, 1), (1.0, 0)], 1e-9)  # ~10^9 bins
@example([(-0.0, 1), (0.0, 0), (-0.0, 0), (0.5, 1), (0.0, 1)], 0.25)  # signed zeros, rho ties
@example([(k / 1000, k % 2) for k in range(0, 1001, 7)] * 3, 2.0**-9)
@example([(float(np.nextafter(1.0, 0.0)), 1), (1.0, 0), (0.5, 1), (2 / 3, 0)], 1 / 3)  # drift
def test_shift_profile_matches_loop_at_group_ends(samples, width):
    # One event per distinct prediction: the walk's breaks and values at the
    # last event of each tie group, with -0.0 and 0.0 one group.
    _assert_matches_loop(make_empirical(samples), width)


def test_narrow_widths_with_compacted_bins_match_loop():
    # Tens of thousands of occupied bins: at width 2^-16 the bin numbers q span
    # about 2^16, fewer than 2d, so most gaps between occupied bins are 1 or 2
    # and compaction keeps them; at 2^-17 at least 2^15 bins are occupied and
    # the compacted numbers pass 2^15.
    n = 40_000
    v = np.random.default_rng(28).random(n)
    assert 2**15 <= np.ptp(np.floor(v * 2**16)) + 1 <= 2 * len(np.unique(v))
    assert len(np.unique(np.floor(v * 2**17))) >= 2**15  # compacted numbers reach at least this
    d = make_empirical(list(zip(v, (v > 0.3).astype(int))))
    for width in (2.0**-16, 2.0**-17, 2.0**-11):
        _assert_matches_loop(d, width)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is float64 on this platform")
def test_profile_values_are_rounded_once():
    # Summed in float64, the prefix sums and the running total each drift by
    # about 1e-14 relative over 2*10^4 values; summed in long double and
    # rounded once, the values stay within a few ulps of the exact walk.
    rng = np.random.default_rng(31)
    v = rng.random(20_000)
    d = EmpiricalDistribution(v, (rng.random(20_000) < v).astype(np.int8))
    u, _, _, R = d.grouped()
    assert len(u) == d.n  # no ties: the per-sample walk has the profile's events
    for width in (1.0, 2.0**-3, 0.3, 2.0**-11):
        want_breaks, want_values = shift_profile_loop(d, width, exact=True)
        breaks, values = _shift_profile(u, R, d.n, width)
        assert (breaks == want_breaks).all()
        assert np.abs(values / want_values - 1).max() <= 2e-15


def _same_draws_instances():
    """Tied at three decimals, full precision, and signed zeros among ties."""
    rng = np.random.default_rng(29)
    tied = np.round(rng.random(400), 3)[rng.integers(0, 40, 400)]
    full = rng.random(300)
    signed = rng.choice([-0.0, 0.0, 0.25, 0.5, 0.625, 1.0], 200)
    return [make_empirical(list(zip(v, (rng.random(len(v)) < v).astype(int))))
            for v in (tied, full, signed)]


def test_grouped_draws_match_the_per_sample_walk():
    # The same multinomial call on the per-sample walk draws the same counts
    # on every piece of positive length, so the estimates agree to round-off.
    for d in _same_draws_instances():
        for seed in range(5):
            for width in (1.0, 0.25, 2.0**-6, 0.3):
                assert abs(rintce_hat(d, width, 1000, SeededRng(seed))
                           - rintce_hat_loop(d, width, 1000, SeededRng(seed))) <= 1e-15
            cfg = IntervalEstimatorConfig(epsilon=0.02, shifts_m=5000, rng=SeededRng(seed))
            want = sintce_hat_loop(d, 0.02, 5000, SeededRng(seed))
            assert abs(sintce_hat(d, cfg) - want) <= 1e-15


def test_sintce_exact_memory_is_per_distinct_value():
    # 10^5 rows on 1,001 values: the grouping sorts n pairs once, and every
    # per-width array is d-long (a per-sample sweep peaked at 10.5 MiB).
    rng = np.random.default_rng(30)
    v = np.round(rng.random(100_000), 3)
    d = EmpiricalDistribution(v, (rng.random(100_000) < v).astype(np.int8))
    assert len(np.unique(v)) == 1001
    tracemalloc.start()
    try:
        sintce_exact(d, 0.01)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_tiny_widths_raise_bad_width(monkeypatch):
    # floor(v / width) must fit in int64: 0.9 / 2^-63 does, 0.9 / 2^-64 not
    d = make_empirical([(0.1, 1), (0.5, 0), (0.9, 1)])
    assert rintce_exact(d, 2.0**-63) == pytest.approx(0.5, abs=1e-12)
    assert rintce_hat(d, 2.0**-63, 100, SeededRng(1)) == pytest.approx(0.5, abs=1e-12)
    for width in (2.0**-64, 1e-200, 1e-310):
        with pytest.raises(BadWidth):
            rintce_exact(d, width)
        with pytest.raises(BadWidth):
            rintce_hat(d, width, 100, SeededRng(1))
    # sintce checks its narrowest width before it builds any profile
    built = []
    monkeypatch.setattr("calibdist.interval._shift_profile", lambda *a: built.append(a))
    for eps in (1e-20, 1e-200):  # widths down to 2^-67 and 2^-666
        with pytest.raises(BadWidth):
            sintce_exact(d, eps)
    with pytest.raises(BadWidth):
        sintce_hat(d, IntervalEstimatorConfig(epsilon=1e-20, shifts_m=100))
    assert built == []


@_fuzz
@given(_samples, st.integers(2, 4), _width, st.data())
def test_exact_interval_errors_invariant_under_permutation_and_repetition(
        samples, k, width, data):
    # The grouping reads only the sorted pairs, so a permutation keeps every
    # bit; repetition scales the residual sums, so only to round-off.
    d = make_empirical(samples)
    rint, sint = rintce_exact(d, width), sintce_exact(d, 0.05)
    c = make_empirical(data.draw(st.permutations(samples)))
    assert (rintce_exact(c, width), sintce_exact(c, 0.05)) == (rint, sint)
    c = make_empirical(samples * k)
    assert abs(rintce_exact(c, width) - rint) <= 1e-12
    assert abs(sintce_exact(c, 0.05) - sint) <= 1e-12


def test_rintce_exact_bits_independent_of_blas_threads():
    # The value was a BLAS dot of the profile values and piece lengths.
    probe = (BLAS_PROBE_DIST
             + "from calibdist import rintce_exact\nprint(rintce_exact(d, 2**-7).hex())\n")
    bits = stdout_per_blas_threads(probe)
    assert bits[0] == bits[1]
