import numpy as np
import pytest

from calibdist import (
    MAX_BINS,
    BadBins,
    BadLabel,
    BadStep,
    EmptyInput,
    EmpiricalDistribution,
    OutOfRange,
    SeededRng,
    make_empirical,
    reliability_bins,
    round_to_grid,
    uniform_partition,
)

from calibdist.core import distinct_predictions

from _oracles import distinct_predictions_reduceat, random_distribution, reliability_bins_masks


def test_make_empirical_minimal():
    d = make_empirical([(0.5, 1)])
    assert d.n == 1
    assert d.pairs() == [(0.5, 1)]


def test_make_empirical_out_of_range():
    with pytest.raises(OutOfRange):
        make_empirical([(0.2, 0), (1.2, 1)])


def test_nan_prediction_rejected():
    # every comparison with NaN is false, so a plain range test lets it through
    with pytest.raises(OutOfRange):
        make_empirical([(0.2, 0), (float("nan"), 1)])
    with pytest.raises(OutOfRange):
        EmpiricalDistribution(np.array([np.nan, 0.4]), np.array([0, 1]))


def test_make_empirical_bad_label():
    with pytest.raises(BadLabel):
        make_empirical([(0.2, 2)])


def test_make_empirical_empty():
    with pytest.raises(EmptyInput):
        make_empirical([])


def test_round_trip_preserves_order_and_values():
    pairs = [(0.3, 1), (0.7, 0)]
    d = make_empirical(pairs)
    assert d.n == 2
    assert d.pairs() == pairs
    # arbitrary inputs round-trip, including duplicates and endpoints
    rng = np.random.default_rng(0)
    pairs = [(float(v), int(y)) for v, y in zip(rng.random(50).round(2), rng.integers(0, 2, 50))]
    assert make_empirical(pairs).pairs() == pairs


def test_distribution_is_immutable():
    d = make_empirical([(0.3, 1)])
    with pytest.raises(ValueError):
        d.v[0] = 0.5


def test_grouped_view_is_read_only_and_cached():
    d = make_empirical([(0.5, 1), (0.0, 1), (0.5, 0), (-0.0, 0), (0.5, 1)])
    view = d.grouped()
    u, count, ones, R = view
    assert u.tolist() == [0.0, 0.5] and np.signbit(u).tolist() == [False, False]
    assert count.tolist() == [2, 3] and ones.tolist() == [1.0, 2.0]
    assert R.tolist() == [1.0, 0.5]
    for column in view:
        with pytest.raises(ValueError):
            column[0] = 0.25
    assert d.grouped() is view


def test_distinct_predictions_match_the_grouping_pass_bitwise():
    # without ties the sorted samples are returned as the groups; with ties the
    # groups are reduced: both must give the arrays of the reducing pass
    rng = np.random.default_rng(41)
    tie_free = [rng.random(n) for n in (1, 2, 1000)] + [np.array([0.0, 1.0]), np.array([-0.0, 0.5])]
    tied = [np.round(rng.random(1000), 2), np.array([0.5, 0.5]), np.array([0.0, -0.0, 1.0])]
    for v in tie_free + tied:
        d = EmpiricalDistribution(v, (rng.random(len(v)) < 0.5).astype(np.int8))
        got, expected = distinct_predictions(d), distinct_predictions_reduceat(d)
        assert (len(got[0]) == d.n) == any(v is w for w in tie_free)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
            assert not a.flags.writeable


def test_round_to_grid_examples():
    assert round_to_grid(make_empirical([(0.26, 1)]), 0.25).pairs() == [(0.25, 1)]
    # exact tie goes to the larger grid point
    assert round_to_grid(make_empirical([(0.125, 0)]), 0.25).pairs() == [(0.25, 0)]
    # nearest multiple of 0.3 inside [0, 1]
    out = round_to_grid(make_empirical([(1.0, 1)]), 0.3)
    assert out.v[0] == pytest.approx(0.9, abs=1e-12)


def test_round_to_grid_bad_step():
    d = make_empirical([(0.5, 1)])
    for step in (0.0, -0.1, 1.5):
        with pytest.raises(BadStep):
            round_to_grid(d, step)


def test_round_to_grid_contract():
    rng = np.random.default_rng(1)
    # force the awkward region near 1 where the nearest multiple can exceed 1
    v = np.concatenate([rng.random(500), np.linspace(0.97, 1.0, 31)])
    d = make_empirical([(float(x), 0) for x in v])
    for step in (0.005, 0.1, 0.22, 0.25, 0.3, 0.7, 1.0):
        out = round_to_grid(d, step)
        assert np.all(np.abs(out.v - v) <= step / 2 + 1e-12)
        assert np.all(out.v <= 1.0) and np.all(out.v >= 0.0)
        # every output is (numerically) a multiple of step, or 1
        k = out.v / step
        mult = np.abs(k - np.round(k)) < 1e-9
        assert np.all(mult | (out.v == 1.0))
        # labels unchanged
        assert np.array_equal(out.y, d.y)


def test_round_to_grid_idempotent():
    rng = np.random.default_rng(2)
    d = make_empirical([(float(x), 1) for x in rng.random(300)])
    for step in (0.005, 0.01, 0.3, 0.25):
        once = round_to_grid(d, step)
        twice = round_to_grid(once, step)
        assert np.array_equal(once.v, twice.v)


def test_reliability_bins_examples():
    bins = reliability_bins(make_empirical([(0.1, 0), (0.9, 1)]), 2)
    assert bins.count.tolist() == [1, 1]
    assert bins.mean_y.tolist() == [0.0, 1.0]
    assert bins.lo.tolist() == [0.0, 0.5] and bins.hi.tolist() == [0.5, 1.0]

    # half-open convention: 0.5 lands in the upper bin
    bins = reliability_bins(make_empirical([(0.5, 1)]), 2)
    assert bins.count.tolist() == [0, 1]
    assert np.isnan(bins.mean_v[0]) and np.isnan(bins.mean_y[0])

    # top bin is closed at 1
    bins = reliability_bins(make_empirical([(1.0, 1)]), 4)
    assert bins.count.tolist() == [0, 0, 0, 1]


def test_reliability_bins_counts_sum():
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(1, 200))
        d = make_empirical([(float(v), int(y))
                            for v, y in zip(rng.random(n), rng.integers(0, 2, n))])
        for bins in (1, 2, 7, 20):
            out = reliability_bins(d, bins)
            assert out.count.sum() == n


def test_reliability_bins_bad_bins():
    d = make_empirical([(0.5, 1)])
    with pytest.raises(BadBins):
        reliability_bins(d, 0)
    assert reliability_bins(d, np.int64(4)).count.tolist() == [0, 0, 1, 0]
    for bins in (4.0, "4"):
        with pytest.raises(BadBins, match=f"bins must be a positive integer, got {bins!r}"):
            reliability_bins(d, bins)


def test_reliability_bins_cap():
    d = make_empirical([(0.5, 1), (1.0, 0)])
    out = reliability_bins(d, MAX_BINS)
    assert out.count.size == MAX_BINS and out.count.sum() == 2
    for bins in (MAX_BINS + 1, 10**11):
        with pytest.raises(BadBins, match=f"at most {MAX_BINS}, got {bins}"):
            reliability_bins(d, bins)


def test_reliability_bins_match_masks_bitwise():
    def hexed(x):
        return None if x is None or np.isnan(x) else x.hex()

    def fields(rows):
        return [(lo, hi, count, hexed(mean_v), hexed(mean_y))
                for lo, hi, count, mean_v, mean_y in rows]

    rng = np.random.default_rng(41)
    for _ in range(60):
        d = random_distribution(rng, max_n=3000)
        for bins in (1, 2, 7, 20, 1000):
            columns = reliability_bins(d, bins)
            got = fields(zip(*(c.tolist() for c in columns)))
            assert got == fields(reliability_bins_masks(d, bins))


def test_reliability_bins_match_partition_at_edges():
    # floor(v * bins) put these one bin low or high; binned_ece's partition decides
    assert reliability_bins(make_empirical([(0.44999999999999996, 1)]), 20).count[8] == 1
    assert reliability_bins(make_empirical([(1 / 49, 1)]), 49).count[1] == 1
    for bins in (7, 20, 49, 1000):
        edges = np.arange(bins + 1) / bins
        v = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])
        columns = reliability_bins(EmpiricalDistribution(v, np.ones(v.size)), bins)
        want = np.bincount(uniform_partition(bins).bin_index(v), minlength=bins)
        assert columns.count.tolist() == want.tolist()
        assert columns.lo.tolist() == edges[:-1].tolist()
        assert columns.hi.tolist() == edges[1:].tolist()


def test_seeded_rng_reproducible():
    a = SeededRng(42)
    b = SeededRng(42)
    assert np.array_equal(a.random(100), b.random(100))
    assert np.array_equal(a.uniform(0, 0.5, 10), b.uniform(0, 0.5, 10))
    # substreams are independent of draw order on the parent
    s1 = SeededRng(7).substream(3).random(5)
    parent = SeededRng(7)
    parent.random(50)
    s2 = parent.substream(3).random(5)
    assert np.array_equal(s1, s2)
    # different seeds diverge
    assert not np.array_equal(SeededRng(1).random(10), SeededRng(2).random(10))


def test_seeded_rng_rejects_seeds_outside_64_bits():
    from calibdist.errors import BadConfig

    for seed in (-1, 2**64):
        with pytest.raises(BadConfig, match="seed must be"):
            SeededRng(seed)
    assert SeededRng(2**64 - 1).seed == 2**64 - 1
