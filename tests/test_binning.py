import numpy as np
import pytest

from calibdist import (
    MAX_BINS,
    BadBins,
    IntervalPartition,
    binned_ece,
    ece,
    f_eps,
    induce_gamma_exact,
    make_empirical,
    udce_bruteforce,
    uniform_partition,
)

from _oracles import BLAS_PROBE_DIST, random_distribution, stdout_per_blas_threads


def test_ece_examples():
    assert ece(make_empirical([(0.5, 1), (0.5, 0)])) == 0.0
    assert ece(make_empirical([(0.3, 1)])) == pytest.approx(0.7, abs=1e-15)
    # the classic robust-completeness failure: ECE stays near 1/2
    gamma = induce_gamma_exact(f_eps(0.01))
    assert ece(gamma) == pytest.approx(0.49, abs=1e-12)


def test_uniform_partition():
    assert np.array_equal(uniform_partition(1).boundaries, [0.0, 1.0])
    assert np.array_equal(uniform_partition(2).boundaries, [0.0, 0.5, 1.0])
    p = uniform_partition(20)
    assert len(p.boundaries) == 21
    assert np.allclose(p.widths(), 0.05)
    assert np.array_equal(uniform_partition(np.int64(20)).boundaries, p.boundaries)
    with pytest.raises(BadBins):
        uniform_partition(0)
    for bins in (20.0, "20"):
        with pytest.raises(BadBins, match=f"bins must be a positive integer, got {bins!r}"):
            uniform_partition(bins)


def test_interval_partition_validation():
    with pytest.raises(BadBins):
        IntervalPartition((0.0, 0.5))
    with pytest.raises(BadBins):
        IntervalPartition((0.0, 0.5, 0.5, 1.0))
    with pytest.raises(BadBins):
        IntervalPartition((0.1, 1.0))
    for bad in ((0.0, float("nan"), 1.0), (float("nan"), 1.0), (0.0, float("nan"))):
        with pytest.raises(BadBins):
            IntervalPartition(bad)


def test_binned_ece_examples():
    part = uniform_partition(4)
    assert binned_ece(make_empirical([(0.0, 0), (1.0, 1)]), part) == 0.0

    d = make_empirical([(0.2, 0), (0.2, 1), (0.8, 1), (0.8, 1)])
    two = IntervalPartition((0.0, 0.5, 1.0))
    # |0.2 + (0.2-1)|/4 + |2*(0.8-1)|/4 = 0.15 + 0.10
    assert binned_ece(d, two) == pytest.approx(0.25, abs=1e-15)

    # with 20 equal bins the width penalty contributes exactly 0.05
    p20 = uniform_partition(20)
    base = binned_ece(d, p20)
    assert binned_ece(d, p20, width_penalty=True) == pytest.approx(base + 0.05, abs=1e-15)


def test_binned_ece_boundary_half_open():
    # 0.5 belongs to the upper interval of {0, 0.5, 1}; 1.0 to the last
    d = make_empirical([(0.5, 0), (1.0, 1)])
    part = IntervalPartition((0.0, 0.5, 1.0))
    assert binned_ece(d, part) == pytest.approx(0.25, abs=1e-15)


def test_ece_dominates_binned_ece():
    rng = np.random.default_rng(10)
    for _ in range(50):
        d = random_distribution(rng)
        for part in (uniform_partition(1), uniform_partition(3), uniform_partition(20)):
            assert ece(d) >= binned_ece(d, part) - 1e-12


def test_ece_equals_binned_with_separating_partition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        d = random_distribution(rng, max_n=60)
        values = np.unique(d.v)
        cuts = [0.0]
        for a, b in zip(values[:-1], values[1:]):
            cuts.append((a + b) / 2)
        cuts.append(1.0)
        cuts = sorted(set(cuts))
        if len(cuts) < 2:
            continue
        part = IntervalPartition(tuple(cuts))
        assert binned_ece(d, part) == pytest.approx(ece(d), abs=1e-12)


def test_perfectly_calibrated_fixture_all_zero():
    d = make_empirical([(0.0, 0), (1.0, 1)])
    assert ece(d) == 0.0
    assert binned_ece(d, uniform_partition(7)) == 0.0
    assert binned_ece(d, uniform_partition(7), width_penalty=True) == pytest.approx(
        7 / 7 * (1 / 7), abs=1e-15
    )  # penalty only: both samples in width-1/7 bins


def test_binned_with_penalty_dominates_upper_distance():
    # binnedECE + average width upper-bounds the post-processing distance
    rng = np.random.default_rng(12)
    for _ in range(40):
        d = random_distribution(rng, max_n=60)
        if len(np.unique(d.v)) > 9:
            continue
        u = udce_bruteforce(d)
        for part in (uniform_partition(1), uniform_partition(2), uniform_partition(5),
                     uniform_partition(20)):
            assert binned_ece(d, part, width_penalty=True) >= u - 1e-9


def test_width_penalty_bits_independent_of_blas_threads():
    # The penalty was a BLAS dot of the bin masses and widths.
    probe = (BLAS_PROBE_DIST + "from calibdist import binned_ece, uniform_partition\n"
             "print(binned_ece(d, uniform_partition(100_000), width_penalty=True).hex())\n")
    bits = stdout_per_blas_threads(probe)
    assert bits[0] == bits[1]


def test_uniform_partition_bins_cap():
    assert uniform_partition(MAX_BINS).m == MAX_BINS
    for bins in (MAX_BINS + 1, 10**11):
        with pytest.raises(BadBins, match=f"at most {MAX_BINS}, got {bins}"):
            uniform_partition(bins)
