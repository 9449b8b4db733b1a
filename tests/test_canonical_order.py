"""The packed-key sort that puts (v, y) pairs in canonical order, the grouped
view built from it, and the metrics that read them: differential tests against
the lexsort, unique and per-sample oracles, and invariance under permutation
and repetition."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibdist import (
    IntervalPartition,
    KernelEstimatorConfig,
    KernelKind,
    SeededRng,
    binned_ece,
    ece,
    kce_estimate_squared,
    kce_exact,
    ldce,
    make_empirical,
    smce,
    uniform_partition,
)
from calibdist.cli import _read_samples
from calibdist.core import sorted_pairs
from calibdist.kernel import _binning_draws, _fourier_draws
from calibdist.lowerdist import _discretize

from _oracles import (binned_ece_per_sample, discretize_lexsort, ece_unique, kce2_longdouble,
                      kce_exact_lexsort, kce_exact_unique, random_distribution, smce_per_sample,
                      sorted_pairs_lexsort)

# Any float in [0, 1], the edge values (signed zero, the smallest subnormal,
# one), and a 1e-3 grid that ties predictions as quantized files do.
_prediction = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 0.5, 1.0]),
    st.integers(0, 1000).map(lambda k: k / 1000),
)
_samples = st.lists(st.tuples(_prediction, st.integers(0, 1)), min_size=1, max_size=60)
_fuzz = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def _edge_cases(test):
    for samples in (
        [(0.3, 1)],  # n = 1
        [(0.0, 1), (-0.0, 0), (0.0, 0), (-0.0, 1), (0.25, 0)],  # signed zeros mixed
        [(0.7, 1), (0.7, 0), (0.7, 0), (0.7, 1)],  # every prediction tied
        [(5e-324, 1), (0.0, 0), (5e-324, 0), (1e-300, 1)],  # the smallest subnormal
        [(1.0, 0), (1.0, 1), (0.999, 1), (1.0, 0)],  # one, the largest key
        [(0.5, 1), (0.5, 0)],  # both labels on one value
    ):
        test = example(samples)(test)
    return test


def _hex(x: float) -> str:
    return float(x).hex()


@_fuzz
@given(_samples)
@_edge_cases
def test_sorted_pairs_match_lexsort_gather(samples):
    d = make_empirical(samples)
    v, y = sorted_pairs(d)
    v_ref, y_ref = sorted_pairs_lexsort(d)
    assert v.dtype == v_ref.dtype == y.dtype == y_ref.dtype == np.float64
    assert v.tobytes() == v_ref.tobytes()
    assert y.tobytes() == y_ref.tobytes()


def _assert_kce_matches_oracles(d):
    """Bitwise on the np.unique grouping; near the per-sample form on the squares' scale."""
    scale = (np.sum(np.abs(d.residuals())) / d.n) ** 2  # bounds kce^2 and its terms
    for kind in KernelKind:
        got = kce_exact(d, kind)
        assert _hex(got) == _hex(kce_exact_unique(d, kind.value))
        per_sample = kce_exact_lexsort(d, kind.value)
        if abs(got**2 - per_sample**2) > 1e-12 * scale:
            # then the grouped value must be the closer one to a longer-precision value
            exact = kce2_longdouble(d, kind.value)
            assert abs(got**2 - exact) <= abs(per_sample**2 - exact)


@_fuzz
@given(_samples)
@_edge_cases
def test_kce_exact_matches_grouped_oracle_bitwise(samples):
    _assert_kce_matches_oracles(make_empirical(samples))


@_fuzz
@given(_samples)
@_edge_cases
def test_discretize_matches_lexsort_oracle_bytewise(samples):
    d = make_empirical(samples)
    for eps in ((0.005, 0.005), (0.1, 0.05), (0.5, 0.5), (0.013, 0.3)):
        for got, ref in zip(_discretize(d, *eps), discretize_lexsort(d, *eps), strict=True):
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()


@_fuzz
@given(_samples)
@_edge_cases
def test_ece_matches_unique_oracle_bitwise(samples):
    d = make_empirical(samples)
    assert _hex(ece(d)) == _hex(ece_unique(d))


def test_fast_paths_match_oracles_on_larger_instances():
    # sizes past numpy's pairwise-summation block, heavy ties and full precision
    rng = np.random.default_rng(77)
    for _ in range(40):
        d = random_distribution(rng, max_n=3000)
        v, y = sorted_pairs(d)
        v_ref, y_ref = sorted_pairs_lexsort(d)
        assert v.tobytes() == v_ref.tobytes() and y.tobytes() == y_ref.tobytes()
        _assert_kce_matches_oracles(d)
        assert _hex(ece(d)) == _hex(ece_unique(d))
        for got, ref in zip(_discretize(d, 0.005, 0.005), discretize_lexsort(d, 0.005, 0.005)):
            assert got.tobytes() == ref.tobytes()


_SKEWED = IntervalPartition((0.0, 0.1, 0.15, 0.5, 0.9, 1.0))
_PARTITIONS = (uniform_partition(10), _SKEWED)


def _assert_near_per_sample_oracles(d):
    """Grouped metrics within 1e-12 of their per-sample forms, relative to sum|r| / n,
    which bounds each metric and its residual sums (squared, for the kernel draws)."""
    scale = np.sum(np.abs(d.residuals())) / d.n
    for part in _PARTITIONS:
        for penalty in (False, True):
            got, want = binned_ece(d, part, penalty), binned_ece_per_sample(d, part, penalty)
            assert abs(got - want) <= 1e-12 * scale
    assert abs(smce(d)[0] - smce_per_sample(d)) <= 1e-12 * scale
    _assert_kce_matches_oracles(d)
    v, r = sorted_pairs(d)
    r -= v
    for mode, draws in (("fourier", _fourier_draws), ("binning", _binning_draws)):
        cfg = KernelEstimatorConfig(mode=mode, reps_r=40, rng=SeededRng(3))
        grouped = kce_estimate_squared(d, KernelKind.LAPLACE, cfg)
        per_sample = draws(v, r, d.n, 40, SeededRng(3)).mean()
        assert abs(grouped - per_sample) <= 1e-12 * scale**2


@_fuzz
@given(_samples)
@_edge_cases
def test_grouped_metrics_near_per_sample_oracles(samples):
    _assert_near_per_sample_oracles(make_empirical(samples))


def test_grouped_metrics_near_per_sample_oracles_on_a_quantized_file(tmp_path):
    rng = np.random.default_rng(5)
    v = np.round(rng.random(100_000), 3)
    y = (rng.random(v.size) < v**1.3).astype(int)
    path = tmp_path / "quantized.csv"
    path.write_text("v,y\n" + "".join(f"{a:.3f},{b}\n" for a, b in zip(v, y)))
    d, _ = _read_samples(str(path))
    assert len(d.grouped()[0]) == 1001
    _assert_near_per_sample_oracles(d)


# Every metric reads the grouped view or sorts into the canonical order, so
# any input order gives the same bits.
_METRICS = {
    "ece": ece,
    "binned-ece": lambda d: binned_ece(d, uniform_partition(10)),
    "binned-ece-skewed": lambda d: binned_ece(d, _SKEWED),
    "binned-ece-w": lambda d: binned_ece(d, uniform_partition(10), width_penalty=True),
    "binned-ece-w-skewed": lambda d: binned_ece(d, _SKEWED, width_penalty=True),
    "kce-laplace": lambda d: kce_exact(d, KernelKind.LAPLACE),
    "kce-gaussian": lambda d: kce_exact(d, KernelKind.GAUSSIAN),
    "ldce": lambda d: ldce(d, 0.05, 0.05),
}
_invariance = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("name", sorted(_METRICS))
@_invariance
@given(samples=_samples, data=st.data())
@example(samples=[(0.0, 1), (-0.0, 0), (0.5, 1), (0.5, 0), (1.0, 0)], data=None)
def test_metric_invariant_under_permutation(name, samples, data):
    metric = _METRICS[name]
    value = metric(make_empirical(samples))
    permuted = samples[::-1] if data is None else data.draw(st.permutations(samples))
    assert _hex(metric(make_empirical(permuted))) == _hex(value)


@pytest.mark.parametrize("name", sorted(_METRICS))
@_invariance
@given(samples=_samples, k=st.integers(2, 4))
@example(samples=[(0.3, 1)], k=3)
@example(samples=[(0.0, 1), (-0.0, 0), (0.5, 1), (1.0, 0)], k=2)
def test_metric_invariant_under_repetition(name, samples, k):
    metric = _METRICS[name]
    value = metric(make_empirical(samples))
    assert abs(metric(make_empirical(samples * k)) - value) <= 1e-12
