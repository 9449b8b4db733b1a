"""The packed-key sort that puts (v, y) pairs in canonical order, and the
metrics that read that order: differential tests against the lexsort and
unique oracles, and invariance under permutation and repetition."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibdist import (
    IntervalPartition,
    KernelKind,
    binned_ece,
    ece,
    kce_exact,
    ldce,
    make_empirical,
    uniform_partition,
)
from calibdist.core import sorted_pairs
from calibdist.lowerdist import _discretize

from _oracles import (discretize_lexsort, ece_unique, kce_exact_lexsort, random_distribution,
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


@_fuzz
@given(_samples)
@_edge_cases
def test_kce_exact_matches_lexsort_oracle_bitwise(samples):
    d = make_empirical(samples)
    for kind in KernelKind:
        assert _hex(kce_exact(d, kind)) == _hex(kce_exact_lexsort(d, kind.value))


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
        for kind in KernelKind:
            assert _hex(kce_exact(d, kind)) == _hex(kce_exact_lexsort(d, kind.value))
        assert _hex(ece(d)) == _hex(ece_unique(d))
        for got, ref in zip(_discretize(d, 0.005, 0.005), discretize_lexsort(d, 0.005, 0.005)):
            assert got.tobytes() == ref.tobytes()


_SKEWED = IntervalPartition((0.0, 0.1, 0.15, 0.5, 0.9, 1.0))

# name -> (metric, bitwise under permutation).  Metrics that sort into the
# canonical order return the same bits for any input order; binned ECE sums
# each bin's residuals in input order.
_METRICS = {
    "ece": (ece, True),
    "binned-ece": (lambda d: binned_ece(d, uniform_partition(10)), False),
    "binned-ece-skewed": (lambda d: binned_ece(d, _SKEWED), False),
    "binned-ece-w": (lambda d: binned_ece(d, uniform_partition(10), width_penalty=True), False),
    "binned-ece-w-skewed": (lambda d: binned_ece(d, _SKEWED, width_penalty=True), False),
    "kce-laplace": (lambda d: kce_exact(d, KernelKind.LAPLACE), True),
    "kce-gaussian": (lambda d: kce_exact(d, KernelKind.GAUSSIAN), True),
    "ldce": (lambda d: ldce(d, 0.05, 0.05), True),
}
_invariance = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("name", sorted(_METRICS))
@_invariance
@given(samples=_samples, data=st.data())
@example(samples=[(0.0, 1), (-0.0, 0), (0.5, 1), (0.5, 0), (1.0, 0)], data=None)
def test_metric_invariant_under_permutation(name, samples, data):
    metric, bitwise = _METRICS[name]
    value = metric(make_empirical(samples))
    permuted = samples[::-1] if data is None else data.draw(st.permutations(samples))
    again = metric(make_empirical(permuted))
    if bitwise:
        assert _hex(again) == _hex(value)
    else:
        assert abs(again - value) <= 1e-12


@pytest.mark.parametrize("name", sorted(_METRICS))
@_invariance
@given(samples=_samples, k=st.integers(2, 4))
@example(samples=[(0.3, 1)], k=3)
@example(samples=[(0.0, 1), (-0.0, 0), (0.5, 1), (1.0, 0)], k=2)
def test_metric_invariant_under_repetition(name, samples, k):
    metric, _ = _METRICS[name]
    value = metric(make_empirical(samples))
    assert abs(metric(make_empirical(samples * k)) - value) <= 1e-12
