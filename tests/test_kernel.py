import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibdist import (
    BadConfig,
    EmpiricalDistribution,
    KernelEstimatorConfig,
    KernelKind,
    ModeKindMismatch,
    SeededRng,
    TooLarge,
    kce_estimate,
    kce_estimate_squared,
    kce_exact,
    make_empirical,
)
from calibdist import kernel
from calibdist.core import sorted_pairs
from calibdist.kernel import _binning_draws, _fourier_draws

from _oracles import (binning_draws_packed, fourier_draws_batched, kce2_direct,
                      kernel_identity_check, random_distribution, stdout_per_blas_threads)


def test_kce_exact_examples():
    assert kce_exact(make_empirical([(0.0, 1)]), KernelKind.LAPLACE) == pytest.approx(1.0)
    expected = math.sqrt((2 - 2 * math.exp(-1)) / 4)
    d = make_empirical([(0.0, 1), (1.0, 0)])
    assert kce_exact(d, KernelKind.LAPLACE) == pytest.approx(expected, abs=1e-12)
    calibrated = make_empirical([(0.0, 0), (1.0, 1)])
    assert kce_exact(calibrated, KernelKind.LAPLACE) == 0.0
    assert kce_exact(calibrated, KernelKind.GAUSSIAN) == 0.0


def test_kce_exact_matches_direct_quadratic_form():
    rng = np.random.default_rng(50)
    for _ in range(8):
        d = random_distribution(rng, max_n=60)
        for kind in (KernelKind.LAPLACE, KernelKind.GAUSSIAN):
            fast = kce_exact(d, kind) ** 2
            assert fast == pytest.approx(kce2_direct(d, kind.value), abs=1e-12)


def test_estimator_size_guard_raises_before_allocating(monkeypatch):
    # the cap is lowered so that no large array is ever requested
    d = make_empirical([(0.2, 1), (0.7, 0)])
    monkeypatch.setattr(kernel, "MAX_DRAW_BYTES", 7 * 8 * 100)
    kce_estimate_squared(d, KernelKind.GAUSSIAN, KernelEstimatorConfig(mode="subsample", terms_m=100))
    with pytest.raises(TooLarge, match="^101 subsample terms need 5656 bytes"):
        kce_estimate_squared(d, KernelKind.GAUSSIAN,
                             KernelEstimatorConfig(mode="subsample", terms_m=101))
    # 8 * 1000 bytes of repetitions: the default count is at the cap
    monkeypatch.setattr(kernel, "MAX_DRAW_BYTES", 8 * 1000)
    for mode in ("fourier", "binning"):
        kce_estimate_squared(d, KernelKind.LAPLACE, KernelEstimatorConfig(mode=mode))
        with pytest.raises(TooLarge, match="^1001 repetitions need 8008 bytes"):
            kce_estimate_squared(d, KernelKind.LAPLACE,
                                 KernelEstimatorConfig(mode=mode, reps_r=1001))


def test_kce_exact_uncapped_by_default():
    # both exact paths are O(n log n), so the default size is unlimited
    rng = np.random.default_rng(53)
    n = 20_001
    v = rng.random(n)
    d = EmpiricalDistribution(v, (rng.random(n) < v).astype(np.int8))
    for kind in KernelKind:
        squared = kce_estimate_squared(d, kind, KernelEstimatorConfig())
        assert kce_exact(d, kind) == math.sqrt(squared)


def test_kce_exact_permutation_invariant_bitwise():
    rng = np.random.default_rng(51)
    pairs = [(float(v), int(y)) for v, y in zip(rng.random(200), rng.integers(0, 2, 200))]
    d = make_empirical(pairs)
    perm = list(pairs)
    rng.shuffle(perm)
    d2 = make_empirical(perm)
    for kind in (KernelKind.LAPLACE, KernelKind.GAUSSIAN):
        assert kce_exact(d, kind) == kce_exact(d2, kind)


def test_kce_laplace_continuity():
    rng = np.random.default_rng(52)
    for _ in range(15):
        d = random_distribution(rng, max_n=80)
        delta = float(rng.uniform(0.001, 0.1))
        shift = rng.uniform(-delta, delta, d.n)
        moved = make_empirical(
            [(float(np.clip(v + s, 0, 1)), int(y)) for (v, y), s in zip(d.pairs(), shift)]
        )
        a = kce_exact(d, KernelKind.LAPLACE)
        b = kce_exact(moved, KernelKind.LAPLACE)
        assert abs(a - b) <= 2 * math.sqrt(2 * delta) + 1e-9


def test_estimator_single_sample():
    d = make_empirical([(0.0, 1)])
    for mode in ("fourier", "binning"):
        cfg = KernelEstimatorConfig(mode=mode, reps_r=20, rng=SeededRng(1))
        assert kce_estimate(d, KernelKind.LAPLACE, cfg) == pytest.approx(1.0, abs=1e-12)


def test_estimator_mode_kind_mismatch():
    d = make_empirical([(0.5, 1)])
    for mode in ("fourier", "binning"):
        cfg = KernelEstimatorConfig(mode=mode, reps_r=5, rng=SeededRng(0))
        with pytest.raises(ModeKindMismatch):
            kce_estimate(d, KernelKind.GAUSSIAN, cfg)


def test_estimator_config_validation():
    with pytest.raises(BadConfig):
        KernelEstimatorConfig(mode="nonsense")
    with pytest.raises(BadConfig):
        KernelEstimatorConfig(mode="subsample", terms_m=0)
    with pytest.raises(BadConfig):
        KernelEstimatorConfig(mode="fourier", reps_r=0)


def test_randomized_draws_unbiased_and_bounded():
    rng = np.random.default_rng(53)
    d = random_distribution(rng, max_n=60)
    v, _, _, r = d.grouped()
    target = kce_exact(d, KernelKind.LAPLACE) ** 2
    for sampler in (_fourier_draws, _binning_draws):
        draws = sampler(v, r, d.n, 20_000, SeededRng(7))
        assert np.all(draws >= 0.0) and np.all(draws <= 1.0)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert abs(draws.mean() - target) <= 4 * se + 1e-12


def test_fourier_mean_on_antipodal_pair():
    # squared target (1 - e^-1)/2 for residuals +-1 at the endpoints
    d = make_empirical([(0.0, 1), (1.0, 0)])
    target = (1 - math.exp(-1)) / 2
    assert kce_exact(d, KernelKind.LAPLACE) ** 2 == pytest.approx(target, abs=1e-12)
    v, _, _, r = d.grouped()
    reps = 10**5
    draws = _fourier_draws(v, r, d.n, reps, SeededRng(21))
    se = draws.std(ddof=1) / math.sqrt(reps)
    assert abs(draws.mean() - target) <= 3 * se


def test_subsample_estimator():
    rng = np.random.default_rng(54)
    d = random_distribution(rng, max_n=150)
    for kind in (KernelKind.LAPLACE, KernelKind.GAUSSIAN):
        target = kce_exact(d, kind) ** 2
        cfg = KernelEstimatorConfig(mode="subsample", terms_m=200_000, rng=SeededRng(8))
        est = kce_estimate_squared(d, kind, cfg)
        assert est == pytest.approx(target, abs=0.01)
    # the signed sqrt clamps negative raw estimates to zero
    tiny = make_empirical([(0.3, 0), (0.7, 1)])
    seeds_with_negative_raw = [
        s for s in range(50)
        if kce_estimate_squared(
            tiny, KernelKind.LAPLACE,
            KernelEstimatorConfig(mode="subsample", terms_m=1, rng=SeededRng(s))) < 0
    ]
    assert seeds_with_negative_raw, "expected some single-term draws to be negative"
    s = seeds_with_negative_raw[0]
    cfg = KernelEstimatorConfig(mode="subsample", terms_m=1, rng=SeededRng(s))
    assert kce_estimate(tiny, KernelKind.LAPLACE, cfg) == 0.0


def test_estimates_deterministic_given_seed():
    rng = np.random.default_rng(55)
    d = random_distribution(rng, max_n=100)
    for mode, kw in (("subsample", {"terms_m": 500}), ("fourier", {"reps_r": 50}),
                     ("binning", {"reps_r": 50})):
        a = kce_estimate(d, KernelKind.LAPLACE,
                         KernelEstimatorConfig(mode=mode, rng=SeededRng(9), **kw))
        b = kce_estimate(d, KernelKind.LAPLACE,
                         KernelEstimatorConfig(mode=mode, rng=SeededRng(9), **kw))
        assert a == b


def test_kernel_identity_check_zero_distance():
    assert kernel_identity_check(0.0, 1000, SeededRng(10)) == (1.0, 1.0)


def test_kernel_identity_check_converges():
    reps = 200_000
    for d in (0.5, 1.0):
        cos_est, bin_est = kernel_identity_check(d, reps, SeededRng(11))
        target = math.exp(-d)
        sigma_cos = math.sqrt((1 - math.exp(-2 * d)) / 2 / reps)
        sigma_bin = math.sqrt(target * (1 - target) / reps)
        assert abs(cos_est - target) <= 4 * sigma_cos
        assert abs(bin_est - target) <= 4 * sigma_bin


def test_binning_chunks_are_bitwise_identical(monkeypatch):
    d = random_distribution(np.random.default_rng(36), max_n=60)
    v, _, _, r = d.grouped()
    reps = kernel._REP_BATCH + 300  # two batches of random draws
    monkeypatch.setattr(kernel, "_CHUNK_CELLS", reps * len(v))
    whole = _binning_draws(v, r, d.n, reps, SeededRng(12))
    for rows in (1, 7):
        monkeypatch.setattr(kernel, "_CHUNK_CELLS", rows * len(v))
        chunked = _binning_draws(v, r, d.n, reps, SeededRng(12))
        assert chunked.tobytes() == whole.tobytes()


def test_fourier_chunks_are_bitwise_identical(monkeypatch):
    rng = np.random.default_rng(37)
    for max_n in (60, 2000):
        d = random_distribution(rng, max_n=max_n)
        v, _, _, r = d.grouped()
        reps = kernel._REP_BATCH + 300  # two batches of random draws
        monkeypatch.setattr(kernel, "_CHUNK_CELLS", reps * len(v))
        whole = _fourier_draws(v, r, d.n, reps, SeededRng(13))
        for rows in (1, 3):
            monkeypatch.setattr(kernel, "_CHUNK_CELLS", rows * len(v))
            chunked = _fourier_draws(v, r, d.n, reps, SeededRng(13))
            assert chunked.tobytes() == whole.tobytes()


def test_gaussian_kce_bits_independent_of_blas_threads():
    # Above 10^4 elements OpenBLAS splits a dot product across its threads,
    # which moves the last bits of the sum.
    probe = (
        "import numpy as np\n"
        "from calibdist import EmpiricalDistribution, KernelKind, kce_exact\n"
        "rng = np.random.default_rng(5)\n"
        "v = rng.random(100_000)\n"
        "d = EmpiricalDistribution(v, (rng.random(v.size) < v**1.3).astype(np.int8))\n"
        "print(kce_exact(d, KernelKind.GAUSSIAN).hex())\n"
    )
    bits = stdout_per_blas_threads(probe)
    assert bits[0] == bits[1]


@pytest.mark.parametrize("value", [
    "kce_exact(d, KernelKind.LAPLACE)",
    "kce_estimate_squared(d, KernelKind.LAPLACE, KernelEstimatorConfig("
    "mode='fourier', reps_r=20, rng=SeededRng(3)))",
], ids=["laplace-exact", "fourier"])
def test_laplace_kce_bits_independent_of_blas_threads(value):
    # Both moved under two threads while they used BLAS: the exact
    # value's r @ r, and the fourier draws' matrix-vector products.
    probe = (
        "import numpy as np\n"
        "from calibdist import (EmpiricalDistribution, KernelEstimatorConfig, KernelKind,\n"
        "                       SeededRng, kce_estimate_squared, kce_exact)\n"
        "rng = np.random.default_rng(3)\n"
        "v = rng.random(100_000)\n"
        "d = EmpiricalDistribution(v, (rng.random(v.size) < v).astype(np.int8))\n"
        f"print(({value}).hex())\n"
    )
    bits = stdout_per_blas_threads(probe)
    assert bits[0] == bits[1]


# Predictions rounded to one to three decimals (ties; 0 and 1 among them), at
# full precision, or a single value repeated.
_draw_values = st.one_of(
    st.tuples(st.integers(1, 3), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
    .map(lambda t: [round(x, t[0]) for x in t[1]]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
    st.tuples(st.sampled_from([0.0, 0.3, 1.0]), st.integers(1, 5)).map(lambda t: [t[0]] * t[1]),
)
_draw_samples = _draw_values.flatmap(
    lambda vs: st.lists(st.integers(0, 1), min_size=len(vs), max_size=len(vs))
    .map(lambda ys: list(zip(vs, ys))))
_B = kernel._REP_BATCH


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_draw_samples, st.booleans(), st.sampled_from([1, 7, 1000, _B, _B + 1, 2 * _B + 300]),
       st.booleans(), st.integers(0, 2**32))
@example([(0.0, 1), (1.0, 0), (1.0, 1), (0.0, 0)], False, 2 * _B + 300, True, 5)
@example([(0.25, 1)] * 3, True, _B + 1, False, 6)  # one distinct value
def test_draws_return_the_oracle_bits(samples, per_sample, reps, one_row, seed):
    # the grouped view, or every sample in sorted_pairs order with its residual
    d = make_empirical(samples)
    if per_sample:
        v, r = sorted_pairs(d)
        r -= v
    else:
        v, _, _, r = d.grouped()
    with pytest.MonkeyPatch.context() as mp:
        if one_row:
            mp.setattr(kernel, "_CHUNK_CELLS", len(v))
        for draws, oracle in ((_fourier_draws, fourier_draws_batched),
                              (_binning_draws, binning_draws_packed)):
            got = draws(v, r, d.n, reps, SeededRng(seed))
            assert got.tobytes() == oracle(v, r, d.n, reps, SeededRng(seed)).tobytes()
