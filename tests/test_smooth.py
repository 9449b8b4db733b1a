import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibdist import SeededRng, TooLarge, WeightVector, make_empirical, smce
from calibdist.fixtures import SyntheticConfig, gen_dbeta
from calibdist.smooth import _peaks

from _oracles import (BLAS_PROBE_DIST, chain_dp, random_distribution, smce_adjacent_lp,
                      smce_full_pairwise, smce_per_sample, stdout_per_blas_threads)

# Predictions on a 1e-6 grid, or drawn from a few values that force ties and
# hit both ends of [0, 1].
_prediction = st.one_of(
    st.sampled_from([0.0, 0.125, 0.5, 0.875, 1.0]),
    st.integers(0, 10**6).map(lambda k: k / 10**6),
)
_samples = st.lists(st.tuples(_prediction, st.integers(0, 1)), min_size=1, max_size=40)
_fuzz = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def test_smce_merged_zero():
    value, witness = smce(make_empirical([(0.5, 1), (0.5, 0)]))
    assert value == 0.0
    assert witness.values == (0.5,)


def test_smce_single_point():
    value, witness = smce(make_empirical([(0.5, 1)]))
    assert value == pytest.approx(0.5, abs=1e-15)
    assert witness.z == (1.0,)


def test_smce_two_point():
    # maximize 0.375 (z1 - z2) subject to |z1 - z2| <= 0.5
    value, witness = smce(make_empirical([(0.25, 1), (0.75, 0)]))
    assert value == pytest.approx(0.1875, abs=1e-10)
    assert witness.z[0] - witness.z[1] == pytest.approx(0.5, abs=1e-8)


def test_full_pairwise_examples():
    assert smce_full_pairwise(make_empirical([(0.25, 1), (0.75, 0)])) == pytest.approx(
        0.1875, abs=1e-10
    )
    assert smce_full_pairwise(make_empirical([(0.0, 0), (1.0, 1)])) == pytest.approx(0.0, abs=1e-12)


def test_full_pairwise_guard():
    d = make_empirical([(0.5, 1)] * 501)
    with pytest.raises(TooLarge):
        smce_full_pairwise(d)


def test_adjacent_constraints_match_full_pairwise():
    # telescoping makes adjacent Lipschitz constraints equivalent to all pairs
    rng = np.random.default_rng(30)
    for _ in range(100):
        d = random_distribution(rng, max_n=50)
        fast, _ = smce(d)
        oracle = smce_full_pairwise(d)
        assert fast == pytest.approx(oracle, abs=1e-8)


def test_smce_lipschitz_in_data():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = random_distribution(rng, max_n=80)
        delta = float(rng.uniform(0.0, 0.1))
        shift = rng.uniform(-delta, delta, d.n)
        moved = make_empirical(
            [(float(np.clip(v + s, 0, 1)), int(y)) for (v, y), s in zip(d.pairs(), shift)]
        )
        a, _ = smce(d)
        b, _ = smce(moved)
        assert abs(a - b) <= 2 * delta + 1e-9


def test_witness_is_feasible_exactly():
    rng = np.random.default_rng(32)
    for _ in range(30):
        d = random_distribution(rng, max_n=60)
        value, w = smce(d)
        assert isinstance(w, WeightVector)  # __post_init__ enforces the invariants
        assert value >= 0.0
        # the witness attains the reported value up to solver tolerance
        values, inverse = np.unique(d.v, return_inverse=True)
        coef = np.bincount(inverse, weights=d.residuals(), minlength=len(values)) / d.n
        assert float(coef @ np.array(w.z)) == pytest.approx(value, abs=1e-7)


def test_weight_vector_invariants_rejected():
    with pytest.raises(ValueError):
        WeightVector(values=(0.1, 0.2), z=(0.0, 0.5))  # Lipschitz violation
    with pytest.raises(ValueError):
        WeightVector(values=(0.1,), z=(1.5,))  # box violation
    with pytest.raises(ValueError):
        WeightVector(values=(0.2, 0.1), z=(0.0, 0.0))  # unsorted
    nan = float("nan")
    for values, z in (((0.1, 0.2), (nan, 0.0)), ((0.1, nan), (0.0, 0.0)), ((0.1,), (nan,))):
        with pytest.raises(ValueError):
            WeightVector(values=values, z=z)


def test_smce_zero_on_perfectly_calibrated():
    rng = np.random.default_rng(33)
    for _ in range(10):
        values = rng.choice(np.linspace(0.1, 0.9, 9), size=4, replace=False)
        pairs = []
        for v in values:
            k = int(rng.integers(1, 5)) * 10
            ones = int(round(v * k))
            pairs += [(float(v), 1)] * ones + [(float(v), 0)] * (k - ones)
        d = make_empirical(pairs)
        # every distinct value's label mean equals the value by construction
        vs, inv = np.unique(d.v, return_inverse=True)
        means = np.bincount(inv, weights=d.y.astype(float)) / np.bincount(inv)
        if not np.allclose(means, vs, atol=1e-12):
            continue
        value, _ = smce(d)
        assert value <= 1e-12


@_fuzz
@given(_samples)
@example([(0.3, 1)])  # a single distinct value
@example([(0.5, 0), (0.5, 1)])  # one value, zero coefficient
@example([(0.0, 0), (1.0, 1)])  # all-zero coefficients at both ends
@example([(0.25, 0), (0.25, 0), (0.25, 0), (0.25, 1), (0.5, 0), (0.5, 1)])
@example([(0.0, 1), (1.0, 0), (1.0, 0)])
def test_smce_matches_adjacent_lp(samples):
    d = make_empirical(samples)
    value, _ = smce(d)
    assert abs(value - smce_adjacent_lp(d)) <= 1e-9


@_fuzz
@given(_samples, st.integers(2, 4), st.data())
def test_smce_invariant_under_permutation_repetition_and_flip(samples, k, data):
    value, _ = smce(make_empirical(samples))
    permuted = data.draw(st.permutations(samples))
    flipped = [(1.0 - v, 1 - y) for v, y in samples]
    for changed in (permuted, samples * k, flipped):
        assert abs(smce(make_empirical(changed))[0] - value) <= 1e-12


# Dyadic coefficients make the prefix sums P tie exactly, also with P = 0 and
# with -0.0; the step counts sit at and just above powers of two, where the
# tables are padded the least and the most.
_dyadic = st.sampled_from([-0.5, -0.25, -0.125, -0.0, 0.0, 0.0, 0.125, 0.25, 0.5])
_coefficient = st.one_of(_dyadic, st.floats(-1.0, 1.0))


@st.composite
def _chains(draw):
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 64, 65]))
    coef = draw(st.lists(_coefficient, min_size=d, max_size=d))
    gaps = draw(st.lists(st.sampled_from([1 / 128, 1 / 64, 0.01]), min_size=d - 1, max_size=d - 1))
    return coef, gaps


@_fuzz
@given(_chains())
@example(([0.25], []))  # a single value
@example(([-0.0, 0.25, -0.25], [0.01, 0.01]))  # P = -0.0, 0.25, 0.0: signed zeros tie
def test_peaks_match_step_by_step_dp(chain):
    coef, gaps = chain
    values = np.concatenate(([0.0], np.cumsum(gaps)))
    coef = np.array(coef) / len(coef)
    expected = np.array(chain_dp(values, coef)[0])
    assert np.max(np.abs(_peaks(values, coef) - expected)) <= 1e-12


def _certificate(d):
    """smce's value, its witness objective, and the dual path's objective."""
    values, _, _, R = d.grouped()
    coef = R / d.n
    value, w = smce(d)
    primal = float(np.sum(coef * np.array(w.z)))
    _, lo, hi = chain_dp(values, coef)
    prefix = np.cumsum(coef)
    # dual path: A_d = S_d, A_{j-1} = clip(A_j, lo_j, hi_j), A_0 = 0
    a = np.empty(len(values) + 1)
    a[-1] = prefix[-1]
    for j in range(len(values), 0, -1):
        a[j - 1] = min(max(a[j], lo[j - 1]), hi[j - 1])
    assert a[0] == 0.0
    dual = np.abs(np.diff(a)).sum() + (np.diff(values) * np.abs(a[1:-1] - prefix[:-1])).sum()
    return value, primal, float(dual)


@_fuzz
@given(_samples)
def test_value_is_the_certified_witness_objective(samples):
    value, primal, dual = _certificate(make_empirical(samples))
    assert value == max(primal, 0.0)  # exact, no tolerance
    assert abs(dual - primal) <= 1e-12


def test_primal_dual_gap_certified_on_larger_instances():
    rng = np.random.default_rng(34)
    for _ in range(60):
        value, primal, dual = _certificate(random_distribution(rng, max_n=2000))
        assert value == max(primal, 0.0)
        assert abs(dual - primal) <= 1e-12


def test_certified_on_dbeta_rows():
    # 10^5 full-precision rows: every prediction distinct, the tables 17 levels deep
    d = gen_dbeta(SyntheticConfig(beta=1.0, n=100_000, rng=SeededRng(11)))
    value, primal, dual = _certificate(d)
    assert value == max(primal, 0.0)
    assert abs(dual - primal) <= 1e-12
    assert abs(value - smce_per_sample(d)) <= 1e-12 * value


def test_smce_bits_independent_of_blas_threads():
    # The value was a BLAS dot coef @ z, which OpenBLAS splits across threads
    # at this support size, moving its last bits.
    probe = BLAS_PROBE_DIST + "from calibdist import smce\nprint(smce(d)[0].hex())\n"
    bits = stdout_per_blas_threads(probe)
    assert bits[0] == bits[1]
