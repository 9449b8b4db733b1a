import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from calibdist import (
    BadEps,
    Grid,
    gap_pa_pair,
    induce_gamma_exact,
    kce_exact,
    KernelKind,
    ldce,
    ldce_dual_solution,
    make_empirical,
    smce,
)
from calibdist import lowerdist
from calibdist.cli import main
from calibdist.lowerdist import refine_grid

from _oracles import (dual_constraints_stacked, ldce_both_forms, ldce_primal_solution,
                      random_distribution, refine_grid_loop)

SLACK = 3 * (0.005 + 0.005) + 1e-6


def test_single_sample_forced_coupling():
    # y is always 1, so the calibrated coordinate must sit at u = 1
    d = make_empirical([(0.5, 1)])
    assert ldce(d) == pytest.approx(0.5, abs=1e-9)
    p, du = ldce_both_forms(d)
    assert p == pytest.approx(0.5, abs=1e-9)
    assert du == pytest.approx(0.5, abs=1e-9)


def test_perfectly_calibrated_endpoints():
    d = make_empirical([(0.0, 0), (1.0, 1)])
    p, du = ldce_both_forms(d)
    assert p == pytest.approx(0.0, abs=1e-9)
    assert du == pytest.approx(0.0, abs=1e-9)


def test_bad_eps():
    d = make_empirical([(0.5, 1)])
    with pytest.raises(BadEps):
        ldce(d, eps1=0.0)
    with pytest.raises(BadEps):
        ldce(d, eps2=0.7)


def test_strong_duality_random_instances():
    rng = np.random.default_rng(40)
    for _ in range(30):
        d = random_distribution(rng, max_n=30)
        p, du = ldce_both_forms(d)
        assert p == pytest.approx(du, abs=1e-6)


def test_pa_gap_lower_distance_golden():
    # Exact optimum of the coupling LP on the alpha=0.25 gap distribution.
    # The value is 1/6: keep a third of each residual in place and route the
    # label imbalance through the u = 1/2 bucket at cost 1/4 per unit.
    gamma = induce_gamma_exact(gap_pa_pair(0.25)[0])
    val = ldce(gamma)
    assert val == pytest.approx(1 / 6, abs=1e-6)
    # cross-check through the smooth-calibration sandwich
    sm, _ = smce(gamma)
    assert sm == pytest.approx(0.125, abs=1e-9)
    assert 0.5 * val - SLACK <= sm <= 2.0 * val + SLACK


def test_smce_sandwich():
    rng = np.random.default_rng(41)
    for _ in range(25):
        d = random_distribution(rng, max_n=60)
        val = ldce(d)
        sm, _ = smce(d)
        assert 0.5 * val - SLACK <= sm <= 2.0 * val + SLACK


def test_kernel_upper_bound():
    rng = np.random.default_rng(42)
    for _ in range(25):
        d = random_distribution(rng, max_n=60)
        val = ldce(d)
        assert kce_exact(d, KernelKind.LAPLACE) <= np.sqrt(val + SLACK)


def test_monotone_refinement():
    # halving eps2 can move the value by at most twice the new radius
    rng = np.random.default_rng(43)
    for _ in range(10):
        d = random_distribution(rng, max_n=40)
        eps2 = 0.04
        prev = ldce(d, eps1=0.005, eps2=eps2)
        while eps2 > 0.005:
            new = eps2 / 2
            cur = ldce(d, eps1=0.005, eps2=new)
            assert cur - prev <= 2 * new + 1e-6
            assert prev - cur <= 2 * eps2 + 1e-6
            prev, eps2 = cur, new


def test_primal_solution_is_a_valid_coupling():
    rng = np.random.default_rng(44)
    for _ in range(10):
        d = random_distribution(rng, max_n=25)
        sol = ldce_primal_solution(d)
        assert np.all(sol.mass >= -1e-9)
        # v-marginal matches the observed masses
        np.testing.assert_allclose(sol.mass.sum(axis=0), sol.gamma, atol=1e-8)
        # calibration balance (1-u) * mass(u, y=1) = u * mass(u, y=0) per u
        m1 = sol.mass[:, sol.support_y == 1].sum(axis=1)
        m0 = sol.mass[:, sol.support_y == 0].sum(axis=1)
        np.testing.assert_allclose((1 - sol.u) * m1, sol.u * m0, atol=1e-8)
        # objective matches the transport cost of the plan
        cost = np.abs(sol.u[:, None] - sol.support_v[None, :])
        assert float((cost * sol.mass).sum()) == pytest.approx(sol.objective, abs=1e-9)


def test_dual_solution_is_feasible():
    rng = np.random.default_rng(45)
    for _ in range(10):
        d = random_distribution(rng, max_n=25)
        sol = ldce_dual_solution(d)
        for r in (sol.r0, sol.r1):
            assert np.all(np.abs(np.diff(r)) <= np.diff(sol.u) + 1e-9)
        # E_{y ~ Bernoulli(u)} r(u, y) <= 0
        assert np.all((1 - sol.u) * sol.r0 + sol.u * sol.r1 <= 1e-9)


def test_dual_lp_has_two_chains_and_no_boxes(monkeypatch):
    seen = []

    def spy(c, A_ub, b_ub):
        seen.append((len(c), A_ub.shape, len(b_ub)))
        return run_lp(c, A_ub, b_ub)

    run_lp = lowerdist._run_lp
    monkeypatch.setattr(lowerdist, "_run_lp", spy)
    sol = ldce_dual_solution(make_empirical([(0.3, 1), (0.3, 0), (0.8, 1)]))
    m = len(sol.u)
    assert seen == [(2 * m, (5 * m - 4, 2 * m), 5 * m - 4)]


def test_dual_constraints_match_stacked_blocks(monkeypatch):
    rng = np.random.default_rng(46)
    dists = [random_distribution(rng, max_n=60) for _ in range(8)]
    dists += [make_empirical([(0.0, 0), (1.0, 1)]), make_empirical([(0.5, 1)])]
    for d in dists:
        for eps in (0.005, 0.1, 0.3, 0.5):
            u = lowerdist._discretize(d, eps, eps)[0]
            got, b = lowerdist._dual_constraints(u)
            want, b_want = dual_constraints_stacked(u)
            want.eliminate_zeros()  # the dense Kronecker blocks of m <= 4
            assert got.shape == want.shape and got.has_sorted_indices
            for x, y in ((got.indptr, want.indptr), (got.indices, want.indices),
                         (got.data, want.data), (b, b_want)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    fast = [ldce_dual_solution(d, eps, eps) for d in dists for eps in (0.005, 0.5)]
    monkeypatch.setattr(lowerdist, "_dual_constraints", dual_constraints_stacked)
    stacked = [ldce_dual_solution(d, eps, eps) for d in dists for eps in (0.005, 0.5)]
    for a, b in zip(fast, stacked):
        assert a.objective.hex() == b.objective.hex()
        assert a.r0.tobytes() == b.r0.tobytes() and a.r1.tobytes() == b.r1.tobytes()


def test_zero_value_is_positive_zero(tmp_path, capsys):
    d = make_empirical([(0.0, 0), (1.0, 1)])
    assert math.copysign(1.0, ldce(d)) == 1.0
    path = tmp_path / "calibrated.csv"
    path.write_text("v,y\n0,0\n1,1\n")
    assert main(["measure", "--metrics", "ldce", "--input", str(path)]) == 0
    report = capsys.readouterr().out
    assert '"value": 0.0' in report and "-0.0" not in report


# tied predictions on a coarse lattice, the endpoints, and arbitrary values
_PREDICTION = st.sampled_from([0.0, 1.0, 0.25, 0.5, 0.75]) | st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(_PREDICTION, st.integers(0, 1)), min_size=1, max_size=120))
@example([(0.0, 1), (1.0, 0)])
@example([(0.5, 1)] * 3 + [(0.5, 0)])
def test_dual_matches_coupling_lp(pairs):
    d = make_empirical(pairs)
    assert ldce(d) == pytest.approx(ldce_primal_solution(d).objective, abs=1e-9)


def test_grid_validation():
    with pytest.raises(BadEps):
        Grid(points=(0.0, 0.5), covering_radius=0.1)  # spacing too wide
    with pytest.raises(BadEps):
        Grid(points=(0.1, 1.0), covering_radius=1.0)  # missing 0
    nan = float("nan")
    for points in ((0.0, nan, 1.0), (nan, 1.0), (0.0, nan)):
        with pytest.raises(BadEps):
            Grid(points=points, covering_radius=1.0)
    with pytest.raises(BadEps):
        Grid(points=(0.0, 0.5, 1.0), covering_radius=nan)
    Grid(points=(0.0, 0.5, 1.0), covering_radius=0.5)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=40),
       st.floats(1e-4, 0.5) | st.sampled_from([0.005, 0.01, 0.1, 1 / 3, 0.5]))
@example([], 0.5)
@example([0.0, 1e-15, 0.5 - 1e-13, 0.5, 5e-324], 0.005)
@example([0.3, 0.3, 0.7], 0.1)  # gaps that are exact multiples of eps2
def test_refine_grid_matches_loop_bitwise(base, eps2):
    got = refine_grid(np.array(base), eps2).points
    assert got.tobytes() == refine_grid_loop(np.array(base), eps2).tobytes()
