"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Criteria 2 and 7 encode
stated bounds that exhaustive enumeration (criterion 2) and direct evaluation
(criterion 7) show to be unattainable for the pinned constructions; they are
asserted as stated and fail honestly, with the measured values in the failure
messages.  The README carries the summary analysis.
"""

import math
import time

import numpy as np

from calibdist import (
    KernelKind,
    IntervalEstimatorConfig,
    SeededRng,
    SyntheticConfig,
    GaussGapConfig,
    dce_bruteforce,
    ece,
    f_eps,
    gap_pa_pair,
    gap_quadratic,
    discontinuity_pair,
    gen_dbeta,
    gen_gauss_gap,
    induce_gamma_exact,
    kce_exact,
    ldce,
    make_empirical,
    round_to_grid,
    sintce_hat,
    smce,
    udce_bruteforce,
)
from calibdist.cli import main as cli_main
from calibdist.kernel import _binning_draws, _fourier_draws

from _oracles import (kernel_identity_check, ldce_both_forms, random_distribution,
                      smce_full_pairwise)

EPS1 = EPS2 = 0.005
SLACK = 3 * (EPS1 + EPS2) + 1e-6
EST_ERR = 0.02


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[ACCEPTANCE {number}] {name}: {status}")
    for f in failures:
        print(f"    - {f}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _fixture_distributions():
    dists = [
        induce_gamma_exact(f_eps(0.01)),
        induce_gamma_exact(gap_pa_pair(0.1)[0]),
        induce_gamma_exact(gap_pa_pair(0.25)[0]),
        induce_gamma_exact(gap_quadratic(0.2)),
        induce_gamma_exact(discontinuity_pair(0.01)[0]),
        induce_gamma_exact(discontinuity_pair(0.01)[1]),
        gen_dbeta(SyntheticConfig(beta=0.1, n=2000, rng=SeededRng(71))),
        gen_dbeta(SyntheticConfig(beta=1.0, n=2000, rng=SeededRng(72))),
        gen_dbeta(SyntheticConfig(beta=10.0, n=2000, rng=SeededRng(73))),
        gen_gauss_gap(GaussGapConfig(eps=0.05, n=2000, rng=SeededRng(74))),
        make_empirical([(0.0, 0), (1.0, 1)]),
        make_empirical([(0.5, 1)]),
    ]
    return dists


def test_criterion_1_inequality_chain():
    start = time.time()
    rng = np.random.default_rng(2024)
    instances = [random_distribution(rng, max_n=200) for _ in range(200)]
    instances += _fixture_distributions()
    failures = []
    for i, d in enumerate(instances):
        low = ldce(d, EPS1, EPS2)
        sm, _ = smce(d)
        kl = kce_exact(d, KernelKind.LAPLACE)
        si = sintce_hat(d, IntervalEstimatorConfig(epsilon=0.01, rng=SeededRng(500 + i)))
        if not (0.5 * low - SLACK <= sm <= 2.0 * low + SLACK):
            failures.append(f"instance {i}: smce sandwich violated (ldce={low}, smce={sm})")
        if not kl >= sm / 3.0 - SLACK:
            failures.append(f"instance {i}: kce >= smce/3 violated (kce={kl}, smce={sm})")
        if not kl <= math.sqrt(low + SLACK):
            failures.append(f"instance {i}: kce <= sqrt(ldce) violated (kce={kl}, ldce={low})")
        if not si <= 6.0 * math.sqrt(low + SLACK) + EST_ERR:
            failures.append(f"instance {i}: sintce bound violated (sintce={si}, ldce={low})")
    elapsed = time.time() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _report(1, "inequality chain on 200 random instances + fixtures", failures)


def test_criterion_2_pa_model_gap():
    failures = []
    for alpha in (0.1, 0.25):
        one, two = gap_pa_pair(alpha)
        g1, g2 = induce_gamma_exact(one), induce_gamma_exact(two)
        if not (np.array_equal(g1.v, g2.v) and np.array_equal(g1.y, g2.y)):
            failures.append(f"alpha={alpha}: induced distributions differ")
        d1 = dce_bruteforce(one)
        d2 = dce_bruteforce(two)
        # stated bound; exhaustive enumeration yields 4 alpha^2 for this
        # construction, so this clause cannot hold
        if not d1 <= 2 * alpha**2:
            failures.append(f"alpha={alpha}: dce(D1)={d1} > 2*alpha^2={2 * alpha ** 2}")
        if not d2 >= alpha:
            failures.append(f"alpha={alpha}: dce(D2)={d2} < alpha")
    _report(2, "PA-model gap construction", failures)


def test_criterion_3_ece_failure():
    failures = []
    prob = f_eps(0.01)
    gamma = induce_gamma_exact(prob)
    e = ece(gamma)
    if abs(e - 0.49) > 1e-12:
        failures.append(f"ece={e} not 0.49 +- 1e-12")
    d = dce_bruteforce(prob)
    if d > 0.01 + 1e-12:  # exact optimum is eps; 1e-12 absorbs float round-off
        failures.append(f"dce={d} > 0.01")
    _report(3, "ECE soundness failure fixture", failures)


def test_criterion_4_quadratic_interval_gap():
    failures = []
    prob = gap_quadratic(0.2)
    gamma = induce_gamma_exact(prob)
    u = udce_bruteforce(gamma)
    if u > 0.2 + 1e-12:
        failures.append(f"udce={u} > 0.2")
    s = sintce_hat(gamma, IntervalEstimatorConfig(epsilon=0.01, rng=SeededRng(4)))
    if s < 0.2 - EST_ERR:
        failures.append(f"sintce={s} < 0.18")
    _report(4, "quadratic gap between upper distance and interval error", failures)


def test_criterion_5_estimator_unbiasedness():
    start = time.time()
    reps = 10**5
    d = gen_dbeta(SyntheticConfig(beta=3.0, n=100, rng=SeededRng(42)))
    v, _, _, r = d.grouped()
    target = kce_exact(d, KernelKind.LAPLACE) ** 2
    failures = []
    for name, sampler, seed in (("fourier", _fourier_draws, 11), ("binning", _binning_draws, 12)):
        draws = sampler(v, r, d.n, reps, SeededRng(seed))
        if not (np.all(draws >= 0.0) and np.all(draws <= 1.0)):
            failures.append(f"{name}: draws outside [0, 1]")
        tol = 3.0 * draws.std(ddof=1) / math.sqrt(reps)
        if abs(draws.mean() - target) > tol:
            failures.append(
                f"{name}: mean {draws.mean()} vs kce^2 {target} beyond 3 sigma ({tol})"
            )
    elapsed = time.time() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 1 minute")
    _report(5, "fourier/binning estimators unbiased and bounded", failures)


def test_criterion_6_kernel_identities():
    reps = 10**6
    failures = []
    for i, d in enumerate((0.1, 0.5, 1.0)):
        cos_est, bin_est = kernel_identity_check(d, reps, SeededRng(600 + i))
        target = math.exp(-d)
        sigma_cos = math.sqrt((1 - math.exp(-2 * d)) / 2 / reps)
        sigma_bin = math.sqrt(target * (1 - target) / reps)
        if abs(cos_est - target) > 3 * sigma_cos:
            failures.append(f"d={d}: E[cos(omega d)]={cos_est} vs {target} beyond 3 sigma")
        if abs(bin_est - target) > 3 * sigma_bin:
            failures.append(f"d={d}: same-bin prob {bin_est} vs {target} beyond 3 sigma")
    _report(6, "Cauchy-feature and random-binning kernel identities", failures)


def test_criterion_7_gaussian_kernel_failure():
    d = gen_gauss_gap(GaussGapConfig(eps=0.05, n=10**5, rng=SeededRng(7)))
    kg = kce_exact(d, KernelKind.GAUSSIAN)
    kl = kce_exact(d, KernelKind.LAPLACE)
    # rounding to a 1e-4 grid moves smce by at most 1e-4 and keeps the LP small
    sm, _ = smce(round_to_grid(d, 1e-4))
    failures = []
    # stated threshold; the construction's actual Gaussian suppression at
    # eps=0.05 gives a ratio near 0.6, so this clause cannot hold
    if not kg / sm <= 0.1:
        failures.append(f"kce_gauss/smce = {kg / sm:.4f} > 0.1 (kce_gauss={kg}, smce={sm})")
    if not kl / sm >= 1 / 3 - 0.02:
        failures.append(f"kce_laplace/smce = {kl / sm:.4f} < 1/3 - 0.02")
    _report(7, "Gaussian kernel failure fixture", failures)


def test_criterion_8_strong_duality_and_lp_oracle():
    rng = np.random.default_rng(88)
    failures = []
    for i in range(100):
        d = random_distribution(rng, max_n=30)
        p, du = ldce_both_forms(d, EPS1, EPS2)
        if abs(p - du) > 1e-6:
            failures.append(f"ldce instance {i}: primal {p} vs dual {du}")
    for i in range(100):
        d = random_distribution(rng, max_n=50)
        fast, _ = smce(d)
        oracle = smce_full_pairwise(d)
        if abs(fast - oracle) > 1e-8:
            failures.append(f"smce instance {i}: adjacent {fast} vs pairwise {oracle}")
    _report(8, "strong duality and pairwise-constraint oracle", failures)


def test_criterion_9_figure2_sweep(tmp_path):
    start = time.time()
    out = tmp_path / "sweep.csv"
    rc = cli_main([
        "sweep", "--beta-grid", "0.01,0.1,0.33,1,3,10,100", "--n", "10000",
        "--trials", "50", "--metrics", "smce,kce-laplace,binned-ece",
        "--seed", "9", "--jobs", "2", "--output", str(out),
    ])
    failures = []
    if rc != 0:
        failures.append(f"sweep exited {rc}")
    else:
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        data: dict[tuple[float, str], list[float]] = {}
        for beta, _trial, metric, value in rows:
            data.setdefault((float(beta), metric), []).append(float(value))
        means = {k: float(np.mean(vs)) for k, vs in data.items()}
        stds = {k: float(np.std(vs)) for k, vs in data.items()}
        for metric in ("smce", "kce-laplace", "binned-ece"):
            if means[(1.0, metric)] > 0.05:
                failures.append(f"beta=1 mean {metric} = {means[(1.0, metric)]:.4f} > 0.05")
        if means[(0.01, "binned-ece")] < 3 * means[(0.01, "smce")]:
            failures.append(
                f"beta=0.01: binned-ece {means[(0.01, 'binned-ece')]:.4f} "
                f"< 3 x smce {means[(0.01, 'smce')]:.4f}"
            )
        ratio = means[(0.01, "smce")] / means[(0.01, "kce-laplace")]
        if not (1 / 3 <= ratio <= 3):
            failures.append(f"beta=0.01: smce/kce ratio {ratio:.3f} outside [1/3, 3]")
        for (beta, metric), s in stds.items():
            if s > 0.02:
                failures.append(f"beta={beta} {metric}: std {s:.4f} > 0.02")
    elapsed = time.time() - start
    if elapsed >= 900:
        failures.append(f"runtime {elapsed:.1f}s exceeds 15 minutes")
    _report(9, "temperature-sweep qualitative reproduction", failures)


def test_criterion_10_sample_concentration():
    med = {}
    for n, base in ((1000, 100), (10000, 200)):
        values = []
        for s in range(20):
            d = gen_dbeta(SyntheticConfig(beta=1.0, n=n, rng=SeededRng(base + s)))
            values.append(smce(d)[0])
        med[n] = float(np.median(values))
    failures = []
    if med[10000] > 0.6 * med[1000]:
        failures.append(f"median smce at n=1e4 ({med[10000]:.5f}) > 0.6 x n=1e3 ({med[1000]:.5f})")
    _report(10, "smce shrinks like n^-1/2 on calibrated data", failures)
