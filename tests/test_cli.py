import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import calibdist
from calibdist import SeededRng, SolverFailure, SyntheticConfig, gen_dbeta
from calibdist.cli import (METRIC_NAMES, ParseError, _compute_metric, _parse_lines, _read_samples,
                           build_parser, main)


def _write_csv(path, pairs):
    lines = ["v,y"] + [f"{v},{y}" for v, y in pairs]
    path.write_text("\n".join(lines) + "\n")


def test_measure_report_shape(tmp_path):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.1, 0), (0.4, 1), (0.9, 1)])
    out = tmp_path / "r.json"
    rc = main(["measure", "--input", str(src), "--metrics", "ece,smce",
               "--output", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["n"] == 3
    assert report["tool_version"]
    assert report["input_digest"].startswith("sha256:")
    assert set(report["metrics"]) == {"ece", "smce"}
    assert "value" in report["metrics"]["ece"]
    assert "value" in report["metrics"]["smce"]


def test_measure_deterministic(tmp_path):
    src = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    _write_csv(src, [(round(float(v), 6), int(y))
                     for v, y in zip(rng.random(200), rng.integers(0, 2, 200))])
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        rc = main(["measure", "--input", str(src), "--metrics",
                   "kce-laplace,sintce,smce", "--kce-mode", "subsample",
                   "--kce-terms", "5000", "--seed", "7", "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_measure_metric_streams_keyed_by_name(tmp_path):
    # each metric draws from the substream of its METRIC_NAMES position, so its
    # entry does not depend on which other metrics were requested
    src = tmp_path / "d.csv"
    rng = np.random.default_rng(8)
    _write_csv(src, [(round(float(v), 3), int(y))
                     for v, y in zip(rng.random(80), rng.integers(0, 2, 80))])

    def measure(metrics):
        out = tmp_path / "r.json"
        assert main(["measure", "--input", str(src), "--metrics", metrics,
                     "--kce-mode", "subsample", "--eps", "0.1", "--seed", "11",
                     "--output", str(out)]) == 0
        return json.loads(out.read_text())["metrics"]

    together = measure("all")
    assert len(together) == 8
    for name, entry in together.items():
        assert measure(name) == {name: entry}


def _package_env():
    src = str(Path(calibdist.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_import_leaves_cli_unloaded_and_module_run_warns_nothing(tmp_path):
    env = _package_env()
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, calibdist; print('calibdist.cli' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True)
    assert probe.stdout.strip() == "False"
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "calibdist.cli",
         "measure", "--input", str(tmp_path / "missing.csv")],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == 2
    assert run.stderr.startswith("calib: parse error:")


_SCIPY_PROBE = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import calibdist, calibdist.cli
print(len(scipy_modules()))
# the process pool is imported by sweep --jobs > 1 only
print(any(m in sys.modules for m in ("concurrent.futures.process", "multiprocessing")))
import numpy as np
from calibdist import IntervalEstimatorConfig, KernelKind, SeededRng
rng = np.random.default_rng(0)
d = calibdist.EmpiricalDistribution(rng.random(300), rng.integers(0, 2, 300))
calibdist.smce(d)
calibdist.kce_exact(d, KernelKind.LAPLACE)
calibdist.kce_exact(d, KernelKind.GAUSSIAN)
calibdist.sintce_hat(d, IntervalEstimatorConfig(epsilon=0.1, rng=SeededRng(1)))
calibdist.ece(d)
print(len(scipy_modules()))
calibdist.ldce(d)
print("scipy.optimize" in scipy_modules())
"""


def test_import_and_numpy_metrics_load_no_scipy():
    # scipy is loaded by the lower-distance LPs only; the last line checks
    # that the probe would see it
    run = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], capture_output=True,
                         text=True, env=_package_env(), check=True)
    assert run.stdout.split() == ["0", "False", "0", "True"]


def test_measure_all_sorts_the_pairs_once(tmp_path, monkeypatch):
    from calibdist import core, kernel

    calls = []

    def counted(dist):
        calls.append(dist.n)
        return sorted_pairs(dist)

    sorted_pairs = core.sorted_pairs
    monkeypatch.setattr(core, "sorted_pairs", counted)
    monkeypatch.setattr(kernel, "sorted_pairs", counted)
    src = tmp_path / "d.csv"
    rng = np.random.default_rng(3)
    _write_csv(src, [(round(float(v), 3), int(y))
                     for v, y in zip(rng.random(300), rng.integers(0, 2, 300))])
    assert main(["measure", "--input", str(src), "--metrics", "all", "--eps", "0.1",
                 "--output", str(tmp_path / "r.json")]) == 0
    assert calls == [300]


def test_seed_outside_64_bits_is_a_flag_error(tmp_path, capsys):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.5, 1)])
    for seed in ("-1", str(2**64)):
        assert main(["measure", "--input", str(src), "--metrics", "ece", "--seed", seed]) == 1
        assert main(["generate", "--family", "dbeta", "--n", "10", "--seed", seed]) == 1
        assert main(["sweep", "--beta-grid", "1", "--n", "10", "--trials", "1",
                     "--metrics", "ece", "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"calib: error: seed must be an integer in [0, 2^64), got {seed}\n" * 3


def test_measure_sintce_draw_cap_is_an_error_entry(tmp_path, capsys):
    from calibdist.interval import default_shifts

    src = tmp_path / "d.csv"
    _write_csv(src, [(0.1, 0), (0.4, 1), (0.9, 1)])

    def sintce_entry(eps):
        assert main(["measure", "--input", str(src), "--metrics", "sintce,ece",
                     "--eps", str(eps)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        metrics = json.loads(captured.out)["metrics"]
        assert "value" in metrics["ece"]
        return metrics["sintce"]

    # 1e-20 asks for more draws per width than the int64 piece counts hold;
    # 1e-4 for 4,563,025,980, which need no array of that length
    assert sintce_entry(1e-20)["error"].startswith(f"{default_shifts(1e-20)} shift draws per width")
    # the rule's eps^2 underflows to a subnormal at 1e-160 and to 0 at 1e-200
    for eps in (1e-160, 1e-200):
        want = f"eps {eps} asks for an infinite number of shift draws per width"
        assert sintce_entry(eps)["error"] == want
    assert 0.0 < sintce_entry(1e-4)["value"] <= 2.0


def test_measure_all_on_calibrated_endpoints(tmp_path):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0, 0), (1, 1)])
    out = tmp_path / "r.json"
    rc = main(["measure", "--input", str(src), "--metrics", "all",
               "--output", str(out)])
    assert rc == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert set(metrics) == {
        "ece", "binned-ece", "binned-ece-w", "sintce", "smce", "ldce",
        "kce-laplace", "kce-gaussian",
    }
    assert metrics["ece"]["value"] == 0.0
    for name in ("smce", "ldce", "kce-laplace", "kce-gaussian", "sintce"):
        assert metrics[name]["value"] <= 0.004  # sintce floor is 2^-8


def test_measure_writes_to_stdout_by_default(tmp_path, capsys):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.5, 1), (0.5, 0)])
    assert main(["measure", "--input", str(src), "--metrics", "ece"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["metrics"]["ece"]["value"] == 0.0


def test_measure_parse_errors(tmp_path, capsys):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("prediction,label\n0.5,1\n")
    assert main(["measure", "--input", str(bad_header)]) == 2

    bad_line = tmp_path / "l.csv"
    bad_line.write_text("v,y\n0.5,1\noops\n")
    assert main(["measure", "--input", str(bad_line)]) == 2
    assert "line 3" in capsys.readouterr().err

    out_of_range = tmp_path / "o.csv"
    out_of_range.write_text("v,y\n1.5,1\n")
    assert main(["measure", "--input", str(out_of_range)]) == 2


def test_measure_bad_flags(tmp_path):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.5, 1)])
    assert main(["measure", "--input", str(src), "--metrics", "nope"]) == 1
    assert main(["measure", "--input", str(src), "--kce-mode", "quantum"]) == 1
    assert main(["measure", "--input", str(src), "--metrics", "kce-gaussian",
                 "--kce-mode", "fourier"]) == 1


def test_measure_metric_error_entry(tmp_path, monkeypatch):
    # a per-metric failure becomes an error entry; the metric still appears
    from calibdist.errors import TooLarge

    src = tmp_path / "d.csv"
    _write_csv(src, [(0.5, 1)])

    def boom(dist):
        raise TooLarge("synthetic failure")

    monkeypatch.setattr("calibdist.cli.ece", boom)
    out = tmp_path / "r.json"
    assert main(["measure", "--input", str(src), "--metrics", "ece,smce",
                 "--output", str(out)]) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["ece"]["error"] == "synthetic failure"
    assert "value" in metrics["smce"]


def test_measure_oversized_kce_draws_are_error_entries(tmp_path):
    # refused before allocation, so the huge counts cost nothing
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.5, 1), (0.3, 0)])
    for mode, flag in (("subsample", "--kce-terms"), ("fourier", "--kce-reps"),
                       ("binning", "--kce-reps")):
        out = tmp_path / f"{mode}.json"
        assert main(["measure", "--input", str(src), "--metrics", "kce-laplace",
                     "--kce-mode", mode, flag, str(10**15), "--output", str(out)]) == 0
        error = json.loads(out.read_text())["metrics"]["kce-laplace"]["error"]
        assert error.startswith(f"{10**15} ") and "byte cap" in error


def test_measure_solver_failure_exit_code(tmp_path, monkeypatch):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.5, 1), (0.3, 0)])

    def boom(dist):
        raise SolverFailure("numerical-failure")

    monkeypatch.setattr("calibdist.cli.smce", boom)
    assert main(["measure", "--input", str(src), "--metrics", "smce"]) == 3


def test_generate_dbeta(tmp_path, capsys):
    out = tmp_path / "d.csv"
    rc = main(["generate", "--family", "dbeta", "--beta", "1", "--n", "10000",
               "--seed", "1", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 10001
    assert lines[0] == "v,y"
    assert "dbeta" in capsys.readouterr().out


@pytest.mark.parametrize("to", [[], ["--output", "-"]], ids=["default", "dash"])
def test_generate_to_stdout_is_a_csv(tmp_path, capsys, to):
    # the description goes to stderr, so stdout reads back as the n rows
    assert main(["generate", "--family", "dbeta", "--n", "3", "--seed", "2", *to]) == 0
    out, err = capsys.readouterr()
    path = tmp_path / "d.csv"
    path.write_text(out)
    dist, _ = _read_samples(str(path))
    assert dist.n == 3
    assert err.startswith("dbeta family: ")


@pytest.mark.parametrize("argv", [
    ["measure", "--metrics", "ece"],
    ["generate", "--family", "dbeta", "--n", "5"],
    ["sweep", "--beta-grid", "1", "--n", "10", "--trials", "1", "--metrics", "ece"],
    ["reliability"],
], ids=lambda argv: argv[0])
def test_unwritable_output_is_an_error(tmp_path, capsys, argv):
    src = tmp_path / "in.csv"
    src.write_text("v,y\n0.2,0\n0.7,1\n")
    if argv[0] in ("measure", "reliability"):
        argv = [*argv, "--input", str(src)]
    target = tmp_path / "missing" / "out"
    assert main([*argv, "--output", str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"calib: error: cannot write {target}: ")
    assert "Traceback" not in err


def test_generate_pa_gap_support(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["generate", "--family", "pa-gap", "--alpha", "0.25", "--which", "1",
               "--n", "1000", "--seed", "2", "--output", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    values = {float(r.split(",")[0]) for r in rows}
    assert values == {0.25, 0.75}


def test_generate_gauss_gap_support(tmp_path):
    out = tmp_path / "d.csv"
    rc = main(["generate", "--family", "gauss-gap", "--eps", "0.05", "--n", "2000",
               "--seed", "3", "--output", str(out)])
    assert rc == 0
    vs = [float(r.split(",")[0]) for r in out.read_text().splitlines()[1:]]
    assert all(0.25 <= v <= 0.75 for v in vs)


def test_generate_unknown_family(tmp_path):
    assert main(["generate", "--family", "bogus", "--output", str(tmp_path / "x.csv")]) == 1


def test_generate_roundtrips_through_measure(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["generate", "--family", "f-eps", "--eps", "0.01", "--n", "500",
                 "--seed", "4", "--output", str(out)]) == 0
    report = tmp_path / "r.json"
    assert main(["measure", "--input", str(out), "--metrics", "ece",
                 "--output", str(report)]) == 0
    assert json.loads(report.read_text())["metrics"]["ece"]["value"] > 0.4


def test_sweep_row_count(tmp_path):
    out = tmp_path / "s.csv"
    rc = main(["sweep", "--beta-grid", "1", "--trials", "2", "--metrics", "ece",
               "--n", "50", "--seed", "5", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "beta,trial,metric,value"
    assert len(lines) == 3  # 1 beta x 2 trials x 1 metric


def test_sweep_malformed_grid(tmp_path, capsys):
    assert main(["sweep", "--beta-grid", "a,b", "--trials", "1",
                 "--output", str(tmp_path / "s.csv")]) == 1
    assert "--beta-grid" in capsys.readouterr().err


def test_sweep_deterministic_and_parallel_consistent(tmp_path):
    args = ["sweep", "--beta-grid", "0.5,2", "--trials", "2", "--metrics",
            "binned-ece,smce", "--n", "200", "--seed", "6"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--jobs", "2", "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_values_are_measure_metric_values(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["sweep", "--beta-grid", "0.5,2", "--trials", "2", "--metrics", "all",
                 "--n", "150", "--seed", "4", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2 * 2 * len(METRIC_NAMES)
    measure = build_parser().parse_args(["measure", "--input", "-"])
    grid = {"0.5": (0, 0.5), "2": (1, 2.0)}
    for beta, trial, name, value in rows:
        rng = SeededRng(4).substream(grid[beta][0], int(trial))
        dist = gen_dbeta(SyntheticConfig(beta=grid[beta][1], n=150, rng=rng.substream(0)))
        want = _compute_metric(name, dist, measure, rng.substream(1))["value"]
        assert value == f"{want:.12g}", (beta, trial, name)


def test_reliability_rows(tmp_path):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.1, 0), (0.9, 1)])
    out = tmp_path / "r.csv"
    rc = main(["reliability", "--input", str(src), "--bins", "2",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "lo,hi,count,mean_v,mean_y"
    counts = [int(l.split(",")[2]) for l in lines[1:]]
    assert sum(counts) == 2


def test_reliability_bins_zero_exit_one(tmp_path, capsys):
    src = tmp_path / "d.csv"
    _write_csv(src, [(0.5, 1)])
    for path in (src, tmp_path / "missing.csv"):  # --bins is checked before the input is read
        assert main(["reliability", "--input", str(path), "--bins", "0"]) == 1
        assert capsys.readouterr().err == "calib: error: bins must be a positive integer, got 0\n"


def test_reliability_calibrated_bins(tmp_path):
    gen = tmp_path / "d.csv"
    assert main(["generate", "--family", "dbeta", "--beta", "1", "--n", "10000",
                 "--seed", "9", "--output", str(gen)]) == 0
    out = tmp_path / "r.csv"
    assert main(["reliability", "--input", str(gen), "--bins", "20",
                 "--output", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        lo, hi, count, mean_v, mean_y = line.split(",")
        if int(count) >= 100:
            assert abs(float(mean_y) - float(mean_v)) <= 0.05


def test_bins_above_cap_refused_before_allocating(tmp_path, capsys):
    from calibdist import MAX_BINS

    src = tmp_path / "d.csv"
    _write_csv(src, [(0.1, 0), (0.9, 1)])
    bins = str(10**11)
    assert main(["measure", "--input", str(src), "--metrics", "binned-ece,binned-ece-w,ece",
                 "--bins", bins]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    for name in ("binned-ece", "binned-ece-w"):
        assert metrics[name]["error"] == f"bins must be at most {MAX_BINS}, got {bins}"
    assert "value" in metrics["ece"]
    assert main(["reliability", "--input", str(src), "--bins", bins]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"calib: error: bins must be at most {MAX_BINS}, got {bins}\n"


def test_non_finite_beta_is_an_error(tmp_path, capsys):
    for grid in ("nan", "inf", "1,nan", "-inf", "0.5,inf"):
        assert main(["sweep", f"--beta-grid={grid}", "--n", "10", "--trials", "1",
                     "--metrics", "ece"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"calib: error: --beta-grid: values must be positive reals, "
                                f"got {grid!r}\n")
    for beta in ("nan", "inf"):
        out = tmp_path / "g.csv"
        assert main(["generate", "--family", "dbeta", "--beta", beta, "--n", "10",
                     "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"calib: error: beta must be finite, got {beta}\n"


def test_sweep_jobs_below_one_is_a_flag_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for jobs in ("0", "-2"):
        assert main(["sweep", "--beta-grid", "1", "--n", "10", "--trials", "1",
                     "--metrics", "ece", "--jobs", jobs, "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"calib: error: --jobs must be >= 1, got {jobs}\n"


def test_sweep_trials_below_one_is_a_flag_error(tmp_path, capsys):
    out = tmp_path / "s.csv"
    for trials in ("0", "-1"):
        assert main(["sweep", "--beta-grid", "1", "--n", "-5", "--trials", trials,
                     "--metrics", "ece", "--output", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == f"calib: error: --trials must be >= 1, got {trials}\n"


# Fragments of input files for the differential test of the CSV reader: rows
# the numpy path takes, and every near miss it must leave to the line scan.
_V_PLAIN = st.one_of(
    st.floats(0.0, 1.0).map(repr),
    st.integers(0, 1000).map(lambda k: f"{k / 1000:.3f}"),
    st.sampled_from(["0", "1", "1.0", "0.5", ".5", "+.25", "5E-1", "1e-3", "-0.0",
                     "1e-400", "0.000", "1.000"]),
)
_V_ODD = st.sampled_from(["0.2_5", "1e400", "-1e400", "nan", "inf", "-inf", " 0.5",
                          "0.5 ", "", "1.5", "-0.1", "1.0000000000000002", "abc", "0..5",
                          "1e", "e5", "1-5", "+", "é", "٠", "0x1p-1", "NaN"])
_LABEL_ODD = st.sampled_from(["1.0", " 1", "1 ", "2", "", "-1", "0,1", "1,", "01", "١"])
_END_ODD = st.sampled_from(["\r\n", "\r", "\x0b", "\x1c", " ", ",\n"])
_HEADER_ODD = st.sampled_from(["v,y\r\n", "﻿v,y\n", "v,y", " v,y\n", "v,y \n",
                               "x,y\n", "v;y\n", "V,Y\n", ""])
_PLAIN_ROW = st.tuples(_V_PLAIN, st.sampled_from(["0", "1"])).map(lambda t: f"{t[0]},{t[1]}\n")
_ODD_ROW = st.one_of(
    st.tuples(st.one_of(_V_PLAIN, _V_ODD), st.one_of(st.sampled_from(["0", "1"]), _LABEL_ODD),
              st.one_of(st.just("\n"), _END_ODD)).map(lambda t: f"{t[0]},{t[1]}{t[2]}"),
    st.sampled_from(["\n", "  \n", "\t\n", "0.5\n", "0.5,1,1\n", ",\n", "0.5;1\n"]),
)


@st.composite
def _csv_bytes(draw):
    header = draw(st.one_of(st.just("v,y\n"), _HEADER_ODD))
    plain = draw(st.booleans())
    rows = draw(st.lists(_PLAIN_ROW if plain else st.one_of(_PLAIN_ROW, _ODD_ROW), max_size=8))
    text = header + "".join(rows)
    if draw(st.booleans()):
        text = text.rstrip("\n")  # no final newline
    raw = text.encode("utf-8")
    if draw(st.integers(0, 15)) == 0:
        raw += b"\xff,1\n"  # not UTF-8
    return raw


# a value in [0, 1] at 0 to 22 decimals, with or without its trailing zeros
_DECIMAL_TEXT = st.builds(
    lambda x, k, strip, lead: lead + (f"{x:.{k}f}".rstrip("0") if strip else f"{x:.{k}f}"),
    st.floats(0.0, 1.0), st.integers(0, 22), st.booleans(), st.sampled_from(["", "0", "00"]),
).filter(lambda t: t.rstrip(".") and float(t) <= 1.0)


# fields that look decimal but are outside the exact pass's form or limits
_NEAR_MISS = st.one_of(
    st.sampled_from(["0..5", "0.5.5", "5..", ".", "0.2e0", "+0.5", "-0", "0.9007199254740992"]),
    st.floats(0.0, 1.0).map(lambda x: f"{x:.23f}"),  # 23 fraction digits
)


@st.composite
def _decimal_bytes_with_near_miss(draw):
    """A file of decimal rows the exact pass takes, but for one near-miss row."""
    values = draw(st.lists(_DECIMAL_TEXT, min_size=1, max_size=12))
    values.insert(draw(st.integers(0, len(values))), draw(_NEAR_MISS))
    labels = draw(st.lists(st.sampled_from("01"), min_size=len(values), max_size=len(values)))
    raw = ("v,y\n" + "".join(f"{v},{y}\n" for v, y in zip(values, labels))).encode()
    end = draw(st.sampled_from([b"\n", b"\r\n", b""]))
    return raw[:-1] if end == b"" else raw.replace(b"\n", end)


def _reader_outcome(read, path):
    try:
        v, y, digest = read(path)
    except ParseError as e:
        return "error", str(e)
    return [x.hex() for x in np.asarray(v).tolist()], np.asarray(y).tolist(), digest


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=st.one_of(_csv_bytes(), _decimal_bytes_with_near_miss()))
@example(raw=b"v,y\n")
@example(raw=b"v,y\n0.5,1")
@example(raw=b"v,y\r\n0.5,1\r\n")
@example(raw=b"\xef\xbb\xbfv,y\n0.5,1\n")
@example(raw=b"v,y\n0.2_5,1\n")
@example(raw=b"v,y\n1e400,1\n")
@example(raw=b"v,y\n1e-400,0\n-0.0,1\n")
@example(raw=b"v,y\n0.5,1\n\n0.25,0\n")
@example(raw=b"v,y\n0.5,1,0\n")
def test_read_samples_matches_line_scan(tmp_path, raw):
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()

    def fast(p):
        dist, dg = _read_samples(p)
        return dist.v, dist.y, dg

    def scan(p):
        return (*_parse_lines(p, raw), digest)

    assert _reader_outcome(fast, str(path)) == _reader_outcome(scan, str(path))


def test_plain_files_skip_the_line_scan(tmp_path, monkeypatch):
    def no_scan(path, raw):
        raise AssertionError(f"line scan of {path}")

    gen = tmp_path / "gen.csv"
    assert main(["generate", "--family", "dbeta", "--beta", "0.5", "--n", "3000",
                 "--seed", "2", "--output", str(gen)]) == 0
    rng = np.random.default_rng(12)
    three = tmp_path / "three.csv"
    three.write_text("v,y\n" + "".join(f"{v:.3f},{y}\n" for v, y in
                                        zip(rng.random(3000), rng.integers(0, 2, 3000))))
    crlf = tmp_path / "crlf.csv"
    crlf.write_bytes(three.read_bytes().replace(b"\n", b"\r\n"))
    expected = {p: _read_samples(str(p)) for p in (gen, three, crlf)}
    monkeypatch.setattr("calibdist.cli._parse_lines", no_scan)
    for path, (dist, digest) in expected.items():
        assert _read_samples(str(path)) == (dist, digest)
        report = tmp_path / "r.json"
        assert main(["measure", "--input", str(path), "--metrics", "ece,smce",
                     "--output", str(report)]) == 0
        assert json.loads(report.read_text())["n"] == 3000
    assert expected[crlf][0] == expected[three][0]
    assert expected[crlf][1] != expected[three][1]  # the digest is of the file's own bytes
    stray = tmp_path / "stray.csv"
    stray.write_bytes(b"v,y\r\n0.5,1\r")
    with pytest.raises(AssertionError, match="line scan"):
        _read_samples(str(stray))


def _float_bits(values):
    return [float(v).hex() for v in values]


def _read_bits(path):
    dist, _ = _read_samples(str(path))
    return [x.hex() for x in dist.v.tolist()], dist.y.tolist()


def _count_loadtxt(monkeypatch) -> list:
    """A list that grows by one on each np.loadtxt call."""
    calls = []
    loadtxt = np.loadtxt

    def counted(*args, **kwargs):
        calls.append(1)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


def _no_line_scan(path, raw):
    raise AssertionError(f"line scan of {path}")


# (prediction, whether it is within the exact decimal pass's limits)
_DECIMAL_LIMITS = [
    ("0.9007199254740991", True),  # digits 2**53 - 1
    ("0.9007199254740992", False),  # digits 2**53
    ("0." + "0" * 21 + "1", True),  # 22 fraction digits
    ("0." + "0" * 21 + "7", True),
    ("0." + "0" * 22 + "1", False),  # 23: 10**23 is not a double
    ("0." + "0" * 22 + "7", False),
    (".5", True), ("1.", True), ("000.250", True), ("0.000", True), ("1.000", True),
    ("0", True), ("1", True), ("0.1", True), ("0.3", True), ("0.999999999999999", True),
    ("0.5.5", False), ("..5", False), ("5..", False), (".", False), ("0.2e0", False),
]


@pytest.mark.parametrize("field,decimal", _DECIMAL_LIMITS)
def test_decimal_pass_gives_float_bits_at_its_limits(tmp_path, monkeypatch, field, decimal):
    calls = _count_loadtxt(monkeypatch)
    path = tmp_path / "d.csv"
    for rows in ([field], [field, "0.25", "1.000"]):
        text = "v,y\n" + "".join(f"{v},{k % 2}\n" for k, v in enumerate(rows))
        # as written, with no final newline, and with CRLF line ends
        for raw in (text, text[:-1], text.replace("\n", "\r\n")):
            path.write_bytes(raw.encode())
            try:
                want = _float_bits(rows), [k % 2 for k in range(len(rows))]
            except ValueError:
                with pytest.raises(ParseError, match="line 2: bad prediction"):
                    _read_samples(str(path))
                continue
            before = len(calls)
            assert _read_bits(path) == want
            assert (len(calls) == before) == decimal


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=st.lists(_DECIMAL_TEXT, min_size=1, max_size=30), crlf=st.booleans())
def test_decimal_renderings_read_as_float(tmp_path, values, crlf):
    text = "v,y\n" + "".join(f"{v},1\n" for v in values)
    raw = text.encode().replace(b"\n", b"\r\n") if crlf else text.encode()
    path = tmp_path / "d.csv"
    path.write_bytes(raw)
    assert _read_bits(path) == (_float_bits(values), [1] * len(values))


def test_three_decimal_files_skip_loadtxt(tmp_path, monkeypatch):
    rng = np.random.default_rng(13)
    v, y = rng.random(40_000).tolist(), rng.integers(0, 2, 40_000).tolist()
    three = tmp_path / "three.csv"
    three.write_text("v,y\n" + "".join(f"{a:.3f},{b}\n" for a, b in zip(v, y)))
    full = tmp_path / "full.csv"
    full.write_text("v,y\n" + "".join(f"{a!r},{b}\n" for a, b in zip(v, y)))
    calls = _count_loadtxt(monkeypatch)
    monkeypatch.setattr("calibdist.cli._parse_lines", _no_line_scan)
    dist, _ = _read_samples(str(three))
    assert calls == [] and dist.v.tolist() == [float(f"{a:.3f}") for a in v]
    dist, _ = _read_samples(str(full))
    assert calls == [1] and dist.v.tolist() == v
