"""Tests of the benchmark's own checks: they pass on the program's output and
fail when a reported value is perturbed or a report is corrupted.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from calibdist import cli  # noqa: E402
from inputs import random_chain_instance  # noqa: E402
from worker import prepare  # noqa: E402


def _measure(path: Path, metrics: str = "all") -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["measure", "--input", str(path), "--metrics", metrics,
                         "--seed", "3", "--output", "-"]) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def measured():
    """A 1500-row three-decimal dbeta file and two same-seed reports on it."""
    rng = np.random.default_rng(11)
    f = rng.random(1500)
    y = (rng.random(1500) < f).astype(int)
    v = f**2 / (f**2 + (1 - f) ** 2)
    path = HERE / "_work" / "tests" / "d.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("v,y\n" + "".join(f"{a:.3f},{b}\n" for a, b in zip(v, y)))
    return path, [_measure(path), _measure(path)]


def _edit(report: str, fn) -> str:
    rep = json.loads(report)
    fn(rep)
    return cli.CalibrationReport(rep["n"], rep["input_digest"], rep["tool_version"],
                                 rep["metrics"]).to_json()


def test_measure_reports_pass(measured):
    path, reports = measured
    assert checks.check_measure(reports, path, cli.METRIC_NAMES) == []


@pytest.mark.parametrize("name,key,factor", [
    ("ece", "value", 1 + 1e-6),
    ("binned-ece", "value", 1 + 1e-6),
    ("binned-ece-w", "value", 1 - 1e-6),
    ("kce-laplace", "squared", 1 + 1e-6),
    ("kce-gaussian", "squared", 1 - 1e-6),
    ("kce-laplace", "value", 1 + 1e-6),
    ("smce", "value", 10.0),
    ("smce", "value", 1e-3),
    ("ldce", "value", 100.0),
    ("sintce", "value", 1e3),
])
def test_perturbed_value_fails(measured, name, key, factor):
    path, reports = measured

    def scale(rep):
        rep["metrics"][name][key] *= factor

    bad = _edit(reports[0], scale)
    assert checks.check_measure([bad], path, cli.METRIC_NAMES)


@pytest.mark.parametrize("corrupt", [
    lambda r: r[: len(r) // 2],                                   # truncated
    lambda r: _edit(r, lambda rep: rep["metrics"].pop("smce")),   # metric missing
    lambda r: _edit(r, lambda rep: rep["metrics"]["ldce"].update(value=float("nan"))),
    lambda r: _edit(r, lambda rep: rep["metrics"]["ece"].update(error="boom")),
    lambda r: _edit(r, lambda rep: rep.update(n=rep["n"] - 1)),
    lambda r: _edit(r, lambda rep: rep.update(input_digest="sha256:" + "0" * 64)),
])
def test_corrupted_report_fails(measured, corrupt):
    path, reports = measured
    assert checks.check_measure([corrupt(reports[0])], path, cli.METRIC_NAMES)


def test_differing_same_seed_reports_fail(measured):
    path, reports = measured
    other = reports[0].replace('"seed": 3', '"seed": 4', 1)
    assert checks.check_measure([reports[0], other], path, cli.METRIC_NAMES)


@pytest.fixture(scope="module")
def chain_ops():
    ops, api, _ = prepare("chain-small", 5, HERE / "_work")
    picked = [op for op in ops if op.label in ("random0", "random5", "pa_gap0.25", "dbeta10")]
    return [(op, op(api)) for op in picked]


def test_chain_results_pass(chain_ops):
    for op, res in chain_ops:
        assert op.check([res, dict(res)]) == [], op.label


@pytest.mark.parametrize("name,factor", [
    ("smce", 1 + 1e-5),      # caught by the pairwise LP on small instances
    ("kce-laplace", 1 + 1e-6),
    ("ldce", 10.0),
    ("sintce", 1e3),
])
def test_chain_perturbed_fails(chain_ops, name, factor):
    op, res = chain_ops[0]  # random0: n = 16, within the pairwise LP's reach
    assert op.check([{**res, name: res[name] * factor}])


def test_chain_rounds_must_agree(chain_ops):
    op, res = chain_ops[1]
    assert op.check([res, {**res, "smce": res["smce"] + 1e-15}])


def test_reference_values_match_definitions():
    v, y = random_chain_instance(2, 0)  # 16 samples
    r = y - v
    d = np.abs(v[:, None] - v[None, :])
    n2 = len(v) ** 2
    lap, gau, _ = checks.kce2_ref(v, y, block=5)
    assert lap == pytest.approx(r @ np.exp(-d) @ r / n2, rel=1e-12)
    assert gau == pytest.approx(r @ np.exp(-d * d) @ r / n2, rel=1e-12)
    ties = np.array([0.2, 0.2, 0.7, 0.05])
    labels = np.array([1, 0, 1, 0], dtype=np.int8)
    assert checks.ece_ref(ties, labels) == pytest.approx((0.6 + 0.3 + 0.05) / 4)
    assert checks.binned_ref(ties, labels, bins=2) == pytest.approx((0.55 + 0.3) / 4)
    assert checks.binned_ref(ties, labels, bins=2, width_penalty=True) == pytest.approx(0.85 / 4 + 0.5)
