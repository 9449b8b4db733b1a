"""One fresh interpreter of a benchmark run.

Imports the program from the checkout's ``src``, prepares the workload and
prints ``ready``.  With ``--probe`` it stops there: the parent times several
such starts for ``setup_s``.  Otherwise it runs whole rounds of the
workload's operations in a closed loop for ``--seconds``, checks every
output, and prints one JSON line with its counts and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3        # a median needs at least three samples per input
MAX_LOOP_S = 120.0    # a run never starts a round after this, so it ends within 180 s
LDCE_EPS = 0.005      # the eps1 = eps2 acceptance criterion 1 and calib measure use
SINTCE_EPS = 0.01


def _import_program():
    t0 = time.perf_counter()
    import calibdist
    import calibdist.cli
    import_s = time.perf_counter() - t0
    src = (ROOT / "src").resolve()
    if Path(calibdist.__file__).resolve().parent.parent != src:
        raise SystemExit(f"calibdist was imported from {calibdist.__file__}, not from {src}")
    return import_s


class MeasureOp:
    """One ``calib measure`` call on one input file."""

    def __init__(self, path: Path, spec, seed: int):
        from calibdist.cli import METRIC_NAMES
        from inputs import METRICS_ALL

        self.label = path.name
        self.path = path
        self.rows = spec.n
        self.bytes = path.stat().st_size
        self.argv = ["measure", "--input", str(path), "--metrics", spec.metrics,
                     "--seed", str(seed), "--output", "-"]
        self.metrics = list(METRIC_NAMES) if spec.metrics == METRICS_ALL else spec.metrics.split(",")

    def __call__(self, api):
        from calibdist import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"calib measure exited with {rc}")
        return buf.getvalue()

    def check(self, outputs):
        import checks
        return checks.check_measure(outputs, self.path, self.metrics)


class ChainOp:
    """One acceptance-style instance: ldce, smce, kce_L and sintce called directly."""

    def __init__(self, label: str, dist, rng_seed: tuple[int, ...]):
        self.label = label
        self.dist = dist
        self.rows = dist.n
        self.bytes = 0
        self.rng_seed = rng_seed

    def __call__(self, api):
        from calibdist import IntervalEstimatorConfig, KernelKind, SeededRng

        d = self.dist
        rng = SeededRng(self.rng_seed[0]).substream(*self.rng_seed[1:])
        return {
            "ldce": api.ldce(d, LDCE_EPS, LDCE_EPS),
            "smce": api.smce(d)[0],
            "kce-laplace": api.kce_exact(d, KernelKind.LAPLACE),
            "sintce": api.sintce_hat(d, IntervalEstimatorConfig(epsilon=SINTCE_EPS, rng=rng)),
        }

    def check(self, outputs):
        import checks
        return checks.check_chain(self.dist.v, self.dist.y, outputs, self.label)


def chain_instances(seed: int):
    """Criterion 1's random families and fixture constructions, at n <= 200 where sampled."""
    from calibdist import (EmpiricalDistribution, GaussGapConfig, SeededRng, SyntheticConfig,
                           discontinuity_pair, f_eps, gap_pa_pair, gap_quadratic, gen_dbeta,
                           gen_gauss_gap, induce_gamma_exact, make_empirical)
    from inputs import CHAIN_RANDOM, random_chain_instance

    root = SeededRng(seed)
    named = []
    for i in range(CHAIN_RANDOM):
        v, y = random_chain_instance(seed, i)
        named.append((f"random{i}", EmpiricalDistribution(v, y)))
    named += [
        ("f_eps", induce_gamma_exact(f_eps(0.01))),
        ("pa_gap0.1", induce_gamma_exact(gap_pa_pair(0.1)[0])),
        ("pa_gap0.25", induce_gamma_exact(gap_pa_pair(0.25)[0])),
        ("quad_gap", induce_gamma_exact(gap_quadratic(0.2))),
        ("discontinuity1", induce_gamma_exact(discontinuity_pair(0.01)[0])),
        ("discontinuity2", induce_gamma_exact(discontinuity_pair(0.01)[1])),
    ]
    for k, beta in enumerate((0.1, 1.0, 10.0)):
        cfg = SyntheticConfig(beta=beta, n=200, rng=root.substream(1, k))
        named.append((f"dbeta{beta:g}", gen_dbeta(cfg)))
    named += [
        ("gauss_gap", gen_gauss_gap(GaussGapConfig(eps=0.05, n=200, rng=root.substream(2)))),
        ("two_points", make_empirical([(0.0, 0), (1.0, 1)])),
        ("one_point", make_empirical([(0.5, 1)])),
    ]
    return [ChainOp(label, dist, (seed, 3, k)) for k, (label, dist) in enumerate(named)]


def prepare(workload: str, seed: int, workdir: Path):
    """(operations of one pass, call table, seconds spent building fixtures)."""
    import types

    from inputs import MEASURE, input_paths

    if workload in MEASURE:
        spec = MEASURE[workload]
        return [MeasureOp(p, spec, seed) for p in input_paths(workload, workdir)], None, 0.0
    import calibdist
    api = types.SimpleNamespace(ldce=calibdist.ldce, smce=calibdist.smce,
                                kce_exact=calibdist.kce_exact, sintce_hat=calibdist.sintce_hat)
    t0 = time.perf_counter()
    ops = chain_instances(seed)
    return ops, api, time.perf_counter() - t0


def _grid_points(dist, eps1: float = LDCE_EPS, eps2: float = LDCE_EPS) -> int:
    """Points of the ldCE grid: rounded support plus 0 and 1, refined to spacing eps2."""
    import numpy as np
    rounded = np.minimum(np.floor(dist.v / eps1 + 0.5) * eps1, 1.0)
    base = np.unique(np.concatenate([rounded, [0.0, 1.0]]))
    return 1 + int(np.ceil(np.diff(base) / eps2 - 1e-12).sum())


def _interval_sizes(args, result):
    dist, cfg = args[0], args[1]
    kstar = max(0, math.ceil(math.log2(2.0 / cfg.epsilon)))  # eps/4 < 2^-k* <= eps/2
    widths = kstar + 1
    return {"interval.widths": widths, "interval.draws": widths * cfg.resolved_shifts(),
            "interval.rows_swept": widths * dist.n}


def _smooth_sizes(args, result):
    import numpy as np
    d = int(np.unique(args[0].v).size)
    return {"smooth.lp_vars": d, "smooth.lp_rows": 2 * (d - 1)}


def _lowerdist_sizes(args, result):
    return {"lowerdist.grid_points": _grid_points(args[0])}


def install_tracer(tracer, api):
    """Spans at the layer boundaries: the metric functions the caller looks up."""
    if api is not None:
        target = api
        calls = [("ldce", "lowerdist", _lowerdist_sizes), ("smce", "smooth", _smooth_sizes),
                 ("kce_exact", "kernel", None), ("sintce_hat", "interval", _interval_sizes)]
    else:
        from calibdist import cli
        target = cli
        calls = [("ece", "binning", None), ("binned_ece", "binning", None),
                 ("sintce_hat", "interval", _interval_sizes), ("smce", "smooth", _smooth_sizes),
                 ("ldce", "lowerdist", _lowerdist_sizes),
                 ("kce_estimate_squared", "kernel", None)]
        tracer.patch(cli.CalibrationReport, "to_json", "cli")
    missing = [name for name, layer, sizer in calls
               if not tracer.patch(target, name, layer, sizer)]
    if missing:
        print(f"perfbench: trace: no {', '.join(missing)} to wrap", file=sys.stderr)


def run_loop(ops, api, seconds: float, tracer=None):
    """Whole rounds of every operation, until ``seconds`` have passed (at least MIN_ROUNDS)."""
    times = {op.label: [] for op in ops}
    outputs = {op.label: [] for op in ops}
    attempted = failed = 0
    round_spans, sizes = [], {}
    op_layer = "chain" if api is not None else "cli"
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        if rounds and time.perf_counter() - start > MAX_LOOP_S:
            break
        first = len(tracer.spans) if tracer else 0
        for k, op in enumerate(ops):
            attempted += 1
            span = None
            if tracer:
                tracer.op = rounds * len(ops) + k
                span = tracer.begin(op.label, op_layer)
            t0 = time.perf_counter()
            try:
                out = op(api)
            except Exception as e:  # an operation that fails is counted, not fatal
                failed += 1
                print(f"perfbench: {op.label}: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            finally:
                if span:
                    tracer.end(span)
            times[op.label].append(time.perf_counter() - t0)
            outputs[op.label].append(out)
        if tracer:
            round_spans.append((first, len(tracer.spans)))
            sizes = tracer.count_sizes()
        rounds += 1
    return times, outputs, attempted, failed, rounds, round_spans, sizes


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=Path, default=None, help="write spans here and report per-layer metrics")
    p.add_argument("--probe", action="store_true", help="exit once ready")
    args = p.parse_args(argv)

    import_s = _import_program()
    ops, api, fixtures_s = prepare(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.probe:
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        install_tracer(tracer, api)
    times, outputs, attempted, failed, rounds, round_spans, sizes = run_loop(
        ops, api, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    for op in ops:
        problems += op.check(outputs[op.label])
    for msg in problems:
        print(f"perfbench: check: {msg}", file=sys.stderr)

    pass_rows = sum(op.rows for op in ops)
    pass_s = sum(statistics.median(times[op.label]) for op in ops if times[op.label])
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "rounds": rounds, "pass_rows": pass_rows, "pass_s": pass_s,
              "op_times_s": times}
    if tracer is None:
        result["metrics"] = {"rows_per_s": pass_rows / pass_s if pass_s else 0.0,
                             "peak_rss_mb": peak_rss_mb}
    else:
        from tracer import per_layer_metrics
        metrics = per_layer_metrics(tracer, round_spans)
        spans_per_pass = statistics.median(b - a for a, b in round_spans)
        metrics.update({
            "import.s": import_s,
            "fixtures.self_s": fixtures_s,
            "cli.rows": sum(op.rows for op in ops if isinstance(op, MeasureOp)),
            "cli.bytes": sum(op.bytes for op in ops),
            "interval.widths": sizes.get("interval.widths", 0),
            "interval.draws": sizes.get("interval.draws", 0),
            "interval.rows_swept": sizes.get("interval.rows_swept", 0),
            "smooth.lp_vars": sizes.get("smooth.lp_vars", 0),
            "smooth.lp_rows": sizes.get("smooth.lp_rows", 0),
            "lowerdist.grid_points": sizes.get("lowerdist.grid_points", 0),
            "trace.rows_per_s": pass_rows / pass_s if pass_s else 0.0,
            "trace.overhead": spans_per_pass * tracer.span_cost_s() / pass_s if pass_s else 0.0,
        })
        result["metrics"] = metrics
        tracer.write(args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
