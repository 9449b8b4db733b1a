"""Benchmark of calibdist: ``calib measure`` at three input shapes and the acceptance chain.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Writes the workload's inputs, then times five fresh interpreters up to the
point where they are ready to run the first operation; the third of them
runs the workload's operations for ``--seconds``.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = HERE / "_work"       # generated inputs
TRACES = HERE / "_traces"      # span files of traced runs
RESULTS = HERE / "_results"    # one JSON file per run
# Fresh interpreters timed per run: probes before the timed loop, the worker
# itself, probes after it.  setup_s is their median; sampling both ends of the
# run keeps a short slow spell of a shared machine from setting it.
PROBES_BEFORE = PROBES_AFTER = 2
DEADLINE_S = 175.0

sys.path.insert(0, str(HERE))
from inputs import MEASURE, WORKLOADS, write_measure_inputs  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: with default threading the Gaussian kernel series at
    # n = 10^5 took 0.4 s per call instead of 0.03 s on 2 shared cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and return it with the seconds it took to print ``ready``."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    ready_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise SystemExit(f"perfbench: worker did not get ready (exit {proc.returncode})")
    return proc, ready_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.perf_counter()

    if not (ROOT / "src" / "calibdist" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'calibdist'}", file=sys.stderr)
        return 2
    if args.workload in MEASURE:
        write_measure_inputs(args.workload, args.seed, WORKDIR)

    env = child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(WORKDIR)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup = []

    def probe():
        proc, ready_s = start_worker(common + ["--probe"], env)
        proc.communicate(timeout=60)
        setup.append(ready_s)

    for _ in range(0 if args.trace else PROBES_BEFORE):
        probe()
    run_args = common + ["--seconds", str(args.seconds)]
    if args.trace:
        run_args += ["--trace", str(TRACES / f"{tag}.jsonl")]
    proc, ready_s = start_worker(run_args, env)
    setup.append(ready_s)
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: worker overran the deadline", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(out.strip().splitlines()[-1])
    for _ in range(0 if args.trace else PROBES_AFTER):
        probe()

    metrics = dict(worker["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    detail = {**result, **{k: worker[k] for k in ("rounds", "pass_rows", "pass_s", "op_times_s")},
              "setup_samples_s": setup}
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
