"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads measure-large,chain-small --seeds 1-10

Runs ``run.py`` once per (workload, seed), one after another, and prints for
each end-to-end metric its median, its quartiles and the distance between
the quartiles as a share of the median (``statistics.quantiles(n=4)``), next
to the bound that BENCHMARK.json fixes.  Also writes the table to
``perfbench/_results/spread.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    table = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            res = json.loads(done.stdout.strip().splitlines()[-1])
            shares.add(res["failed"] / res["attempted"])
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, correct={res['correct']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        rows = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                          "bound": bounds.get(name), "values": vals}
            print(f"  {workload:20s} {name:12s} median {med:12.6g}  spread {(q3 - q1) / med:7.2%}"
                  f"  bound {bounds.get(name, 0):.0%}")
        table[workload] = {"metrics": rows, "failed_shares": sorted(shares)}
    out = HERE / "_results" / "spread.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
