"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workload enhance_stream --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, for the
``run_seconds`` that ``BENCHMARK.json`` sets, and prints every run's result
line. Then, per metric, it prints the median, the quartile spread (third
minus first quartile, as a share of the median) and the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out["spread"] = (q3 - q1) / med if med else 0.0
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, values = [], {}
    for seed in args.seeds:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        if len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        wall_s = time.perf_counter() - start
        runs.append({"seed": seed, "wall_s": wall_s, "result": result})
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(json.dumps({"seed": seed, "wall_s": round(wall_s, 1), **result}), flush=True)
    for name, v in values.items():
        s = summarize(v)
        print(f"{name:16s} median {s['median']:.6g}  spread {s.get('spread', 0.0):.4f}"
              f"  bound {bounds.get(name)}")
    failed_share = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
    print(f"run wall time: median {statistics.median(r['wall_s'] for r in runs):.1f} s, "
          f"max {max(r['wall_s'] for r in runs):.1f} s")
    print(f"failed/attempted per run: {sorted(failed_share)}; "
          f"all correct: {all(r['result']['correct'] for r in runs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
