"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload enhance_batch --seed 1 --seconds 35 --trace 0

Run from the repository root. It imports the program from ``src/`` of the
checkout it sits in, and pins BLAS to one thread before numpy loads, so
figures taken under different thread settings are never compared. The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced run reports the per-layer ones and writes its spans under
``perfbench/out/``. The line before the result records the machine, the
inputs, the checks and the workload's own figures.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import sys
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# glibc mallopt parameters. Fixed thresholds keep freed arrays up to 32 MiB in
# the heap for reuse, where glibc's default sends them back to the kernel until
# its threshold has adapted. Without this the first round of a run, and every
# push of a streaming round, pays page faults whose cost depends on the host.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MALLOC_SETTINGS = {M_MMAP_THRESHOLD: 32 << 20, M_TRIM_THRESHOLD: 1 << 30}


def _fix_malloc() -> bool:
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return all(libc.mallopt(opt, value) == 1 for opt, value in MALLOC_SETTINGS.items())


MALLOC_FIXED = _fix_malloc()

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def _import_program():
    src = ROOT / "src"
    if not (src / "tfcn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {src / 'tfcn'}; run from a full checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import tfcn
    if Path(tfcn.__file__).resolve().parent != (src / "tfcn").resolve():
        sys.exit(f"perfbench: imported tfcn from {tfcn.__file__}, not from {src}")
    return tfcn


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS numpy loaded, if it is one."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def machine_record() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_set": BLAS_THREADS,
            "blas_threads_reported": _blas_threads(),
            "malloc_thresholds_fixed": MALLOC_FIXED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tfcn = _import_program()
    import numpy as np

    from perfbench import workloads
    from perfbench.tracing import Tracer, per_layer_metrics

    OUT.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make(args.workload, args.seed, tfcn, OUT)
    except ValueError as exc:
        parser.error(str(exc))
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else None
    result = workload.run(args.seconds, tracer)

    rounds = result.rounds
    calls_ms = [1e3 * t for r in rounds for t in r.calls_s]
    if tracer is None:
        metrics = {
            "setup_s": (workloads.setup_seconds(result.setup_s), "s"),
            "call_ms_p50": (float(np.percentile(calls_ms, 50)), "ms"),
            "peak_mib": (statistics.median(r.peak_bytes for r in rounds) / 2 ** 20, "MiB"),
        }
    else:
        spans_path = OUT / f"spans-{run_id}.jsonl"
        tracer.write(spans_path)
        span_cost = tracer.span_cost()
        overhead = 100.0 * span_cost * len(tracer.spans) / sum(r.op_s for r in rounds)
        metrics = per_layer_metrics(tracer.spans, len(rounds), overhead)
        # too noisy on a shared host to bound (see README), so reported here
        metrics["rtf"] = (statistics.median(r.op_s for r in rounds) / result.audio_s, "s/s")
        metrics["call_ms_p90"] = (float(np.percentile(calls_ms, 90)), "ms")

    correct = bool(result.checks) and all(ok for _, ok, _ in result.checks)
    record = {"machine": machine_record(),
              "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": len(rounds), "audio_s": result.audio_s,
              "timed_calls": {"gc": "off", "tracemalloc": tracer is None},
              "snr_db": round(workload.snr_db, 3), "setup_samples": len(result.setup_s),
              "figures": result.figures,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in result.checks]}
    if tracer is not None:
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        record["span_cost_us"] = 1e6 * span_cost
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
