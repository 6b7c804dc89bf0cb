"""Run one workload of the awekit benchmark and print its metrics.

    python3 awebench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run it from the root of an awekit checkout; it imports awekit from
./src. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1. The
line before it holds the context record, sample counts and work counters.
Full records (and, with --trace 1, every span) go to awebench/out/. The
exit code is 0 only when every output check passed.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("train", "awe_search", "sdtw_search")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args()


def nproc():
    return len(os.sched_getaffinity(0))


def blas_info(np):
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    # Ask the loaded OpenBLAS for its thread count.
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for fn_name in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, fn_name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main():
    args = parse_args()
    if not (SRC / "awekit" / "__init__.py").is_file():
        print(f"no awekit sources under {SRC}: run from the root of an awekit checkout", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"missing {spec_path}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    # One BLAS thread. On a 2-vCPU virtual machine a second one made no
    # epoch faster, and samples stalled whenever the host descheduled it.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import awekit
    import bench

    if Path(awekit.__file__).resolve().parent != (SRC / "awekit").resolve():
        print(f"imported awekit from {awekit.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work = HERE / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    b = bench.Bench(args.workload, args.seed, args.seconds, work)
    try:
        measured, layers = b.run(bool(args.trace))
    except bench.CheckFailed as e:
        print(f"aborted: {e}", file=sys.stderr)
        measured, layers = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else measured
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    absent = [m["name"] for m in wanted if m["name"] not in values]
    correct = b.failed == 0 and b.attempted > 0 and (args.trace or not absent)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "blas": blas_info(np),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "src_lines": bench.src_lines(SRC),
    }
    detail = {
        "context": context,
        "samples": {k: bench.summarize(v) for k, v in b.reported_samples.items()},
        "measured_samples": {k: bench.summarize(v) for k, v in b.samples.items()},
        "probe_s": {kind: bench.summarize(c.times) for kind, c in b.clocks.items()},
        "untraced_samples": {k: bench.summarize(v) for k, v in b.untraced_samples.items()},
        "work_counters": b.counters,
        "max_score_error": b.max_score_error,
        "absent_metrics": absent,
        "failures": b.failures,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    record = {
        **detail,
        "all_samples": b.reported_samples,
        "all_measured_samples": b.samples,
        "all_untraced_samples": b.untraced_samples,
        "all_probes_s": {kind: c.times for kind, c in b.clocks.items()},
        "metrics": values,
    }
    if args.trace and b.tracer is not None:
        record["spans_summary"] = b.trace_summary()
        b.tracer.write_spans(out_dir / "spans.jsonl.gz")
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": bool(correct), "attempted": b.attempted, "failed": b.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
