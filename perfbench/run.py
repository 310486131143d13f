"""The benchmark of the FaHaNa search and serving stack: one command per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search-train --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` additionally repeats the work with spans around the layers'
public calls and reports the per-layer metrics (plus the tracing overhead).
Either way the output checks run, every metric is printed with its unit, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Full results (run fingerprint, checks, sample counts) and, for traced runs,
a Chrome trace of every span are written under ``.perfbench/results/``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from typing import Any, Dict, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTPUT = os.path.join(ROOT, ".perfbench")
# BLAS/OpenMP threads for every workload; 1 matches the engine's default
# EngineConfig.blas_threads_per_worker, and pinning it steadies the timings.
BLAS_THREADS = 1
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), "r", encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, "r", encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), "r", encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(seed: int) -> Dict[str, Any]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "seed": seed,
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def _overhead(untraced: Dict[str, float], traced: Dict[str, float], better: Dict[str, str]) -> Dict[str, float]:
    """Traced-versus-untraced change of each end-to-end metric (positive = slower)."""
    shares = {}
    for name, value in untraced.items():
        if name in traced and value and traced[name]:
            ratio = value / traced[name] if better.get(name) == "higher" else traced[name] / value
            shares[name] = ratio - 1.0
    return shares


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}; run from a repository checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        config = json.load(handle)
    if args.workload not in {workload["name"] for workload in config["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Pinned before numpy loads its BLAS; forked pool workers inherit it.
    for name in _BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    workdir = os.path.join(OUTPUT, f"work-{os.getpid()}")
    os.makedirs(workdir)
    # Keep every temporary file inside the checkout.
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    sys.path.insert(0, src)
    import workloads
    import spans as tracing

    try:
        untraced, traced, span_list = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = [untraced] + ([traced] if traced is not None else [])
    attempted = sum(each.attempted for each in passes)
    failed = sum(each.failed for each in passes)
    checks = [check for each in passes for check in each.checks]
    correct = failed == 0 and all(ok for _name, ok, _detail in checks)

    declared = config["per_layer"] if args.trace else config["end_to_end"]
    if args.trace:
        values = tracing.layer_metrics(span_list, traced.histories, traced.serving)
    else:
        values = untraced.metrics
    metrics = {item["name"]: {"value": values[item["name"]], "unit": item["unit"]} for item in declared}

    info = fingerprint(args.seed)
    better = {item["name"]: item["better"] for item in config["end_to_end"]}
    overhead = _overhead(untraced.metrics, traced.metrics, better) if traced is not None else {}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("fingerprint: " + json.dumps(info, sort_keys=True))
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail else ""))
    print(f"error_frac {failed / attempted if attempted else 0.0:.6f} ({failed}/{attempted} operations failed)")
    for name, item in metrics.items():
        print(f"{name:32s} {item['value']:>14.6g} {item['unit']}")
    for name, value in sorted(untraced.notes.items()):
        print(f"note {name}: {value}")
    for name, share in sorted(overhead.items()):
        print(f"tracing overhead {name}: {share:+.1%}")
    table = tracing.span_table(span_list)
    if table:
        print(f"{'span':28s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}")
        for name, calls, total, own in table:
            print(f"{name:28s} {calls:7d} {total:10.4f} {own:10.4f}")

    os.makedirs(os.path.join(OUTPUT, "results"), exist_ok=True)
    stem = os.path.join(OUTPUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(
            {
                "fingerprint": info,
                "workload": args.workload,
                "seconds": args.seconds,
                "metrics": metrics,
                "end_to_end": untraced.metrics,
                "traced_end_to_end": traced.metrics if traced is not None else None,
                "tracing_overhead": overhead,
                "span_table": table,
                "notes": untraced.notes,
                "checks": checks,
                "attempted": attempted,
                "failed": failed,
            },
            handle,
            indent=2,
            sort_keys=True,
        )
    if args.trace:
        with open(stem + ".trace.json", "w", encoding="utf-8") as handle:
            json.dump(tracing.chrome_trace(span_list), handle)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
