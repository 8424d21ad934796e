"""Benchmark of the ccn library: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload epoch-tiny --seed 1 --seconds 35 --trace 0

``--trace 0`` sets up the workload three times, then runs its job once, and
again as long as another job fits in ``--seconds``; it reports the end-to-end
metrics of BENCHMARK.json. ``--trace 1`` makes four passes of one set-up and one job
each: untraced, traced, traced again on the same seed (the exact-repeat
counts must match), and untraced on a held-out seed. It reports the
per-layer metrics of the first traced pass and the traced-minus-untraced
overhead of each end-to-end metric. Output checks run in every pass; any
failed check or operation makes the exit code 1. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUPS = 3
HELD_OUT = 1_000_003  # held-out seed = seed + HELD_OUT
REPEAT_COUNTS = (
    "tensor.ops_per_step",
    "evaluation.decoder_positions",
    "evaluation.tokens_emitted",
    "data.batches",
    "checkpoint.bytes",
)


def limit_threads() -> int:
    """Pin BLAS to one thread; must run before numpy loads.

    The workloads' matrices are small, and a second BLAS thread would only add
    the other CPU's noise to the timings.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def fingerprint(nproc: int) -> dict:
    import platform

    import numpy as np
    from ccn import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "env": {v: os.environ.get(v) for v in (*THREAD_VARS, "CCN_NUMBA")},
        "kernels_backend": kernels.active_backend(),
    }


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload, seed: int, tmp: Path, setups: int, seconds: float, tracer=None):
    """Set up ``setups`` times, then run jobs for ``seconds`` (one job if traced).

    Returns the samples and the set-up times.
    """
    from workloads import Samples

    def traced(phase: str):
        return tracer.phase(phase) if tracer else nullcontext()

    setup_times = []
    for _ in range(setups):
        state = None  # keep one set-up's data alive at a time
        with traced("setup"):
            start = perf_counter()
            state = workload.setup(seed, tmp)
            setup_times.append(perf_counter() - start)
    if hasattr(workload, "prime"):
        with traced("setup"):
            workload.prime(state)  # timed neither as set-up nor as job
    out = Samples()
    start = perf_counter()
    while True:
        with traced("job"):
            out.jobs.append(workload.job(state, out))
        workload.check(state, out)
        # start another job only if one as long as the longest so far still fits
        if tracer is not None or perf_counter() - start + max(out.jobs) > seconds:
            break
    return out, setup_times


def end_to_end(out, setup_times: list[float]) -> dict[str, float]:
    from workloads import median

    return {
        "setup_s": statistics.median(setup_times),
        "job_s": statistics.median(out.jobs),
        "main_op_ms_p50": 1e3 * median(out.main_op),
        "alt_op_ms_p50": 1e3 * median(out.alt_op),
        "peak_rss_mb": peak_rss_mb(),
    }


def report(title: str, workload, out, e2e: dict, units: dict):
    print(f"== {title}: {len(out.jobs)} job(s), {len(out.main_op)} main and {len(out.alt_op)} alt operations")
    for name, value in e2e.items():
        print(f"  {name:<24} {value:14.4f} {units.get(name, '')}")
    for name, (value, unit) in workload.named(out).items():
        print(f"  {name:<24} {value:14.4f} {unit}")
    fail_rate = out.failed / out.attempted if out.attempted else 0.0
    print(f"  {'fail_rate':<24} {fail_rate:14.4f} ({out.failed}/{out.attempted})")
    for failure in out.failures:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ccn" / "__init__.py").is_file():
        print(f"perfbench: no ccn sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = limit_threads()
    sys.path.insert(0, str(src))
    import ccn

    if Path(ccn.__file__).resolve().parent != src / "ccn":
        print(f"perfbench: imported ccn from {ccn.__file__}, not {src}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    print("fingerprint " + json.dumps(fingerprint(nproc), sort_keys=True))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.trace == 0:
            out, setups = run_pass(workload, args.seed, tmp, SETUPS, args.seconds)
            metrics = end_to_end(out, setups)
            report(f"{workload.name} seed {args.seed}", workload, out, metrics, e2e_units)
            units, attempted, failed = e2e_units, out.attempted, out.failed
        else:
            base, base_setup = run_pass(workload, args.seed, tmp, 1, 0)
            base_e2e = end_to_end(base, base_setup)
            passes = []
            for _ in range(2):
                tracer = Tracer()
                out, setups = run_pass(workload, args.seed, tmp, 1, 0, tracer)
                passes.append((out, end_to_end(out, setups), tracer.layer_metrics(out.jobs[0])))
            held, held_setup = run_pass(workload, args.seed + HELD_OUT, tmp, 1, 0)
            traced, traced_e2e, metrics = passes[0]
            for name, value in traced_e2e.items():
                metrics[f"overhead.{name}"] = value - base_e2e[name]
            report(f"{workload.name} seed {args.seed} untraced", workload, base, base_e2e, e2e_units)
            report(f"{workload.name} seed {args.seed} traced", workload, traced, traced_e2e, e2e_units)
            report(f"{workload.name} held-out seed {args.seed + HELD_OUT} untraced", workload, held,
                   end_to_end(held, held_setup), e2e_units)
            outs = [base, held] + [p[0] for p in passes]
            attempted = sum(o.attempted for o in outs)
            failed = sum(o.failed for o in outs)
            print("== repeat counts, traced passes 1 and 2 on the same seed")
            for name in REPEAT_COUNTS:
                first, second = passes[0][2][name], passes[1][2][name]
                attempted += 1
                failed += first != second
                print(f"  {name:<32} {first!r:>14} {second!r:>14} {'same' if first == second else 'DIFFERENT'}")
            print("== per-layer metrics, traced pass 1")
            for name in sorted(metrics):
                print(f"  {name:<40} {metrics[name]:16.6f} {layer_units.get(name, '')}")
            units = layer_units
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics disagree with BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
