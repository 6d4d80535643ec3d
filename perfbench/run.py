"""Benchmark of the exclust package, run from the root of a checkout.

    python3 perfbench/run.py --workload mc-table1 --seed 0 --seconds 25 --trace 0

Imports ``exclust`` from the checkout's ``src`` and repeats rounds of the
workload, each on the inputs of input seed (seed + i) mod 16, until
``--seconds`` have passed; every operation's output is checked against
``perfbench/refs.json``.  With ``--trace 0`` it reports the end-to-end
metrics (median round time, median set-up time over three fresh processes,
peak RSS); with ``--trace 1`` it alternates untraced and traced rounds and
reports the per-layer metrics of ``workloads.LAYER_METRICS``, the tracing
overhead and the scaling probe, and writes the spans to ``perfbench/out``.
The last line of standard output is the result as JSON; the line before it
holds the environment, the input seeds and every sample behind each median.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_PROCESSES = 2  # set-up samples from fresh processes, besides this one's own
SCALING_SIZES = (2_000, 20_000)
WORKLOADS = ("mc-table1", "long-series", "variance")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def load_exclust():
    """Import ``exclust`` from this checkout's ``src``, never an installed copy."""
    src = ROOT / "src"
    if not (src / "exclust" / "__init__.py").is_file():
        raise SystemExit(f"error: no exclust package under {src}")
    sys.path.insert(0, str(src))
    import exclust

    if Path(exclust.__file__).resolve().parent != (src / "exclust").resolve():
        raise SystemExit(f"error: imported exclust from {exclust.__file__}, not {src}")
    return exclust


def untraced(name):
    return contextlib.nullcontext()


def run_round(wl, refs, seed, tracer=None):
    """Set up, run and check one round.  Returns (seconds, operations, failed)."""
    import workloads

    ref = refs.get(str(seed if wl.seeded else 0), {})
    if tracer is None:
        inputs = wl.setup(seed)
        t0 = time.perf_counter()
        raw = wl.round(inputs, untraced)
        wall = time.perf_counter() - t0
    else:
        with spans.patched(workloads.layer_patches(tracer)):
            with tracer.span("setup"):
                inputs = wl.setup(seed, tracer)
            t0 = time.perf_counter()
            with tracer.span("round"):
                raw = wl.round(inputs, tracer.span)
            wall = time.perf_counter() - t0
        tracer.counts.update(wl.round_counts())
    summary = wl.summarize(inputs, raw)
    for op, value in summary.items():
        if isinstance(value, workloads.Failure):
            print(f"{wl.name} seed {seed}: {op} raised {value.error}", file=sys.stderr)
    return wall, list(summary), wl.check(summary, ref)


def benchmark(wl, refs, seed, seconds, trace, setup_samples, scaling_sizes=SCALING_SIZES):
    """Rounds of ``wl`` for ``seconds`` (at least one).  Returns (result, detail)."""
    import workloads

    attempted, failed = [], []
    oracle = wl.oracle_input(workloads.input_seed(seed, 0))
    if oracle is not None:
        ops, bad = workloads.sliding_oracle(*oracle)
        attempted += ops
        failed += bad

    tracer = spans.Tracer() if trace else None
    seeds, walls, traced_walls = [], [], []
    start = time.perf_counter()
    while not seeds or time.perf_counter() - start < seconds:
        s = workloads.input_seed(seed, len(seeds))
        seeds.append(s)
        wall, ops, bad = run_round(wl, refs, s)
        walls.append(wall)
        attempted += ops
        failed += bad
        if trace:
            wall, ops, bad = run_round(wl, refs, s, tracer)
            traced_walls.append(wall)
            attempted += ops
            failed += bad

    detail = {
        "workload": wl.name,
        "seed": seed,
        "input_seeds": seeds,
        "round_wall_s": walls,
        "failed_ops": failed,
    }
    if trace:
        metrics = workloads.layer_metrics(tracer, len(traced_walls))
        metrics["trace.overhead_ratio"] = statistics.fmean(traced_walls) / statistics.fmean(walls)
        metrics["fail_ratio"] = len(failed) / len(attempted)
        times = workloads.scaling_probe(workloads.input_seed(seed, 0), scaling_sizes)
        for layer, by_n in times.items():
            base = by_n[scaling_sizes[0]]
            for n in scaling_sizes[1:]:
                factor = round(n / scaling_sizes[0])
                metrics[f"scaling.{layer}.growth_{factor}x"] = by_n[n] / base
        detail["traced_round_wall_s"] = traced_walls
        detail["scaling_s"] = times
        detail["trace_file"] = write_trace(wl.name, seed, tracer, metrics)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["setup_s_samples"] = setup_samples
    units = {name: unit for name, (unit, _, _) in workloads.LAYER_METRICS.items()}
    units.update(END_TO_END_UNITS)
    result = {
        "correct": not failed,
        "attempted": len(attempted),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units.get(name, "ratio")}
            for name, value in metrics.items()
        },
    }
    return result, detail


def write_trace(workload, seed, tracer, metrics):
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, **tracer.dump()}, fh)
    return str(path.relative_to(ROOT))


def setup_in_fresh_process(args):
    """Set-up seconds measured by a fresh interpreter running ``--setup-only``."""
    proc = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--workload", args.workload,
         "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def environment():
    import numpy
    import scipy

    import exclust

    nproc = os.cpu_count()
    blas = blas_threads()
    return {
        "nproc": nproc,
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "blas_threads": blas,
        "blas_threads_within_nproc": blas is not None and blas <= nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "exclust": exclust.__version__,
        "git_commit": git_commit(),
    }


def cpu_model():
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    return platform.processor() or None


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*.so"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scaling-2e5", action="store_true",
                        help="add n=2e5 to the scaling probe (the disjoint tensor needs ~2 GB)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workdir = str(OUT / f"{args.workload}-{os.getpid()}")
    try:
        t0 = time.perf_counter()
        load_exclust()
        import workloads

        wl = workloads.make(args.workload, workdir)
        wl.setup(workloads.input_seed(args.seed, 0))
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(setup_s)
            return 0
        with open(ROOT / "perfbench" / "refs.json") as fh:
            refs = json.load(fh)[args.workload]
        samples = [setup_s]
        if not args.trace:
            samples += [setup_in_fresh_process(args) for _ in range(SETUP_PROCESSES)]
        sizes = SCALING_SIZES + ((200_000,) if args.scaling_2e5 else ())
        result, detail = benchmark(wl, refs, args.seed, args.seconds, args.trace, samples, sizes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["env"] = environment()
    detail["seconds"] = args.seconds
    detail["trace"] = args.trace
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
