"""hkforms benchmark: one workload, untraced (end-to-end) or traced (per layer).

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 45 --trace 0

Run it from the root of a checkout.  It imports hkforms from the checkout's
``src/`` and refuses to run without it.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The metric names and
units are those of ``BENCHMARK.json`` (``end_to_end`` untraced,
``per_layer`` traced).  A full record, with the environment, goes to
``perfbench/out/``, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 15
SETUP_WARMUP = 2
SETUP_CODE = "import hkforms.cli; hkforms.cli.build_parser()"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_hkforms():
    """Import hkforms from the checkout's src/, or exit if it is not there."""
    if not (SRC / "hkforms" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hkforms sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import hkforms.cli
    if Path(hkforms.__file__).resolve().parent != SRC / "hkforms":
        sys.exit(f"perfbench: imported hkforms from {hkforms.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas():
    """(version string, thread count) of the OpenBLAS that numpy loaded."""
    import ctypes
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            try:
                config = getattr(lib, f"{prefix}_get_config{suffix}")
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            except AttributeError:
                continue
            config.restype = ctypes.c_char_p
            threads.restype = ctypes.c_int
            return config().decode(), threads()
    return "unknown", -1


def environment() -> dict:
    import numpy as np
    from importlib import metadata
    np.ones((2, 2)) @ np.ones((2, 2))  # make sure BLAS is loaded
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "not installed"
    blas, blas_threads = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "openblas": blas,
        "blas_threads": blas_threads,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure_setup() -> list[float]:
    """Seconds from spawning a fresh interpreter until hkforms.cli is ready.

    The child reports readiness on stdout; its exit is waited for but not
    timed.  The first SETUP_WARMUP spawns are not timed either.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE + "; print('ready', flush=True)"
    times = []
    for i in range(SETUP_WARMUP + SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter() - t0
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise RuntimeError("importing hkforms.cli in a fresh interpreter failed")
        if i >= SETUP_WARMUP:
            times.append(ready)
    return times


def highest_percentile(samples):
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def untraced(workload, seconds, tally):
    """One untimed warm-up pass, then timed passes while another one of the
    last one's length fits in `seconds`.

    At least one pass is timed.  Returns the wall and CPU time of each timed
    pass and the digest of the outputs of every pass, warm-up included.
    """
    walls, cpus, digests = [], [], [workload.run_pass(tally)]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        w0, c0 = time.perf_counter(), time.process_time()
        digests.append(workload.run_pass(tally))
        walls.append(time.perf_counter() - w0)
        cpus.append(time.process_time() - c0)
    return walls, cpus, digests


def traced(workload, tally):
    """A warm-up pass, an untraced pass and a traced pass over the same inputs."""
    warm = workload.run_pass(tally)
    w0 = time.perf_counter()
    plain = workload.run_pass(tally)
    untraced_wall = time.perf_counter() - w0
    with spans.Tracer() as tracer:
        w0 = time.perf_counter()
        digest = workload.run_pass(tally, tracer)
        traced_wall = time.perf_counter() - w0
    return tracer, [warm, plain, digest], untraced_wall, traced_wall


def layer_metrics(tracer, untraced_wall, traced_wall, fail_ratio) -> dict:
    selfs = spans.self_times(tracer.spans)
    totals = spans.total_times(tracer.spans)
    counts = tracer.counts
    special = {
        "trace.coverage": spans.coverage(tracer.spans, traced_wall),
        "trace.overhead_s": traced_wall - untraced_wall,
        "fail_ratio": fail_ratio,
    }
    out = {}
    for name in metric_specs("per_layer"):
        base, _, stat = name.rpartition(".")
        if name in special:
            out[name] = special[name]
        elif stat == "self_s":
            out[name] = selfs.get(base, 0.0)
        elif stat == "total_s":
            out[name] = totals.get(base, 0.0)
        elif stat == "evals_per_call":
            calls = counts[base + ".calls"]
            out[name] = counts[base + ".evals"] / calls if calls else 0.0
        else:
            out[name] = counts[name]
    return out


def metric_specs(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    load_hkforms()
    import workloads

    env = environment()
    setup = measure_setup() if args.trace == 0 else []
    scratch = OUT / f"scratch-{os.getpid()}"
    workload = workloads.make(args.workload, args.seed, scratch)
    tally = workloads.Tally()
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env}
    try:
        if args.trace == 0:
            walls, cpus, digests = untraced(workload, args.seconds, tally)
            fail_ratio = tally.failed / tally.attempted
            values = {
                "wall_s": statistics.median(walls),
                "cpu_s": statistics.median(cpus),
                "ok_ratio": 1.0 - fail_ratio,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            }
            record.update(wall_samples=walls, cpu_samples=cpus, setup_samples=setup,
                          wall_percentile=highest_percentile(walls))
            metrics = {name: values[name] for name in metric_specs("end_to_end")}
        else:
            tracer, digests, plain_wall, traced_wall = traced(workload, tally)
            fail_ratio = tally.failed / tally.attempted
            metrics = layer_metrics(tracer, plain_wall, traced_wall, fail_ratio)
            record.update(untraced_wall=plain_wall, traced_wall=traced_wall,
                          spans=len(tracer.spans))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    deterministic = len(set(digests)) == 1
    if not deterministic:
        tally.notes.append("outputs differ between passes over the same inputs")
    correct = deterministic and tally.wrong == 0
    units = metric_specs("per_layer" if args.trace else "end_to_end")
    record.update(correct=correct, attempted=tally.attempted, failed=tally.failed,
                  fail_ratio=fail_ratio, failures=tally.notes, digest=digests[0],
                  report_digests=getattr(workload, "digests", {}),
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        with open(OUT / f"spans-{stem}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh)
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"env {json.dumps(env)}")
    for suite, digest in record["report_digests"].items():
        print(f"report.json sha256 --suite {suite}: {digest}")
    for note in tally.notes:
        print(f"failure: {note}")
    print(f"operations {tally.attempted} attempted, {tally.failed} failed, "
          f"fail_ratio {fail_ratio:.6g}")
    if args.trace == 0:
        pct = record["wall_percentile"]
        print(f"wall_s samples {len(walls)}; highest percentile with ten samples above: "
              + (f"p{pct[0]:.0f} {pct[1]:.6f} s" if pct else "none (fewer than 11 samples)"))
    for name, value in metrics.items():
        print(f"metric {name} {value:.9g} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
