"""charvar benchmark: one command, one workload, one JSON result line.

    python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it starts SETUP_SAMPLES
fresh workers: all but the last only set up, and the last also runs the
timed ops.  The result reports the end-to-end metrics, with set-up time
as the median over the workers.  With --trace 1 one worker runs traced
and untraced rounds and the result reports the per-layer metrics.  The
line before the result holds the provenance, the unscaled timings and
every failed op.  Metric names and units come from BENCHMARK.json.  See
benchmark/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s
# Timing metrics are scaled to a machine on which the worker's calibration
# kernel takes this long.  The machine the benchmark was built on changes
# speed by up to 2x, in phases of seconds to minutes; see README.md.
NOMINAL_KERNEL_S = 0.010
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag
# numpy and scipy each bundle an OpenBLAS; the SVDs here are at most
# 128x120, so extra BLAS threads only add scheduler noise
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def worker_env() -> dict:
    """A fixed, small environment: its size and the argument strings set
    where the stack starts, so they are part of the memory layout that
    pin_worker() fixes."""
    return {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": "src", "PYTHONHASHSEED": "0", **BLAS_ENV}


def pin_worker():
    """Run in a new worker before exec; it and its children inherit both
    settings.  Pin it to one CPU, so the calibration kernel runs on the CPU
    it calibrates: the machine's CPUs change speed apart from each other.
    And turn off address-space randomization: with PYTHONHASHSEED=0 every
    run gets the same memory layout.  The least-squares builders are
    sensitive to the last bits of BLAS results, which depend on array
    alignment, so without it their nfev and tries differ between runs of
    one seed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    libc = ctypes.CDLL(None, use_errno=True)
    persona = libc.personality(0xFFFFFFFF)
    if persona != -1:
        libc.personality(persona | ADDR_NO_RANDOMIZE)


class WorkerError(RuntimeError):
    pass


def run_worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Start one worker and wait for it; return its result and the
    monotonic time it was started at."""
    cmd = [
        sys.executable,
        "benchmark/worker.py",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    started = time.monotonic()
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
        preexec_fn=pin_worker,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the worker's own children share its process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError("worker timed out")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1]), started


def kernel_median(result: dict) -> float:
    return statistics.median(k for ks in result["kernel_s"] for k in ks)


def timings(result: dict, setups: list[tuple[float, float]], nominal_kernel_s: float | None) -> dict[str, float]:
    """The timing metrics of an untraced run.  With `nominal_kernel_s`, each
    time is scaled by nominal / measured calibration-kernel time: for an op,
    the mean of the kernel times just before and during its round; for a
    set-up, the kernel time right after it."""
    n = len(result["inputs"])
    kernel = result["kernel_s"]
    scale = [1.0] * len(result["round_walls_s"])
    setup_scale = [1.0] * len(setups)
    if nominal_kernel_s is not None:
        scale = [nominal_kernel_s / statistics.fmean([a[-1], *b]) for a, b in zip(kernel, kernel[1:])]
        setup_scale = [nominal_kernel_s / k for _, k in setups]
    by_input: dict[str, list[float]] = {}
    every = []
    for k, (i, _, latency) in enumerate(result["ops"]):
        ms = latency * 1e3 * scale[k // n]
        by_input.setdefault(result["inputs"][i], []).append(ms)
        every.append(ms)
    medians = {label: statistics.median(v) for label, v in by_input.items()}
    return {
        # the median round, so a burst shorter than half the run does not
        # move it
        "throughput_ops_s": statistics.median(n / (w * f) for w, f in zip(result["round_walls_s"], scale)),
        "latency_ms_geomean": math.exp(statistics.fmean(math.log(m) for m in medians.values())),
        "latency_ms_p90": statistics.quantiles(every, n=10, method="inclusive")[-1],
        "setup_s": statistics.median(s * f for (s, _), f in zip(setups, setup_scale)),
        "input_medians_ms": medians,
    }


def end_to_end(result: dict, setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Calibrated end-to-end metrics, and the same timings unscaled."""
    metrics = timings(result, setups, NOMINAL_KERNEL_S)
    metrics.pop("input_medians_ms")
    metrics["passed_share"] = 1.0 - len(result["failures"]) / len(result["ops"])
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    raw = timings(result, setups, None)
    raw["kernel_s_median"] = kernel_median(result)
    return metrics, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="charvar benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "charvar" / "__init__.py").is_file():
        print(f"error: no charvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # write the bytecode caches first, so the first worker imports like every
    # later one and set-up does not include compiling
    for path in ("src", "benchmark"):
        compileall.compile_dir(ROOT / path, quiet=1)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            result, _ = run_worker(args, [], deadline)
            metrics = result["per_layer"]
            detail = {"unscaled": result["trace_unscaled"], "kernel_s_median": kernel_median(result)}
        else:
            setups = []
            for _ in range(SETUP_SAMPLES - 1):
                ready, started = run_worker(args, ["--setup-only"], deadline)
                setups.append((ready["ready"] - started, ready["kernel_s"][0][0]))
            result, started = run_worker(args, [], deadline)
            setups.append((result["ready"] - started, result["kernel_s"][0][0]))
            metrics, raw = end_to_end(result, setups)
            detail = {"setup_samples": setups, "unscaled": raw}
    except (WorkerError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1

    # a wrong output the program flagged itself, through a failed gate, is
    # a failed op; only an unflagged one is an incorrect result
    silent = sum(
        1 for f in result["failures"] if {kind for kind, _ in f["problems"]} == {"mismatch"}
    )
    print(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "provenance": result["provenance"],
                **detail,
                "failures": result["failures"],
            }
        )
    )
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": silent == 0,
                "attempted": len(result["ops"]),
                "failed": len(result["failures"]),
                "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
