"""One benchmark worker process.

    python3 benchmark/worker.py --workload W --seed N --seconds S
        [--trace 0|1] [--setup-only]

Set-up is the interpreter start, `import charvar`, making the inputs and
one untimed warm-up op; then the worker notes the monotonic clock as
`ready`, starts the calibration kernel's own process (kernel.py) and times
the kernel.  Untraced, it runs whole rounds until S seconds have passed
and reports each round's wall time.  It times the kernel again after the
last op of every round, and after any op that ends KERNEL_EVERY_S or more
after the last kernel timing; the kernel's own time is left out of the
round's wall time.  Traced, it runs a fixed number of pairs of rounds,
what fits in about S seconds, one traced and one untraced, with the order
alternating between pairs, and times the kernel after every round.  The span counts
then depend only on the seed and S, and the two halves' throughputs,
scaled by the kernel, give the tracing overhead.  The result is one JSON
line on stdout.

run.py starts the worker with PYTHONPATH=src, single-threaded BLAS, a
fixed memory layout and pinned to one CPU.
"""

import time

T0 = time.perf_counter()
import charvar.cli  # noqa: E402,F401 - imports every layer

IMPORT_S = time.perf_counter() - T0

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from run import BLAS_ENV, NOMINAL_KERNEL_S, worker_env  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402
from workloads import ROOT, RUNNERS, WORKLOADS, rounds  # noqa: E402

TRACE_DIR = ROOT / ".bench_run"
# a round of cli-oneshot takes seconds, and the machine's speed can change
# within it, so the kernel is timed within long rounds as well
KERNEL_EVERY_S = 0.5


class Kernel:
    """The calibration kernel's process.  It runs apart from charvar, so a
    change to charvar's process-wide state cannot move the kernel time
    that op times are scaled by."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "benchmark/kernel.py"],
            cwd=ROOT,
            env=worker_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def time(self) -> float:
        """Seconds the kernel takes once, timed in its process."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import numpy
    import scipy

    def blas(config) -> str:
        b = config.get("Build Dependencies", {}).get("blas", {})
        return f"{b.get('name')} {b.get('version')}"

    src = ROOT / "src" / "charvar"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": git_commit(ROOT),
        "source_sha256": digest.hexdigest(),
    }


class Session:
    """The ops of one run: what ran, how long each took, what failed."""

    def __init__(self, workload, runner, tracer=None):
        self.workload = workload
        self.runner = runner
        self.tracer = tracer
        self.ops = []  # [input index, seed, latency_s]
        self.failures = {}  # op number -> {"input", "seed", "problems"}

    def fail(self, number: int, problems):
        i, seed, _ = self.ops[number]
        entry = self.failures.setdefault(
            number, {"input": self.workload.inputs[i].label, "seed": seed, "problems": []}
        )
        entry["problems"] += [list(p) for p in problems]

    def run_op(self, i: int, seed: int, traced: bool = False):
        """Run one op, time it, and check its output.  Any exception is the
        op's failure; the run goes on."""
        inp = self.workload.inputs[i]
        number = len(self.ops)
        tracer = self.tracer if traced else None
        spans_path = None
        if tracer is not None:
            tracer.op = number
            span = tracer.begin("op", "op")
            if self.workload.kind == "cli-process":
                spans_path = TRACE_DIR / f"cli-{os.getpid()}-{number}.json"
        start = time.perf_counter()
        try:
            output, problems = self.runner.run(inp, seed, spans_path), []
        except Exception as err:  # noqa: BLE001 - fail-closed accounting
            output, problems = None, [("exception", f"{type(err).__name__}: {err}"[:300])]
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end(span)
            tracer.op = None
            if spans_path is not None and spans_path.is_file():
                data = json.loads(spans_path.read_text())
                spans_path.unlink()
                tracer.adopt(data["spans"], data["notes"], span, number)
        self.ops.append([i, seed, latency])
        if output is not None:
            try:
                problems = self.runner.check(number, inp, output)
            except Exception as err:  # noqa: BLE001 - unreadable output is a wrong output
                problems = [("mismatch", f"unreadable output: {type(err).__name__}: {err}"[:300])]
        if problems:
            self.fail(number, problems)

    def finish(self):
        for number, kind, detail in self.runner.finish():
            self.fail(number, [(kind, detail)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    runner = RUNNERS[workload.kind]()
    warm_seed = rng.randrange(2**31)
    schedule = rounds(workload, rng)
    try:
        runner.run(workload.inputs[workload.warmup], warm_seed)
    except Exception as err:  # noqa: BLE001 - the timed ops record failures
        print(f"warm-up failed: {type(err).__name__}: {err}", file=sys.stderr)
    ready = time.monotonic()
    with Kernel() as kernel:
        # one list of kernel times for set-up, then one for every round
        kernels = [[sorted(kernel.time() for _ in range(3))[1]]]
        if args.setup_only:
            print(json.dumps({"ready": ready, "kernel_s": kernels}))
            return 0
        return timed(args, workload, runner, schedule, kernel, kernels, ready)


def timed(args, workload, runner, schedule, kernel, kernels, ready) -> int:
    """Run the timed ops, untraced or traced, and print the result."""
    tracer = Tracer() if args.trace else None
    session = Session(workload, runner, tracer)
    per_layer = None
    trace_unscaled = None
    round_walls = []
    if tracer is None:
        start = last = time.perf_counter()
        for batch in schedule:
            t = time.perf_counter()
            paused, samples = 0.0, []
            for j, (i, seed) in enumerate(batch):
                session.run_op(i, seed)
                now = time.perf_counter()
                if now - last >= KERNEL_EVERY_S or j == len(batch) - 1:
                    samples.append(kernel.time())
                    last = time.perf_counter()
                    paused += last - now
            round_walls.append(last - t - paused)
            kernels.append(samples)
            if last - start >= args.seconds:
                break
    else:
        TRACE_DIR.mkdir(exist_ok=True)
        pairs = max(1, round(args.seconds / (2.5 * workload.round_s)))
        wall = {True: 0.0, False: 0.0}
        scaled = {True: 0.0, False: 0.0}  # wall times scaled by the kernel
        done = {True: 0, False: 0}
        for k in range(pairs):
            for traced in (True, False) if k % 2 == 0 else (False, True):
                batch = next(schedule)
                if traced:
                    tracer.install()
                t = time.perf_counter()
                for i, seed in batch:
                    session.run_op(i, seed, traced)
                w = time.perf_counter() - t
                if traced:
                    tracer.uninstall()
                kernels.append([kernel.time()])
                wall[traced] += w
                scaled[traced] += w * 2 * NOMINAL_KERNEL_S / (kernels[-2][-1] + kernels[-1][0])
                done[traced] += len(batch)
        import_s = [] if workload.kind == "cli-process" else [IMPORT_S]
        per_layer = summarize(tracer.spans, tracer.notes, import_s)
        traced_rate, plain_rate = done[True] / scaled[True], done[False] / scaled[False]
        per_layer["trace.throughput_ops_s"] = traced_rate
        per_layer["trace.untraced_throughput_ops_s"] = plain_rate
        per_layer["trace.overhead_share"] = 1.0 - traced_rate / plain_rate
        traced_rate, plain_rate = done[True] / wall[True], done[False] / wall[False]
        trace_unscaled = {
            "throughput_ops_s": traced_rate,
            "untraced_throughput_ops_s": plain_rate,
            "overhead_share": 1.0 - traced_rate / plain_rate,
        }
        tracer.dump(TRACE_DIR / f"spans-{workload.name}.json")
    session.finish()

    who = resource.RUSAGE_CHILDREN if workload.kind == "cli-process" else resource.RUSAGE_SELF
    result = {
        "ready": ready,
        "import_s": IMPORT_S,
        "round_walls_s": round_walls,
        "kernel_s": kernels,
        "inputs": [inp.label for inp in workload.inputs],
        "ops": session.ops,
        "failures": [dict(op=n, **f) for n, f in sorted(session.failures.items())],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "per_layer": per_layer,
        "trace_unscaled": trace_unscaled,
        "provenance": provenance(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
