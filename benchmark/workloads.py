"""The benchmark workloads: their inputs, how one op runs, and how its
output is checked against `reference`.

All workloads are closed loop with one client.  The workload seed shuffles
the op order and draws each op's charvar seed, so no (input, seed) pair
repeats inside a run.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT_S = 120


@dataclass(frozen=True)
class Input:
    label: str  # one distinct input; latency medians are taken per label
    text: str  # signature text, or "" for `examples`
    embedding: str | None = None
    argv: tuple[str, ...] = ()  # CLI arguments before --seed


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # verify | cli | cli-process
    inputs: tuple[Input, ...]
    warmup: int  # index of the input run once, untimed, during set-up
    round_s: float  # rough untraced time of one round; sizes the traced run


def _verify(text):
    return Input(text, text)


def _analyze(text, embedding=None):
    argv = ("analyze", "--json", text)
    if embedding is None:
        return Input(text, text, None, argv)
    return Input(f"{text} --embed {embedding}", text, embedding,
                 argv + ("--embed", embedding.replace("_", "-")))


def _cli(*argv, text="", embedding=None):
    return Input(" ".join(argv), text, embedding, tuple(argv))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "closed-verify",
            "verify",
            tuple(
                _verify(t)
                for t in (
                    "S2(2,3,7)",
                    "S2(3,3,3,3)",
                    "S2(3,3,3,3,3)",
                    "S2(3,3,3,3,3,3,3)",
                    "O(g=2)",
                    "O(g=1;cone=[3])",
                )
            ),
            warmup=0,
            round_s=0.65,
        ),
        Workload(
            "bounded-analyze",
            "cli",
            (
                _analyze("O(g=2;b=2;cone=[3,5])"),
                _analyze("D2(3,3)"),
                *(
                    _analyze(t, e)
                    for t in ("D(3,3;mirror)", "D(3,3,3;mirror)", "N(k=2;b=1;cone=[3])", "HD(5)")
                    for e in ("orientable", "type_preserving")
                ),
            ),
            warmup=1,
            round_s=0.22,
        ),
        Workload(
            "cli-oneshot",
            "cli-process",
            (
                _cli("examples", "--json"),
                _cli("verify", "S2(2,3,7)", text="S2(2,3,7)"),
                _cli("verify", "S2(3,3,3,3)", text="S2(3,3,3,3)"),
                _cli("analyze", "--json", "O(g=2;b=2;cone=[3,5])", text="O(g=2;b=2;cone=[3,5])"),
                _cli("verify", "D(3,3;mirror)", "--embed", "orientable",
                     text="D(3,3;mirror)", embedding="orientable"),
                _cli("dims", "HD(5)", text="HD(5)", embedding="orientable"),
            ),
            warmup=5,
            round_s=5.5,
        ),
    )
}

# the inputs of `charvar examples`, in its output order
EXAMPLES = (
    ("S2(3,3,3,3)", None),
    ("D(3,3;mirror)", "orientable"),
    ("D(3,3;mirror)", "type_preserving"),
    ("D2(3,3)", None),
    ("HD(3)", "orientable"),
    ("HD(3)", "type_preserving"),
)


def rounds(workload: Workload, rng: random.Random):
    """Endless rounds; each round runs every input once, in shuffled order,
    with a fresh charvar seed."""
    used = set()
    n = len(workload.inputs)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        batch = []
        for i in order:
            seed = rng.randrange(2**31)
            while (i, seed) in used:
                seed = rng.randrange(2**31)
            used.add((i, seed))
            batch.append((i, seed))
        yield batch


# ---------------------------------------------------------------------------
# checks; each returns a list of (kind, detail) problems, kind one of
# "gate" (a ledger check failed), "exception" (the CLI exited with an error)
# or "mismatch" (output differs from the reference)


def _check_report(inp: Input, dims: dict, display: str | None, ledger) -> list[tuple[str, str]]:
    problems = [("gate", e["name"]) for e in ledger if not e["passed"]]
    want = reference.expected_dims(inp.text, inp.embedding)
    if dims != want:
        problems.append(("mismatch", f"dims {dims} != {want}"))
    want_display = reference.expected_display(inp.text, inp.embedding)
    if display != want_display:
        problems.append(("mismatch", f"model {display!r} != {want_display!r}"))
    return problems


# ---------------------------------------------------------------------------
# verify_suite


class _ReportTap:
    """Stands in for charvar.pipeline.analyze during one verify_suite call
    and keeps the report, so the op's dims can be checked too."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.analyze = None
        self.last = None

    def __call__(self, req):
        self.last = self.analyze(req)
        return self.last

    def __enter__(self):
        self.last = None
        self.analyze = self.pipeline.analyze
        self.pipeline.analyze = self
        return self

    def __exit__(self, *exc):
        self.pipeline.analyze = self.analyze


class VerifyRunner:
    """Runs verify_suite in this process.  Functions are looked up on the
    module at call time, so an installed tracer sees them."""

    def __init__(self):
        import charvar.pipeline

        self.pipeline = charvar.pipeline
        self.tap = _ReportTap(charvar.pipeline)

    def run(self, inp: Input, seed: int, spans_path: Path | None = None):
        p = self.pipeline
        req = p.request_from_text(inp.text, embedding=inp.embedding, seed=seed)
        with self.tap:
            ledger = p.verify_suite(req)
        return ledger, self.tap.last

    @staticmethod
    def check(number: int, inp: Input, output) -> list[tuple[str, str]]:
        ledger, report = output
        if report is None:
            failed = [e.name for e in ledger if not e.passed]
            return [("gate", name) for name in failed] or [("mismatch", "no report")]
        display = report.model.display if report.model is not None else None
        ledger = [{"name": e.name, "passed": e.passed} for e in ledger]
        return _check_report(inp, report.dims, display, ledger)

    def finish(self) -> list[tuple[int, str, str]]:
        return []


# ---------------------------------------------------------------------------
# CLI commands


class CliRunner:
    """Runs a CLI command through `charvar.cli.main` in this process, with
    its standard output and error captured."""

    def __init__(self):
        import charvar.cli

        self.cli = charvar.cli
        self.examples = []  # (op number, seed, stdout) of each `examples` op

    def run(self, inp: Input, seed: int, spans_path: Path | None = None):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main([*inp.argv, "--seed", str(seed)])
        return code, out.getvalue().encode(), err.getvalue().encode(), seed

    def check(self, number: int, inp: Input, output) -> list[tuple[str, str]]:
        code, out, err, seed = output
        if code not in (0, 2):
            tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["no stderr"]
            return [("exception", f"exit {code}: {tail[0][:200]}")]
        if code == 2 and err.startswith(b"hypothesis failure"):
            # the program rejected its own result and printed its ledger
            lines = err.decode(errors="replace").splitlines()
            gates = [("gate", ln.split()[1]) for ln in lines if ln.lstrip().startswith("FAIL")]
            return gates or [("exception", lines[0][:200])]
        text = out.decode()
        command = inp.argv[0]
        if command == "verify":
            lines = text.strip().splitlines()
            problems = [("gate", ln.split()[1]) for ln in lines if ln.startswith("FAIL")]
            summary = f"{len(lines) - 1} checks, {len(problems)} failed"
            if code != (2 if problems else 0) or lines[-1:] != [summary]:
                problems.append(("mismatch", f"verify exit {code}, last line {lines[-1:]!r}"))
            return problems
        if code != 0:
            return [("mismatch", f"{command} exit {code}")]
        if command == "dims":
            line = next((ln for ln in text.splitlines() if ln.startswith("dims")), "")
            got = {k: int(v) for k, v in (kv.split("=") for kv in line.split()[1:])}
            want = reference.expected_dims(inp.text, inp.embedding)
            want.pop("d_model", None)
            return [] if got == want else [("mismatch", f"dims {got} != {want}")]
        data = json.loads(text)
        if command == "analyze":
            return _check_report(inp, data["dims"], data["model"]["display"], data["ledger"])
        self.examples.append((number, seed, out))
        problems = []
        if len(data["examples"]) != len(EXAMPLES):
            problems.append(("mismatch", f"{len(data['examples'])} examples"))
        for (sig, emb), ex in zip(EXAMPLES, data["examples"]):
            problems += _check_report(Input(sig, sig, emb), ex["dims"], ex["model"]["display"], ex["ledger"])
        return problems

    def finish(self) -> list[tuple[int, str, str]]:
        """Criterion 12: every `examples --json` output must be byte-identical
        to a second run at the same seed, made here in process.  Returns
        (op number, kind, detail) problems."""
        problems = []
        for number, seed, out in self.examples:
            try:
                code, again, _, _ = CliRunner.run(self, _cli("examples", "--json"), seed)
            except Exception as err:  # noqa: BLE001 - recorded as the op's failure
                problems.append((number, "exception", f"rerun: {type(err).__name__}: {err}"[:200]))
                continue
            if code != 0 or again != out:
                problems.append((number, "mismatch", "examples output differs from a rerun at the same seed"))
        return problems


class CliProcessRunner(CliRunner):
    """Each op is a fresh `python -m charvar.cli` process.  Given a spans
    path, it runs `traced_cli.py` instead, which writes its spans there."""

    def run(self, inp: Input, seed: int, spans_path: Path | None = None):
        args = [*inp.argv, "--seed", str(seed)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "charvar.cli", *args]
        else:
            cmd = [sys.executable, "benchmark/traced_cli.py", str(spans_path.relative_to(ROOT)), *args]
        proc = subprocess.run(cmd, capture_output=True, cwd=ROOT, timeout=CLI_TIMEOUT_S)
        return proc.returncode, proc.stdout, proc.stderr, seed


RUNNERS = {"verify": VerifyRunner, "cli": CliRunner, "cli-process": CliProcessRunner}
