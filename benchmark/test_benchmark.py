"""The benchmark's own tests.

    python3 -m pytest benchmark -q

They check the reference table, fail-closed accounting, that count
metrics repeat exactly for a fixed seed, that layer self times add up to
op wall time, and the result-line contract of run.py.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
from tracing import LAYERS  # noqa: E402
from workloads import CliRunner, Input, VerifyRunner, Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATING_COUNTS = (
    "linalg.svd_calls",
    "cohomology.h1_basis_calls",
    "coeffmodules.decompose_calls",
    "reps.build_nfev",
)


def traced_worker(workload: str, seed: int) -> dict:
    # half a second is less than a round pair, so the worker runs one pair
    proc = subprocess.run(
        [sys.executable, "benchmark/worker.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, env=run.worker_env(), timeout=170,
        preexec_fn=run.pin_worker,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    return {w: (traced_worker(w, 5), traced_worker(w, 5)) for w in ("closed-verify", "bounded-analyze")}


def test_reference_matches_frozen_criteria():
    # criterion 3 turnover, criterion 1 quadrilateral, criterion 4 discs
    assert reference.expected_dims("S2(2,3,7)", None) == {"p": 0, "d": 0, "b": 0}
    assert reference.expected_display("S2(2,3,7)", None) == "R^0 x R^0"
    assert reference.expected_dims("S2(3,3,3,3)", None) == {"p": 8, "d": 2, "b": 0}
    assert reference.expected_display("S2(3,3,3,3)", None) == "R^8 x R^0 x Cone(UT(S^1))"
    assert reference.expected_dims("D2(3,3)", None) == {"p": 4, "d": 1, "b": 0}
    oe = reference.expected_dims("D(3,3;mirror)", "orientable")
    assert (oe["p"], oe["d_oe"]) == (4, 1)
    hd = reference.expected_dims("HD(3)", "type_preserving")
    assert (hd["d_oe"], hd["d_tp"], hd["f"], hd["d_model"]) == (1, 0, 1, 0)
    assert reference.expected_display("HD(3)", "type_preserving") == "R^2 x R^0"


def test_cli_check_names_gates_and_mismatches():
    runner = CliRunner()
    verify = Input("verify S2(2,3,7)", "S2(2,3,7)", None, ("verify", "S2(2,3,7)"))
    good = b"PASS  a  margin=0\nPASS  b  margin=0\n2 checks, 0 failed\n"
    bad = b"PASS  a  margin=0\nFAIL  b  margin=1\n2 checks, 1 failed\n"
    assert runner.check(0, verify, (0, good, b"", 1)) == []
    assert runner.check(0, verify, (2, bad, b"", 1)) == [("gate", "b")]
    assert runner.check(0, verify, (1, b"", b"error: boom\n", 1)) == [("exception", "exit 1: error: boom")]
    analyze = Input("D2(3,3)", "D2(3,3)", None, ("analyze", "--json", "D2(3,3)"))
    flagged = b"hypothesis failure: base not irreducible\n  PASS  a  margin=0\n  FAIL  b  margin=1\n"
    assert runner.check(0, analyze, (2, b"", flagged, 1)) == [("gate", "b")]
    assert runner.check(0, analyze, (2, b"", b"hypothesis failure: x\n", 1)) == [
        ("exception", "hypothesis failure: x")
    ]
    dims = Input("dims HD(5)", "HD(5)", "orientable", ("dims", "HD(5)"))
    assert runner.check(0, dims, (0, b"dims       p=2 b=0 d_oe=1 d_tp=0 f=1\n", b"", 1)) == []
    wrong = runner.check(0, dims, (0, b"dims       p=3 b=0 d_oe=1 d_tp=0 f=1\n", b"", 1))
    assert [kind for kind, _ in wrong] == ["mismatch"]


def test_failed_ops_are_recorded_and_the_run_goes_on():
    import worker

    class Runner:
        def run(self, inp, seed, spans_path=None):
            if inp.text == "boom":
                raise ValueError("bad input")
            return inp.text

        def check(self, number, inp, output):
            return [("gate", "g")] if output == "gate" else []

        def finish(self):
            return [(2, "mismatch", "late")]

    workload = Workload("w", "verify", (Input("ok", "ok"), Input("boom", "boom"), Input("gate", "gate")), 0, 1.0)
    session = worker.Session(workload, Runner())
    for i in (1, 0, 2, 1):
        session.run_op(i, seed=i)
    session.finish()
    assert len(session.ops) == 4
    assert session.failures[0]["problems"] == [["exception", "ValueError: bad input"]]
    assert session.failures[2]["problems"] == [["gate", "g"], ["mismatch", "late"]]
    assert session.failures[3]["input"] == "boom"
    assert 1 not in session.failures


# ROADMAP item 2's defect.  S2(3^6) fails at about 3% of charvar seeds and
# S2(3^8) at fewer, so closed-verify uses S2(3^5) and S2(3^7) instead: a
# workload must run without failed ops, or two sets of runs of the same code
# disagree on the failed count.  Strict, so a fix shows as an unexpected pass.
@pytest.mark.xfail(strict=True, reason="S2(3^6) fails gates, raises or gives wrong dims at these seeds")
@pytest.mark.parametrize("seed", [562571390, 328138489, 1730636620])
def test_s2_3_6_passes_the_reference_check(seed):
    runner = VerifyRunner()
    inp = Input("S2(3,3,3,3,3,3)", "S2(3,3,3,3,3,3)")
    assert runner.check(0, inp, runner.run(inp, seed)) == []


def test_counts_repeat_exactly(traced_pairs):
    for workload, (a, b) in traced_pairs.items():
        for name in REPEATING_COUNTS:
            assert a["per_layer"][name] == b["per_layer"][name], (workload, name)
        assert a["per_layer"]["linalg.svd_calls"] > 0


def test_layer_self_times_cover_op_wall(traced_pairs):
    for workload, (a, _) in traced_pairs.items():
        m = a["per_layer"]
        covered = sum(m[f"{layer}.self_s"] for layer in LAYERS)
        assert abs(covered - m["trace.op_wall_s"]) <= 0.03 * m["trace.op_wall_s"], workload


def test_bounded_analyze_makes_no_pairing_calls(traced_pairs):
    m = traced_pairs["bounded-analyze"][0]["per_layer"]
    for name in ("pairing", "obstruction", "h1_basis", "weil", "pairing_matrix"):
        assert m[f"cohomology.{name}_calls"] == 0, name
    assert traced_pairs["closed-verify"][0]["per_layer"]["cohomology.pairing_calls"] > 0


@pytest.mark.parametrize(
    "workload,trace,section",
    [("bounded-analyze", 0, "end_to_end"), ("bounded-analyze", 1, "per_layer"), ("cli-oneshot", 1, "per_layer")],
)
def test_result_line_contract(workload, trace, section):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == want


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "closed-verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
