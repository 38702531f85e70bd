"""Facts kept with the object they derive from.

analyze computes what depends on the representation, the embedding and
the rank policy once, and keeps it with the representation, its
decomposition or its table, and the CLI keeps what each command prints
for a built group with the shared representation; no step reads the
seed, so a call at a new seed on a built group recomputes nothing.
These tests hold that reuse to the bytes a fresh process and json.dumps
print, keep it from crossing commands, policies or embeddings, check
that a file representation and a refused call keep nothing, and that
kept facts are read-only and die with a representation read from a
file.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

from charvar import analyze, build_representation, parse_signature, request_from_text, verify_suite
from charvar.cli import main
from charvar.linalg import RankPolicy
from charvar.pipeline import HypothesisError, report_to_json
from charvar.presentation import presentation_of
from charvar.reps import _build, representation_to_json
from conftest import EVERY_INPUT

# one process runs each command line as the first analysis of a freshly
# built representation, which is what a fresh process sees
FRESH_SCRIPT = """
import contextlib, io, json, sys
from charvar.cli import main
from charvar.reps import _build
out = []
for argv in json.loads(sys.argv[1]):
    _build.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def fresh_outputs(argvs) -> list[list]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", FRESH_SCRIPT, json.dumps(argvs)], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def cli(argv) -> list:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return [code, buf.getvalue()]


def command_lines(command: str, seed: int) -> list[list[str]]:
    if command == "examples":
        return [["examples", "--json", "--seed", str(seed)]]
    return [
        [command, "--json", text, *embed, "--seed", str(seed)]
        for text, embedding in EVERY_INPUT
        for embed in [() if embedding == "standard" else ("--embed", embedding.replace("_", "-"))]
    ]


@pytest.mark.parametrize("command", ["analyze", "verify", "examples"])
def test_a_second_call_at_a_new_seed_prints_what_a_fresh_process_does(command):
    """Every input of the benchmarks and the examples (the closed-verify
    panel among them), analyzed at seed 0 and then at seed 5 in one
    process: the second call reads the first call's facts and prints the
    bytes a fresh process prints at seed 5."""
    warm = []
    for first, second in zip(command_lines(command, 0), command_lines(command, 5)):
        cli(first)
        warm.append(cli(second))
    fresh = fresh_outputs(command_lines(command, 5))
    assert [code for code, _ in warm] == [0] * len(warm)
    for argv, got, want in zip(command_lines(command, 5), warm, fresh):
        assert got == want, argv


def test_a_second_call_reads_the_first_calls_facts():
    """A built representation is shared, and so is every fact kept
    with it: the table, the obstruction scan, the gates verify adds to
    analyze's and the group description of a second call at another
    seed are the first call's.  The group dict itself is new per call,
    since json.dumps cannot write a read-only mapping."""
    first = analyze(request_from_text("S2(3,3,3,3)", seed=0, checks=("all",)))
    second = analyze(request_from_text("S2(3,3,3,3)", seed=5, checks=("all",)))
    assert second.cohomology is first.cohomology
    assert second.group["description"] is first.group["description"]
    assert second.group is not first.group and type(second.group) is dict
    assert second.irreducibility["base"] is first.irreducibility["base"]
    assert second.obstruction is first.obstruction
    core = len(analyze(request_from_text("S2(3,3,3,3)", seed=3)).ledger)
    assert len(first.ledger) > core
    assert all(mine is theirs for mine, theirs in zip(second.ledger[core:], first.ledger[core:], strict=True))


@pytest.mark.parametrize("text", ["S2(3,3,3,3)", "O(g=2;b=2;cone=[3,5])"])
def test_no_step_reads_the_seed(text):
    """The builders and the sampled gates draw from fixed streams, so on a
    freshly built group, closed or with boundary, verify --json prints
    the same bytes at seeds 0 and 5 (its ledger names no seed) and
    analyze --json differs only in the seed it echoes."""
    outputs = []
    for command in ("verify", "analyze"):
        for seed in ("0", "5"):
            _build.cache_clear()
            outputs.append(cli([command, "--json", text, "--seed", seed]))
    verify0, verify5, analyze0, analyze5 = outputs
    assert verify0 == verify5 and verify0[0] == 0
    lines0, lines5 = analyze0[1].splitlines(), analyze5[1].splitlines()
    assert len(lines0) == len(lines5)
    assert [(a, b) for a, b in zip(lines0, lines5) if a != b] == [('  "seed": 0', '  "seed": 5')]


def test_another_rank_policy_reads_none_of_this_ones_facts():
    """The table, the hypotheses and everything derived from them are kept
    per rank policy: a relative tolerance of 1e-2 cuts g0's ranks lower
    (p = 12, not 8), and 0.5 fails Burnside's criterion, after and before
    the default policy ran on the same representation."""
    loose = RankPolicy(1e-2, 1e-5)
    default = analyze(request_from_text("S2(3,3,3,3)"))
    report = analyze(request_from_text("S2(3,3,3,3)", policy=loose))
    assert report.cohomology is not default.cohomology
    assert {c.policy for c in report.cohomology.complexes.values()} == {loose}
    assert (default.dims["p"], report.dims["p"]) == (8, 12)
    with pytest.raises(HypothesisError):
        analyze(request_from_text("S2(3,3,3,3)", policy=RankPolicy(0.5, 5e-4)))
    assert analyze(request_from_text("S2(3,3,3,3)", seed=3)).cohomology is default.cohomology
    assert cli(["analyze", "--json", "S2(3,3,3,3)", "--tol", "1e-2"]) == fresh_outputs(
        [["analyze", "--json", "S2(3,3,3,3)", "--tol", "1e-2"]]
    )[0]


def test_the_cli_and_the_library_share_one_rank_policy(monkeypatch):
    """At the default --tol the CLI's policy is RankPolicy() itself: it
    prints the library's report and reads the table the library call
    kept."""
    import charvar.cli as cli_module

    reports = []
    monkeypatch.setattr(cli_module, "analyze", lambda req: reports.append(analyze(req)) or reports[-1])
    library = analyze(request_from_text("D(3,3;mirror)", embedding="orientable"))
    code, out = cli(["analyze", "--json", "D(3,3;mirror)", "--embed", "orientable"])
    assert code == 0 and out == json.dumps(report_to_json(library), indent=2, sort_keys=True) + "\n"
    assert reports[0].request.policy == RankPolicy() and reports[0].cohomology is library.cohomology


def test_the_other_embedding_reads_none_of_this_ones_facts():
    """The two embeddings of a mirrored disc share the representation and
    its hypotheses, but each has its own decomposition and table."""
    orientable = analyze(request_from_text("D(3,3;mirror)", embedding="orientable"))
    preserving = analyze(request_from_text("D(3,3;mirror)", embedding="type_preserving"))
    assert preserving.irreducibility["cover"] is orientable.irreducibility["cover"]
    assert preserving.cohomology is not orientable.cohomology
    for mine, other in zip(orientable.cohomology.complexes.values(), preserving.cohomology.complexes.values()):
        assert mine.module is not other.module
    argvs = [["analyze", "--json", "D(3,3;mirror)", "--embed", e] for e in ("type-preserving", "orientable")]
    assert [cli(argv) for argv in argvs] == fresh_outputs(argvs)


def table_ref(req) -> weakref.ref:
    """A weak reference to the table of analyze(req); the report is gone
    when it returns."""
    return weakref.ref(analyze(req).cohomology)


def test_facts_of_a_file_representation_die_with_its_report(tmp_path):
    """A file representation is read per call, and its kept facts are
    freed with the report; a built one, with boundary or without, is
    shared, and its facts outlive the report."""
    for text, embedding in (("S2(3,3,3,3)", None), ("N(k=2;b=1;cone=[3])", "type_preserving")):
        path = tmp_path / "rep.json"
        path.write_text(json.dumps(representation_to_json(build_representation(parse_signature(text)))))
        req = request_from_text(text, embedding=embedding, rep_path=str(path), checks=("all",))
        assert table_ref(req)() is None, text
    for text, embedding in (
        ("S2(3,3,3,3)", None),
        ("O(g=2;b=2;cone=[3,5])", None),
        ("N(k=2;b=1;cone=[3])", "type_preserving"),
    ):
        shared = table_ref(request_from_text(text, embedding=embedding, checks=("all",)))
        again = analyze(request_from_text(text, embedding=embedding, seed=9, checks=("all",)))
        assert shared() is again.cohomology, text


def arrays_within(obj, seen):
    """Every array reachable from obj through the package's records,
    tuples and mappings."""
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, (tuple, list)):
        items = obj
    elif isinstance(obj, (dict, MappingProxyType)):
        items = obj.values()
    elif type(obj).__module__.startswith("charvar."):
        items = vars(obj).values()
    else:
        return
    for item in items:
        yield from arrays_within(item, seen)


@pytest.mark.parametrize(
    "text, embedding",
    [("S2(3,3,3,3)", None), ("O(g=2)", None), ("HD(5)", "orientable"), ("O(g=2;b=2;cone=[3,5])", None)],
)
def test_every_shared_array_is_read_only(text, embedding):
    """After analyze and verify, every array kept with the shared
    representation, its decompositions, tables, forms and Gram matrices,
    refuses a write.  The walk reaches every block's Fox matrix and its
    Z^1 and H^1 bases, the Z^1 basis read here where no check read it."""
    report = analyze(request_from_text(text, embedding=embedding))
    verify_suite(request_from_text(text, embedding=embedding, seed=4))
    complexes = report.cohomology.complexes.values()
    for c in complexes:
        assert c.z_basis.shape[1] == c.dims.z1
    rep = build_representation(parse_signature(text))
    arrays = {id(a): a for a in arrays_within(rep, set())}
    for c in complexes:
        assert all(id(a) in arrays for a in (c.fox, c.z_basis, c.h1_basis)), c.module.label
    for a in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_a_kept_obstruction_scan_refuses_a_write():
    """The obstruction scan is kept with the table and shared by every
    later call, so none of its readings takes a write: one caller cannot
    change the next call's answer."""
    report = analyze(request_from_text("S2(3,3,3,3)"))
    with pytest.raises(TypeError):
        report.obstruction["c_n"] = 0.0
    with pytest.raises(TypeError):
        report.obstruction["residual"] = 0.0
    again = analyze(request_from_text("S2(3,3,3,3)", seed=5))
    assert again.obstruction["c_n"] == pytest.approx(-1 / 12, abs=1e-9)
    assert again.obstruction["residual"] == report.obstruction["residual"] < 1e-6
    bounded = analyze(request_from_text("O(g=2;b=2;cone=[3,5])"))
    with pytest.raises(TypeError):
        bounded.obstruction["c_n"] = 0.0


def test_shared_records_hold_no_writable_mapping():
    """The mappings of the shared records refuse an in-place write, and
    report_to_json still writes them as plain JSON objects."""
    pres = presentation_of(parse_signature("S2(3,3,4)"))
    with pytest.raises(TypeError):
        pres.torsion_orders[1] = 5
    assert pres.torsion_orders == {1: 3, 2: 3, 3: 4}
    report = analyze(request_from_text("S2(3,3,3,3)"))
    with pytest.raises(TypeError):
        report.cohomology.module("g0").dims.methods["h2"] = "fox"
    with pytest.raises(TypeError):
        report.cohomology.complexes["g0"] = None
    table = json.loads(json.dumps(report_to_json(report)))["cohomology"]
    assert table["g0"]["methods"] == {"h0": "fox", "h1": "fox", "h2": "duality"}
    assert table["full_g"]["methods"] == dict.fromkeys(("h0", "h1", "h2"), "direct_sum")


SEEDS = (0, 5, 2**31 - 1)


def json_command_lines(text: str, embedding: str) -> list[tuple[list[str], str | None]]:
    """analyze --json and dims --json of one input, each with the embedding
    of the library request it prints.  A non-orientable input also runs
    dims --json with no --embed, which analyzes under the orientable
    embedding and prints no model."""
    if embedding == "standard":
        return [([command, "--json", text], None) for command in ("analyze", "dims")]
    embed = ["--embed", embedding.replace("_", "-")]
    lines = [([command, "--json", text, *embed], embedding) for command in ("analyze", "dims")]
    if embedding == "orientable":
        lines.append((["dims", "--json", text], "orientable"))
    return lines


def library_json(argv: list[str], embedding: str | None, seed: int) -> str:
    """What json.dumps prints for the library's report of the command."""
    data = report_to_json(analyze(request_from_text(argv[2], embedding=embedding, seed=seed)))
    if argv[0] == "dims":
        data = {"schema": data["schema"], "input": data["input"], "dims": data["dims"]}
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("text, embedding", EVERY_INPUT)
def test_the_kept_json_text_is_what_json_dumps_prints(text, embedding):
    """The CLI encodes a report's JSON entries once and keeps them with the
    table, writing only the seed per call.  On every input, the ten of
    bounded-analyze among them, analyze --json and dims --json print what
    json.dumps prints for the library's report: first on a freshly built
    representation, then warm at each seed, the largest 32-bit one too.
    The commands share one table, so each must find its own text."""
    lines = json_command_lines(text, embedding)
    for seed in SEEDS:
        _build.cache_clear()
        for argv, library_embedding in lines:
            cold = cli([*argv, "--seed", str(seed)])
            assert cold == [0, library_json(argv, library_embedding, seed)], (argv, seed)
        for other in SEEDS:
            for argv, library_embedding in lines:
                warm = cli([*argv, "--seed", str(other)])
                assert warm == [0, library_json(argv, library_embedding, other)], (argv, seed, other)


def counted(fn, name: str, calls: list):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return wrapper


def test_a_warm_analyze_json_encodes_nothing(monkeypatch):
    """Once analyze --json and dims --json of a group have run, another
    call at any seed builds no JSON data and calls no json.dumps; a
    freshly built group does both."""
    import charvar.cli as cli_module

    argvs = [["analyze", "--json", "D(3,3;mirror)", "--embed", "orientable"], ["dims", "--json", "D(3,3;mirror)"]]
    firsts = [cli(argv) for argv in argvs]
    calls = []
    for module, name in ((json, "dumps"), (cli_module, "report_to_json")):
        monkeypatch.setattr(module, name, counted(getattr(module, name), name, calls))
    for argv, first in zip(argvs, firsts):
        assert cli([*argv, "--seed", "9"]) == [0, first[1].replace('"seed": 0', '"seed": 9')]
    assert calls == []
    _build.cache_clear()
    assert cli(argvs[0]) == firsts[0]
    assert set(calls) == {"dumps", "report_to_json"}


def test_a_failed_hypothesis_is_raised_on_every_call(tmp_path):
    """A failed hypothesis is raised on every call: a representation file
    that fails one raises HypothesisError with its ledger each time, and so does
    a built group under a policy that fails Burnside's criterion, which the
    default policy then still analyzes."""
    path = tmp_path / "hd4.json"
    # rank-2 HD(4): x the quarter turn, s = diag(1, -1); the cover is reducible
    path.write_text(json.dumps(
        {"signature": "HD(4)", "n": 2, "group_tag": "SLpm", "matrices": [["0", "-1", "1", "0"], ["1", "0", "0", "-1"]]}
    ))
    for req in (
        request_from_text("HD(4)", embedding="orientable", rep_path=str(path)),
        request_from_text("S2(3,3,3,3)", policy=RankPolicy(0.5, 5e-4)),
    ):
        ledgers = []
        for _ in range(3):
            with pytest.raises(HypothesisError) as err:
                analyze(req)
            ledgers.append([(e.name, e.passed) for e in err.value.ledger])
        assert ledgers[0] == ledgers[1] == ledgers[2] and not all(passed for _, passed in ledgers[0])
    assert analyze(request_from_text("S2(3,3,3,3)")).dims["p"] == 8


def test_dims_with_and_without_an_embedding_prints_the_library_json():
    """dims of a non-orientable input with no --embed analyzes under the
    orientable embedding and prints no model, as dims --embed orientable
    does, so the two print the same bytes, the library's, whichever ran
    first; analyze of the same group and embedding, kept beside them, still
    prints its own report with its model."""
    text = "N(k=2;b=1;cone=[3])"
    bare = ["dims", "--json", text]
    embedded = ["dims", "--json", text, "--embed", "orientable"]
    full = ["analyze", "--json", text, "--embed", "orientable"]
    for order in ((bare, embedded, full), (full, embedded, bare)):
        _build.cache_clear()
        for argv in order:
            library = library_json(argv, "orientable", 0)
            assert cli(argv) == [0, library], argv
            assert ('"model"' in library) == (argv[0] == "analyze"), argv


def test_a_warm_command_of_a_built_group_analyzes_nothing(monkeypatch):
    """A second call of analyze, dims (text and --json) and verify at a new
    seed on a built group prints the first call's output, its seed
    written anew, and calls neither analyze nor verify_suite; once the
    built representation is gone, each is called again."""
    import charvar.cli as cli_module

    argvs = [
        [command, *json_flag, "S2(3,3,3,3)"]
        for command in ("analyze", "dims", "verify")
        for json_flag in ((), ("--json",))
    ]
    firsts = [cli([*argv, "--seed", "0"]) for argv in argvs]
    calls = []
    for name in ("analyze", "verify_suite"):
        monkeypatch.setattr(cli_module, name, counted(getattr(cli_module, name), name, calls))
    for argv, first in zip(argvs, firsts):
        assert cli([*argv, "--seed", "9"]) == [0, first[1].replace('"seed": 0', '"seed": 9')], argv
    assert calls == []
    _build.cache_clear()
    for argv, first in zip(argvs, firsts):
        assert cli([*argv, "--seed", "0"]) == first, argv
    assert calls == ["analyze"] * 4 + ["verify_suite"] * 2


def test_a_file_representation_is_read_on_every_call(capsys, tmp_path):
    """A --rep file is read and analyzed on every call: rewritten between
    two calls to a representation that fails a hypothesis, the second
    call exits 2, and rewritten back, the third prints the first's
    output."""
    path = tmp_path / "rep.json"
    good = json.dumps(representation_to_json(build_representation(parse_signature("HD(4)"))))
    argv = ["analyze", "--json", "HD(4)", "--embed", "orientable", "--rep", str(path)]
    path.write_text(good)
    first = cli(argv)
    assert first[0] == 0
    # rank-2 HD(4): x the quarter turn, s = diag(1, -1); the cover is reducible
    path.write_text(json.dumps(
        {"signature": "HD(4)", "n": 2, "group_tag": "SLpm", "matrices": [["0", "-1", "1", "0"], ["1", "0", "0", "-1"]]}
    ))
    assert cli(argv) == [2, ""]
    assert "FAIL  irreducible-cover" in capsys.readouterr().err
    path.write_text(good)
    assert cli(argv) == first


@pytest.mark.parametrize(
    "argv, code",
    [
        (["analyze", "S2(3,3,3,3)", "--embed", "orientable"], 1),
        (["analyze", "S2(3,3,3,3)", "--tol", "0.5"], 2),
        (["analyze", "--json", "S2(3,3,3,3)", "--tol", "0.5"], 2),
    ],
    ids=["pipeline-error", "hypothesis-error", "hypothesis-error-json"],
)
def test_a_refused_command_is_refused_on_every_call(capsys, argv, code):
    """A command that raises keeps nothing: an embedding the pipeline
    refuses, and a tolerance under which Burnside's criterion fails, are
    refused with the same error on every call, and a later call at the
    default --tol still prints the model."""
    errors = []
    for seed in ("0", "0", "5"):
        assert cli([*argv, "--seed", seed]) == [code, ""]
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == errors[2] != ""
    code, out = cli(["analyze", "S2(3,3,3,3)"])
    assert code == 0 and "model      R^8 x R^0 x Cone(UT(S^1))" in out
