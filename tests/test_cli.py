"""Command-line surface: exit codes, JSON output, representation files."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from charvar.cli import main
from charvar.presentation import parse_signature
from charvar.reps import build_representation, embed, representation_to_json


def run(argv, capsys):
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = int(exc.code)
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.fixture(scope="module")
def reducible_rep_file(tmp_path_factory, triangle334):
    path = tmp_path_factory.mktemp("cli") / "embedded.json"
    path.write_text(json.dumps(representation_to_json(embed(triangle334, "standard"))))
    return str(path)


def test_analyze_json(capsys):
    rc, out, _ = run(["analyze", "S2(3,3,4)", "--json"], capsys)
    assert rc == 0
    blob = json.loads(out)
    assert blob["schema"] == "charvar-report/2"
    assert blob["dims"] == {"p": 2, "d": 0, "b": 0}
    assert blob["model"]["smooth"] is True


def test_analyze_human_output(capsys):
    rc, out, _ = run(["analyze", "S2(3,3,4)"], capsys)
    assert rc == 0
    assert "R^2 x R^0" in out
    assert "FAIL" not in out


def test_dims_nonorientable_defaults_to_orientable_model(capsys):
    rc, out, _ = run(["dims", "HD(3)", "--json"], capsys)
    assert rc == 0
    blob = json.loads(out)
    assert blob["dims"]["d_oe"] == 1
    assert blob["dims"]["d_tp"] == 0
    assert "model" not in blob


def test_dims_orientable(capsys):
    rc, out, _ = run(["dims", "S2(3,3,3,3)", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["dims"] == {"p": 8, "d": 2, "b": 0}


def test_verify_pass_exit_zero(capsys):
    rc, out, _ = run(["verify", "S2(3,3,4)"], capsys)
    assert rc == 0
    assert "0 failed" in out


def test_verify_reducible_rep_exit_two(capsys, reducible_rep_file):
    rc, out, _ = run(
        ["verify", "S2(3,3,4)", "--rep", reducible_rep_file], capsys
    )
    assert rc == 2
    assert "FAIL" in out


def test_analyze_reducible_rep_exit_two(capsys, reducible_rep_file):
    rc, _, err = run(
        ["analyze", "S2(3,3,4)", "--rep", reducible_rep_file], capsys
    )
    assert rc == 2
    assert "hypothesis" in err


def test_usage_errors_exit_one(capsys):
    assert run(["frobnicate"], capsys)[0] == 1
    assert run(["analyze"], capsys)[0] == 1
    assert run(["analyze", "S2(3,3,4)", "--no-such-flag"], capsys)[0] == 1


@pytest.mark.parametrize(
    "argv, rc, shown",
    [
        ([], 1, ()),
        (["frobnicate", "S2(3,3,4)"], 1, ()),
        (["analyze"], 1, ()),
        (["analyze", "S2(3,3,4)", "S2(2,3,7)"], 1, ()),
        (["examples", "S2(3,3,4)"], 1, ()),
        (["examples", "--embed", "orientable"], 1, ()),
        (["analyze", "D(3,3;mirror)", "--embed", "bogus"], 1, ()),
        (["analyze", "S2(3,3,4)", "--seed", "x"], 1, ()),
        (["analyze", "S2(3,3,4)", "--tol"], 1, ()),
        (["analyze", "--json", "S2(3,3,4)", "--tol=1e-8"], 0, ('"relative": 1e-08',)),
        (["analyze", "--json", "D(3,3;mirror)", "--emb", "orientable"], 0, ('"embedding": "orientable"',)),
        (["analyze", "--json", "--seed", "3", "S2(3,3,4)"], 0, ('"seed": 3',)),
        (["analyze", "--json", "S2(3,3,4)", "--seed", "1", "--seed", "5"], 0, ('"seed": 5',)),
        (["-h"], 0, ("analyze", "dims", "verify", "examples")),
        (["analyze", "-h"], 0, ("--embed", "--tol")),
    ],
    ids=[
        "no-command", "unknown-command", "no-signature", "two-signatures",
        "examples-signature", "examples-embed", "bad-choice", "bad-int", "no-value",
        "equals-form", "prefix", "options-first", "last-wins", "help", "command-help",
    ],
)
def test_the_command_line_grammar(capsys, argv, rc, shown):
    """A malformed command line exits 1 with the usage error last on
    stderr and nothing on stdout; each accepted form prints what it asks."""
    got, out, err = run(argv, capsys)
    assert got == rc
    if rc:
        assert out == ""
        assert "error:" in err.splitlines()[-1]
    for text in shown:
        assert text in out


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "1", "abc"])
def test_tolerance_outside_the_unit_interval_is_a_usage_error(capsys, tol):
    """As thresholds, 0 and -1 would keep rounding noise as rank (a negative
    h1), and nan and 1 would drop the whole span and call a valid input
    reducible."""
    rc, out, err = run(["verify", "S2(3,3,3,3)", "--tol", tol], capsys)
    assert rc == 1
    assert out == ""
    assert "argument --tol: must be a number in (0, 1)" in err


def test_tolerance_inside_the_unit_interval_is_accepted(capsys):
    rc, out, _ = run(["verify", "S2(3,3,3,3)", "--tol", "1e-8"], capsys)
    assert rc == 0
    assert "0 failed" in out


def test_the_absolute_threshold_is_the_tolerance_over_a_thousand(capsys):
    """--tol T gives the absolute threshold T / 1000: at the default it is
    RankPolicy()'s 1e-12, and 1e-7 prints the quotient's own digits."""
    for argv, absolute in (([], 1e-12), (["--tol", "1e-7"], 9.999999999999999e-11)):
        rc, out, _ = run(["analyze", "--json", "S2(3,3,4)", *argv], capsys)
        assert rc == 0
        assert json.loads(out)["policy"]["absolute"] == absolute


def test_bad_input_exit_one(capsys):
    rc, _, err = run(["analyze", "Q(1,2)"], capsys)
    assert rc == 1
    assert "error" in err
    # non-orientable input without an embedding choice is a usage error
    rc2, _, err2 = run(["analyze", "D(3,3;mirror)"], capsys)
    assert rc2 == 1
    assert "embed" in err2


@pytest.mark.parametrize("text", ["O(g=1;g=2)", "O(g=2;k=3)", "N(k=3;g=5;b=1)", "S2(99999999999999999999,3,7)"])
def test_a_malformed_signature_exits_one(capsys, text):
    """A signature the parser would once have read as another group, or
    whose cone order overflowed the word builder, is a named error."""
    rc, out, err = run(["analyze", text], capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_missing_rep_file_exit_one(capsys, tmp_path):
    rc, _, _ = run(
        ["analyze", "S2(3,3,4)", "--rep", str(tmp_path / "missing.json")], capsys
    )
    assert rc == 1


def test_seed_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("CHARVAR_SEED", "7")
    rc, out, _ = run(["analyze", "S2(3,3,4)", "--json", "--seed", "5"], capsys)
    assert rc == 0
    assert json.loads(out)["seed"] == 5


def test_environment_seed_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("CHARVAR_SEED", "7")
    rc, out, _ = run(["analyze", "S2(3,3,4)", "--json"], capsys)
    assert rc == 0
    monkeypatch.delenv("CHARVAR_SEED")
    assert run(["analyze", "S2(3,3,4)", "--json", "--seed", "0"], capsys) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "S2(3,3,3,3)", "--seed", "-30"],
        ["analyze", "--json", "O(g=2;b=2;cone=[3,5])", "--seed", "-1"],
        ["dims", "S2(3,3,4)", "--seed", "-1"],
        ["examples", "--seed", "-100"],
    ],
)
def test_negative_seed_exit_one(capsys, argv):
    rc, out, err = run(argv, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: ") and "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "O(g=5;b=3;cone=[3,3])"],
        ["analyze", "N(k=12;b=1)", "--embed", "orientable"],
        ["verify", "O(g=4;b=1)"],
        ["verify", "O(g=5;b=1)"],
    ],
)
def test_a_boundary_group_with_many_handles_is_refused_by_name(capsys, argv):
    """Many handles make the long relator's prefix too ill-conditioned to
    solve for the last boundary generator: the builder refuses with a
    usage error that names the signature, not a traceback or a
    determinant of a generator the input never named."""
    rc, out, err = run(argv, capsys)
    assert rc == 1 and out == ""
    assert err.startswith("error: cannot solve the long relator of ")
    assert parse_signature(argv[1]).to_text() in err


@pytest.mark.parametrize("text, overflows", [("O(g=0;b=400)", True), ("O(g=0;b=60)", False)])
def test_a_long_relator_prefix_past_float_range_is_refused_by_name(capsys, text, overflows):
    """The prefix of O(g=0;b=400)'s long relator overflows: the builder
    stops there, with no numpy warning, and standard error is one line
    that names the signature.  O(g=0;b=60)'s prefix stays finite and is
    refused as singular, as before."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, err = run(["dims", text], capsys)
    assert rc == 1 and out == "" and caught == []
    [line] = err.splitlines()
    assert line.startswith(f"error: cannot solve the long relator of {parse_signature(text).to_text()} ")
    assert ("(its prefix leaves float range)" in line) == overflows


@pytest.mark.parametrize("argv", [["verify", "S2(4,4,4,4,4,4,4,4,4,4)"], ["dims", "O(g=3;cone=[3,3])"]])
def test_a_built_representation_the_constructor_refuses_is_named(capsys, argv):
    """The polygon's entries grow with its side count: S2(4^10) misses its
    relators by 1.7e-8 and O(g=3;cone=[3,3]) by 1.4e-8, past the 1e-8
    bound.  The builder refuses with exit 1 and names the signature, with
    no traceback."""
    rc, out, err = run(argv, capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: the built representation of {parse_signature(argv[1]).to_text()} is refused: ")
    assert "relator residual" in err and "Traceback" not in err


# main in a fresh interpreter; the last line of standard error names the
# modules no command should pay to import that it loaded
FRESH = (
    "import sys\n"
    "from charvar.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    "unpaid = ('numpy.random', 'dataclasses', 'fractions', 'decimal', 'argparse')\n"
    "print(','.join(m for m in unpaid if m in sys.modules), file=sys.stderr)\n"
    "sys.exit(rc)\n"
)


def fresh_run(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", FRESH, *argv], capture_output=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stdout, proc.stderr.decode().splitlines()[-1]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--json", "O(g=2;b=2;cone=[3,5])"],
        ["verify", "S2(2,3,7)"],
        ["verify", "D(3,3;mirror)", "--embed", "orientable"],
        ["examples", "--json"],
        ["dims", "HD(5)"],
    ],
)
def test_a_fresh_process_does_not_import_numpy_random(argv):
    """The seeded draws come from the standard library's generator, which
    numpy loads anyway, so no command pays for importing numpy.random; the
    records are plain classes and named tuples, so none pays for the
    dataclass code generation either; and hyperbolicity is decided in
    integers, so none loads fractions or the decimal it imports; and the
    command line is read in one plain pass, so none imports argparse."""
    rc, out, loaded = fresh_run(argv)
    assert rc == 0 and out
    assert loaded == ""


# the BLAS pool sizes benchmark/run.py pins for its workers
BLAS_NAMES = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# records the BLAS settings at the moment numpy is first looked up
AT_NUMPY = (
    "import json, os, sys\n"
    "seen = {}\n"
    "class Spy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'numpy' and not seen:\n"
    f"            seen.update((n, os.environ.get(n)) for n in {BLAS_NAMES!r})\n"
    "sys.meta_path.insert(0, Spy())\n"
    "import charvar\n"
    "print(json.dumps(seen))\n"
)


@pytest.mark.parametrize("explicit", [None, "3"])
def test_the_package_caps_the_blas_pool_before_numpy_loads(explicit):
    """A fresh interpreter that imports charvar loads numpy with every
    BLAS pool at one thread; a pool size already in the environment
    wins."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_NAMES}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    if explicit is not None:
        env["OPENBLAS_NUM_THREADS"] = explicit
    proc = subprocess.run([sys.executable, "-c", AT_NUMPY], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    want = dict.fromkeys(BLAS_NAMES, "1")
    if explicit is not None:
        want["OPENBLAS_NUM_THREADS"] = explicit
    assert json.loads(proc.stdout) == want


@pytest.mark.parametrize("seed", ["0", "1", "7"])
def test_examples_json_is_byte_identical_across_processes(seed):
    first, second = (fresh_run(["examples", "--json", "--seed", seed]) for _ in range(2))
    assert first[0] == 0 and first[1]
    assert first == second


def test_a_seed_past_64_bits_is_accepted_and_repeats(capsys):
    argv = ["analyze", "--json", "O(g=2;b=2;cone=[3,5])", "--seed", str(2**70)]
    rc, out, err = run(argv, capsys)
    assert rc == 0 and err == ""
    assert json.loads(out)["seed"] == 2**70
    assert run(argv, capsys) == (0, out, "")


def test_rank_option_is_gone(capsys):
    """The rank is the representation's own."""
    rc, out, err = run(["analyze", "S2(3,3,4)", "--n", "3"], capsys)
    assert rc == 1
    assert out == ""
    assert "unrecognized arguments: --n 3" in err


def test_rep_takes_only_a_file(capsys):
    rc, out, err = run(["analyze", "S2(3,3,4)", "--rep", "triangle"], capsys)
    assert rc == 1
    assert err.startswith("error:")
    assert "'triangle'" in err
    assert "Traceback" not in out + err


def test_five_cone_point_mirrored_disc_builds(capsys):
    """The polygon builder has no cap on the cone points; verify either
    passes or names a failed gate."""
    rc, out, _ = run(["dims", "D(3,3,3,3,3;mirror)", "--json"], capsys)
    assert rc == 0
    dims = json.loads(out)["dims"]
    assert (dims["p"], dims["d_oe"], dims["d_tp"]) == (22, 7, 7)
    rc, out, err = run(["verify", "D(3,3,3,3,3;mirror)", "--embed", "orientable"], capsys)
    assert rc in (0, 2)
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "blob",
    [
        {"signature": "S2(3,3,4)", "n": 3, "matrices": [["x"] * 9] * 3},
        {"signature": "S2(3,3,4)", "matrices": [["1"] * 9] * 3},
        [["1"] * 9] * 3,
        {"signature": "S2(3,3,4)", "n": 3, "matrices": [["nan"] * 9] * 3},
    ],
    ids=["non-numeric", "missing-n", "top-level-list", "non-finite"],
)
def test_malformed_rep_file_exit_one(capsys, tmp_path, blob):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    rc, out, err = run(["analyze", "S2(3,3,4)", "--rep", str(path)], capsys)
    assert rc == 1
    assert "error:" in err
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "content, reason",
    [(b"\xff\xfe", "is not UTF-8 text"), (b"[" * 100000, "nests its JSON too deeply")],
    ids=["not-utf8", "nested-100000-deep"],
)
def test_undecodable_rep_file_exit_one(capsys, tmp_path, triangle334, content, reason):
    """A file that cannot be decoded is a named RepError: exit 1 and one
    error line, no traceback; a valid file still loads."""
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    rc, out, err = run(["analyze", "S2(3,3,4)", "--rep", str(path)], capsys)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: representation file {reason}") and err.count("\n") == 1
    path.write_text(json.dumps(representation_to_json(triangle334)))
    assert run(["analyze", "S2(3,3,4)", "--rep", str(path)], capsys)[0] == 0


def test_parser_carries_no_state_between_calls(capsys):
    """dims fills in the embedding of a non-orientable input on its own
    arguments; a later analyze of the same input must still ask for one."""
    assert run(["dims", "HD(3)"], capsys)[0] == 0
    rc, _, err = run(["analyze", "HD(3)"], capsys)
    assert rc == 1
    assert "embed" in err


@pytest.mark.parametrize(
    "key, value",
    [
        ("lineage", 5),
        ("lineage", ["polygon", 5]),
        ("n", float("inf")),
        ("n", 3.9),
        ("n", "3"),
        ("n", True),
        ("signature", 5),
    ],
    ids=["lineage-number", "lineage-non-string", "infinite-n", "float-n", "string-n", "boolean-n", "signature-number"],
)
def test_rep_file_with_a_malformed_field_exit_one(capsys, tmp_path, triangle334, key, value):
    data = representation_to_json(triangle334)
    data[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # an infinite n is written as Infinity
    rc, out, err = run(["analyze", "S2(3,3,4)", "--rep", str(path)], capsys)
    assert rc == 1
    assert err.startswith("error:")
    assert "Traceback" not in out + err


def test_rep_file_cannot_loosen_the_relator_gate(capsys, tmp_path):
    """A boundary generator off by 1e-6 breaks the long relator at about
    1e-6; the file's own residual_bound is not read, so the gate holds."""
    data = representation_to_json(build_representation(parse_signature("D2(3,3)")))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(data))
    assert run(["analyze", "D2(3,3)", "--rep", str(good)], capsys)[0] == 0

    c1 = np.array([float(x) for x in data["matrices"][2]]).reshape(3, 3)
    bent = c1 @ (np.eye(3) + 1e-6 * np.random.default_rng(0).standard_normal((3, 3)))
    bent /= np.cbrt(np.linalg.det(bent))
    data["matrices"][2] = [f"{x:.17g}" for x in bent.ravel()]
    data["residual_bound"] = 1.0
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps(data))
    rc, out, err = run(["analyze", "D2(3,3)", "--rep", str(loose)], capsys)
    assert rc == 1
    assert re.search(r"relator residual \S+ exceeds bound 1\.0e-08", err)
    assert "Traceback" not in out + err


def test_rep_file_for_another_group_exit_one(capsys, tmp_path):
    path = tmp_path / "s237.json"
    path.write_text(json.dumps(representation_to_json(build_representation(parse_signature("S2(2,3,7)")))))
    rc, out, err = run(["analyze", "S2(3,3,4)", "--rep", str(path)], capsys)
    assert rc == 1
    assert err.startswith("error: file is for S2(2,3,7), not S2(3,3,4)")
    assert "Traceback" not in out + err


def test_rep_file_may_spell_its_group_by_an_alias(capsys, tmp_path):
    data = representation_to_json(build_representation(parse_signature("D2(3,3)")))
    assert data["signature"] == "O(g=0;b=1;cone=[3,3])"
    data["signature"] = "D2(3,3)"
    path = tmp_path / "alias.json"
    path.write_text(json.dumps(data))
    assert run(["dims", "O(g=0;b=1;cone=[3,3])", "--rep", str(path)], capsys)[0] == 0


def test_half_mirrored_disc_round_trips_through_a_file(capsys, tmp_path):
    data = representation_to_json(build_representation(parse_signature("HD(3)")))
    assert data["signature"] == "HD(3)"
    path = tmp_path / "hd.json"
    path.write_text(json.dumps(data))
    assert run(["verify", "HD(3)", "--embed", "orientable", "--rep", str(path)], capsys)[0] == 0
    builtin = run(["dims", "HD(3)", "--json"], capsys)
    assert builtin[0] == 0
    assert run(["dims", "HD(3)", "--json", "--rep", str(path)], capsys) == builtin


def test_verify_runs_cup_antisymmetry_off_the_fuchsian_locus(capsys, bulged_file):
    """A bulged representation reaches the command through --rep, and the
    antisymmetry gate runs on it and passes."""
    rc, out, _ = run(["verify", "S2(2,3,3,3)", "--rep", bulged_file("S2(2,3,3,3)", 0.5)], capsys)
    assert rc == 0
    assert re.search(r"^PASS  cup-antisymmetry ", out, re.M)


def test_non_hyperbolic_half_mirrored_disc_exit_one(capsys):
    rc, out, err = run(["dims", "HD(2)"], capsys)
    assert rc == 1
    assert err.startswith("error: HD(2) has Euler characteristic 0 >= 0, not hyperbolic")
    assert "Traceback" not in out + err


@pytest.mark.parametrize(
    "text, matrices, chi",
    [
        # the tetrahedral rotations: x1 a half turn, x2 the 3-cycle, x3 = (x1 x2)^-1
        ("S2(2,3,3)", [np.diag([-1.0, -1.0, 1.0]), np.eye(3)[[2, 0, 1]]], "1/6"),
        ("S2()", [], "2"),
    ],
)
def test_rep_file_for_a_non_hyperbolic_signature_exit_one(capsys, tmp_path, text, matrices, chi):
    """A file is refused as the builder refuses the built group: by name,
    before the constructor reads a matrix."""
    if matrices:
        matrices.append(np.linalg.inv(matrices[0] @ matrices[1]))
    data = {"signature": text, "n": 3, "matrices": [[repr(float(x)) for x in m.ravel()] for m in matrices]}
    path = tmp_path / "spherical.json"
    path.write_text(json.dumps(data))
    rc, out, err = run(["analyze", text, "--rep", str(path)], capsys)
    assert (rc, out) == (1, "")
    assert err == f"error: {text} has Euler characteristic {chi} >= 0, not hyperbolic\n"
