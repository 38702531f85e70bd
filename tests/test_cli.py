"""Command-line surface: exit codes, JSON output, seed precedence."""

from __future__ import annotations

import json

import pytest

from charvar.cli import build_parser, main
from charvar.reps import embed, representation_to_json


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
    assert blob["schema"] == "charvar-report/1"
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
        ["verify", "S2(3,3,4)", "--rep", reducible_rep_file, "--n", "4"], capsys
    )
    assert rc == 2
    assert "FAIL" in out


def test_analyze_reducible_rep_exit_two(capsys, reducible_rep_file):
    rc, _, err = run(
        ["analyze", "S2(3,3,4)", "--rep", reducible_rep_file, "--n", "4"], capsys
    )
    assert rc == 2
    assert "hypothesis" in err


def test_usage_errors_exit_one(capsys):
    assert run(["frobnicate"], capsys)[0] == 1
    assert run(["analyze"], capsys)[0] == 1
    assert run(["analyze", "S2(3,3,4)", "--no-such-flag"], capsys)[0] == 1


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "1"])
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


def test_bad_input_exit_one(capsys):
    rc, _, err = run(["analyze", "Q(1,2)"], capsys)
    assert rc == 1
    assert "error" in err
    # non-orientable input without an embedding choice is a usage error
    rc2, _, err2 = run(["analyze", "D(3,3;mirror)"], capsys)
    assert rc2 == 1
    assert "embed" in err2


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


def test_environment_seed_applies(capsys, monkeypatch):
    monkeypatch.setenv("CHARVAR_SEED", "7")
    rc, out, _ = run(["analyze", "S2(3,3,4)", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["seed"] == 7


def test_invalid_environment_seed_exit_one(capsys, monkeypatch):
    monkeypatch.setenv("CHARVAR_SEED", "not-a-number")
    rc, _, err = run(["analyze", "S2(3,3,4)", "--json"], capsys)
    assert rc == 1
    assert "CHARVAR_SEED" in err


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


def test_parser_carries_no_state_between_calls(capsys):
    """dims fills in the embedding of a non-orientable input on its own
    arguments; a later analyze of the same input must still ask for one."""
    assert run(["dims", "HD(3)"], capsys)[0] == 0
    rc, _, err = run(["analyze", "HD(3)"], capsys)
    assert rc == 1
    assert "embed" in err
    assert build_parser() is not build_parser()
