"""Command-line surface: exit codes, JSON output, seed precedence."""

from __future__ import annotations

import json

import pytest

from charvar.cli import main
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


def test_underdetermined_mirrored_disc_fails_closed(capsys):
    """Five cone points give the mirrored-disc builder 10 unknowns against
    9 residuals: a named build error, not a solver traceback."""
    rc, out, err = run(["verify", "D(3,3,3,3,3;mirror)", "--embed", "orientable"], capsys)
    assert rc == 1
    assert "error:" in err
    assert "Traceback" not in out + err
