"""End-to-end analysis: request parsing, the hypothesis gate, frozen
reports for the main fixtures, and deterministic JSON."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from charvar.cohomology import BLOCKS
from charvar.pipeline import (
    HypothesisError,
    PipelineError,
    analyze,
    example_requests,
    ledger_to_json,
    report_to_json,
    request_from_text,
    verify_suite,
)
from charvar.reps import embed, representation_to_json, triangle_group
from conftest import EVERY_INPUT


@pytest.fixture(scope="module")
def reducible_rep_file(tmp_path_factory, triangle334):
    emb = embed(triangle334, "standard")
    path = tmp_path_factory.mktemp("reps") / "embedded.json"
    path.write_text(json.dumps(representation_to_json(emb)))
    return str(path)


def test_request_parsing():
    req = request_from_text("HD(4)")
    assert req.hd_order == 4
    assert req.signature is None
    req2 = request_from_text("D2(3,3)")
    assert req2.input_text == "O(g=0;b=1;cone=[3,3])"
    with pytest.raises(Exception):
        request_from_text("Q(1,2)")


def test_embedding_resolution():
    assert analyze(request_from_text("S2(2,3,7)")).embedding == "standard"
    with pytest.raises(PipelineError):
        analyze(request_from_text("D(3,3;mirror)"))
    with pytest.raises(PipelineError):
        analyze(request_from_text("S2(2,3,7)", embedding="type_preserving"))


def test_analyze_decomposes_once(monkeypatch):
    """The other embedding's column block is a twist of this one, so a
    non-orientable analysis needs a single decomposition."""
    import charvar.pipeline as pipeline

    calls = []
    real = pipeline.decompose_sl
    monkeypatch.setattr(pipeline, "decompose_sl", lambda *args: calls.append(args) or real(*args))
    report = analyze(request_from_text("D(3,3;mirror)", embedding="orientable"))
    assert report.dims["d_oe"] == report.dims["d_tp"] == 1
    assert len(calls) == 1


def test_embedding_spelling_normalization(analyses):
    a = analyses("D(3,3;mirror)", "type-preserving")
    b = analyses("D(3,3;mirror)", "type_preserving")
    assert a.embedding == b.embedding == "type_preserving"


def test_analyze_quadrilateral_frozen(analyses):
    report = analyses("S2(3,3,3,3)")
    assert report.dims == {"p": 8, "d": 2, "b": 0}
    assert report.model.display == "R^8 x R^0 x Cone(UT(S^1))"
    assert not report.model.smooth
    assert len(report.ledger) == 15
    assert all(entry.passed for entry in report.ledger)
    assert report.flags == ()
    assert report.obstruction["c_n"] == pytest.approx(-1.0 / 12.0, abs=1e-6)
    assert report.obstruction["rel_std"] < 1e-6


def test_analyze_turnover_frozen(analyses):
    report = analyses("S2(3,3,4)")
    assert report.dims == {"p": 2, "d": 0, "b": 0}
    assert report.model.display == "R^2 x R^0"
    assert report.model.smooth
    assert len(report.ledger) == 14
    assert all(entry.passed for entry in report.ledger)
    assert report.obstruction["c_n"] is None


def test_analyze_mirrored_disc_frozen(analyses):
    oe = analyses("D(3,3;mirror)", "orientable")
    tp = analyses("D(3,3;mirror)", "type_preserving")
    for report in (oe, tp):
        assert report.dims == {"p": 4, "b": 0, "d_oe": 1, "d_tp": 1, "f": 0, "d_model": 1}
        assert all(entry.passed for entry in report.ledger)
    assert oe.model.display == "R^4 x R^0 x Cone(S^0xS^0)"
    assert not oe.model.smooth
    assert tp.model.display == "R^4 x R^0 x Cone((S^0xS^0)/~)"
    assert tp.model.smooth
    assert tp.model.flags == ("topologically non-singular",)


def test_analyze_half_mirrored_frozen(analyses):
    oe = analyses("HD(3)", "orientable")
    tp = analyses("HD(3)", "type_preserving")
    for report in (oe, tp):
        assert report.dims["p"] == 2
        assert report.dims["d_oe"] == 1
        assert report.dims["d_tp"] == 0
        assert report.dims["f"] == 1
    assert oe.model.display == "R^2 x R^0 x Cone(S^0xS^0)"
    assert tp.model.display == "R^2 x R^0"
    assert tp.model.smooth


def test_analyze_boundary_disc_frozen(analyses):
    report = analyses("D2(3,3)")
    assert report.dims == {"p": 4, "d": 1, "b": 0}
    assert report.model.display == "R^4 x R^0 x Cone(S^0xS^0)"
    assert report.obstruction["boundary_case"]


def test_hypothesis_gate_rejects_reducible_rep(reducible_rep_file):
    req = request_from_text(
        "S2(3,3,4)", rep_source="file", rep_path=reducible_rep_file, n=4
    )
    with pytest.raises(HypothesisError) as err:
        analyze(req)
    failed = [e.name for e in err.value.ledger if not e.passed]
    assert failed == ["irreducible-base"]


def test_verify_suite_reports_failures_as_data(reducible_rep_file):
    req = request_from_text(
        "S2(3,3,4)", rep_source="file", rep_path=reducible_rep_file, n=4
    )
    ledger = verify_suite(req)
    assert any(not e.passed for e in ledger)
    assert [e.name for e in ledger if not e.passed] == ["irreducible-base"]


def test_verify_suite_clean_fixture():
    ledger = verify_suite(request_from_text("S2(3,3,4)"))
    assert ledger
    assert all(e.passed for e in ledger)
    names = [e.name for e in ledger]
    assert "fox-coboundary-exactness" in names
    assert "weil-slope" in names


def test_report_json_shape(analyses):
    blob = report_to_json(analyses("S2(3,3,3,3)"))
    assert blob["schema"] == "charvar-report/1"
    assert set(blob) >= {
        "input",
        "n",
        "embedding",
        "dims",
        "model",
        "cohomology",
        "obstruction",
        "ledger",
        "flags",
        "irreducibility",
        "residuals",
    }
    # strict JSON round trip: no infinities or NaN anywhere
    text = json.dumps(blob, allow_nan=False, sort_keys=True)
    assert json.loads(text) == blob
    assert blob["model"]["display"] == "R^8 x R^0 x Cone(UT(S^1))"
    assert blob["obstruction"]["num_samples"] >= 10


def test_ledger_json_shape(analyses):
    rows = ledger_to_json(analyses("S2(3,3,4)").ledger)
    assert all(set(r) == {"name", "passed", "margin", "note"} for r in rows)
    json.dumps(rows, allow_nan=False)


def test_analysis_is_deterministic():
    req = request_from_text("S2(3,3,3,3)", seed=0)
    a = json.dumps(report_to_json(analyze(req)), sort_keys=True)
    b = json.dumps(report_to_json(analyze(req)), sort_keys=True)
    assert a == b


def test_example_requests_frozen():
    labels = [(req.input_text, req.embedding) for req in example_requests()]
    assert labels == [
        ("S2(3,3,3,3)", None),
        ("D(3,3;mirror)", "orientable"),
        ("D(3,3;mirror)", "type_preserving"),
        ("O(g=0;b=1;cone=[3,3])", None),
        ("HD(3)", "orientable"),
        ("HD(3)", "type_preserving"),
    ]


HD_FIELDS = ("h0", "h1", "h2", "z1", "b1")


@pytest.mark.parametrize("index", range(len(example_requests())))
def test_full_g_row_is_the_block_sum(index):
    report = analyze(example_requests()[index])
    rows = {mod.label: mod for mod in report.cohomology.modules}
    full = rows["full_g"]
    for name in HD_FIELDS:
        assert getattr(full.dims, name) == sum(getattr(rows[b].dims, name) for b in BLOCKS)
    assert full.dims.min_gap == min(rows[b].dims.min_gap for b in BLOCKS)
    assert full.euler_cells == sum(rows[b].euler_cells for b in BLOCKS)
    assert set(full.dims.methods.values()) == {"direct_sum"}
    assert "euler-consistency:full_g" not in [e.name for e in report.ledger]


@pytest.mark.parametrize("text, embedding", EVERY_INPUT)
def test_full_g_direct_sum_gate_passes(analyses, text, embedding):
    report = analyses(text, None if embedding == "standard" else embedding, checks=("all",))
    entry = next(e for e in report.ledger if e.name == "full-g-direct-sum")
    assert entry.passed and entry.margin == 0.0


@pytest.mark.parametrize(
    "text, embedding, direct_z1, summed_z1",
    [("HD(3)", "orientable", 18, 16), ("HD(5)", "type_preserving", 16, 18)],
)
def test_full_g_direct_sum_gate_catches_the_wrong_twist(
    monkeypatch, text, embedding, direct_z1, summed_z1
):
    """With the other embedding's column and row blocks, the block sum no
    longer matches the directly computed full_g complex."""
    import charvar.pipeline as pipeline

    other = {"orientable": "type_preserving", "type_preserving": "orientable"}[embedding]
    real = pipeline.decompose_sl

    def swapped(rep, emb):
        wrong = real(rep, other)
        return replace(real(rep, emb), m_c=wrong.m_c, m_r=wrong.m_r)

    monkeypatch.setattr(pipeline, "decompose_sl", swapped)
    ledger = verify_suite(request_from_text(text, embedding=embedding))
    entry = next(e for e in ledger if e.name == "full-g-direct-sum")
    assert not entry.passed
    note = entry.note.removeprefix("direct ")
    direct, summed = (json.loads(part) for part in note.split(" vs block sum "))
    assert direct[HD_FIELDS.index("z1")] == direct_z1
    assert summed[HD_FIELDS.index("z1")] == summed_z1


@pytest.mark.parametrize(
    "run, text, embedding, expected",
    [
        (analyze, "S2(3,3,3,3)", None, 4),
        (analyze, "D(3,3;mirror)", "orientable", 5),
        (analyze, "HD(5)", "type_preserving", 5),
        (verify_suite, "S2(3,3,3,3)", None, 5),
    ],
)
def test_fox_matrix_built_once_per_block(monkeypatch, run, text, embedding, expected):
    """One Fox matrix per block complex: the four blocks, plus the other
    embedding's column block on non-orientable input, plus the directly
    computed full_g complex in verify."""
    import charvar.cohomology as cohomology

    calls = []
    real = cohomology.fox_matrix
    monkeypatch.setattr(cohomology, "fox_matrix", lambda *args: calls.append(args) or real(*args))
    run(request_from_text(text, embedding=embedding))
    assert len(calls) == expected
