"""End-to-end analysis: request parsing, the hypothesis gate, frozen
reports for the main fixtures, and deterministic JSON."""

from __future__ import annotations

import itertools
import json
import random
import sys

import numpy as np
import pytest

from charvar.coeffmodules import SlDecomposition, decompose_sl, sl_basis
from charvar.cohomology import BLOCKS, BlockComplex, cohomology_report, fundamental_form
from charvar.linalg import RankPolicy
from charvar.pipeline import (
    HypothesisError,
    LedgerEntry,
    PipelineError,
    analyze,
    example_requests,
    ledger_to_json,
    report_to_json,
    request_from_text,
    verify_suite,
)
from charvar.presentation import OrbifoldSignature, orientation_cover_generators, parse_signature
from charvar.reps import (
    J3,
    Representation,
    _boundary_rep,
    _derived,
    build_representation,
    burnside_irreducible,
    embed,
    load_representation,
    representation_to_json,
    rot_origin,
)
from conftest import BULGING_PATHS, EVERY_INPUT


@pytest.fixture(scope="module")
def reducible_rep_file(tmp_path_factory, triangle334):
    emb = embed(triangle334, "standard")
    path = tmp_path_factory.mktemp("reps") / "embedded.json"
    path.write_text(json.dumps(representation_to_json(emb)))
    return str(path)


def test_request_parsing():
    req = request_from_text("HD(4)")
    assert req.signature == OrbifoldSignature("mirrored", 0, 1, (4,))
    assert req.input_text == "HD(4)"
    req2 = request_from_text("D2(3,3)")
    assert req2.input_text == "O(g=0;b=1;cone=[3,3])"
    with pytest.raises(Exception):
        request_from_text("Q(1,2)")


@pytest.mark.parametrize("checks", [("All",), ("everything",), ("core", "extra")])
def test_unknown_check_names_are_refused(checks):
    """A check set names only "core" or "all"; any other name would run
    the core gates alone without a word."""
    with pytest.raises(PipelineError, match="unknown checks"):
        request_from_text("S2(3,3,4)", checks=checks)
    for known in (("core",), ("all",), ("core", "all")):
        assert request_from_text("S2(3,3,4)", checks=known).checks == known


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
    assert report.obstruction["residual"] < 1e-6


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
    req = request_from_text("S2(3,3,4)", rep_path=reducible_rep_file)
    with pytest.raises(HypothesisError) as err:
        analyze(req)
    failed = [e.name for e in err.value.ledger if not e.passed]
    assert failed == ["irreducible-base"]


@pytest.mark.parametrize("refused", [False, True])
def test_analyze_fails_closed_on_the_embedded_relators(monkeypatch, refused):
    """The embedding takes the base's inverses, so the embedded relators
    of O(g=2;b=2;cone=[3,5]) round as the base's do (they read 4.4e-14
    against 1.4e-14 when the 4 x 4 inverses rounded again).  An embedding
    with one matrix moved 1e-6 off its relators is refused on the
    embedded residual alone, with no model emitted."""
    import charvar.coeffmodules as coeffmodules
    import charvar.pipeline as pipeline

    req = request_from_text("O(g=2;b=2;cone=[3,5])")
    if not refused:
        residuals = analyze(req).residuals
        assert residuals["embedded"] == pytest.approx(residuals["base"], rel=1e-12, abs=0)
        return
    real = coeffmodules.embed

    def pushed(rep, kind):
        out = real(rep, kind)
        mats = [m.copy() for m in out.matrices]
        mats[0][0, 1] += 1e-6
        return _derived(Representation, presentation=out.presentation, matrices=tuple(mats),
                        group_tag=out.group_tag, lineage=out.lineage)

    monkeypatch.setattr(coeffmodules, "embed", pushed)
    with pytest.raises(HypothesisError) as err:
        analyze(req)
    assert [e.name for e in err.value.ledger if not e.passed] == ["relator-residual-embedded"]
    assert err.value.ledger[-1].name == "relator-residual-embedded"
    assert err.value.ledger[-1].margin > pipeline.RESIDUAL_BOUND


def rep_file(directory, signature, mats) -> str:
    """A type-preserving representation file of signature from mats."""
    mats = [np.asarray(m, dtype=float) for m in mats]
    data = {
        "signature": signature,
        "n": len(mats[0]),
        "group_tag": "SLpm",
        "matrices": [[f"{x:.17g}" for x in m.ravel()] for m in mats],
    }
    path = directory / f"{signature}-{len(mats[0])}.json"
    path.write_text(json.dumps(data))
    return str(path)


def counted_burnside(monkeypatch):
    """The matrix lists analyze hands to Burnside's criterion, in order."""
    import charvar.pipeline as pipeline

    calls = []
    real = pipeline.burnside_irreducible
    monkeypatch.setattr(pipeline, "burnside_irreducible", lambda mats, pol: calls.append(mats) or real(mats, pol))
    return calls


def irreducibility_gates(err):
    return {e.name: (e.passed, e.note) for e in err.ledger if e.name.startswith("irreducible-")}


def test_irreducible_base_may_restrict_reducibly_to_the_cover(monkeypatch, tmp_path):
    """Clifford's case: at even n an irreducible base can restrict
    reducibly to the orientation cover.  The rank-2 HD(4) with x the
    quarter turn and s = diag(1, -1) spans all of M_2, but the cover sees
    x and s x s^-1 = x^-1 alone.  The failed cover gate leaves the base's
    verdict to the base's own Burnside run."""
    path = rep_file(tmp_path, "HD(4)", [[[0, -1], [1, 0]], np.diag([1, -1])])
    calls = counted_burnside(monkeypatch)
    with pytest.raises(HypothesisError) as err:
        analyze(request_from_text("HD(4)", embedding="orientable", rep_path=path))
    assert irreducibility_gates(err.value) == {
        "irreducible-base": (True, "algebra 4/4"),
        "irreducible-cover": (False, "algebra 2/4"),
    }
    assert [e.name for e in err.value.ledger if not e.passed] == ["irreducible-cover"]
    rep = load_representation(path, parse_signature("HD(4)"))
    assert len(calls) == 2 and np.array_equal(calls[1], rep.matrices)


def test_reducible_base_fails_both_gates(tmp_path):
    """diag(R(2 pi/3), 1) and diag(1, -1, 1) keep a plane and a line: the
    base spans 4 + 1 dimensions, the cover only the powers of x."""
    x = np.eye(3)
    x[:2, :2] = rot_origin(2 * np.pi / 3)[:2, :2]
    path = rep_file(tmp_path, "HD(3)", [x, np.diag([1, -1, 1])])
    with pytest.raises(HypothesisError) as err:
        analyze(request_from_text("HD(3)", embedding="type_preserving", rep_path=path))
    assert irreducibility_gates(err.value) == {
        "irreducible-base": (False, "algebra 5/9"),
        "irreducible-cover": (False, "algebra 3/9"),
    }


@pytest.mark.parametrize("embedding", ["orientable", "type_preserving"])
def test_irreducible_cover_certifies_the_base(monkeypatch, embedding):
    """rho(Gamma+) lies in rho(Gamma), so a full cover algebra with scalar
    commutant makes the base's report (True, n^2, 1): Burnside runs once,
    on the cover, and the base's ledger entry and report are the ones its
    own run gives."""
    rep = build_representation(parse_signature("D(3,3;mirror)"))
    own = burnside_irreducible(rep.matrices)
    calls = counted_burnside(monkeypatch)
    report = analyze(request_from_text("D(3,3;mirror)", embedding=embedding))
    assert len(calls) == 1 and len(calls[0]) == len(orientation_cover_generators(rep.presentation))
    assert report.irreducibility["base"] == own
    entry = next(e for e in report.ledger if e.name == "irreducible-base")
    assert entry == LedgerEntry("irreducible-base", True, 0.0, "algebra 9/9")
    assert [e.name for e in report.ledger][2:4] == ["irreducible-base", "irreducible-cover"]


def test_verify_suite_reports_failures_as_data(reducible_rep_file):
    req = request_from_text("S2(3,3,4)", rep_path=reducible_rep_file)
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
    assert blob["schema"] == "charvar-report/2"
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
    assert set(blob["obstruction"]) == {"boundary_case", "c_n", "residual", "g0_max", "d_max"}
    assert blob["obstruction"]["residual"] < 1e-6


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
        wrong, sd = real(rep, other), real(rep, emb)
        return SlDecomposition(
            sd.n, sd.embedding, sd.embedded, sd.g0, wrong.m_c, wrong.m_r, sd.d, sd.full_g, sd.killing_multiplier
        )

    monkeypatch.setattr(pipeline, "decompose_sl", swapped)
    ledger = verify_suite(request_from_text(text, embedding=embedding))
    entry = next(e for e in ledger if e.name == "full-g-direct-sum")
    assert not entry.passed
    note = entry.note.removeprefix("direct ")
    direct, summed = (json.loads(part) for part in note.split(" vs block sum "))
    assert direct[HD_FIELDS.index("z1")] == direct_z1
    assert summed[HD_FIELDS.index("z1")] == summed_z1


@pytest.mark.parametrize("shifted", [False, True])
def test_full_g_direct_sum_gate_reads_the_values_only_h1(monkeypatch, shifted):
    """The direct side of the gate is full_g's own values-only complex: its
    h1 off by one fails the gate, and the clean run passes."""
    real = BlockComplex.h1.func
    monkeypatch.setattr(
        BlockComplex, "h1", property(lambda c: real(c) + (shifted and c.module.label == "full_g"))
    )
    ledger = verify_suite(request_from_text("S2(3,3,3,3)"))
    entry = next(e for e in ledger if e.name == "full-g-direct-sum")
    assert entry.passed != shifted and entry.margin == float(shifted)


def weil_directions(monkeypatch, text, embedding=None, perturb=0.0):
    """verify's report on text and the tangent directions its Weil test
    deformed along, a (generator, matrix) stack per direction; perturb
    moves the first direction's first generator off Z^1 by that much."""
    import charvar.pipeline as pipeline

    seen = []
    real = pipeline.weil_slope

    def recorded(matrices, relators, deformations):
        deformations = np.array(deformations)
        deformations[0, 0, 0, 1] += perturb
        seen.append(deformations)
        return real(matrices, relators, deformations)

    monkeypatch.setattr(pipeline, "weil_slope", recorded)
    report = analyze(request_from_text(text, embedding=embedding, checks=("all",)))
    (directions,) = seen
    return report, directions


WEIL_INPUTS = [("S2(3,3,3,3)", None), ("O(g=2)", None), ("HD(5)", "orientable"), ("HD(5)", "type_preserving")]


@pytest.mark.parametrize("text, embedding", WEIL_INPUTS)
def test_weil_directions_span_h1_of_full_g(monkeypatch, text, embedding):
    """One independent Weil direction per class of full_g: the table row's
    h1, which full_g's values-only direct complex reads too."""
    report, directions = weil_directions(monkeypatch, text, embedding)
    h1 = report.cohomology.module("full_g").dims.h1
    note = next(e.note for e in report.ledger if e.name == "full-g-direct-sum")
    direct = json.loads(note.removeprefix("direct ").split(" vs block sum ")[0])
    assert len(directions) == h1 == direct[HD_FIELDS.index("h1")] > 0
    assert np.linalg.matrix_rank(directions.reshape(h1, -1)) == h1


@pytest.mark.parametrize("text, embedding", WEIL_INPUTS)
def test_every_weil_direction_mixes_blocks(monkeypatch, text, embedding):
    """Each direction has a g0 part and an m_c + m_r part wherever those
    blocks carry classes: a pure m_c or m_r cocycle integrates exactly,
    and a direction along it would test nothing."""
    report, directions = weil_directions(monkeypatch, text, embedding)
    n = directions.shape[-1] - 1
    corner = directions[..., :n, :n]
    g0 = corner - np.trace(corner, axis1=-2, axis2=-1)[..., None, None] * np.eye(n) / n
    off_diagonal = np.concatenate([directions[..., :n, n], directions[..., n, :n]], axis=-1)
    size = np.abs(directions).max(axis=(1, 2, 3))
    h1 = {label: report.cohomology.module(label).dims.h1 for label in BLOCKS}
    assert (np.abs(g0).max(axis=(1, 2, 3)) > 1e-3 * size).all() == bool(h1["g0"])
    assert (np.abs(off_diagonal).max(axis=(1, 2)) > 1e-3 * size).all() == bool(h1["m_c"] + h1["m_r"])


@pytest.mark.parametrize("perturbed", [False, True])
@pytest.mark.parametrize("text", ["S2(3,3,3,3)", "O(g=2)"])
def test_weil_slope_catches_one_direction_off_z1(monkeypatch, text, perturbed):
    """One direction moved off Z^1 by 1e-3 deforms the relators at first
    order, and its slope leaves 2; the clean directions pass."""
    report, _ = weil_directions(monkeypatch, text, perturb=1e-3 if perturbed else 0.0)
    entry = next(e for e in report.ledger if e.name == "weil-slope")
    assert entry.passed != perturbed


@pytest.mark.parametrize("seed", [-1, -30])
def test_a_negative_seed_is_refused_at_the_request(seed):
    """The draws would seed with |seed|, so a negative seed is refused at
    the request, before anything is built."""
    with pytest.raises(PipelineError, match="non-negative"):
        request_from_text("S2(3,3,3,3)", seed=seed)
    with pytest.raises(PipelineError, match="non-negative"):
        request_from_text("S2(3,3,3,3)").replace(seed=seed)
    with pytest.raises(PipelineError, match="non-negative"):
        example_requests(seed)


@pytest.mark.parametrize(
    "run, text, embedding, expected",
    [
        (analyze, "S2(3,3,3,3)", None, 1),
        (analyze, "D(3,3;mirror)", "orientable", 2),
        (analyze, "HD(5)", "type_preserving", 2),
        (verify_suite, "S2(3,3,3,3)", None, 2),
    ],
)
def test_fox_walks_per_run(monkeypatch, run, text, embedding, expected):
    """One Fox walk for the whole table, in the sum of the four blocks;
    one more for the other embedding's column block on non-orientable
    input, and one for the directly computed full_g complex in verify."""
    import charvar.cohomology as cohomology

    calls = []
    real = cohomology.fox_matrix
    monkeypatch.setattr(cohomology, "fox_matrix", lambda *args: calls.append(args) or real(*args))
    run(request_from_text(text, embedding=embedding))
    assert len(calls) == expected


@pytest.mark.parametrize(
    "run, text, forms",
    [
        (analyze, "S2(3,3,3,3)", 2),
        (analyze, "O(g=2)", 2),
        (verify_suite, "S2(3,3,3,3)", 3),
        (verify_suite, "O(g=2)", 3),
    ],
)
def test_pairings_read_from_forms(monkeypatch, run, text, forms):
    """analyze builds the cross and bracket forms once each; verify adds the
    cross form the other way round, which the antisymmetry and the
    transgression gates share.  Nothing walks the fundamental class per sample: only verify's
    pairing-form-reference entry calls the word-by-word pairing, once.  The
    Weil test is one stacked call."""
    import charvar.cohomology as cohomology
    import charvar.pipeline as pipeline

    calls = {"form": 0, "pair": 0, "weil": 0}

    def counted(key, real):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "fundamental_form", counted("form", pipeline.fundamental_form))
    pair = counted("pair", cohomology.pair_fundamental_class)
    monkeypatch.setattr(cohomology, "pair_fundamental_class", pair)
    monkeypatch.setattr(pipeline, "pair_fundamental_class", pair)
    monkeypatch.setattr(pipeline, "weil_slope", counted("weil", pipeline.weil_slope))
    run(request_from_text(text))
    verify = int(run is verify_suite)
    assert calls == {"form": forms, "pair": verify, "weil": verify}


def test_other_embedding_reads_h1_alone(monkeypatch):
    """On non-orientable input the other embedding's column block gives
    only its h1, from the Z^1 and B^1 factorizations, and takes no rank
    for h2: 18 SVDs per analyze of D(3,3;mirror), where the base's
    irreducibility is read off the cover's Burnside run and that run stops
    at the full algebra.  The d it reports is the one the other
    embedding's own table gives."""
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    report = analyze(request_from_text("D(3,3;mirror)", embedding="orientable"))
    assert len(calls) == 18
    other = analyze(request_from_text("D(3,3;mirror)", embedding="type_preserving"))
    assert report.dims["d_tp"] == other.dims["d_model"]
    assert {**report.dims, "d_model": None} == {**other.dims, "d_model": None}


def svd_calls_by_caller(monkeypatch):
    """Records (calling function, with singular vectors, the caller's self)
    per np.linalg.svd call."""
    calls = []
    real = np.linalg.svd

    def recorded(*args, **kwargs):
        caller = sys._getframe(1)
        calls.append((caller.f_code.co_name, kwargs.get("compute_uv", True), caller.f_locals.get("self")))
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def rank_cuts(calls) -> list[bool]:
    return [uv for name, uv, _ in calls if name in ("_fox_cut", "_cob_cut")]


def test_dims_only_analyze_factors_no_singular_vectors(monkeypatch):
    """On input that is not closed orientable, analyze reads no basis, so
    every block of the table, and the other embedding's column block,
    takes its Fox and coboundary ranks from singular values alone and
    factors no basis."""
    calls = svd_calls_by_caller(monkeypatch)
    report = analyze(request_from_text("D(3,3;mirror)", embedding="orientable"))
    assert rank_cuts(calls) == [False] * 2 * (len(BLOCKS) + 1)
    assert all(name in ("_fox_cut", "_cob_cut") for name, _, owner in calls if isinstance(owner, BlockComplex))
    assert not any({"z_basis", "_b_basis"} & set(vars(c)) for c in report.cohomology.complexes.values())


BASES_READ = [(analyze, "S2(3,3,3,3)", None)] + [(verify_suite, t, e) for t, e in EVERY_INPUT]


@pytest.mark.parametrize("run, text, embedding", BASES_READ)
def test_runs_that_read_bases_factor_each_block_once(monkeypatch, run, text, embedding):
    """The obstruction scan and verify's checks read the H^1 and Z^1
    bases.  Every rank cut is values-only: one per Fox and coboundary
    matrix of the four blocks, of the other embedding's column block on
    non-orientable input and, under verify, of full_g's own complex.  A
    basis read takes one vector SVD of the Fox matrix and one of the
    coboundary matrix, on a block of the table only, and every block with
    classes is factored.  Every built group has one shared
    representation, and every factorization is kept with it, so a second
    run at another seed takes no SVD at all."""
    import charvar.pipeline as pipeline

    calls = svd_calls_by_caller(monkeypatch)
    tables = []
    real = pipeline.cohomology_report
    monkeypatch.setattr(pipeline, "cohomology_report", lambda *args: tables.append(real(*args)) or tables[-1])
    run(request_from_text(text, embedding=embedding))
    other = embedding not in (None, "standard")
    assert rank_cuts(calls) == [False] * 2 * (len(BLOCKS) + other + (run is verify_suite))
    (table,) = tables
    factored = [(name, uv, owner) for name, uv, owner in calls if name in ("z_basis", "_b_basis")]
    assert all(uv for _, uv, _ in factored)
    pairs = [(name, owner.module.label) for name, _, owner in factored]
    assert len(pairs) == len(set(pairs))
    assert all(owner is table.complexes.get(owner.module.label) for _, _, owner in factored)
    with_classes = {label for label in BLOCKS if table.module(label).dims.h1}
    assert {label for name, label in pairs if name == "_b_basis"} == with_classes
    assert {label for name, label in pairs if name == "z_basis"} >= with_classes
    calls.clear()
    run(request_from_text(text, embedding=embedding, seed=1))
    assert calls == []


@pytest.mark.parametrize(
    "text, embedding",
    [
        ("O(g=2;b=2;cone=[3,5])", None),
        ("N(k=2;b=1;cone=[3])", "orientable"),
        ("N(k=2;b=1;cone=[3])", "type_preserving"),
    ],
)
def test_boundary_placements_pass_every_gate_across_seeds(tmp_path, text, embedding):
    """The stream of draws moves every generic boundary placement; the
    placements of streams 0 to 39, each analyzed as a representation
    file, pass every gate of analyze."""
    sig = parse_signature(text)
    path = tmp_path / "placement.json"
    for stream in range(40):
        path.write_text(json.dumps(representation_to_json(_boundary_rep(sig, random.Random(stream)))))
        ledger = analyze(request_from_text(text, embedding=embedding, rep_path=str(path))).ledger
        assert [e.name for e in ledger if not e.passed] == [], stream


# the inputs of the bounded-analyze benchmark workload
BOUNDED_ANALYZE = [("O(g=2;b=2;cone=[3,5])", None), ("D2(3,3)", None)] + [
    (t, e)
    for t in ("D(3,3;mirror)", "D(3,3,3;mirror)", "N(k=2;b=1;cone=[3])", "HD(5)")
    for e in ("orientable", "type_preserving")
]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("text, embedding", BOUNDED_ANALYZE)
def test_analyze_rows_are_the_rows_verify_reads(text, embedding, seed):
    """analyze, which reads no basis here, and verify, which reads every
    block's, report the same rows, min_gap included, since every rank cut
    reads singular values alone.  Every built representation is shared,
    so the table is one object for both."""
    req = request_from_text(text, embedding=embedding, seed=seed)
    dims_only, full = analyze(req), analyze(req.replace(checks=("all",)))
    assert full.cohomology is dims_only.cohomology
    assert dims_only.cohomology.modules == full.cohomology.modules
    assert dims_only.dims == full.dims
    assert full.cohomology.min_gap >= 10.0


def failed_gates(text):
    return {e.name for e in verify_suite(request_from_text(text)) if not e.passed}


@pytest.mark.parametrize("mutated", [False, True])
def test_transgression_gate_needs_the_torsion_correction(monkeypatch, mutated):
    """Dropping the torsion relators from the fundamental chain leaves a
    chain with nonzero boundary, which no longer kills coboundaries."""
    import charvar.cohomology as cohomology

    if mutated:
        real = cohomology._transgression_chain
        monkeypatch.setattr(
            cohomology,
            "_transgression_chain",
            lambda pres: [(w, c) for w, c in real(pres) if len(set(w)) > 1],
        )
    assert ("transgression-coboundary" in failed_gates("S2(3,3,3,3)")) == mutated


@pytest.mark.parametrize("mutated", [False, True])
def test_obstruction_gates_need_the_d_component(monkeypatch, mutated):
    """With the (0, 1) entry of the bracket, a g0 coordinate, in place of
    pi_d, the obstruction is no longer a multiple of the invariant pairing.
    (obstruction-d-vanishing cannot catch a wrong entry: a pure d cocycle
    brackets to 0 in every entry.)"""
    if mutated:

        def g0_entry(sd):
            basis = np.array(sl_basis(sd.n + 1))
            corner = basis[:, 0, :] @ basis[:, :, 1].T
            return corner - corner.T

        monkeypatch.setattr(SlDecomposition, "bracket_d", property(g0_entry))
    failed = failed_gates("S2(3,3,3,3)")
    assert ("obstruction-constancy" in failed) == mutated
    assert ("obstruction-g0-vanishing" in failed) == mutated


def test_a_zero_obstruction_form_fails_with_a_finite_margin(monkeypatch):
    """With the bracket's d part zeroed, the obstruction Gram matrix is 0:
    obstruction-constancy fails at 1.0, not NaN, and the report is still
    strict JSON."""
    real = SlDecomposition.bracket_d
    monkeypatch.setattr(SlDecomposition, "bracket_d", property(lambda sd: np.zeros_like(real.fget(sd))))
    report = analyze(request_from_text("S2(3,3,3,3)"))
    entry = next(e for e in report.ledger if e.name == "obstruction-constancy")
    assert not entry.passed and entry.margin == 1.0
    assert report.obstruction["residual"] == 1.0 and report.obstruction["c_n"] == 0.0
    blob = report_to_json(report)
    assert json.loads(json.dumps(blob, allow_nan=False)) == blob


@pytest.mark.parametrize("mutated", [False, True])
def test_pairing_form_reference_catches_a_wrong_form(monkeypatch, mutated):
    """A form one part in a million off the word-by-word pairing fails the
    cross-check; the form as built agrees with it."""
    import charvar.pipeline as pipeline

    if mutated:
        real = pipeline.fundamental_form
        monkeypatch.setattr(pipeline, "fundamental_form", lambda *args: real(*args) * (1 + 1e-6))
    for text in ("S2(3,3,3,3)", "O(g=2)"):
        assert ("pairing-form-reference" in failed_gates(text)) == mutated


def conjugated_quad_file(directory, conj) -> str:
    """The S2(3,3,3,3) polygon group with generator i replaced by conj(i, x_i)."""
    rho = build_representation(parse_signature("S2(3,3,3,3)"))
    data = representation_to_json(rho)
    data["matrices"] = [[f"{x:.17g}" for x in conj(i, m).ravel()] for i, m in enumerate(rho.matrices)]
    path = directory / "conjugated.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("perturbed", [False, True])
def test_cup_antisymmetry_takes_the_form_every_generator_keeps(monkeypatch, tmp_path, bulged_file, perturbed):
    """The gate reads graded antisymmetry off the cross forms m_r x m_c and
    m_c x m_r, the Killing pairing that every generator keeps, so it needs
    no form on m_c alone.  It runs and passes on the Fuchsian quad, on
    P rho P^-1 (P scales the rotation plane of x_1 by 1.02: rho's
    character, but diag(1, 1, -1) is kept by x_1 alone) and on a bulged
    quad, which keeps no symmetric form at all.  The m_c x m_r form scaled
    by 1 + 1e-6 fails it, and no other gate."""
    import charvar.pipeline as pipeline

    x1 = build_representation(parse_signature("S2(3,3,3,3)")).matrices[0]
    w, v = np.linalg.eig(x1)
    p = np.real(v[:, np.argmin(np.abs(w - 1))])
    p = p / np.sqrt(-(p @ J3 @ p))
    P = 1.02 * np.eye(3) + 0.02 * np.outer(p, p @ J3)
    paths = [
        None,
        conjugated_quad_file(tmp_path, lambda i, m: P @ m @ np.linalg.inv(P)),
        bulged_file("S2(3,3,3,3)", 0.5),
    ]
    if perturbed:
        real = pipeline.fundamental_form

        def form(pres, m1, m2, phi):
            out = real(pres, m1, m2, phi)
            return out * (1 + 1e-6) if (m1.label, m2.label) == ("m_c", "m_r") else out

        monkeypatch.setattr(pipeline, "fundamental_form", form)
    for path in paths:
        ledger = {e.name: e for e in verify_suite(request_from_text("S2(3,3,3,3)", rep_path=path))}
        assert ledger["cup-antisymmetry"].passed != perturbed, path
        assert all(e.passed for name, e in ledger.items() if name != "cup-antisymmetry"), path


def off_the_fuchsian_locus(rep) -> float:
    """Largest |tr w - tr w^-1| over the positive words of length three:
    0 on SO(2, 1), where w^-1 = J w^T J."""
    return max(
        abs(np.trace(rep.word_image(w)) - np.trace(rep.word_image(tuple(-x for x in reversed(w)))))
        for w in itertools.product(range(1, rep.num_generators + 1), repeat=3)
    )


# the absolute bounds of two gates (ROADMAP item 2) refuse the largest
# bulge of S2(3^5): its cocycles leave relator residual 1.2e-7 and its
# Weil slopes stray 0.42 from 2
ABSOLUTE_BOUND_XFAIL = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: absolute bounds of h1-cocycle-residual (1.2e-7 against 1e-8) "
    "and weil-slope (0.42 against 0.1)",
)
BULGED_POINTS = [
    pytest.param(text, t, marks=ABSOLUTE_BOUND_XFAIL)
    if (text, t) == ("S2(3,3,3,3,3)", 1.0)
    else (text, t)
    for text in BULGING_PATHS
    for t in (0.2, 0.5, 1.0)
]


@pytest.mark.parametrize("text, t", BULGED_POINTS)
def test_bulging_keeps_the_local_model(analyses, bulged_file, text, t):
    """Bulging along a separating hyperbolic gamma leaves the Fuchsian
    locus through C-irreducible representations.  The local model is the
    same along the path: p, d and b, the obstruction constant c_3 =
    -1/12, and every gate passes, cup-antisymmetry among them."""
    path = bulged_file(text, t)
    report = analyze(request_from_text(text, rep_path=path, checks=("all",)))
    assert off_the_fuchsian_locus(load_representation(path, parse_signature(text))) > 1.0
    assert report.dims == analyses(text).dims
    assert report.obstruction["c_n"] == pytest.approx(-1 / 12, abs=1e-11)
    assert "cup-antisymmetry" in {e.name for e in report.ledger}
    assert all(e.passed for e in report.ledger), [e.line() for e in report.ledger if not e.passed]
