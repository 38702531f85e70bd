"""Representation builders, embeddings into the next rank, the Burnside
irreducibility verdicts, and serialization."""

from __future__ import annotations

import inspect
import random

import numpy as np
import pytest

from charvar.linalg import RankPolicy, rank
from charvar.presentation import GroupPresentation, OrbifoldSignature, PresentationError, parse_signature, presentation_of
from charvar.reps import (
    J3,
    RESIDUAL_BOUND,
    BuildError,
    RepError,
    build_representation,
    burnside_irreducible,
    commutant_dim,
    embed,
    hyperboloid_point,
    load_representation,
    Representation,
    _boundary_rep,
    _build,
    _incircle,
    _surface_group,
    representation_from_json,
    representation_to_json,
    rot_origin,
    rotation_about,
)
from conftest import kernel_basis


def lorentz_residual(m) -> float:
    """How far m is from preserving the form of SO(2,1)."""
    return float(np.abs(m.T @ J3 @ m - J3).max())


def matrix_order_holds(mat, order, tol=1e-9):
    return np.abs(np.linalg.matrix_power(mat, order) - np.eye(mat.shape[0])).max() < tol


def test_triangle_group_contract(triangle334):
    rep = triangle334
    assert rep.relator_residual < 1e-10
    for mat, order in zip(rep.matrices, (3, 3, 4)):
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12
        assert matrix_order_holds(mat, order)
    report = burnside_irreducible(rep)
    assert report.irreducible_over_C
    assert report.algebra_dim == 9
    assert report.commutant_dim == 1


def test_triangle_group_rejects_bad_orders():
    for text in ("S2(2,3,5)", "S2(2,2,2,2)", "S2(3,3)"):
        with pytest.raises(BuildError, match="not hyperbolic"):
            build_representation(parse_signature(text))


# the tangential-polygon builder on triangles, quadrilaterals up to
# octagons, and mixed orders
POLYGON_ORDERS = [(2, 3, 3, 3), *((3,) * c for c in range(4, 9)), (2, 3) * 4, (2, 3, 7), (3, 3, 4)]


@pytest.mark.parametrize("orders", POLYGON_ORDERS, ids=str)
def test_polygon_group_contract(orders):
    rep = build_representation(parse_signature(f"S2({','.join(map(str, orders))})"))
    for mat, order in zip(rep.matrices, orders):
        assert matrix_order_holds(mat, order)
        # a rotation by exactly 2 pi / order, not by a multiple of it
        assert abs(np.trace(mat) - 1.0 - 2.0 * np.cos(2.0 * np.pi / order)) < 1e-9
    long = rep.word_image(rep.presentation.long_relator)
    assert np.abs(long - np.eye(3)).max() < RESIDUAL_BOUND
    assert burnside_irreducible(rep).algebra_dim == 9


@pytest.mark.parametrize(
    "text",
    [
        "S2(2,3,7)", "S2(3,3,3,3)", "S2(3,3,3,3,3,3,3)", "O(g=2)", "O(g=1;cone=[3])", "D(3,3,3;mirror)",
        "O(g=2;b=2;cone=[3,5])", "N(k=2;b=1;cone=[3])", "N(k=3)", "N(k=2;cone=[3])",
    ],
)
def test_builders_are_identical_across_rebuilds(text):
    """No builder reads a seed or any other state: a group built again
    after the shared one is dropped has the same matrices, bit for bit."""
    sig = parse_signature(text)
    first = build_representation(sig)
    _build.cache_clear()
    again = build_representation(sig)
    assert again is not first
    for x, y in zip(first.matrices, again.matrices, strict=True):
        assert np.array_equal(x, y)


def test_build_representation_families(setups):
    torus = setups("O(g=1;cone=[2])")
    assert torus.rep.relator_residual < 1e-8
    assert burnside_irreducible(torus.rep).algebra_dim == 9

    genus2 = setups("O(g=2)")
    assert genus2.rep.relator_residual < 1e-8
    assert burnside_irreducible(genus2.rep).algebra_dim == 9

    boundary = setups("D2(3,3)")
    assert boundary.rep.relator_residual < 1e-8
    assert burnside_irreducible(boundary.rep).algebra_dim == 9


def test_genus_two_contract(setups):
    rep = setups("O(g=2)").rep
    assert rep.relator_residual < 1e-10
    assert max(lorentz_residual(m) for m in rep.matrices) < 1e-12
    assert burnside_irreducible(rep).algebra_dim == 9


@pytest.mark.parametrize("genus, orders", [(1, (2,)), (1, (3,)), (1, (2, 3, 4)), (2, ()), (2, (3,)), (3, ())])
def test_surface_group_contract(genus, orders):
    """The side pairings of the polygon a_1 b_1 a_1^-1 b_1^-1 ... x_1
    x_1^-1 ...: each x_j a rotation by exactly 2 pi/n_j, each handle
    generator a translation, all in SO(2,1), and the long relator holds."""
    rep = _surface_group(OrbifoldSignature("orientable", genus, 0, orders))
    assert rep.presentation.signature == OrbifoldSignature("orientable", genus, 0, orders)
    for mat in rep.matrices[: 2 * genus]:
        assert np.trace(mat) > 3.0
    for mat, order in zip(rep.matrices[2 * genus :], orders, strict=True):
        assert abs(np.trace(mat) - 1.0 - 2.0 * np.cos(2.0 * np.pi / order)) < 1e-12
    assert max(lorentz_residual(m) for m in rep.matrices) < 1e-12
    assert rep.relator_residual < RESIDUAL_BOUND
    assert burnside_irreducible(rep).algebra_dim == 9


def test_genus_two_is_the_regular_octagon(monkeypatch):
    """Genus two is the regular octagon with angles pi/4, cosh r = 1 + sqrt 2.
    Turned so that side 0 touches the incircle at polar angle -pi/2, its
    pairings are H_{k+2} R for R the quarter turn about the origin and
    H_m the half turn about side m's tangent point: (a1, b1, a2, b2) =
    (h_6^-1, h_7, h_2^-1, h_3)."""
    import charvar.reps as reps

    r = np.arccosh(1.0 + np.sqrt(2.0))
    quarter = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])

    def h(k):
        return rotation_about(hyperboloid_point((k + 2) * np.pi / 4, r), np.pi) @ quarter

    solved_r, phis = _incircle((np.pi / 4,) * 8)
    assert solved_r == pytest.approx(r, rel=1e-15)
    monkeypatch.setattr(reps, "_incircle", lambda angles: (solved_r, phis - phis[0] - np.pi / 2))
    octagon = (np.linalg.inv(h(6)), h(7), np.linalg.inv(h(2)), h(3))
    for old, new in zip(octagon, _surface_group(parse_signature("O(g=2)")).matrices, strict=True):
        assert np.abs(old - new).max() < 1e-13


def test_build_representation_rejects_non_hyperbolic():
    for text in ("S2(2,2)", "S2(3,3)", "N(k=1;b=1)"):
        with pytest.raises(BuildError):
            build_representation(parse_signature(text))


@pytest.mark.parametrize("text", ["N(k=1;cone=[2,3])", "N(k=1;cone=[3,3,3,3])", "N(k=2;cone=[3])", "N(k=3)", "N(k=5)"])
def test_crosscap_glide_contract(text):
    """The side pairings of the polygon m_1 m_1 ... m_k m_k x_1 x_1^-1 ...:
    each m_i a glide reflection (determinant -1 and trace 2 cosh l - 1 >
    1, no reflection), each x_j a rotation by exactly 2 pi/n_j, all in
    O(2,1), and the relators hold within the bound."""
    sig = parse_signature(text)
    rep = build_representation(sig)
    assert rep.group_tag == "SLpm"
    assert rep.lineage == (f"surface(k={sig.genus},cones={sig.cone_orders})",)
    for mat in rep.matrices[: sig.genus]:
        assert abs(np.linalg.det(mat) + 1.0) < 1e-12
        assert np.trace(mat) > 1.0 + 1e-3
    for mat, order in zip(rep.matrices[sig.genus :], sig.cone_orders, strict=True):
        assert abs(np.linalg.det(mat) - 1.0) < 1e-12
        assert abs(np.trace(mat) - 1.0 - 2.0 * np.cos(2.0 * np.pi / order)) < 1e-12
    assert max(lorentz_residual(m) for m in rep.matrices) < 1e-12
    assert rep.relator_residual < RESIDUAL_BOUND


def test_half_mirrored_disc_contract():
    rep = build_representation(parse_signature("HD(3)"))
    assert rep.group_tag == "SLpm"
    assert rep.relator_residual < 1e-10
    dets = [round(float(np.linalg.det(m))) for m in rep.matrices]
    assert dets == [1, -1]
    assert rep.presentation.signature == parse_signature("HD(3)")
    with pytest.raises(BuildError, match="not hyperbolic"):
        build_representation(parse_signature("HD(2)"))


def test_torsion_check_names_the_true_order():
    """A rotation by 2 pi/3 declared to have order 6: its sixth power is
    the identity, but its cube already is, and the refusal says so."""
    pres = GroupPresentation(("x",), ((1,) * 6,), (1,), {1: 6})
    third = rot_origin(2.0 * np.pi / 3.0)
    with pytest.raises(RepError, match="order dividing 3 < 6"):
        Representation(pres, (third,))
    assert Representation(pres, (rot_origin(np.pi / 3.0),)).relator_residual < 1e-12


def test_torsion_check_bounds_the_walked_power():
    """A rotation moved 1e-6 off order 5 is refused by the relator x^5,
    which every presentation with a torsion marker carries, and the exact
    rotation builds; the spheres whose squared powers overshot 1e-8 (1.6e-8
    on S2(2,3,100), 6.0e-8 on S2(7^9)) build, their walked relators well
    inside it."""
    pres = GroupPresentation(("x",), ((1,) * 5,), (1,), {1: 5})
    with pytest.raises(RepError, match="relator residual"):
        Representation(pres, (rot_origin(2.0 * np.pi / 5.0 + 1e-6),))
    assert Representation(pres, (rot_origin(2.0 * np.pi / 5.0),)).n == 3
    for text in ("S2(2,3,100)", "S2(7,7,7,7,7,7,7,7,7)"):
        assert build_representation(parse_signature(text)).relator_residual < RESIDUAL_BOUND


def test_torsion_marker_needs_its_relator():
    """A torsion marker g:k without the relator g^k is refused, so no
    order goes unchecked by the relator residual."""
    with pytest.raises(PresentationError, match="torsion marker 1:5 has no relator"):
        GroupPresentation(("x",), (), (1,), {1: 5})
    with pytest.raises(PresentationError, match="torsion marker 1:5"):
        GroupPresentation(("x",), ((1,) * 4,), (1,), {1: 5})


def test_mirrored_disc_contract(mirrored):
    rep = mirrored.rep
    alpha = rep.presentation.orientation_character
    for mat, s in zip(rep.matrices, alpha):
        assert abs(np.linalg.det(mat) - s) < 1e-9
    # the cone-point product commutes with the mirror by construction
    assert rep.relator_residual < 1e-13


def test_embed_standard(triangle334):
    emb = embed(triangle334, "standard")
    assert emb.group_tag == "SL"
    for big, small in zip(emb.matrices, triangle334.matrices):
        assert big.shape == (4, 4)
        np.testing.assert_allclose(big[:3, :3], small, atol=1e-14)
        assert big[3, 3] == 1.0
        assert np.abs(big[3, :3]).max() == 0.0 and np.abs(big[:3, 3]).max() == 0.0
    report = burnside_irreducible(emb)
    assert not report.irreducible_over_C
    assert report.commutant_dim == 2


def test_embed_orientable_carries_determinant_sign(mirrored):
    emb = embed(mirrored.rep, "orientable")
    assert emb.group_tag == "SL"
    alpha = mirrored.rep.presentation.orientation_character
    for big, s in zip(emb.matrices, alpha):
        assert big[3, 3] == float(s)
        assert abs(np.linalg.det(big) - 1.0) < 1e-9


def test_embed_type_preserving_keeps_corner_one(mirrored):
    emb = embed(mirrored.rep, "type_preserving")
    assert emb.group_tag == "SLpm"
    alpha = mirrored.rep.presentation.orientation_character
    for big, s in zip(emb.matrices, alpha):
        assert big[3, 3] == 1.0
        assert abs(np.linalg.det(big) - s) < 1e-9


@pytest.mark.parametrize(
    "kind, group_tag",
    [
        ("standard", "SLpm"),
        ("orientable", "SL"),
        ("type_preserving", "SL"),
        # the classifier's retired spelling is not a kind
        ("orientable_embed", "SL"),
        ("orientable_embed", "SLpm"),
    ],
)
def test_embed_orientable_requires_a_sign_to_carry(kind, group_tag, triangle334, mirrored):
    """Every embedding kind takes one group tag; any other pairing, or a
    kind outside EMBEDDINGS, is rejected."""
    rep = triangle334 if group_tag == "SL" else mirrored.rep
    assert rep.group_tag == group_tag
    with pytest.raises(RepError):
        embed(rep, kind)


@pytest.mark.parametrize("kind, rep", [("standard", "triangle"), ("orientable", "mirrored"), ("type_preserving", "mirrored")])
def test_embed_fields_pass_the_validating_constructor(kind, rep, triangle334, mirrored):
    """embed skips the constructor's checks; the validating constructor
    accepts its fields and rebuilds them unchanged."""
    emb = embed(triangle334 if rep == "triangle" else mirrored.rep, kind)
    checked = Representation(emb.presentation, emb.matrices, emb.group_tag, emb.lineage)
    for name in inspect.signature(Representation).parameters:
        a, b = getattr(emb, name), getattr(checked, name)
        if name == "matrices":
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        else:
            assert a == b
    assert emb.relator_residual == checked.relator_residual


def test_incircle_solve_is_memoized_read_only():
    """The polygon's inradius and tangent angles depend on its vertex
    angles only: one solve per angles tuple, shared by every build, so
    nothing may write into them."""
    angles = tuple(np.pi / n for n in (2, 3, 3, 2))
    r, phis = _incircle(angles)
    assert _incircle(angles)[1] is phis
    assert not phis.flags.writeable
    with pytest.raises(ValueError):
        phis[0] = 0.0
    again = _incircle.__wrapped__(angles)
    assert again[0] == r and np.array_equal(again[1], phis)


# one signature per builder: polygon, surface group (with and without a
# cone point), mirrored disc, half-mirrored disc, and the boundary builder
# on an orientable and a non-orientable group
SEED_FREE = (
    "S2(3,3,4)", "O(g=1;cone=[3])", "O(g=2)", "D(3,3;mirror)", "HD(3)", "D2(3,3)", "N(k=2;b=1;cone=[3])",
)


@pytest.mark.parametrize("text", SEED_FREE)
def test_seed_free_builds_are_shared_read_only(text):
    """No builder reads a seed, so every group is built once per
    signature, on its one presentation, and shared: nothing may write
    into its matrices or their inverses."""
    sig = parse_signature(text)
    rep = build_representation(sig)
    assert build_representation(parse_signature(text)) is rep
    assert rep.presentation is presentation_of(sig)
    for m in rep.matrices + tuple(rep.gen(-g) for g in range(1, rep.num_generators + 1)):
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


def test_boundary_builds_draw_from_the_fixed_stream():
    """The shared boundary group is the placement of the fixed stream
    BOUNDARY_STREAM, the one seed 0 once fed; another stream moves the
    placement but not the presentation."""
    import charvar.reps as reps

    sig = parse_signature("D2(3,3)")
    shared = build_representation(sig)
    at0, at1 = (_boundary_rep(sig, random.Random(stream)) for stream in (reps.BOUNDARY_STREAM, 1))
    assert reps.BOUNDARY_STREAM == 0
    assert all(np.array_equal(x, y) for x, y in zip(shared.matrices, at0.matrices, strict=True))
    assert not all(np.array_equal(x, y) for x, y in zip(at0.matrices, at1.matrices))
    assert at1.presentation is shared.presentation


@pytest.mark.parametrize("text", ["D2(3,3)", "O(g=2;b=2;cone=[3,5])", "N(k=2;b=1;cone=[3])"])
def test_boundary_builder_runs_no_burnside(monkeypatch, text):
    """The boundary builder places once and certifies no span and no
    commutant (analyze's gates do); the placement it returns spans all 9
    dimensions."""
    import charvar.reps as reps

    def refused(*args, **kwargs):
        raise AssertionError("the boundary builder ran Burnside's criterion")

    monkeypatch.setattr(reps, "commutant_dim", refused)
    monkeypatch.setattr(reps, "_span_dim", refused)
    rep = build_representation(parse_signature(text))
    monkeypatch.undo()
    assert burnside_irreducible(rep).algebra_dim == 9


def test_examples_construct_each_seed_free_group_once(monkeypatch, capsys):
    """examples --json analyzes D(3,3;mirror) and HD(3) under both
    embeddings, and constructs each of its four groups once."""
    from collections import Counter

    import charvar.reps as reps
    from charvar.cli import main

    built = Counter()
    real = Representation.__init__

    def counted(self, presentation, *args, **kwargs):
        built[presentation.signature.to_text()] += 1
        real(self, presentation, *args, **kwargs)

    reps._build.cache_clear()
    monkeypatch.setattr(Representation, "__init__", counted)
    assert main(["examples", "--json"]) == 0
    capsys.readouterr()
    assert built == {"S2(3,3,3,3)": 1, "D(3,3;mirror)": 1, "O(g=0;b=1;cone=[3,3])": 1, "HD(3)": 1}


def test_lorentz_residual_small_for_builtin_reps(triangle334, quad):
    assert max(lorentz_residual(m) for m in triangle334.matrices) < 1e-6
    assert max(lorentz_residual(m) for m in quad.rep.matrices) < 1e-6


def test_json_loads_legacy_scalar_mode_key(triangle334):
    """Files written before scalar_mode was dropped still load."""
    data = representation_to_json(triangle334)
    assert "scalar_mode" not in data
    data["scalar_mode"] = "matrix"
    back = representation_from_json(data)
    for x, y in zip(back.matrices, triangle334.matrices):
        assert np.array_equal(x, y)


def test_json_round_trip(triangle334, tmp_path):
    import json

    data = representation_to_json(triangle334)
    back = representation_from_json(data)
    for x, y in zip(back.matrices, triangle334.matrices):
        assert np.array_equal(x, y)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    loaded = load_representation(path)
    assert loaded.group_tag == triangle334.group_tag
    for x, y in zip(loaded.matrices, triangle334.matrices):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("n", [3.9, 3.0, "3", True])
def test_json_rank_must_be_an_integer(triangle334, n):
    """A float rank is not truncated, a string not parsed, and a boolean
    is not an integer: each is a malformed entry."""
    data = representation_to_json(triangle334)
    data["n"] = n
    with pytest.raises(RepError, match="malformed entry"):
        representation_from_json(data)
    data["n"] = 3
    assert representation_from_json(data).n == 3


def test_construction_rejects_broken_relators(triangle334):
    data = representation_to_json(triangle334)
    data["matrices"][0][0] = f"{float(data['matrices'][0][0]) + 0.5:.17g}"
    with pytest.raises(RepError):
        representation_from_json(data)


def test_json_names_the_group_by_signature(triangle334):
    """A presentation without a signature cannot be written; a file
    without one loads only when the caller names the group."""
    pres = GroupPresentation(("x",), ((1, 1, 1),), (1,), {1: 3})
    with pytest.raises(RepError, match="signature"):
        representation_to_json(Representation(pres, (rot_origin(2.0 * np.pi / 3.0),)))
    data = representation_to_json(triangle334)
    assert data["signature"] == "S2(3,3,4)"
    del data["signature"]
    with pytest.raises(RepError, match="lacks 'signature'"):
        representation_from_json(data)
    assert representation_from_json(data, parse_signature("S2(3,3,4)")).presentation.signature == parse_signature("S2(3,3,4)")


def test_burnside_on_raw_matrices():
    theta = np.sqrt(2.0)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    report = burnside_irreducible([rot])
    assert not report.irreducible_over_C
    assert report.algebra_dim == 2
    assert report.commutant_dim == 2


def test_burnside_keeps_complex_input_complex():
    """The quaternion units i and j generate the 4-dimensional algebra
    M_2(C); a cast to real would drop i's imaginary part."""
    units = [np.diag([1j, -1j]), np.array([[0.0, 1.0], [-1.0, 0.0]])]
    report = burnside_irreducible(units)
    assert report.irreducible_over_C
    assert report.algebra_dim == 4
    assert report.commutant_dim == 1


def kron_commutant_system(mats):
    """The Sylvester system of commutant_dim, one np.kron pair per matrix."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    eye = np.eye(mats[0].shape[0])
    return np.vstack([np.kron(eye, m) - np.kron(m.T, eye) for m in mats])


def conjugated(mats, complex_):
    rng = np.random.default_rng(8)
    p = rng.standard_normal((len(mats[0]),) * 2)
    if complex_:
        p = p + 1j * rng.standard_normal(p.shape)
    return [p @ m @ np.linalg.inv(p) for m in mats]


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("reducible", [False, True], ids=["irreducible", "reducible"])
def test_sylvester_systems_match_the_kron_construction(monkeypatch, triangle334, reducible, complex_):
    """The broadcast system is bit-identical to the np.kron one, so its
    rank, and with it the commutant dimension n^2 - rank, is too; that
    dimension is the column count of the system's kernel basis."""
    import charvar.reps as reps

    rep = embed(triangle334, "standard") if reducible else triangle334
    mats = conjugated(rep.matrices, complex_)
    seen = []

    def recorded(a, policy):
        seen.append(np.array(a))
        return rank(a, policy)

    monkeypatch.setattr(reps, "rank", recorded)
    dim = commutant_dim(mats)
    assert np.array_equal(seen[-1], kron_commutant_system(mats))
    assert dim == kernel_basis(kron_commutant_system(mats), RankPolicy()).shape[1]
    assert dim == (2 if reducible else 1)


def growth_steps(mats, policy):
    """Growth steps of burnside_irreducible, from the dimensions of the
    spans of all positive words of length at most L: none if the
    generators already span all n^2, else the first step k with
    dim(k) == n^2 or dim(k) == dim(k - 1), or the cap 2 n^2 - 1."""
    n = mats[0].shape[0]
    words = [np.eye(n, dtype=complex)] + [np.asarray(m, dtype=complex) for m in mats]
    dims = [rank(np.array([w.ravel() for w in words]), policy)]
    if dims[0] == n * n:
        return 0
    frontier = words[1:]
    for k in range(1, 2 * n * n):
        frontier = [a @ m for a in frontier for m in mats]
        words += frontier
        dims.append(rank(np.array([w.ravel() for w in words]), policy))
        if dims[-1] in (n * n, dims[-2]):
            return k
    return 2 * n * n - 1


@pytest.mark.parametrize("case", ["irreducible", "reducible", "identity"])
def test_burnside_takes_one_svd_per_growth_step(monkeypatch, triangle334, case):
    """One SVD for the initial span, one per growth step (it gives both the
    rank and the compressed span) and one for the commutant.  An
    irreducible span stops growing at n^2, with no step to confirm it."""
    mats = {
        "irreducible": triangle334.matrices,
        "reducible": embed(triangle334, "standard").matrices,
        "identity": (np.eye(3),),
    }[case]
    steps = growth_steps(mats, RankPolicy())
    assert steps == {"irreducible": 1, "reducible": 2, "identity": 1}[case]
    calls = {"svd": 0}
    real = np.linalg.svd

    def counted(*args, **kwargs):
        calls["svd"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = burnside_irreducible(mats)
    assert calls["svd"] == 1 + steps + 1
    assert report.irreducible_over_C is (case == "irreducible")
