"""Representation builders, embeddings into the next rank, the Burnside
irreducibility verdicts, and serialization."""

from __future__ import annotations

import numpy as np
import pytest

from charvar.presentation import parse_signature
from charvar.reps import (
    BuildError,
    RepError,
    build_representation,
    burnside_irreducible,
    embed,
    half_mirrored_disc,
    load_representation,
    lorentz_residual,
    polygon_group,
    representation_from_json,
    representation_to_json,
    triangle_group,
)


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
    with pytest.raises(BuildError):
        triangle_group(2, 3, 5)


def test_polygon_group_contract():
    rep = polygon_group((2, 3, 3, 3), seed=0)
    assert rep.relator_residual < 1e-8
    for mat, order in zip(rep.matrices, (2, 3, 3, 3)):
        assert matrix_order_holds(mat, order, tol=1e-7)
    assert burnside_irreducible(rep).algebra_dim == 9


def test_polygon_group_is_deterministic():
    a = polygon_group((3, 3, 3, 3), seed=0)
    b = polygon_group((3, 3, 3, 3), seed=0)
    for x, y in zip(a.matrices, b.matrices):
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


def test_build_representation_rejects_non_hyperbolic():
    for text in ("S2(2,2)", "S2(3,3)", "N(k=1;b=1)"):
        with pytest.raises(BuildError):
            build_representation(parse_signature(text))


def test_build_representation_rejects_closed_nonorientable_crosscaps():
    with pytest.raises(BuildError):
        build_representation(parse_signature("N(k=1;cone=[3,3,3,3])"))


def test_half_mirrored_disc_contract():
    rep = half_mirrored_disc(3)
    assert rep.group_tag == "SLpm"
    assert rep.relator_residual < 1e-10
    dets = [round(float(np.linalg.det(m))) for m in rep.matrices]
    assert dets == [1, -1]


def test_mirrored_disc_contract(mirrored):
    rep = mirrored.rep
    alpha = rep.presentation.orientation_character
    for mat, s in zip(rep.matrices, alpha):
        assert abs(np.linalg.det(mat) - s) < 1e-9


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


def test_construction_rejects_broken_relators(triangle334):
    data = representation_to_json(triangle334)
    data["matrices"][0][0] = f"{float(data['matrices'][0][0]) + 0.5:.17g}"
    with pytest.raises(RepError):
        representation_from_json(data)


def test_burnside_on_raw_matrices():
    theta = np.sqrt(2.0)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    report = burnside_irreducible([rot])
    assert not report.irreducible_over_C
    assert report.algebra_dim == 2
    assert report.commutant_dim == 2
