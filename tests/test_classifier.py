"""Cone-model lookup: table rows and display text."""

from __future__ import annotations

import pytest

from charvar.classifier import (
    EMBEDDINGS,
    LINK_KINDS,
    ClassifierError,
    LocalModel,
    classify,
)


@pytest.mark.parametrize(
    "topology, orientable, embedding, n_plus_1, link",
    [
        ("closed", True, "standard", 4, "unit_tangent_sphere"),
        ("closed", True, "standard", 5, "unit_tangent_projective"),
        ("boundary", True, "standard", 4, "spheres_product"),
        ("boundary", True, "standard", 5, "spheres_product_mod"),
        ("closed", False, "orientable", 4, "spheres_product"),
        ("closed", False, "orientable", 5, "spheres_product_mod"),
        ("closed", False, "type_preserving", 4, "spheres_product_mod"),
        ("closed", False, "type_preserving", 5, "spheres_product_mod"),
        ("boundary", False, "type_preserving", 4, "spheres_product_mod"),
    ],
)
def test_table_rows(topology, orientable, embedding, n_plus_1, link):
    model = classify(topology, orientable, embedding, n_plus_1, p=3, d=2, b=1)
    assert model.link == link
    assert not model.smooth


def test_zero_d_row_is_a_smooth_point():
    model = classify("closed", True, "standard", 4, p=2, d=0, b=0)
    assert model.link == "point"
    assert model.smooth
    assert model.display == "R^2 x R^0"
    assert model.provenance == "zero-d"


def test_quadrilateral_display_string():
    model = classify("closed", True, "standard", 4, p=8, d=2, b=0)
    assert model.display == "R^8 x R^0 x Cone(UT(S^1))"
    assert model.sentence().startswith("local model R^8 x R^0 x Cone(UT(S^1)), singular")


def test_degenerate_d_rows():
    ut = classify("closed", True, "standard", 4, p=4, d=1, b=0)
    assert ut.smooth
    assert ut.flags == ("degenerate-d, verify by hand",)
    mod = classify("closed", False, "type_preserving", 4, p=4, d=1, b=0)
    assert mod.smooth
    assert mod.flags == ("topologically non-singular",)
    # four cone rays without the identification stay singular
    prod = classify("boundary", True, "standard", 4, p=4, d=1, b=0)
    assert not prod.smooth
    assert prod.flags == ()


def test_classify_validation():
    with pytest.raises(ClassifierError):
        classify("open", True, "standard", 4, 1, 1, 1)
    with pytest.raises(ClassifierError):
        classify("closed", True, "type_preserving", 4, 1, 1, 1)
    with pytest.raises(ClassifierError):
        classify("closed", False, "standard", 4, 1, 1, 1)
    with pytest.raises(ClassifierError):
        classify("closed", True, "standard", 4, -1, 1, 1)
    with pytest.raises(ClassifierError):
        classify("closed", True, "standard", 1, 1, 1, 1)
    with pytest.raises(ClassifierError):
        classify("closed", True, "nonsense", 4, 1, 1, 1)


def test_local_model_field_validation():
    with pytest.raises(ClassifierError):
        LocalModel(1, 1, "point", 2, True, "row")
    with pytest.raises(ClassifierError):
        LocalModel(1, 1, "unit_tangent_sphere", 0, True, "row")
    with pytest.raises(ClassifierError):
        LocalModel(1, 1, "no-such-link", 1, True, "row")


# one display per link kind, so a new kind fails here until its text is pinned
DISPLAYS = {
    "point": (0, "R^3 x R^1"),
    "unit_tangent_sphere": (2, "R^3 x R^1 x Cone(UT(S^1))"),
    "unit_tangent_projective": (3, "R^3 x R^1 x Cone(UT(RP^2))"),
    "spheres_product": (2, "R^3 x R^1 x Cone(S^1xS^1)"),
    "spheres_product_mod": (1, "R^3 x R^1 x Cone((S^0xS^0)/~)"),
}


@pytest.mark.parametrize("link", LINK_KINDS)
def test_display_text(link):
    d, display = DISPLAYS[link]
    assert LocalModel(3, 1, link, d, False, "row").display == display


def test_embed_choices_frozen():
    assert EMBEDDINGS == ("standard", "orientable", "type_preserving")
