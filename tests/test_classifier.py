"""Cone-model lookup: table rows, display grammar, membership equations."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from charvar.classifier import (
    EMBEDDINGS,
    LINK_KINDS,
    ClassifierError,
    LocalModel,
    classify,
    cone_membership,
    parse_display,
    projective_corollary,
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


@given(
    st.integers(0, 30),
    st.integers(0, 30),
    st.integers(0, 9),
    st.sampled_from(LINK_KINDS),
)
def test_display_round_trip(p, b, d, link):
    if (link == "point") != (d == 0):
        return
    model = LocalModel(p, b, link, d, False, "row")
    assert parse_display(model.display) == (p, b, link, d)


def test_parse_display_rejects_malformed():
    for text in (
        "garbage",
        "R^2 x R^1 x Cone(S^0xS^1)",
        "R^2 x R^0 x Cone(UT(T^2))",
        "R^2 x Cone(UT(S^1))",
    ):
        with pytest.raises(ClassifierError):
            parse_display(text)


def test_projective_corollary_delegates_to_rank_four():
    closed = projective_corollary(t=2, p=8, b=0, closed=True)
    assert closed.link == "unit_tangent_sphere"
    assert closed.display == "R^8 x R^0 x Cone(UT(S^1))"
    bnd = projective_corollary(t=1, p=4, b=0, closed=False)
    assert bnd.link == "spheres_product"
    point = projective_corollary(t=0, p=2, b=0, closed=True)
    assert point.link == "point"


def test_cone_membership_worked_examples():
    # the cone point itself always belongs
    assert cone_membership([0, 0], [0, 0], "closed")
    assert cone_membership([0, 0], [0, 0], "boundary")
    # orthogonal unit pair: on the closed link
    assert cone_membership([1, 0], [0, 1], "closed")
    # equal vectors: norms match but the inner product obstructs closed
    assert cone_membership([1, 0], [1, 0], "boundary")
    assert not cone_membership([1, 0], [1, 0], "closed")
    # norm mismatch fails everywhere
    assert not cone_membership([1, 0], [2, 0], "boundary")


def test_cone_membership_accepts_link_kind_names():
    assert cone_membership([1, 0], [0, 1], "unit_tangent_sphere")
    assert not cone_membership([1, 0], [1, 0], "unit_tangent_projective")
    assert cone_membership([1, 0], [1, 0], "spheres_product_mod")


def test_cone_membership_tolerance_scales():
    assert cone_membership([1e6, 0], [1e6, 1e-5], "boundary")
    assert not cone_membership([1.0, 0], [1.0, 1e-3], "boundary", tol=1e-9)


def test_cone_membership_validation():
    with pytest.raises(ClassifierError):
        cone_membership([1, 0], [1, 0], "no-such-variant")
    with pytest.raises(ClassifierError):
        cone_membership([1, 0], [1, 0, 0], "closed")


def test_embed_choices_frozen():
    assert EMBEDDINGS == ("standard", "orientable", "type_preserving")
