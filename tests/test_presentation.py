"""Signature parsing, the presentations built from signatures, and the
index-two orientation cover."""

from __future__ import annotations

from fractions import Fraction

import pytest

from charvar.presentation import (
    MAX_CONE_ORDER,
    CellStabilizer,
    GroupPresentation,
    OrbifoldSignature,
    PresentationError,
    SignatureError,
    euler_characteristic,
    inverse_word,
    orientation_cover_generators,
    parse_signature,
    presentation_of,
    scaled_euler,
    underlying_euler,
    word_power,
)


def orbifold_euler_by_hand(genus, crosscaps, boundary, orders):
    """chi of the underlying surface minus the cone-point deficiencies."""
    if crosscaps:
        base = 2 - crosscaps - boundary
    else:
        base = 2 - 2 * genus - boundary
    return Fraction(base) - sum(1 - Fraction(1, n) for n in orders)


def test_signature_round_trip():
    for text in (
        "S2(3,3,3,3)",
        "O(g=2;b=0;cone=[])",
        "O(g=1;b=1;cone=[5])",
        "N(k=2;b=1;cone=[3])",
        "D(3,3;mirror)",
        "HD(3)",
    ):
        sig = parse_signature(text)
        assert parse_signature(sig.to_text()) == sig


def test_signature_canonical_spellings():
    assert parse_signature("S2(3,3,3,3)").to_text() == "S2(3,3,3,3)"
    assert parse_signature("D2(3,3)").to_text() == "O(g=0;b=1;cone=[3,3])"
    assert parse_signature("O(g=2)").to_text() == "O(g=2;b=0;cone=[])"
    assert parse_signature("HD(3)").to_text() == "HD(3)"


def test_half_mirrored_disc_is_a_mirrored_signature():
    """HD(n) is a mirrored disc that keeps one free arc: one cone point,
    neither closed nor orientable, and chi = 1/n - 1/2, so HD(2) is not
    hyperbolic."""
    sig = parse_signature("HD(5)")
    assert sig == OrbifoldSignature("mirrored", 0, 1, (5,))
    assert not sig.closed and not sig.orientable
    assert euler_characteristic(sig) == Fraction(1, 5) - Fraction(1, 2)
    assert euler_characteristic(parse_signature("HD(2)")) == 0


def test_signature_rejects_bad_input():
    for text in ("S2(1,2)", "X(3)", "N(k=0;b=1)", "O(g=-1)", "D(3;mirror;mirror)", "HD(3,4)", "HD()"):
        with pytest.raises(SignatureError):
            parse_signature(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("O(g=1;g=2)", "g= given twice"),
        ("O(cone=[3];cone=[5];g=1)", "cone= given twice"),
        ("O(g=2;k=3)", "k= does not belong"),
        ("N(k=3;g=5;b=1)", "g= does not belong"),
        ("S2(99999999999999999999,3,7)", f"cone orders must be <= {MAX_CONE_ORDER}"),
        (f"S2(2,3,{MAX_CONE_ORDER + 1})", f"cone orders must be <= {MAX_CONE_ORDER}"),
    ],
)
def test_signature_refuses_what_it_would_read_another_way(text, message):
    """A repeated key, a key of the other kind, or a cone order past the
    cap is refused by name, never read as some other group; no word of
    the order is built."""
    with pytest.raises(SignatureError, match=message):
        parse_signature(text)


def test_the_cone_order_cap_is_inclusive():
    assert parse_signature(f"S2(2,3,{MAX_CONE_ORDER})").cone_orders == (2, 3, MAX_CONE_ORDER)


@pytest.mark.parametrize(
    "text, genus, crosscaps, boundary, orders",
    [
        ("S2(3,3,3,3)", 0, 0, 0, (3, 3, 3, 3)),
        ("S2(2,3,7)", 0, 0, 0, (2, 3, 7)),
        ("O(g=2)", 2, 0, 0, ()),
        ("D2(3,3)", 0, 0, 1, (3, 3)),
        ("N(k=1;b=1;cone=[3])", 0, 1, 1, (3,)),
    ],
)
def test_euler_characteristic_values(text, genus, crosscaps, boundary, orders):
    sig = parse_signature(text)
    assert euler_characteristic(sig) == orbifold_euler_by_hand(genus, crosscaps, boundary, orders)


@pytest.mark.parametrize(
    "text",
    [
        "S2(3,3,4)",
        "S2(2,3,7)",
        "O(g=2)",
        "O(g=1;b=2;cone=[3,5])",
        "N(k=3)",
        "N(k=2;b=1;cone=[3])",
        "D(3,3;mirror)",
        "D(2,3,3;mirror)",
        "D2(3,3)",
    ]
    + [f"HD({n})" for n in range(3, 9)],
)
def test_euler_characteristic_is_the_weighted_cell_count(text):
    """chi is the sum over cells of (-1)^dim / |stabilizer|, so the
    signature's formula and the presentation's cells agree on every kind."""
    sig = parse_signature(text)
    cells = presentation_of(sig).cells
    assert euler_characteristic(sig) == sum(Fraction((-1) ** c.dim, c.stabilizer.order) for c in cells)


@pytest.mark.parametrize(
    "text", ["S2(2,3,5)", "S2(2,3,6)", "S2(2,3,7)", "S2(2,2,2,2)", "S2(7,11,13)", "O(g=1)", "O(g=2)",
             "N(k=2)", "N(k=1;b=1;cone=[3])", "D(2,3,6;mirror)", "D(2,3,7;mirror)", "HD(2)", "HD(3)", "D2(2,2)"],
)
def test_scaled_euler_is_chi_in_integers(text):
    """(2 L chi, 2 L) for L the lcm of the cone orders: its numerator has
    chi's sign, on both sides of zero and at zero."""
    sig = parse_signature(text)
    numerator, denominator = scaled_euler(sig)
    assert denominator > 0 and Fraction(numerator, denominator) == euler_characteristic(sig)


def test_a_parsed_signature_is_shared():
    """parse_signature is memoized: one text gives one object, and bad
    text raises on every call."""
    assert parse_signature("S2(3,3,4)") is parse_signature("S2(3,3,4)")
    for _ in range(3):
        with pytest.raises(SignatureError, match="cannot parse signature 'X\\(3\\)'"):
            parse_signature("X(3)")


def test_underlying_euler_values():
    assert underlying_euler(parse_signature("S2(3,3,3,3)")) == 2
    assert underlying_euler(parse_signature("O(g=2)")) == -2
    assert underlying_euler(parse_signature("D2(3,3)")) == 1
    assert underlying_euler(parse_signature("N(k=1;b=1;cone=[3])")) == 0


def test_triangle_presentation_structure():
    pres = presentation_of(parse_signature("S2(3,3,4)"))
    assert pres.generator_names == ("x1", "x2", "x3")
    assert pres.relators == ((1, 1, 1), (2, 2, 2), (3, 3, 3, 3), (1, 2, 3))
    assert pres.torsion_orders == {1: 3, 2: 3, 3: 4}
    assert pres.closed and pres.orientable
    assert pres.long_relator == (1, 2, 3)
    assert pres.full_boundary_count == 0


def test_genus_two_presentation_structure():
    pres = presentation_of(parse_signature("O(g=2)"))
    assert pres.num_generators == 4
    assert pres.relators == ((1, 2, -1, -2, 3, 4, -3, -4),)
    assert pres.torsion_orders == {}
    assert pres.closed and pres.orientable


def test_boundary_presentation_structure():
    pres = presentation_of(parse_signature("D2(3,3)"))
    assert not pres.closed
    assert pres.orientable
    assert pres.peripheral_words == ((3,),)
    assert pres.full_boundary_count == 0


def test_mirrored_presentation_structure():
    pres = presentation_of(parse_signature("D(3,3;mirror)"))
    assert not pres.orientable
    assert pres.closed
    assert pres.orientation_character == (1, 1, -1)
    assert (3, 3) in pres.relators


def test_half_mirrored_presentation_structure():
    pres = presentation_of(parse_signature("HD(3)"))
    assert pres.generator_names == ("x", "s")
    assert pres.orientation_character == (1, -1)
    assert not pres.closed
    assert pres.full_boundary_count == 1
    kinds = {c.stabilizer.kind for c in pres.cells}
    assert "reflection" in kinds


def test_stabilizer_kinds_exclude_corner_reflectors():
    assert CellStabilizer("reflection", 2, (2,)).reverses_orientation
    assert not CellStabilizer("cyclic", 3, (1,)).reverses_orientation
    with pytest.raises(PresentationError):
        CellStabilizer("dihedral", 3, (1,))


def test_cells_cover_all_dimensions():
    for text in ("S2(3,3,4)", "O(g=2)", "D2(3,3)", "D(3,3;mirror)", "HD(3)"):
        pres = presentation_of(parse_signature(text))
        dims = {c.dim for c in pres.cells}
        assert dims <= {0, 1, 2} and 0 in dims and 2 in dims
        assert all(c.stabilizer.order >= 1 for c in pres.cells)


def test_orientation_cover_words_are_even():
    for pres in (
        presentation_of(parse_signature("D(3,3;mirror)")),
        presentation_of(parse_signature("HD(3)")),
    ):
        alpha = pres.orientation_character
        words = orientation_cover_generators(pres)
        assert len(words) == 2 * pres.num_generators - 1
        for w in words:
            assert w
            sign = 1
            for x in w:
                sign *= alpha[abs(x) - 1]
            assert sign == 1


def test_orientation_cover_rejects_orientable():
    with pytest.raises(PresentationError):
        orientation_cover_generators(presentation_of(parse_signature("S2(3,3,4)")))


def test_word_helpers():
    assert inverse_word((1, -2, 3)) == (-3, 2, -1)
    assert inverse_word(()) == ()
    assert word_power((1, 2), 3) == (1, 2, 1, 2, 1, 2)
    assert word_power((1,), 0) == ()


def test_presentation_validates_letters():
    GroupPresentation(("a", "b"), ((1, -2),), (1, 1))
    with pytest.raises(PresentationError):
        GroupPresentation(("a", "b"), ((0,),), (1, 1))
    with pytest.raises(PresentationError):
        GroupPresentation(("a", "b"), ((3,),), (1, 1))


def test_list_fields_are_stored_as_tuples():
    """A signature or presentation built from lists is the tuple-built one:
    equal, hashed alike, and good for the shared builds keyed on it."""
    from charvar.reps import build_representation

    sig = OrbifoldSignature("orientable", 0, 0, [3, 3, 4])
    assert sig == parse_signature("S2(3,3,4)") and hash(sig) == hash(parse_signature("S2(3,3,4)"))
    assert sig.cone_orders == (3, 3, 4)
    assert presentation_of(sig) is presentation_of(parse_signature("S2(3,3,4)"))
    assert build_representation(sig).presentation.signature == sig
    pres = GroupPresentation(["x", "y"], [[1, 1, 1], (1, 2, -1, -2)], [1, 1], {1: 3}, [[2]], cells=[])
    assert pres == GroupPresentation(("x", "y"), ((1, 1, 1), (1, 2, -1, -2)), (1, 1), {1: 3}, ((2,),))
    assert pres.relators[0] == (1, 1, 1) and pres.peripheral_words == ((2,),) and pres.cells == ()
    with pytest.raises(SignatureError):
        OrbifoldSignature("orientable", 0, 0, [3, 1])
    with pytest.raises(PresentationError):
        GroupPresentation(["x", "y"], [[1, 3]], [1, 1])
    with pytest.raises(PresentationError):
        GroupPresentation(["x", "y"], [[1, 1]], [1, 1], {1: 3})


def test_presentation_carries_flags():
    pres = GroupPresentation(("a", "b"), ((1, 2, -1, -2),), (1, 1), long_relator_index=0)
    assert pres.orientable
    assert pres.long_relator == (1, 2, -1, -2)


@pytest.mark.parametrize(
    "text",
    ["S2(3,3,4)", "O(g=2)", "D2(3,3)", "D(3,3;mirror)", "HD(3)", "N(k=2;b=1;cone=[3])", "O(g=0;b=3)"],
)
def test_presentation_facts_are_read_once(text):
    """orientable, full_boundary_count and closed are cached on the immutable
    presentation and equal the walks of its character and cells."""
    pres = presentation_of(parse_signature(text))
    reverses = [c.dim for c in pres.cells if c.stabilizer.reverses_orientation]
    walked = {
        "orientable": all(e == 1 for e in pres.orientation_character),
        "full_boundary_count": reverses.count(0) - reverses.count(1),
    }
    walked["closed"] = not pres.peripheral_words and walked["full_boundary_count"] == 0
    assert {name: getattr(pres, name) for name in walked} == walked
    assert {name: pres.__dict__[name] for name in walked} == walked
