"""Signature parsing, the presentations built from signatures, and the
index-two orientation cover."""

from __future__ import annotations

from fractions import Fraction

import pytest

from charvar.presentation import (
    CellStabilizer,
    PresentationError,
    SignatureError,
    euler_characteristic,
    inverse_word,
    orientation_cover_generators,
    parse_signature,
    presentation_from_raw,
    presentation_of,
    underlying_euler,
    word_power,
)
from charvar.reps import half_mirrored_disc_presentation


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
    ):
        sig = parse_signature(text)
        assert parse_signature(sig.to_text()) == sig


def test_signature_canonical_spellings():
    assert parse_signature("S2(3,3,3,3)").to_text() == "S2(3,3,3,3)"
    assert parse_signature("D2(3,3)").to_text() == "O(g=0;b=1;cone=[3,3])"
    assert parse_signature("O(g=2)").to_text() == "O(g=2;b=0;cone=[])"


def test_signature_rejects_bad_input():
    for text in ("S2(1,2)", "X(3)", "N(k=0;b=1)", "O(g=-1)", "D(3;mirror;mirror)"):
        with pytest.raises(SignatureError):
            parse_signature(text)


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
    pres = half_mirrored_disc_presentation(3)
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
    for text in ("S2(3,3,4)", "O(g=2)", "D2(3,3)", "D(3,3;mirror)"):
        pres = presentation_of(parse_signature(text))
        dims = {c.dim for c in pres.cells}
        assert dims <= {0, 1, 2} and 0 in dims and 2 in dims
        assert all(c.stabilizer.order >= 1 for c in pres.cells)


def test_orientation_cover_words_are_even():
    for pres in (
        presentation_of(parse_signature("D(3,3;mirror)")),
        half_mirrored_disc_presentation(3),
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


def test_presentation_from_raw_validates_letters():
    presentation_from_raw(("a", "b"), [(1, -2)])
    with pytest.raises(PresentationError):
        presentation_from_raw(("a", "b"), [(0,)])
    with pytest.raises(PresentationError):
        presentation_from_raw(("a", "b"), [(3,)])


def test_presentation_from_raw_carries_flags():
    pres = presentation_from_raw(
        ("a", "b"),
        [(1, 2, -1, -2)],
        torsion_orders={},
        long_relator_index=0,
    )
    assert pres.orientable
    assert pres.long_relator == (1, 2, -1, -2)
