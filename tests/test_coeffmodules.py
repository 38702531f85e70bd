"""Block decomposition of the ambient traceless algebra and the module
actions built on it."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charvar.coeffmodules import (
    CoeffModuleError,
    CoefficientModule,
    contragredient,
    decompose_sl,
    sl_basis,
    sl_coords,
    sl_matrix,
    trivial_module,
    twist_by_character,
)
from charvar.cohomology import BLOCKS
from charvar.presentation import parse_signature
from charvar.reps import build_representation, embed, half_mirrored_disc
from conftest import EVERY_INPUT, NONORIENTABLE_INPUTS

short_words = st.lists(
    st.integers(-3, 3).filter(lambda x: x != 0), min_size=0, max_size=6
).map(tuple)


@pytest.fixture(scope="module")
def sd(triangle334):
    return decompose_sl(triangle334, "standard")


def test_block_dimensions(sd):
    assert sd.n == 3
    assert (sd.m_c.dim, sd.m_r.dim, sd.d.dim, sd.g0.dim) == (3, 3, 1, 8)
    assert sd.full_g.dim == 15
    assert sd.ambient_dim == 15
    assert sd.killing_multiplier == 8.0


def test_inclusions_and_projections_are_sections(sd):
    """Inc_b puts g0 in the top-left corner, m_c in the last column, m_r
    in the last row and d along D = diag(1, 1, 1, -3), where pi_d reads it
    back; together the four blocks are a basis of the ambient algebra."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(3)
    a = rng.standard_normal((3, 3))
    a -= np.trace(a) / 3 * np.eye(3)
    expect = {"g0": np.zeros((4, 4)), "m_c": np.zeros((4, 4)), "m_r": np.zeros((4, 4))}
    expect["g0"][:3, :3] = a
    expect["m_c"][:3, 3] = v
    expect["m_r"][3, :3] = v
    coords = {"g0": sl_coords(a), "m_c": v, "m_r": v}
    for label, x in expect.items():
        np.testing.assert_allclose(sd.to_matrix(sd.inclusions[label] @ coords[label]), x, atol=1e-14)
        assert sd.pi_d(x) == 0.0
    lifted_d = sd.to_matrix(sd.inclusions["d"] @ [0.7])
    np.testing.assert_allclose(lifted_d, 0.7 * np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-14)
    assert sd.pi_d(lifted_d) == pytest.approx(0.7)
    stacked = np.hstack([sd.inclusions[label] for label in BLOCKS])
    assert stacked.shape == (15, 15)
    assert np.linalg.matrix_rank(stacked) == 15


def test_coordinate_round_trip(sd):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 4))
    x -= np.trace(x) / 4 * np.eye(4)
    np.testing.assert_allclose(sd.to_matrix(sl_coords(x)), x, atol=1e-13)
    v = rng.standard_normal(15)
    np.testing.assert_allclose(sl_coords(sd.to_matrix(v)), v, atol=1e-13)


def test_sl_coords_forces_trace_zero(sd):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 3))
    y = sl_matrix(sl_coords(x), 3)
    assert np.trace(y) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(y - np.diag(np.diagonal(y)), x - np.diag(np.diagonal(x)), atol=1e-13)
    with pytest.raises(CoeffModuleError):
        sl_matrix(np.zeros(5), 3)


def test_killing_form_is_scaled_trace_form(sd):
    """tr(ad X ad Y) = killing_multiplier tr(XY) on the ambient algebra,
    the scale the cross form carries."""
    rng = np.random.default_rng(2)

    def ad(x):
        return np.column_stack([sl_coords(x @ b - b @ x) for b in sl_basis(4)])

    for _ in range(5):
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4))
        x -= np.trace(x) / 4 * np.eye(4)
        y -= np.trace(y) / 4 * np.eye(4)
        killing = np.trace(ad(x) @ ad(y))
        assert killing == pytest.approx(sd.killing_multiplier * np.trace(x @ y), rel=1e-10)


@given(short_words, short_words)
def test_module_action_is_a_homomorphism(sd, u, v):
    m = sd.m_c
    np.testing.assert_allclose(
        m.evaluate_word(u + v),
        m.evaluate_word(u) @ m.evaluate_word(v),
        atol=1e-9,
    )


def test_cross_pairing_is_invariant(sd):
    """The row/column cross form survives the simultaneous module action;
    this is what makes the cup pairing well defined on classes."""
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3)
    y = rng.standard_normal(3)
    base = y @ sd.cross_form @ x
    for w in ((1,), (2, 3), (1, -2, 3), (-3, -3)):
        xa = sd.m_c.evaluate_word(w) @ x
        ya = sd.m_r.evaluate_word(w) @ y
        assert ya @ sd.cross_form @ xa == pytest.approx(base, rel=1e-10)


def test_column_and_row_actions_match_conjugation(sd, triangle334):
    """m_c transforms like the last column of Ad, m_r like the last row."""
    rng = np.random.default_rng(4)
    v = rng.standard_normal(3)
    for w in ((1,), (3,), (1, 2)):
        g = sd.full_g.evaluate_word(w)
        lifted = sd.to_matrix(g @ sd.inclusions["m_c"] @ v)
        np.testing.assert_allclose(lifted[:3, 3], sd.m_c.evaluate_word(w) @ v, atol=1e-10)
        lifted_r = sd.to_matrix(g @ sd.inclusions["m_r"] @ v)
        np.testing.assert_allclose(lifted_r[3, :3], sd.m_r.evaluate_word(w) @ v, atol=1e-10)


def test_full_g_action_is_adjoint(sd):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    x -= np.trace(x) / 4 * np.eye(4)
    for i, hat in enumerate(sd.hat_matrices):
        acted = sd.to_matrix(sd.full_g.evaluate_word((i + 1,)) @ sl_coords(x))
        np.testing.assert_allclose(acted, hat @ x @ np.linalg.inv(hat), atol=1e-10)


def test_trivial_module():
    m = trivial_module(3)
    assert m.dim == 1
    np.testing.assert_allclose(m.evaluate_word((1, -2, 3, 3)), np.eye(1))


def test_contragredient_inverts_and_transposes(sd):
    m = sd.m_c
    mt = contragredient(m)
    for i in range(3):
        np.testing.assert_allclose(
            mt.action[i], np.linalg.inv(m.action[i]).T, atol=1e-12
        )


def test_twist_by_character(sd):
    m = sd.m_c
    signs = (1, -1, 1)
    tw = twist_by_character(m, signs)
    for i, s in enumerate(signs):
        np.testing.assert_allclose(tw.action[i], s * m.action[i], atol=1e-14)


def test_coefficient_module_validates():
    good = CoefficientModule("custom", (np.eye(2), 2 * np.eye(2)))
    assert good.dim == 2
    with pytest.raises(CoeffModuleError):
        CoefficientModule("no-such-label", (np.eye(2),))
    with pytest.raises(CoeffModuleError):
        CoefficientModule("custom", (np.eye(2), np.eye(3)))
    with pytest.raises(CoeffModuleError):
        CoefficientModule("custom", (np.zeros((2, 2)),))


def test_hat_matrices_match_type_preserving_embedding(mirrored):
    embedded = embed(mirrored.rep, "type_preserving")
    for hat, emb in zip(mirrored.sd.hat_matrices, embedded.matrices):
        assert np.array_equal(hat, emb)


def test_decompose_sl_twist_for_orientable_model(setups):
    """The column module of the orientable-embedding decomposition is
    twisted by the determinant character relative to type-preserving."""
    tp = setups("D(3,3;mirror)", "type_preserving")
    oe = setups("D(3,3;mirror)", "orientable")
    signs = tp.pres.orientation_character
    assert set(signs) == {1, -1}
    for i, s in enumerate(signs):
        np.testing.assert_allclose(
            oe.sd.m_c.action[i], s * tp.sd.m_c.action[i], atol=1e-12
        )


@pytest.fixture(scope="module")
def reps_by_text():
    cache = {}

    def get(text):
        if text not in cache:
            if text.startswith("HD("):
                cache[text] = half_mirrored_disc(int(text[3:-1]))
            else:
                cache[text] = build_representation(parse_signature(text), seed=0)
        return cache[text]

    return get


@pytest.mark.parametrize("text, embedding", EVERY_INPUT)
def test_block_equivariance_holds_on_every_input(reps_by_text, text, embedding):
    sd = decompose_sl(reps_by_text(text), embedding)
    value, bound = sd.block_equivariance()
    assert value <= bound
    assert bound < 1e-9


@pytest.mark.parametrize("text", NONORIENTABLE_INPUTS)
@pytest.mark.parametrize("embedding, other", [("orientable", "type_preserving"), ("type_preserving", "orientable")])
def test_block_equivariance_catches_the_wrong_twist(reps_by_text, text, embedding, other):
    """m_c of the other embedding is not a submodule of this full_g."""
    rep = reps_by_text(text)
    wrong = replace(decompose_sl(rep, embedding), m_c=decompose_sl(rep, other).m_c)
    value, bound = wrong.block_equivariance()
    assert value > 1e3 * bound
