"""Block decomposition of the ambient traceless algebra and the module
actions built on it."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charvar.coeffmodules import (
    CoeffModuleError,
    alpha_signs,
    contragredient,
    decompose_sl,
    module_from_matrices,
    sl_coords,
    sl_matrix,
    trivial_module,
    twist_by_character,
)
from charvar.presentation import parse_signature
from charvar.reps import build_representation, embed, half_mirrored_disc

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
    rng = np.random.default_rng(0)
    v = rng.standard_normal(3)
    np.testing.assert_allclose(sd.pi_c(sd.include_c(v)), v, atol=1e-14)
    np.testing.assert_allclose(sd.pi_r(sd.include_r(v)), v, atol=1e-14)
    assert sd.pi_d(sd.include_d(0.7)) == pytest.approx(0.7)
    a = rng.standard_normal((3, 3))
    a -= np.trace(a) / 3 * np.eye(3)
    np.testing.assert_allclose(sd.pi_g0(sd.include_g0(a)), a, atol=1e-14)
    # blocks are disjoint
    np.testing.assert_allclose(sd.pi_r(sd.include_c(v)), 0, atol=1e-14)
    assert sd.pi_d(sd.include_c(v)) == 0.0


def test_coordinate_round_trip(sd):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((4, 4))
    x -= np.trace(x) / 4 * np.eye(4)
    np.testing.assert_allclose(sd.to_matrix(sd.to_coords(x)), x, atol=1e-13)
    v = rng.standard_normal(15)
    np.testing.assert_allclose(sd.to_coords(sd.to_matrix(v)), v, atol=1e-13)


def test_sl_coords_forces_trace_zero(sd):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((3, 3))
    y = sl_matrix(sl_coords(x), 3)
    assert np.trace(y) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(y - np.diag(np.diagonal(y)), x - np.diag(np.diagonal(x)), atol=1e-13)
    with pytest.raises(CoeffModuleError):
        sl_matrix(np.zeros(5), 3)


def test_killing_form_is_scaled_trace_form(sd):
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = rng.standard_normal((4, 4))
        y = rng.standard_normal((4, 4))
        x -= np.trace(x) / 4 * np.eye(4)
        y -= np.trace(y) / 4 * np.eye(4)
        # Killing form of the traceless algebra in dimension m is 2m tr(XY)
        assert sd.killing(x, y) == pytest.approx(8.0 * np.trace(x @ y), rel=1e-12)


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
    base = sd.cross_pairing(y, x)
    for w in ((1,), (2, 3), (1, -2, 3), (-3, -3)):
        xa = sd.m_c.evaluate_word(w) @ x
        ya = sd.m_r.evaluate_word(w) @ y
        assert sd.cross_pairing(ya, xa) == pytest.approx(base, rel=1e-10)


def test_column_and_row_actions_match_conjugation(sd, triangle334):
    """m_c transforms like the last column of Ad, m_r like the last row."""
    rng = np.random.default_rng(4)
    v = rng.standard_normal(3)
    for w in ((1,), (3,), (1, 2)):
        g = sd.full_g.evaluate_word(w)
        lifted = sd.to_matrix(g @ sd.to_coords(sd.include_c(v)))
        np.testing.assert_allclose(sd.pi_c(lifted), sd.m_c.evaluate_word(w) @ v, atol=1e-10)
        lifted_r = sd.to_matrix(g @ sd.to_coords(sd.include_r(v)))
        np.testing.assert_allclose(sd.pi_r(lifted_r), sd.m_r.evaluate_word(w) @ v, atol=1e-10)


def test_full_g_action_is_adjoint(sd):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 4))
    x -= np.trace(x) / 4 * np.eye(4)
    for i, hat in enumerate(sd.hat_matrices):
        acted = sd.to_matrix(sd.full_g.evaluate_word((i + 1,)) @ sd.to_coords(x))
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


def test_alpha_signs(triangle334, mirrored):
    assert alpha_signs(triangle334) == (1, 1, 1)
    signs = alpha_signs(mirrored.rep)
    assert set(signs) == {1, -1}


def test_module_from_matrices_validates():
    good = module_from_matrices("custom", [np.eye(2), 2 * np.eye(2)])
    assert good.dim == 2
    with pytest.raises(CoeffModuleError):
        module_from_matrices("no-such-label", [np.eye(2)])
    with pytest.raises(CoeffModuleError):
        module_from_matrices("custom", [np.eye(2), np.eye(3)])
    with pytest.raises(CoeffModuleError):
        module_from_matrices("custom", [np.zeros((2, 2))])


def test_hat_matrices_match_type_preserving_embedding(mirrored):
    embedded = embed(mirrored.rep, "type_preserving")
    for hat, emb in zip(mirrored.sd.hat_matrices, embedded.matrices):
        assert np.array_equal(hat, emb)


def test_decompose_sl_twist_for_orientable_model(setups):
    """The column module of the orientable-embedding decomposition is
    twisted by the determinant character relative to type-preserving."""
    tp = setups("D(3,3;mirror)", "type_preserving")
    oe = setups("D(3,3;mirror)", "orientable")
    signs = alpha_signs(tp.rep)
    for i, s in enumerate(signs):
        np.testing.assert_allclose(
            oe.sd.m_c.action[i], s * tp.sd.m_c.action[i], atol=1e-12
        )


# every input of `charvar examples` and of the benchmark workloads
ORIENTABLE_INPUTS = (
    "S2(2,3,7)",
    "S2(3,3,3,3)",
    "S2(3,3,3,3,3)",
    "S2(3,3,3,3,3,3,3)",
    "O(g=2)",
    "O(g=1;cone=[3])",
    "O(g=2;b=2;cone=[3,5])",
    "D2(3,3)",
)
NONORIENTABLE_INPUTS = ("D(3,3;mirror)", "D(3,3,3;mirror)", "N(k=2;b=1;cone=[3])", "HD(3)", "HD(5)")


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


@pytest.mark.parametrize(
    "text, embedding",
    [(t, "standard") for t in ORIENTABLE_INPUTS]
    + [(t, e) for t in NONORIENTABLE_INPUTS for e in ("orientable", "type_preserving")],
)
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


def test_block_inclusions_match_the_include_maps(sd):
    """Inc_b maps block coordinates to the ambient coordinates of include_b."""
    rng = np.random.default_rng(6)
    v = rng.standard_normal(3)
    np.testing.assert_allclose(sd.inclusions["m_c"] @ v, sd.to_coords(sd.include_c(v)), atol=1e-14)
    np.testing.assert_allclose(sd.inclusions["m_r"] @ v, sd.to_coords(sd.include_r(v)), atol=1e-14)
    np.testing.assert_allclose(sd.inclusions["d"] @ [0.7], sd.to_coords(sd.include_d(0.7)), atol=1e-14)
    a = rng.standard_normal(8)
    np.testing.assert_allclose(
        sd.inclusions["g0"] @ a, sd.to_coords(sd.include_g0(sl_matrix(a, 3))), atol=1e-13
    )
