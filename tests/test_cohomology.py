"""Low-degree cohomology.

The coboundary gate comes first: the fundamental-class transgression
must kill cup products with a coboundary argument, including through the
torsion corrections the quadrilateral relator exercises.  Every pairing
number downstream is only trustworthy because of this test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charvar.cohomology import (
    BLOCKS,
    BlockComplex,
    Cocycle,
    CohomologyError,
    TwoCocycle,
    coboundary_matrix,
    cocycle_from_stack,
    cohomology_report,
    cup,
    fox_matrix,
    fundamental_pairing_matrix,
    goldman_obstruction,
    pair_fundamental_class,
    twisted_euler,
    weil_slope,
)
from charvar.coeffmodules import CoefficientModule, trivial_module
from charvar.linalg import RankPolicy, kernel_basis
from charvar.presentation import (
    parse_signature,
    presentation_from_raw,
    presentation_of,
    underlying_euler,
)
from charvar.pipeline import include_cocycle

POLICY = RankPolicy()


def coboundary_cocycle(pres, m, v):
    return cocycle_from_stack(m, coboundary_matrix(pres, m) @ np.asarray(v, dtype=float))


def kernel_cocycles(pres, m):
    basis = kernel_basis(fox_matrix(pres, m), POLICY)
    return [cocycle_from_stack(m, basis[:, k]) for k in range(basis.shape[1])]


def test_gate_transgression_kills_coboundaries(quad):
    """Designated correctness gate for the fundamental-class formula."""
    pres, sd = quad.pres, quad.sd
    cross = sd.killing_multiplier * np.eye(3)
    rng = np.random.default_rng(17)
    genuine_r = kernel_cocycles(pres, sd.m_r)
    genuine_c = kernel_cocycles(pres, sd.m_c)
    assert genuine_r and genuine_c
    scale = max(
        1.0,
        max(
            abs(pair_fundamental_class(cup(zr, zc, cross), pres))
            for zr in genuine_r[:3]
            for zc in genuine_c[:3]
        ),
    )
    for _ in range(8):
        cob_r = coboundary_cocycle(pres, sd.m_r, rng.standard_normal(3))
        cob_c = coboundary_cocycle(pres, sd.m_c, rng.standard_normal(3))
        zr = genuine_r[int(rng.integers(len(genuine_r)))]
        zc = genuine_c[int(rng.integers(len(genuine_c)))]
        for val in (
            pair_fundamental_class(cup(cob_r, zc, cross), pres),
            pair_fundamental_class(cup(zr, cob_c, cross), pres),
            pair_fundamental_class(cup(cob_r, cob_c, cross), pres),
        ):
            assert abs(val) <= 1e-8 * scale


def test_fox_matrix_hand_computed_commutator():
    # r = a b a^-1 b^-1 with one dimensional actions a -> 2, b -> 3:
    # d/da = 1 - a b a^-1       = 1 - 3  = -2
    # d/db = a - a b a^-1 b^-1  = 2 - 1  =  1
    pres = presentation_from_raw(("a", "b"), [(1, 2, -1, -2)])
    m = CoefficientModule("custom", (np.array([[2.0]]), np.array([[3.0]])))
    np.testing.assert_allclose(fox_matrix(pres, m), [[-2.0, 1.0]], atol=1e-14)


def test_fox_matrix_hand_computed_torsion_power():
    # r = x^3: the Fox derivative is 1 + x + x^2
    pres = presentation_from_raw(("x",), [(1, 1, 1)], torsion_orders={1: 3})
    mat = np.array([[0.0, 1.0], [-1.0, -1.0]])  # order 3
    m = CoefficientModule("custom", (mat,))
    np.testing.assert_allclose(
        fox_matrix(pres, m), np.eye(2) + mat + mat @ mat, atol=1e-14
    )


def test_coboundaries_are_cocycles(quad):
    rng = np.random.default_rng(5)
    for m in (quad.sd.m_c, quad.sd.g0):
        stack = coboundary_matrix(quad.pres, m) @ rng.standard_normal(m.dim)
        z = cocycle_from_stack(m, stack / np.linalg.norm(stack))
        assert z.fox_residual(quad.pres) < 1e-8


@settings(max_examples=40)
@given(
    st.lists(st.integers(-4, 4).filter(bool), min_size=0, max_size=5).map(tuple),
    st.lists(st.integers(-4, 4).filter(bool), min_size=0, max_size=5).map(tuple),
)
def test_cocycle_word_rule(quad, u, v):
    m = quad.sd.m_c
    z = kernel_cocycles(quad.pres, m)[0]
    left = z.on_word(u + v)
    right = z.on_word(u) + m.evaluate_word(u) @ z.on_word(v)
    np.testing.assert_allclose(left, right, atol=1e-9)


def test_cocycle_inverse_word_rule(quad):
    m = quad.sd.m_r
    z = kernel_cocycles(quad.pres, m)[0]
    for w in ((1,), (2, 3), (1, -2, 4)):
        inv = tuple(-x for x in reversed(w))
        expected = -np.linalg.inv(m.evaluate_word(w)) @ z.on_word(w)
        np.testing.assert_allclose(z.on_word(inv), expected, atol=1e-10)


def test_complex_h0_trivial_module(quad):
    assert BlockComplex(quad.pres, trivial_module(4), POLICY).h0 == 1
    assert BlockComplex(quad.pres, quad.sd.m_c, POLICY).h0 == 0


def test_complex_dims_frozen_triangle(triangle334):
    from charvar.coeffmodules import decompose_sl

    pres = presentation_of(parse_signature("S2(3,3,4)"))
    sd = decompose_sl(triangle334, "standard")
    expect = {"g0": (0, 2, 0), "m_c": (0, 0, 0), "m_r": (0, 0, 0), "d": (1, 0, 1)}
    for label, dims in expect.items():
        hd = BlockComplex(pres, getattr(sd, label), POLICY).dims
        assert (hd.h0, hd.h1, hd.h2) == dims
        assert hd.methods["h2"] == "duality"


def test_complex_dims_frozen_quadrilateral(quad):
    expect = {"g0": (0, 8, 0), "m_c": (0, 2, 0), "m_r": (0, 2, 0), "d": (1, 0, 1)}
    for label, dims in expect.items():
        hd = BlockComplex(quad.pres, getattr(quad.sd, label), POLICY).dims
        assert (hd.h0, hd.h1, hd.h2) == dims


def test_complex_boundary_h2_vanishes(setups):
    bnd = setups("D2(3,3)")
    hd = BlockComplex(bnd.pres, bnd.sd.m_c, POLICY).dims
    assert hd.h2 == 0
    assert hd.methods["h2"] == "boundary_vanishing"


def test_complex_degenerate_no_generators():
    pres = presentation_from_raw((), [])
    block = BlockComplex(pres, trivial_module(0), POLICY)
    assert (block.dims.h0, block.dims.h1, block.dims.h2) == (0, 0, 0)
    assert block.dims.degenerate
    assert block.h1_cocycles == []


def test_twisted_euler_trivial_coefficients_recovers_underlying_space():
    for text in ("S2(3,3,4)", "S2(3,3,3,3)", "O(g=2)", "D2(3,3)"):
        sig = parse_signature(text)
        pres = presentation_of(sig)
        m = trivial_module(pres.num_generators)
        assert twisted_euler(pres, m, POLICY) == underlying_euler(sig)


def test_twisted_euler_matches_alternating_sum(quad):
    for label in ("g0", "m_c", "m_r", "d", "full_g"):
        m = getattr(quad.sd, label)
        hd = BlockComplex(quad.pres, m, POLICY).dims
        assert twisted_euler(quad.pres, m, POLICY) == hd.euler


def test_twisted_euler_requires_cells():
    pres = presentation_from_raw(("a",), [(1, 1)], torsion_orders={1: 2})
    with pytest.raises(CohomologyError):
        twisted_euler(pres, trivial_module(1), POLICY)


def test_fundamental_class_symplectic_sign():
    """Genus two, trivial coefficients: the dual basis cocycles pair to
    the standard symplectic form, fixing the orientation convention."""
    pres = presentation_of(parse_signature("O(g=2)"))
    m = trivial_module(4)
    one = np.array([[1.0]])
    z = [cocycle_from_stack(m, np.eye(4)[k]) for k in range(4)]

    def omega(i, j):
        return pair_fundamental_class(cup(z[i], z[j], one), pres)

    assert omega(0, 1) == pytest.approx(1.0, abs=1e-12)
    assert omega(1, 0) == pytest.approx(-1.0, abs=1e-12)
    assert omega(2, 3) == pytest.approx(1.0, abs=1e-12)
    assert omega(0, 0) == pytest.approx(0.0, abs=1e-12)
    assert omega(0, 2) == pytest.approx(0.0, abs=1e-12)
    assert omega(0, 3) == pytest.approx(0.0, abs=1e-12)


def test_fundamental_class_requires_closed_orientable(setups, mirrored):
    one = np.array([[1.0]])
    z = cocycle_from_stack(trivial_module(3), np.zeros(3))
    c = cup(z, z, one)
    with pytest.raises(CohomologyError):
        pair_fundamental_class(c, setups("D2(3,3)").pres)
    zm = cocycle_from_stack(trivial_module(3), np.zeros(3))
    with pytest.raises(CohomologyError):
        pair_fundamental_class(cup(zm, zm, one), mirrored.pres)


def test_fundamental_class_rejects_unbalanced_free_generator():
    pres = presentation_from_raw(
        ("a", "b"), [(1, 1, 2, -2, 1)], long_relator_index=0
    )
    m = trivial_module(2)
    z = cocycle_from_stack(m, np.eye(2)[0])
    with pytest.raises(CohomologyError):
        pair_fundamental_class(cup(z, z, np.array([[1.0]])), pres)


def test_cup_accepts_matrix_and_callable_forms(quad):
    z1 = kernel_cocycles(quad.pres, quad.sd.m_r)[0]
    z2 = kernel_cocycles(quad.pres, quad.sd.m_c)[0]
    mat = np.diag([1.0, 2.0, 3.0])
    by_matrix = cup(z1, z2, mat)
    by_callable = cup(z1, z2, lambda x, y: float(x @ mat @ y))
    for a, b in (((1,), (2,)), ((1, 2), (3, -4))):
        assert by_matrix(a, b) == pytest.approx(by_callable(a, b), rel=1e-12)
    with pytest.raises(CohomologyError):
        cup(z1, z2, np.eye(2))


def test_complex_h1_basis_counts_and_residuals(quad):
    counts = {"g0": 8, "m_c": 2, "m_r": 2, "d": 0}
    for label, expected in counts.items():
        basis = BlockComplex(quad.pres, getattr(quad.sd, label), POLICY).h1_cocycles
        assert len(basis) == expected
        for z in basis:
            assert z.fox_residual(quad.pres) < 1e-8
        if basis:
            stacks = np.column_stack([z.stack() for z in basis])
            np.testing.assert_allclose(stacks.T @ stacks, np.eye(expected), atol=1e-10)


def test_goldman_obstruction_boundary_case(setups):
    bnd = setups("D2(3,3)")
    z = include_cocycle(kernel_cocycles(bnd.pres, bnd.sd.m_c)[0], bnd.sd)
    result = goldman_obstruction(z, bnd.sd, bnd.pres)
    assert result.boundary_case
    assert result.value == 0.0


def test_goldman_obstruction_needs_ambient_coordinates(quad):
    z = kernel_cocycles(quad.pres, quad.sd.m_c)[0]
    with pytest.raises(CohomologyError):
        goldman_obstruction(z, quad.sd, quad.pres)


def test_goldman_obstruction_pure_blocks_vanish(quad):
    for label in ("g0", "d"):
        basis = BlockComplex(quad.pres, getattr(quad.sd, label), POLICY).h1_cocycles
        for z in basis:
            lifted = include_cocycle(z, quad.sd)
            assert goldman_obstruction(lifted, quad.sd, quad.pres).value == 0.0


def test_weil_slope_is_two_for_genuine_cocycles(quad):
    basis = BlockComplex(quad.pres, quad.sd.full_g, POLICY).h1_cocycles
    assert basis
    for z in basis[:3]:
        deformations = [quad.sd.to_matrix(v) for v in z.values]
        slope, residuals = weil_slope(
            quad.sd.hat_matrices, quad.pres.relators, deformations
        )
        assert abs(slope - 2.0) < 0.1
        assert residuals[0] > residuals[-1]


def test_weil_slope_is_one_for_non_cocycles(quad):
    rng = np.random.default_rng(8)
    deformations = []
    for _ in range(quad.pres.num_generators):
        x = rng.standard_normal((4, 4))
        deformations.append(x - np.trace(x) / 4 * np.eye(4))
    slope, _ = weil_slope(quad.sd.hat_matrices, quad.pres.relators, deformations)
    assert abs(slope - 1.0) < 0.2


def test_fundamental_pairing_matrix_nondegenerate(quad):
    left = BlockComplex(quad.pres, quad.sd.m_r, POLICY).h1_cocycles
    right = BlockComplex(quad.pres, quad.sd.m_c, POLICY).h1_cocycles
    cross = quad.sd.killing_multiplier * np.eye(3)
    mat = fundamental_pairing_matrix(quad.pres, left, right, cross)
    assert mat.shape == (2, 2)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert sv[-1] > 1e-6 * sv[0]


def test_cohomology_report_table(quad):
    report = cohomology_report(quad.pres, quad.sd, POLICY)
    assert tuple(mod.label for mod in report.modules) == BLOCKS + ("full_g",)
    assert tuple(report.complexes) == BLOCKS
    assert report.euler_consistent
    assert report.min_gap > 1e3
    assert report.module("g0").dims.h1 == 8
    assert report.module("full_g").dims.methods == dict.fromkeys(("h0", "h1", "h2"), "direct_sum")
