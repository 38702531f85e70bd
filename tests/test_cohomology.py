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
    cocycle_residual,
    cohomology_report,
    cup,
    fox_matrix,
    fundamental_form,
    pair_fundamental_class,
    weil_slope,
)
from charvar.coeffmodules import (
    CoefficientModule,
    contragredient,
    decompose_sl,
    trivial_module,
    twist_by_character,
)
from charvar.linalg import RankPolicy, rank_cut
from charvar.presentation import (
    GroupPresentation,
    parse_signature,
    presentation_of,
    underlying_euler,
)
from charvar.reps import build_representation
from conftest import EVERY_INPUT, kernel_basis

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
    pres = GroupPresentation(("a", "b"), ((1, 2, -1, -2),), (1, 1))
    m = CoefficientModule("custom", (np.array([[2.0]]), np.array([[3.0]])))
    np.testing.assert_allclose(fox_matrix(pres, m), [[-2.0, 1.0]], atol=1e-14)


def test_fox_matrix_hand_computed_torsion_power():
    # r = x^3: the Fox derivative is 1 + x + x^2
    pres = GroupPresentation(("x",), ((1, 1, 1),), (1,), {1: 3})
    mat = np.array([[0.0, 1.0], [-1.0, -1.0]])  # order 3
    m = CoefficientModule("custom", (mat,))
    np.testing.assert_allclose(
        fox_matrix(pres, m), np.eye(2) + mat + mat @ mat, atol=1e-14
    )


def test_coboundaries_are_cocycles(quad):
    rng = np.random.default_rng(5)
    for m in (quad.sd.m_c, quad.sd.g0):
        stack = coboundary_matrix(quad.pres, m) @ rng.standard_normal((m.dim, 1))
        assert cocycle_residual(quad.pres, m, stack / np.linalg.norm(stack)) < 1e-8


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
    assert BlockComplex(quad.pres, trivial_module(4), POLICY).dims.h0 == 1
    assert BlockComplex(quad.pres, quad.sd.m_c, POLICY).dims.h0 == 0


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
    pres = GroupPresentation((), (), ())
    block = BlockComplex(pres, trivial_module(0), POLICY)
    assert (block.dims.h0, block.dims.h1, block.dims.h2) == (0, 0, 0)
    assert block.dims.degenerate
    assert block.h1_basis.shape == (0, 0)


def test_twisted_euler_trivial_coefficients_recovers_underlying_space(setups):
    """d is the trivial block: its cellular Euler characteristic in the
    table is that of the underlying space."""
    for text, embedding in (
        ("S2(3,3,4)", "standard"), ("S2(3,3,3,3)", "standard"), ("O(g=2)", "standard"),
        ("D2(3,3)", "standard"), ("HD(3)", "orientable"),
    ):
        s = setups(text, embedding)
        assert cohomology_report(s.pres, s.sd, POLICY).module("d").euler_cells == underlying_euler(s.sig)


def test_twisted_euler_matches_alternating_sum(quad):
    report = cohomology_report(quad.pres, quad.sd, POLICY)
    for label in BLOCKS + ("full_g",):
        hd = BlockComplex(quad.pres, getattr(quad.sd, label), POLICY).dims
        assert report.module(label).euler_cells == hd.euler


def svd_invariant_dim(m, word, order):
    """dim M^<w> as the kernel of w - 1, found by SVD: the rank decision
    that the character rule of the table replaced."""
    a = m.evaluate_word(word)
    eye = np.eye(m.dim)
    assert np.abs(np.linalg.matrix_power(a, order) - eye).max() <= 1e-6
    return kernel_basis(a - eye, POLICY).shape[1]


def svd_twisted_euler(pres, m):
    total = 0
    for cell in pres.cells:
        st = cell.stabilizer
        if st.kind == "trivial":
            d = m.dim
        else:
            d = svd_invariant_dim(m, st.word, 2 if st.kind == "reflection" else st.order)
        total += (-1) ** cell.dim * d
    return total


@pytest.mark.parametrize(
    "text, embedding",
    EVERY_INPUT + [("D(2,3,3;mirror)", e) for e in ("orientable", "type_preserving")],
)
def test_twisted_euler_characters_match_the_svd_kernels(text, embedding):
    """Every benchmark input, HD(3) and D(2,3,3;mirror): the table's
    character means on the base and the SVD kernels of each block give
    one twisted Euler characteristic per block, and the full_g row, the
    sum of the blocks, is the SVD count on full_g itself."""
    rep = build_representation(parse_signature(text))
    sd = decompose_sl(rep, embedding)
    report = cohomology_report(rep.presentation, sd, POLICY)
    for label in BLOCKS + ("full_g",):
        assert report.module(label).euler_cells == svd_twisted_euler(rep.presentation, getattr(sd, label))


def test_fundamental_class_symplectic_sign():
    """Genus two, trivial coefficients: the dual basis cocycles pair to
    the standard symplectic form, fixing the orientation convention; the
    form is exact there, and so is the word-by-word reference."""
    pres = presentation_of(parse_signature("O(g=2)"))
    m = trivial_module(4)
    one = np.array([[1.0]])
    omega = np.zeros((4, 4))
    omega[0, 1] = omega[2, 3] = 1.0
    omega -= omega.T
    form = fundamental_form(pres, m, m, one)
    assert np.array_equal(form, omega)
    z = [cocycle_from_stack(m, np.eye(4)[k]) for k in range(4)]
    for i, j in ((0, 1), (1, 0), (2, 3), (0, 0), (0, 2), (0, 3)):
        assert pair_fundamental_class(cup(z[i], z[j], one), pres) == omega[i, j]


def test_fundamental_class_requires_closed_orientable(setups, mirrored):
    one = np.array([[1.0]])
    z = cocycle_from_stack(trivial_module(3), np.zeros(3))
    for pres in (setups("D2(3,3)").pres, mirrored.pres):
        with pytest.raises(CohomologyError):
            fundamental_form(pres, trivial_module(3), trivial_module(3), one)
        with pytest.raises(CohomologyError):
            pair_fundamental_class(cup(z, z, one), pres)


def test_fundamental_class_rejects_unbalanced_free_generator():
    pres = GroupPresentation(
        ("a", "b"), ((1, 1, 2, -2, 1),), (1, 1), long_relator_index=0
    )
    m = trivial_module(2)
    z = cocycle_from_stack(m, np.eye(2)[0])
    with pytest.raises(CohomologyError):
        fundamental_form(pres, m, m, np.array([[1.0]]))
    with pytest.raises(CohomologyError):
        pair_fundamental_class(cup(z, z, np.array([[1.0]])), pres)


def test_fundamental_form_checks_the_form_shape(quad):
    with pytest.raises(CohomologyError):
        fundamental_form(quad.pres, quad.sd.m_c, quad.sd.m_c, quad.sd.bracket_d)


def bracket_cocycle(z1, z2, sd):
    """The d-component of [z1 cup z2], word by word through plain matrices."""

    def evaluate(a, b):
        za = sd.to_matrix(z1.on_word(a))
        zb = sd.to_matrix(sd.full_g.evaluate_word(a) @ z2.on_word(b))
        return sd.pi_d(za @ zb - zb @ za)

    return TwoCocycle(evaluate, "bracket-d")


# the closed orientable inputs of the examples, the benchmark and the
# acceptance criteria
CLOSED_ORIENTABLE = (
    "S2(2,3,7)",
    "S2(3,3,5)",
    "S2(3,3,3,3)",
    "S2(3,3,3,3,3)",
    "S2(3,3,3,3,3,3,3)",
    "O(g=1;cone=[2])",
    "O(g=1;cone=[3])",
    "O(g=1;cone=[5])",
    "O(g=2)",
)


@pytest.mark.parametrize("text", CLOSED_ORIENTABLE)
def test_fundamental_form_matches_the_word_by_word_pairing(setups, text):
    """s1 @ P @ s2 against pair_fundamental_class(cup(...)) for the cross
    form, the invariant form diag(1, 1, -1) of the column block and the
    bracket form, on random stacked cochains (the identity is bilinear
    algebra, so it holds off the cocycles too)."""
    s = setups(text)
    sd, pres = s.sd, s.pres
    rng = np.random.default_rng(41)
    J = np.diag([1.0, 1.0, -1.0])
    cases = [
        (sd.m_r, sd.m_c, sd.cross_form, lambda z1, z2: cup(z1, z2, sd.cross_form)),
        (sd.m_c, sd.m_r, sd.cross_form, lambda z1, z2: cup(z1, z2, sd.cross_form)),
        (sd.m_c, sd.m_c, J, lambda z1, z2: cup(z1, z2, J)),
        (sd.full_g, sd.full_g, sd.bracket_d, lambda z1, z2: bracket_cocycle(z1, z2, sd)),
    ]
    for m1, m2, phi, two_cocycle in cases:
        form = fundamental_form(pres, m1, m2, phi)
        for _ in range(2):
            s1 = rng.standard_normal(m1.dim * m1.num_generators)
            s2 = rng.standard_normal(m2.dim * m2.num_generators)
            ref = pair_fundamental_class(
                two_cocycle(cocycle_from_stack(m1, s1), cocycle_from_stack(m2, s2)), pres
            )
            assert s1 @ form @ s2 == pytest.approx(ref, rel=1e-10), (text, m1.label, m2.label)


def test_cup_takes_a_matrix_form(quad):
    """c(a, b) = z1(a) . phi (a.z2(b)); a matrix of the wrong shape is refused."""
    z1 = kernel_cocycles(quad.pres, quad.sd.m_r)[0]
    z2 = kernel_cocycles(quad.pres, quad.sd.m_c)[0]
    mat = np.diag([1.0, 2.0, 3.0])
    by_matrix = cup(z1, z2, mat)
    for a, b in (((1,), (2,)), ((1, 2), (3, -4))):
        expected = z1.on_word(a) @ mat @ (quad.sd.m_c.evaluate_word(a) @ z2.on_word(b))
        assert by_matrix(a, b) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(CohomologyError):
        cup(z1, z2, np.eye(2))


def test_complex_h1_basis_counts_and_residuals(quad):
    counts = {"g0": 8, "m_c": 2, "m_r": 2, "d": 0}
    for label, expected in counts.items():
        block = BlockComplex(quad.pres, getattr(quad.sd, label), POLICY)
        cocycles = [cocycle_from_stack(block.module, col) for col in block.h1_basis.T]
        assert len(cocycles) == block.h1_basis.shape[1] == expected
        assert cocycle_residual(quad.pres, block.module, block.h1_basis) < 1e-8
        np.testing.assert_allclose(block.h1_basis.T @ block.h1_basis, np.eye(expected), atol=1e-10)


def test_bracket_form_vanishes_on_pure_blocks(quad):
    """A lifted g0 or d cocycle has no m_c or m_r part, and the bracket of
    g0 + d with itself has no d-component: the Gram matrix is exactly 0."""
    form = fundamental_form(quad.pres, quad.sd.full_g, quad.sd.full_g, quad.sd.bracket_d)
    for label in ("g0", "d"):
        basis = BlockComplex(quad.pres, getattr(quad.sd, label), POLICY).h1_basis
        lifted = quad.sd.lift(label, basis)
        assert not np.any(lifted.T @ form @ lifted)


def test_weil_slope_is_two_for_genuine_cocycles(quad):
    block = BlockComplex(quad.pres, quad.sd.full_g, POLICY)
    basis = [cocycle_from_stack(block.module, col) for col in block.h1_basis.T]
    assert basis
    deformations = [[quad.sd.to_matrix(v) for v in z.values] for z in basis[:3]]
    slopes, residuals = weil_slope(quad.sd.hat_matrices, quad.pres.relators, deformations)
    assert slopes.shape == (3,) and residuals.shape == (3, 3)
    assert np.all(np.abs(slopes - 2.0) < 0.1)
    assert np.all(residuals[:, 0] > residuals[:, -1])


def test_weil_slope_is_one_for_non_cocycles(quad):
    rng = np.random.default_rng(8)
    deformations = []
    for _ in range(quad.pres.num_generators):
        x = rng.standard_normal((4, 4))
        deformations.append(x - np.trace(x) / 4 * np.eye(4))
    slopes, _ = weil_slope(quad.sd.hat_matrices, quad.pres.relators, [deformations])
    assert abs(slopes[0] - 1.0) < 0.2


def test_fundamental_form_pairing_nondegenerate(quad):
    left = BlockComplex(quad.pres, quad.sd.m_r, POLICY).h1_basis
    right = BlockComplex(quad.pres, quad.sd.m_c, POLICY).h1_basis
    cross = quad.sd.killing_multiplier * np.eye(3)
    mat = left.T @ fundamental_form(quad.pres, quad.sd.m_r, quad.sd.m_c, cross) @ right
    assert mat.shape == (2, 2)
    sv = np.linalg.svd(mat, compute_uv=False)
    assert sv[-1] > 1e-6 * sv[0]


def test_cohomology_report_table(quad):
    report = cohomology_report(quad.pres, quad.sd, POLICY)
    assert tuple(mod.label for mod in report.modules) == BLOCKS + ("full_g",)
    assert tuple(report.complexes) == BLOCKS
    assert all(m.euler_match is not False for m in report.modules)
    assert report.min_gap > 1e3
    assert report.module("g0").dims.h1 == 8
    assert report.module("full_g").dims.methods == dict.fromkeys(("h0", "h1", "h2"), "direct_sum")


# every kind of signature: spheres, handles, boundary circles, crosscaps,
# mirrored discs and HD(n), both embeddings for the non-orientable ones
TABLE_PANEL = EVERY_INPUT + [
    ("S2(3,3,4)", "standard"),
    ("O(g=1;b=1)", "standard"),
    *(
        (text, e)
        for text in ("D(2,3,3;mirror)", "N(k=1;b=1;cone=[3])", "N(k=3;b=1)")
        for e in ("orientable", "type_preserving")
    ),
]


@pytest.mark.parametrize("text, embedding", TABLE_PANEL)
def test_table_reads_each_block_from_one_walk_of_the_sum(setups, text, embedding):
    """The Fox matrix each block complex gets from the walk of the blocks'
    sum is bit for bit the block's own, and the twisted Euler
    characteristic each block reads from the characters of the base is
    the SVD count on the block alone."""
    s = setups(text, embedding)
    report = cohomology_report(s.pres, s.sd, POLICY)
    for label in BLOCKS:
        module = getattr(s.sd, label)
        assert np.array_equal(report.complexes[label].fox, fox_matrix(s.pres, module))
        assert report.module(label).euler_cells == svd_twisted_euler(s.pres, module)


def test_stacked_walk_keeps_genus_two_cocycles_exact(analyses):
    """O(g=2)'s adjoint actions have condition number about 2.3e5; the
    sum's inverses are the blocks' own, so its cocycles stay exact."""
    entry = next(e for e in analyses("O(g=2)", checks=("all",)).ledger if e.name == "h1-cocycle-residual")
    assert entry.passed and entry.margin <= 1e-10


def alpha_contragredient_h0(pres, m):
    dual = contragredient(m)
    if not pres.orientable:
        dual = twist_by_character(dual, pres.orientation_character)
    return BlockComplex(pres, dual, POLICY).dims.h0


def test_h2_by_duality_is_the_alpha_contragredient_h0(setups):
    """h2 of a closed group, read as one rank of the stacked
    alpha_i A_i^T - 1, equals h0 of the alpha-contragredient module's own
    complex on every block and on full_g."""
    seen = []
    for text, embedding in TABLE_PANEL:
        s = setups(text, embedding)
        if not s.pres.closed:
            continue
        for label in BLOCKS + ("full_g",):
            module = getattr(s.sd, label)
            h2 = BlockComplex(s.pres, module, POLICY).dims.h2
            assert h2 == alpha_contragredient_h0(s.pres, module), (text, embedding, label)
            seen.append(h2)
    assert len(seen) >= 40 and 0 in seen and max(seen) > 0


@pytest.mark.parametrize("text, embedding", TABLE_PANEL)
def test_a_table_block_factors_its_basis_at_the_ranks_dims_reported(setups, text, embedding):
    """Each row of the table is its block's own complex's, min_gap
    included, from singular values alone.  The full SVD a basis read
    factors cuts its own spectrum at the same ranks, with a gap past the
    gate, so the bases are dims.z1 and dims.h1 wide: bit for bit those of
    a complex whose basis is read before its dims."""
    s = setups(text, embedding)
    table = cohomology_report(s.pres, s.sd, POLICY)
    for label in BLOCKS:
        c = table.complexes[label]
        first = BlockComplex(s.pres, getattr(s.sd, label), POLICY)
        z_first, h1_first = first.z_basis, first.h1_basis
        assert table.module(label).dims == c.dims == first.dims
        assert c.dims.min_gap >= 10.0
        for matrix, full, rank in ((c.fox, True, c.fox.shape[1] - c.dims.z1), (c.cob, False, c.dims.b1)):
            if matrix.shape[0]:
                cut, gap = rank_cut(np.linalg.svd(matrix, full_matrices=full)[1], POLICY)
                assert cut == rank and gap >= 10.0, label
        assert c.z_basis.shape[1] == c.dims.z1 and c.h1_basis.shape[1] == c.dims.h1
        assert np.array_equal(c.z_basis, z_first) and np.array_equal(c.h1_basis, h1_first)


def test_a_basis_read_first_is_cut_at_the_dims_rank(setups):
    """Read before dims, a complex's Z^1 and H^1 bases are still cut at
    the ranks dims makes."""
    s = setups("HD(5)", "orientable")
    c = BlockComplex(s.pres, s.sd.m_c, POLICY)
    z_basis, basis = c.z_basis, c.h1_basis
    assert z_basis.shape[1] == c.dims.z1
    assert basis.shape[1] == c.dims.h1 == BlockComplex(s.pres, s.sd.m_c, POLICY).dims.h1 > 0


def looped_coboundary_matrix(m):
    n = m.dim
    out = np.zeros((n * m.num_generators, n))
    for i in range(m.num_generators):
        out[i * n : (i + 1) * n] = m.act(i + 1) - np.eye(n)
    return out


@pytest.mark.parametrize("text, embedding", EVERY_INPUT)
def test_coboundary_matrix_matches_the_looped_form(setups, text, embedding):
    s = setups(text, embedding)
    for label in BLOCKS + ("full_g",):
        m = getattr(s.sd, label)
        assert np.array_equal(coboundary_matrix(s.pres, m), looped_coboundary_matrix(m))
    empty = CoefficientModule("custom", ())
    assert coboundary_matrix(s.pres, empty).shape == looped_coboundary_matrix(empty).shape == (0, 0)


def all_inverted_weil_slope(matrices, relators, deformations, eps_list=(1e-3, 1e-4, 1e-5)):
    """weil_slope with every deformed generator inverted: the reference for
    the form that inverts only the letters the relators read inverted."""
    mats = np.asarray(matrices, dtype=float)
    eye = np.eye(mats.shape[-1])
    eps = np.asarray(eps_list, dtype=float)
    deformed = (eye + eps[:, None, None, None, None] * np.asarray(deformations, dtype=float)) @ mats
    inverses = np.linalg.inv(deformed)
    worst = np.zeros(deformed.shape[:2])
    for r in relators:
        out = np.broadcast_to(eye, deformed.shape[:2] + eye.shape)
        for x in r:
            out = out @ (deformed[:, :, x - 1] if x > 0 else inverses[:, :, -x - 1])
        worst = np.maximum(worst, np.abs(out - eye).max(axis=(-2, -1)))
    residuals = np.maximum(worst, 1e-300)
    slopes = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
    return slopes, residuals.T


@pytest.mark.parametrize("text", ["S2(3,3,3,3,3)", "O(g=2)"])
def test_weil_slope_inverts_only_what_the_relators_read(setups, text):
    """Sphere relators read no inverse letter, genus two's read all four;
    either way the slopes and residuals are the all-inverted ones, bit for
    bit."""
    s = setups(text)
    directions = BlockComplex(s.pres, s.sd.full_g, POLICY).h1_basis.T
    zmats = s.sd.to_matrix(directions.reshape(len(directions), s.pres.num_generators, -1))
    got = weil_slope(s.sd.hat_matrices, s.pres.relators, zmats)
    want = all_inverted_weil_slope(s.sd.hat_matrices, s.pres.relators, zmats)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))
