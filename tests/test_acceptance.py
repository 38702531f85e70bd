"""Acceptance criteria, one test per criterion.

`pytest -v` therefore prints exactly one pass/fail line per criterion;
each test also prints a one-line summary with the measured numbers
(visible with -rA or on failure).  Tolerances sit next to the assertions
they govern.
"""

from __future__ import annotations

import shutil
import subprocess
import sys

import numpy as np
import pytest

from charvar.cohomology import (
    BlockComplex,
    TwoCocycle,
    coboundary_matrix,
    cocycle_from_stack,
    cup,
    fox_matrix,
    fundamental_form,
    pair_fundamental_class,
)
from charvar.linalg import RankPolicy
from charvar.presentation import parse_signature
from charvar.reps import (
    burnside_irreducible,
    commutant_dim,
    embed,
)
from conftest import kernel_basis

POLICY = RankPolicy()

QUADRILATERALS = (
    ("S2(3,3,3,3)", 0),
    ("S2(2,3,3,3)", 1),
    ("S2(2,2,3,3)", 2),
    ("S2(2,2,2,3)", 3),
)

CLOSED_ORIENTABLE = (
    "S2(2,3,7)",
    "S2(3,3,5)",
    "S2(3,3,3,3)",
    "S2(3,3,3,3,3)",
    "O(g=1;cone=[2])",
    "O(g=1;cone=[5])",
    "O(g=2)",
)

TURNOVERS = (("S2(3,3,4)", 2), ("S2(2,3,7)", 0), ("S2(3,4,5)", 2))

ALL_FIXTURES = (
    [(text, None) for text, _ in QUADRILATERALS]
    + [(text, None) for text in CLOSED_ORIENTABLE if text != "S2(3,3,3,3)"]
    + [("S2(3,3,4)", None), ("S2(3,4,5)", None)]
    + [
        ("D(3,3;mirror)", "orientable"),
        ("D(3,3;mirror)", "type_preserving"),
        ("D(2,3;mirror)", "orientable"),
        ("D(2,3;mirror)", "type_preserving"),
        ("D2(3,3)", None),
        ("D2(2,3)", None),
        ("HD(3)", "orientable"),
        ("HD(3)", "type_preserving"),
    ]
)


def report_line(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def random_combo(basis, rng):
    coeffs = rng.standard_normal(basis.shape[1])
    vec = basis @ coeffs
    return vec / np.linalg.norm(vec)


def test_criterion_01_quadrilateral_dimension_drop(analyses):
    gaps = []
    for text, k in QUADRILATERALS:
        report = analyses(text, checks=("all",))
        assert report.dims == {"p": 8 - 2 * k, "d": 2, "b": 0}, text
        assert report.model.display == f"R^{8 - 2 * k} x R^0 x Cone(UT(S^1))", text
        gaps.append(report.cohomology.min_gap)
    assert min(gaps) >= 1e3
    report_line(
        1, True, f"p = 8-2k for k=0..3, model Cone(UT(S^1)), min rank gap {min(gaps):.1e}"
    )


def test_criterion_02_teichmueller_dimension_formula(analyses):
    checked = 0
    for text in CLOSED_ORIENTABLE:
        sig = parse_signature(text)
        expected = -3 * (2 - 2 * sig.genus) + 2 * sig.cone_count
        got = analyses(text, checks=("all",)).dims["d"]
        assert got == expected, f"{text}: d={got}, formula gives {expected}"
        checked += 1
    assert checked >= 6
    report_line(2, True, f"d = -3*chi(|O|) + 2c exactly on {checked} closed signatures")


def test_criterion_03_turnover_rigidity(analyses):
    for text, p in TURNOVERS:
        report = analyses(text, checks=("all",))
        table = {mod.label: mod.dims for mod in report.cohomology.modules}
        assert table["m_c"].h1 == 0 and table["m_r"].h1 == 0, text
        assert report.dims == {"p": p, "d": 0, "b": 0}, text
        assert report.model.smooth and report.model.link == "point", text
    report_line(3, True, "turnovers rigid: d = b = 0, smooth point, p = 2 / 0 / 2")


def test_criterion_04_mirrored_and_boundary_discs(analyses):
    for orders, k in (("3,3", 0), ("2,3", 1)):
        oe = analyses(f"D({orders};mirror)", "orientable", checks=("all",))
        tp = analyses(f"D({orders};mirror)", "type_preserving", checks=("all",))
        assert oe.dims["p"] == tp.dims["p"] == 4 - 2 * k, orders
        assert oe.dims["d_oe"] == 1, orders
        assert "topologically non-singular" in tp.model.flags, orders
        d2 = analyses(f"D2({orders})", checks=("all",))
        assert d2.dims == {"p": 4 - 2 * k, "d": 1, "b": 0}, orders
    hd = analyses("HD(3)", "type_preserving", checks=("all",))
    assert hd.dims["d_oe"] == 1 and hd.dims["d_tp"] == 0 and hd.dims["f"] == 1
    assert hd.dims["d_tp"] == hd.dims["d_oe"] - hd.dims["f"]
    report_line(
        4, True, "mirrored discs p = 4-2k with d_oe = 1; boundary discs match; d_tp = t - f"
    )


def test_criterion_05_duality_pairing_nondegenerate(setups):
    worst_ratio = 1.0
    for text in ("S2(3,3,3,3)", "O(g=1;cone=[2])", "O(g=2)"):
        s = setups(text)
        left = BlockComplex(s.pres, s.sd.m_r, POLICY).h1_basis
        right = BlockComplex(s.pres, s.sd.m_c, POLICY).h1_basis
        assert left.shape[1] == right.shape[1], text
        if not left.shape[1]:
            continue
        cross = s.sd.killing_multiplier * np.eye(3)
        mat = left.T @ fundamental_form(s.pres, s.sd.m_r, s.sd.m_c, cross) @ right
        sv = np.linalg.svd(mat, compute_uv=False)
        assert sv[-1] > 1e-6 * sv[0], text
        worst_ratio = min(worst_ratio, float(sv[-1] / sv[0]))
    report_line(
        5, True, f"h1(m_c) = h1(m_r), pairing nondegenerate, worst sv ratio {worst_ratio:.2e}"
    )


def test_criterion_06_cup_product_symmetry(setups):
    rng = np.random.default_rng(29)
    pairs = 0
    worst_sym = 0.0
    worst_br = 0.0
    for text in ("S2(3,3,3,3)", "O(g=1;cone=[5])"):
        s = setups(text)
        cross = s.sd.killing_multiplier * np.eye(3)
        zr_basis = kernel_basis(fox_matrix(s.pres, s.sd.m_r), POLICY)
        zc_basis = kernel_basis(fox_matrix(s.pres, s.sd.m_c), POLICY)
        zg_basis = kernel_basis(fox_matrix(s.pres, s.sd.full_g), POLICY)

        def bracket_pairing(z1, z2, sd=s.sd, pres=s.pres):
            full = sd.full_g

            def evaluate(a, b):
                za = sd.to_matrix(z1.on_word(a))
                zb = sd.to_matrix(full.evaluate_word(a) @ z2.on_word(b))
                m = za @ zb - zb @ za
                return sd.pi_d(m)

            return pair_fundamental_class(TwoCocycle(evaluate, "bracket"), pres)

        for _ in range(100):
            zr = cocycle_from_stack(s.sd.m_r, random_combo(zr_basis, rng))
            zc = cocycle_from_stack(s.sd.m_c, random_combo(zc_basis, rng))
            a = pair_fundamental_class(cup(zr, zc, cross), s.pres)
            b = pair_fundamental_class(cup(zc, zr, cross), s.pres)
            scale = max(1.0, abs(a), abs(b))
            assert abs(a + b) <= 1e-8 * scale, text
            worst_sym = max(worst_sym, abs(a + b) / scale)

            z1 = cocycle_from_stack(s.sd.full_g, random_combo(zg_basis, rng))
            z2 = cocycle_from_stack(s.sd.full_g, random_combo(zg_basis, rng))
            u = bracket_pairing(z1, z2)
            v = bracket_pairing(z2, z1)
            scale = max(1.0, abs(u), abs(v))
            assert abs(u - v) <= 1e-8 * scale, text
            worst_br = max(worst_br, abs(u - v) / scale)
            pairs += 1
    assert pairs >= 100
    report_line(
        6,
        True,
        f"{pairs} pairs: antisymmetry defect {worst_sym:.1e}, bracket symmetry defect {worst_br:.1e}",
    )


def test_criterion_07_transgression_kills_coboundaries(setups):
    rng = np.random.default_rng(31)
    worst = 0.0
    for text in ("S2(3,3,3,3)", "O(g=1;cone=[2])"):
        s = setups(text)
        cross = s.sd.killing_multiplier * np.eye(3)
        zr_basis = kernel_basis(fox_matrix(s.pres, s.sd.m_r), POLICY)
        zc_basis = kernel_basis(fox_matrix(s.pres, s.sd.m_c), POLICY)
        zr = cocycle_from_stack(s.sd.m_r, random_combo(zr_basis, rng))
        zc = cocycle_from_stack(s.sd.m_c, random_combo(zc_basis, rng))
        scale = max(1.0, abs(pair_fundamental_class(cup(zr, zc, cross), s.pres)))
        for _ in range(10):
            cob_r = cocycle_from_stack(
                s.sd.m_r, coboundary_matrix(s.pres, s.sd.m_r) @ rng.standard_normal(3)
            )
            cob_c = cocycle_from_stack(
                s.sd.m_c, coboundary_matrix(s.pres, s.sd.m_c) @ rng.standard_normal(3)
            )
            for val in (
                pair_fundamental_class(cup(cob_r, zc, cross), s.pres),
                pair_fundamental_class(cup(zr, cob_c, cross), s.pres),
            ):
                assert abs(val) <= 1e-8 * scale, text
                worst = max(worst, abs(val) / scale)
    report_line(7, True, f"coboundary arguments transgress to {worst:.1e} relative")


def test_criterion_08_euler_consistency(analyses):
    pairs = 0
    for text, emb in ALL_FIXTURES:
        report = analyses(text, emb, checks=("all",))
        for mod in report.cohomology.modules:
            if mod.euler_cells is None:
                continue
            assert mod.dims.euler == mod.euler_cells, f"{text} {mod.label}"
            pairs += 1
    assert pairs
    report_line(8, True, f"h0 - h1 + h2 equals the cell count on {pairs} module blocks")


def test_criterion_09_obstruction_structure(analyses, setups):
    report = analyses("S2(3,3,3,3)", checks=("all",))
    obs = report.obstruction
    assert obs["residual"] <= 1e-6
    assert obs["c_n"] == pytest.approx(-1 / 12, abs=1e-6)
    assert obs["g0_max"] <= 1e-8 * obs["scale"]
    assert obs["d_max"] <= 1e-8 * obs["scale"]
    # a sampled oracle on bases and forms built here: o(z) / q(z) for ten
    # random z = z_c + z_r, one per column
    s = setups("S2(3,3,3,3)")
    basis_c = BlockComplex(s.pres, s.sd.m_c, POLICY).h1_basis
    basis_r = BlockComplex(s.pres, s.sd.m_r, POLICY).h1_basis
    bracket = fundamental_form(s.pres, s.sd.full_g, s.sd.full_g, s.sd.bracket_d)
    cross = fundamental_form(s.pres, s.sd.m_r, s.sd.m_c, s.sd.cross_form)
    rng = np.random.default_rng(9)
    zc = basis_c @ rng.standard_normal((basis_c.shape[1], 10))
    zr = basis_r @ rng.standard_normal((basis_r.shape[1], 10))
    z = s.sd.lift("m_c", zc) + s.sd.lift("m_r", zr)
    ratios = (z * (bracket @ z)).sum(axis=0) / (zr * (cross @ zc)).sum(axis=0)
    assert len(ratios) == 10
    assert np.abs(ratios - obs["c_n"]).max() <= 1e-6
    report_line(
        9,
        True,
        f"whole form: c_n = {obs['c_n']:.6f}, residual {obs['residual']:.1e}, "
        f"10 sampled ratios within {np.abs(ratios - obs['c_n']).max():.1e}, "
        f"pure parts <= {max(obs['g0_max'], obs['d_max']):.1e}",
    )


def commutation_system_nullity(matrices):
    """Independent oracle: dim of {X : XM = MX for all M} via the
    vectorized Sylvester system."""
    n = matrices[0].shape[0]
    eye = np.eye(n)
    rows = np.vstack([np.kron(m, eye) - np.kron(eye, m.T) for m in matrices])
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s <= 1e-9 * s[0]))


def test_criterion_10_irreducibility_verdicts(triangle334):
    tri = burnside_irreducible(triangle334)
    assert tri.irreducible_over_C and tri.algebra_dim == 9

    embedded = embed(triangle334, "standard")
    emb = burnside_irreducible(embedded)
    assert not emb.irreducible_over_C
    assert emb.commutant_dim == 2
    assert commutation_system_nullity(list(embedded.matrices)) == 2

    theta = np.sqrt(2.0)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    assert not burnside_irreducible([rot]).irreducible_over_C
    report_line(
        10, True, "triangle algebra 9; embedded commutant 2 (matches oracle); SO(2) reducible"
    )


@pytest.mark.parametrize("text, embedding", ALL_FIXTURES)
def test_embedded_commutant_matches_oracle(analyses, setups, text, embedding):
    """The embedded-commutant gate reads commutant_dim alone; it must agree
    with the Sylvester-system oracle and with the full Burnside report."""
    report = analyses(text, embedding, checks=("all",))
    embedded = list(setups(text, report.request.embedding).sd.embedded.matrices)
    assert report.irreducibility["embedded_commutant"] == commutation_system_nullity(embedded) == 2
    assert commutant_dim(embedded, POLICY) == burnside_irreducible(embedded, POLICY).commutant_dim


def test_criterion_11_weil_first_order(analyses):
    slopes_checked = 0
    for text, emb in ALL_FIXTURES:
        report = analyses(text, emb, checks=("all",))
        entry = next((e for e in report.ledger if e.name == "weil-slope"), None)
        table = {mod.label: mod.dims for mod in report.cohomology.modules}
        if entry is None:
            assert table["full_g"].h1 == 0, f"{text}: missing slope check"
            continue
        assert entry.passed and entry.margin <= 0.1, f"{text}: slope off by {entry.margin}"
        slopes_checked += 1
    assert slopes_checked
    report_line(
        11, True, f"log-log slope 2.0 +/- 0.1 on every tangent direction, {slopes_checked} fixtures"
    )


def test_criterion_12_examples_byte_identical():
    exe = shutil.which("charvar")
    if exe:
        cmd = [exe, "examples", "--json"]
    else:
        cmd = [
            sys.executable,
            "-c",
            "import sys; from charvar.cli import main; sys.exit(main(['examples', '--json']))",
        ]
    runs = [subprocess.run(cmd, capture_output=True, timeout=600) for _ in range(2)]
    assert all(r.returncode == 0 for r in runs), runs[0].stderr.decode()[:500]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout
    report_line(
        12, True, f"two example runs byte-identical ({len(runs[0].stdout)} bytes)"
    )
