"""Representation files of rank other than 3.

The rank-5 files are the rank-3 builds acted on by X -> A X A^T on the
symmetric forms X with tr(J X) = 0, J the Lorentz form the rank-3
generators preserve (A^T J A = J keeps tr(J X) fixed).  The pipeline is
rank-generic, so p and d must match the Weil counts of the rank-5
images."""

from __future__ import annotations

import json

import numpy as np
import pytest

from charvar.linalg import RankPolicy, rank
from charvar.pipeline import AnalysisRequest, analyze, verify_suite
from charvar.presentation import parse_signature, underlying_euler
from charvar.reps import J3, build_representation, commutant_dim, load_representation

POLICY = RankPolicy()


def _j_traceless_basis() -> np.ndarray:
    """A Frobenius-orthonormal basis of the symmetric 3 x 3 forms X with
    tr(J3 X) = 0: the unit symmetric forms, then the complement of the
    trace functional among their combinations."""
    sym = []
    for i in range(3):
        for j in range(i, 3):
            e = np.zeros((3, 3))
            e[i, j] = e[j, i] = 1.0
            sym.append(e / np.linalg.norm(e))
    trace = np.array([[np.trace(J3 @ e) for e in sym]])
    coeffs = np.linalg.svd(trace)[2][1:]
    return np.einsum("kc,cij->kij", coeffs, np.array(sym))


def _rank5(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """X -> A X A^T on the orthonormal basis: entry (j, k) is <B_j, A B_k A^T>."""
    return np.einsum("jab,ac,kcd,bd->jk", basis, a, basis, a)


def _weil_counts(rep) -> tuple[int, int]:
    """p and d of an irreducible rank-n representation: -chi dim + the sum
    over cone points x of (dim - dim of what x fixes), for sl_n and for
    R^n, chi the Euler characteristic of the underlying surface."""
    n, chi = rep.n, underlying_euler(rep.presentation.signature)
    cones = [rep.matrices[g - 1] for g in rep.presentation.torsion_orders]
    p = -chi * (n * n - 1) + sum(n * n - commutant_dim([x], POLICY) for x in cones)
    d = -chi * n + sum(rank(x - np.eye(n), POLICY) for x in cones)
    return p, d


# input, p, d, classifier row, display, verify checks
PANEL = [
    ("S2(3,3,4)", 2, 2, "closed-orientable-even", "R^2 x R^0 x Cone(UT(S^1))", 23),
    ("S2(3,3,3,3)", 16, 6, "closed-orientable-even", "R^16 x R^0 x Cone(UT(S^5))", 23),
    ("D2(3,3)", 8, 3, "orientable-boundary-even", "R^8 x R^0 x Cone(S^2xS^2)", 16),
]


@pytest.fixture(scope="module")
def rank5_files(tmp_path_factory):
    basis, out = _j_traceless_basis(), {}
    for text, *_ in PANEL:
        base = build_representation(parse_signature(text)).matrices
        assert all(np.allclose(a.T @ J3 @ a, J3, atol=1e-9) for a in base)
        mats = [_rank5(a, basis) for a in base]
        path = tmp_path_factory.mktemp("rank5") / "rep.json"
        path.write_text(json.dumps({
            "signature": text, "n": 5, "group_tag": "SL",
            "matrices": [[f"{x:.17g}" for x in m.ravel()] for m in mats],
        }))
        out[text] = str(path)
    return out


@pytest.mark.parametrize("text, p, d, row, display, checks", PANEL)
def test_rank5_files_match_the_weil_counts(rank5_files, text, p, d, row, display, checks):
    req = AnalysisRequest(parse_signature(text), rep_path=rank5_files[text])
    report = analyze(req)
    assert report.n == 5
    assert report.dims == {"p": p, "d": d, "b": 0}
    assert (p, d) == _weil_counts(load_representation(req.rep_path))
    assert (report.model.provenance, report.model.display) == (row, display)
    assert [e.name for e in report.ledger if not e.passed] == []
    ledger = verify_suite(req)
    assert len(ledger) == checks
    assert [e.name for e in ledger if not e.passed] == []

