"""The closed orientable builders are explicit geometry: inputs the
least-squares builders got wrong now verify, no least squares runs on
them, and the verify gates that follow the representation's rounding
keep their distance from the bounds."""

from __future__ import annotations

import numpy as np
import pytest

import charvar.reps as reps
from charvar.cohomology import BlockComplex, cocycle_residual
from charvar.pipeline import analyze, request_from_text, verify_suite

# the closed-verify benchmark inputs
CLOSED_INPUTS = (
    "S2(2,3,7)",
    "S2(3,3,3,3)",
    "S2(3,3,3,3,3)",
    "S2(3,3,3,3,3,3,3)",
    "O(g=2)",
    "O(g=1;cone=[3])",
)


def failed(ledger):
    return [e.name for e in ledger if not e.passed]


@pytest.mark.parametrize("seed", [562571390, 328138489, 1730636620])
def test_six_cone_points_verify_at_the_seeds_the_optimizer_failed(seed):
    """The least-squares polygon gave a failed gate, a CohomologyError and
    p = 22, d = 7 at these seeds."""
    report = analyze(request_from_text("S2(3,3,3,3,3,3)", seed=seed, checks=("all",)))
    assert failed(report.ledger) == []
    assert report.dims == {"p": 20, "d": 6, "b": 0}


@pytest.mark.parametrize("text", ["S2(5,5,5)", "S2(7,7,7)"])
@pytest.mark.parametrize("seed", [0, 3])
def test_equal_order_triangles_verify(text, seed):
    """The law-of-cosines triangle, with a vertex at the origin, made the
    stabilizer powers in twisted_euler miss their order on these."""
    assert failed(verify_suite(request_from_text(text, seed=seed))) == []


def test_closed_inputs_verify_without_least_squares(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("least squares on a closed orientable input")

    monkeypatch.setattr(reps, "least_squares", refuse)
    for text in CLOSED_INPUTS:
        assert failed(verify_suite(request_from_text(text))) == [], text


@pytest.mark.parametrize("seed", [0, 3])
def test_genus_two_gates_sit_far_below_their_bounds(seed):
    ledger = {e.name: e for e in verify_suite(request_from_text("O(g=2)", seed=seed))}
    assert all(e.passed for e in ledger.values())
    assert ledger["fox-coboundary-exactness"].margin <= 2e-12  # bound 1e-11
    assert ledger["h1-cocycle-residual"].margin <= 1e-10  # bound 1e-8


def test_batched_cocycle_residual_matches_the_per_cocycle_maximum(quad):
    for label in ("g0", "m_c", "full_g"):
        block = BlockComplex(quad.pres, getattr(quad.sd, label))
        each = max(
            float(np.abs(z.on_word(r)).max()) for z in block.h1_cocycles for r in quad.pres.relators
        )
        batched = cocycle_residual(quad.pres, block.module, block.h1_basis)
        assert batched == pytest.approx(each, rel=1e-6, abs=1e-15)


def test_cocycle_residual_walks_every_column(quad):
    """On stacked values that are no cocycles, the one walk per relator
    reads every column's relator values off the Fox matrix."""
    block = BlockComplex(quad.pres, quad.sd.full_g)
    stacked = np.random.default_rng(0).standard_normal((block.fox.shape[1], 3))
    worst = float(np.abs(block.fox @ stacked).max())
    assert cocycle_residual(quad.pres, block.module, stacked) == pytest.approx(worst, rel=1e-12)
    for j in range(3):
        column = stacked[:, j : j + 1]
        expected = float(np.abs(block.fox @ column).max())
        assert cocycle_residual(quad.pres, block.module, column) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("perturbed", [False, True])
def test_h1_cocycle_gate_catches_one_perturbed_column(monkeypatch, perturbed):
    """One basis column of full_g moved off Z^1 by 1e-6 fails the gate
    even though every other column of every complex is a cocycle."""
    real = BlockComplex.h1_basis.func

    def basis(self):
        out = real(self)
        if perturbed and self.module.label == "full_g":
            out = out.copy()
            out[0, -1] += 1e-6
        return out

    monkeypatch.setattr(BlockComplex, "h1_basis", property(basis))
    ledger = {e.name: e for e in verify_suite(request_from_text("S2(3,3,3,3)"))}
    assert ledger["h1-cocycle-residual"].passed != perturbed

