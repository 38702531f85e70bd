"""Numerical rank against an exact rational oracle, plus the rank-cut
rule and the kernel contract the cohomology layer relies on."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from charvar.linalg import (
    RankPolicy,
    kernel_basis,
    rank,
    rank_cut,
    rank_report,
)

POLICY = RankPolicy()


def rank_by_elimination(rows):
    """Gaussian elimination over Q.  Reference the float path must match
    on integer input."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat or not mat[0]:
        return 0
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c] / mat[r][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


int_matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def test_policy_defaults():
    assert POLICY.relative == 1e-9
    assert POLICY.absolute == 1e-12


def test_rank_known_matrices():
    assert rank(np.eye(4), POLICY) == 4
    assert rank(np.zeros((3, 5)), POLICY) == 0
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]]), POLICY) == 1


@given(int_matrices)
def test_rank_matches_exact_oracle(rows):
    assert rank(np.array(rows, dtype=float), POLICY) == rank_by_elimination(rows)


def test_rank_report_gap_is_infinite_without_a_cut():
    assert rank_report(np.eye(3), POLICY).gap == np.inf
    assert rank_report(np.zeros((2, 2)), POLICY).gap == np.inf
    # a threshold above s_max drops everything: rank 0, nothing kept
    everything_dropped = rank_report(np.eye(2), RankPolicy(relative=2.0))
    assert everything_dropped.rank == 0 and everything_dropped.gap == np.inf


def test_rank_report_gap_across_a_cut():
    report = rank_report(np.diag([1.0, 1e-15]), POLICY)
    assert report.rank == 1
    assert report.gap > 1e10


def test_rank_report_respects_policy():
    mat = np.diag([1.0, 1e-6])
    assert rank_report(mat, POLICY).rank == 2
    assert rank_report(mat, RankPolicy(relative=1e-3, absolute=1e-12)).rank == 1


def test_kernel_basis_contract():
    rng = np.random.default_rng(3)
    # rank-2 by construction, so a 5 - 2 = 3 dimensional kernel
    mat = rng.standard_normal((4, 2)) @ rng.standard_normal((2, 5))
    k = kernel_basis(mat, POLICY)
    assert k.shape == (5, 3)
    np.testing.assert_allclose(k.T @ k, np.eye(3), atol=1e-12)
    assert np.abs(mat @ k).max() < 1e-12


def test_rank_cut_reads_descending_singular_values():
    assert rank_cut(np.array([3.0, 1.0, 1e-12]), POLICY) == (2, 1e12)
    assert rank_cut(np.array([3.0, 1.0]), POLICY) == (2, np.inf)
    assert rank_cut(np.zeros(2), POLICY) == (0, np.inf)
    assert rank_cut(np.array([]), POLICY) == (0, np.inf)
    # rank_report and kernel_basis make the same decision
    mat = np.diag([1.0, 1e-6, 1e-13])
    s = np.linalg.svd(mat, compute_uv=False)
    r, gap = rank_cut(s, POLICY)
    assert (r, gap) == (rank_report(mat, POLICY).rank, rank_report(mat, POLICY).gap)
    assert kernel_basis(mat, POLICY).shape[1] == 3 - r
