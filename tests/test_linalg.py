"""Numerical rank against an exact rational oracle, plus the rank-cut
rule and the contract of the kernel reference the tests check the
cohomology layer against."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from charvar.linalg import (
    RankPolicy,
    rank,
    rank_cut,
)
from conftest import kernel_basis

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


def singular_values(m):
    return np.linalg.svd(m, compute_uv=False)


def test_rank_cut_gap_is_infinite_without_a_cut():
    assert rank_cut(singular_values(np.eye(3)), POLICY)[1] == np.inf
    assert rank_cut(singular_values(np.zeros((2, 2))), POLICY)[1] == np.inf
    # a threshold above s_max drops everything: rank 0, nothing kept
    assert rank_cut(singular_values(np.eye(2)), RankPolicy(relative=2.0)) == (0, np.inf)


def test_rank_cut_gap_across_a_cut():
    r, gap = rank_cut(singular_values(np.diag([1.0, 1e-15])), POLICY)
    assert r == 1
    assert gap > 1e10


def test_rank_cut_respects_policy():
    s = singular_values(np.diag([1.0, 1e-6]))
    assert rank_cut(s, POLICY)[0] == 2
    assert rank_cut(s, RankPolicy(relative=1e-3, absolute=1e-12))[0] == 1


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
    # rank and kernel_basis make the same decision
    mat = np.diag([1.0, 1e-6, 1e-13])
    r, _ = rank_cut(singular_values(mat), POLICY)
    assert r == rank(mat, POLICY)
    assert kernel_basis(mat, POLICY).shape[1] == 3 - r


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(9, 4), (5, 5), (3, 7)], ids=["tall", "square", "wide"])
def test_kernel_basis_on_tall_square_and_wide(shape, dtype):
    """Tall and square systems skip the full U, wide ones need the full V;
    either way the kernel is the one a full factorization gives."""
    rng = np.random.default_rng(11)
    rows, cols = shape
    left = rng.standard_normal((rows, 2))
    right = rng.standard_normal((2, cols))
    if dtype is complex:
        left = left + 1j * rng.standard_normal(left.shape)
        right = right + 1j * rng.standard_normal(right.shape)
    mat = left @ right
    s = np.linalg.svd(mat, compute_uv=False)
    expect = cols - rank_cut(s, POLICY)[0]
    k = kernel_basis(mat, POLICY)
    assert k.shape == (cols, expect) == (cols, cols - 2)
    np.testing.assert_allclose(k.conj().T @ k, np.eye(expect), atol=1e-12)
    assert np.abs(mat @ k).max() < 1e-12
