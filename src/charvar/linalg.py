"""Rank and kernel with an explicit tolerance policy.

Float (and complex) matrices go through the SVD.  Every numeric rank
decision is made against a RankPolicy threaded in by the caller; there
is no module-level tolerance state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RankPolicy",
    "RankReport",
    "LinalgError",
    "rank",
    "rank_report",
    "rank_cut",
    "kernel_basis",
]


class LinalgError(ValueError):
    pass


@dataclass(frozen=True)
class RankPolicy:
    """Singular values below max(relative * s_max, absolute) count as zero."""

    relative: float = 1e-9
    absolute: float = 1e-12

    def threshold(self, s_max: float) -> float:
        return max(self.relative * s_max, self.absolute)


@dataclass(frozen=True)
class RankReport:
    """Rank decision plus the spectral evidence it was made on.

    gap is the ratio between the smallest kept and the largest dropped
    singular value (inf when nothing was dropped or nothing kept), the
    quantity downstream consumers audit before trusting the rank.
    """

    rank: int
    gap: float
    singular_values: tuple[float, ...]


def _as_float_array(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2:
        raise LinalgError(f"expected a 2d matrix, got shape {a.shape}")
    if a.dtype == object:
        raise LinalgError("object arrays are not supported; pass a float or complex matrix")
    return a


def rank_cut(s, policy: RankPolicy) -> tuple[int, float]:
    """Rank and gap read off descending singular values s: the values
    above policy.threshold(s_max) are kept.  One rule for every rank
    decision of the package."""
    s_max = float(s[0]) if len(s) else 0.0
    if s_max == 0.0:
        return 0, float("inf")
    r = int(np.sum(s > policy.threshold(s_max)))
    if r == 0 or r == len(s) or s[r] == 0.0:
        return r, float("inf")
    return r, float(s[r - 1] / s[r])


def rank_report(m, policy: RankPolicy) -> RankReport:
    a = _as_float_array(m)
    if a.size == 0:
        return RankReport(rank=0, gap=float("inf"), singular_values=())
    s = np.linalg.svd(a, compute_uv=False)
    r, gap = rank_cut(s, policy)
    return RankReport(rank=r, gap=gap, singular_values=tuple(float(x) for x in s))


def rank(m, policy: RankPolicy) -> int:
    return rank_report(m, policy).rank


def kernel_basis(m, policy: RankPolicy) -> np.ndarray:
    """Columns form an orthonormal basis of the (right) null space."""
    a = _as_float_array(m)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=a.dtype)
    _, s, vt = np.linalg.svd(a, full_matrices=True)
    r, _ = rank_cut(s, policy)
    return vt[r:].conj().T
