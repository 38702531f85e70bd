"""Rank with an explicit tolerance policy.

Float (and complex) matrices go through the SVD.  Every numeric rank
decision is made against a RankPolicy threaded in by the caller; there
is no module-level tolerance state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "RankPolicy",
    "LinalgError",
    "rank",
    "rank_cut",
]


class LinalgError(ValueError):
    pass


class RankPolicy(NamedTuple):
    """Singular values below max(relative * s_max, absolute) count as zero."""

    relative: float = 1e-9
    absolute: float = 1e-12

    def threshold(self, s_max: float) -> float:
        return max(self.relative * s_max, self.absolute)


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


def rank(m, policy: RankPolicy) -> int:
    return rank_cut(np.linalg.svd(_as_float_array(m), compute_uv=False), policy)[0]
