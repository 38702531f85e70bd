"""Rank with an explicit tolerance policy, and the package's seeded draws.

Float (and complex) matrices go through the SVD.  Every numeric rank
decision is made against a RankPolicy threaded in by the caller; there
is no module-level tolerance state.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np

__all__ = [
    "RankPolicy",
    "LinalgError",
    "SeededDraws",
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


# Box-Muller reads a pair of 32-bit uniforms (u, v) as -u and the angle
# 2 pi v, scaled in one product; cos(t - pi/2) = sin t, so one cosine
# call gives both normals of the pair
_PAIR_SCALE = np.array([[-(2.0**-32)], [2.0 * np.pi * 2.0**-32]])
_QUARTER_TURN = np.array([[0.0], [0.5 * np.pi]])


class SeededDraws:
    """Seeded uniforms and standard normals: Mersenne Twister bits from the
    standard library's random.Random(seed) (Matsumoto and Nishimura 1998),
    turned into normals by the Box-Muller transform (Box and Muller 1958).
    numpy loads the standard library's generator anyway, so no sampling
    site imports numpy's random module.  Each call pays a fixed few
    microseconds, so each site draws all its vectors in one call."""

    def __init__(self, seed: int):
        self._mt = random.Random(seed)

    def uniform(self) -> float:
        """One uniform in [0, 1)."""
        return self._mt.random()

    def normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normals of the given shape from one read of the
        generator: each pair of 32-bit uniforms (u, v) gives the two
        normals r cos(2 pi v) and r sin(2 pi v), r = sqrt(-2 log(1 - u))."""
        size = math.prod(shape)
        half = (size + 1) // 2
        bits = np.frombuffer(self._mt.randbytes(8 * half), dtype="<u4").reshape(2, half)
        scaled = bits * _PAIR_SCALE
        pairs = np.cos(scaled[1] - _QUARTER_TURN)
        # 1 - u lies in (0, 1], so the logarithm is finite
        pairs *= np.sqrt(np.log1p(scaled[0]) * -2.0)
        return pairs.reshape(-1)[:size].reshape(shape)
