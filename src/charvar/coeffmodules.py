"""Group modules over a finitely presented group.

A CoefficientModule is an action of the group on R^N given by one
invertible matrix per generator.  Besides the trivial, contragredient
and adjoint constructions, this module carries the block decomposition
of the traceless (n+1) x (n+1) matrices under a representation embedded
as diag(A, c): the adjoint block g0, the last-column block m_c, the
last-row block m_r and the line d spanned by diag(1, ..., 1, -n).  m_c
transforms like c A (the defining representation, twisted by the
determinant character under the orientable embedding), m_r like its
contragredient, d trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .reps import Representation, embed

__all__ = [
    "CoeffModuleError",
    "CoefficientModule",
    "SlDecomposition",
    "trivial_module",
    "contragredient",
    "twist_by_character",
    "adjoint_module",
    "decompose_sl",
    "sl_basis",
    "sl_coords",
    "sl_matrix",
]

MODULE_LABELS = ("g0", "m_c", "m_r", "d", "full_g", "trivial", "custom")

# Error model of SlDecomposition.block_equivariance.  Both sides of the
# check are adjoint actions M B M^-1 of the same generators, built from
# separately rounded inverses.  An inverse carries relative error
# ~ eps * kappa(M), kappa(M) = |M| |M^-1|, so an entry of M B M^-1 is off
# by ~ eps * kappa(M)^2.  The action scale s = max(1, max|full_g|) is of
# order kappa(M), so the defect divided by s is ~ eps * s; the constant
# leaves room for the dimension factors of the matrix products.  A block
# that is not a submodule, such as m_c carrying the other embedding's
# twist, is off by O(1) instead.
EQUIVARIANCE_ULPS = 64


class CoeffModuleError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class CoefficientModule:
    label: str
    action: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.label not in MODULE_LABELS:
            raise CoeffModuleError(f"unknown module label {self.label!r}")
        mats = tuple(np.asarray(m, dtype=float) for m in self.action)
        dims = {m.shape for m in mats}
        if len(dims) > 1 or any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in mats):
            raise CoeffModuleError("generator actions must be square matrices of one size")
        for i, m in enumerate(mats):
            if abs(np.linalg.det(m)) < 1e-12:
                raise CoeffModuleError(f"action of generator {i + 1} is singular")
        object.__setattr__(self, "action", mats)

    @property
    def dim(self) -> int:
        return self.action[0].shape[0] if self.action else 0

    @property
    def num_generators(self) -> int:
        return len(self.action)

    @cached_property
    def _inverses(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linalg.inv(m) for m in self.action)

    def act(self, letter: int) -> np.ndarray:
        if letter > 0:
            return self.action[letter - 1]
        return self._inverses[-letter - 1]

    def evaluate_word(self, w) -> np.ndarray:
        out = np.eye(self.dim)
        for x in w:
            out = out @ self.act(x)
        return out


def _matrices_of(rep_or_matrices) -> tuple[np.ndarray, ...]:
    mats = getattr(rep_or_matrices, "matrices", rep_or_matrices)
    return tuple(np.asarray(m, dtype=float) for m in mats)


def trivial_module(num_generators: int, dim: int = 1) -> CoefficientModule:
    eye = np.eye(dim)
    return CoefficientModule("trivial", tuple(eye for _ in range(num_generators)))


def contragredient(m: CoefficientModule, label: str = "custom") -> CoefficientModule:
    mats = tuple(np.linalg.inv(a).T for a in m.action)
    return CoefficientModule(label, mats)


def twist_by_character(m: CoefficientModule, signs, label: str | None = None) -> CoefficientModule:
    signs = tuple(signs)
    if len(signs) != m.num_generators or any(s not in (1, -1) for s in signs):
        raise CoeffModuleError("character must give +1 or -1 per generator")
    mats = tuple(s * a for s, a in zip(signs, m.action))
    return CoefficientModule(label or m.label, mats)


def sl_basis(m: int) -> list[np.ndarray]:
    """Elementary matrices e_ij (i != j, row-major), then e_ii - e_{i+1,i+1}."""
    out = []
    for i in range(m):
        for j in range(m):
            if i != j:
                e = np.zeros((m, m))
                e[i, j] = 1.0
                out.append(e)
    for i in range(m - 1):
        h = np.zeros((m, m))
        h[i, i] = 1.0
        h[i + 1, i + 1] = -1.0
        out.append(h)
    return out


def sl_coords(X) -> np.ndarray:
    """Coordinates in the sl_basis order; the trace part is discarded."""
    X = np.asarray(X, dtype=float)
    m = X.shape[0]
    out = [X[i, j] for i in range(m) for j in range(m) if i != j]
    out.extend(np.cumsum(np.diagonal(X))[:-1])
    return np.array(out)


def sl_matrix(v, m: int) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (m * m - 1,):
        raise CoeffModuleError(f"expected {m * m - 1} coordinates, got {v.shape}")
    X = np.zeros((m, m))
    k = 0
    for i in range(m):
        for j in range(m):
            if i != j:
                X[i, j] = v[k]
                k += 1
    c = np.concatenate([[0.0], v[k:], [0.0]])
    for i in range(m):
        X[i, i] = c[i + 1] - c[i]
    return X


def adjoint_module(rep_or_matrices, label: str = "custom") -> CoefficientModule:
    """Conjugation action on traceless matrices, in sl_basis coordinates."""
    mats = _matrices_of(rep_or_matrices)
    m = mats[0].shape[0]
    basis = sl_basis(m)
    action = []
    for M in mats:
        Minv = np.linalg.inv(M)
        cols = [sl_coords(M @ B @ Minv) for B in basis]
        action.append(np.column_stack(cols))
    return CoefficientModule(label, tuple(action))


@dataclass(frozen=True, eq=False)
class SlDecomposition:
    """Block decomposition of the ambient traceless algebra.

    embedded is the representation in the ambient group, built by
    reps.embed: diag(A, det A) for the orientable embedding, diag(A, 1)
    otherwise.  Block coordinates reach the ambient algebra through
    inclusions; pi_d reads a plain (n+1) x (n+1) matrix in units of
    D = diag(1, ..., 1, -n).
    """

    n: int
    embedding: str
    embedded: Representation
    g0: CoefficientModule
    m_c: CoefficientModule
    m_r: CoefficientModule
    d: CoefficientModule
    full_g: CoefficientModule
    killing_multiplier: float

    @property
    def hat_matrices(self) -> tuple[np.ndarray, ...]:
        return self.embedded.matrices

    @property
    def ambient_dim(self) -> int:
        return (self.n + 1) ** 2 - 1

    def pi_d(self, X) -> float:
        return -float(np.asarray(X)[self.n, self.n]) / self.n

    def to_matrix(self, v) -> np.ndarray:
        return sl_matrix(v, self.n + 1)

    @cached_property
    def inclusions(self) -> dict[str, np.ndarray]:
        """Inc_b for each block b: the ambient coordinates of the block's
        basis vectors, one column each.  g0 fills the top-left corner, m_c
        the last column, m_r the last row, and d spans D."""
        n = self.n
        lifts = {
            "g0": lambda v: np.pad(sl_matrix(v, n), (0, 1)),
            "m_c": lambda v: np.pad(v[:, None], ((0, 1), (n, 0))),
            "m_r": lambda v: np.pad(v[None, :], ((n, 0), (0, 1))),
            "d": lambda v: v[0] * np.diag([1.0] * n + [-float(n)]),
        }
        return {
            label: np.column_stack([sl_coords(lift(e)) for e in np.eye(getattr(self, label).dim)])
            for label, lift in lifts.items()
        }

    @cached_property
    def cross_form(self) -> np.ndarray:
        """The Killing form pairing m_r against m_c: the row y against the
        column x gives killing_multiplier * (y . x)."""
        return self.killing_multiplier * np.eye(self.n)

    def block_equivariance(self) -> tuple[float, float]:
        """How far each block is from a submodule of full_g: the largest
        |full_g(g) Inc_b - Inc_b b(g)| over generators g and blocks b,
        divided by max(1, max|full_g|), and the bound it is held to."""
        scale = max(1.0, max(float(np.abs(a).max()) for a in self.full_g.action))
        worst = 0.0
        for label, inc in self.inclusions.items():
            for amb, act in zip(self.full_g.action, getattr(self, label).action):
                worst = max(worst, float(np.abs(amb @ inc - inc @ act).max()))
        return worst / scale, EQUIVARIANCE_ULPS * float(np.finfo(float).eps) * scale


def decompose_sl(rep: Representation, embedding: str = "standard") -> SlDecomposition:
    """Embed rep as diag(A, c) (reps.embed) and split the ambient algebra:
    m_c is acted on by c A, m_r by its contragredient."""
    embedded = embed(rep, embedding)
    n = rep.n
    m_c = CoefficientModule("m_c", tuple(H[n, n] * H[:n, :n] for H in embedded.matrices))
    return SlDecomposition(
        n=n,
        embedding=embedding,
        embedded=embedded,
        g0=adjoint_module(rep, label="g0"),
        m_c=m_c,
        m_r=contragredient(m_c, label="m_r"),
        d=CoefficientModule("d", trivial_module(rep.num_generators).action),
        full_g=adjoint_module(embedded, label="full_g"),
        killing_multiplier=2.0 * (n + 1),
    )
