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

from functools import cached_property, lru_cache

import numpy as np

from ._record import Frozen, frozen
from .reps import Representation, _derived, embed

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


class CoefficientModule(Frozen):
    def __init__(self, label: str, action: tuple[np.ndarray, ...]):
        if label not in MODULE_LABELS:
            raise CoeffModuleError(f"unknown module label {label!r}")
        mats = tuple(np.asarray(m, dtype=float) for m in action)
        dims = {m.shape for m in mats}
        if len(dims) > 1 or any(m.ndim != 2 or m.shape[0] != m.shape[1] for m in mats):
            raise CoeffModuleError("generator actions must be square matrices of one size")
        singular = np.flatnonzero(np.abs(np.linalg.det(np.array(mats))) < 1e-12) if mats else []
        if len(singular):
            raise CoeffModuleError(f"action of generator {singular[0] + 1} is singular")
        vars(self).update(label=label, action=mats)

    @property
    def dim(self) -> int:
        return self.action[0].shape[0] if self.action else 0

    @property
    def num_generators(self) -> int:
        return len(self.action)

    @cached_property
    def _inverses(self) -> tuple[np.ndarray, ...]:
        return tuple(frozen(np.linalg.inv(np.array(self.action)))) if self.action else ()

    def act(self, letter: int) -> np.ndarray:
        if letter > 0:
            return self.action[letter - 1]
        return self._inverses[-letter - 1]

    def evaluate_word(self, w) -> np.ndarray:
        out = np.eye(self.dim)
        for x in w:
            out = out @ self.act(x)
        return out


def _module(label: str, action) -> CoefficientModule:
    """A module made from a checked module or representation, whose
    checks it would only repeat; only the new label is checked.  Its
    action matrices are the package's own, made read-only."""
    if label not in MODULE_LABELS:
        raise CoeffModuleError(f"unknown module label {label!r}")
    return _derived(CoefficientModule, label=label, action=tuple(frozen(a) for a in action))


def trivial_module(num_generators: int, dim: int = 1) -> CoefficientModule:
    return _module("trivial", (np.eye(dim),) * num_generators)


def contragredient(m: CoefficientModule, label: str = "custom") -> CoefficientModule:
    return _module(label, (a.T for a in m._inverses))


def twist_by_character(m: CoefficientModule, signs, label: str | None = None) -> CoefficientModule:
    signs = tuple(signs)
    if len(signs) != m.num_generators or any(s not in (1, -1) for s in signs):
        raise CoeffModuleError("character must give +1 or -1 per generator")
    return _module(label or m.label, (s * a for s, a in zip(signs, m.action)))


@lru_cache(maxsize=None)
def _sl_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major flat indices of the off-diagonal entries of an m x m
    matrix, in sl_basis order, and of its diagonal."""
    flat = np.arange(m * m).reshape(m, m)
    off = flat[~np.eye(m, dtype=bool)]
    off.flags.writeable = False
    return off, np.diag(flat)  # a diagonal view, read-only like off


def sl_basis(m: int) -> list[np.ndarray]:
    """Elementary matrices e_ij (i != j, row-major), then e_ii - e_{i+1,i+1}."""
    return list(sl_matrix(np.eye(m * m - 1), m))


def sl_coords(X) -> np.ndarray:
    """Coordinates in the sl_basis order of a matrix or a stack (..., m, m)
    of them; the trace part is discarded."""
    X = np.asarray(X, dtype=float)
    off, diag = _sl_index(X.shape[-1])
    flat = X.reshape(X.shape[:-2] + (-1,))
    return np.concatenate([flat[..., off], np.cumsum(flat[..., diag], axis=-1)[..., :-1]], axis=-1)


def sl_matrix(v, m: int) -> np.ndarray:
    """The traceless matrix, or stack (..., m, m), with sl_basis coordinates v."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (m * m - 1,):
        raise CoeffModuleError(f"expected {m * m - 1} coordinates, got {v.shape}")
    off, diag = _sl_index(m)
    X = np.zeros(v.shape[:-1] + (m * m,))
    X[..., off] = v[..., : len(off)]
    # e_ii - e_{i+1,i+1} in coordinate i puts c_{i+1} - c_i on the diagonal
    c = np.zeros(v.shape[:-1] + (m + 1,))
    c[..., 1:m] = v[..., len(off) :]
    X[..., diag] = np.diff(c, axis=-1)
    return X.reshape(v.shape[:-1] + (m, m))


def adjoint_module(rep_or_matrices, label: str = "custom") -> CoefficientModule:
    """Conjugation action on traceless matrices, in sl_basis coordinates.

    Row-major, vec(M B M^-1) = (M (x) M^-T) vec(B): conjugating the
    elementary matrix e_cd gives the matrix with entries M[a, c] M^-1[d, b].
    These images, formed for every generator at once, are combined into the
    sl_basis images and read back in sl coordinates."""
    mats = np.array(getattr(rep_or_matrices, "matrices", rep_or_matrices), dtype=float)
    g, m = mats.shape[:2]
    off, diag = _sl_index(m)
    images = np.einsum("gac,gdb->gcdab", mats, np.linalg.inv(mats)).reshape(g, m * m, m, m)
    cols = np.concatenate([images[:, off], images[:, diag[:-1]] - images[:, diag[1:]]], axis=1)
    action = np.ascontiguousarray(sl_coords(cols).transpose(0, 2, 1))
    return _module(label, action)


@lru_cache(maxsize=None)
def _ambient_constants(n: int) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The inclusions and bracket_d of SlDecomposition, which depend on n
    only; read-only, since every decomposition of rank n shares them."""
    k = np.arange(n)
    col, row = np.zeros((2, n, n + 1, n + 1))
    col[k, k, n] = 1.0
    row[k, n, k] = 1.0
    inclusions = {
        "g0": sl_coords(np.pad(sl_matrix(np.eye(n * n - 1), n), ((0, 0), (0, 1), (0, 1)))).T,
        "m_c": sl_coords(col).T,
        "m_r": sl_coords(row).T,
        "d": sl_coords(np.diag([1.0] * n + [-float(n)]))[:, None],
    }
    basis = np.array(sl_basis(n + 1))
    # the (n, n) entry of E_i E_j is E_i[n, :] . E_j[:, n]
    corner = basis[:, n, :] @ basis[:, :, n].T
    bracket = -(corner - corner.T) / n
    for a in (*inclusions.values(), bracket):
        a.flags.writeable = False
    return inclusions, bracket


class SlDecomposition(Frozen):
    """Block decomposition of the ambient traceless algebra.

    embedded is the representation in the ambient group, built by
    reps.embed: diag(A, det A) for the orientable embedding, diag(A, 1)
    otherwise.  Block coordinates reach the ambient algebra through
    inclusions; pi_d reads a plain (n+1) x (n+1) matrix in units of
    D = diag(1, ..., 1, -n), and bracket_d is pi_d of the bracket as a
    bilinear form on ambient coordinates.
    """

    def __init__(
        self,
        n: int,
        embedded: Representation,
        g0: CoefficientModule,
        m_c: CoefficientModule,
        m_r: CoefficientModule,
        d: CoefficientModule,
        full_g: CoefficientModule,
        killing_multiplier: float,
    ):
        vars(self).update(
            n=n, embedded=embedded, g0=g0, m_c=m_c, m_r=m_r, d=d,
            full_g=full_g, killing_multiplier=killing_multiplier,
        )

    @property
    def hat_matrices(self) -> tuple[np.ndarray, ...]:
        return self.embedded.matrices

    def pi_d(self, X) -> float:
        return -float(np.asarray(X)[self.n, self.n]) / self.n

    def to_matrix(self, v) -> np.ndarray:
        return sl_matrix(v, self.n + 1)

    @property
    def inclusions(self) -> dict[str, np.ndarray]:
        """Inc_b for each block b: the ambient coordinates of the block's
        basis vectors, one column each.  g0 fills the top-left corner, m_c
        the last column, m_r the last row, and d spans D."""
        return _ambient_constants(self.n)[0]

    def lift(self, label: str, stacked: np.ndarray) -> np.ndarray:
        """Ambient coordinates of stacked block cochains, one per column:
        Inc_b applied to every generator's value."""
        inc, g, k = self.inclusions[label], self.full_g.num_generators, stacked.shape[1]
        return (inc @ stacked.reshape(g, inc.shape[1], k)).reshape(g * inc.shape[0], k)

    @property
    def bracket_d(self) -> np.ndarray:
        """K[i, j] = pi_d([E_i, E_j]) over the ambient basis E = sl_basis(n + 1),
        so pi_d([X, Y]) = x @ K @ y on ambient coordinates."""
        return _ambient_constants(self.n)[1]

    @cached_property
    def cross_form(self) -> np.ndarray:
        """The Killing form pairing m_r against m_c: the row y against the
        column x gives killing_multiplier * (y . x)."""
        return frozen(self.killing_multiplier * np.eye(self.n))

    def block_equivariance(self) -> tuple[float, float]:
        """How far each block is from a submodule of full_g: the largest
        |full_g(g) Inc_b - Inc_b b(g)| over generators g and blocks b,
        divided by max(1, max|full_g|), and the bound it is held to."""
        amb = np.array(self.full_g.action)
        scale = max(1.0, float(np.abs(amb).max()))
        worst = 0.0
        for label, inc in self.inclusions.items():
            act = np.array(getattr(self, label).action)
            worst = max(worst, float(np.abs(amb @ inc - inc @ act).max()))
        return worst / scale, EQUIVARIANCE_ULPS * float(np.finfo(float).eps) * scale


def decompose_sl(rep: Representation, embedding: str = "standard") -> SlDecomposition:
    """Embed rep as diag(A, c) (reps.embed) and split the ambient algebra:
    m_c is acted on by c A, m_r by its contragredient."""
    embedded = embed(rep, embedding)
    n = rep.n
    m_c = _module("m_c", (H[n, n] * H[:n, :n] for H in embedded.matrices))
    return SlDecomposition(
        n=n,
        embedded=embedded,
        g0=adjoint_module(rep, label="g0"),
        m_c=m_c,
        m_r=contragredient(m_c, label="m_r"),
        d=_module("d", trivial_module(rep.num_generators).action),
        full_g=adjoint_module(embedded, label="full_g"),
        killing_multiplier=2.0 * (n + 1),
    )
