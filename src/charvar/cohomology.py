"""Low-degree group cohomology with matrix coefficients.

Z^1 is the kernel of the Fox-derivative matrix of the relators, B^1 the
image of the coboundary map v -> (gv - v)_g, and H^0 the joint fixed
space of the generators.  H^2 is never assembled from bar-resolution
cochains: with a boundary it vanishes, and for closed groups it is the
fixed space of the (orientation-twisted) contragredient module, by
duality.  A BlockComplex factors both matrices of one coefficient block
once; dimensions, the H^1 basis and the verify checks all read it.  The
ambient algebra full_g = g0 + m_c + m_r + d is a direct sum of modules,
so its row of the table is the sum of the block rows.

Evaluation of a 2-cocycle against the fundamental class transgresses
the long relator r = l_1...l_L as sum of c(l_1...l_{t-1}, l_t), then
subtracts one c(g^{-1}, g) per inverse letter and (mu/n) times the
transgression of the torsion relator g^n per torsion generator with
unbalanced signed count mu.  The corrected chain has zero bar-complex
boundary, which is what makes the pairing vanish on coboundaries; these
corrections are the load-bearing part of the formula and are gated by
the coboundary-vanishing test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .coeffmodules import CoefficientModule, contragredient, twist_by_character
from .linalg import RankPolicy, kernel_basis, rank_cut
from .presentation import GroupPresentation, Word

__all__ = [
    "CohomologyError",
    "Cocycle",
    "TwoCocycle",
    "HDims",
    "fox_matrix",
    "coboundary_matrix",
    "BlockComplex",
    "twisted_euler",
    "cup",
    "pair_fundamental_class",
    "goldman_obstruction",
    "ObstructionResult",
    "cocycle_from_stack",
    "weil_slope",
    "fundamental_pairing_matrix",
    "ModuleCohomology",
    "CohomologyReport",
    "BLOCKS",
    "cohomology_report",
]

# the coefficient blocks of the ambient algebra, in table order
BLOCKS = ("g0", "m_c", "m_r", "d")


class CohomologyError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class Cocycle:
    """One value vector per generator; values on words extend by
    z(uv) = z(u) + u z(v), which forces z(g^{-1}) = -g^{-1} z(g)."""

    module: CoefficientModule
    values: tuple[np.ndarray, ...]

    def __post_init__(self):
        vals = tuple(np.asarray(v, dtype=float) for v in self.values)
        if len(vals) != self.module.num_generators:
            raise CohomologyError("one value per generator required")
        if any(v.shape != (self.module.dim,) for v in vals):
            raise CohomologyError("cocycle values must match the module dimension")
        object.__setattr__(self, "values", vals)

    def on_word(self, w: Word) -> np.ndarray:
        out = np.zeros(self.module.dim)
        prefix = np.eye(self.module.dim)
        for x in w:
            if x > 0:
                out += prefix @ self.values[x - 1]
                prefix = prefix @ self.module.act(x)
            else:
                prefix = prefix @ self.module.act(x)
                out -= prefix @ self.values[-x - 1]
        return out

    def stack(self) -> np.ndarray:
        return np.concatenate(self.values) if self.values else np.zeros(0)

    def fox_residual(self, pres: GroupPresentation) -> float:
        worst = 0.0
        for r in pres.relators:
            worst = max(worst, float(np.abs(self.on_word(r)).max()))
        return worst


def cocycle_from_stack(m: CoefficientModule, vec) -> Cocycle:
    vec = np.asarray(vec, dtype=float).ravel()
    n = m.dim
    if vec.shape != (n * m.num_generators,):
        raise CohomologyError("stacked vector length does not match module")
    return Cocycle(m, tuple(vec[i * n : (i + 1) * n] for i in range(m.num_generators)))


def fox_matrix(pres: GroupPresentation, m: CoefficientModule) -> np.ndarray:
    """Rows: one N-block row per relator; the kernel of the full matrix is
    Z^1.  Fox rules through the module action: d(uv) = du + u dv,
    d(x)/dx = 1, d(x^{-1})/dx = -x^{-1}."""
    n = m.dim
    g = m.num_generators
    rows = np.zeros((n * len(pres.relators), n * g))
    for k, r in enumerate(pres.relators):
        blocks = [np.zeros((n, n)) for _ in range(g)]
        prefix = np.eye(n)
        for x in r:
            if x > 0:
                blocks[x - 1] += prefix
                prefix = prefix @ m.act(x)
            else:
                prefix = prefix @ m.act(x)
                blocks[-x - 1] -= prefix
        for i in range(g):
            rows[k * n : (k + 1) * n, i * n : (i + 1) * n] = blocks[i]
    return rows


def coboundary_matrix(pres: GroupPresentation, m: CoefficientModule) -> np.ndarray:
    """Columns span B^1 inside the stacked generator-value space."""
    n = m.dim
    out = np.zeros((n * m.num_generators, n))
    for i in range(m.num_generators):
        out[i * n : (i + 1) * n] = m.act(i + 1) - np.eye(n)
    return out


@dataclass(frozen=True)
class HDims:
    h0: int
    h1: int
    h2: int
    z1: int
    b1: int
    methods: dict = field(default_factory=dict)
    min_gap: float = float("inf")
    degenerate: bool = False

    @property
    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2


def _alpha_contragredient(pres: GroupPresentation, m: CoefficientModule) -> CoefficientModule:
    dual = contragredient(m)
    if pres.orientable:
        return dual
    return twist_by_character(dual, pres.orientation_character)


class BlockComplex:
    """C^0 -> C^1 -> C^2 of one coefficient block in low degree, each map
    built and factored once, on first use.

    The coboundary matrix (columns span B^1) goes through one thin SVD,
    the Fox matrix (kernel Z^1) through one full SVD; dims, the H^1 basis
    and the verify checks all read these two factorizations.  H^2 is 0
    with a boundary and, for a closed group, h0 of the complex of the
    alpha-contragredient module, by duality."""

    def __init__(
        self, pres: GroupPresentation, module: CoefficientModule, policy: RankPolicy | None = None
    ):
        self.pres = pres
        self.module = module
        self.policy = policy or RankPolicy()

    @cached_property
    def fox(self) -> np.ndarray:
        return fox_matrix(self.pres, self.module)

    @cached_property
    def cob(self) -> np.ndarray:
        return coboundary_matrix(self.pres, self.module)

    @cached_property
    def _z1(self) -> tuple[np.ndarray, float]:
        if self.fox.shape[0] == 0:
            return np.eye(self.fox.shape[1]), float("inf")
        _, s, vt = np.linalg.svd(self.fox, full_matrices=True)
        r, gap = rank_cut(s, self.policy)
        return vt[r:].T, gap

    @cached_property
    def _b1(self) -> tuple[np.ndarray, float]:
        u, s, _ = np.linalg.svd(self.cob, full_matrices=False)
        r, gap = rank_cut(s, self.policy)
        return u[:, :r], gap

    @property
    def z_basis(self) -> np.ndarray:
        """Orthonormal basis of Z^1, one stacked cocycle per column."""
        return self._z1[0]

    @property
    def h0(self) -> int:
        return self.module.dim - self._b1[0].shape[1]

    @cached_property
    def dims(self) -> HDims:
        m = self.module
        if m.num_generators == 0:
            return HDims(0, 0, 0, 0, 0, {"all": "degenerate"}, degenerate=True)
        z1 = self.z_basis.shape[1]
        b1 = self._b1[0].shape[1]
        if z1 < b1:
            raise CohomologyError(f"negative h1 = {z1 - b1}; rank policy inconsistent")
        if self.pres.closed:
            h2 = BlockComplex(self.pres, _alpha_contragredient(self.pres, m), self.policy).h0
            how = "duality"
        else:
            h2, how = 0, "boundary_vanishing"
        methods = {"h0": "fox", "h1": "fox", "h2": how}
        return HDims(self.h0, z1 - b1, h2, z1, b1, methods, min(self._z1[1], self._b1[1]))

    @cached_property
    def h1_cocycles(self) -> list[Cocycle]:
        """Orthonormal spanning set of a complement of B^1 in Z^1
        (Euclidean inner product on stacked generator values);
        deterministic.

        B^1 sits inside Z^1, so projecting it out of the orthonormal Z^1
        basis leaves exactly z1 - b1 directions of unit singular value;
        the count is taken from the dimension count, never from a rank cut
        on the projected matrix, whose noise tail reflects only the
        relator residual of the representation."""
        if self.module.num_generators == 0:
            return []
        z_basis, b_basis = self.z_basis, self._b1[0]
        h1 = z_basis.shape[1] - b_basis.shape[1]
        if h1 <= 0:
            return []
        proj = z_basis - b_basis @ (b_basis.T @ z_basis)
        u, s, _ = np.linalg.svd(proj, full_matrices=False)
        if s[h1 - 1] < 0.5:
            raise CohomologyError(
                f"complement of B1 in Z1 is numerically degenerate: "
                f"singular value {s[h1 - 1]:.3e} at position {h1}"
            )
        return [cocycle_from_stack(self.module, u[:, k]) for k in range(h1)]


def _stabilizer_invariant_dim(
    m: CoefficientModule, words, orders, policy: RankPolicy
) -> int:
    mats = []
    eye = np.eye(m.dim)
    for w, order in zip(words, orders):
        a = m.evaluate_word(w)
        if order is not None:
            res = float(np.abs(np.linalg.matrix_power(a, order) - eye).max())
            if res > 1e-6:
                raise CohomologyError(
                    f"stabilizer word {w} is not of order {order}: residual {res:.3e}"
                )
        mats.append(a - eye)
    if not mats:
        return m.dim
    return kernel_basis(np.vstack(mats), policy).shape[1]


def twisted_euler(
    pres: GroupPresentation, m: CoefficientModule, policy: RankPolicy | None = None
) -> int:
    """Alternating sum over cells of the invariant dimension of the cell
    stabilizer; equals h0 - h1 + h2."""
    policy = policy or RankPolicy()
    if not pres.cells:
        raise CohomologyError("presentation carries no cell structure")
    total = 0
    for cell in pres.cells:
        st = cell.stabilizer
        if st.kind == "trivial":
            d = m.dim
        elif st.kind == "cyclic":
            d = _stabilizer_invariant_dim(m, [st.word], [st.order], policy)
        elif st.kind == "reflection":
            d = _stabilizer_invariant_dim(m, [st.word], [2], policy)
        else:  # dihedral
            d = _stabilizer_invariant_dim(
                m, [st.word, st.reflection_word], [st.order, 2], policy
            )
        total += (-1) ** cell.dim * d
    return total


# ---------------------------------------------------------------------------
# cup products and the fundamental class


@dataclass(frozen=True, eq=False)
class TwoCocycle:
    """Scalar 2-cocycle as a black-box evaluator on pairs of words."""

    evaluate: Callable[[Word, Word], float]
    description: str = ""

    def __call__(self, a: Word, b: Word) -> float:
        return float(self.evaluate(a, b))


def _as_form(phi, dim1: int, dim2: int) -> Callable[[np.ndarray, np.ndarray], float]:
    if callable(phi):
        return lambda u, v: float(phi(u, v))
    mat = np.asarray(phi, dtype=float)
    if mat.shape != (dim1, dim2):
        raise CohomologyError(f"form shape {mat.shape} does not pair R^{dim1} with R^{dim2}")
    return lambda u, v: float(u @ mat @ v)


def cup(z1: Cocycle, z2: Cocycle, phi) -> TwoCocycle:
    """c(a, b) = phi(z1(a), a.z2(b)), the word 'a' acting through z2's
    module."""
    form = _as_form(phi, z1.module.dim, z2.module.dim)

    def evaluate(a: Word, b: Word) -> float:
        return form(z1.on_word(a), z2.module.evaluate_word(a) @ z2.on_word(b))

    return TwoCocycle(evaluate, "cup")


def _signed_counts(w: Word, num_generators: int) -> list[int]:
    mu = [0] * num_generators
    for x in w:
        mu[abs(x) - 1] += 1 if x > 0 else -1
    return mu


def pair_fundamental_class(c: TwoCocycle, pres: GroupPresentation) -> float:
    """Evaluate a scalar 2-cocycle on the fundamental class of a closed
    orientable group."""
    if not pres.closed:
        raise CohomologyError("fundamental-class pairing needs a closed group")
    if not pres.orientable:
        raise CohomologyError("fundamental-class pairing needs an orientable group")
    if pres.long_relator_index is None:
        raise CohomologyError("presentation has no long relator")
    r = pres.long_relator
    total = 0.0
    for t in range(1, len(r)):
        total += c(r[:t], (r[t],))
    for x in r:
        if x < 0:
            total -= c((x,), (-x,))
    for i, mu in enumerate(_signed_counts(r, pres.num_generators)):
        if mu == 0:
            continue
        order = pres.torsion_orders.get(i + 1)
        if order is None:
            raise CohomologyError(
                f"generator {i + 1} appears with signed count {mu} in the long "
                "relator but carries no torsion; the transgression chain cannot be closed"
            )
        torsion_sum = sum(c((i + 1,) * (t - 1), (i + 1,)) for t in range(2, order + 1))
        total -= (mu / order) * torsion_sum
    return total


def fundamental_pairing_matrix(
    pres: GroupPresentation, left: list[Cocycle], right: list[Cocycle], phi
) -> np.ndarray:
    out = np.zeros((len(left), len(right)))
    for i, zl in enumerate(left):
        for j, zr in enumerate(right):
            out[i, j] = pair_fundamental_class(cup(zl, zr, phi), pres)
    return out


@dataclass(frozen=True)
class ObstructionResult:
    value: float
    boundary_case: bool = False


def goldman_obstruction(z: Cocycle, decomposition, pres: GroupPresentation) -> ObstructionResult:
    """Transgression of the d-component of [z cup z] for a cocycle valued
    in the ambient algebra (full_g coordinates).  With boundary the class
    group vanishes and the result is exactly zero, flagged."""
    if z.module.dim != decomposition.ambient_dim:
        raise CohomologyError("obstruction needs a cocycle in ambient coordinates")
    if not pres.closed:
        return ObstructionResult(0.0, boundary_case=True)

    full = decomposition.full_g

    def evaluate(a: Word, b: Word) -> float:
        za = decomposition.to_matrix(z.on_word(a))
        zb = decomposition.to_matrix(full.evaluate_word(a) @ z.on_word(b))
        bracket = za @ zb - zb @ za
        return decomposition.pi_d(bracket)

    c = TwoCocycle(evaluate, "bracket-d")
    return ObstructionResult(pair_fundamental_class(c, pres))


@dataclass(frozen=True)
class ModuleCohomology:
    label: str
    dims: HDims
    euler_cells: int | None = None

    @property
    def euler_match(self) -> bool | None:
        if self.euler_cells is None:
            return None
        return self.dims.euler == self.euler_cells


@dataclass(frozen=True)
class CohomologyReport:
    """One row per block, then the full_g row; complexes holds the
    factored complex of every block, for bases and checks."""

    modules: tuple[ModuleCohomology, ...]
    complexes: dict[str, BlockComplex] = field(repr=False, compare=False)

    def module(self, label: str) -> ModuleCohomology:
        for m in self.modules:
            if m.label == label:
                return m
        raise KeyError(label)

    @property
    def min_gap(self) -> float:
        return min((m.dims.min_gap for m in self.modules), default=float("inf"))

    @property
    def euler_consistent(self) -> bool:
        return all(m.euler_match is not False for m in self.modules)


def _direct_sum(rows: list[ModuleCohomology]) -> ModuleCohomology:
    """The full_g row: every dimension and the cellular Euler
    characteristic add over the blocks; the smallest gap is the blocks'."""
    dims = [r.dims for r in rows]
    total = HDims(
        *(sum(getattr(d, f) for d in dims) for f in ("h0", "h1", "h2", "z1", "b1")),
        methods={"h0": "direct_sum", "h1": "direct_sum", "h2": "direct_sum"},
        min_gap=min(d.min_gap for d in dims),
        degenerate=any(d.degenerate for d in dims),
    )
    cells = [r.euler_cells for r in rows]
    return ModuleCohomology("full_g", total, None if None in cells else sum(cells))


def cohomology_report(
    pres: GroupPresentation, decomposition, policy: RankPolicy | None = None
) -> CohomologyReport:
    """The table of the blocks of an SlDecomposition, one factored
    complex each, closed by the full_g row as their direct sum; twisted
    Euler is filled in whenever the presentation carries cells."""
    policy = policy or RankPolicy()
    complexes = {label: BlockComplex(pres, getattr(decomposition, label), policy) for label in BLOCKS}
    rows = [
        ModuleCohomology(label, c.dims, twisted_euler(pres, c.module, policy) if pres.cells else None)
        for label, c in complexes.items()
    ]
    return CohomologyReport((*rows, _direct_sum(rows)), complexes)


def weil_slope(
    matrices,
    relators,
    deformation_matrices,
    eps_list=(1e-3, 1e-4, 1e-5),
) -> tuple[float, list[float]]:
    """Log-log slope of the relator residual of gamma -> (1 + eps Z) rho;
    a genuine cocycle direction gives slope 2 (residual O(eps^2))."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    n = mats[0].shape[0]
    eye = np.eye(n)
    residuals = []
    for eps in eps_list:
        deformed = [(eye + eps * z) @ m for z, m in zip(deformation_matrices, mats)]
        inverses = [np.linalg.inv(m) for m in deformed]
        worst = 0.0
        for r in relators:
            out = eye.copy()
            for x in r:
                out = out @ (deformed[x - 1] if x > 0 else inverses[-x - 1])
            worst = max(worst, float(np.abs(out - eye).max()))
        residuals.append(max(worst, 1e-300))
    slope = float(np.polyfit(np.log(np.asarray(eps_list)), np.log(residuals), 1)[0])
    return slope, residuals
