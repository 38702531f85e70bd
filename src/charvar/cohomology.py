"""Low-degree group cohomology with matrix coefficients.

Z^1 is the kernel of the Fox-derivative matrix of the relators, B^1 the
image of the coboundary map v -> (gv - v)_g, and H^0 the joint fixed
space of the generators.  H^2 is never assembled from bar-resolution
cochains: with a boundary it vanishes, and for closed groups it is the
fixed space of the (orientation-twisted) contragredient module, by
duality, read off one rank.  A BlockComplex builds both matrices of one
coefficient block once; dimensions, the H^1 basis and the verify checks
all read them.  Every rank cut reads singular values alone; a basis is
factored only when something reads it.  The ambient algebra
full_g = g0 + m_c + m_r + d is a direct sum of modules: the table walks
its relators once, in the block-diagonal sum, reads every block's
stabilizer invariants from the characters of the embedded representation
diag(A, c), and its row is the sum of the block rows.  verify audits that sum with full_g's own
complex from singular values alone; every H^1 basis it reads, the Weil
directions' included, is a block's.

Evaluation of a 2-cocycle against the fundamental class transgresses
the long relator r = l_1...l_L as sum of c(l_1...l_{t-1}, l_t), then
subtracts one c(g^{-1}, g) per inverse letter and (mu/n) times the
transgression of the torsion relator g^n per torsion generator with
unbalanced signed count mu.  The corrected chain has zero bar-complex
boundary, which is what makes the pairing vanish on coboundaries; these
corrections are the load-bearing part of the formula and are gated by
the coboundary-vanishing test.  A cup product c(a, b) = phi(z1(a),
a.z2(b)) is bilinear in the two cocycles, so fundamental_form walks the
chain once and returns its matrix on stacked cocycles; the pipeline reads
the duality pairing and the obstruction (phi the d-component of the
bracket) from these matrices, and the cup antisymmetry from the two cross
forms, m_r against m_c and m_c against m_r.  pair_fundamental_class
evaluates one cocycle word by word: the reference the form is checked
against, in the tests and once per verify.  weil_slope deforms along
every tangent direction in one stacked pass.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from ._record import Frozen, Value, frozen
from .coeffmodules import CoefficientModule
from .linalg import RankPolicy, rank, rank_cut
from .presentation import GroupPresentation, Word
from .reps import Representation, _derived

__all__ = [
    "CohomologyError",
    "Cocycle",
    "cocycle_residual",
    "TwoCocycle",
    "HDims",
    "fox_matrix",
    "coboundary_matrix",
    "BlockComplex",
    "cup",
    "pair_fundamental_class",
    "fundamental_form",
    "cocycle_from_stack",
    "weil_slope",
    "ModuleCohomology",
    "CohomologyReport",
    "BLOCKS",
    "cohomology_report",
]

# the coefficient blocks of the ambient algebra, in table order
BLOCKS = ("g0", "m_c", "m_r", "d")


class CohomologyError(ValueError):
    pass


class Cocycle(Frozen):
    """One value vector per generator; values on words extend by
    z(uv) = z(u) + u z(v), which forces z(g^{-1}) = -g^{-1} z(g)."""

    def __init__(self, module: CoefficientModule, values: tuple[np.ndarray, ...]):
        vals = tuple(np.asarray(v, dtype=float) for v in values)
        if len(vals) != module.num_generators:
            raise CohomologyError("one value per generator required")
        if any(v.shape != (module.dim,) for v in vals):
            raise CohomologyError("cocycle values must match the module dimension")
        vars(self).update(module=module, values=vals)

    @cached_property
    def _stacked(self) -> np.ndarray:
        return np.concatenate(self.values)[:, None]

    def on_word(self, w: Word) -> np.ndarray:
        return _word_values(self.module, self._stacked, w)[:, 0]


def _word_values(m: CoefficientModule, stacked: np.ndarray, w: Word) -> np.ndarray:
    """z(w) for every cocycle z in the columns of stacked (generator i's
    values in rows i N to (i + 1) N), in one walk of w that carries all
    columns at once."""
    n = m.dim
    values = stacked.reshape(m.num_generators, n, stacked.shape[1])
    out = np.zeros((n, stacked.shape[1]))
    prefix = np.eye(n)
    for x in w:
        if x > 0:
            out += prefix @ values[x - 1]
            prefix = prefix @ m.act(x)
        else:
            prefix = prefix @ m.act(x)
            out -= prefix @ values[-x - 1]
    return out


def cocycle_residual(pres: GroupPresentation, m: CoefficientModule, stacked: np.ndarray) -> float:
    """Largest |z(r)| over the relators r and the cocycles z in the
    columns of stacked; zero exactly on Z^1."""
    worst = 0.0
    for r in pres.relators:
        worst = max(worst, float(np.abs(_word_values(m, stacked, r)).max(initial=0.0)))
    return worst


def cocycle_from_stack(m: CoefficientModule, vec) -> Cocycle:
    vec = np.asarray(vec, dtype=float).ravel()
    n = m.dim
    if vec.shape != (n * m.num_generators,):
        raise CohomologyError("stacked vector length does not match module")
    return Cocycle(m, tuple(vec[i * n : (i + 1) * n] for i in range(m.num_generators)))


def _fox_prefixes(word: Word, m: CoefficientModule):
    """For t = 0..len(word), the Fox block F and the action R of the
    prefix a = word[:t]: z(a) = F s on stacked cocycle values s.  Fox rules
    through the module action: d(uv) = du + u dv, d(x)/dx = 1,
    d(x^{-1})/dx = -x^{-1}.  F is one array updated in place: read it
    before the walk advances."""
    n = m.dim
    fox, act = np.zeros((n, n * m.num_generators)), np.eye(n)
    yield fox, act
    for x in word:
        i = abs(x) - 1
        if x > 0:
            fox[:, i * n : (i + 1) * n] += act
            act = act @ m.act(x)
        else:
            act = act @ m.act(x)
            fox[:, i * n : (i + 1) * n] -= act
        yield fox, act


def fox_matrix(pres: GroupPresentation, m: CoefficientModule) -> np.ndarray:
    """Rows: one N-block row per relator, its whole-word Fox block; the
    kernel of the full matrix is Z^1."""
    n = m.dim
    rows = np.zeros((n * len(pres.relators), n * m.num_generators))
    for k, r in enumerate(pres.relators):
        *_, (fox, _) = _fox_prefixes(r, m)
        rows[k * n : (k + 1) * n] = fox
    return rows


def coboundary_matrix(pres: GroupPresentation, m: CoefficientModule) -> np.ndarray:
    """Columns span B^1 inside the stacked generator-value space: the
    blocks g - 1, one per generator, stacked."""
    n = m.dim
    if not m.num_generators:
        return np.zeros((0, n))
    return (np.array(m.action) - np.eye(n)).reshape(-1, n)


class HDims(NamedTuple):
    h0: int
    h1: int
    h2: int
    z1: int
    b1: int
    methods: dict
    min_gap: float = float("inf")
    degenerate: bool = False

    @property
    def euler(self) -> int:
        return self.h0 - self.h1 + self.h2


class BlockComplex(Frozen):
    """C^0 -> C^1 -> C^2 of one coefficient block in low degree, each map
    built and factored once, on first use.

    dims and h1 read the Fox matrix (kernel Z^1) and the coboundary matrix
    (columns span B^1) through their singular values alone.  A basis is
    factored when first read, a full SVD of the Fox matrix for Z^1 and a
    thin one of the coboundary matrix for B^1, and sliced at the ranks
    dims reported, so the H^1 basis is dims.h1 wide whichever is read
    first.  The table hands each block its Fox matrix.  H^2 is 0 with a
    boundary and, for a closed group, by duality h0 of the
    alpha-contragredient module: the kernel of the stacked
    alpha_i A_i^T - 1.  A table shares its complexes with every later
    reader, so every array a complex holds is read-only."""

    def __init__(self, pres: GroupPresentation, module: CoefficientModule, policy: RankPolicy | None = None):
        vars(self).update(pres=pres, module=module, policy=policy or RankPolicy())

    @cached_property
    def fox(self) -> np.ndarray:
        return frozen(fox_matrix(self.pres, self.module))

    @cached_property
    def cob(self) -> np.ndarray:
        return frozen(coboundary_matrix(self.pres, self.module))

    @cached_property
    def _fox_cut(self) -> tuple[int, float]:
        """Rank of the Fox matrix and the gap at its cut."""
        if self.fox.shape[0] == 0:
            return 0, float("inf")
        return rank_cut(np.linalg.svd(self.fox, compute_uv=False), self.policy)

    @cached_property
    def _cob_cut(self) -> tuple[int, float]:
        """Rank of the coboundary matrix and the gap at its cut."""
        return rank_cut(np.linalg.svd(self.cob, compute_uv=False), self.policy)

    @cached_property
    def z_basis(self) -> np.ndarray:
        """Orthonormal basis of Z^1, one stacked cocycle per column."""
        if self.fox.shape[0] == 0:
            return frozen(np.eye(self.fox.shape[1]))
        return frozen(np.linalg.svd(self.fox, full_matrices=True)[2])[self._fox_cut[0] :].T

    @cached_property
    def _b_basis(self) -> np.ndarray:
        """Orthonormal basis of B^1, one stacked coboundary per column."""
        return frozen(np.linalg.svd(self.cob, full_matrices=False)[0])[:, : self._cob_cut[0]]

    @cached_property
    def h1(self) -> int:
        """dim H^1 = z1 - b1, read from the two rank cuts without the rank
        that dims takes for h2."""
        if self.module.num_generators == 0:
            return 0
        h1 = self.fox.shape[1] - self._fox_cut[0] - self._cob_cut[0]
        if h1 < 0:
            raise CohomologyError(f"negative h1 = {h1}; rank policy inconsistent")
        return h1

    @cached_property
    def dims(self) -> HDims:
        m = self.module
        if m.num_generators == 0:
            return HDims(0, 0, 0, 0, 0, MappingProxyType({"all": "degenerate"}), degenerate=True)
        (fox_rank, fox_gap), (b1, cob_gap) = self._fox_cut, self._cob_cut
        h1, z1 = self.h1, self.fox.shape[1] - fox_rank
        if self.pres.closed:
            eye = np.eye(m.dim)
            dual = np.vstack([s * a.T - eye for s, a in zip(self.pres.orientation_character, m.action)])
            h2, how = m.dim - rank(dual, self.policy), "duality"
        else:
            h2, how = 0, "boundary_vanishing"
        methods = MappingProxyType({"h0": "fox", "h1": "fox", "h2": how})
        return HDims(m.dim - b1, h1, h2, z1, b1, methods, min(fox_gap, cob_gap))

    @cached_property
    def h1_basis(self) -> np.ndarray:
        """Orthonormal basis of a complement of B^1 in Z^1 (Euclidean
        inner product on stacked generator values), one stacked cocycle
        per column; deterministic.

        B^1 sits inside Z^1, so projecting it out of the orthonormal Z^1
        basis leaves exactly z1 - b1 directions of unit singular value;
        the count is taken from the dimension count, never from a rank cut
        on the projected matrix, whose noise tail reflects only the
        relator residual of the representation."""
        h1 = self.h1
        if h1 <= 0:
            return frozen(np.zeros((self.module.dim * self.module.num_generators, 0)))
        z_basis, b_basis = self.z_basis, self._b_basis
        proj = z_basis - b_basis @ (b_basis.T @ z_basis)
        u, s, _ = np.linalg.svd(proj, full_matrices=False)
        if s[h1 - 1] < 0.5:
            raise CohomologyError(
                f"complement of B1 in Z1 is numerically degenerate: "
                f"singular value {s[h1 - 1]:.3e} at position {h1}"
            )
        return frozen(u[:, :h1])


def _invariant_dims(h: np.ndarray, order: int) -> np.ndarray:
    """dim of the invariants of <w> in g0, m_c, m_r and d, for a stabilizer
    word w of the given order with image h = diag(A, c) in the embedded
    representation, by the character rule: the mean over j < order of the
    block traces at w^j (Serre, Linear Representations of Finite Groups,
    2.3), namely tr A^j tr A^-j - 1, c^j tr A^j, c^j tr A^-j and 1.  The
    constructor checked A^order = I, so tr A^-j = tr A^(order - j) and one
    walk of order powers of h gives every trace."""
    n = h.shape[0] - 1
    power, tr, c = np.eye(n + 1), np.empty(order), np.empty(order)
    for j in range(order):
        tr[j], c[j] = power[:n, :n].trace(), power[n, n]
        power = power @ h
    inv = tr[-np.arange(order)]
    return np.rint(np.mean([tr * inv - 1.0, c * tr, c * inv, np.ones(order)], axis=1)).astype(int)


def _cell_euler(pres: GroupPresentation, embedded: Representation) -> list[int]:
    """The cellular Euler characteristic of g0, m_c, m_r and d: the
    alternating sum over cells of the invariant dimension of the cell
    stabilizer, read from the stabilizer's image in embedded."""
    total, invariant = np.zeros(len(BLOCKS), dtype=int), {}
    for cell in pres.cells:
        st = cell.stabilizer
        # a trivial stabilizer is the empty word of order 1; a mirror's
        # vertex and edge share one stabilizer
        key = (st.word, 2 if st.kind == "reflection" else st.order)
        if key not in invariant:
            invariant[key] = _invariant_dims(embedded.word_image(st.word), key[1])
        total += (-1) ** cell.dim * invariant[key]
    return total.tolist()


# ---------------------------------------------------------------------------
# cup products and the fundamental class


class TwoCocycle(Frozen):
    """Scalar 2-cocycle as a black-box evaluator on pairs of words."""

    def __init__(self, evaluate: Callable[[Word, Word], float], description: str = ""):
        vars(self).update(evaluate=evaluate, description=description)

    def __call__(self, a: Word, b: Word) -> float:
        return float(self.evaluate(a, b))


def _as_form(phi, dim1: int, dim2: int) -> np.ndarray:
    """phi as the matrix of a bilinear form pairing R^dim1 with R^dim2."""
    mat = np.asarray(phi, dtype=float)
    if mat.shape != (dim1, dim2):
        raise CohomologyError(f"form shape {mat.shape} does not pair R^{dim1} with R^{dim2}")
    return mat


def cup(z1: Cocycle, z2: Cocycle, phi) -> TwoCocycle:
    """c(a, b) = z1(a) . phi (a.z2(b)) for the matrix phi, the word 'a'
    acting through z2's module."""
    form = _as_form(phi, z1.module.dim, z2.module.dim)

    def evaluate(a: Word, b: Word) -> float:
        return float(z1.on_word(a) @ form @ (z2.module.evaluate_word(a) @ z2.on_word(b)))

    return TwoCocycle(evaluate, "cup")


def _transgression_chain(pres: GroupPresentation) -> list[tuple[Word, float]]:
    """The fundamental class as weighted words w, each standing for the
    chain sum over t of (w[:t], w[t]): the long relator, minus one
    (g^{-1}, g) per inverse letter, minus mu/n times the torsion relator
    g^n per torsion generator with unbalanced signed count mu."""
    if not pres.closed:
        raise CohomologyError("fundamental-class pairing needs a closed group")
    if not pres.orientable:
        raise CohomologyError("fundamental-class pairing needs an orientable group")
    if pres.long_relator_index is None:
        raise CohomologyError("presentation has no long relator")
    r = pres.long_relator
    chain = [(r, 1.0)] + [((x, -x), -1.0) for x in r if x < 0]
    for i in range(pres.num_generators):
        mu = r.count(i + 1) - r.count(-i - 1)
        if mu == 0:
            continue
        order = pres.torsion_orders.get(i + 1)
        if order is None:
            raise CohomologyError(
                f"generator {i + 1} appears with signed count {mu} in the long "
                "relator but carries no torsion; the transgression chain cannot be closed"
            )
        chain.append(((i + 1,) * order, -mu / order))
    return chain


def pair_fundamental_class(c: TwoCocycle, pres: GroupPresentation) -> float:
    """Evaluate a scalar 2-cocycle on the fundamental class of a closed
    orientable group, word by word: the reference for fundamental_form."""
    total = 0.0
    for word, weight in _transgression_chain(pres):
        total += weight * sum(c(word[:t], (word[t],)) for t in range(1, len(word)))
    return total


def fundamental_form(
    pres: GroupPresentation, m1: CoefficientModule, m2: CoefficientModule, phi
) -> np.ndarray:
    """The matrix P of (z1, z2) -> pair_fundamental_class(cup(z1, z2, phi)):
    s1 @ P @ s2 is that pairing for stacked cocycles s1 of m1 and s2 of m2.

    _fox_prefixes walks each chain word w once in m1 for the Fox block F_a
    of the prefix a = w[:t] (z1(a) = F_a s1) and once in m2 for the prefix
    actions R_a; the term (a, x) adds F_a^T phi R_a G_x, where G_x reads
    z2(x) off s2, so R_a G_x is R_a on block x, or -R_{ax} on block -x for
    an inverse letter."""
    n1, n2, g = m1.dim, m2.dim, m1.num_generators
    phi = _as_form(phi, n1, n2)
    out = np.zeros((n1 * g, n2 * g))
    for word, weight in _transgression_chain(pres):
        acts = [act for _, act in _fox_prefixes(word, m2)]
        for t, (x, (fox, _)) in enumerate(zip(word, _fox_prefixes(word, m1))):
            if t:
                i = abs(x) - 1
                right = phi @ (acts[t] if x > 0 else -acts[t + 1])
                out[:, i * n2 : (i + 1) * n2] += weight * fox.T @ right
    return out


class ModuleCohomology(NamedTuple):
    label: str
    dims: HDims
    euler_cells: int | None = None

    @property
    def euler_match(self) -> bool | None:
        if self.euler_cells is None:
            return None
        return self.dims.euler == self.euler_cells


class CohomologyReport(Value):
    """One row per block, then the full_g row; complexes maps each block
    to its factored complex, for bases and checks, read-only.  Reports
    compare by their rows."""

    def __init__(self, modules: tuple[ModuleCohomology, ...], complexes: dict[str, BlockComplex]):
        vars(self).update(modules=tuple(modules), complexes=MappingProxyType(dict(complexes)))

    def _key(self) -> tuple:
        return (self.modules,)

    def module(self, label: str) -> ModuleCohomology:
        for m in self.modules:
            if m.label == label:
                return m
        raise KeyError(label)

    @property
    def min_gap(self) -> float:
        return min((m.dims.min_gap for m in self.modules), default=float("inf"))


def _direct_sum(rows: list[ModuleCohomology]) -> ModuleCohomology:
    """The full_g row: every dimension and the cellular Euler
    characteristic add over the blocks; the smallest gap is the blocks'."""
    dims = [r.dims for r in rows]
    total = HDims(
        *(sum(getattr(d, f) for d in dims) for f in ("h0", "h1", "h2", "z1", "b1")),
        methods=MappingProxyType(dict.fromkeys(("h0", "h1", "h2"), "direct_sum")),
        min_gap=min(d.min_gap for d in dims),
        degenerate=any(d.degenerate for d in dims),
    )
    cells = [r.euler_cells for r in rows]
    return ModuleCohomology("full_g", total, None if None in cells else sum(cells))


def _block_sum(modules, ends) -> CoefficientModule:
    """The direct sum of the modules, summand k in coordinates ends[k] to
    ends[k + 1].  Its inverses are the summands' own: inverted as a whole,
    the sum moved g0's h1-cocycle-residual on O(g=2) (condition number
    2.3e5) from 5.6e-12 to 3.5e-7."""
    action, inverses = np.zeros((2, modules[0].num_generators, ends[-1], ends[-1]))
    for m, lo, hi in zip(modules, ends[:-1], ends[1:]):
        action[:, lo:hi, lo:hi] = m.action
        inverses[:, lo:hi, lo:hi] = m._inverses
    return _derived(CoefficientModule, label="custom", action=tuple(action), _inverses=tuple(inverses))


def cohomology_report(pres: GroupPresentation, decomposition, policy: RankPolicy | None = None) -> CohomologyReport:
    """The table of the blocks of an SlDecomposition, one factored
    complex each, closed by the full_g row as their direct sum.  The
    Fox matrix of the blocks' sum holds each block's on its diagonal;
    whenever the presentation carries cells, every block's twisted Euler
    characteristic is read from the characters of the embedded
    representation."""
    policy = policy or RankPolicy()
    modules = [getattr(decomposition, label) for label in BLOCKS]
    ends = np.cumsum([0] + [m.dim for m in modules]).tolist()
    total = _block_sum(modules, ends)
    r, g, n = len(pres.relators), pres.num_generators, total.dim
    fox = fox_matrix(pres, total).reshape(r, n, g, n)
    eulers = _cell_euler(pres, decomposition.embedded) if pres.cells else [None] * len(modules)
    complexes, rows = {}, []
    for label, m, lo, hi, euler in zip(BLOCKS, modules, ends[:-1], ends[1:], eulers):
        c = complexes[label] = BlockComplex(pres, m, policy)
        vars(c)["fox"] = frozen(fox[:, lo:hi, :, lo:hi].reshape(r * (hi - lo), g * (hi - lo)))
        rows.append(ModuleCohomology(label, c.dims, euler))
    return CohomologyReport((*rows, _direct_sum(rows)), complexes)


def weil_slope(
    matrices,
    relators,
    deformations,
    eps_list=(1e-3, 1e-4, 1e-5),
) -> tuple[np.ndarray, np.ndarray]:
    """Log-log slopes of the relator residual of gamma -> (1 + eps Z) rho,
    one per tangent direction, all directions and eps in one stacked pass;
    deformations[k][i] is direction k's matrix Z at generator i.  A genuine
    cocycle direction gives slope 2 (residual O(eps^2)).  Returns the
    slopes and the residuals, one row per direction."""
    mats = np.asarray(matrices, dtype=float)
    eye = np.eye(mats.shape[-1])
    eps = np.asarray(eps_list, dtype=float)
    # axes: eps, direction, generator, then the matrix
    deformed = (eye + eps[:, None, None, None, None] * np.asarray(deformations, dtype=float)) @ mats
    # only the generators some relator reads inverted are inverted
    inverted = sorted({-x - 1 for r in relators for x in r if x < 0})
    inverses = np.empty_like(deformed)
    if inverted:
        inverses[:, :, inverted] = np.linalg.inv(deformed[:, :, inverted])
    worst = np.zeros(deformed.shape[:2])
    for r in relators:
        out = np.broadcast_to(eye, deformed.shape[:2] + eye.shape)
        for x in r:
            out = out @ (deformed[:, :, x - 1] if x > 0 else inverses[:, :, -x - 1])
        worst = np.maximum(worst, np.abs(out - eye).max(axis=(-2, -1)))
    residuals = np.maximum(worst, 1e-300)
    slopes = np.polyfit(np.log(eps), np.log(residuals), 1)[0]
    return slopes, residuals.T
