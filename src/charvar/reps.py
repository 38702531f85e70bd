"""Representations of orbifold groups into SL_n(R) and SL±_n(R).

Hyperbolic constructions use the hyperboloid model: SO(2,1) acting on
{x^2 + y^2 - z^2 = -1, z > 0}.  Rotations about hyperboloid points come
from a Minkowski Rodrigues formula, reflections fix a geodesic, and the
closed-surface builders either solve a one-parameter trace equation,
exploit a half-turn symmetry, or run damped least squares on the long
relator.  Every builder returns generators that satisfy the torsion
relators exactly and the long relator to at least 1e-9.

Builders only certify matrix identities and C-irreducibility, never
discreteness; dimension counts downstream depend only on the torsion
conjugacy data, so any C-irreducible representative works.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq, least_squares

from .linalg import RankPolicy, kernel_basis, rank
from .presentation import (
    Cell,
    CellStabilizer,
    GroupPresentation,
    OrbifoldSignature,
    euler_characteristic,
    parse_signature,
    presentation_from_raw,
    presentation_of,
    word_power,
)

__all__ = [
    "RepError",
    "BuildError",
    "Representation",
    "BurnsideReport",
    "triangle_group",
    "polygon_group",
    "build_representation",
    "half_mirrored_disc_presentation",
    "half_mirrored_disc",
    "EMBEDDINGS",
    "embed",
    "burnside_irreducible",
    "commutant_dim",
    "lorentz_residual",
    "representation_to_json",
    "representation_from_json",
    "load_representation",
]

J3 = np.diag([1.0, 1.0, -1.0])


class RepError(ValueError):
    pass


class BuildError(RepError):
    """A numerical builder could not certify its output."""


def _ldot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] - u[2] * v[2]


def rot_origin(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def trans_x(t: float) -> np.ndarray:
    c, s = np.cosh(t), np.sinh(t)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [s, 0.0, c]])


def hyperboloid_point(psi: float, rho: float) -> np.ndarray:
    return np.array([np.cos(psi) * np.sinh(rho), np.sin(psi) * np.sinh(rho), np.cosh(rho)])


def _point_above_axis(t: float, h: float) -> np.ndarray:
    return trans_x(t) @ np.array([0.0, np.sinh(h), np.cosh(h)])


def _cross_mat(p) -> np.ndarray:
    return np.array(
        [[0.0, -p[2], p[1]], [p[2], 0.0, -p[0]], [p[1], -p[0], 0.0]]
    )


def rotation_about(p, theta: float) -> np.ndarray:
    """Rotation by theta about a hyperboloid point, directly in SO(2,1);
    smooth in p, so safe inside optimizers."""
    c, s = np.cos(theta), np.sin(theta)
    return c * np.eye(3) - (1.0 - c) * np.outer(p, p @ J3) + s * _cross_mat(p)


def reflection_in(normal) -> np.ndarray:
    """Reflection fixing the geodesic with the given spacelike normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.sqrt(_ldot(n, n))
    return np.eye(3) - 2.0 * np.outer(n, n @ J3)


def _lorentz_cross(u, v) -> np.ndarray:
    return np.array(
        [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], -(u[0] * v[1] - u[1] * v[0])]
    )


def _comm(a, b) -> np.ndarray:
    return a @ b @ np.linalg.inv(a) @ np.linalg.inv(b)


def lorentz_residual(m) -> float:
    return float(np.abs(np.asarray(m).T @ J3 @ np.asarray(m) - J3).max())


GROUP_TAGS = ("SL", "SLpm")


@dataclass(frozen=True, eq=False)
class Representation:
    """Matrices for the generators of a presentation.

    group_tag "SL" requires determinant +1 throughout; "SLpm" requires the
    determinant sign to equal the orientation character (type preserving).
    """

    presentation: GroupPresentation
    matrices: tuple[np.ndarray, ...]
    group_tag: str = "SL"
    lineage: tuple[str, ...] = ()
    residual_bound: float = 1e-8
    build_info: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        mats = tuple(np.asarray(m, dtype=float) for m in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if self.group_tag not in GROUP_TAGS:
            raise RepError(f"unknown group tag {self.group_tag!r}")
        if len(mats) != self.presentation.num_generators:
            raise RepError("one matrix per generator required")
        n = mats[0].shape[0]
        if any(m.shape != (n, n) for m in mats):
            raise RepError("matrices must share one square shape")
        for i, m in enumerate(mats):
            det = float(np.linalg.det(m))
            if abs(abs(det) - 1.0) > 1e-9:
                raise RepError(f"generator {i + 1} has determinant {det}, not a unit")
            want = 1 if self.group_tag == "SL" else self.presentation.orientation_character[i]
            if det * want < 0:
                raise RepError(
                    f"generator {i + 1} determinant sign {np.sign(det):+.0f} "
                    f"violates the {self.group_tag} convention"
                )
        res = self.relator_residual
        if res > self.residual_bound:
            raise RepError(f"relator residual {res:.3e} exceeds bound {self.residual_bound:.1e}")
        self._check_torsion()

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def num_generators(self) -> int:
        return len(self.matrices)

    @cached_property
    def _inverses(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linalg.inv(m) for m in self.matrices)

    def gen(self, letter: int) -> np.ndarray:
        if letter > 0:
            return self.matrices[letter - 1]
        return self._inverses[-letter - 1]

    def word_image(self, w) -> np.ndarray:
        out = np.eye(self.n)
        for x in w:
            out = out @ self.gen(x)
        return out

    @cached_property
    def relator_residual(self) -> float:
        eye = np.eye(self.n)
        worst = 0.0
        for r in self.presentation.relators:
            worst = max(worst, float(np.abs(self.word_image(r) - eye).max()))
        return worst

    def _check_torsion(self):
        eye = np.eye(self.n)
        for g, order in self.presentation.torsion_orders.items():
            m = self.matrices[g - 1]
            res = float(np.abs(np.linalg.matrix_power(m, order) - eye).max())
            if res > 1e-8:
                raise RepError(
                    f"generator {g} should have order {order}, power residual {res:.3e}"
                )
            for k in range(1, order):
                if float(np.abs(np.linalg.matrix_power(m, k) - eye).max()) < 1e-3:
                    raise RepError(f"generator {g} has order dividing {k} < {order}")


# ---------------------------------------------------------------------------
# irreducibility


@dataclass(frozen=True)
class BurnsideReport:
    irreducible_over_C: bool
    algebra_dim: int
    commutant_dim: int


def _span_dim(vectors, policy: RankPolicy) -> int:
    return rank(np.array(vectors), policy)


def burnside_irreducible(rep_or_matrices, policy: RankPolicy | None = None) -> BurnsideReport:
    """Span criterion over C: the generated matrix algebra has dimension n^2
    iff the representation is C-irreducible.  Word length is capped at 2 n^2;
    the span always stabilizes before that for semisimple inputs."""
    policy = policy or RankPolicy()
    mats = getattr(rep_or_matrices, "matrices", rep_or_matrices)
    mats = [np.asarray(m, dtype=complex) for m in mats]
    n = mats[0].shape[0]

    basis = [np.eye(n, dtype=complex)] + list(mats)
    dim = _span_dim([b.ravel() for b in basis], policy)
    length = 1
    while length < 2 * n * n:
        grown = basis + [a @ g for a in basis for g in mats]
        new_dim = _span_dim([b.ravel() for b in grown], policy)
        length += 1
        if new_dim == dim:
            break
        # compress to an independent spanning subset to bound growth
        flat = np.array([b.ravel() for b in grown])
        _, _, vt = np.linalg.svd(flat, full_matrices=False)
        basis = [vt[i].reshape(n, n) for i in range(new_dim)]
        dim = new_dim

    return BurnsideReport(dim == n * n, dim, commutant_dim(mats, policy))


def commutant_dim(mats, policy: RankPolicy | None = None) -> int:
    """Dimension over C of {X : XM = MX for every M}: the kernel of the
    vectorized Sylvester system."""
    policy = policy or RankPolicy()
    mats = [np.asarray(m, dtype=complex) for m in mats]
    eye = np.eye(mats[0].shape[0])
    rows = [np.kron(eye, m) - np.kron(m.T, eye) for m in mats]
    return kernel_basis(np.vstack(rows), policy).shape[1]


# ---------------------------------------------------------------------------
# Fuchsian builders


def _require_hyperbolic(sig: OrbifoldSignature):
    chi = euler_characteristic(sig)
    if chi >= 0:
        raise BuildError(f"{sig.to_text()} has Euler characteristic {chi} >= 0, not hyperbolic")


def triangle_group(p: int, q: int, r: int) -> Representation:
    """Rotation generators of the hyperbolic triangle group, as products of
    reflections in the triangle's sides; all relators hold to machine
    precision."""
    sig = OrbifoldSignature("orientable", 0, 0, (p, q, r))
    _require_hyperbolic(sig)
    al, be, ga = np.pi / p, np.pi / q, np.pi / r
    # side lengths from the angles (law of cosines)
    c_ab = np.arccosh((np.cos(al) * np.cos(be) + np.cos(ga)) / (np.sin(al) * np.sin(be)))
    b_ac = np.arccosh((np.cos(al) * np.cos(ga) + np.cos(be)) / (np.sin(al) * np.sin(ga)))
    A = np.array([0.0, 0.0, 1.0])
    B = np.array([np.sinh(c_ab), 0.0, np.cosh(c_ab)])
    C = np.array([np.sinh(b_ac) * np.cos(al), np.sinh(b_ac) * np.sin(al), np.cosh(b_ac)])
    s_ab = reflection_in(_lorentz_cross(A, B))
    s_bc = reflection_in(_lorentz_cross(B, C))
    s_ca = reflection_in(_lorentz_cross(C, A))
    x1 = s_ca @ s_ab  # fixes A
    x2 = s_ab @ s_bc  # fixes B
    x3 = s_bc @ s_ca  # fixes C
    return Representation(
        presentation_of(sig),
        (x1, x2, x3),
        lineage=(f"triangle({p},{q},{r})",),
    )


def _product(mats) -> np.ndarray:
    out = np.eye(mats[0].shape[0])
    for m in mats:
        out = out @ m
    return out


def polygon_group(orders, seed: int = 0) -> Representation:
    """Clockwise rotations about centers on a circle; radius and angular
    positions solved by damped least squares on the long relator, with a
    deterministic restart schedule.  Acceptance needs both a relator
    residual below 1e-10 and a C-irreducible result: the relator alone is
    also solved by collapsing all centers to one point."""
    orders = tuple(orders)
    c = len(orders)
    if c < 4:
        raise BuildError("polygon builder needs at least 4 cone points")
    sig = OrbifoldSignature("orientable", 0, 0, orders)
    _require_hyperbolic(sig)

    def gens_of(params):
        rho = params[0]
        psis = np.concatenate([[0.0], params[1:]])
        return [
            rotation_about(hyperboloid_point(psi, rho), -2.0 * np.pi / n)
            for psi, n in zip(psis, orders)
        ]

    def resid(params):
        with np.errstate(all="ignore"):
            return (_product(gens_of(params)) - np.eye(3)).ravel()

    # circumradius of the regular hyperbolic polygon with matching angles
    beta = np.mean([np.pi / (2 * n) for n in orders])
    arg = 1.0 / (np.tan(np.pi / c) * np.tan(beta))
    rho_reg = np.arccosh(max(arg, 1.0 + 1e-6))
    # the 0.03j offset breaks the symmetric saddle of equal-order inputs
    base_psis = np.array([2.0 * np.pi * j / c + 0.03 * j for j in range(1, c)])
    rng = np.random.default_rng(seed)
    best = np.inf
    tries = 0
    for drho in (0.0, 0.15, -0.15, 0.35, -0.35, 0.7, 1.1):
        for jit in range(4):
            tries += 1
            psis0 = base_psis if jit == 0 else base_psis + rng.normal(0.0, 0.15, size=c - 1)
            x0 = np.concatenate([[rho_reg + drho], psis0])
            sol = least_squares(resid, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
            res = float(np.abs(resid(sol.x)).max())
            best = min(best, res)
            if res < 1e-10 and burnside_irreducible(gens_of(sol.x)).algebra_dim == 9:
                return Representation(
                    presentation_of(sig),
                    tuple(gens_of(sol.x)),
                    lineage=(f"polygon{orders}",),
                    build_info={"tries": tries, "nfev": int(sol.nfev), "residual": res},
                )
    raise BuildError(
        f"polygon optimizer failed for orders {orders}: best residual {best:.3e}"
    )


# adjoint of SL_2 on its Lie algebra in the basis (H, E+F, E-F), which
# carries the form diag(1,1,-1); lifts the trace equation below to SO(2,1)
_SL2_BASIS = [
    np.array([[1.0, 0.0], [0.0, -1.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 1.0], [-1.0, 0.0]]),
]


def _sl2_adjoint(g) -> np.ndarray:
    gi = np.linalg.inv(g)
    cols = []
    for X in _SL2_BASIS:
        Y = g @ X @ gi
        cols.append(
            [
                np.trace(Y @ _SL2_BASIS[0]) / 2.0,
                np.trace(Y @ _SL2_BASIS[1]) / 2.0,
                -np.trace(Y @ _SL2_BASIS[2]) / 2.0,
            ]
        )
    return np.array(cols).T


def _torus_with_cone(n: int) -> Representation:
    """Genus one, one cone point of order n.  The commutator trace of two
    orthogonal translations of equal length is monotone in the length; the
    equation is solved in SL_2 (where the root is transversal for every
    n >= 2, unlike in SO(2,1)) and pushed through the adjoint."""
    sig = OrbifoldSignature("orientable", 1, 0, (n,))
    _require_hyperbolic(sig)
    quarter = np.array([[np.cos(np.pi / 4), -np.sin(np.pi / 4)], [np.sin(np.pi / 4), np.cos(np.pi / 4)]])

    def sl2_trans(ell):
        return np.array([[np.exp(ell / 2.0), 0.0], [0.0, np.exp(-ell / 2.0)]])

    def trace_gap(ell):
        a = sl2_trans(ell)
        b = quarter @ a @ np.linalg.inv(quarter)
        return np.trace(_comm(a, b)) - 2.0 * np.cos(np.pi / n)

    ell = brentq(trace_gap, 0.05, 6.0, xtol=2e-16, rtol=8.9e-16)
    a = _sl2_adjoint(sl2_trans(ell))
    b = _sl2_adjoint(quarter @ sl2_trans(ell) @ np.linalg.inv(quarter))
    x = np.linalg.inv(_comm(a, b))
    return Representation(
        presentation_of(sig),
        (a, b, x),
        lineage=(f"torus_cone({n})",),
    )


def _so21_generator(w) -> np.ndarray:
    return np.array(
        [[0.0, -w[2], w[0]], [w[2], 0.0, w[1]], [w[0], w[1], 0.0]]
    )


def _expm3(A, terms: int = 40) -> np.ndarray:
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    return out


def _genus_two() -> Representation:
    """Closed genus two.  Start from one handle whose commutator is
    hyperbolic, move the commutator axis through the origin so the
    half-turn about the origin is the exact matrix diag(-1,-1,1), obtain
    the second handle by conjugation, then polish the first handle by six
    exponential parameters.  Keeping the axis at the origin stops the
    half-turn conjugation from amplifying float error."""
    sig = OrbifoldSignature("orientable", 2, 0, ())
    ell = 2.0 * np.arccosh(np.sqrt(3.0)) + 0.3
    a1 = trans_x(ell)
    b1 = rot_origin(np.pi / 2) @ trans_x(ell) @ rot_origin(-np.pi / 2)
    K = _comm(a1, b1)
    _, _, vt = np.linalg.svd(K - np.eye(3))
    axis_dir = vt[-1]
    _, _, wt = np.linalg.svd((J3 @ axis_dir).reshape(1, 3))
    u, v = wt[1], wt[2]
    gram = np.array([[_ldot(u, u), _ldot(u, v)], [_ldot(u, v), _ldot(v, v)]])
    vals, vecs = np.linalg.eigh(gram)
    coef = vecs[:, 0]  # timelike direction in the fixed 2-plane
    p = coef[0] * u + coef[1] * v
    p = p / np.sqrt(-_ldot(p, p))
    if p[2] < 0:
        p = -p
    dist = np.arccosh(p[2])
    phi = np.arctan2(p[1], p[0])
    M = rot_origin(phi) @ trans_x(-dist) @ rot_origin(-phi)
    Mi = np.linalg.inv(M)
    a1, b1 = M @ a1 @ Mi, M @ b1 @ Mi
    half = np.diag([-1.0, -1.0, 1.0])

    def gens_of(params):
        A = _expm3(_so21_generator(params[:3])) @ a1
        B = _expm3(_so21_generator(params[3:])) @ b1
        return A, B

    def resid(params):
        A, B = gens_of(params)
        A2, B2 = half @ A @ half, half @ B @ half
        return (_comm(A, B) @ _comm(A2, B2) - np.eye(3)).ravel()

    best = None
    nfev = 0
    for scale in (0.0, 1e-4, -1e-4, 3e-4):
        start = np.full(6, scale)
        sol = least_squares(resid, start, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        nfev += int(sol.nfev)
        res = float(np.abs(resid(sol.x)).max())
        if best is None or res < best[0]:
            best = (res, sol.x)
        if res < 3e-12:
            break
    res, x = best
    A, B = gens_of(x)
    A2, B2 = half @ A @ half, half @ B @ half
    if res > 1e-9 or burnside_irreducible([A, B]).algebra_dim != 9:
        raise BuildError(f"genus-two polish did not certify: residual {res:.3e}")
    return Representation(
        presentation_of(sig),
        (A, B, A2, B2),
        lineage=("genus_two",),
        build_info={"nfev": nfev, "residual": res},
    )


def _mirrored_disc(orders, seed: int = 0) -> Representation:
    """Disc with mirror boundary: rotation centers above the x-axis
    geodesic, the reflection in that geodesic as the mirror generator;
    least squares makes the cone-point product commute with the mirror."""
    orders = tuple(orders)
    sig = OrbifoldSignature("mirrored", 0, 0, orders)
    _require_hyperbolic(sig)
    s = np.diag([1.0, -1.0, 1.0])
    c = len(orders)
    if 2 * c > 9:
        # least squares needs at least as many residuals as unknowns
        raise BuildError(
            f"mirrored-disc builder takes at most 4 cone points: {2 * c} "
            f"unknowns against 9 residuals for {orders}"
        )

    def gens_of(params):
        return [
            rotation_about(_point_above_axis(params[2 * j], params[2 * j + 1]), 2.0 * np.pi / orders[j])
            for j in range(c)
        ]

    def resid(params):
        with np.errstate(all="ignore"):
            W = _product(gens_of(params))
            return (s @ W @ s - W).ravel()

    rng = np.random.default_rng(seed)
    best = np.inf
    tries = 0
    for spread in (0.8, 0.5, 1.2):
        for h0 in (0.6, 0.9, 0.4, 1.3):
            for jit in range(3):
                tries += 1
                x0 = np.array(sum(([spread * j, h0] for j in range(c)), []))
                if jit:
                    x0 = x0 + rng.normal(0.0, 0.2, size=2 * c)
                sol = least_squares(resid, x0, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
                res = float(np.abs(resid(sol.x)).max())
                best = min(best, res)
                if res >= 1e-10:
                    continue
                gens = gens_of(sol.x)
                cover = gens + [s @ g @ s for g in gens]
                if (
                    burnside_irreducible(gens + [s]).algebra_dim == 9
                    and burnside_irreducible(cover).algebra_dim == 9
                ):
                    return Representation(
                        presentation_of(sig),
                        tuple(gens) + (s,),
                        group_tag="SLpm",
                        lineage=(f"mirrored_disc{orders}",),
                        residual_bound=1e-7,
                        build_info={"tries": tries, "nfev": int(sol.nfev), "residual": res},
                    )
    raise BuildError(f"mirrored-disc optimizer failed for {orders}: best residual {best:.3e}")


def half_mirrored_disc_presentation(n: int) -> GroupPresentation:
    """Disc with one cone point of order n whose boundary is half mirror,
    half free: one rotation x, one reflection s, no long relator.  The
    free boundary interval has mirrored endpoints, so the cell structure
    carries two reflection vertices against one reflection edge."""
    ref = CellStabilizer("reflection", 2, (2,))
    ref_conj = CellStabilizer("reflection", 2, (1, 2, -1))
    cells = (
        Cell("v0", 0),
        Cell("v_cone", 0, CellStabilizer("cyclic", n, (1,))),
        Cell("v_end1", 0, ref),
        Cell("v_end2", 0, ref_conj),
        Cell("e_mirror", 1, ref),
        Cell("e_bdry", 1),
        Cell("e_cone", 1),
        Cell("e_to_mirror", 1),
        Cell("face", 2),
    )
    return presentation_from_raw(
        ("x", "s"),
        [word_power((1,), n), (2, 2)],
        orientation_character=(1, -1),
        torsion_orders={1: n, 2: 2},
        cells=cells,
    )


def half_mirrored_disc(n: int) -> Representation:
    """Free product of a rotation and a reflection in generic position."""
    if n < 3:
        raise BuildError("half-mirrored disc needs cone order >= 3 to be hyperbolic")
    s = np.diag([1.0, -1.0, 1.0])
    x = rotation_about(_point_above_axis(0.3, 0.9), 2.0 * np.pi / n)
    cover = [x, s @ x @ s]
    if burnside_irreducible(cover).algebra_dim != 9:
        raise BuildError("half-mirrored disc placement unexpectedly reducible")
    return Representation(
        half_mirrored_disc_presentation(n),
        (x, s),
        group_tag="SLpm",
        lineage=(f"half_mirrored_disc({n})",),
    )


def _generic_translation(idx: int, rng) -> np.ndarray:
    length = 1.1 + 0.23 * idx + 0.1 * rng.uniform()
    angle = 2.399963 * (idx + 1) + 0.3 * rng.uniform()  # golden-angle spread
    R = rot_origin(angle)
    return R @ trans_x(length) @ np.linalg.inv(R)


def _boundary_rep(sig: OrbifoldSignature, seed: int = 0) -> Representation:
    """Signatures with boundary circles: every generator except the last
    boundary one is placed generically (exact torsion orders), and the
    last boundary generator is solved from the long relator, which then
    holds to float precision.  Restart with fresh placements until the
    image is C-irreducible."""
    _require_hyperbolic(sig)
    pres = presentation_of(sig)
    b = sig.boundary_circles
    if b < 1:
        raise BuildError("boundary builder needs a boundary circle")
    rng = np.random.default_rng(seed)
    nonor = sig.kind == "nonorientable"
    for attempt in range(24):
        mats = []
        k = 0
        if sig.kind == "orientable":
            for _ in range(2 * sig.genus):
                mats.append(_generic_translation(k, rng))
                k += 1
        else:
            for _ in range(sig.genus):
                # glide reflection: reflect in a generic geodesic, then
                # translate along it
                ang = 2.399963 * (k + 1) + 0.3 * rng.uniform()
                R = rot_origin(ang)
                glide = R @ (trans_x(0.9 + 0.21 * k) @ np.diag([1.0, -1.0, 1.0])) @ np.linalg.inv(R)
                mats.append(glide)
                k += 1
        for j, order in enumerate(sig.cone_orders):
            center = _point_above_axis(0.7 * j - 0.4, 0.5 + 0.3 * ((j + k) % 3) + 0.2 * rng.uniform())
            mats.append(rotation_about(center, 2.0 * np.pi / order))
        for _ in range(b - 1):
            mats.append(_generic_translation(k, rng))
            k += 1
        prefix = np.eye(3)
        for x in pres.long_relator[: len(pres.long_relator) - 1]:
            prefix = prefix @ (mats[x - 1] if x > 0 else np.linalg.inv(mats[-x - 1]))
        mats.append(np.linalg.inv(prefix))
        check = list(mats)
        if nonor:
            # irreducibility is required on the orientation cover
            alpha = pres.orientation_character
            even = [m for m, a in zip(mats, alpha) if a == 1]
            odd = [m for m, a in zip(mats, alpha) if a == -1]
            check = even + [m1 @ m2 for m1 in odd for m2 in odd] + [
                o @ m @ np.linalg.inv(o) for o in odd[:1] for m in even
            ]
        if burnside_irreducible(check).algebra_dim == 9:
            return Representation(
                pres,
                tuple(mats),
                group_tag="SLpm" if nonor else "SL",
                lineage=(f"boundary_rep[{sig.to_text()}]",),
                build_info={"attempt": attempt},
            )
    raise BuildError(f"could not find an irreducible boundary placement for {sig.to_text()}")


def build_representation(sig: OrbifoldSignature, seed: int = 0) -> Representation:
    """Dispatch to the builder that covers the signature; raises BuildError
    for shapes with no builtin construction (supply a file instead)."""
    _require_hyperbolic(sig)
    if sig.kind == "mirrored":
        return _mirrored_disc(sig.cone_orders, seed)
    if sig.boundary_circles > 0:
        return _boundary_rep(sig, seed)
    if sig.kind == "nonorientable":
        raise BuildError(
            f"no builtin construction for closed non-orientable {sig.to_text()}; "
            "supply a representation file"
        )
    g, c = sig.genus, sig.cone_count
    if g == 0 and c == 3:
        return triangle_group(*sig.cone_orders)
    if g == 0 and c >= 4:
        return polygon_group(sig.cone_orders, seed)
    if g == 1 and c == 1:
        return _torus_with_cone(sig.cone_orders[0])
    if g == 2 and c == 0:
        return _genus_two()
    raise BuildError(
        f"no builtin construction for {sig.to_text()}; supply a representation file"
    )


# ---------------------------------------------------------------------------
# transforms


# the embeddings of SL_n / SL±_n into rank n + 1, named once for the package
EMBEDDINGS = ("standard", "orientable", "type_preserving")


def embed(rep: Representation, kind: str) -> Representation:
    """A -> diag(A, c) in rank n + 1.  The corner c is the orientation
    character (= det A) for the orientable embedding, which lands in SL,
    and 1 otherwise.  "standard" takes an SL representation; the other
    two take a type-preserving SLpm one."""
    if kind not in EMBEDDINGS:
        raise RepError(f"unknown embedding {kind!r}")
    want = "SL" if kind == "standard" else "SLpm"
    if rep.group_tag != want:
        raise RepError(f"{kind} embedding needs an {want} representation, got {rep.group_tag}")
    corners = (1,) * rep.num_generators
    if kind == "orientable":
        corners = rep.presentation.orientation_character
    mats = []
    for m, c in zip(rep.matrices, corners):
        big = np.zeros((rep.n + 1, rep.n + 1))
        big[: rep.n, : rep.n] = m
        big[rep.n, rep.n] = float(c)
        mats.append(big)
    return Representation(
        rep.presentation, tuple(mats), "SLpm" if kind == "type_preserving" else "SL",
        rep.lineage + (f"embed:{kind}",), rep.residual_bound,
    )


# ---------------------------------------------------------------------------
# (de)serialization


def representation_to_json(rep: Representation) -> dict:
    pres = rep.presentation
    out = {
        "group_tag": rep.group_tag,
        "lineage": list(rep.lineage),
        "matrices": [[f"{x:.17g}" for x in m.ravel()] for m in rep.matrices],
        "n": rep.n,
    }
    if pres.signature is not None:
        out["signature"] = pres.signature.to_text()
    else:
        out["presentation"] = {
            "generators": list(pres.generator_names),
            "relators": [list(r) for r in pres.relators],
            "orientation_character": list(pres.orientation_character),
            "torsion_orders": {str(k): v for k, v in pres.torsion_orders.items()},
            "peripheral_words": [list(w) for w in pres.peripheral_words],
            "long_relator_index": pres.long_relator_index,
        }
    return out


def representation_from_json(data: dict, pres: GroupPresentation | None = None) -> Representation:
    if pres is None:
        if "signature" in data:
            pres = presentation_of(parse_signature(data["signature"]))
        elif "presentation" in data:
            p = data["presentation"]
            pres = presentation_from_raw(
                p["generators"],
                [tuple(r) for r in p["relators"]],
                orientation_character=tuple(p.get("orientation_character", [1] * len(p["generators"]))),
                torsion_orders={int(k): v for k, v in p.get("torsion_orders", {}).items()},
                peripheral_words=[tuple(w) for w in p.get("peripheral_words", [])],
                long_relator_index=p.get("long_relator_index"),
            )
        else:
            raise RepError("representation file needs a signature or a presentation")
    n = int(data["n"])
    mats = []
    for flat in data["matrices"]:
        vals = [float(x) for x in flat]
        if len(vals) != n * n:
            raise RepError(f"matrix entry count {len(vals)} does not match n={n}")
        mats.append(np.array(vals).reshape(n, n))
    return Representation(
        pres,
        tuple(mats),
        data.get("group_tag", "SL"),
        tuple(data.get("lineage", ())),
        float(data.get("residual_bound", 1e-8)),
    )


def load_representation(path, pres: GroupPresentation | None = None) -> Representation:
    with open(path, "r", encoding="utf-8") as fh:
        return representation_from_json(json.load(fh), pres)
