"""Representations of orbifold groups into SL_n(R) and SL±_n(R).

Hyperbolic constructions use the hyperboloid model: SO(2,1) acting on
{x^2 + y^2 - z^2 = -1, z > 0}.  Rotations about hyperboloid points come
from a Minkowski Rodrigues formula and reflections fix a geodesic.  The
closed and mirrored builders are explicit geometry, all from one incircle
solve of a polygon tangent to a circle about the origin: spheres and
mirrored discs take products of reflections in its sides, and closed
groups of genus >= 1 its side pairings, half turns for a_1 b_1 a_1^-1
b_1^-1 ... x_1 x_1^-1 ... and glide reflections for crosscaps m_1 m_1.
HD(n) takes a rotation and a reflection in generic position.  Other
groups with boundary place their generators from one fixed stream of
random.Random draws and solve the long relator for the last one.  Each
builder takes the signature _build has checked, and build_representation
is the one public builder; it builds each group once and shares it,
read-only, since no builder reads a seed.  Every builder returns
generators that satisfy the relators up to a rounding that grows with
the entries (8.3e-9 on S2(7^9), 8.4e-9 on O(g=4)); past RESIDUAL_BOUND
the constructor refuses them, and the refusal is a BuildError that
names the signature.

The constructor checks each torsion order once, on the n x n matrices;
the cohomology table reads its stabilizer dimensions from their traces.

Builders certify matrix identities, never discreteness, and none runs
Burnside's criterion: the closed builders are C-irreducible by
construction and the boundary placement is generic (the tests pin
both), and analyze's irreducibility gates are the certificate of record.
Dimension counts depend only on the torsion conjugacy data, so any
C-irreducible representative works.
"""

from __future__ import annotations

import json
import random
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from ._record import Frozen, frozen
from .linalg import RankPolicy, rank, rank_cut
from .presentation import (
    GroupPresentation,
    OrbifoldSignature,
    euler_characteristic,
    parse_signature,
    presentation_of,
    scaled_euler,
)

__all__ = [
    "RepError",
    "BuildError",
    "Representation",
    "BurnsideReport",
    "RESIDUAL_BOUND",
    "build_representation",
    "EMBEDDINGS",
    "embed",
    "burnside_irreducible",
    "commutant_dim",
    "representation_to_json",
    "representation_from_json",
    "load_representation",
]

J3 = np.diag([1.0, 1.0, -1.0])

RESIDUAL_BOUND = 1e-8  # the relator gate, for built and file representations alike

# the seed of the random.Random stream the boundary builder places its
# generators from: the one the seed 0 once fed, so every placement is
# the one seed 0 gave.  Nothing else in the package draws.
BOUNDARY_STREAM = 0


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
    """Rotation by theta about a hyperboloid point, directly in SO(2,1)."""
    c, s = np.cos(theta), np.sin(theta)
    return c * np.eye(3) - (1.0 - c) * np.outer(p, p @ J3) + s * _cross_mat(p)


def reflection_in(normal) -> np.ndarray:
    """Reflection fixing the geodesic with the given spacelike normal."""
    n = np.asarray(normal, dtype=float)
    n = n / np.sqrt(_ldot(n, n))
    return np.eye(3) - 2.0 * np.outer(n, n @ J3)


GROUP_TAGS = ("SL", "SLpm")


def _derived(cls, **fields):
    """An instance of the immutable record class cls whose fields follow
    from an already checked object: cls.__init__ is skipped, since its
    checks would only repeat what that object implies."""
    obj = object.__new__(cls)
    vars(obj).update(fields)
    return obj


class Representation(Frozen):
    """Matrices for the generators of a presentation.

    group_tag "SL" requires determinant +1 throughout; "SLpm" requires the
    determinant sign to equal the orientation character (type preserving).
    """

    def __init__(
        self,
        presentation: GroupPresentation,
        matrices: tuple[np.ndarray, ...],
        group_tag: str = "SL",
        lineage: tuple[str, ...] = (),
    ):
        mats = tuple(np.asarray(m, dtype=float) for m in matrices)
        vars(self).update(presentation=presentation, matrices=mats, group_tag=group_tag, lineage=tuple(lineage))
        if group_tag not in GROUP_TAGS:
            raise RepError(f"unknown group tag {group_tag!r}")
        if len(mats) != presentation.num_generators:
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
        if res > RESIDUAL_BOUND:
            raise RepError(f"relator residual {res:.3e} exceeds bound {RESIDUAL_BOUND:.1e}")
        self._check_torsion()

    @property
    def n(self) -> int:
        return self.matrices[0].shape[0]

    @property
    def num_generators(self) -> int:
        return len(self.matrices)

    @cached_property
    def _inverses(self) -> tuple[np.ndarray, ...]:
        """Read-only, like the matrices of a shared representation."""
        return tuple(frozen(np.linalg.inv(m)) for m in self.matrices)

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
        """No proper power of a torsion generator may be the identity.  That
        the last power is, the relator g^order says, and every presentation
        carries it, so relator_residual has held it to RESIDUAL_BOUND."""
        eye = np.eye(self.n)
        for g, order in self.presentation.torsion_orders.items():
            m = self.matrices[g - 1]
            power = eye
            for k in range(1, order):
                power = power @ m
                if float(np.abs(power - eye).max()) < 1e-3:
                    raise RepError(f"generator {g} has order dividing {k} < {order}")


# ---------------------------------------------------------------------------
# irreducibility


class BurnsideReport(NamedTuple):
    irreducible_over_C: bool
    algebra_dim: int
    commutant_dim: int


def burnside_irreducible(rep_or_matrices, policy: RankPolicy | None = None) -> BurnsideReport:
    """Span criterion over C: the generated matrix algebra has dimension n^2
    iff the representation is C-irreducible; reported with the dimension
    of the commutant.  Real input stays real: the R-span of real matrices
    has the dimension of their C-span, so the verdict is over C either
    way."""
    policy = policy or RankPolicy()
    mats = np.asarray(getattr(rep_or_matrices, "matrices", rep_or_matrices))
    mats = mats.astype(np.result_type(mats, float), copy=False)
    dim, n = _span_dim(mats, policy), mats.shape[-1]
    return BurnsideReport(dim == n * n, dim, commutant_dim(mats, policy))


def _span_dim(mats: np.ndarray, policy: RankPolicy) -> int:
    """Dimension of the matrix algebra a float or complex stack of n x n
    generators spans.  Word length is capped at 2 n^2; the span always
    stabilizes before that for semisimple inputs, and growing stops as
    soon as it reaches n^2, the whole algebra.  A growth step multiplies
    the span by every generator at once, and its one SVD gives both the
    new dimension and an orthonormal basis to grow from."""
    n = mats.shape[-1]

    basis = np.concatenate([np.eye(n, dtype=mats.dtype)[None], mats])
    dim = rank(basis.reshape(len(basis), -1), policy)
    for _ in range(2 * n * n - 1):
        if dim == n * n:
            break
        grown = np.concatenate([basis, (basis[:, None] @ mats[None]).reshape(-1, n, n)])
        _, s, vt = np.linalg.svd(grown.reshape(len(grown), -1), full_matrices=False)
        new_dim, _ = rank_cut(s, policy)
        if new_dim == dim:
            break
        basis, dim = vt[:new_dim].reshape(new_dim, n, n), new_dim
    return dim


def commutant_dim(mats, policy: RankPolicy | None = None) -> int:
    """Dimension over C of {X : XM = MX for every M}: n^2 minus the rank of
    the vectorized Sylvester system, rows I (x) M - M^T (x) I for every M.
    Real input stays real: a real system's kernel has one dimension over
    R and over C."""
    policy = policy or RankPolicy()
    mats = np.asarray(mats)
    mats = mats.astype(np.result_type(mats, float), copy=False)
    n = mats.shape[-1]
    eye = np.eye(n)
    rows = np.einsum("ik,gjl->gijkl", eye, mats) - np.einsum("gki,jl->gijkl", mats, eye)
    return n * n - rank(rows.reshape(-1, n * n), policy)


# ---------------------------------------------------------------------------
# Fuchsian builders


def _certified(sig: OrbifoldSignature, mats, lineage: str, group_tag: str = "SL") -> Representation:
    """The built representation of sig; one the constructor refuses is a
    BuildError that names sig."""
    try:
        return Representation(presentation_of(sig), tuple(mats), group_tag, (lineage,))
    except RepError as err:
        raise BuildError(f"the built representation of {sig.to_text()} is refused: {err}; "
                         "supply a representation file") from None


@lru_cache(maxsize=256)
def _incircle(angles: tuple[float, ...]) -> tuple[float, np.ndarray]:
    """The hyperbolic polygon with vertex angles a_i whose incircle is
    centered at the origin (Poincare's polygon theorem; Beardon, The
    Geometry of Discrete Groups, 9.8): its inradius r and the polar
    angles phi_i at which side i touches the circle.  The right triangle
    of the center, vertex i and a tangent point has angle d_i =
    arcsin(cos(a_i/2) / cosh r) at the center, and the d_i fill a half
    turn: sum d_i decreases in r and exceeds pi at r = 0 exactly when the
    angles sum to less than (c - 2) pi, so bisection finds r to the last
    bit.  Side i runs from vertex i to vertex i + 1.  The solve depends
    on the angles only, so it runs once per angles tuple and is shared,
    read-only."""
    cos_half = np.cos(np.array(angles) / 2.0)
    lo, hi = 0.0, 50.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.arcsin(cos_half / np.cosh(mid)).sum() > np.pi:
            lo = mid
        else:
            hi = mid
    r = lo
    d = np.arcsin(cos_half / np.cosh(r))
    # vertex i sits d_i past the tangent point of side i - 1 and d_i short of side i's
    phis = np.cumsum(np.concatenate([[0.0], d[:-1] + d[1:]])) + d
    phis.flags.writeable = False
    return r, phis


def _side_reflection(r: float, phi: float) -> np.ndarray:
    """Reflection in the side that touches the circle of radius r about
    the origin at polar angle phi."""
    return reflection_in((np.cos(phi) * np.cosh(r), np.sin(phi) * np.cosh(r), np.sinh(r)))


def _tangential_sides(orders) -> list[np.ndarray]:
    """Reflections in the sides of the tangential polygon with vertex
    angles pi/n_i: the reflections in sides i - 1 and i compose to the
    rotation by 2 pi/n_i about vertex i."""
    r, phis = _incircle(tuple(np.pi / n for n in orders))
    return [_side_reflection(r, phi) for phi in phis]


def _sphere(sig: OrbifoldSignature) -> Representation:
    """Rotation generators of S2(n_1,...,n_c) from the tangential polygon
    with angles pi/n_i: x_i = s_{i-1} s_i is the rotation by 2 pi/n_i
    about vertex i, and x_1...x_c telescopes to the identity."""
    sides = _tangential_sides(sig.cone_orders)
    return _certified(sig, [sides[i - 1] @ sides[i] for i in range(len(sides))], f"polygon{sig.cone_orders}")


def _surface_group(sig: OrbifoldSignature) -> Representation:
    """Closed genus g >= 1, orientable or not, with cone points of orders
    n_j, from the side-pairing polygon a_1 b_1 a_1^-1 b_1^-1 ... (h = 4g
    sides) or m_1 m_1 ... m_k m_k (h = 2k sides), then x_1 x_1^-1 ...,
    all h + 2c sides tangent to one circle about the origin.  The vertex
    between the sides x_j and x_j^-1 is a cycle of its own, with angle
    2 pi/n_j, and the other h + c vertices form one cycle, at 2 pi/(h + c)
    each.  The pairing of side i onto side j turns the circle by phi_j -
    phi_i, which carries side i onto side j, then carries the polygon
    across side j: by the half turn about side j's tangent point, which
    reverses side j, or, for a crosscap, by the reflection in side j, a
    glide that keeps it.  a_h, b_h, m_i and x_j pair sides 4h+2 -> 4h,
    4h+1 -> 4h+3, 2i+1 -> 2i and h+2j+1 -> h+2j, the gluing the long
    relator reads, so by the polygon theorem x_j is the rotation by
    2 pi/n_j about its vertex and the long relator holds."""
    orientable, orders = sig.kind == "orientable", sig.cone_orders
    h, c = (4 if orientable else 2) * sig.genus, len(orders)
    angles = [2.0 * np.pi / (h + c)] * (h + 2 * c)
    for j, n in enumerate(orders):
        angles[h + 2 * j + 1] = 2.0 * np.pi / n
    r, phis = _incircle(tuple(angles))

    def pair(i, j, glide=False):
        across = _side_reflection(r, phis[j]) if glide else rotation_about(hyperboloid_point(phis[j], r), np.pi)
        return across @ rot_origin(phis[j] - phis[i])

    if orientable:
        gens = [m for t in range(0, h, 4) for m in (pair(t + 2, t), pair(t + 1, t + 3))]
    else:
        gens = [pair(t + 1, t, glide=True) for t in range(0, h, 2)]
    gens += [pair(h + 2 * j + 1, h + 2 * j) for j in range(c)]
    lineage = f"surface({'g' if orientable else 'k'}={sig.genus},cones={orders})"
    return _certified(sig, gens, lineage, "SL" if orientable else "SLpm")


def _mirrored_disc(sig: OrbifoldSignature) -> Representation:
    """Disc with mirror boundary from the tangential polygon with angles
    (pi/2, pi/n_1, ..., pi/n_c, pi/2): x_i = s_{i-1} s_i at each cone
    vertex and s the reflection in the last side, the mirror.  Sides 0 and
    c meet the mirror at right angles, so their reflections commute with
    s, and so does x_1...x_c = s_0 s_c."""
    orders, c = sig.cone_orders, len(sig.cone_orders)
    sides = _tangential_sides((2,) + orders + (2,))
    mats = [sides[i] @ sides[i + 1] for i in range(c)] + [sides[c + 1]]
    return _certified(sig, mats, f"mirrored_disc{orders}", "SLpm")


def _half_mirrored_disc(sig: OrbifoldSignature) -> Representation:
    """HD(n), a free product of a rotation and a reflection, in generic
    position."""
    (n,) = sig.cone_orders
    x = rotation_about(_point_above_axis(0.3, 0.9), 2.0 * np.pi / n)
    return _certified(sig, (x, np.diag([1.0, -1.0, 1.0])), f"half_mirrored_disc({n})", "SLpm")


def _generic_translation(idx: int, rng) -> np.ndarray:
    length = 1.1 + 0.23 * idx + 0.1 * rng.random()
    angle = 2.399963 * (idx + 1) + 0.3 * rng.random()  # golden-angle spread
    R = rot_origin(angle)
    return R @ trans_x(length) @ np.linalg.inv(R)


def _boundary_rep(sig: OrbifoldSignature, rng: random.Random) -> Representation:
    """Signatures with boundary circles: every generator except the last
    boundary one is placed generically from rng (exact torsion orders),
    and the last boundary generator is solved from the long relator,
    which then holds to float precision.  Many handles make the relator's
    prefix too ill-conditioned to solve, and the builder refuses."""
    pres = presentation_of(sig)
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
            ang = 2.399963 * (k + 1) + 0.3 * rng.random()
            R = rot_origin(ang)
            glide = R @ (trans_x(0.9 + 0.21 * k) @ np.diag([1.0, -1.0, 1.0])) @ np.linalg.inv(R)
            mats.append(glide)
            k += 1
    for j, order in enumerate(sig.cone_orders):
        center = _point_above_axis(0.7 * j - 0.4, 0.5 + 0.3 * ((j + k) % 3) + 0.2 * rng.random())
        mats.append(rotation_about(center, 2.0 * np.pi / order))
    for _ in range(sig.boundary_circles - 1):
        mats.append(_generic_translation(k, rng))
        k += 1
    prefix = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        for x in pres.long_relator[: len(pres.long_relator) - 1]:
            prefix = prefix @ (mats[x - 1] if x > 0 else np.linalg.inv(mats[-x - 1]))
    try:
        if not np.isfinite(prefix).all():
            raise RepError("its prefix leaves float range")
        mats.append(np.linalg.inv(prefix))
        return Representation(
            pres,
            tuple(mats),
            group_tag="SLpm" if sig.kind == "nonorientable" else "SL",
            lineage=(f"boundary_rep[{sig.to_text()}]",),
        )
    except (np.linalg.LinAlgError, RepError) as err:
        raise BuildError(
            f"cannot solve the long relator of {sig.to_text()} for its last boundary generator "
            f"({err}); supply a representation file"
        ) from None


def build_representation(sig: OrbifoldSignature) -> Representation:
    """The builtin representation of a hyperbolic signature; raises
    BuildError naming the signature for a non-hyperbolic one and for a
    built representation the constructor refuses (supply a file
    instead).  No builder reads a seed, so every group has one
    representation, built on its first request and shared, read-only."""
    return _build(sig)


@lru_cache(maxsize=256)
def _build(sig: OrbifoldSignature) -> Representation:
    if scaled_euler(sig)[0] >= 0:
        raise BuildError(f"{sig.to_text()} has Euler characteristic {euler_characteristic(sig)} >= 0, not hyperbolic")
    if sig.kind == "mirrored":
        rep = (_mirrored_disc if sig.closed else _half_mirrored_disc)(sig)
    elif sig.boundary_circles > 0:
        rep = _boundary_rep(sig, random.Random(BOUNDARY_STREAM))
    elif sig.genus == 0:
        rep = _sphere(sig)
    else:
        rep = _surface_group(sig)
    for m in rep.matrices:
        frozen(m)
    return rep


# ---------------------------------------------------------------------------
# transforms


# the embeddings of SL_n / SL±_n into rank n + 1, named once for the package
EMBEDDINGS = ("standard", "orientable", "type_preserving")


def embed(rep: Representation, kind: str) -> Representation:
    """A -> diag(A, c) in rank n + 1.  The corner c is the orientation
    character (= det A) for the orientable embedding, which lands in SL,
    and 1 otherwise.  "standard" takes an SL representation; the other
    two take a type-preserving SLpm one.  The checked input fixes every
    determinant, relator residual and torsion order of the result, so
    the constructor's checks are not repeated, and the inverses are
    diag(A^-1, c) from the input's (c = +-1), so the result's relators
    round as the input's do."""
    if kind not in EMBEDDINGS:
        raise RepError(f"unknown embedding {kind!r}")
    want = "SL" if kind == "standard" else "SLpm"
    if rep.group_tag != want:
        raise RepError(f"{kind} embedding needs an {want} representation, got {rep.group_tag}")
    corners = (1,) * rep.num_generators
    if kind == "orientable":
        corners = rep.presentation.orientation_character
    mats = np.zeros((rep.num_generators, rep.n + 1, rep.n + 1))
    mats[:, : rep.n, : rep.n] = rep.matrices
    mats[:, rep.n, rep.n] = corners
    inverses = np.zeros_like(mats)
    inverses[:, : rep.n, : rep.n] = rep._inverses
    inverses[:, rep.n, rep.n] = corners
    tag = "SLpm" if kind == "type_preserving" else "SL"
    return _derived(Representation, presentation=rep.presentation, matrices=tuple(frozen(mats)),
                    _inverses=tuple(frozen(inverses)), group_tag=tag, lineage=rep.lineage + (f"embed:{kind}",))


# ---------------------------------------------------------------------------
# (de)serialization


def representation_to_json(rep: Representation) -> dict:
    sig = rep.presentation.signature
    if sig is None:
        raise RepError("a representation file names its group by signature; this presentation has none")
    return {
        "group_tag": rep.group_tag,
        "lineage": list(rep.lineage),
        "matrices": [[f"{x:.17g}" for x in m.ravel()] for m in rep.matrices],
        "n": rep.n,
        "signature": sig.to_text(),
    }


def representation_from_json(data: dict, sig: OrbifoldSignature | None = None) -> Representation:
    """The file names its group by "signature"; a caller that names the
    group too may leave that out, but a file that has it must agree."""
    if not isinstance(data, dict):
        raise RepError(f"representation file must hold a JSON object, not a {type(data).__name__}")
    required = ("n", "matrices") + (() if sig is not None else ("signature",))
    missing = [key for key in required if key not in data]
    if missing:
        raise RepError(f"representation file lacks {', '.join(map(repr, missing))}")
    named = sig
    try:
        if "signature" in data:
            if not isinstance(data["signature"], str):
                raise TypeError(f"signature must be a string, not {data['signature']!r}")
            named = parse_signature(data["signature"])
        n = data["n"]
        if type(n) is not int:
            raise TypeError(f"n must be a JSON integer, not {n!r}")
        mats = [np.array([float(x) for x in flat]) for flat in data["matrices"]]
        lineage = data.get("lineage", [])
        if not isinstance(lineage, list) or not all(isinstance(x, str) for x in lineage):
            raise TypeError(f"lineage must be a list of strings, not {lineage!r}")
    except (TypeError, ValueError, OverflowError) as err:
        raise RepError(f"representation file has a malformed entry: {err}") from None
    if sig is not None and named != sig:
        raise RepError(f"file is for {named.to_text()}, not {sig.to_text()}")
    if n < 1:
        raise RepError(f"representation rank n={n} must be positive")
    for m in mats:
        if m.size != n * n:
            raise RepError(f"matrix entry count {m.size} does not match n={n}")
        if not np.isfinite(m).all():
            raise RepError("representation file has a non-finite entry")
    return Representation(
        presentation_of(named),
        tuple(m.reshape(n, n) for m in mats),
        data.get("group_tag", "SL"),
        tuple(lineage),
    )


def load_representation(path, sig: OrbifoldSignature | None = None) -> Representation:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except UnicodeDecodeError as err:
            raise RepError(f"representation file is not UTF-8 text: {err.reason} at byte {err.start}") from None
        except RecursionError:
            raise RepError("representation file nests its JSON too deeply to read") from None
    return representation_from_json(data, sig)
