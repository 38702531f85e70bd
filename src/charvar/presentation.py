"""Orbifold signatures and finite group presentations.

Words are tuples of signed 1-based generator indices: (1, -2) means
g1 * g2^{-1}.  Presentations carry the orientation character, torsion
markers, peripheral words and an optional cell structure; those four
pieces of metadata are what the cohomology layer keys its case analysis
on, so they are validated here rather than trusted downstream.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import NamedTuple

from ._record import Value

__all__ = [
    "Word",
    "SignatureError",
    "PresentationError",
    "OrbifoldSignature",
    "CellStabilizer",
    "Cell",
    "GroupPresentation",
    "parse_signature",
    "presentation_of",
    "euler_characteristic",
    "scaled_euler",
    "underlying_euler",
    "inverse_word",
    "word_power",
    "orientation_cover_generators",
]

Word = tuple[int, ...]


class SignatureError(ValueError):
    pass


# a torsion relator x^n is stored and walked as n letters, so time and
# memory grow with n (presentation_of of S2(2,3,10^8) alone takes
# seconds), while no float representation meets the relator bound long
# before this order (the built S2(2,3,1000) misses it by 3e-5)
MAX_CONE_ORDER = 10_000


class PresentationError(ValueError):
    pass


def inverse_word(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def word_power(w: Word, k: int) -> Word:
    if k < 0:
        return word_power(inverse_word(w), -k)
    return w * k


class OrbifoldSignature(Value):
    """A compact 2-orbifold without corner reflectors.

    kind "orientable": genus handles, kind "nonorientable": genus counts
    crosscaps (>= 1), kind "mirrored": disc with mirrored boundary and no
    handles.  A mirrored disc is closed (D(...;mirror)) or keeps one free
    arc of its boundary (boundary_circles 1, HD(n)); the latter has
    exactly one cone point.
    """

    def __init__(self, kind: str, genus: int, boundary_circles: int, cone_orders: tuple[int, ...]):
        cone_orders = tuple(cone_orders)
        if kind not in ("orientable", "nonorientable", "mirrored"):
            raise SignatureError(f"unknown kind {kind!r}")
        if kind == "nonorientable" and genus < 1:
            raise SignatureError("non-orientable signature needs at least one crosscap")
        if kind != "nonorientable" and genus < 0:
            raise SignatureError("genus must be non-negative")
        if boundary_circles < 0:
            raise SignatureError("boundary count must be non-negative")
        if kind == "mirrored" and (genus or boundary_circles > 1):
            raise SignatureError("mirrored disc carries no handles and at most one free arc")
        if kind == "mirrored" and boundary_circles and len(cone_orders) != 1:
            raise SignatureError("half-mirrored disc HD(n) has exactly one cone point")
        if any(n < 2 for n in cone_orders):
            raise SignatureError("cone orders must be >= 2")
        if any(n > MAX_CONE_ORDER for n in cone_orders):
            raise SignatureError(f"cone orders must be <= {MAX_CONE_ORDER}")
        vars(self).update(kind=kind, genus=genus, boundary_circles=boundary_circles, cone_orders=cone_orders)

    def _key(self) -> tuple:
        return self.kind, self.genus, self.boundary_circles, self.cone_orders

    @property
    def orientable(self) -> bool:
        return self.kind == "orientable"

    @property
    def closed(self) -> bool:
        return self.boundary_circles == 0

    @property
    def cone_count(self) -> int:
        return len(self.cone_orders)

    def to_text(self) -> str:
        cones = ",".join(str(n) for n in self.cone_orders)
        if self.kind == "mirrored":
            return f"HD({cones})" if self.boundary_circles else f"D({cones};mirror)"
        if self.kind == "orientable" and self.genus == 0 and self.boundary_circles == 0:
            return f"S2({cones})"
        if self.kind == "orientable":
            return f"O(g={self.genus};b={self.boundary_circles};cone=[{cones}])"
        return f"N(k={self.genus};b={self.boundary_circles};cone=[{cones}])"


_INT_LIST = re.compile(r"^\s*$|^\s*\d+\s*(,\s*\d+\s*)*$")


def _parse_orders(body: str, ctx: str) -> tuple[int, ...]:
    if not _INT_LIST.match(body):
        raise SignatureError(f"bad cone-order list {body!r} in {ctx}")
    return tuple(int(tok) for tok in body.split(",") if tok.strip())


_KEY_VALUE = re.compile(r"^(g|k|b)\s*=\s*(\d+)$|^(cone)\s*=\s*\[(.*)\]$")


def _parse_kv(body: str, ctx: str, keys: tuple[str, ...]) -> dict:
    """The key=value parts of O(...) or N(...), each of keys at most once."""
    out = {}
    for part in filter(None, (p.strip() for p in body.split(";"))):
        m = _KEY_VALUE.match(part)
        if not m:
            raise SignatureError(f"cannot parse {part!r} in {ctx}")
        key = m.group(1) or m.group(3)
        if key not in keys:
            raise SignatureError(f"{key}= does not belong in {ctx}")
        if key in out:
            raise SignatureError(f"{key}= given twice in {ctx}")
        out[key] = int(m.group(2)) if m.group(2) else _parse_orders(m.group(4), ctx)
    return out


@lru_cache(maxsize=256)
def parse_signature(text: str) -> OrbifoldSignature:
    """Grammar: S2(3,3,4) | O(g=2;b=1;cone=[3,3]) | N(k=1;b=0;cone=[2,5])
    | D(3,4;mirror) | D2(3,3) (disc with cone points, one boundary circle)
    | HD(3) (disc with one cone point, boundary half mirror, half free)."""
    s = text.strip()
    m = re.match(r"^S2\((.*)\)$", s)
    if m:
        return OrbifoldSignature("orientable", 0, 0, _parse_orders(m.group(1), s))
    m = re.match(r"^D2\((.*)\)$", s)
    if m:
        return OrbifoldSignature("orientable", 0, 1, _parse_orders(m.group(1), s))
    m = re.match(r"^D\((.*);\s*mirror\s*\)$", s)
    if m:
        return OrbifoldSignature("mirrored", 0, 0, _parse_orders(m.group(1), s))
    m = re.match(r"^HD\((.*)\)$", s)
    if m:
        return OrbifoldSignature("mirrored", 0, 1, _parse_orders(m.group(1), s))
    m = re.match(r"^O\((.*)\)$", s)
    if m:
        kv = _parse_kv(m.group(1), s, ("g", "b", "cone"))
        return OrbifoldSignature("orientable", kv.get("g", 0), kv.get("b", 0), kv.get("cone", ()))
    m = re.match(r"^N\((.*)\)$", s)
    if m:
        kv = _parse_kv(m.group(1), s, ("k", "b", "cone"))
        if "k" not in kv:
            raise SignatureError(f"N(...) needs k=<crosscaps> in {s!r}")
        return OrbifoldSignature("nonorientable", kv["k"], kv.get("b", 0), kv.get("cone", ()))
    raise SignatureError(f"cannot parse signature {text!r}")


def euler_characteristic(sig: OrbifoldSignature):
    """chi as a Fraction; fractions loads decimal, so no command imports it."""
    from fractions import Fraction

    return Fraction(*scaled_euler(sig))


def scaled_euler(sig: OrbifoldSignature) -> tuple[int, int]:
    """(2 L chi, 2 L) for L the lcm of the cone orders: chi in integers."""
    lcm = math.lcm(*sig.cone_orders)
    arcs = sig.boundary_circles if sig.kind == "mirrored" else 0  # a mirror arc, unlike a circle, counts half
    cones = sum(2 * (lcm // n) * (n - 1) for n in sig.cone_orders)
    return 2 * lcm * underlying_euler(sig) - lcm * arcs - cones, 2 * lcm


def underlying_euler(sig: OrbifoldSignature) -> int:
    if sig.kind == "orientable":
        return 2 - 2 * sig.genus - sig.boundary_circles
    if sig.kind == "nonorientable":
        return 2 - sig.genus - sig.boundary_circles
    return 1  # disc


class CellStabilizer(Value):
    """Isotropy of (a lift of) a cell: trivial, cyclic of given order
    generated by `word`, or reflection generated by `word`.  Corner
    reflectors, whose stabilizers are dihedral, are out of scope."""

    def __init__(self, kind: str = "trivial", order: int = 1, word: Word = ()):
        if kind not in ("trivial", "cyclic", "reflection"):
            raise PresentationError(f"unknown stabilizer kind {kind!r}")
        if kind == "cyclic" and (order < 2 or not word):
            raise PresentationError("cyclic stabilizer needs order >= 2 and a word")
        if kind == "reflection" and not word:
            raise PresentationError("reflection stabilizer needs a word")
        vars(self).update(kind=kind, order=order, word=tuple(word))

    def _key(self) -> tuple:
        return self.kind, self.order, self.word

    @property
    def reverses_orientation(self) -> bool:
        return self.kind == "reflection"


class Cell(NamedTuple):
    name: str
    dim: int
    stabilizer: CellStabilizer = CellStabilizer()


class GroupPresentation(Value):
    def __init__(
        self,
        generator_names: tuple[str, ...],
        relators: tuple[Word, ...],
        orientation_character: tuple[int, ...],
        torsion_orders: dict[int, int] | None = None,
        peripheral_words: tuple[Word, ...] = (),
        long_relator_index: int | None = None,
        cells: tuple[Cell, ...] = (),
        signature: OrbifoldSignature | None = None,
    ):
        vars(self).update(
            generator_names=tuple(generator_names),
            relators=tuple(map(tuple, relators)),
            orientation_character=tuple(orientation_character),
            torsion_orders=MappingProxyType(dict(torsion_orders or {})),
            peripheral_words=tuple(map(tuple, peripheral_words)),
            long_relator_index=long_relator_index,
            cells=tuple(cells),
            signature=signature,
        )
        n = len(self.generator_names)
        if len(self.orientation_character) != n:
            raise PresentationError("orientation character must list one sign per generator")
        if any(e not in (1, -1) for e in self.orientation_character):
            raise PresentationError("orientation character values must be +1 or -1")
        for w in self.relators + self.peripheral_words:
            for x in w:
                if x == 0 or abs(x) > n:
                    raise PresentationError(f"letter {x} out of range in word {w}")
        for r in self.relators:
            if self.character_of(r) != 1:
                raise PresentationError(f"relator {r} is not orientation-preserving")
        for g, order in self.torsion_orders.items():
            if not (1 <= g <= n) or order < 2:
                raise PresentationError(f"bad torsion marker {g}:{order}")
            if word_power((g,), order) not in self.relators:
                raise PresentationError(f"torsion marker {g}:{order} has no relator g^{order}")
        if self.long_relator_index is not None and not (
            0 <= self.long_relator_index < len(self.relators)
        ):
            raise PresentationError("long relator index out of range")

    def _key(self) -> tuple:
        return (self.generator_names, self.relators, self.orientation_character, self.torsion_orders,
                self.peripheral_words, self.long_relator_index, self.cells, self.signature)

    @property
    def num_generators(self) -> int:
        return len(self.generator_names)

    @cached_property
    def orientable(self) -> bool:
        return all(e == 1 for e in self.orientation_character)

    def character_of(self, w: Word) -> int:
        out = 1
        for x in w:
            out *= self.orientation_character[abs(x) - 1]
        return out

    @cached_property
    def full_boundary_count(self) -> int:
        """Boundary components that are intervals with mirrored endpoints.

        Counted from the cell structure as (#0-cells with an
        orientation-reversing stabilizer) - (#1-cells with one); each such
        boundary component contributes exactly two mirrored endpoints but
        shares its mirror arcs, so the alternating count is exact."""
        if self.cells:
            v = sum(
                1 for c in self.cells if c.dim == 0 and c.stabilizer.reverses_orientation
            )
            e = sum(
                1 for c in self.cells if c.dim == 1 and c.stabilizer.reverses_orientation
            )
            return v - e
        return 0

    @cached_property
    def closed(self) -> bool:
        return not self.peripheral_words and self.full_boundary_count == 0

    @property
    def long_relator(self) -> Word:
        if self.long_relator_index is None:
            raise PresentationError("presentation has no long relator")
        return self.relators[self.long_relator_index]

    def describe(self) -> str:
        gens = ", ".join(self.generator_names)
        rels = ", ".join(self.show_word(r) for r in self.relators)
        return f"<{gens} | {rels}>"

    def show_word(self, w: Word) -> str:
        if not w:
            return "1"
        parts = []
        for x in w:
            name = self.generator_names[abs(x) - 1]
            parts.append(name if x > 0 else name + "^-1")
        return "*".join(parts)


def _surface_cells(sig: OrbifoldSignature, cone_gen_offset: int) -> tuple[Cell, ...]:
    cells = [Cell("v0", 0)]
    for j, n in enumerate(sig.cone_orders):
        stab = CellStabilizer("cyclic", n, (cone_gen_offset + j + 1,))
        cells.append(Cell(f"v_cone{j + 1}", 0, stab))
    loops = 2 * sig.genus if sig.kind == "orientable" else sig.genus
    for i in range(loops):
        cells.append(Cell(f"e_loop{i + 1}", 1))
    for j in range(sig.cone_count):
        cells.append(Cell(f"e_cone{j + 1}", 1))
    for l in range(sig.boundary_circles):
        cells.append(Cell(f"v_bdry{l + 1}", 0))
        cells.append(Cell(f"e_bdry{l + 1}", 1))
        cells.append(Cell(f"e_to_bdry{l + 1}", 1))
    cells.append(Cell("face", 2))
    return tuple(cells)


def _mirrored_cells(sig: OrbifoldSignature, ref_index: int) -> tuple[Cell, ...]:
    ref = CellStabilizer("reflection", 2, (ref_index,))
    cells = [Cell("v0", 0), Cell("v_mirror", 0, ref), Cell("e_mirror", 1, ref)]
    if not sig.closed:
        # HD(n): the free arc ends on the mirror twice, the far end fixed by
        # x s x^-1, so two reflection vertices face one reflection edge
        ref_conj = CellStabilizer("reflection", 2, (1, ref_index, -1))
        cells += [Cell("v_mirror_end", 0, ref_conj), Cell("e_bdry", 1)]
    for j, n in enumerate(sig.cone_orders):
        cells.append(Cell(f"v_cone{j + 1}", 0, CellStabilizer("cyclic", n, (j + 1,))))
        cells.append(Cell(f"e_cone{j + 1}", 1))
    cells.append(Cell("e_to_mirror", 1))
    cells.append(Cell("face", 2))
    return tuple(cells)


@lru_cache(maxsize=256)
def presentation_of(sig: OrbifoldSignature) -> GroupPresentation:
    """Standard presentation for the orbifold fundamental group, built once
    per signature and shared.

    Orientable: a_i, b_i, x_j, c_l with x_j^{n_j} and
    [a_1,b_1]...[a_g,b_g] x_1...x_c c_1...c_b.  Non-orientable surface:
    crosscap generators m_i with m_1^2...m_k^2 x_1...x_c c_1...c_b and
    character -1 on each m_i.  Mirrored disc: x_j, s with x_j^{n_j}, s^2
    and the requirement that x_1...x_c commute with s.  HD(n): x, s with
    x^n and s^2 alone, since the free arc leaves them unrelated.
    """
    cones = sig.cone_orders
    c = len(cones)
    if sig.kind == "mirrored":
        s_idx = c + 1
        relators = [word_power((j + 1,), n) for j, n in enumerate(cones)]
        relators.append(word_power((s_idx,), 2))
        torsion = {j + 1: n for j, n in enumerate(cones)}
        torsion[s_idx] = 2
        if not sig.closed:
            return GroupPresentation(
                ("x", "s"), tuple(relators), (1, -1), torsion,
                cells=_mirrored_cells(sig, s_idx), signature=sig,
            )
        names = tuple(f"x{j + 1}" for j in range(c)) + ("s",)
        w = tuple(range(1, c + 1))
        relators.append((s_idx,) + w + (-s_idx,) + inverse_word(w))
        return GroupPresentation(
            generator_names=names,
            relators=tuple(relators),
            orientation_character=(1,) * c + (-1,),
            torsion_orders=torsion,
            long_relator_index=len(relators) - 1,
            cells=_mirrored_cells(sig, s_idx),
            signature=sig,
        )

    b = sig.boundary_circles
    if sig.kind == "orientable":
        g = sig.genus
        names = []
        for i in range(g):
            names += [f"a{i + 1}", f"b{i + 1}"]
        handle_count = 2 * g
        long_prefix: list[int] = []
        for i in range(g):
            ai, bi = 2 * i + 1, 2 * i + 2
            long_prefix += [ai, bi, -ai, -bi]
        char = [1] * handle_count
    else:
        k = sig.genus
        names = [f"m{i + 1}" for i in range(k)]
        handle_count = k
        long_prefix = []
        for i in range(k):
            long_prefix += [i + 1, i + 1]
        char = [-1] * handle_count

    cone_offset = handle_count
    names += [f"x{j + 1}" for j in range(c)]
    char += [1] * c
    bdry_offset = cone_offset + c
    names += [f"c{l + 1}" for l in range(b)]
    char += [1] * b

    relators = [word_power((cone_offset + j + 1,), n) for j, n in enumerate(cones)]
    long_word = tuple(long_prefix) + tuple(
        cone_offset + j + 1 for j in range(c)
    ) + tuple(bdry_offset + l + 1 for l in range(b))
    relators.append(long_word)
    torsion = {cone_offset + j + 1: n for j, n in enumerate(cones)}
    return GroupPresentation(
        generator_names=tuple(names),
        relators=tuple(relators),
        orientation_character=tuple(char),
        torsion_orders=torsion,
        peripheral_words=tuple((bdry_offset + l + 1,) for l in range(b)),
        long_relator_index=len(relators) - 1,
        cells=_surface_cells(sig, cone_offset),
        signature=sig,
    )


def orientation_cover_generators(pres: GroupPresentation) -> tuple[Word, ...]:
    """Schreier generator words for the index-2 kernel of the orientation
    character, with coset representatives {1, t} for t the first
    orientation-reversing generator.  Freely trivial generators are
    dropped; the remaining words generate the kernel."""
    if pres.orientable:
        raise PresentationError("presentation has no orientation cover: it is orientable")
    t = next(
        i + 1 for i, e in enumerate(pres.orientation_character) if e == -1
    )
    words = []
    for i, e in enumerate(pres.orientation_character):
        g = i + 1
        if e == 1:
            words.append((g,))
            words.append((t, g, -t))
        elif g == t:
            words.append((t, t))
        else:
            words.append((g, -t))
            words.append((t, g))
    return tuple(words)
