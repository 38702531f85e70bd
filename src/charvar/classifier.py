"""Local model of the character variety from computed dimensions.

The classifier is a lookup: it consumes (p, d, b) together with the
topology, orientability, embedding and ambient rank, and returns the
cone model R^p x R^b x Cone(link).  It never recomputes cohomology.
The smooth/singular verdict is an explicit table over the link kinds,
including the two degenerate d = 1 rows where the cone is secretly a
point or a line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .reps import EMBEDDINGS

__all__ = [
    "ClassifierError",
    "LINK_KINDS",
    "EMBEDDINGS",
    "LocalModel",
    "classify",
    "cone_membership",
    "projective_corollary",
    "parse_display",
]


class ClassifierError(ValueError):
    pass


LINK_KINDS = (
    "point",
    "spheres_product",
    "spheres_product_mod",
    "unit_tangent_sphere",
    "unit_tangent_projective",
)


@dataclass(frozen=True)
class LocalModel:
    """R^{smooth_dim} x R^{abelian_dim} x Cone(link of dimension built
    from link_dim); link_dim is the d that fed the cone."""

    smooth_dim: int
    abelian_dim: int
    link: str
    link_dim: int
    smooth: bool
    provenance: str
    flags: tuple[str, ...] = ()

    def __post_init__(self):
        if self.link not in LINK_KINDS:
            raise ClassifierError(f"unknown link kind {self.link!r}")
        if min(self.smooth_dim, self.abelian_dim, self.link_dim) < 0:
            raise ClassifierError("negative dimension")
        if (self.link == "point") != (self.link_dim == 0):
            raise ClassifierError("point link exactly when d = 0")

    def link_text(self) -> str:
        k = self.link_dim - 1
        if self.link == "point":
            return ""
        if self.link == "unit_tangent_sphere":
            return f"UT(S^{k})"
        if self.link == "unit_tangent_projective":
            return f"UT(RP^{k})"
        if self.link == "spheres_product":
            return f"S^{k}xS^{k}"
        return f"(S^{k}xS^{k})/~"

    @property
    def display(self) -> str:
        base = f"R^{self.smooth_dim} x R^{self.abelian_dim}"
        if self.link == "point":
            return base
        return f"{base} x Cone({self.link_text()})"

    def sentence(self) -> str:
        verdict = "smooth" if self.smooth else "singular"
        extra = f" ({'; '.join(self.flags)})" if self.flags else ""
        return f"local model {self.display}, {verdict} point{extra}"


_DISPLAY = re.compile(r"^R\^(\d+) x R\^(\d+)(?: x Cone\((.+)\))?$")
_LINKS = (
    (re.compile(r"^UT\(S\^(\d+)\)$"), "unit_tangent_sphere"),
    (re.compile(r"^UT\(RP\^(\d+)\)$"), "unit_tangent_projective"),
    (re.compile(r"^S\^(\d+)xS\^(\d+)$"), "spheres_product"),
    (re.compile(r"^\(S\^(\d+)xS\^(\d+)\)/~$"), "spheres_product_mod"),
)


def parse_display(text: str) -> tuple[int, int, str, int]:
    """Inverse of LocalModel.display: (p, b, link kind, d)."""
    m = _DISPLAY.match(text.strip())
    if not m:
        raise ClassifierError(f"cannot parse model display {text!r}")
    p, b = int(m.group(1)), int(m.group(2))
    if m.group(3) is None:
        return p, b, "point", 0
    body = m.group(3)
    for pat, kind in _LINKS:
        lm = pat.match(body)
        if lm:
            ks = {int(g) for g in lm.groups()}
            if len(ks) != 1:
                raise ClassifierError(f"mismatched sphere dimensions in {body!r}")
            return p, b, kind, ks.pop() + 1
    raise ClassifierError(f"unknown cone link {body!r}")


def _smoothness(link: str, d: int) -> tuple[bool, tuple[str, ...]]:
    if link == "point":
        return True, ()
    if link in ("unit_tangent_sphere", "unit_tangent_projective"):
        if d == 1:
            # unit tangent bundle of a 0-sphere or a one-point space is
            # empty, so the cone is a point
            return True, ("degenerate-d, verify by hand",)
        return False, ()
    if link == "spheres_product_mod":
        if d == 1:
            # four cone rays glued in antipodal pairs: a line
            return True, ("topologically non-singular",)
        return False, ()
    return False, ()


def classify(
    topology: str,
    orientable: bool,
    embedding: str,
    n_plus_1: int,
    p: int,
    d: int,
    b: int,
) -> LocalModel:
    if topology not in ("closed", "boundary"):
        raise ClassifierError(f"unknown topology {topology!r}")
    if embedding not in EMBEDDINGS:
        raise ClassifierError(f"unknown embedding {embedding!r}")
    if min(p, d, b) < 0:
        raise ClassifierError("dimensions must be non-negative")
    if n_plus_1 < 2:
        raise ClassifierError("ambient rank must be at least 2")
    if orientable and embedding != "standard":
        raise ClassifierError("orientable groups use the standard embedding")
    if not orientable and embedding == "standard":
        raise ClassifierError("non-orientable groups need an explicit embedding choice")

    even = n_plus_1 % 2 == 0
    if d == 0:
        link = "point"
        row = "zero-d"
    elif orientable and topology == "closed":
        link = "unit_tangent_sphere" if even else "unit_tangent_projective"
        row = f"closed-orientable-{'even' if even else 'odd'}"
    elif orientable:
        link = "spheres_product" if even else "spheres_product_mod"
        row = f"orientable-boundary-{'even' if even else 'odd'}"
    elif embedding == "orientable":
        link = "spheres_product" if even else "spheres_product_mod"
        row = f"nonorientable-oe-{'even' if even else 'odd'}"
    else:
        link = "spheres_product_mod"
        row = "nonorientable-tp"

    smooth, flags = _smoothness(link, d)
    return LocalModel(p, b, link, d, smooth, row, flags)


def projective_corollary(t: int, p: int, b: int, closed: bool) -> LocalModel:
    """Ambient rank 4 shortcut driven by the tangential dimension t."""
    return classify("closed" if closed else "boundary", True, "standard", 4, p, t, b)


_VARIANTS = {
    "closed": "closed",
    "boundary": "boundary",
    "unit_tangent_sphere": "closed",
    "unit_tangent_projective": "closed",
    "spheres_product": "boundary",
    "spheres_product_mod": "boundary",
}


def cone_membership(x, y, variant: str, tol: float = 1e-9) -> bool:
    """Whether (x, y) satisfies the cone equations of the given link
    variant: equal norms always, zero inner product additionally for the
    closed variants.  Antipodal quotients leave membership unchanged."""
    kind = _VARIANTS.get(variant)
    if kind is None:
        raise ClassifierError(f"unknown cone variant {variant!r}")
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ClassifierError("cone membership needs equal-length vectors")
    nx, ny = float(np.linalg.norm(x)), float(np.linalg.norm(y))
    scale = max(1.0, nx, ny)
    if abs(nx - ny) > tol * scale:
        return False
    if kind == "closed" and abs(float(x @ y)) > tol * scale * scale:
        return False
    return True
