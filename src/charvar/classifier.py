"""Local model of the character variety from computed dimensions.

The classifier is a lookup: it consumes (p, d, b) together with the
topology, orientability, embedding and ambient rank, and returns the
cone model R^p x R^b x Cone(link).  It never recomputes cohomology.
The smooth/singular verdict is an explicit table over the link kinds,
including the two degenerate d = 1 rows where the cone is secretly a
point or a line.
"""

from __future__ import annotations

from ._record import Value
from .reps import EMBEDDINGS

__all__ = [
    "ClassifierError",
    "LINK_KINDS",
    "EMBEDDINGS",
    "LocalModel",
    "classify",
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


class LocalModel(Value):
    """R^{smooth_dim} x R^{abelian_dim} x Cone(link of dimension built
    from link_dim); link_dim is the d that fed the cone."""

    def __init__(
        self,
        smooth_dim: int,
        abelian_dim: int,
        link: str,
        link_dim: int,
        smooth: bool,
        provenance: str,
        flags: tuple[str, ...] = (),
    ):
        if link not in LINK_KINDS:
            raise ClassifierError(f"unknown link kind {link!r}")
        if min(smooth_dim, abelian_dim, link_dim) < 0:
            raise ClassifierError("negative dimension")
        if (link == "point") != (link_dim == 0):
            raise ClassifierError("point link exactly when d = 0")
        vars(self).update(
            smooth_dim=smooth_dim, abelian_dim=abelian_dim, link=link, link_dim=link_dim,
            smooth=smooth, provenance=provenance, flags=tuple(flags),
        )

    def _key(self) -> tuple:
        return (self.smooth_dim, self.abelian_dim, self.link, self.link_dim,
                self.smooth, self.provenance, self.flags)

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
