"""Reference dimensions and local models for every benchmark input.

The values do not come from the program under test:

* Closed and bounded surface orbifolds without mirrors (the `S2`, `O`, `D2`
  and `N` inputs) take their dimensions from Euler-characteristic counts.
  Here chi is the Euler characteristic of the underlying surface |O|, k the
  number of cone points and k2 the number of order-two cone points:
  p = -8 chi + 6k - 2 k2 (Choi-Goldman 2005) and d = -3 chi + 2k (the
  paper's criterion 2).  For closed orientable groups b = 2g; otherwise b is
  the free rank of the abelianization.  With boundary the group is free
  up to torsion, so h0 = h2 = 0 and the same counts hold.
* The mirrored discs take p and d_oe from the frozen table of the paper's
  criterion 4 where it applies (D(3,3;mirror) and HD(3)).  The rest, namely
  p and d_oe of D(3,3,3;mirror) and HD(5) and the full-boundary count f of
  every mirrored input, are frozen from the seed commit c970b4d.  Then
  d_tp = d_oe - f holds, which is criterion 4's relation.
* The model display follows the rank-four link table: d = 0 gives a point
  link; closed orientable groups give UT(S^{d-1}); orientable groups with
  boundary, and non-orientable groups under the orientable embedding, give
  S^{d-1}xS^{d-1}; the type-preserving embedding gives its antipodal
  quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

SEED_COMMIT = "c970b4d"


@dataclass(frozen=True)
class Orbifold:
    chi: int  # Euler characteristic of the underlying surface
    cones: tuple[int, ...]
    free_rank: int  # free rank of the abelianization; 2g when closed orientable
    closed: bool = False
    orientable: bool = True
    # mirrored inputs only: (p, d_oe, f) from criterion 4 or the seed commit
    mirrored: tuple[int, int, int] | None = None


ORBIFOLDS = {
    "S2(2,3,7)": Orbifold(2, (2, 3, 7), 0, closed=True),
    "S2(3,3,3,3)": Orbifold(2, (3,) * 4, 0, closed=True),
    "S2(3,3,3,3,3)": Orbifold(2, (3,) * 5, 0, closed=True),
    "S2(3,3,3,3,3,3)": Orbifold(2, (3,) * 6, 0, closed=True),
    "S2(3,3,3,3,3,3,3)": Orbifold(2, (3,) * 7, 0, closed=True),
    "O(g=2)": Orbifold(-2, (), 4, closed=True),
    "O(g=1;cone=[3])": Orbifold(0, (3,), 2, closed=True),
    "O(g=2;b=2;cone=[3,5])": Orbifold(-4, (3, 5), 5),
    "D2(3,3)": Orbifold(1, (3, 3), 0),
    "N(k=2;b=1;cone=[3])": Orbifold(-1, (3,), 2, orientable=False),
    # criterion 4: p = 4, d_oe = 1; f frozen from the seed commit
    "D(3,3;mirror)": Orbifold(1, (3, 3), 0, orientable=False, mirrored=(4, 1, 0)),
    # frozen from the seed commit
    "D(3,3,3;mirror)": Orbifold(1, (3, 3, 3), 0, orientable=False, mirrored=(10, 3, 0)),
    # criterion 4: d_oe = 1, f = 1; p frozen from the seed commit
    "HD(3)": Orbifold(1, (3,), 0, orientable=False, mirrored=(2, 1, 1)),
    # frozen from the seed commit
    "HD(5)": Orbifold(1, (5,), 0, orientable=False, mirrored=(2, 1, 1)),
}


def expected_dims(text: str, embedding: str | None) -> dict:
    """The `dims` dict analyze() should report for this input and embedding."""
    o = ORBIFOLDS[text]
    k2 = sum(1 for c in o.cones if c == 2)
    p = -8 * o.chi + 6 * len(o.cones) - 2 * k2
    d = -3 * o.chi + 2 * len(o.cones)
    if o.orientable:
        return {"p": p, "d": d, "b": o.free_rank}
    f = 0
    if o.mirrored is not None:
        p, d, f = o.mirrored
    d_oe, d_tp = d, d - f
    d_model = d_oe if embedding == "orientable" else d_tp
    return {"p": p, "b": o.free_rank, "d_oe": d_oe, "d_tp": d_tp, "f": f, "d_model": d_model}


def expected_display(text: str, embedding: str | None) -> str:
    """The LocalModel.display string for this input and embedding."""
    o = ORBIFOLDS[text]
    dims = expected_dims(text, embedding)
    d = dims.get("d", dims.get("d_model"))
    base = f"R^{dims['p']} x R^{dims['b']}"
    if d == 0:
        return base
    k = d - 1
    if o.closed and o.orientable:
        return f"{base} x Cone(UT(S^{k}))"
    if o.orientable or embedding == "orientable":
        return f"{base} x Cone(S^{k}xS^{k})"
    return f"{base} x Cone((S^{k}xS^{k})/~)"
