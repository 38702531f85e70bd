"""End-to-end analysis of one orbifold group.

analyze() resolves the input to a presentation and a representation,
certifies the hypotheses (relator residuals, determinant signs,
C-irreducibility of the base group and, for non-orientable groups, of
the orientation-cover subgroup), embeds into the ambient group, where
the relators must hold to the same bound, computes the cohomology
table of every coefficient block, compares the whole obstruction form
with the duality pairing when the group is closed orientable, and
classifies.
It fails closed: a broken hypothesis raises HypothesisError carrying
the ledger collected so far, and no local model is emitted.

verify_suite() runs the full cross-check battery on top of analyze and
never raises on a failed check; failures are data in the ledger.

No step reads the seed; a request only echoes it.  Every gate reads
whole Gram matrices or fixed directions in them, and only the boundary
builder draws, from a fixed stream, so every reading depends on the
representation, the embedding and the rank policy alone, and it is
computed once and kept (_record.kept) with the object it derives from:
the hypotheses and the decomposition per embedding with the
representation, the table, the cross form and the commutant with the
decomposition, and the duality pairing, the obstruction scan and the
whole verify ledger past analyze's gates with the table.  The Gram
matrices behind the scan and the gates are read only while these are
computed, so they are not kept.  Every built group is shared, so its
facts are too: a later call at any seed reads them back.  A file
representation is read per call, and its facts go with its report.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._record import Value, frozen, kept
from .classifier import LocalModel, classify
from .coeffmodules import decompose_sl, twist_by_character
from .cohomology import BLOCKS, BlockComplex, CohomologyReport, cocycle_from_stack, cohomology_report, cup
from .cohomology import cocycle_residual, fundamental_form, pair_fundamental_class, weil_slope
from .linalg import RankPolicy
from .presentation import GroupPresentation, OrbifoldSignature, orientation_cover_generators, parse_signature
from .reps import (
    EMBEDDINGS,
    RESIDUAL_BOUND,
    BurnsideReport,
    Representation,
    build_representation,
    burnside_irreducible,
    commutant_dim,
    load_representation,
)

__all__ = [
    "PipelineError",
    "HypothesisError",
    "LedgerEntry",
    "AnalysisRequest",
    "AnalysisReport",
    "request_from_text",
    "analyze",
    "verify_suite",
    "report_to_json",
    "ledger_to_json",
    "example_requests",
    "run_examples",
    "SCHEMA",
]

SCHEMA = "charvar-report/2"


class PipelineError(RuntimeError):
    pass


class HypothesisError(PipelineError):
    """A hypothesis the local-model classification relies on failed;
    carries the check ledger collected before the failure."""

    def __init__(self, message: str, ledger=()):
        super().__init__(message)
        self.ledger = tuple(ledger)


class LedgerEntry(NamedTuple):
    name: str
    passed: bool
    margin: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  {self.note}" if self.note else ""
        return f"{status}  {self.name}  margin={self.margin:.3e}{note}"


class AnalysisRequest(Value):
    def __init__(
        self,
        signature: OrbifoldSignature,
        rep_path: str | None = None,
        embedding: str | None = None,
        policy: RankPolicy = RankPolicy(),
        seed: int = 0,
        checks: tuple[str, ...] = ("core",),
    ):
        # no step reads the seed; it is only echoed, and the interface
        # keeps it a non-negative integer
        if seed < 0:
            raise PipelineError(f"seed must be a non-negative integer, got {seed}")
        unknown = set(checks) - {"core", "all"}
        if unknown:
            raise PipelineError(f"unknown checks {sorted(unknown)}: choose 'core' or 'all'")
        vars(self).update(
            signature=signature, rep_path=rep_path, embedding=embedding, policy=policy,
            seed=seed, checks=tuple(checks),
        )

    def _key(self) -> tuple:
        return self.signature, self.rep_path, self.embedding, self.policy, self.seed, self.checks

    def replace(self, **changes) -> AnalysisRequest:
        """A copy with the given fields changed, checked like a new request.
        A request keeps nothing in vars(self) but its fields."""
        return AnalysisRequest(**{**vars(self), **changes})

    @property
    def input_text(self) -> str:
        return self.signature.to_text()


def request_from_text(text: str, **kwargs) -> AnalysisRequest:
    """Canonical-text front door: the signature grammar of parse_signature."""
    return AnalysisRequest(parse_signature(text), **kwargs)


class AnalysisReport(NamedTuple):
    request: AnalysisRequest
    n: int
    embedding: str
    group: dict
    residuals: dict
    irreducibility: dict
    cohomology: CohomologyReport
    dims: dict
    obstruction: MappingProxyType | None
    model: LocalModel | None
    ledger: tuple[LedgerEntry, ...]
    flags: tuple[str, ...]


# ---------------------------------------------------------------------------
# request resolution


def _resolve_embedding(req: AnalysisRequest, pres: GroupPresentation) -> str:
    emb = req.embedding
    if emb is None:
        if pres.orientable:
            return "standard"
        raise PipelineError(
            "non-orientable input: choose the embedding explicitly "
            "(orientable or type_preserving)"
        )
    emb = emb.replace("-", "_")
    if emb not in EMBEDDINGS:
        raise PipelineError(f"unknown embedding {req.embedding!r}")
    if pres.orientable and emb != "standard":
        raise PipelineError("orientable input uses the standard embedding")
    if not pres.orientable and emb == "standard":
        raise PipelineError("non-orientable input cannot use the standard embedding")
    return emb


# ---------------------------------------------------------------------------
# the obstruction scan


def _bracket_gram(sd, bracket, table, labels) -> np.ndarray:
    """The obstruction form on the H^1 bases of the given blocks, lifted
    to ambient coordinates side by side."""
    lifted = np.hstack([sd.lift(label, table.complexes[label].h1_basis) for label in labels])
    return lifted.T @ bracket @ lifted


def _duality(table, cross) -> np.ndarray | None:
    """The duality pairing of the m_r classes against the m_c classes, or
    None if either block has none; the obstruction scan and verify's
    pairing checks share it."""
    basis_c = table.complexes["m_c"].h1_basis
    basis_r = table.complexes["m_r"].h1_basis
    if not (basis_c.shape[1] and basis_r.shape[1]):
        return None
    return frozen(basis_r.T @ cross @ basis_c)


def _obstruction_scan(pres, sd, table, pairing) -> MappingProxyType:
    """The obstruction form against the duality pairing, whole: O is the
    symmetrized bracket Gram matrix on the lifted m_c and m_r classes, Q
    the symmetrized pairing of the m_r rows against the m_c columns, and
    o(z) = c_n q(z) for every z = z_c + z_r exactly when O = c_n Q
    (Goldman and Millson 1988).  The residual |O - c_n Q|_F / |O|_F reads
    1.0 on a zero O.  The g0 and the d classes' Gram matrices are read
    entrywise.  The result is kept and shared, so it is read-only."""
    bracket = fundamental_form(pres, sd.full_g, sd.full_g, sd.bracket_d)
    pure = (_bracket_gram(sd, bracket, table, (label,)) for label in ("g0", "d"))
    g0_max, d_max = (float(np.abs(form).max(initial=0.0)) for form in pure)
    c_n = residual = None
    scale = 1.0
    if pairing is not None:
        obstruction = _bracket_gram(sd, bracket, table, ("m_c", "m_r"))
        obstruction = (obstruction + obstruction.T) / 2
        nr, nc = pairing.shape
        q = np.block([[np.zeros((nc, nc)), pairing.T], [pairing, np.zeros((nr, nr))]]) / 2
        qq, norm = float(np.vdot(q, q)), float(np.linalg.norm(obstruction))
        c_n = float(np.vdot(q, obstruction)) / qq if qq else 0.0
        residual = float(np.linalg.norm(obstruction - c_n * q)) / norm if norm else 1.0
        scale = max(scale, float(np.abs(q).max()), float(np.abs(obstruction).max()))
    return MappingProxyType({
        "c_n": c_n,
        "residual": residual,
        "g0_max": g0_max,
        "d_max": d_max,
        "scale": scale,
        "boundary_case": False,
    })


# ---------------------------------------------------------------------------
# the analysis itself


def _certify(rep: Representation, policy: RankPolicy) -> tuple:
    """The hypotheses analyze reads off rep beside its relator residual:
    the largest distance of a determinant from a unit, and Burnside's
    criterion on the base and, for a non-orientable group, on the
    orientation cover.  rho(Gamma+) lies in rho(Gamma): when the cover's
    span is the whole algebra and its commutant the scalars, so are the
    base's."""
    det_dev = max(abs(abs(float(np.linalg.det(m))) - 1.0) for m in rep.matrices)
    cover_burn = None
    if not rep.presentation.orientable:
        cover_mats = [rep.word_image(w) for w in orientation_cover_generators(rep.presentation)]
        cover_burn = burnside_irreducible(cover_mats, policy)
    if cover_burn is not None and cover_burn.irreducible_over_C and cover_burn.commutant_dim == 1:
        base_burn = BurnsideReport(True, rep.n**2, 1)
    else:
        base_burn = burnside_irreducible(rep.matrices, policy)
    return det_dev, base_burn, cover_burn


def _other_column_h1(pres, sd, policy) -> int:
    """h1 of the other embedding's column block, which differs from this
    one's by the orientation twist; no basis is factored."""
    other_m_c = twist_by_character(sd.m_c, pres.orientation_character)
    return BlockComplex(pres, other_m_c, policy).h1


def analyze(req: AnalysisRequest) -> AnalysisReport:
    entries: list[LedgerEntry] = []
    flags: list[str] = []

    def check(name, passed, margin, note=""):
        entries.append(LedgerEntry(name, bool(passed), float(margin), note))
        return bool(passed)

    def require(ok):
        if not ok:
            raise HypothesisError("hypotheses not met: the representation fails a precondition (see ledger)",
                                  entries)

    if req.rep_path is not None:
        rep = load_representation(req.rep_path, req.signature)
    else:
        rep = build_representation(req.signature)
    pres = rep.presentation

    emb = _resolve_embedding(req, pres)
    orientable = pres.orientable
    topology = "closed" if pres.closed else "boundary"
    policy = req.policy

    # hypothesis block: fails closed
    res_base = rep.relator_residual
    ok = check("relator-residual-base", res_base <= RESIDUAL_BOUND, res_base)
    det_dev, base_burn, cover_burn = kept(rep, ("hypotheses", policy), lambda: _certify(rep, policy))
    ok &= check("determinant-signs", det_dev <= 1e-9, det_dev, f"tag {rep.group_tag}")
    for name, burn in (("irreducible-base", base_burn), ("irreducible-cover", cover_burn)):
        if burn is not None:
            ok &= check(
                name,
                burn.irreducible_over_C,
                float(rep.n**2 - burn.algebra_dim),
                f"algebra {burn.algebra_dim}/{rep.n ** 2}",
            )
    require(ok)

    sd = kept(rep, ("decomposition", emb), lambda: decompose_sl(rep, emb))
    res_emb = sd.embedded.relator_residual
    require(check("relator-residual-embedded", res_emb <= RESIDUAL_BOUND, res_emb))
    emb_commutant = kept(sd, ("commutant", policy), lambda: commutant_dim(sd.embedded.matrices, policy))
    check("embedded-commutant", emb_commutant == 2, float(emb_commutant), "two blocks")

    equivariance, bound = kept(sd, "equivariance", sd.block_equivariance)
    check("block-equivariance", equivariance <= bound, equivariance, f"bound {bound:.1e}")

    # full_g's row is the block sum, so its Euler gate would repeat theirs
    table = kept(sd, ("table", policy), lambda: cohomology_report(pres, sd, policy))
    for mod in map(table.module, BLOCKS):
        if mod.euler_cells is not None:
            diff = abs(mod.dims.euler - mod.euler_cells)
            check(
                f"euler-consistency:{mod.label}",
                diff == 0,
                float(diff),
                f"fox {mod.dims.euler} vs cells {mod.euler_cells}",
            )
    min_gap = table.min_gap
    if not check("rank-gaps", min_gap >= 10.0, min_gap, "smallest spectral gap at a rank cut"):
        flags.append("ambiguous-rank-gap")
    if any(m.dims.degenerate for m in table.modules):
        flags.append("degenerate-presentation")

    p = table.module("g0").dims.h1
    b = table.module("d").dims.h1
    d_here = table.module("m_c").dims.h1
    if orientable:
        check(
            "duality-h1",
            d_here == table.module("m_r").dims.h1,
            float(abs(d_here - table.module("m_r").dims.h1)),
        )
        dims = {"p": p, "d": d_here, "b": b}
        d_model = d_here
    else:
        d_other = kept(sd, ("other-h1", policy), lambda: _other_column_h1(pres, sd, policy))
        d_oe = d_here if emb == "orientable" else d_other
        d_tp = d_here if emb == "type_preserving" else d_other
        f = pres.full_boundary_count
        check("dtp-offset", d_tp == d_oe - f, float(abs(d_tp - (d_oe - f))), f"f={f}")
        dims = {"p": p, "b": b, "d_oe": d_oe, "d_tp": d_tp, "f": f, "d_model": d_here}
        d_model = d_here

    obstruction = cross = duality = None
    if orientable and pres.closed:
        # the duality pairing of m_r against m_c, on stacked cocycles
        cross = kept(sd, "cross", lambda: frozen(fundamental_form(pres, sd.m_r, sd.m_c, sd.cross_form)))
        duality = kept(table, "duality", lambda: _duality(table, cross))
        obstruction = kept(table, "obstruction", lambda: _obstruction_scan(pres, sd, table, duality))
        scale = obstruction["scale"]
        if (residual := obstruction["residual"]) is not None:
            check("obstruction-constancy", residual <= 1e-6, residual, f"c_n ~ {obstruction['c_n']:.6f}")
        check("obstruction-g0-vanishing", obstruction["g0_max"] <= 1e-8 * scale, obstruction["g0_max"])
        check("obstruction-d-vanishing", obstruction["d_max"] <= 1e-8 * scale, obstruction["d_max"])
    elif orientable:
        obstruction = MappingProxyType({"boundary_case": True, "c_n": None})

    model = classify(topology, orientable, emb, rep.n + 1, p, d_model, b)
    flags.extend(model.flags)

    if "all" in req.checks:
        entries.extend(kept(table, "extras", lambda: _extra_checks(pres, sd, table, cross, duality, policy)))

    group_info = {
        "description": kept(pres, "description", pres.describe),
        "orientable": orientable,
        "closed": pres.closed,
        "full_boundary": pres.full_boundary_count,
        "generators": list(pres.generator_names),
    }
    return AnalysisReport(
        request=req,
        n=rep.n,
        embedding=emb,
        group=group_info,
        residuals={"base": res_base, "embedded": res_emb},
        irreducibility={
            "base": base_burn,
            "cover": cover_burn,
            "embedded_commutant": emb_commutant,
        },
        cohomology=table,
        dims=dims,
        obstruction=obstruction,
        model=model,
        ledger=tuple(entries),
        flags=tuple(dict.fromkeys(flags)),
    )


# ---------------------------------------------------------------------------
# the extra cross-checks behind verify


def _extra_checks(pres, sd, table, cross, duality, policy) -> tuple[LedgerEntry, ...]:
    """verify's gates past analyze's, in ledger order.  The ledger is kept
    with the table, so the forms and Gram matrices made here are freed
    when it returns."""
    entries: list[LedgerEntry] = []
    # full_g is the sum of the table's blocks, whose bases are the only
    # ones verify reads: its own complex audits that sum by its ranks
    full_g = BlockComplex(pres, sd.full_g, policy)

    worst = 0.0
    for c in (*table.complexes.values(), full_g):
        prod = c.fox @ c.cob
        if prod.size:
            scale = max(1.0, float(np.abs(c.fox).max()) * float(np.abs(c.cob).max()))
            worst = max(worst, float(np.abs(prod).max()) / scale)
    entries.append(LedgerEntry("fox-coboundary-exactness", worst <= 1e-11, worst, "B1 inside Z1"))

    fields = ("h0", "h1", "h2", "z1", "b1")
    direct = [getattr(full_g.dims, f) for f in fields]
    summed = [getattr(table.module("full_g").dims, f) for f in fields]
    off = sum(abs(a - b) for a, b in zip(direct, summed))
    entries.append(
        LedgerEntry("full-g-direct-sum", off == 0, float(off), f"direct {direct} vs block sum {summed}")
    )

    res = max(cocycle_residual(pres, c.module, c.h1_basis) for c in table.complexes.values())
    entries.append(LedgerEntry("h1-cocycle-residual", res <= 1e-8, res))

    # the Weil directions: the block classes, lifted and mixed by the
    # orthonormal DCT-II, a fixed dense orthogonal matrix, since a pure
    # m_c or m_r cocycle integrates exactly
    lifted = np.hstack([sd.lift(label, c.h1_basis) for label, c in table.complexes.items()])
    if m := lifted.shape[1]:
        mix = np.cos(np.pi / m * np.outer(np.arange(m) + 0.5, np.arange(m))) * np.sqrt(2.0 / m)
        mix[:, 0] /= np.sqrt(2.0)
        directions = (lifted @ mix).T
        zmats = sd.to_matrix(directions.reshape(len(directions), pres.num_generators, -1))
        slopes, _ = weil_slope(sd.hat_matrices, pres.relators, zmats)
        dev = float(np.abs(slopes - 2.0).max())
        entries.append(LedgerEntry("weil-slope", dev <= 0.1, dev, f"{len(slopes)} tangent directions"))

    if pres.closed and pres.orientable:
        entries.extend(_closed_orientable_checks(pres, sd, table, cross, duality))
    return tuple(entries)


def _closed_orientable_checks(pres, sd, table, cross, duality) -> list[LedgerEntry]:
    """Every pairing here is read from a Gram matrix of a fundamental form
    on the H^1 or Z^1 bases: cross pairs m_r against m_c, cross_cr the
    other way round."""
    entries: list[LedgerEntry] = []
    basis_c = table.complexes["m_c"].h1_basis
    basis_r = table.complexes["m_r"].h1_basis
    cross_cr = fundamental_form(pres, sd.m_c, sd.m_r, sd.cross_form.T)

    scale = 1.0
    if duality is not None:
        sv = np.linalg.svd(duality, compute_uv=False)
        scale = max(1.0, float(sv.max()))
        entries.append(
            LedgerEntry(
                "pairing-nondegenerate",
                float(sv.min()) > 1e-6 * float(sv.max()),
                float(sv.min() / sv.max()),
                f"{duality.shape[0]}x{duality.shape[1]} duality pairing",
            )
        )
        # graded antisymmetry of the cup product of degree-one classes:
        # z_r . z_c = -(z_c . z_r), so B_r^T P_rc B_c = -(B_c^T P_cr B_r)^T
        defect = float(np.abs(duality + (basis_c.T @ cross_cr @ basis_r).T).max()) / scale
        entries.append(LedgerEntry("cup-antisymmetry", defect <= 1e-8, defect))

    # coboundary arguments through the invariant cross form: delta-v in
    # one block against a genuine cocycle of the dual block, read as the
    # spectral norm, the worst pair of unit vectors
    worst = 0.0
    cob = table.complexes["m_c"].cob
    z1_r = table.complexes["m_r"].z_basis
    if z1_r.shape[1]:
        left, right = cob.T @ cross_cr @ z1_r, z1_r.T @ cross @ cob
        worst = max(float(np.linalg.norm(left, 2)), float(np.linalg.norm(right, 2))) / scale
    entries.append(
        LedgerEntry("transgression-coboundary", worst <= 1e-8, worst, "pairing kills B1")
    )

    # the cross form against the word-by-word reference on one pair: the
    # pairing's leading right singular vector and its image, the pair
    # that pairs most strongly, so a relative error of the form shows in full
    if duality is not None:
        a = np.linalg.svd(duality)[2][0]
        sc, sr = basis_c @ a, basis_r @ (duality @ a)
        zr, zc = cocycle_from_stack(sd.m_r, sr), cocycle_from_stack(sd.m_c, sc)
        ref = pair_fundamental_class(cup(zr, zc, sd.cross_form), pres)
        dev = abs(float(sr @ cross @ sc) - ref) / max(scale, abs(ref))
        entries.append(LedgerEntry("pairing-form-reference", dev <= 1e-8, dev, "against pair_fundamental_class"))
    return entries


def verify_suite(req: AnalysisRequest) -> tuple[LedgerEntry, ...]:
    req = req.replace(checks=("all",))
    try:
        return analyze(req).ledger
    except HypothesisError as err:
        return tuple(err.ledger)


# ---------------------------------------------------------------------------
# serialization


def ledger_to_json(entries) -> list[dict]:
    return [
        {
            "name": e.name,
            "passed": e.passed,
            "margin": None if np.isinf(e.margin) else e.margin,
            "note": e.note,
        }
        for e in entries
    ]


def _burnside_json(b) -> dict | None:
    return None if b is None else b._asdict()


def report_to_json(report: AnalysisReport) -> dict:
    req = report.request
    table = {}
    for mod in report.cohomology.modules:
        gap = mod.dims.min_gap
        table[mod.label] = {
            "h0": mod.dims.h0,
            "h1": mod.dims.h1,
            "h2": mod.dims.h2,
            "z1": mod.dims.z1,
            "b1": mod.dims.b1,
            "euler_cells": mod.euler_cells,
            "euler_match": mod.euler_match,
            "min_gap": None if np.isinf(gap) else gap,
            "methods": dict(mod.dims.methods),
        }
    model = None
    if report.model is not None:
        model = {
            "display": report.model.display,
            "smooth_dim": report.model.smooth_dim,
            "abelian_dim": report.model.abelian_dim,
            "link": report.model.link,
            "link_dim": report.model.link_dim,
            "smooth": report.model.smooth,
            "provenance": report.model.provenance,
            "flags": list(report.model.flags),
            "sentence": report.model.sentence(),
        }
    obstruction = None
    if report.obstruction is not None:
        keys = ("boundary_case", "c_n", "residual", "g0_max", "d_max")
        obstruction = {key: report.obstruction.get(key) for key in keys}
    return {
        "schema": SCHEMA,
        "input": req.input_text,
        "n": report.n,
        "embedding": report.embedding,
        "rep_source": "auto" if req.rep_path is None else "file",
        "seed": req.seed,
        "policy": {"relative": req.policy.relative, "absolute": req.policy.absolute},
        "group": report.group,
        "residuals": report.residuals,
        "irreducibility": {
            "base": _burnside_json(report.irreducibility["base"]),
            "cover": _burnside_json(report.irreducibility["cover"]),
            "embedded_commutant": report.irreducibility["embedded_commutant"],
        },
        "cohomology": table,
        "dims": report.dims,
        "obstruction": obstruction,
        "model": model,
        "ledger": ledger_to_json(report.ledger),
        "flags": list(report.flags),
    }


# ---------------------------------------------------------------------------
# the worked examples


def example_requests(seed: int = 0) -> list[AnalysisRequest]:
    specs = [
        ("S2(3,3,3,3)", None),
        ("D(3,3;mirror)", "orientable"),
        ("D(3,3;mirror)", "type_preserving"),
        ("D2(3,3)", None),
        ("HD(3)", "orientable"),
        ("HD(3)", "type_preserving"),
    ]
    return [
        request_from_text(text, embedding=emb, seed=seed) for text, emb in specs
    ]


def run_examples(seed: int = 0) -> list[AnalysisReport]:
    return [analyze(req) for req in example_requests(seed)]
