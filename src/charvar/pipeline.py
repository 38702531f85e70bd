"""End-to-end analysis of one orbifold group.

analyze() resolves the input to a presentation and a representation,
certifies the hypotheses (relator residuals, determinant signs,
C-irreducibility of the base group and, for non-orientable groups, of
the orientation-cover subgroup), embeds into the ambient group,
computes the cohomology table of every coefficient block, samples the
obstruction form when the group is closed orientable, and classifies.
It fails closed: a broken hypothesis raises HypothesisError carrying
the ledger collected so far, and no local model is emitted.

verify_suite() runs the full cross-check battery on top of analyze and
never raises on a failed check; failures are data in the ledger.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

from .classifier import LocalModel, classify
from .coeffmodules import decompose_sl, sl_matrix, twist_by_character
from .cohomology import (
    Cocycle,
    CohomologyReport,
    coboundary_matrix,
    cocycle_from_stack,
    cohomology_report,
    cup,
    fox_matrix,
    fundamental_pairing_matrix,
    goldman_obstruction,
    h1_basis,
    h_dims,
    pair_fundamental_class,
    weil_slope,
)
from .linalg import RankPolicy, kernel_basis
from .presentation import (
    GroupPresentation,
    OrbifoldSignature,
    orientation_cover_generators,
    parse_signature,
    presentation_of,
)
from .reps import (
    EMBEDDINGS,
    BuildError,
    Representation,
    build_representation,
    burnside_irreducible,
    half_mirrored_disc,
    half_mirrored_disc_presentation,
    load_representation,
    lorentz_residual,
    polygon_group,
    triangle_group,
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
    "include_cocycle",
    "report_to_json",
    "ledger_to_json",
    "example_requests",
    "run_examples",
    "SCHEMA",
]

SCHEMA = "charvar-report/1"

REP_SOURCES = ("auto", "triangle", "polygon", "file")
MODULE_ORDER = ("g0", "m_c", "m_r", "d", "full_g")


class PipelineError(RuntimeError):
    pass


class HypothesisError(PipelineError):
    """A hypothesis the local-model classification relies on failed;
    carries the check ledger collected before the failure."""

    def __init__(self, message: str, ledger=()):
        super().__init__(message)
        self.ledger = tuple(ledger)


@dataclass(frozen=True)
class LedgerEntry:
    name: str
    passed: bool
    margin: float
    note: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f"  {self.note}" if self.note else ""
        return f"{status}  {self.name}  margin={self.margin:.3e}{note}"


@dataclass(frozen=True)
class AnalysisRequest:
    input_text: str
    signature: OrbifoldSignature | None = None
    presentation: GroupPresentation | None = None
    hd_order: int | None = None
    rep_source: str = "auto"
    rep_path: str | None = None
    n: int = 3
    embedding: str | None = None
    policy: RankPolicy = field(default_factory=RankPolicy)
    seed: int = 0
    checks: tuple[str, ...] = ("core",)
    obstruction_samples: int = 10

    def __post_init__(self):
        if self.rep_source not in REP_SOURCES:
            raise PipelineError(f"unknown representation source {self.rep_source!r}")
        if self.rep_source == "file" and not self.rep_path:
            raise PipelineError("file source needs a path")
        if self.obstruction_samples < 2:
            raise PipelineError("need at least two obstruction samples")


_HD = re.compile(r"^HD\((\d+)\)$")


def request_from_text(text: str, **kwargs) -> AnalysisRequest:
    """Canonical-text front door; HD(n) names the half-mirrored disc."""
    text = text.strip()
    m = _HD.match(text)
    if m:
        order = int(m.group(1))
        return AnalysisRequest(input_text=f"HD({order})", hd_order=order, **kwargs)
    sig = parse_signature(text)
    return AnalysisRequest(input_text=sig.to_text(), signature=sig, **kwargs)


@dataclass(frozen=True)
class AnalysisReport:
    request: AnalysisRequest
    embedding: str
    group: dict
    residuals: dict
    irreducibility: dict
    cohomology: CohomologyReport
    dims: dict
    obstruction: dict | None
    model: LocalModel | None
    ledger: tuple[LedgerEntry, ...]
    flags: tuple[str, ...]


# ---------------------------------------------------------------------------
# request resolution


def _presentation_for(req: AnalysisRequest) -> GroupPresentation | None:
    if req.presentation is not None:
        return req.presentation
    if req.hd_order is not None:
        return half_mirrored_disc_presentation(req.hd_order)
    if req.signature is not None:
        return presentation_of(req.signature)
    return None


def _build_rep(req: AnalysisRequest, pres: GroupPresentation | None) -> Representation:
    sig = req.signature
    if req.rep_source == "file":
        return load_representation(req.rep_path, pres)
    if req.rep_source == "triangle":
        if sig is None or sig.kind != "orientable" or sig.genus or sig.boundary_circles:
            raise PipelineError("triangle source needs a closed genus-0 orientable signature")
        if sig.cone_count != 3:
            raise PipelineError("triangle source needs exactly three cone points")
        return triangle_group(*sig.cone_orders)
    if req.rep_source == "polygon":
        if sig is None or sig.kind != "orientable" or sig.genus or sig.boundary_circles:
            raise PipelineError("polygon source needs a closed genus-0 orientable signature")
        if sig.cone_count < 4:
            raise PipelineError("polygon source needs at least four cone points")
        return polygon_group(sig.cone_orders, req.seed)
    if req.hd_order is not None:
        return half_mirrored_disc(req.hd_order)
    if sig is not None:
        return build_representation(sig, req.seed)
    raise PipelineError("raw presentations need a representation file")


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
# cocycle plumbing shared with the test suite


def include_cocycle(z: Cocycle, sd) -> Cocycle:
    """Lift a block cocycle to ambient coordinates through the block
    inclusion matching its module label."""
    label = z.module.label
    if label == "full_g":
        return z
    if label == "m_c":
        lift = sd.include_c
    elif label == "m_r":
        lift = sd.include_r
    elif label == "g0":
        lift = lambda v: sd.include_g0(sl_matrix(v, sd.n))
    elif label == "d":
        lift = lambda v: sd.include_d(float(np.asarray(v).ravel()[0]))
    else:
        raise PipelineError(f"no ambient inclusion for module label {label!r}")
    vals = tuple(sd.to_coords(lift(v)) for v in z.values)
    return Cocycle(sd.full_g, vals)


def _combo(basis, module, coeffs) -> Cocycle:
    stack = np.zeros(module.dim * module.num_generators)
    for c, z in zip(coeffs, basis):
        stack += c * z.stack()
    return cocycle_from_stack(module, stack)


def _mixed_ambient(zc: Cocycle, zr: Cocycle, sd) -> Cocycle:
    vals = tuple(
        sd.to_coords(sd.include_c(vc) + sd.include_r(vr))
        for vc, vr in zip(zc.values, zr.values)
    )
    return Cocycle(sd.full_g, vals)


def _obstruction_scan(pres, sd, policy, seed: int, samples: int) -> dict:
    rng = np.random.default_rng(seed + 7)
    basis_c = h1_basis(pres, sd.m_c, policy)
    basis_r = h1_basis(pres, sd.m_r, policy)
    basis_g0 = h1_basis(pres, sd.g0, policy)
    basis_d = h1_basis(pres, sd.d, policy)
    cross = sd.killing_multiplier * np.eye(sd.n)
    pairs = []
    if basis_c and basis_r:
        attempts = 0
        while len(pairs) < samples and attempts < 6 * samples:
            attempts += 1
            zc = _combo(basis_c, sd.m_c, rng.standard_normal(len(basis_c)))
            zr = _combo(basis_r, sd.m_r, rng.standard_normal(len(basis_r)))
            z = _mixed_ambient(zc, zr, sd)
            o = goldman_obstruction(z, sd, pres).value
            # the row block against the column block through the invariant
            # form; the self-pairing of z vanishes by graded antisymmetry
            q = pair_fundamental_class(cup(zr, zc, cross), pres)
            if abs(q) < 1e-10:
                continue
            pairs.append((o, q))
    scale = max([1.0] + [abs(q) for _, q in pairs] + [abs(o) for o, _ in pairs])

    def pure_max(basis, module, lift):
        worst = 0.0
        for _ in range(3):
            z = _combo(basis, module, rng.standard_normal(len(basis)))
            vals = tuple(sd.to_coords(lift(v)) for v in z.values)
            amb = Cocycle(sd.full_g, vals)
            worst = max(worst, abs(goldman_obstruction(amb, sd, pres).value))
        return worst

    g0_max = pure_max(basis_g0, sd.g0, lambda v: sd.include_g0(sl_matrix(v, sd.n))) if basis_g0 else 0.0
    d_max = (
        pure_max(basis_d, sd.d, lambda v: sd.include_d(float(np.asarray(v).ravel()[0])))
        if basis_d
        else 0.0
    )

    ratios = [o / q for o, q in pairs]
    out = {
        "samples": pairs,
        "ratios": ratios,
        "c_n": float(np.mean(ratios)) if ratios else None,
        "rel_std": (
            float(np.std(ratios) / abs(np.mean(ratios))) if ratios and np.mean(ratios) != 0 else None
        ),
        "g0_max": g0_max,
        "d_max": d_max,
        "scale": scale,
        "boundary_case": False,
    }
    return out


# ---------------------------------------------------------------------------
# the analysis itself


def analyze(req: AnalysisRequest) -> AnalysisReport:
    entries: list[LedgerEntry] = []
    flags: list[str] = []

    def check(name, passed, margin, note=""):
        entries.append(LedgerEntry(name, bool(passed), float(margin), note))
        return bool(passed)

    pres = _presentation_for(req)
    rep = _build_rep(req, pres)
    if pres is None:
        pres = rep.presentation
    if rep.n != req.n:
        raise PipelineError(f"representation is into SL_{rep.n}, request says n={req.n}")

    emb = _resolve_embedding(req, pres)
    orientable = pres.orientable
    topology = "closed" if pres.closed else "boundary"
    policy = req.policy

    # hypothesis block: fails closed
    res_base = rep.relator_residual
    ok = check("relator-residual-base", res_base <= rep.residual_bound, res_base)
    det_dev = max(abs(abs(float(np.linalg.det(m))) - 1.0) for m in rep.matrices)
    ok &= check("determinant-signs", det_dev <= 1e-9, det_dev, f"tag {rep.group_tag}")

    base_burn = burnside_irreducible(rep.matrices, policy)
    ok &= check(
        "irreducible-base",
        base_burn.irreducible_over_C,
        float(rep.n**2 - base_burn.algebra_dim),
        f"algebra {base_burn.algebra_dim}/{rep.n ** 2}",
    )
    cover_burn = None
    if not orientable:
        cover_words = orientation_cover_generators(pres)
        cover_mats = [rep.word_image(w) for w in cover_words]
        cover_burn = burnside_irreducible(cover_mats, policy)
        ok &= check(
            "irreducible-cover",
            cover_burn.irreducible_over_C,
            float(rep.n**2 - cover_burn.algebra_dim),
            f"algebra {cover_burn.algebra_dim}/{rep.n ** 2}",
        )
    if not ok:
        raise HypothesisError(
            "hypotheses not met: the representation fails a precondition "
            "(see ledger)",
            entries,
        )

    sd = decompose_sl(rep, emb)
    embedded = sd.embedded
    res_emb = embedded.relator_residual
    check("relator-residual-embedded", res_emb <= embedded.residual_bound, res_emb)
    emb_burn = burnside_irreducible(embedded.matrices, policy)
    check(
        "embedded-commutant",
        emb_burn.commutant_dim == 2,
        float(emb_burn.commutant_dim),
        "two blocks",
    )

    equivariance, bound = sd.block_equivariance()
    check("block-equivariance", equivariance <= bound, equivariance, f"bound {bound:.1e}")

    table = cohomology_report(
        pres, [(label, getattr(sd, label)) for label in MODULE_ORDER], policy
    )
    for mod in table.modules:
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
        # the other embedding's column block differs by the orientation twist
        other_m_c = twist_by_character(sd.m_c, pres.orientation_character)
        d_other = h_dims(pres, other_m_c, policy).h1
        d_oe = d_here if emb == "orientable" else d_other
        d_tp = d_here if emb == "type_preserving" else d_other
        f = pres.full_boundary_count
        check("dtp-offset", d_tp == d_oe - f, float(abs(d_tp - (d_oe - f))), f"f={f}")
        dims = {"p": p, "b": b, "d_oe": d_oe, "d_tp": d_tp, "f": f, "d_model": d_here}
        d_model = d_here

    obstruction = None
    if orientable and pres.closed:
        obstruction = _obstruction_scan(pres, sd, policy, req.seed, req.obstruction_samples)
        scale = obstruction["scale"]
        if obstruction["ratios"]:
            check(
                "obstruction-constancy",
                obstruction["rel_std"] is not None and obstruction["rel_std"] <= 1e-6,
                obstruction["rel_std"] if obstruction["rel_std"] is not None else 1.0,
                f"c_n ~ {obstruction['c_n']:.6f}" if obstruction["c_n"] is not None else "",
            )
        check("obstruction-g0-vanishing", obstruction["g0_max"] <= 1e-8 * scale, obstruction["g0_max"])
        check("obstruction-d-vanishing", obstruction["d_max"] <= 1e-8 * scale, obstruction["d_max"])
    elif orientable:
        obstruction = {"boundary_case": True, "ratios": [], "c_n": None}

    model = classify(topology, orientable, emb, rep.n + 1, p, d_model, b)
    flags.extend(model.flags)

    if "all" in req.checks:
        entries.extend(_extra_checks(pres, rep, sd, table, policy, req.seed))

    group_info = {
        "description": pres.describe(),
        "orientable": orientable,
        "closed": pres.closed,
        "full_boundary": pres.full_boundary_count,
        "generators": list(pres.generator_names),
    }
    return AnalysisReport(
        request=req,
        embedding=emb,
        group=group_info,
        residuals={"base": res_base, "embedded": res_emb},
        irreducibility={
            "base": base_burn,
            "cover": cover_burn,
            "embedded_commutant": emb_burn.commutant_dim,
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


def _extra_checks(pres, rep, sd, table, policy, seed) -> list[LedgerEntry]:
    entries: list[LedgerEntry] = []
    rng = np.random.default_rng(seed + 23)

    worst = 0.0
    for label in MODULE_ORDER:
        m = getattr(sd, label)
        fox = fox_matrix(pres, m)
        cob = coboundary_matrix(pres, m)
        prod = fox @ cob
        if prod.size:
            scale = max(1.0, float(np.abs(fox).max()) * float(np.abs(cob).max()))
            worst = max(worst, float(np.abs(prod).max()) / scale)
    entries.append(
        LedgerEntry("fox-coboundary-exactness", worst <= 1e-11, worst, "B1 inside Z1")
    )

    res = 0.0
    bases = {}
    for label in MODULE_ORDER:
        m = getattr(sd, label)
        bases[label] = h1_basis(pres, m, policy)
        for z in bases[label]:
            res = max(res, z.fox_residual(pres))
    entries.append(LedgerEntry("h1-cocycle-residual", res <= 1e-8, res))

    slopes = []
    for z in bases["full_g"]:
        zmats = [sd.to_matrix(v) for v in z.values]
        slope, _ = weil_slope(sd.hat_matrices, pres.relators, zmats)
        slopes.append(slope)
    if slopes:
        dev = max(abs(s - 2.0) for s in slopes)
        entries.append(
            LedgerEntry(
                "weil-slope", dev <= 0.1, dev, f"{len(slopes)} tangent directions"
            )
        )

    if pres.closed and pres.orientable:
        entries.extend(_closed_orientable_checks(pres, rep, sd, bases, rng))
    return entries


def _closed_orientable_checks(pres, rep, sd, bases, rng) -> list[LedgerEntry]:
    entries: list[LedgerEntry] = []
    basis_c = bases["m_c"]
    basis_r = bases["m_r"]
    n = sd.n

    scale = 1.0
    if basis_c and basis_r:
        cross = fundamental_pairing_matrix(
            pres, basis_r, basis_c, sd.killing_multiplier * np.eye(n)
        )
        sv = np.linalg.svd(cross, compute_uv=False)
        scale = max(1.0, float(sv.max()))
        entries.append(
            LedgerEntry(
                "pairing-nondegenerate",
                float(sv.min()) > 1e-6 * float(sv.max()),
                float(sv.min() / sv.max()),
                f"{cross.shape[0]}x{cross.shape[1]} duality pairing",
            )
        )

    # cup antisymmetry needs an invariant symmetric form; the builders
    # produce Lorentz matrices, so diag(1, 1, -1) qualifies
    if basis_c and lorentz_residual(rep.matrices[0]) < 1e-6 and n == 3:
        J = np.diag([1.0, 1.0, -1.0])
        worst = 0.0
        for _ in range(4):
            z1 = _combo(basis_c, sd.m_c, rng.standard_normal(len(basis_c)))
            z2 = _combo(basis_c, sd.m_c, rng.standard_normal(len(basis_c)))
            a = pair_fundamental_class(cup(z1, z2, J), pres)
            b = pair_fundamental_class(cup(z2, z1, J), pres)
            worst = max(worst, abs(a + b) / max(1.0, abs(a), abs(b)))
        entries.append(LedgerEntry("cup-antisymmetry", worst <= 1e-8, worst))

    # coboundary arguments through the invariant cross form: delta-v in
    # one block against a genuine cocycle of the dual block
    worst = 0.0
    mc, mr = sd.m_c, sd.m_r
    z1_r = kernel_basis(fox_matrix(pres, mr), RankPolicy())
    pair = sd.killing_multiplier * np.eye(n)
    for _ in range(4):
        v = rng.standard_normal(n)
        cob = Cocycle(
            mc, tuple((mc.act(i + 1) - np.eye(n)) @ v for i in range(mc.num_generators))
        )
        if z1_r.shape[1]:
            z2 = cocycle_from_stack(mr, z1_r @ rng.standard_normal(z1_r.shape[1]))
            worst = max(worst, abs(pair_fundamental_class(cup(cob, z2, pair), pres)) / scale)
            worst = max(worst, abs(pair_fundamental_class(cup(z2, cob, pair), pres)) / scale)
    entries.append(
        LedgerEntry("transgression-coboundary", worst <= 1e-8, worst, "pairing kills B1")
    )
    return entries


def verify_suite(req: AnalysisRequest) -> tuple[LedgerEntry, ...]:
    req = replace(req, checks=("all",))
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
    if b is None:
        return None
    return {
        "irreducible_over_C": b.irreducible_over_C,
        "algebra_dim": b.algebra_dim,
        "commutant_dim": b.commutant_dim,
    }


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
        obstruction = {
            "boundary_case": report.obstruction.get("boundary_case", False),
            "c_n": report.obstruction.get("c_n"),
            "rel_std": report.obstruction.get("rel_std"),
            "g0_max": report.obstruction.get("g0_max"),
            "d_max": report.obstruction.get("d_max"),
            "num_samples": len(report.obstruction.get("ratios", [])),
        }
    return {
        "schema": SCHEMA,
        "input": req.input_text,
        "n": req.n,
        "embedding": report.embedding,
        "rep_source": req.rep_source,
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
