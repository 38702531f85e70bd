"""The public API: every name a charvar module exports must exist, so a
stale `__all__` entry fails here and not at a user's `import *`."""

from __future__ import annotations

import functools
import importlib
import pkgutil

import numpy as np
import pytest

import charvar

MODULES = sorted(info.name for info in pkgutil.iter_modules(charvar.__path__, "charvar."))


def test_every_module_is_covered():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


@functools.cache
def _records() -> dict:
    """Instances of every record class by class name, the shared builds
    among them: the presentation, the built representation and its
    modules."""
    from charvar.cohomology import cocycle_from_stack, cup

    req = charvar.request_from_text("S2(3,3,4)")
    pres = charvar.presentation_of(req.signature)
    rep = charvar.build_representation(req.signature)
    sd = charvar.decompose_sl(rep)
    report = charvar.analyze(req)
    z = cocycle_from_stack(sd.g0, report.cohomology.complexes["g0"].h1_basis[:, 0])
    row = report.cohomology.modules[0]
    assert charvar.presentation_of(req.signature) is pres
    assert charvar.build_representation(req.signature) is rep
    return {
        "OrbifoldSignature": (req.signature,),
        "CellStabilizer": (pres.cells[1].stabilizer,),
        "Cell": (pres.cells[1],),
        "GroupPresentation": (pres,),
        "Representation": (rep,),
        "BurnsideReport": (report.irreducibility["base"],),
        "CoefficientModule": (sd.g0, sd.m_c, sd.m_r, sd.d, sd.full_g),
        "SlDecomposition": (sd,),
        "Cocycle": (z,),
        "TwoCocycle": (cup(z, z, np.eye(sd.g0.dim)),),
        "HDims": (row.dims,),
        "ModuleCohomology": (row,),
        "CohomologyReport": (report.cohomology,),
        "RankPolicy": (req.policy,),
        "LocalModel": (report.model,),
        "LedgerEntry": (report.ledger[0],),
        "AnalysisRequest": (req,),
        "AnalysisReport": (report,),
    }


RECORD_FIELDS = {
    "OrbifoldSignature": "cone_orders",
    "CellStabilizer": "order",
    "Cell": "stabilizer",
    "GroupPresentation": "relators",
    "Representation": "matrices",
    "BurnsideReport": "algebra_dim",
    "CoefficientModule": "action",
    "SlDecomposition": "m_c",
    "Cocycle": "values",
    "TwoCocycle": "evaluate",
    "HDims": "h1",
    "ModuleCohomology": "dims",
    "CohomologyReport": "modules",
    "RankPolicy": "relative",
    "LocalModel": "smooth_dim",
    "LedgerEntry": "passed",
    "AnalysisRequest": "seed",
    "AnalysisReport": "dims",
}


@pytest.mark.parametrize("name, field", RECORD_FIELDS.items())
def test_records_are_immutable(name, field):
    """Assigning or deleting a field of a record fails, on the shared
    builds too."""
    for record in _records()[name]:
        assert type(record).__name__ == name
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


def test_list_fields_of_the_other_records_are_stored_as_tuples():
    """A list given for a tuple field is stored as a tuple, so the record
    equals and hashes like the tuple-built one and joins tuples."""
    from charvar.presentation import CellStabilizer
    from charvar.reps import embed

    assert CellStabilizer("cyclic", 3, [1]) == CellStabilizer("cyclic", 3, (1,))
    model = charvar.LocalModel(2, 0, "point", 0, True, "row", ["flag"])
    assert model == charvar.LocalModel(2, 0, "point", 0, True, "row", ("flag",)) and model.flags == ("flag",)
    req = charvar.request_from_text("S2(3,3,4)", checks=["all"])
    assert req == req.replace(checks=("all",)) and hash(req) == hash(req.replace(checks=("all",)))
    rep = charvar.build_representation(req.signature)
    listed = charvar.Representation(rep.presentation, rep.matrices, "SL", ["file"])
    assert listed.lineage == ("file",)
    assert embed(listed, "standard").lineage == ("file", "embed:standard")
