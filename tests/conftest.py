"""Shared fixtures.  Representations are expensive enough to build once
per session; everything downstream (decompositions, presentations,
analyses) hangs off the two caches below."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import settings

from charvar import analyze, decompose_sl, polygon_group, request_from_text
from charvar.presentation import parse_signature, presentation_of
from charvar.reps import build_representation

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# every input of `charvar examples` and of the benchmark workloads
ORIENTABLE_INPUTS = (
    "S2(2,3,7)",
    "S2(3,3,3,3)",
    "S2(3,3,3,3,3)",
    "S2(3,3,3,3,3,3,3)",
    "O(g=2)",
    "O(g=1;cone=[3])",
    "O(g=2;b=2;cone=[3,5])",
    "D2(3,3)",
)
NONORIENTABLE_INPUTS = ("D(3,3;mirror)", "D(3,3,3;mirror)", "N(k=2;b=1;cone=[3])", "HD(3)", "HD(5)")
EVERY_INPUT = [(t, "standard") for t in ORIENTABLE_INPUTS] + [
    (t, e) for t in NONORIENTABLE_INPUTS for e in ("orientable", "type_preserving")
]


@pytest.fixture(scope="session")
def triangle334():
    return polygon_group((3, 3, 4))


@pytest.fixture(scope="session")
def setups():
    """One (sig, pres, rep, sd) bundle per signature text and embedding."""
    cache = {}

    def get(text, embedding="standard"):
        key = (text, embedding)
        if key not in cache:
            sig = parse_signature(text)
            rep = build_representation(sig, seed=0)
            cache[key] = SimpleNamespace(
                sig=sig,
                pres=presentation_of(sig),
                rep=rep,
                sd=decompose_sl(rep, embedding),
            )
        return cache[key]

    return get


@pytest.fixture(scope="session")
def quad(setups):
    return setups("S2(3,3,3,3)")


@pytest.fixture(scope="session")
def mirrored(setups):
    return setups("D(3,3;mirror)", "type_preserving")


@pytest.fixture(scope="session")
def analyses():
    """Cached analyze() calls keyed by input text, embedding and check set."""
    cache = {}

    def get(text, embedding=None, checks=("core",), **kwargs):
        key = (text, embedding, checks, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = analyze(
                request_from_text(text, embedding=embedding, checks=checks, **kwargs)
            )
        return cache[key]

    return get
