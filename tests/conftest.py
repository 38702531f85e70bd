"""Shared fixtures.  Representations are expensive enough to build once
per session; everything downstream (decompositions, presentations,
analyses) hangs off the two caches below."""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from charvar import analyze, decompose_sl, request_from_text
from charvar.linalg import RankPolicy, rank_cut
from charvar.presentation import parse_signature, presentation_of
from charvar.reps import Representation, _build, build_representation, representation_to_json

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

@pytest.fixture(autouse=True)
def fresh_built_reps():
    """Every test starts from freshly built representations.
    analyze keeps the facts it derives from a representation with it, so
    without this a test that monkeypatches a factorization, a basis or a
    form could read what an earlier test left on the shared one, and its
    patch would never run."""
    _build.cache_clear()


def kernel_basis(m, policy: RankPolicy) -> np.ndarray:
    """Orthonormal basis of the (right) null space, one column each, cut
    by the package's rank rule: the tests' kernel reference."""
    a = np.asarray(m)
    if a.shape[0] == 0:
        return np.eye(a.shape[1], dtype=a.dtype)
    # only a wide matrix needs the full V: a tall one would pay for an unused U
    _, s, vt = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    r, _ = rank_cut(s, policy)
    return vt[r:].conj().T


# bulging paths (Goldman, "Bulging deformations of convex RP^2-manifolds",
# arXiv:1302.0777): a word gamma whose image is hyperbolic and cuts the
# surface, and the generators on one side of it, whose product is gamma^-1
BULGING_PATHS = {
    "S2(3,3,3,3)": ((1, 2), (3, 4)),
    "S2(2,3,3,3)": ((1, 2), (3, 4)),
    "S2(3,3,3,3,3)": ((1, 2), (3, 4, 5)),
    "S2(3,3,3,3,3,3)": ((1, 2, 3), (4, 5, 6)),
    "O(g=2)": ((1, 2, -1, -2), (3, 4)),
}


def bulge(rep: Representation, gamma, side, t: float) -> Representation:
    """rep with the generators in side conjugated by C = exp(t diag(1, -2, 1))
    in the eigenbasis of rep(gamma), eigenvalues in increasing order.  C
    commutes with rep(gamma), so every relator and torsion order still
    holds exactly, and t = 0 gives rep back up to rounding."""
    w, v = np.linalg.eig(rep.word_image(gamma))
    assert np.isrealobj(w), "gamma must be hyperbolic"
    exponents = np.empty(3)
    exponents[np.argsort(w)] = (1.0, -2.0, 1.0)
    c = v @ np.diag(np.exp(t * exponents)) @ np.linalg.inv(v)
    c_inv = np.linalg.inv(c)
    mats = [c @ m @ c_inv if i + 1 in side else m for i, m in enumerate(rep.matrices)]
    return Representation(rep.presentation, tuple(mats), rep.group_tag, rep.lineage + (f"bulge t={t}",))


@pytest.fixture(scope="session")
def bulged_file(tmp_path_factory):
    """Path of a representation file: the builtin representation of text,
    bulged along its path in BULGING_PATHS by t."""
    directory = tmp_path_factory.mktemp("bulged")

    def get(text, t):
        path = directory / f"{text}-{t}.json"
        if not path.exists():
            rho = build_representation(parse_signature(text))
            path.write_text(json.dumps(representation_to_json(bulge(rho, *BULGING_PATHS[text], t))))
        return str(path)

    return get


@pytest.fixture(scope="session")
def triangle334():
    return build_representation(parse_signature("S2(3,3,4)"))


@pytest.fixture(scope="session")
def setups():
    """One (sig, pres, rep, sd) bundle per signature text and embedding."""
    cache = {}

    def get(text, embedding="standard"):
        key = (text, embedding)
        if key not in cache:
            sig = parse_signature(text)
            rep = build_representation(sig)
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
