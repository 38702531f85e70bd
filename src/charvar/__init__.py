"""Local models of character varieties for compact 2-orbifold groups.

Given a representation of an orbifold group into SL_3(R) (or SL+-_3 for
non-orientable groups), the package embeds it into the rank-4 group,
decomposes the ambient traceless algebra into coefficient blocks,
computes twisted group cohomology by Fox calculus, evaluates the
obstruction pairing against the fundamental class, and reports the
local homeomorphism type R^p x R^b x Cone(X) of the character variety
at the embedded point.

Importing the package caps the BLAS thread pool of its own process at
one thread, before numpy loads: its matrices are small, so extra threads
only add scheduler noise.  A setting already in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .classifier import LocalModel, classify
from .coeffmodules import (
    CoefficientModule,
    SlDecomposition,
    adjoint_module,
    contragredient,
    decompose_sl,
    sl_basis,
    sl_coords,
    sl_matrix,
    trivial_module,
    twist_by_character,
)
from .cohomology import (
    BlockComplex,
    Cocycle,
    CohomologyReport,
    HDims,
    TwoCocycle,
    coboundary_matrix,
    cohomology_report,
    cup,
    fox_matrix,
    fundamental_form,
    pair_fundamental_class,
    weil_slope,
)
from .linalg import RankPolicy, rank
from .pipeline import (
    AnalysisReport,
    AnalysisRequest,
    HypothesisError,
    LedgerEntry,
    PipelineError,
    analyze,
    report_to_json,
    request_from_text,
    verify_suite,
)
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
    embed,
    load_representation,
    representation_to_json,
)

__version__ = "0.1.0"
