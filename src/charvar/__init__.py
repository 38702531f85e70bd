"""Local models of character varieties for compact 2-orbifold groups.

Given a representation of an orbifold group into SL_3(R) (or SL+-_3 for
non-orientable groups), the package embeds it into the rank-4 group,
decomposes the ambient traceless algebra into coefficient blocks,
computes twisted group cohomology by Fox calculus, evaluates the
obstruction pairing against the fundamental class, and reports the
local homeomorphism type R^p x R^b x Cone(X) of the character variety
at the embedded point.
"""

from .classifier import LocalModel, classify, cone_membership, parse_display, projective_corollary
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
    fundamental_pairing_matrix,
    goldman_obstruction,
    pair_fundamental_class,
    twisted_euler,
    weil_slope,
)
from .linalg import RankPolicy, RankReport, kernel_basis, rank, rank_report
from .pipeline import (
    AnalysisReport,
    AnalysisRequest,
    HypothesisError,
    LedgerEntry,
    PipelineError,
    analyze,
    report_to_json,
    request_from_text,
    run_examples,
    verify_suite,
)
from .presentation import (
    GroupPresentation,
    OrbifoldSignature,
    orientation_cover_generators,
    parse_signature,
    presentation_from_raw,
    presentation_of,
)
from .reps import (
    EMBEDDINGS,
    BuildError,
    Representation,
    build_representation,
    burnside_irreducible,
    embed,
    half_mirrored_disc,
    load_representation,
    polygon_group,
    representation_to_json,
    triangle_group,
)

__version__ = "0.1.0"
