"""Folding, immersions and subgroup presentations over one-relator orbicomplexes."""

from .complexes import (CellImage, CellMorphism, EdgeRec, Graph, MapKind,
                        TwoComplex, classify_map, collapse, compose,
                        connected_components, euler_characteristic,
                        find_free_faces_and_edges, identity_morphism)
from .covers import (CoverReport, FiniteQuotient, UnwrappedCover,
                     build_unwrapped_cover, find_exponent_n_quotient,
                     pull_back_subgroup, verify_cover)
from .diagrams import build_reduced_diagram
from .errors import (BudgetExhaustedError, DiagramError, FactorizationError,
                     InvalidComplexError, InvariantError, NotImmersionError,
                     NotMorphismError, OrelcoError, PipelineInvariantError)
from .folding import FoldResult, factor_unique, fold
from .harness import (CampaignConfig, CampaignReport, GeneratorParams,
                      random_irreducible_immersion, random_uniform_quotient,
                      run_property_campaign)
from .orbicomplex import (OneRelatorOrbicomplex, OrbiMorphism, WCyclesAudit,
                          build_orbicomplex, check_orbi_immersion, degree,
                          wcycles_audit)
from .pipeline import (Presentation, PipelineReport, PipelineState,
                       present_subgroup, seed_immersion)
from .stacking import (Stacking, StackingVerdict, check_good_stacking,
                       is_branched, parse_stacking)
from .words import (DehnResult, DehnStep, dehn_solve, format_word,
                    free_reduce, inverse_word, parse_word)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError", "CampaignConfig", "CampaignReport", "CellImage",
    "CellMorphism", "CoverReport", "DehnResult", "DehnStep", "DiagramError",
    "EdgeRec", "FactorizationError", "FiniteQuotient", "FoldResult",
    "GeneratorParams", "Graph", "InvalidComplexError", "InvariantError",
    "MapKind",
    "NotImmersionError", "NotMorphismError", "OneRelatorOrbicomplex",
    "OrbiMorphism", "OrelcoError", "PipelineInvariantError", "PipelineReport",
    "PipelineState", "Presentation", "Stacking", "StackingVerdict",
    "TwoComplex", "UnwrappedCover", "WCyclesAudit", "build_orbicomplex",
    "build_reduced_diagram", "build_unwrapped_cover", "check_good_stacking",
    "check_orbi_immersion", "classify_map", "collapse", "compose",
    "connected_components", "degree", "dehn_solve", "euler_characteristic",
    "factor_unique", "find_exponent_n_quotient",
    "find_free_faces_and_edges", "fold", "format_word", "free_reduce",
    "identity_morphism", "inverse_word",
    "is_branched", "parse_stacking", "parse_word", "present_subgroup",
    "pull_back_subgroup", "random_irreducible_immersion",
    "random_uniform_quotient", "run_property_campaign",
    "seed_immersion", "verify_cover", "wcycles_audit",
]
