"""Diagnosability toolkit for (n,k)-star networks under the PMC and MM* models."""

from .base import (
    BudgetError,
    DomainError,
    Model,
    StardiagError,
    VerificationError,
)
from .diagnosability import (
    DiagnosabilityResult,
    WitnessReport,
    build_witness,
    crosscheck,
    tg_bruteforce,
    tg_formula,
    witness_for,
)
from .faults import (
    distinguishable,
    is_g_good_neighbor,
    is_g_good_neighbor_cut,
    min_subgraph_size_oracle,
    rg_connectivity_bruteforce,
    rg_connectivity_formula,
)
from .graph import TopologyGraph
from .syndrome import (
    Syndrome,
    TestAssignment,
    ambiguity_syndrome,
    build_assignment,
    diagnose,
    generate_syndrome,
    is_consistent,
    syndrome_from_text,
    syndrome_to_text,
)
from .topologies import (
    SplitWitness,
    build_complete,
    build_cycle,
    build_nk_star,
    build_star,
    from_descriptor,
    verify_split,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "DiagnosabilityResult",
    "DomainError",
    "Model",
    "SplitWitness",
    "StardiagError",
    "Syndrome",
    "TestAssignment",
    "TopologyGraph",
    "VerificationError",
    "WitnessReport",
    "ambiguity_syndrome",
    "build_assignment",
    "build_complete",
    "build_cycle",
    "build_nk_star",
    "build_star",
    "build_witness",
    "crosscheck",
    "diagnose",
    "distinguishable",
    "from_descriptor",
    "generate_syndrome",
    "is_consistent",
    "is_g_good_neighbor",
    "is_g_good_neighbor_cut",
    "min_subgraph_size_oracle",
    "rg_connectivity_bruteforce",
    "rg_connectivity_formula",
    "syndrome_from_text",
    "syndrome_to_text",
    "tg_bruteforce",
    "tg_formula",
    "verify_split",
    "witness_for",
]
