"""Artin group presentations from cluster-algebra diagrams.

Build the edge-weighted oriented diagram of a skew-symmetrizable matrix,
mutate it, generate its Coxeter and Artin presentations, and mechanically
verify that mutation preserves the Artin group up to isomorphism via
explicit generator maps, coset enumeration, and certified word rewriting.
"""

from .diagram import (
    BudgetExceededError,
    ChordlessCycle,
    CycleClass,
    Diagram,
    DiagramError,
    ExchangeMatrix,
    MutationError,
    canonical_diagram,
    canonical_form,
    chordless_cycles,
    diagram_from_matrix,
    is_finite_type,
    is_two_finite,
    mutate_diagram,
    mutate_matrix,
    mutation_class,
    opposite,
)
from .mapping import GroupMap, MappingError, compose, delta, phi, psi, transport
from .presentation import (
    INFINITE_M,
    NotFiniteTypeError,
    Presentation,
    PresentationError,
    Relator,
    T4Pattern,
    UnsupportedCycleError,
    Word,
    affine_artin_presentation,
    affine_m_value,
    affine_t_value,
    artin_presentation,
    braid_relator,
    coxeter_presentation,
    coxeter_quotient,
    load_t4_patterns,
    m_value,
    p_word,
    t3_qualifies,
    t_relator,
)
from .verifier import (
    CosetTable,
    HomReport,
    InvarianceReport,
    ProofCertificate,
    ProofStep,
    SearchBudget,
    VerifierError,
    abelianization_check,
    derive_t3_rotations,
    fuzz_soundness,
    group_order,
    prove_trivial,
    quotient_table,
    replay_certificate,
    todd_coxeter,
    verify_homomorphism,
    verify_mutation_invariance,
    word_trivial_in_coxeter,
)

__version__ = "0.1.0"
