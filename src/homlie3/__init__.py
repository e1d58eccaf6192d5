"""Exact-arithmetic toolkit for finite-dimensional 3-Hom-Lie algebras:
structure-constant storage, exhaustive identity checkers, and the bialgebra
/ pre-Lie / Yang-Baxter / symplectic constructions."""

from .exactlin import (InputError, Mat, Rat, Tensor4, mat_inverse, mat_rank,
                       rat, rat_str)
from .homlie import (
    Algebra3, CheckReport, PreconditionError, Witness, check_algebra,
    composition_twist, derivation_space, is_derivation, yau_twist,
)
from .reps import (
    Rep3, adjoint_rep, check_representation, coadjoint_rep,
    dual_representation, rep_from_upper, semidirect_sum,
)
from .bialgebra import (
    BilForm, Cobracket, MatchedPairData, assemble_matched_pair,
    check_double_construction, check_invariance, check_matched_pair,
    dual_algebra, equivalence_suite, manin_bracket, standard_form,
)
from .prelie import (
    OOperator, PreLie3, PreLieRep, check_o_operator, check_prelie,
    check_prelie_rep, compatible_prelie, dual_prelie_rep,
    induced_prelie_on_module, semidirect_prelie, subadjacent, subadjacent_rep,
)
from .yangbaxter import (
    RTensor, check_chybe, coboundary_cobracket, cocycle_form_check,
    triple_bracket, verify_residual,
)
from .symplectic import (
    NilpotentExtension, canonical_phase_form, check_metric, check_phase_space,
    check_symplectic, compatible_prelie_from_symplectic,
    derivation_from_symplectic, nilpotent_extension, phase_space_from_prelie,
    prelie_from_phase_space, symplectic_from_derivation,
)

__version__ = "1.0.0"
