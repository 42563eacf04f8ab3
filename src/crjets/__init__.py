"""Exact jet computations for locally integrable structures of
hypersurface type.

All arithmetic is over Gaussian rationals; nothing is floated, and every
pipeline either certifies its defining identities exactly at the working
order or raises.
"""

from .alphabet import Alphabet
from .central import (
    CentralManifold,
    MorseNormalForm,
    central_manifold,
    is_straightened,
    morse_normalize,
    straighten,
)
from .equivalence import (
    CentralEquivalence,
    LiftedEquivalence,
    LiftVerification,
    equivalence_alphabet,
    extract_multiplier,
    lift_equivalence,
    make_equivalence,
    verify_lift,
)
from .linalg import (
    hermitian_signature,
    invert_matrix,
    rank,
    symmetric_diagonalize,
)
from .errors import (
    AlphabetMismatchError,
    CRJetsError,
    DegenerateFormError,
    InvariantError,
    NonUnitConstantError,
    NotDivisibleError,
    OrderMismatchError,
    ParseError,
    PreconditionError,
    SingularJacobianError,
)
from .germs import (
    CharacteristicCovector,
    LeviForm,
    StructureGerm,
    VectorField,
    characteristic_covector,
    first_integrals,
    frame,
    is_solution,
    levi_form,
    levi_matrix,
    make_germ,
    model_germ,
    standard_alphabet,
    t_hessian,
)
from .jets import Jet, compose_many, generators, jet_sqrt
from .marson import (
    ExternalLift,
    external_lift,
    lift_levi_relation,
    predicted_external_levi,
)
from .rationals import GaussianRational, I, rational_sqrt
from .segre import (
    ComplexifiedHypersurface,
    ConjugateElimination,
    OdeUnsolvableError,
    RigidityReport,
    SectionHessian,
    complexify,
    conjugate_elimination,
    ode_right_side,
    phi_determinant,
    phi_elimination,
    rigid_phi_test,
)
from .solve import implicit_solve, revert_series

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetMismatchError",
    "CRJetsError",
    "CentralEquivalence",
    "CentralManifold",
    "CharacteristicCovector",
    "ComplexifiedHypersurface",
    "ConjugateElimination",
    "DegenerateFormError",
    "ExternalLift",
    "GaussianRational",
    "I",
    "InvariantError",
    "Jet",
    "LeviForm",
    "LiftVerification",
    "LiftedEquivalence",
    "MorseNormalForm",
    "NonUnitConstantError",
    "NotDivisibleError",
    "OdeUnsolvableError",
    "OrderMismatchError",
    "ParseError",
    "PreconditionError",
    "RigidityReport",
    "SectionHessian",
    "SingularJacobianError",
    "StructureGerm",
    "VectorField",
    "central_manifold",
    "characteristic_covector",
    "complexify",
    "compose_many",
    "conjugate_elimination",
    "equivalence_alphabet",
    "external_lift",
    "extract_multiplier",
    "first_integrals",
    "frame",
    "generators",
    "hermitian_signature",
    "implicit_solve",
    "invert_matrix",
    "is_solution",
    "is_straightened",
    "jet_sqrt",
    "levi_form",
    "levi_matrix",
    "lift_equivalence",
    "lift_levi_relation",
    "make_equivalence",
    "make_germ",
    "model_germ",
    "morse_normalize",
    "ode_right_side",
    "phi_determinant",
    "phi_elimination",
    "predicted_external_levi",
    "rank",
    "rational_sqrt",
    "revert_series",
    "rigid_phi_test",
    "standard_alphabet",
    "straighten",
    "symmetric_diagonalize",
    "t_hessian",
    "verify_lift",
]
