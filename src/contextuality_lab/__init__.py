"""Exact verification toolkit for orientation-valued hidden-variable models.

Subpackages cover the single-copy geometric algebra (:mod:`.ga`), commuting
multi-system words (:mod:`.systems`), the product-constraint systems with
their scalar and vector evaluators (:mod:`.constraints`), basis-identity
substitution (:mod:`.identities`), the exact matrix-mechanics oracle
(:mod:`.quantum`), the coplanar correlation sweep (:mod:`.chsh`), the check
suites that ``verify`` runs (:mod:`.checks`) and the command-line front end
(:mod:`.cli`).
"""

__version__ = "0.1.0"

from .ga import APPROX, EXACT, Multivector, basis_vector
from .systems import TensorMultivector, embed, generator, identify_pseudoscalars
from .constraints import (
    ConstraintSet,
    ObservableProduct,
    PauliSymbol,
    VectorAssignment,
    builtin_constraints,
    enumerate_scalar_assignments,
    evaluate_vector_model,
    non_contextuality_audit,
)
from .identities import (
    IdentityMap,
    NEGATED_F1_MAP,
    UNIFORM_MAP,
    bell_ghz_column,
    check_a3_incompatibility,
    find_identity_maps,
    orientation_reading,
)

__all__ = [
    "APPROX",
    "EXACT",
    "Multivector",
    "TensorMultivector",
    "ConstraintSet",
    "ObservableProduct",
    "PauliSymbol",
    "VectorAssignment",
    "IdentityMap",
    "NEGATED_F1_MAP",
    "UNIFORM_MAP",
    "basis_vector",
    "embed",
    "generator",
    "identify_pseudoscalars",
    "builtin_constraints",
    "enumerate_scalar_assignments",
    "evaluate_vector_model",
    "non_contextuality_audit",
    "bell_ghz_column",
    "check_a3_incompatibility",
    "find_identity_maps",
    "orientation_reading",
    "__version__",
]
