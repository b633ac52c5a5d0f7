"""Exact lambda-adic arithmetic over cyclotomic local rings, unitary
matrix groups over them, and the class-number and unit-lattice invariants
driving torsion-field degree computations for superelliptic Jacobians.
"""

from .ring import (
    CycloElt,
    ContextMismatch,
    DomainError,
    NotAUnit,
    RingCtx,
    RingError,
    exp,
    log1p,
)
from .matrices import (
    HermitianForm,
    MatLocal,
    MembershipError,
    MembershipVerdict,
    classify_membership,
    det_local,
    filtration_order_exponent,
    legendre,
    lift_su,
    perm_embed,
    random_su_element,
    su_dimension,
    weil_gram_and_epsilon,
)
from .commutators import (
    FreeSeries,
    matrix_commutator_check,
    su_commutator_span_check,
    verify_commutator_identity,
)
from .classnum import (
    DemjanenkoReport,
    c_lr,
    demjanenko_det,
    h_minus,
    kappa_and_t,
    n_of,
)
from .lattices import (
    AbelianPresentation,
    UnitLattice,
    abelian_order,
    decompose_unit,
    infinity_type_apply,
    infinity_type_matrix_check,
    lattice_index_check,
    u_lr_member,
    u_prime_basis,
    u_reduction_order,
)
from .curves import (
    CurveReport,
    GaloisVerdict,
    HypothesisError,
    IntPoly,
    PolySyntaxError,
    discriminant,
    division_degree_report,
    find_simple_prime,
    galois_certificate,
    parse_poly,
)

__version__ = "0.1.0"
