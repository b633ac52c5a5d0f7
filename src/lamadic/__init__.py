"""Exact lambda-adic arithmetic over cyclotomic local rings, unitary
matrix groups over them, and the class-number and unit-lattice invariants
driving torsion-field degree computations for superelliptic Jacobians.

Each layer is loaded on first use (PEP 562): `import lamadic` loads no
layer, and `from lamadic import RingCtx, lift_su` loads only ring, linalg
and matrices.  A public name is bound in the package once it is read, so
later reads are plain attribute lookups.
"""

from importlib import import_module

__version__ = "0.1.0"

# The home module of each public name, by module.
_EXPORTS = {
    "ring": (
        "ContextMismatch", "CycloElt", "DomainError", "HypothesisError", "NotAUnit",
        "PolySyntaxError", "RingCtx", "RingError", "exp", "log1p",
    ),
    "matrices": (
        "HermitianForm", "MatLocal", "MembershipError", "MembershipVerdict",
        "classify_membership", "det_local", "filtration_order_exponent", "legendre",
        "lift_su", "perm_embed", "random_su_element", "su_dimension",
        "weil_gram_and_epsilon",
    ),
    "commutators": (
        "FreeSeries", "matrix_commutator_check", "su_commutator_span_check",
        "verify_commutator_identity",
    ),
    "classnum": ("DemjanenkoReport", "c_lr", "demjanenko_det", "h_minus", "kappa_and_t", "n_of"),
    "lattices": (
        "AbelianPresentation", "UnitLattice", "abelian_order", "decompose_unit",
        "infinity_type_apply", "infinity_type_matrix_check", "lattice_index_check",
        "u_lr_member", "u_prime_basis", "u_reduction_order",
    ),
    "curves": (
        "CurveReport", "GaloisVerdict", "IntPoly", "discriminant", "division_degree_report",
        "find_simple_prime", "galois_certificate", "parse_poly",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "linalg"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
