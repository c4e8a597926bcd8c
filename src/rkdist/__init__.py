"""Countable-model distribution calculus over finite Rudin-Keisler preorders."""

from .catalog import (
    AdmissibilityViolation,
    CatalogEntry,
    MissingParameter,
    UnknownEntry,
    UnknownParameter,
    chain_profile,
    least_plus_class,
)
from .catalog import entries as catalog_entries
from .catalog import get as catalog_get
from .core import (
    CanonicalProfile,
    ClassSummary,
    DecompositionReport,
    InvalidProfile,
    Preorder,
    ProfileError,
    QuotientPoset,
    RkProfile,
    TooManyVertices,
    UnknownVertex,
    ValidationReport,
    canonical_form,
    close_preorder,
    counts,
    is_isomorphic,
    make_profile,
    quotient,
    validate_profile,
)
from .enumeration import EnumerationResult, InvalidTotal, enumerate_profiles
from .io import parse, render_ascii, render_dot, serialize
from .product import (
    EmptyFactorList,
    FactorMismatch,
    NameCollision,
    NotALattice,
    ProductDecomposition,
    decomposition,
    is_boolean_lattice,
    is_lattice,
    monotonicity,
    oracle_product,
    pareto_product,
    product_many,
)

__version__ = "0.1.0"
