"""Exact computer algebra for chain complexes over grid rings.

The package computes canonical standard-complex representatives of local
equivalence classes of knotlike complexes over F2[U,V]/(UV) and over the
larger staircase ring X, together with the concordance invariants carried by
the representative (phi tables, tau, epsilon, genus and unknotting bounds,
tower gradings, and vanishing obstructions).
"""

from .ring import (
    EQUAL,
    GREATER,
    LESS,
    MONO_ONE,
    Monomial,
    RingElem,
    RingId,
    Side,
    SignedParam,
    elem_grading,
    elem_mul,
    grading_basis,
    u_mono,
    v_mono,
)
from .complexes import (
    FUVComplex,
    FreeComplex,
    InvalidComplexError,
    NotKnotlikeError,
    PairedBasis,
    QuotientHomology,
    base_change,
    dual,
    is_knotlike,
    is_reduced,
    normalize,
    paired_basis,
    quotient_homology,
    reduce,
    shift_gradings,
    tensor,
    validate,
    validate_fuv,
)
from .standard import (
    ShiftMap,
    StandardSpec,
    dual_spec,
    format_spec,
    is_symmetric,
    lex_compare,
    make_spec,
    parse_spec,
    promote_spec,
    read_params,
    realize,
    reverse_spec,
    shift_spec,
)
from .localeq import (
    ExtantSet,
    LocalMapCert,
    VerificationError,
    check_certificate,
    extant_coefficients,
    find_local_map,
    is_locally_equivalent,
    order_compare_complexes,
    standard_representative,
    standardize,
)
from .invariants import (
    InvariantReport,
    PhiTable,
    additivity_check,
    p_invariants,
    phi,
    report,
    tau,
)
from .examples import example_cable, example_zhou

__all__ = [name for name in dir() if not name.startswith("_")]
