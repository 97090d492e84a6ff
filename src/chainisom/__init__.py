"""Partial isometries of a finite chain: elements, counting, and structure.

The package materialises two inverse semigroups of partial injective maps
on {1, ..., n}: all distance-preserving maps, and the order-preserving ones
among them.  It provides exact counting formulas with brute-force
verification, Green's relation computations by two independent routes, and
structural predicates (inverse, 0-E-unitary, categorical) with replayable
witnesses, all behind a deterministic command-line interface.
"""

from .chain_maps import (
    PartialInjection,
    compose,
    from_json,
    inverse,
    is_isometry,
    is_order_preserving,
    to_json,
    to_text,
)
from .closed_forms import (
    f_fix,
    f_fix_dp,
    f_fix_odp,
    f_height,
    f_height_dp,
    f_height_odp,
    family_order,
    formula_count_table,
    order_dp,
    order_odp,
    phi_bijection,
    phi_bijection_report,
    recurrence_check,
    verify_sum_identity,
)
from .errors import (
    ChainIsomError,
    DomainError,
    LimitExceeded,
    MismatchedChain,
    NoZero,
    NotAssociative,
    NotClosed,
    NotFunctional,
    NotInjective,
    OutOfRange,
)
from .greens_structure import (
    SemigroupTable,
    Witness,
    build_rees_quotient,
    build_table,
    greens_classes_criterion,
    greens_classes_oracle,
    idempotents,
    is_categorical,
    is_inverse,
    is_zero_e_unitary,
    replay_witness,
    witness_to_json,
)
from .isometry_families import (
    CountTable,
    Family,
    count_by,
    empirical_count_table,
    enumerate_fast,
    enumerate_images,
    enumerate_oracle,
    is_member,
)

__version__ = "0.1.0"
