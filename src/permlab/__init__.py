"""Pattern avoidance on classes of permutations.

Bivincular patterns (position and value adjacency constraints, with endpoint
anchors) are matched against permutations by a small backtracking engine.
Avoidance is then lifted to equivalence classes: a class counts as avoiding
only when every member does. Supported relations: conjugacy, common order,
Knuth equivalence, cyclic (toric) equivalence, and equal descent set.
The arithmetic side (totients, divisors, divisor sums) is recovered from
these enumerations and cross-checked against trial-division formulas.
"""

from .arith import (
    EULER_GAMMA,
    NaturalPermutation,
    divisor_count,
    divisor_perms,
    divisors,
    factorize,
    mobius,
    natural_perm,
    natural_perms,
    robin_check,
    robin_range,
    sigma_arith,
    sigma_via_divisor_perms,
    steggall_census,
    toric_class_total,
    totient,
)
from .catalog import (
    CATALOG,
    CENTRAL_POLYGONAL_PATTERN,
    DERANGEMENT_PATTERN,
    DIVISOR_PATTERN,
    FPF_INVOLUTION_PATTERN,
    GRAPH_PATTERN,
    INVOLUTION_PATTERN,
    KNUTH_MATCHING_PATTERN,
    MODULAR2_PATTERN,
    MODULAR3_PATTERN,
    SEQUENCE_TABLES,
    THREE_CYCLE_PATTERN,
    TOTIENT_PATTERN,
    TRANSPOSITION_PATTERN,
    TWO_THREE_CYCLE_PATTERN,
    anchored_value_run_pattern,
    bounded_cycle_pattern,
    classical_run_pattern,
    k_cycle_pattern,
    value_run_pattern,
    vincular_run_pattern,
)
from .census import (
    EnumerationResult,
    avoid_all,
    class_avoiders,
    class_matchers,
    match_all,
    plain_avoiders,
    plain_matchers,
    sequence_check,
    sigma_via_avoiders,
    stability,
    survey,
)
from .core import (
    Word,
    complement,
    compose,
    cycle_type,
    cycles,
    descent_set,
    format_perm,
    from_circular,
    identity,
    inverse,
    order,
    oplus,
    parse_perm,
    reverse,
    s_n,
    standardize,
    to_circular,
    toric_class,
)
from .errors import BudgetExceeded, InternalCheckError, NoOccurrenceError, ParseError
from .pattern import (
    BivincularPattern,
    all_patterns,
    apply_symmetry,
    avoids,
    format_pattern,
    matches,
    minimal_occurrences,
    occurrence_values,
    occurrences,
    parse_pattern,
    pat_complement,
    pat_inverse,
    pat_reverse,
    pat_shift,
    pattern,
    shift_orbit,
    symmetry_orbit,
)
from .relations import (
    CONJUGACY,
    DESCENT,
    KNUTH,
    ORDER,
    RELATIONS,
    TORIC,
    ClassCensus,
    Relation,
    census,
)
from .tableau import (
    count_syt,
    format_tableau,
    hook_shapes,
    inverse_rsk,
    is_hook,
    is_standard,
    knuth_class,
    knuth_neighbors,
    partitions,
    rsk,
    shape_of,
    standard_tableaux,
)

__version__ = "0.1.0"
