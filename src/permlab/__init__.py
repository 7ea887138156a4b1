"""Pattern avoidance on classes of permutations.

Bivincular patterns (position and value adjacency constraints, with endpoint
anchors) are compiled into end-anchored plans. The avoiders or containers of
a set of patterns are generated by prefix-extension walks that run each
pattern's plan at every new letter; a survey instead reads the signatures of
position subsets to test many patterns at once. Avoidance is then lifted to
equivalence classes: a class counts as avoiding only when every member does.
Supported relations: conjugacy, common order, Knuth equivalence, cyclic
(toric) equivalence, and equal descent set. The arithmetic side (totients,
divisors, divisor sums) is recovered from these enumerations and
cross-checked against trial-division formulas.
"""

from .arith import (
    EULER_GAMMA,
    NaturalPermutation,
    divisor_perms,
    divisors,
    factorize,
    mobius,
    natural_perms,
    robin_check,
    robin_range,
    sigma_arith,
    sigma_via_divisor_perms,
    steggall_census,
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
    bounded_cycle_pattern,
    k_cycle_pattern,
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
    cycle_type,
    cycles,
    descent_set,
    format_perm,
    identity,
    inverse,
    order,
    oplus,
    parse_perm,
    reverse,
    s_n,
)
from .errors import BudgetExceeded, InternalCheckError, ParseError
from .pattern import (
    BivincularPattern,
    all_patterns,
    apply_symmetry,
    avoids,
    format_pattern,
    matches,
    occurrences,
    parse_pattern,
    pat_complement,
    pat_inverse,
    pat_reverse,
    pat_shift,
    shift_orbit,
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
)
from .tableau import (
    count_syt,
    format_tableau,
    knuth_class,
    knuth_neighbors,
    partitions,
    rsk,
    shape_of,
)

__version__ = "0.1.0"
