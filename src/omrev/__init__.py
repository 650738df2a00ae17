"""Exact reversal classes, orientation activities, and Tutte polynomial
checks for small oriented matroids (n <= 20).

The package machine-checks, instance by instance, the identities tying
reorientation combinatorics to Tutte evaluations: in each of the five
settings of SETTINGS, the count of minimal reorientations always matches
the evaluation at the setting's point, and the reversal-class count
matches exactly when the instance is regular, falling strictly below
otherwise.
"""

from .activity import (
    ActivityData,
    activities,
    activity_classes,
    activity_report,
    greedy_ends,
    greedy_minimalize,
    is_minimal,
    minimal_counts,
    tutte_via_activities,
)
from .catalog import CatalogEntry, catalog_instances, get_entry, get_instance
from .core import (
    InvalidOrientedMatroid,
    MAX_ELEMENTS,
    OrientedMatroid,
    SignedSet,
    ValidationReport,
    build_from_graph,
    build_from_matrix,
    build_from_signed_sets,
    build_uniform,
    dual,
    instance_from_dict,
    load_instance_file,
    part_decomposition,
    positive_sets,
    validate,
)
from .regularity import RegularityVerdict, classify, is_binary
from .reversal import (
    ReversalPartition,
    find_minimal_pair_in_class,
    reversal_classes,
    reversal_counts,
    same_class,
)
from .tutte import (
    EVAL_POINTS,
    SETTINGS,
    TuttePolynomial,
    evaluations,
    rank,
    tutte_polynomial,
)

__version__ = "0.1.0"
