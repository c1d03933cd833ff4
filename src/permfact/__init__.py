"""Exact counting of permutation factorizations and one-face maps.

Counts tuples of permutations drawn from prescribed conjugacy classes of
the symmetric group whose product has a given number of cycles, and the
special case of factorizations of a fixed full cycle (one-face bipartite
maps, indexed by genus).  All arithmetic is exact: integers are
arbitrary precision and divisions are checked to be exact (exactnum
owns the check); only one_face_map_count sums rationals.

Each count has one production route, and every one of them has an
independent cross-check: a brute-force oracle on small symmetric
groups, specialized closed forms, symmetric function identities, and a
dimension-reduction recursion that also drives the persisted count
database.  The names that only the checks use load with their module
on first use (_CHECK_EXPORTS).
"""

from .partition import (
    Partition,
    PartitionParseError,
    all_partitions,
    aut_lambda,
    class_size,
    parse_partition,
    remove_part,
    z_lambda,
)
from .exactnum import (
    binomial,
    double_factorial_odd,
    factorial,
    stirling_first_signed,
    stirling_first_unsigned,
    stirling_second,
)
from .charkit import (
    character,
    dimension,
    hook_character_poly,
)
from .countcore import ConsistencyError, genus_of, mu, xi
from .closedform import hz_table, one_face_map_count, zagier_stanley
from .oracle import brute_mu, brute_xi
from .dimred import (
    Database,
    DatabaseBuildError,
    DatabaseRangeError,
    build_database,
    load_database,
    write_database,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "PartitionParseError",
    "all_partitions",
    "aut_lambda",
    "class_size",
    "parse_partition",
    "remove_part",
    "z_lambda",
    "binomial",
    "double_factorial_odd",
    "factorial",
    "stirling_first_signed",
    "stirling_first_unsigned",
    "stirling_second",
    "character",
    "dimension",
    "hook_character_poly",
    "ConsistencyError",
    "genus_of",
    "mu",
    "xi",
    "hz_series_check",
    "hz_table",
    "jackson_by_length",
    "mu_genus_zero",
    "mu_one_p",
    "mu_p_power",
    "mu_t_p",
    "mu_two_parts",
    "one_face_map_count",
    "polynomiality_check",
    "zagier_stanley",
    "verify_m1_identities",
    "verify_schur_identity",
    "brute_mu",
    "brute_xi",
    "Database",
    "DatabaseBuildError",
    "DatabaseRangeError",
    "build_database",
    "load_database",
    "write_database",
    "CaseResult",
    "CheckReport",
    "__version__",
]

# Names whose module only the checks need: it is imported on first use
# (PEP 562), so that no command pays for it at start.
_CHECK_EXPORTS = {
    "hz_series_check": "verify",
    "jackson_by_length": "verify",
    "mu_genus_zero": "verify",
    "mu_one_p": "verify",
    "mu_p_power": "verify",
    "mu_t_p": "verify",
    "mu_two_parts": "verify",
    "polynomiality_check": "verify",
    "verify_m1_identities": "symfun",
    "verify_schur_identity": "symfun",
    "CaseResult": "report",
    "CheckReport": "report",
}


def __getattr__(name):
    module = _CHECK_EXPORTS.get(name, name)
    if module not in _CHECK_EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_CHECK_EXPORTS, *_CHECK_EXPORTS.values()})
