"""Cache counters read from outside the library at the end of a run.

Nothing here changes permfact: the counters are the `cache_info()` of its
`functools.lru_cache`s, the size of the hand-rolled character memo and the
lengths of the Stirling tables.  Each hit ratio is reported with its base
(the number of lookups it was computed over).
"""

import gc
import sys

MODULES = ("partition", "charkit", "countcore", "dimred", "oracle")


def _original(obj):
    # A traced run replaces module attributes by span wrappers.
    return getattr(obj, "traced_original", obj)


def lru_caches(package="permfact"):
    """Map 'module.name' to the CacheInfo of each lru_cache in the package."""
    found = {}
    for layer in MODULES:
        mod = sys.modules.get(f"{package}.{layer}")
        if mod is None:
            continue
        for attr, value in vars(mod).items():
            func = _original(value)
            if hasattr(func, "cache_info") and getattr(func, "__module__", None) == mod.__name__:
                found[f"{layer}.{attr}"] = func.cache_info()
    return found


def lru_values(func):
    """The cached results of an unbounded lru_cache.

    The C implementation keeps them in a private dict; it is the dict among
    the wrapper's referents that is not the wrapper's own __dict__.
    """
    func = _original(func)
    own = getattr(func, "__dict__", None)
    size = func.cache_info().currsize
    for ref in gc.get_referents(func):
        if isinstance(ref, dict) and ref is not own and len(ref) == size:
            return list(ref.values())
    raise LookupError(f"cannot find the cache of {func!r}")


def _ratio(infos, names):
    hits = sum(infos[n].hits for n in names if n in infos)
    lookups = sum(infos[n].hits + infos[n].misses for n in names if n in infos)
    return (hits / lookups if lookups else 0.0), lookups


def read(package="permfact"):
    """Per-layer counter metrics, as a flat dict of name to number."""
    def pkg(layer):
        return sys.modules[f"{package}.{layer}"]

    infos = lru_caches(package)
    out = {}
    charkit = [n for n in infos if n.startswith("charkit.")]
    out["charkit.lru_hit_ratio"], out["charkit.lru_lookups"] = _ratio(infos, charkit)
    out["charkit.char_cache.entries"] = len(pkg("charkit")._char_cache)
    for metric, cache in (
        ("countcore.mu_cache", "countcore._mu_cached"),
        ("countcore.xi_cache", "countcore._xi_cached"),
        ("dimred.tilde_S", "dimred.tilde_S"),
        ("partition.all_partitions", "partition.all_partitions"),
    ):
        out[f"{metric}.hit_ratio"], out[f"{metric}.lookups"] = _ratio(infos, [cache])
    exactnum = pkg("exactnum")
    out["exactnum.stirling_rows"] = len(exactnum._STIRLING1_ROWS) + len(
        exactnum._STIRLING2_ROWS
    )
    oracle = pkg("oracle")
    out["oracle.table_entries"] = sum(
        len(table)
        for name in ("_xi2_table", "_xi3_table", "_mu_table")
        for table in lru_values(getattr(oracle, name))
    )
    return out
