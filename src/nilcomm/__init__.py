"""Exact-arithmetic toolkit for nilpotent commutators of nilpotent matrices.

Everything is computed over the rationals with no floating point: Jordan
types, randomized nilpotent sampling in the centralizer, the generic
commuting-orbit map on partitions, its inverse images, and necessary
conditions on pairs of commuting Jordan types.

The names below load their home module on first use (PEP 562), so
importing the package, or one of its modules, loads nothing else.
"""

_HOMES = {
    "ExactMatrix": "exactla",
    "Partition": "partitions",
    "build_jordan": "exactla",
    "dinv": "dinverse",
    "dmap": "dinverse",
    "dmap_all": "dinverse",
    "dmap_index": "dinverse",
    "jordan_type": "exactla",
    "parse": "partitions",
    "rank": "exactla",
    "render": "partitions",
    "sample_nilpotent_commuting": "commutant",
}

__all__ = list(_HOMES)
__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)
    globals()[name] = value
    return value
