import importlib

import pytest

import nilcomm
from nilcomm import commutant, dinverse

HOMES = {
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


def test_star_import_binds_every_exported_name_from_its_home():
    assert sorted(nilcomm.__all__) == sorted(HOMES)
    ns = {}
    exec("from nilcomm import *", ns)
    for name, home in HOMES.items():
        module = importlib.import_module(f"nilcomm.{home}")
        assert ns[name] is getattr(module, name) is getattr(nilcomm, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        nilcomm.no_such_name
    assert not hasattr(nilcomm, "_index_window")


def test_commutant_reexports_the_dinverse_map():
    # perfbench/run.py imports dmap_index from commutant
    assert commutant.dmap_index is dinverse.dmap_index
