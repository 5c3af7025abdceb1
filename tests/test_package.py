import ast
import importlib
import re
from pathlib import Path

import pytest

import nilcomm
from nilcomm import commutant, dinverse, exactla

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


def test_only_the_cli_writes_json():
    # the library returns plain values; cli.py alone shapes them into JSON
    for path in sorted(Path(nilcomm.__file__).parent.glob("*.py")):
        if path.stem == "cli":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert "json" not in {a.name.split(".")[0] for a in node.names}, path.name
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").split(".")[0] != "json", path.name
            elif isinstance(node, ast.FunctionDef):
                assert node.name != "to_json_dict", path.name


def test_only_exactla_makes_a_witness():
    # certify is the one place a matrix gets a certified type: no other
    # module calls Witness or its _trusted builder, or makes objects bare
    assert issubclass(exactla.Witness, exactla.ExactMatrix)
    maker = re.compile(r"\bWitness\s*\(|Witness\._trusted|object\.__new__")
    for path in sorted(Path(nilcomm.__file__).parent.glob("*.py")):
        if path.stem != "exactla":
            assert not maker.search(path.read_text()), path.name
