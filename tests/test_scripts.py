import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import nilcomm

SRC = Path(nilcomm.__file__).resolve().parent.parent
SCRIPTS = SRC.parent / "scripts"


def run_script(name, *args):
    """The script in a new interpreter with only src/ on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("name, args", [
    ("dmap_table.py", ["8"]),
    ("fiber_census.py", ["--max-n", "8"]),
    ("question_evidence.py", ["q1", "--max-n", "12"]),
    ("question_evidence.py", ["q2", "--max-n", "10"]),
])
def test_script_runs(name, args):
    res = run_script(name, *args)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout


def test_dmap_table_json_lists_every_image():
    res = run_script("dmap_table.py", "8", "--json")
    assert res.returncode == 0, res.stderr.decode()
    doc = json.loads(res.stdout)
    assert doc["n"] == 8 and len(doc["entries"]) == 22
    assert {"lambda": [3, 3, 1, 1], "d": [6, 2]} in doc["entries"]
    assert all(set(e) == {"lambda", "d"} for e in doc["entries"])


@pytest.mark.parametrize("name, args, digest", [
    ("dmap_table.py", ["8"],
     "d4b5b12cb2d4c78d8ff2dc2a714674006cf0f7aafbddc4a03fab611086114598"),
    ("dmap_table.py", ["8", "--json"],
     "f33fa739b162c2dbb4ebaf5b331a92edb680ceaf07bfb7bb5bec2f2603a0e644"),
    ("fiber_census.py", ["--max-n", "8"],
     "ea9a3894bf2b684c11b8b97627cedd39adf9adae79a1d93e107990839907c4e0"),
])
def test_table_script_output_is_pinned(name, args, digest):
    # the image table and the fiber census, byte for byte: the shape of
    # dmap_all's result is not theirs to show
    res = run_script(name, *args)
    assert res.returncode == 0, res.stderr.decode()
    assert hashlib.sha256(res.stdout).hexdigest() == digest


def test_stopped_bench_worker_removes_its_package_copy(tmp_path):
    # the worker copies the package under TMPDIR and answers on stdin; its
    # first line lists the measurements once the copy is set up; none is run
    # here, and tier1_s could not be: it would run Tier-1 inside Tier-1
    argv = [sys.executable, str(SCRIPTS / "bench.py"), "--worker", str(SRC.parent)]
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(tmp_path))
    with subprocess.Popen(argv, env=env, stdin=subprocess.PIPE,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            names = json.loads(proc.stdout.readline())
            assert {"verify.suite11_s", "twoblock.element_s", "commutant.plan_s",
                    "exactla.rank_40_s", "twoblock.squarezero_s", "twoblock.conjugate_s",
                    "tier1_s"} <= set(names)
            assert list(tmp_path.iterdir())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 128 + signal.SIGTERM
        finally:
            proc.kill()
    assert list(tmp_path.iterdir()) == []


def test_bench_records_the_library_line_count():
    # the src/ lines column of the trajectory: src/nilcomm/*.py only
    spec = importlib.util.spec_from_file_location("bench", SCRIPTS / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    want = sum(len(p.read_text().splitlines()) for p in (SRC / "nilcomm").glob("*.py"))
    assert bench.src_lines(str(SRC.parent)) == want > 0
    # and where they are: one count per module, summing to the total
    by_module = bench.src_lines_by_module(str(SRC.parent))
    assert set(by_module) == {p.name for p in (SRC / "nilcomm").glob("*.py")}
    assert sum(by_module.values()) == want
    assert by_module["cli.py"] == len((SRC / "nilcomm" / "cli.py").read_text().splitlines())
