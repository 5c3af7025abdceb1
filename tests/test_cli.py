import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nilcomm
from nilcomm import cli, dinverse, exactla, twoblock, verify
from nilcomm.cli import build_parser, main
from nilcomm.partitions import enumerate_partitions

SRC = str(Path(nilcomm.__file__).resolve().parent.parent)
GOLDEN = Path(__file__).with_name("cli_golden.txt")


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_fresh(*args):
    """A new interpreter with only src/ on the path: nothing preloaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=120)


def test_dmap_text(capsys):
    rc, out, err = run(capsys, "dmap", "3,1,1")
    assert (rc, out, err) == (0, "D(3,1,1) = (4,1)\n", "")


def test_dmap_json(capsys):
    rc, out, _ = run(capsys, "dmap", "2^3,1", "--json")
    assert rc == 0
    assert json.loads(out) == {"lambda": [2, 2, 2, 1], "d": [7], "seed": None}


@pytest.mark.parametrize("argv", [
    ["dmap", "3,1,1"],
    ["dinv", "6,2"],
    ["explore", "q1", "--mu", "7", "--r", "5"],
    ["explore", "q2", "4,2"],
    ["construct", "squarezero", "3,3,1", "--rank", "3"],
    ["construct", "lemma-odd", "5", "3", "4"],
])
def test_unseeded_commands_print_a_null_seed(capsys, argv):
    # these commands draw nothing; dmap and dinv accept --seed, for perfbench,
    # and it changes no byte
    rc, out, _ = run(capsys, *argv, "--json")
    assert rc == 0 and json.loads(out)["seed"] is None
    if argv[0] in ("dmap", "dinv"):
        assert run(capsys, *argv, "--json", "--seed", "9") == (rc, out, "")


def test_dinv_text_and_json(capsys):
    rc, out, _ = run(capsys, "dinv", "6,2")
    assert rc == 0
    assert "(3,3,1,1)" in out and "(6,2)" in out
    rc, out, _ = run(capsys, "dinv", "4,1", "--json")
    doc = json.loads(out)
    assert doc["mu"] == [4, 1]
    assert doc["size"] == len(doc["fiber"]) == 2
    assert [3, 1, 1] in doc["fiber"]


def test_dinv_needs_no_size_guard(capsys):
    # the fiber is built from the recursion, not from all partitions of n
    rc, out, err = run(capsys, "dinv", "35,25", "--json")
    assert (rc, err) == (0, "")
    assert json.loads(out)["size"] == 9 * 25
    rc, out, err = run(capsys, "dinv", "18,2", "--json")
    assert rc == 0
    want = sorted(dinverse.dmap_all(20)[(18, 2)], reverse=True)
    assert json.loads(out)["fiber"] == [list(lam) for lam in want]
    # neither the old guard's --force nor --max-n, which scales only verify
    for flags in (["--max-n", "4"], ["--force"]):
        with pytest.raises(SystemExit) as exc:
            main(["dinv", "6,2", *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


def test_sample_is_deterministic(capsys):
    rc1, out1, _ = run(capsys, "sample", "4,2", "--count", "3", "--json")
    rc2, out2, _ = run(capsys, "sample", "4,2", "--count", "3", "--json")
    assert rc1 == rc2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["lambda"] == [4, 2]
    assert len(doc["samples"]) == 3
    rc3, out3, _ = run(capsys, "sample", "4,2", "--count", "3", "--json", "--seed", "9")
    assert out3 != out1


def test_sample_rejects_count_below_one(capsys):
    for count in ("0", "-1"):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "4,2", "--count", count])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--count" in captured.err


def test_sample_dump_matrix(capsys):
    rc, out, _ = run(capsys, "sample", "3,1", "--dump-matrix")
    assert rc == 0
    assert "type" in out or "(" in out


def test_construct_squarezero(capsys):
    rc, out, _ = run(capsys, "construct", "squarezero", "3,3,1", "--rank", "3")
    assert rc == 0
    rc, out, _ = run(capsys, "construct", "squarezero", "3,3,1", "--rank", "3", "--json")
    doc = json.loads(out)
    assert doc["jordan"] == [2, 2, 2, 1]
    assert doc["square_zero"] is True and doc["commutes"] is True
    assert doc["rank"] == 3
    rc, _, err = run(capsys, "construct", "squarezero", "3,1", "--rank", "5")
    assert rc == 2


def test_construct_antidiagonal(capsys):
    rc, out, _ = run(capsys, "construct", "antidiagonal", "5", "3", "0", "1")
    assert rc == 0
    assert "predicted: (3,3,2)" in out and "case: a" in out
    rc, out, _ = run(capsys, "construct", "antidiagonal", "7", "5", "0", "2", "--json")
    doc = json.loads(out)
    assert doc["case"] == "b"
    assert doc["predicted"] == [4, 3, 3, 2]
    assert doc["jordan"] == [4, 3, 3, 2]
    assert doc["commutes"] is True


def test_construct_lemmas(capsys):
    rc, out, _ = run(capsys, "construct", "lemma-eq2", "4")
    assert rc == 0
    assert "(5,3)" in out
    rc, out, _ = run(capsys, "construct", "lemma-odd", "5", "3", "4", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["jordan"] == [2, 2, 2, 2]
    assert doc["square_zero"] is True
    # the equal-block partner is fixed: it prints a null seed
    rc, out, _ = run(capsys, "construct", "lemma-eq2", "5", "--json", "--dump-matrix")
    doc = json.loads(out)
    assert rc == 0 and doc["jordan"] == [6, 4] and doc["seed"] is None


def test_check_pair(capsys):
    rc, out, _ = run(capsys, "check", "pair", "6,2", "4,4")
    assert rc == 0
    assert "forbidden" in out
    assert "nilorder" in out
    rc, out, _ = run(capsys, "check", "pair", "4,2", "3,2,1", "--json")
    doc = json.loads(out)
    assert doc["verdict"] in ("unknown", "forbidden")
    # a full cycle beside a non-almost-rectangular type: thm3 says it once
    rc, out, _ = run(capsys, "check", "pair", "6", "4,2")
    assert rc == 0 and "forbidden" in out
    assert out.count("thm3") == 1 and "prop_ar" not in out
    rc, out, err = run(capsys, "check", "pair", "3,1", "3,2")
    assert (rc, out) == (2, "") and "sizes differ" in err


def test_verify_single_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "9")
    assert rc == 0
    assert "CRITERION 9" in out and "PASS" in out


def test_verify_reports_suite_seconds(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "9", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["max_n"] == 16
    (res,) = doc["results"]
    # the six report keys; the suite's verified pairs are not part of it
    assert list(res) == ["criterion", "name", "passed", "checked", "detail", "seconds"]
    assert isinstance(res["seconds"], float) and res["seconds"] >= 0
    rc, out, _ = run(capsys, "verify", "--suite", "9")
    assert re.search(r"\(\d+ checks, \d+\.\d s\)$", out.strip())


def test_verify_single_suite_matches_run_all(capsys):
    # suite 11 alone collects its pairs at the same --max-n as run_all
    want = {r.criterion: r.checked for r in verify.run_all(4, 0)}
    rc, out, _ = run(capsys, "verify", "--suite", "11", "--max-n", "4", "--json")
    assert rc == 0
    (res,) = json.loads(out)["results"]
    assert res["criterion"] == 11 and res["checked"] == want[11]


def test_explore_commands(capsys):
    rc, out, _ = run(capsys, "explore", "q1", "--mu", "7", "--r", "5")
    assert rc == 0
    rc, out, _ = run(capsys, "explore", "q2", "4,2", "--json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["holds"] is True


def test_bad_partition_is_exit_2(capsys):
    rc, _, err = run(capsys, "dmap", "3,x")
    assert rc == 2
    assert err


def test_exit_codes_keep_failure_classes_apart(capsys, monkeypatch):
    rc, out, err = run(capsys, "dmap", "3,1,1")
    assert (rc, err) == (0, "")
    # the reader closed the pipe: exit 141, printing nothing, whether a
    # command's print meets it (line buffered) or the final flush does
    for buffering in (1, -1):
        r, w = os.pipe()
        os.close(r)
        with open(w, "w", buffering=buffering) as closed, monkeypatch.context() as m:
            m.setattr(sys, "stdout", closed)
            rc, out, err = run(capsys, "dmap", "3,1,1")
        assert (rc, err) == (141, ""), buffering
    # bad input
    rc, out, err = run(capsys, "dmap", "3,x")
    assert rc == 2 and out == "" and err.startswith("error:")
    # a verification that fails
    failed = verify.SuiteResult(9, "forced", False, 0, "forced failure")
    monkeypatch.setitem(verify.SUITES, 9, lambda m, seed, pairs: failed)
    rc, out, err = run(capsys, "verify", "--suite", "9")
    assert rc == 1 and "forced failure" in out
    # a layer's own consistency check fails: an internal error, not bad input
    monkeypatch.setattr(dinverse, "min_ar_cover", lambda lam: 0)
    rc, out, err = run(capsys, "dmap", "3,1,1")
    assert rc == 3 and out == ""
    assert err.startswith("internal error: recursion gave") and "bug" in err
    # so is an odd pair's coupling that is not nilpotent: certify, a check
    # that python -O keeps, refuses the whole square-zero partner
    pair = twoblock._odd_pair

    def with_identity(l1, l2):
        x = pair(l1, l2)
        return twoblock.TwoBlockElement(l1, l2, (1, *x.a[1:]), x.b, x.c, x.d)

    with monkeypatch.context() as m:
        m.setattr(twoblock, "_odd_pair", with_identity)
        rc, out, err = run(capsys, "construct", "squarezero", "3,3,1", "--rank", "3")
    assert (rc, out) == (3, "")
    assert err.startswith("internal error: witness for host (3, 3, 1):")
    assert "not nilpotent" in err and err.endswith("; bug\n")
    # any other exception a command raises is a bug too, named by its type,
    # never a traceback with exit 1, the code of a failed verification
    def lookup_fails(lam):
        raise KeyError(tuple(lam))

    with monkeypatch.context() as m:
        m.setattr(cli, "dmap", lookup_fails)
        rc, out, err = run(capsys, "dmap", "3,1")
    assert (rc, out, err) == (3, "", "internal error: KeyError: (3, 1)\n")
    # a witness that is not nilpotent is a bug, whether the construction
    # certifies it (lemma-eq2) or the command does (antidiagonal) ...
    element = twoblock.tb_element
    monkeypatch.setattr(twoblock, "tb_element", lambda l1, l2, terms: element(
        l1, l2, [*terms, ("M", 0, 1)]))
    for argv in (["construct", "lemma-eq2", "4"],
                 ["construct", "antidiagonal", "5", "3", "0", "1"]):
        rc, out, err = run(capsys, *argv)
        assert rc == 3 and out == "", argv
        assert err.startswith("internal error:") and "not nilpotent" in err, argv
    # ... but in suite 3 it is a failed verification
    rc, out, err = run(capsys, "verify", "--suite", "3", "--max-n", "4")
    assert rc == 1 and err == ""
    assert out.startswith("CRITERION 3 [antidiagonal types]: FAIL") and "not nilpotent" in out


@pytest.mark.parametrize("argv", [
    ["construct", "squarezero", "3,3,1", "--rank", "3"],
    ["construct", "antidiagonal", "5", "3", "0", "1"],
    ["construct", "lemma-eq2", "4"],
    ["construct", "lemma-odd", "5", "3", "4", "--json"],
])
def test_construct_types_its_witness_once(capsys, monkeypatch, argv):
    # every Jordan type goes through this kernel, whatever name the caller
    # imported: the transcript prints the type the certificate computed
    calls = []
    kernel = exactla._jordan_type_rows
    monkeypatch.setattr(exactla, "_jordan_type_rows",
                        lambda rows: calls.append(rows) or kernel(rows))
    rc, _, _ = run(capsys, *argv)
    assert rc == 0 and len(calls) == 1


def test_verify_fails_a_suite_that_checks_nothing(capsys):
    rc, out, _ = run(capsys, "verify", "--max-n", "0", "--json")
    results = json.loads(out)["results"]
    assert rc == 1
    empty = [r for r in results if not r["checked"]]
    assert len(empty) == 10
    assert all(not r["passed"] and r["detail"] == "nothing checked at this scale"
               for r in empty)
    rc, out, _ = run(capsys, "verify", "--max-n", "4", "--json")
    assert rc == 0
    assert all(r["passed"] and r["checked"] > 0 for r in json.loads(out)["results"])


# the five flags every command once took, each with a value to parse
FLAGS = {"--json": [], "--dump-matrix": [], "--seed": ["7"], "--coeff-bound": ["0"],
         "--max-n": ["4"]}
# a command line of each command, and the flags of FLAGS it takes
TAKES = [
    (["dmap", "3,1,1"], {"--json", "--seed"}),
    (["dinv", "6,2"], {"--json", "--seed"}),
    (["explore", "q1", "--mu", "7", "--r", "5"], {"--json"}),
    (["explore", "q2", "4,2"], {"--json"}),
    (["sample", "3,1"], {"--json", "--seed", "--coeff-bound", "--dump-matrix"}),
    (["construct", "antidiagonal", "5", "3", "0", "1"],
     {"--json", "--seed", "--coeff-bound", "--dump-matrix"}),
    (["construct", "squarezero", "3,3,1", "--rank", "3"], {"--json", "--dump-matrix"}),
    (["construct", "lemma-eq2", "4"], {"--json", "--dump-matrix"}),
    (["construct", "lemma-odd", "5", "3", "4"], {"--json", "--dump-matrix"}),
    (["check", "pair", "6,2", "4,4"], {"--json"}),
    (["verify"], {"--json", "--seed", "--max-n"}),
]


@pytest.mark.parametrize("argv, flag, taken", [
    pytest.param(argv, flag, flag in taken, id=" ".join(argv[:2] + [flag]))
    for argv, taken in TAKES for flag in FLAGS])
def test_each_command_takes_only_the_flags_it_reads(capsys, argv, flag, taken):
    # 24 flags in all; a flag a command does not take is a usage error, so
    # `verify --coeff-bound 0` can no longer pass on all-zero draws, and the
    # commands that draw nothing take no --seed, apart from dmap and dinv
    flags = [flag, *FLAGS[flag]]
    if taken:
        args = build_parser().parse_args(argv + flags)
        value = getattr(args, flag[2:].replace("-", "_"))
        assert value == (int(FLAGS[flag][0]) if FLAGS[flag] else True)
        return
    with pytest.raises(SystemExit) as exc:
        main(argv + flags)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err


# the arguments of a command line for each row of cli.COMMANDS, in its order
ANSWERED = [["3,1,1"], ["6,2"], ["3,1", "--dump-matrix"],
            ["3,3,1", "--rank", "3", "--dump-matrix"], ["5", "3", "0", "1"], ["4"],
            ["5", "3", "4"], ["6,2", "4,4"], ["--suite", "9"], ["--mu", "7", "--r", "5"],
            ["4,2"]]


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("row, arguments", [
    pytest.param(row, arguments, id=" ".join(filter(None, row[:2])))
    for row, arguments in zip(cli.COMMANDS, ANSWERED, strict=True)])
def test_each_command_returns_its_answer_and_prints_nothing(capsys, row, arguments,
                                                            json_flag):
    # a handler returns its JSON document and its text lines, plus whether the
    # verification held for verify and explore; main alone writes one of them
    group, name, _, handler, _, _ = row
    argv = [*filter(None, (group, name)), *arguments, *json_flag]
    args = build_parser().parse_args(argv)
    assert args.func is handler
    doc, lines, *held = handler(args)
    assert capsys.readouterr() == ("", "")
    assert type(doc) is dict
    assert [type(h) for h in held] == [bool] * (group == "explore" or name == "verify")
    if name in ("dinv", "q1", "q2"):
        # lines that grow with the answer are rendered only when written
        assert iter(lines) is lines
    lines = list(lines)
    assert lines and all(type(line) is str for line in lines)
    rc, out, err = run(capsys, *argv)
    want = (json.dumps(doc, indent=2) + "\n" if json_flag
            else "".join(f"{line}\n" for line in lines))
    assert (rc, TIMING.sub("T", out), err) == (0 if all(held) else 1, TIMING.sub("T", want), "")


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["construct"])
    assert "construction" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["dmap"])
    assert "partition" in capsys.readouterr().err


def test_one_parser_serves_every_call_and_keeps_no_values(capsys):
    # the parser is built once per process, so a value one command line sets
    # must not become the next one's default
    assert build_parser() is build_parser()
    for first, then, key, value, default in (
            (["sample", "3,1", "--seed", "4"], ["sample", "3,1"], "seed", 4, 0),
            (["verify", "--suite", "9", "--max-n", "3"], ["verify", "--suite", "9"],
             "max_n", 3, 16)):
        for argv, want in ((first, value), (then, default)):
            _, out, _ = run(capsys, *argv, "--json")
            assert json.loads(out)[key] == want, argv


def test_bad_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "13"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --suite: invalid choice: '13'" in err
    named = re.search(r"choose from (.*)\)", err).group(1)
    assert re.findall(r"\w+", named) == ["all"] + [str(k) for k in verify.SUITES]


def loaded_after(statement):
    """Modules a fresh interpreter holds after running statement."""
    res = run_fresh("-c", f"import sys; {statement}; print(*sorted(sys.modules))")
    assert res.returncode == 0, res.stderr
    return set(res.stdout.decode().split())


def test_cli_import_leaves_out_unused_layers():
    bare = loaded_after("pass")
    cli = loaded_after("import nilcomm.cli")
    assert {m for m in cli if m.startswith("nilcomm")} == {
        "nilcomm", "nilcomm.cli", "nilcomm.dinverse", "nilcomm.partitions"}
    assert not {"dataclasses", "fractions", "logging"} & (cli - bare)
    assert {m for m in loaded_after("import nilcomm") if m.startswith("nilcomm.")} == set()


@pytest.mark.parametrize("argv", [["dmap", "3,1,1", "--json"],
                                  ["dinv", "6,2", "--json"],
                                  ["dmap", "5,3,3,2"],
                                  ["dinv", "6,2"]])
def test_fresh_process_prints_the_same_bytes(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    res = run_fresh("-m", "nilcomm.cli", *argv)
    assert (res.returncode, res.stdout) == (rc, out.encode())


def test_fresh_process_exits_141_on_a_closed_pipe():
    # as `nilcomm dinv 60,40 --json | head -1`: the reader leaves after one
    # line while most of the 219 kB are still to be written
    argv = [sys.executable, "-m", "nilcomm.cli", "dinv", "60,40", "--json"]
    proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")


def test_fresh_process_bad_partition_is_exit_2():
    res = run_fresh("-m", "nilcomm.cli", "dmap", "0,1")
    assert res.returncode == 2 and res.stdout == b""
    assert res.stderr.decode().startswith("error:")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "9"],
    ["check", "pair", "6,2", "4,4"],
    ["construct", "lemma-eq2", "3"],
    ["construct", "lemma-odd", "5", "3", "4"],
    ["construct", "squarezero", "3,3,1", "--rank", "3"],
    ["construct", "antidiagonal", "5", "3", "0", "1"],
    ["construct", "antidiagonal", "5", "3", "1", "2"],
    ["sample", "3,2,1", "--json", "--dump-matrix"],
])
def test_deferred_imports_resolve_in_a_fresh_process(argv):
    res = run_fresh("-m", "nilcomm.cli", *argv)
    assert res.returncode == 0, res.stderr


def cli_invocations() -> list:
    """A fixed list of command lines: every command with every flag it takes,
    partitions with n <= 8 and a few seeds, every dmap and dinv with n <= 8,
    every pair with n <= 6, failures with exit codes 1 and 2, and the ways
    argparse reads a command line; in all about 600, under a second in
    process."""
    def csv(p):
        return ",".join(map(str, p))

    parts = [p for n in range(1, 9) for p in enumerate_partitions(n)]
    small = [p for p in parts if p.n <= 5]
    out = []
    for i, p in enumerate(small):
        out += [["dmap", csv(p)], ["dinv", csv(p), "--json"],
                ["sample", csv(p), "--count", "2", "--seed", str(i % 3)]]
    for p in parts[20::6]:
        out += [["dmap", csv(p), "--json", "--seed", "5"], ["dinv", csv(p), "--seed", "5"],
                ["sample", csv(p), "--json", "--dump-matrix", "--coeff-bound", "3",
                 "--seed", "1"],
                ["sample", csv(p), "--dump-matrix", "--coeff-bound", "1"]]
    for i, p in enumerate(small):
        for r in range(p.n // 2 + 1):
            flags = [["--json"], ["--dump-matrix"], []][(i + r) % 3]
            out.append(["construct", "squarezero", csv(p), "--rank", str(r), *flags])
    for l1 in range(1, 7):
        for l2 in range(1, min(l1, 8 - l1) + 1):
            for j in range(l2):
                for l in range(j, l2):
                    if l1 > l2 or j + l:
                        flags = [["--seed", str(j + l)], ["--json", "--coeff-bound", "2"],
                                 ["--dump-matrix", "--seed", "3", "--coeff-bound", "1"]]
                        out.append(["construct", "antidiagonal", str(l1), str(l2), str(j),
                                    str(l), *flags[(l1 + l) % 3]])
    for m in range(2, 6):
        out.append(["construct", "lemma-eq2", str(m), *[["--json"], ["--dump-matrix"]][m % 2]])
    for l1 in range(1, 5):
        for l2 in range(1, l1 + 1):
            for a in range((l1 + l2) // 2 + 1):
                flags = [[], ["--json"], ["--json", "--dump-matrix"]][a % 3]
                out.append(["construct", "lemma-odd", str(l1), str(l2), str(a), *flags])
    for lam in small[1:11]:
        for mu in small[1:11]:
            if lam.n == mu.n and lam >= mu:
                out.append(["check", "pair", csv(lam), csv(mu), *(["--json"] * (lam.n % 2))])
    for k in range(1, 13):
        if k not in (5, 11):
            out.append(["verify", "--suite", str(k), "--max-n", "4", "--seed", str(k % 3),
                        *(["--json"] * (k % 2))])
    out.append(["verify", "--suite", "3", "--max-n", "6", "--seed", "2"])
    # all twelve, where suites 3, 4, 6, 7 and 12 check nothing, so it fails
    out.append(["verify", "--max-n", "2", "--json", "--seed", "2"])
    for mu, r in ((6, 5), (7, 5), (8, 6), (9, 5)):
        out.append(["explore", "q1", "--mu", str(mu), "--r", str(r), *(["--json"] * (mu % 2))])
    for p in ("4,2", "6,2", "8", "5,3"):
        out += [["explore", "q2", p], ["explore", "q2", p, "--json"]]
    # a verification that fails, bad input, and flags a command does not take
    out += [["verify", "--max-n", "0"], ["dmap", "3,x"], ["dinv", "0,1"],
            ["sample", "3,1", "--coeff-bound", "0"], ["sample", "3,1", "--count", "0"],
            ["construct", "squarezero", "3,1", "--rank", "5"],
            ["construct", "antidiagonal", "3", "3", "0", "0"],
            ["construct", "lemma-eq2", "1"], ["construct", "lemma-odd", "2", "3", "1"],
            ["check", "pair", "3,1", "3,2"], ["explore", "q1", "--mu", "7", "--r", "4"],
            ["explore", "q2", "3,3"], ["dmap", "3,1", "--max-n", "4"],
            ["construct", "lemma-eq2", "4", "--seed", "1"], ["verify", "--suite", "13"]]
    # how argparse reads a command line: options before positionals, --flag=value,
    # an abbreviated flag and an ambiguous one (its error lists the candidates
    # in the order they were added), a group with no command, a missing
    # required option and an unknown command (its error lists them in order)
    out += [["dmap", "--json", "3,1"], ["sample", "3,1", "--seed=2", "--json"],
            ["sample", "3,1", "--coeff", "3"], ["sample", "3,1", "--co", "3"],
            ["construct"], ["construct", "squarezero", "3,1"], ["frobnicate"],
            ["check"], ["explore", "q3"]]
    for p in parts:
        if p.n >= 6:
            out += [["dmap", csv(p)], ["dinv", csv(p), "--json"]]
    for lam in parts:
        for mu in parts:
            if lam.n == mu.n <= 6:
                out.append(["check", "pair", csv(lam), csv(mu)])
    return out


# verify's timing fields: the JSON "seconds" and the text line's "(k checks, t s)"
TIMING = re.compile(r'(?<="seconds": )[0-9.e-]+|(?<=checks, )[0-9.]+(?= s\))')


def golden_line(capsys, argv) -> str:
    """The SHA-256 of (argv, exit code, stdout, stderr) with the timing fields
    masked, then the exit code and argv.  Of a usage error's stderr only the
    last line, the error, is kept: the usage text above it is argparse's."""
    try:
        rc, out, err = run(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        rc, out, err = exc.code, captured.out, captured.err.splitlines()[-1]
    record = (argv, rc, TIMING.sub("T", out), err)
    return f"{hashlib.sha256(repr(record).encode()).hexdigest()[:16]} {rc} {' '.join(argv)}"


# SHA-256 of cli_golden.txt, one golden_line per cli_invocations() entry and
# then one for an internal error; recorded on the code of commit 94e201a.  A
# change that alters output writes the new lines there, records their digest
# here and lists the invocations that changed in CHANGES.md
CLI_DIGEST = "e82c9e30213468e1f8594d28e5713dbd6a78d0d6af5bf63ec471ec8e514e7ba4"


def test_cli_output_matches_the_recorded_digest(capsys, monkeypatch):
    # the byte-for-byte promise: seeded commands print the same bytes and
    # exit with the same codes until a change says otherwise
    lines = [golden_line(capsys, argv) for argv in cli_invocations()]
    monkeypatch.setattr(dinverse, "min_ar_cover", lambda lam: 0)
    lines.append(golden_line(capsys, ["dmap", "3,1,1"]))  # exit 3
    text = "".join(line + "\n" for line in lines)
    if hashlib.sha256(text.encode()).hexdigest() != CLI_DIGEST:
        want = GOLDEN.read_text().splitlines()
        first = next((i for i, (a, b) in enumerate(zip(lines, want)) if a != b),
                     min(len(lines), len(want)))
        pytest.fail(f"invocation {first} differs: got {lines[first:first + 1]}, "
                    f"recorded {want[first:first + 1]}")
