#!/usr/bin/env python3
"""Layer timings of the library, written to BENCH_<label>.json.

Usage: python3 scripts/bench.py --label L [--repeats K] [--root DIR]
           [--against DIR2]

Times the checkout at DIR (default: the one holding this script) and writes
BENCH_L.json at the root of this script's checkout, with the Python
version, the CPU count, DIR's commit (`git describe --always --dirty`), its
`src/` line count (the lines of src/nilcomm/*.py), those lines per module
and, per measurement, the median and the K raw times in seconds.

With --against, the checkout at DIR2 (the one to compare with, usually the
parent commit's) is timed in the same run and written to BENCH_L_base.json.
Each checkout is set up once in its own worker process; then, in every
repeat and for every measurement, both workers run it one after the other,
DIR first in even repeats and DIR2 first in odd ones.  So the two sides of a pair are seconds apart, not
minutes, and load that drifts on a shared machine hits both.  Each file
records its partner's label and commit, which side ran first in each repeat,
and the median over repeats of its own time divided by its partner's.

Measurements:

- cli.dmap_n20_s, cli.dinv_n14_s: wall time of one fresh
  `python -m nilcomm.cli ... --json` process.  The package is copied without
  __pycache__ and run with PYTHONDONTWRITEBYTECODE=1, so every nilcomm
  module is compiled from source, as on a checkout that never wrote bytecode;
- cli.import_s: `import nilcomm.cli`, timed inside such a process;
- cli.main_s: 101 in-process `cli.main` calls, `dmap` and `dinv --json` on
  alternate partitions with n <= 8 and `check pair` on every sixth pair with
  n <= 6, printing to os.devnull; what a caller that runs many command lines
  in one process, as the CLI tests do, pays per batch;
- dinverse.dmap_all_{20,30,40}_s: one fiber table, built cold;
- dinverse.dinv_30_s, dinverse.dinv_40_s, dinverse.dinv_60_s: the fibers of
  (21,9), (25,15) and (35,25), built cold;
- dinverse.dmap_s: `dmap` on 200 fixed partitions of 5..60 parts up to 30;
- rng.ints_s: `Stream(s).ints(-10, 10, k)` for s = 0 .. 19 999 and each k
  in 1, 8, 30 and 120, the seeded stream every sampler draws through;
- commutant.plan_s: the draw plans (`commutant._plan`) of the 271
  partitions with n <= 12, built after clearing the plan cache, as a sample
  bank's warm-up builds them; the cost of certifying each host's draw shape
  once.  The plans the other measurements use are cached again afterwards,
  outside the timing;
- commutant.sample_jordan_s: 20 seeded draws on each of five hosts
  (n = 16..20), generator lists already cached;
- commutant.sample_jordan_small_s: 5 seeded draws on each of the 42
  partitions of 10, the small hosts that carry most of a sample bank's time;
- commutant.sample_nilpotent_commuting_s: one certified sample, in the
  standard basis, on each of the 42 partitions of 10;
- commutant.generic_witness_s: `generic_witness`, the fixed element
  certified in the standard basis, on each of the 42 partitions of 10;
- twoblock.element_s: constructions (`TwoBlockElement`, entry check
  included) of 200 fixed nilpotent two-block elements;
- twoblock.tb_pow_order_s: orders of the same 200 elements;
- twoblock.tb_to_matrix_s: dense realizations of the same 200 elements;
- twoblock.tb_rank_s: ranks of the same 200 elements;
- twoblock.dense_rank_s: `exactla.rank(tb_to_matrix(TwoBlockElement(*v)))`
  on the same 200 coefficient vectors: the construction, dense realization
  and dense rank of each, the path of perfbench's `twoblock_draws` draws;
- twoblock.antidiagonal_s: `antidiagonal(l1, l2, j, l, 1, 1)` on the 1 200
  admissible inputs with n <= 20 (l1 >= l2 > l >= j >= 0, and j + l >= 1
  when l1 = l2);
- twoblock.witnesses_s: `construct_lemma_eq2(m)` and
  `maxrank_partners(m + 1, m - 1)` for m = 2..12, each witness typed densely;
- twoblock.squarezero_s: `construct_squarezero_partner(mu, a)` for every
  partition mu with n <= 10 and every rank a (suite 1's 663 witnesses), then
  `construct_lemma_odd(l1, l2, a)` on the 408 inputs with n <= 16;
- twoblock.conjugate_s: `construct_conjugate_partner(lam)` on the 271
  partitions with n <= 12, suite 11's grid certifications;
- exactla.rank_{10,16,24}_s: ranks of ten fixed integer matrices of
  rank n - 2;
- exactla.rank_40_s: the same at n = 40, drawn from a generator of their
  own: dense rows take an update at every step, and their entries grow
  with each, so this is where the rank kernel trails Bareiss elimination
  most;
- exactla.rank_centralizer_{12,16,20}_s: ranks of the first three powers of
  40 fixed nilpotent elements commuting with J_lambda (20 on each of two
  hosts lambda per n), built here from the block-Toeplitz pattern of the
  centralizer;
- exactla.matmul_s: the squares `m @ m` of those 360 powers;
- exactla.certify_s: `certify(m, host, type)` on suite 1's 663 square-zero
  partners and on suite 3's antidiagonal elements (three per admissible
  input with n <= 14, coefficients drawn as suite 3 draws them, from a
  generator of their own), each as the plain matrix of its rows, so that
  each is checked and typed in full;
- constraints.filter_s: `compatible_filter` on each of the 3 582 ordered
  pairs of partitions of one n <= 10;
- verify.suite{1..12}_s: each acceptance suite's own `seconds` from
  `verify.run_suite(k)`, at the scale `run_all` gives it (--max-n 16,
  seed 0); run_suite(11) first runs suites 1, 3 and 5 for their pairs, which
  are not in its time.  A suite that fails stops the script;
- tier1_s: wall time of the Tier-1 command, `python -m pytest -q
  --continue-on-collection-errors -p no:cacheprovider`, in a fresh
  interpreter with cwd at the checkout and PYTHONPATH set to its src/ alone,
  so that with --against neither side imports the other's package.  A
  Tier-1 that fails stops the script.  It adds about 40 s per side and
  repeat, 10 x 40 s to a default 5-repeat paired run.

A run stopped by SIGTERM still removes the package copies its workers made.

Inputs are fixed (seeded `random`, never the library's own generator), and
only names that every benchmarked version of the library has are used.
Standard library only.
"""

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DMAP_ARG = "7,5,4,2,1,1"  # n = 20, cover 3
DINV_ARG = "9,4,1"  # n = 14, stable, a fiber of 8
SAMPLE_HOSTS = [(4, 4, 3, 3, 2), (6, 4, 3, 2, 1), (5, 5, 5, 5), (8, 6, 4, 2),
                (3, 3, 3, 3, 2, 2, 2, 1, 1)]
TWO_BLOCK_HOSTS = [(8, 8), (9, 7), (10, 6), (12, 4)]
CENTRALIZER_HOSTS = {12: [(4, 3, 3, 2), (5, 4, 2, 1)],
                     16: [(5, 4, 4, 3), (6, 5, 3, 2)],
                     20: [(6, 5, 4, 3, 2), (7, 6, 4, 3)]}
IMPORT_PROBE = ("from time import perf_counter as t; s = t(); import nilcomm.cli; "
                "print(t() - s)")


def fresh(pkg_root: str, argv: list) -> tuple:
    """(wall seconds, stdout) of one new interpreter on the copied package."""
    env = dict(os.environ, PYTHONPATH=pkg_root, PYTHONDONTWRITEBYTECODE="1")
    t0 = perf_counter()
    res = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                         timeout=600)
    wall = perf_counter() - t0
    if res.returncode != 0:
        sys.exit(f"bench: {argv} exited {res.returncode}: {res.stderr.decode()}")
    return wall, res.stdout


def tier1(root: str) -> float:
    """Wall seconds of root's Tier-1 tests, run in a new interpreter."""
    argv = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
            "-p", "no:cacheprovider"]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = perf_counter()
    res = subprocess.run(argv, cwd=root, env=env, capture_output=True, timeout=1800)
    wall = perf_counter() - t0
    if res.returncode != 0:
        tail = res.stdout.decode().strip().splitlines()[-1:]
        sys.exit(f"bench: Tier-1 of {root} exited {res.returncode}: {tail}")
    return wall


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def two_block_draws(rng: random.Random) -> list:
    """Suite-5-shaped coefficient vectors in nilpotent form."""
    def vec(k):
        return [rng.randint(-10, 10) for _ in range(k)]

    out = []
    for l1, l2 in TWO_BLOCK_HOSTS:
        for _ in range(50):
            a, b, c, d = vec(l1), vec(l2), vec(l2), vec(l2)
            a[0] = d[0] = 0
            if l1 == l2:
                (b if rng.randint(0, 1) else c)[0] = 0
            out.append((l1, l2, tuple(a), tuple(b), tuple(c), tuple(d)))
    return out


def rank_matrices(rng: random.Random, n: int) -> list:
    """Ten products of n x (n-2) and (n-2) x n integer matrices."""
    out = []
    for _ in range(10):
        a = [[rng.randint(-9, 9) for _ in range(n - 2)] for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 2)]
        out.append([[sum(a[i][k] * b[k][j] for k in range(n - 2)) for j in range(n)]
                    for i in range(n)])
    return out


def centralizer_element(rng: random.Random, lam: tuple) -> list:
    """Integer rows of a nilpotent element commuting with J_lam.

    Block (i, j) is a Toeplitz band of width min(lam_i, lam_j) in its top
    right corner, one coefficient in [-10, 10] per diagonal.  Between equal
    parts the block's main diagonal is kept only for i < j, so the image in
    the semisimple quotient is strictly triangular and the element nilpotent.
    """
    n = sum(lam)
    offs = [sum(lam[:i]) for i in range(len(lam))]
    rows = [[0] * n for _ in range(n)]
    for i, p in enumerate(lam):
        for j, q in enumerate(lam):
            for k in range(q - min(p, q), q):
                if p == q and k == 0 and i >= j:
                    continue
                coef = rng.randint(-10, 10)
                for r in range(q - k):
                    rows[offs[i] + r][offs[j] + k + r] = coef
    return rows


def measurements(root: str, pkg_root: str) -> dict:
    """Name -> zero-argument function returning seconds."""
    sys.path.insert(0, os.path.join(root, "src"))
    from nilcomm import (_rng, cli, commutant, constraints, dinverse, exactla,
                         partitions, twoblock, verify)

    if not commutant.__file__.startswith(os.path.join(root, "src")):
        sys.exit(f"bench: imported nilcomm from {commutant.__file__}, not {root}")
    rng = random.Random(2011)
    draws = two_block_draws(rng)
    elements = [twoblock.TwoBlockElement(*v) for v in draws]
    matrices = {n: [exactla.ExactMatrix(m) for m in rank_matrices(rng, n)]
                for n in (10, 16, 24)}
    # drawn apart, so the inputs of every other measurement stay as they were
    matrices[40] = [exactla.ExactMatrix(m) for m in rank_matrices(random.Random(40), 40)]
    powers = {}
    for n, hosts in CENTRALIZER_HOSTS.items():
        powers[n] = []
        for lam in hosts:
            jordan = exactla.build_jordan(lam)
            for _ in range(20):
                x = exactla.ExactMatrix(centralizer_element(rng, lam))
                if x @ jordan != jordan @ x:
                    sys.exit(f"bench: element for {lam} does not commute with J")
                powers[n] += [x, x @ x, x @ x @ x]
    dmap_parts = []
    for _ in range(200):
        top = rng.randint(1, 30)
        dmap_parts.append(sorted((rng.randint(1, top) for _ in range(rng.randint(5, 60))),
                                 reverse=True))
    antidiagonal_args = [(n - l2, l2, j, l) for n in range(2, 21)
                         for l2 in range(1, n // 2 + 1) for l in range(l2)
                         for j in range(l + 1) if n > 2 * l2 or j + l]
    squarezero_args = [(lam, a) for n in range(1, 11)
                       for lam in partitions.enumerate_partitions(n)
                       for a in range(n // 2 + 1)]
    lemma_odd_args = [(l1, n - l1, a) for n in range(2, 17)
                      for l1 in range((n + 1) // 2, n) for a in range(n // 2 + 1)]
    certify_args = [(exactla.ExactMatrix(w.row_data()), w.host, w.jordan) for w in (
        twoblock.construct_squarezero_partner(*args) for args in squarezero_args)]
    coefs = random.Random(3)  # drawn apart, as matrices[40] is

    def coef():
        return Fraction(coefs.choice([-1, 1]) * coefs.randint(1, 10), coefs.randint(1, 4))

    for l1, l2, j, l in antidiagonal_args * 3:
        if l1 + l2 <= 14:
            x, pred, _ = twoblock.antidiagonal(l1, l2, j, l, coef(), coef())
            certify_args.append((twoblock.tb_to_matrix(x), (l1, l2), pred))
    small_hosts = [tuple(lam) for lam in partitions.enumerate_partitions(10)]
    plan_hosts = [tuple(lam) for n in range(1, 13)
                  for lam in partitions.enumerate_partitions(n)]
    filter_pairs = [(lam, mu) for n in range(1, 11)
                    for lam in partitions.enumerate_partitions(n)
                    for mu in partitions.enumerate_partitions(n)]
    for lam in SAMPLE_HOSTS + small_hosts:
        commutant.sample_jordan(lam, 0)  # fills the generator cache

    def arg(p):
        return ",".join(map(str, p))

    cli_parts = [p for n in range(1, 9) for p in partitions.enumerate_partitions(n)]
    cli_pairs = [(lam, mu) for n in range(1, 7)
                 for lam in partitions.enumerate_partitions(n)
                 for mu in partitions.enumerate_partitions(n)][::6]
    cli_argvs = ([["dmap", arg(p)] for p in cli_parts[::2]]
                 + [["dinv", arg(p), "--json"] for p in cli_parts[1::2]]
                 + [["check", "pair", arg(lam), arg(mu)] for lam, mu in cli_pairs])

    def cli_main():
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            for argv in cli_argvs:
                if cli.main(argv) != 0:
                    sys.exit(f"bench: nilcomm {' '.join(argv)} failed")

    def plans():
        commutant._plan.cache_clear()
        t = timed(lambda: [commutant._plan(lam) for lam in plan_hosts])
        for lam in SAMPLE_HOSTS:
            commutant._plan(lam)
        return t

    def suite(k):
        res = verify.run_suite(k, 16, 0)
        if not res.passed:
            sys.exit(f"bench: suite {k} failed: {res.detail}")
        return res.seconds

    cli_module = ["-m", "nilcomm.cli"]
    out = {
        "cli.dmap_n20_s": lambda: fresh(
            pkg_root, cli_module + ["dmap", DMAP_ARG, "--json"])[0],
        "cli.dinv_n14_s": lambda: fresh(
            pkg_root, cli_module + ["dinv", DINV_ARG, "--json"])[0],
        "cli.import_s": lambda: float(fresh(pkg_root, ["-c", IMPORT_PROBE])[1]),
        "cli.main_s": lambda: timed(cli_main),
        "rng.ints_s": lambda: timed(lambda: [
            _rng.Stream(s).ints(-10, 10, k) for k in (1, 8, 30, 120) for s in range(20000)]),
        "commutant.plan_s": plans,
        "commutant.sample_jordan_s": lambda: timed(lambda: [
            commutant.sample_jordan(lam, s) for lam in SAMPLE_HOSTS for s in range(20)]),
        "commutant.sample_jordan_small_s": lambda: timed(lambda: [
            commutant.sample_jordan(lam, s) for lam in small_hosts for s in range(5)]),
        "commutant.sample_nilpotent_commuting_s": lambda: timed(lambda: [
            commutant.sample_nilpotent_commuting(lam, 0) for lam in small_hosts]),
        "commutant.generic_witness_s": lambda: timed(lambda: [
            commutant.generic_witness(lam) for lam in small_hosts]),
        "twoblock.element_s": lambda: timed(lambda: [
            twoblock.TwoBlockElement(*v) for v in draws]),
        "twoblock.tb_pow_order_s": lambda: timed(lambda: [
            twoblock.tb_pow_order(x) for x in elements]),
        "twoblock.tb_to_matrix_s": lambda: timed(lambda: [
            twoblock.tb_to_matrix(x) for x in elements]),
        "twoblock.tb_rank_s": lambda: timed(lambda: [
            twoblock.tb_rank(x) for x in elements]),
        "twoblock.dense_rank_s": lambda: timed(lambda: [
            exactla.rank(twoblock.tb_to_matrix(twoblock.TwoBlockElement(*v)))
            for v in draws]),
        "dinverse.dinv_30_s": lambda: timed(lambda: dinverse.dinv((21, 9))),
        "dinverse.dinv_40_s": lambda: timed(lambda: dinverse.dinv((25, 15))),
        "dinverse.dinv_60_s": lambda: timed(lambda: dinverse.dinv((35, 25))),
        "dinverse.dmap_s": lambda: timed(lambda: [
            dinverse.dmap(p) for p in dmap_parts]),
        "twoblock.antidiagonal_s": lambda: timed(lambda: [
            twoblock.antidiagonal(*args, 1, 1) for args in antidiagonal_args]),
        "twoblock.witnesses_s": lambda: timed(lambda: [
            (twoblock.construct_lemma_eq2(m), twoblock.maxrank_partners(m + 1, m - 1))
            for m in range(2, 13)]),
        "twoblock.squarezero_s": lambda: timed(lambda: (
            [twoblock.construct_squarezero_partner(*args) for args in squarezero_args],
            [twoblock.construct_lemma_odd(*args) for args in lemma_odd_args])),
        "twoblock.conjugate_s": lambda: timed(lambda: [
            twoblock.construct_conjugate_partner(lam) for lam in plan_hosts]),
        "exactla.matmul_s": lambda: timed(lambda: [
            m @ m for ms in powers.values() for m in ms]),
        "exactla.certify_s": lambda: timed(lambda: [
            exactla.certify(*args) for args in certify_args]),
        "constraints.filter_s": lambda: timed(lambda: [
            constraints.compatible_filter(lam, mu) for lam, mu in filter_pairs]),
    }
    for n in (20, 30, 40):
        out[f"dinverse.dmap_all_{n}_s"] = lambda n=n: timed(lambda: dinverse.dmap_all(n))
    for n, ms in matrices.items():
        out[f"exactla.rank_{n}_s"] = lambda ms=ms: timed(lambda: [
            exactla.rank(m) for m in ms])
    for n, ms in powers.items():
        out[f"exactla.rank_centralizer_{n}_s"] = lambda ms=ms: timed(lambda: [
            exactla.rank(m) for m in ms])
    for k in range(1, 13):
        out[f"verify.suite{k}_s"] = lambda k=k: suite(k)
    out["tier1_s"] = lambda: tier1(root)
    return out


def commit(root: str) -> str:
    """Short hash of root's HEAD, suffixed -dirty when tracked files differ."""
    res = subprocess.run(["git", "-C", root, "describe", "--always", "--dirty"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def src_lines_by_module(root: str) -> dict:
    """Lines of each of the library's modules, src/nilcomm/*.py, in root, by
    file name."""
    pkg = os.path.join(root, "src", "nilcomm")
    out = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                out[name] = sum(1 for _ in f)
    return out


def src_lines(root: str) -> int:
    """Lines of the library's modules, src/nilcomm/*.py, in root."""
    return sum(src_lines_by_module(root).values())


def worker(root: str) -> int:
    """Set up root's measurements, print their names as one JSON line, then
    answer each measurement name read from stdin with its seconds."""
    with tempfile.TemporaryDirectory() as pkg_root:
        shutil.copytree(os.path.join(root, "src", "nilcomm"),
                        os.path.join(pkg_root, "nilcomm"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        timers = measurements(root, pkg_root)
        print(json.dumps(list(timers)), flush=True)
        for line in sys.stdin:
            print(json.dumps(timers[line.strip()]()), flush=True)
    return 0


class Side:
    """One checkout, timed by a worker process running this script."""

    def __init__(self, label: str, root: str):
        self.label, self.root = label, root
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def reply(self):
        line = self.proc.stdout.readline()
        if not line:
            sys.exit(f"bench: the worker for {self.root} exited "
                     f"({self.proc.wait()})")
        return json.loads(line)

    def time(self, name: str) -> float:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def close(self) -> None:
        """End of input: the worker finishes what it is doing, removes its
        package copy and exits."""
        self.proc.stdin.close()
        self.proc.wait()


def write(side: Side, runs: dict, repeats: int, partner: Side | None,
          first: list) -> None:
    doc = {
        "label": side.label,
        "commit": commit(side.root),
        "src_lines": src_lines(side.root),
        "src_lines_by_module": src_lines_by_module(side.root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "repeats": repeats,
        "unit": "s",
        "medians": {k: statistics.median(v) for k, v in runs[side.label].items()},
        "runs": runs[side.label],
    }
    if partner is not None:
        mine, theirs = runs[side.label], runs[partner.label]
        doc["paired_with"] = {"label": partner.label, "commit": commit(partner.root)}
        doc["first"] = first
        doc["ratio_medians"] = {k: statistics.median(a / b for a, b in zip(v, theirs[k]))
                                for k, v in mine.items()}
    path = os.path.join(HERE, f"BENCH_{side.label}.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    print(f"wrote {path}")


def stop(signum, frame):
    """SIGTERM as SystemExit, so the with and finally blocks still run."""
    sys.exit(128 + signum)


def main() -> int:
    # in the parent and in each worker, which runs through main too
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label")
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--root", default=HERE, help="checkout to time")
    ap.add_argument("--against", help="second checkout, timed in the same repeats")
    ap.add_argument("--worker", help=argparse.SUPPRESS)  # a worker's checkout
    args = ap.parse_args()
    if args.worker:
        return worker(args.worker)
    if not args.label:
        ap.error("--label is required")
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    sides = [Side(args.label, os.path.abspath(args.root))]
    try:
        if args.against:
            sides.append(Side(f"{args.label}_base", os.path.abspath(args.against)))
        names = [side.reply() for side in sides]
        if any(n != names[0] for n in names):
            sys.exit("bench: the checkouts have different measurements")
        runs = {side.label: {name: [] for name in names[0]} for side in sides}
        first = []
        for r in range(args.repeats):
            order = sides if r % 2 == 0 else sides[::-1]
            first.append(order[0].label)
            for name in names[0]:
                for side in order:
                    runs[side.label][name].append(side.time(name))
    finally:
        for side in sides:
            side.close()
    partner = {sides[0].label: sides[-1], sides[-1].label: sides[0]}
    for side in sides:
        write(side, runs, args.repeats,
              partner[side.label] if len(sides) == 2 else None, first)
    for name, times in runs[sides[0].label].items():
        line = f"{name:32s} {statistics.median(times):.4f}"
        if len(sides) == 2:
            theirs = runs[sides[1].label][name]
            line += (f" {statistics.median(theirs):.4f}  ratio "
                     f"{statistics.median(a / b for a, b in zip(times, theirs)):.3f}")
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
