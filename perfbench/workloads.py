"""The three benchmark workloads.

Each workload makes its inputs from the benchmark seed with the standard
library's `random` (never `nilcomm._rng`, so a library change cannot change
the inputs), in passes: pass p of seed s is always the same list of
operations.  `run` is the timed operation; `check`, run off the clock,
compares its result with the reference in `oracle`, updates the
workload's counters and returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
import os
import random
import selectors
import subprocess
import sys
from fractions import Fraction
from types import FunctionType, SimpleNamespace

import oracle
from tracer import TRACE_MARK

COEFF_BOUND = 10
CHILD_TIMEOUT_S = 60.0
CLI_TRIALS = 64  # the CLI's default Monte-Carlo budget; queries leave it unset


def _rng(seed: int, *path) -> random.Random:
    # string seeds are hashed with SHA-512, so streams are stable across runs
    return random.Random(":".join(str(x) for x in (seed,) + path))


class InProcess:
    """A workload that calls the library in this process through `self.lib`."""

    in_process = True
    tracer = None

    def use_tracer(self, tracer) -> None:
        """Call the library's entry points through span wrappers, or
        directly when tracer is None.  Entries that are classes stay as they
        are: run.py has tracer.install wrap their constructors."""
        self.tracer = tracer
        self.lib = SimpleNamespace(**{
            k: tracer.wrap(v) if tracer and isinstance(v, FunctionType) else v
            for k, v in self.entries.items()})

    def run(self, inp, op_id: int):
        if self.tracer is not None:
            self.tracer.op = op_id
        return self.operation(inp)


def commutes_with_jordan(rows, lam: tuple) -> bool:
    """rows @ J == J @ rows for the nilpotent Jordan matrix J of lam."""
    n = len(rows)
    starts, ends, off = set(), set(), 0
    for p in lam:
        starts.add(off)
        ends.add(off + p - 1)
        off += p
    for r in range(n):
        for c in range(n):
            mj = 0 if c in starts else rows[r][c - 1]
            jm = 0 if r in ends else rows[r + 1][c]
            if mj != jm:
                return False
    return True


def spawn(argv: list, env: dict, cwd: str, timeout: float = CHILD_TIMEOUT_S):
    """Run a child to completion: (exit code, stdout, stderr, max RSS in KiB).

    The child is reaped with wait4 so its own peak RSS is known; a child
    that outlives the timeout is killed and reported with exit code -9.
    """
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                events = sel.select(timeout)
                if not events:
                    proc.kill()
                    break
                for key, _ in events:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    finally:
        for f in chunks:
            f.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, b"".join(chunks[proc.stdout]),
            b"".join(chunks[proc.stderr]), usage.ru_maxrss)


class CliQueries:
    """Fresh `nilcomm dinv/dmap --json` processes: one per operation.

    A pass holds one `dinv` per n in dinv_sizes (a stable mu, so the fiber
    is not empty) and dmap_per_n `dmap` queries per n in dmap_sizes, drawn
    from the partitions of n with cover >= 3, stratified.  The two strata
    are the ambiguous partitions (`oracle.Reference.ambiguous`: the
    library's sampler cannot stop early on them and spends its whole trial
    budget) and the rest.  Ambiguous queries make up amb_share[n], their
    exact share among the partitions of n with cover >= 3, to within one
    query per n in every run; within a stratum the draw is uniform.
    """

    name = "cli_queries"
    in_process = False
    dinv_sizes = range(10, 15)
    dmap_sizes = range(16, 21)
    # two dmap per dinv: the slowest dinv (n = 14) is then 1/15 of the
    # operations and p90 falls in the 0.3-0.4 s band of full-budget dmap
    # queries (and dinv at n = 13), the tail op_p90_ms is meant to follow;
    # one per dinv puts it at exactly 1/10, on the step between two costs
    dmap_per_n = 2

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.tracer = None
        self.ref = oracle.Reference(list(self.dinv_sizes) + list(self.dmap_sizes))
        self.strata, self.amb_share, self.phase = {}, {}, {}
        phases = _rng(seed, self.name, "phase")
        for n in self.dmap_sizes:
            wide = [p for p in self.ref.parts[n] if oracle.cover(p) >= 3]
            amb = [p for p in wide if self.ref.ambiguous(p)]
            self.strata[n] = (amb, [p for p in wide if not self.ref.ambiguous(p)])
            self.amb_share[n] = Fraction(len(amb), len(wide))
            self.phase[n] = Fraction(phases.getrandbits(32), 1 << 32)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.max_rss_kb = 0
        self.import_s: list[float] = []
        self.counters = dict.fromkeys(
            ("mc_trials", "mc_uncertified", "fiber_members", "fiber_mc"), 0)

    def use_tracer(self, tracer) -> None:
        """Run each child under the tracer (child.py) and merge its spans;
        None runs plain children again."""
        self.tracer = tracer

    def ambiguous_in_pass(self, n: int, p: int) -> int:
        """How many of pass p's dmap queries at size n are ambiguous.  Over
        passes 0..p-1 they add up to floor(dmap_per_n * p * amb_share[n]
        + phase[n]), within one of the exact share."""
        k, share, phase = self.dmap_per_n, self.amb_share[n], self.phase[n]
        return math.floor(k * (p + 1) * share + phase) - math.floor(k * p * share + phase)

    def pass_inputs(self, p: int) -> list:
        rng = _rng(self.seed, self.name, p)
        ops = [("dinv", rng.choice(self.ref.stable[n])) for n in self.dinv_sizes]
        for n in self.dmap_sizes:
            amb, pinned = self.strata[n]
            a = self.ambiguous_in_pass(n, p)
            ops += [("dmap", rng.choice(amb if k < a else pinned))
                    for k in range(self.dmap_per_n)]
        rng.shuffle(ops)
        return [(cmd, parts, rng.getrandbits(31)) for cmd, parts in ops]

    def _argv(self, inp, op_id: int) -> list:
        cmd, parts, seed = inp
        args = [cmd, ",".join(map(str, parts)), "--seed", str(seed), "--json"]
        if self.tracer is None:
            return [sys.executable, "-m", "nilcomm.cli"] + args
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        return [sys.executable, child, str(op_id)] + args

    def warm_up(self) -> None:
        # first import writes the bytecode cache; later processes reuse it
        self.run(("dmap", (3, 1, 1), 0), -1)

    def run(self, inp, op_id: int):
        code, out, err, rss = spawn(self._argv(inp, op_id), self.env, self.root)
        if op_id >= 0:
            self.max_rss_kb = max(self.max_rss_kb, rss)
        if self.tracer is not None:
            lines = err.splitlines()
            if lines and lines[-1].startswith(TRACE_MARK):
                payload = json.loads(lines.pop()[len(TRACE_MARK):])
                self.tracer.merge(payload)
                self.import_s.append(payload["import_s"])
                err = b"\n".join(lines)
        return code, out, err

    def check(self, inp, result) -> list:
        cmd, parts, _ = inp
        code, out, err = result
        if code != 0:
            tail = err.decode(errors="replace").strip().splitlines()[-1:]
            return [f"exit code {code}: {' '.join(tail)}"]
        try:
            got = json.loads(out)
        except ValueError as exc:
            return [f"unparsable JSON output: {exc}"]
        if cmd == "dmap":
            want = oracle.dmap(parts)
            self.counters["mc_trials"] += got.get("trials_used", 0)
            self.counters["mc_uncertified"] += got.get("trials_used", 0) >= CLI_TRIALS
            if tuple(got.get("d", ())) != want:
                return [f"D{parts} = {got.get('d')}, reference {want}"]
            return []
        want = self.ref.fiber(parts)
        fiber = {tuple(p) for p in got.get("fiber", [])}
        methods = got.get("methods", {})
        self.counters["fiber_members"] += len(fiber)
        self.counters["fiber_mc"] += methods.get("monte-carlo", 0)
        if fiber != want or got.get("size") != len(want):
            return [f"fiber of {parts}: {len(fiber)} members "
                    f"(size {got.get('size')}), reference {len(want)}"]
        return []

    def layer_metrics(self) -> dict:
        c = self.counters
        return {
            "commutant.mc_trials": c["mc_trials"],
            "commutant.mc_uncertified": c["mc_uncertified"],
            "dinverse.mc_share": c["fiber_mc"] / c["fiber_members"]
            if c["fiber_members"] else 0.0,
        }


class SampleBank(InProcess):
    """Suite-11 shape: ~20 sampled Jordan types per host, then the pair filter
    on every distinct (host, type) pair."""

    name = "sample_bank"
    draws = 20
    wide_hosts = 12  # per size and pass, for n = 16 and n = 20
    wide_sets = 4  # passes cycle through this many seeded sets of them

    def __init__(self, seed: int):
        from nilcomm import commutant, constraints

        self.seed = seed
        self.ref = oracle.Reference(list(range(1, 13)) + [16, 20])
        self.small_hosts = [lam for n in range(1, 13) for lam in self.ref.parts[n]]
        # each set is spaced evenly along the first part of D, which sets how
        # many powers a draw computes, so every set has the same mix of costs;
        # cycling through several sets evens out what one set happens to hold
        pick = _rng(seed, self.name, "hosts")
        self.wide = [[] for _ in range(self.wide_sets)]
        for n in (16, 20):
            pool = sorted(self.ref.parts[n], key=lambda lam: (oracle.dmap(lam)[0], lam))
            step = len(pool) / self.wide_hosts
            for hosts in self.wide:
                offset = pick.random() * step
                hosts += [pool[int(offset + k * step)] for k in range(self.wide_hosts)]
        self.entries = {"sample_jordan": commutant.sample_jordan,
                        "compatible_filter": constraints.compatible_filter}
        self.lib = SimpleNamespace(**self.entries)
        self.counters = {"samples": 0, "generic": 0}

    def pass_inputs(self, p: int) -> list:
        rng = _rng(self.seed, self.name, p)
        hosts = self.small_hosts + self.wide[p % self.wide_sets]
        rng.shuffle(hosts)
        return [(lam, tuple(rng.getrandbits(63) for _ in range(self.draws)))
                for lam in hosts]

    def warm_up(self) -> None:
        # fills the per-host generator cache the timed draws read
        for lam in self.small_hosts + [lam for hosts in self.wide for lam in hosts]:
            self.lib.sample_jordan(lam, 0)

    def operation(self, inp):
        lam, seeds = inp
        types = [self.lib.sample_jordan(lam, s) for s in seeds]
        verdicts = {q: self.lib.compatible_filter(lam, q).verdict
                    for q in set(types)}
        return types, verdicts

    def check(self, inp, result) -> list:
        lam, seeds = inp
        types, verdicts = result
        n, want = sum(lam), oracle.dmap(lam)
        bad = []
        for s, q in zip(seeds, types):
            q = tuple(q)
            self.counters["samples"] += 1
            self.counters["generic"] += q == want
            if not oracle.is_partition_of(q, n):
                bad.append(f"host {lam} seed {s}: type {q} is not a partition of {n}")
            elif not oracle.dominated(q, want):
                bad.append(f"host {lam} seed {s}: type {q} not dominated by D = {want}")
            elif verdicts.get(q, "unfiltered") in ("unfiltered", "forbidden"):
                bad.append(f"host {lam} seed {s}: pair filter says "
                           f"{verdicts.get(q, 'nothing')} for {q}")
        return bad

    def layer_metrics(self) -> dict:
        c = self.counters
        return {"commutant.generic_share":
                c["generic"] / c["samples"] if c["samples"] else 0.0}


class TwoBlockDraws(InProcess):
    """Suite-5 shape: coefficient draws on a two-block host through the
    ExactMatrix object path, plus one verified construction per host."""

    name = "twoblock_draws"
    draws = 24
    max_n = 16
    kinds = ("squarezero", "lemma_eq2", "antidiagonal")

    def __init__(self, seed: int):
        from nilcomm import exactla, twoblock

        self.seed = seed
        self.hosts = [(l1, n - l1) for n in range(2, self.max_n + 1)
                      for l1 in range((n + 1) // 2, n)]
        self.ref = oracle.Reference(range(2, self.max_n + 1))
        self.entries = {
            "TwoBlockElement": twoblock.TwoBlockElement,
            "tb_to_matrix": twoblock.tb_to_matrix,
            "tb_pow_order": twoblock.tb_pow_order,
            "rank": exactla.rank,
            "jordan_type": exactla.jordan_type,
            "construct_squarezero_partner": twoblock.construct_squarezero_partner,
            "construct_lemma_eq2": twoblock.construct_lemma_eq2,
            "antidiagonal": twoblock.antidiagonal,
        }
        self.lib = SimpleNamespace(**self.entries)
        self.counters = {"draws": 0, "accepted": 0}

    def _coefficients(self, rng, l1: int, l2: int) -> tuple:
        def vec(k):
            return [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(k)]

        a, b, c, d = [0] + vec(l1 - 1), vec(l2), vec(l2), [0] + vec(l2 - 1)
        if l1 == l2:
            # b0 * c0 = 0 keeps the element nilpotent on equal blocks
            (b if rng.getrandbits(1) else c)[0] = 0
        return tuple(a), tuple(b), tuple(c), tuple(d)

    def _construction(self, rng, kind: str, l1: int, l2: int) -> tuple:
        if kind == "lemma_eq2" and l1 == l2 >= 2:
            return kind, rng.getrandbits(31)
        if kind == "antidiagonal" and (l1 > l2 or l2 >= 2):
            pairs = [(j, l) for j in range(l2) for l in range(j, l2)
                     if l1 > l2 or j + l > 0]
            j, l = rng.choice(pairs)
            bc = Fraction(rng.choice([-1, 1]) * rng.randint(1, COEFF_BOUND),
                          rng.randint(1, 4))
            cc = Fraction(rng.choice([-1, 1]) * rng.randint(1, COEFF_BOUND),
                          rng.randint(1, 4))
            return kind, j, l, bc, cc
        return "squarezero", rng.randint(0, (l1 + l2) // 2)

    def pass_inputs(self, p: int) -> list:
        rng = _rng(self.seed, self.name, p)
        # any len(kinds) passes in a row give every host each construction once
        hosts = [(h, self.kinds[(p + k) % len(self.kinds)]) for k, h in enumerate(self.hosts)]
        rng.shuffle(hosts)
        ops = []
        for (l1, l2), kind in hosts:
            draws = tuple(self._coefficients(rng, l1, l2) for _ in range(self.draws))
            ops.append(((l1, l2), draws, self._construction(rng, kind, l1, l2)))
        return ops

    def warm_up(self) -> None:
        for inp in self.pass_inputs(-1)[:len(self.kinds)]:
            self.operation(inp)

    def operation(self, inp):
        (l1, l2), draws, cons = inp
        lib, n = self.lib, l1 + l2
        outcomes = []
        for a, b, c, d in draws:
            x = lib.TwoBlockElement(l1, l2, a, b, c, d)
            r = lib.rank(lib.tb_to_matrix(x))
            outcomes.append((r, lib.tb_pow_order(x) if r == n - 2 else None))
        kind, *args = cons
        pred = None
        if kind == "squarezero":
            m = lib.construct_squarezero_partner((l1, l2), args[0])
        elif kind == "lemma_eq2":
            m = lib.construct_lemma_eq2(l1, args[0])
        else:
            x, pred, _ = lib.antidiagonal(l1, l2, *args)
            m = lib.tb_to_matrix(x)
        return outcomes, m.row_data(), tuple(lib.jordan_type(m)), pred

    def check(self, inp, result) -> list:
        (l1, l2), _, cons = inp
        outcomes, rows, jt, pred = result
        host, n = (l1, l2), l1 + l2
        top = oracle.dmap(host)
        allowed = {host}
        if n % 2 == 0 and host in ((n // 2, n // 2), (n // 2 + 1, n // 2 - 1)):
            allowed = {(n // 2, n // 2), (n // 2 + 1, n // 2 - 1)}
        bad = []
        for k, (r, order) in enumerate(outcomes):
            self.counters["draws"] += 1
            if not 0 <= r < n:
                bad.append(f"host {host} draw {k}: rank {r} of a nilpotent element")
            elif r == n - 2:
                self.counters["accepted"] += 1
                q = (order, n - order)
                if not (oracle.is_partition_of(q, n) and q in allowed
                        and oracle.dominated(q, top)):
                    bad.append(f"host {host} draw {k}: two-part type {q}")
        kind, *args = cons
        if kind == "squarezero":
            want = (2,) * args[0] + (1,) * (n - 2 * args[0])
        elif kind == "lemma_eq2":
            want = (l1 + 1, l1 - 1)
        else:
            want = tuple(pred)
        if not commutes_with_jordan(rows, host):
            bad.append(f"host {host} {cons}: construction does not commute")
        elif jt != want or not oracle.dominated(jt, top):
            bad.append(f"host {host} {cons}: type {jt}, expected {want} <= {top}")
        return bad

    def layer_metrics(self) -> dict:
        c = self.counters
        return {"twoblock.accept_ratio":
                c["accepted"] / c["draws"] if c["draws"] else 0.0}
