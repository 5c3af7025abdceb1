"""Command-line front end.

Each command returns its answer and prints nothing: a JSON document built
from the plain values the library returns (a Partition, like any tuple, is
an array), its text lines, lazy where they grow with the answer, and for
verify and explore whether the verification held.  `main` alone writes one
of them and sets the exit code, and no other module imports json; only
`verify` of all suites prints in text mode, each suite's line as it ends.

Every subcommand is deterministic given its flags: seeds are explicit,
sampling is seeded, and JSON output carries the seed it was produced with
so any reported shape can be re-derived.  The seed is null where none is
used: in dmap, dinv, explore and the fixed constructions (squarezero,
lemma-eq2, lemma-odd).  A command takes only the flags it reads, declared
in its row of COMMANDS, and a flag it does not take is a usage error; only
dmap and dinv accept and ignore --seed, for perfbench, whose CLI workload
passes one.

Every construct subcommand answers with an `exactla.Witness`, which
`exactla.certify` checked to commute with its host's Jordan matrix and typed
once; the host and type written are the witness's own, never rebuilt here.

Exit codes: 0 success, 1 a verification failed (verify, explore), 2 bad
input, 3 an internal error (a failed consistency check, a witness that
fails its certificate, or any other exception: a bug), 141 (128 + SIGPIPE)
the reader closed standard output early, as in `nilcomm dinv 18,2 | head -1`.
A construct command exits 0, 3 or 141, never 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import chain

from nilcomm.dinverse import dinv, dmap, explore_q1, explore_q2
from nilcomm.partitions import Partition, parse

# every other layer (commutant, exactla, _rng, verify, twoblock, constraints)
# and fractions are imported inside the subcommands that use them, so a dmap
# or dinv process loads only dinverse and partitions; the dinverse names stay
# at module level, where a boundary tracer finds them among this module's
# globals


def _matrix_rows(m) -> list:
    from fractions import Fraction

    return [[str(Fraction(x)) for x in row] for row in m.row_data()]


def _cmd_dmap(args) -> tuple:
    lam = parse(args.partition)
    d = dmap(lam)
    return {"lambda": lam, "d": d, "seed": None}, [f"D{lam} = {d}"]


def _cmd_dinv(args) -> tuple:
    mu = parse(args.partition)
    fiber = sorted(dinv(mu), reverse=True)
    lines = chain([f"D^-1{mu}: {len(fiber)} partitions"], (f"  {lam}" for lam in fiber))
    return {"mu": mu, "fiber": fiber, "size": len(fiber), "seed": None}, lines


def _cmd_sample(args) -> tuple:
    from nilcomm._rng import derive
    from nilcomm.commutant import sample_nilpotent_commuting

    lam = parse(args.partition)
    seeds = [derive(args.seed, 6, i) for i in range(args.count)]
    samples, lines = [], []
    for i, s in enumerate(seeds):
        w = sample_nilpotent_commuting(lam, s, coeff_bound=args.coeff_bound)
        samples.append({"lambda": w.host, "jordan": w.jordan, "seed": s,
                        "coeff_bound": args.coeff_bound})
        lines.append(f"sample {i}: jordan type {w.jordan}")
        if args.dump_matrix:
            samples[-1]["matrix"] = _matrix_rows(w)
            lines.append(w.dump())
    return {"lambda": lam, "seed": args.seed, "samples": samples}, lines


def _transcript(args, w, label: str, extra: dict, seed: int | None = None) -> tuple:
    """The document and lines of the witness w, certified for w.host and
    w.jordan, with the additional (name, value) items of extra; seed is the
    JSON seed, None for a fixed construction."""
    doc = {
        "construction": label,
        "host": w.host,
        "jordan": w.jordan,
        "commutes": True,
        **extra,
        "seed": seed,
    }
    lines = [f"{label} for host {w.host}",
             "commutes with host Jordan matrix: True",
             f"jordan type: {w.jordan}",
             *(f"{k}: {v}" for k, v in extra.items())]
    if args.dump_matrix:
        doc["matrix"] = _matrix_rows(w)
        lines.append(w.dump())
    return doc, lines


def _square_zero_fields(jt: Partition) -> dict:
    # a nilpotent matrix has rank n - (number of Jordan blocks) and squares to
    # zero iff no block is longer than 2
    return {"rank": jt.n - jt.t, "square_zero": jt[0] <= 2}


def _cmd_construct_squarezero(args) -> tuple:
    from nilcomm.twoblock import construct_squarezero_partner

    w = construct_squarezero_partner(parse(args.partition), args.rank)
    return _transcript(args, w, "square-zero partner", _square_zero_fields(w.jordan))


def _cmd_construct_antidiagonal(args) -> tuple:
    from nilcomm._rng import Stream, derive
    from nilcomm.exactla import certify
    from nilcomm.twoblock import antidiagonal, tb_to_matrix

    rng = Stream(derive(args.seed, 6, args.l1, args.l2, args.j, args.l))
    bc = rng.nonzero(args.coeff_bound)
    cc = rng.nonzero(args.coeff_bound)
    x, pred, case = antidiagonal(args.l1, args.l2, args.j, args.l, bc, cc)
    w = certify(tb_to_matrix(x), (args.l1, args.l2), pred)
    extra = {"element": x.render(), "case": case, "predicted": pred}
    return _transcript(args, w, "antidiagonal element", extra, args.seed)


def _cmd_construct_lemma_eq2(args) -> tuple:
    from nilcomm.twoblock import construct_lemma_eq2

    return _transcript(args, construct_lemma_eq2(args.lam), "off-by-one partner", {})


def _cmd_construct_lemma_odd(args) -> tuple:
    from nilcomm.twoblock import construct_lemma_odd

    w = construct_lemma_odd(args.l1, args.l2, args.a)
    return _transcript(args, w, "two-block square-zero element",
                       _square_zero_fields(w.jordan))


def _cmd_check(args) -> tuple:
    from nilcomm.constraints import compatible_filter

    lam, mu = parse(args.lam), parse(args.mu)
    v = compatible_filter(lam, mu)
    doc = {"lambda": v.lam, "mu": v.mu, "verdict": v.verdict,
           "reasons": [r._asdict() for r in v.reasons]}
    return doc, [f"{lam} vs {mu}: {v.verdict}",
                 *(f"  {r.rule}: {r.detail}" for r in v.reasons)]


def _cmd_verify(args) -> tuple:
    from nilcomm import verify

    if args.suite == "all":
        progress = None if args.json else lambda r: print(r.line(), flush=True)
        results = verify.run_all(args.max_n, args.seed, progress)
        lines = []
    else:
        results = [verify.run_suite(int(args.suite), args.max_n, args.seed)]
        lines = [results[0].line()]
    doc = {"seed": args.seed, "max_n": args.max_n,
           "results": [{k: v for k, v in vars(r).items() if k != "pairs"}
                       for r in results]}
    return doc, lines, all(r.passed for r in results)


def _cmd_explore_q1(args) -> tuple:
    rep = explore_q1(args.mu, args.r)
    target = Partition((rep.mu, rep.mu - rep.r))
    doc = {"target": target, "n": rep.n, "size": rep.size,
           "conjectured": rep.conjectured, "matches": rep.matches,
           "fiber": rep.fiber, "seed": None}
    lines = chain([f"fiber of {target} (n={rep.n}): size {rep.size}, "
                   f"conjectured {rep.conjectured}, matches {rep.matches}"],
                  (f"  {lam}" for lam in rep.fiber))
    return doc, lines, rep.matches


def _cmd_explore_q2(args) -> tuple:
    mu = parse(args.partition)
    rep = explore_q2(mu)
    lines = chain([f"rank-minimal elements of the fiber of {rep.mu}:"],
                  (f"  {lam}" for lam in rep.minimal),
                  [f"conjectured {rep.conjectured}: in fiber {rep.in_fiber}, "
                   f"unique minimum {rep.holds}"])
    return {**rep._asdict(), "seed": None}, lines, rep.holds


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _suite(text: str) -> str:
    """'all' or a criterion number in verify.SUITES."""
    from nilcomm import verify

    valid = ["all"] + [str(k) for k in verify.SUITES]
    if text not in valid:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {', '.join(map(repr, valid))})")
    return text


# the flags that more than one command takes, with their argparse keywords
FLAGS = {
    "--json": {"action": "store_true"},
    "--seed": {"type": int, "default": 0},
    "--dump-matrix": {"action": "store_true"},
    "--coeff-bound": {"type": int, "default": 10},
}
INT, REQUIRED_INT = {"type": int}, {"type": int, "required": True}

# one row per leaf command, in --help order: (group, name, help, handler, the
# FLAGS it takes, its own arguments); a command takes no other flag
COMMANDS = (
    (None, "dmap", "generic commuting Jordan type of a partition", _cmd_dmap,
     ("--json", "--seed"), {"partition": {}}),
    (None, "dinv", "inverse image of a partition under the map", _cmd_dinv,
     ("--json", "--seed"), {"partition": {}}),
    (None, "sample", "random nilpotent elements commuting with a Jordan matrix",
     _cmd_sample, ("--json", "--seed", "--dump-matrix", "--coeff-bound"),
     {"partition": {}, "--count": {"type": _positive_int, "default": 1}}),
    ("construct", "squarezero", "square-zero partner of prescribed rank",
     _cmd_construct_squarezero, ("--json", "--dump-matrix"),
     {"partition": {}, "--rank": REQUIRED_INT}),
    ("construct", "antidiagonal", "two-block antidiagonal element with predicted type",
     _cmd_construct_antidiagonal, ("--json", "--seed", "--dump-matrix", "--coeff-bound"),
     {"l1": INT, "l2": INT, "j": INT, "l": INT}),
    ("construct", "lemma-eq2", "partner of type (m+1, m-1) for equal blocks (m, m)",
     _cmd_construct_lemma_eq2, ("--json", "--dump-matrix"), {"lam": INT}),
    ("construct", "lemma-odd", "two-block square-zero element of prescribed rank",
     _cmd_construct_lemma_odd, ("--json", "--dump-matrix"),
     {"l1": INT, "l2": INT, "a": INT}),
    ("check", "pair", "can two types commute? forbidden or unknown", _cmd_check,
     ("--json",), {"lam": {}, "mu": {}}),
    (None, "verify", "run the acceptance suites", _cmd_verify, ("--json", "--seed"),
     {"--suite": {"default": "all", "type": _suite}, "--max-n": {"type": int, "default": 16}}),
    ("explore", "q1", "two-part fiber counts beyond gap 5", _cmd_explore_q1, ("--json",),
     {"--mu": REQUIRED_INT, "--r": REQUIRED_INT}),
    ("explore", "q2", "rank-minimal fiber elements of a stable partition",
     _cmd_explore_q2, ("--json",), {"partition": {}}),
)

# each command group's dest (the attribute naming its command) and help
GROUPS = {
    "construct": ("construction", "verified witness constructions"),
    "check": ("what", "necessary-condition filters"),
    "explore": ("question", "evidence for the open questions"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of COMMANDS, built once per process; parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="nilcomm", description="Jordan types of commuting nilpotent matrices, exactly.")
    top = parser.add_subparsers(dest="command", required=True)
    subparsers = {None: top}
    for group, name, help_text, func, flags, arguments in COMMANDS:
        if group not in subparsers:
            dest, group_help = GROUPS[group]
            subparsers[group] = top.add_parser(group, help=group_help).add_subparsers(
                dest=dest, required=True)
        p = subparsers[group].add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
        for argument, keywords in arguments.items():
            p.add_argument(argument, **keywords)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc, lines, *held = args.func(args)
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
        return 0 if all(held) else 1
    except BrokenPipeError:
        # what is left to print, and Python's own flush at exit, go to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a failed internal check (RuntimeError) or any other exception: a
        # bug, not bad input or a failed verification
        what = exc if isinstance(exc, RuntimeError) else f"{type(exc).__name__}: {exc}"
        print(f"internal error: {what}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
