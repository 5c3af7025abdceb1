"""Command-line front end.

Every subcommand is deterministic given its flags: seeds are explicit,
sampling is seeded, and JSON output carries the seed it was produced with
so any reported shape can be re-derived.  The seed is null where none is
used: in dmap, dinv, explore and the fixed constructions (squarezero,
lemma-eq2, lemma-odd).  A command takes only the flags it reads, and a flag
it does not take is a usage error; only dmap and dinv accept and ignore
--seed, for perfbench, whose CLI workload passes one.

Every construct subcommand prints a witness the library has certified
(`exactla.certify`: it commutes with the host Jordan matrix and has the
printed type), typed once.

Exit codes: 0 success, 1 a verification failed (verify, explore), 2 bad
input, 3 an internal error (a failed consistency check, a witness that
fails its certificate, or any other exception: a bug), 141 (128 + SIGPIPE)
the reader closed standard output early, as in `nilcomm dinv 18,2 | head -1`.
A construct command exits 0, 3 or 141, never 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from nilcomm.dinverse import dmap, explore_q1, explore_q2, fiber_json
from nilcomm.partitions import Partition, parse, two_column

# every other layer (commutant, exactla, _rng, verify, twoblock, constraints)
# and fractions are imported inside the subcommands that use them, so a dmap
# or dinv process loads only dinverse and partitions; the dinverse names stay
# at module level, where a boundary tracer finds them among this module's
# globals


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _matrix_rows(m) -> list:
    from fractions import Fraction

    return [[str(Fraction(x)) for x in row] for row in m.row_data()]


def _cmd_dmap(args) -> int:
    lam = parse(args.partition)
    d = dmap(lam)
    if args.json:
        _emit_json({"lambda": list(lam), "d": list(d), "seed": None})
    else:
        print(f"D{lam} = {d}")
    return 0


def _cmd_dinv(args) -> int:
    mu = parse(args.partition)
    out = fiber_json(mu)
    if args.json:
        out["seed"] = None
        _emit_json(out)
    else:
        print(f"D^-1{mu}: {out['size']} partitions")
        for parts in out["fiber"]:
            print(f"  {Partition(parts)}")
    return 0


def _cmd_sample(args) -> int:
    from nilcomm._rng import derive
    from nilcomm.commutant import sample_nilpotent_commuting

    lam = parse(args.partition)
    records = []
    for i in range(args.count):
        s = sample_nilpotent_commuting(
            lam, derive(args.seed, 6, i), coeff_bound=args.coeff_bound)
        records.append(s)
    if args.json:
        out = []
        for s in records:
            d = s.to_json_dict()
            if args.dump_matrix:
                d["matrix"] = _matrix_rows(s.matrix)
            out.append(d)
        _emit_json({"lambda": list(lam), "seed": args.seed, "samples": out})
    else:
        for i, s in enumerate(records):
            print(f"sample {i}: jordan type {s.jordan}")
            if args.dump_matrix:
                print(s.matrix.dump())
    return 0


def _transcript(args, host: Partition, m, label: str, jt: Partition,
                extra: dict, seed: int | None = None) -> int:
    """Print the transcript of a witness already certified to commute with the
    host Jordan matrix and to have the Jordan type jt; return 0.

    extra holds the additional (name, value) items printed; seed is the JSON
    seed, None for a fixed construction."""
    if args.json:
        out = {
            "construction": label,
            "host": list(host),
            "jordan": list(jt),
            "commutes": True,
            **{k: list(v) if isinstance(v, Partition) else v
               for k, v in extra.items()},
            "seed": seed,
        }
        if args.dump_matrix:
            out["matrix"] = _matrix_rows(m)
        _emit_json(out)
    else:
        print(f"{label} for host {host}")
        print("commutes with host Jordan matrix: True")
        print(f"jordan type: {jt}")
        for k, v in extra.items():
            print(f"{k}: {v}")
        if args.dump_matrix:
            print(m.dump())
    return 0


def _square_zero_fields(jt: Partition) -> dict:
    # a nilpotent matrix has rank n - (number of Jordan blocks) and squares to
    # zero iff no block is longer than 2
    return {"rank": jt.n - jt.t, "square_zero": jt[0] <= 2}


def _cmd_construct_squarezero(args) -> int:
    from nilcomm.twoblock import construct_squarezero_partner

    mu = parse(args.partition)
    m = construct_squarezero_partner(mu, args.rank)
    jt = two_column(mu.n, args.rank)
    return _transcript(args, mu, m, "square-zero partner", jt, _square_zero_fields(jt))


def _cmd_construct_antidiagonal(args) -> int:
    from nilcomm._rng import Stream, derive
    from nilcomm.exactla import certify
    from nilcomm.twoblock import antidiagonal, tb_to_matrix

    rng = Stream(derive(args.seed, 6, args.l1, args.l2, args.j, args.l))
    bc = rng.nonzero(args.coeff_bound)
    cc = rng.nonzero(args.coeff_bound)
    x, pred, case = antidiagonal(args.l1, args.l2, args.j, args.l, bc, cc)
    host, m = Partition((args.l1, args.l2)), tb_to_matrix(x)
    extra = {"element": x.render(), "case": case, "predicted": pred}
    return _transcript(args, host, m, "antidiagonal element", certify(m, host, pred),
                       extra, args.seed)


def _cmd_construct_lemma_eq2(args) -> int:
    from nilcomm.twoblock import construct_lemma_eq2

    m = construct_lemma_eq2(args.lam)
    return _transcript(args, Partition((args.lam, args.lam)), m, "off-by-one partner",
                       Partition((args.lam + 1, args.lam - 1)), {})


def _cmd_construct_lemma_odd(args) -> int:
    from nilcomm.twoblock import construct_lemma_odd

    m = construct_lemma_odd(args.l1, args.l2, args.a)
    jt = two_column(args.l1 + args.l2, args.a)
    return _transcript(args, Partition((args.l1, args.l2)), m,
                       "two-block square-zero element", jt, _square_zero_fields(jt))


def _cmd_check(args) -> int:
    from nilcomm.constraints import compatible_filter

    lam, mu = parse(args.lam), parse(args.mu)
    v = compatible_filter(lam, mu)
    if args.json:
        _emit_json(v.to_json_dict())
    else:
        print(f"{lam} vs {mu}: {v.verdict}")
        for r in v.reasons:
            print(f"  {r.rule}: {r.detail}")
    return 0


def _cmd_verify(args) -> int:
    from nilcomm import verify

    if args.suite == "all":
        progress = None if args.json else lambda r: print(r.line(), flush=True)
        results = verify.run_all(args.max_n, args.seed, progress)
    else:
        results = [verify.run_suite(int(args.suite), args.max_n, args.seed)]
        if not args.json:
            print(results[0].line())
    if args.json:
        _emit_json({"seed": args.seed, "max_n": args.max_n,
                    "results": [r.to_json_dict() for r in results]})
    return 0 if all(r.passed for r in results) else 1


def _cmd_explore_q1(args) -> int:
    rep = explore_q1(args.mu, args.r)
    if args.json:
        out = rep.to_json_dict()
        out["seed"] = None
        _emit_json(out)
    else:
        target = Partition((rep.mu, rep.mu - rep.r))
        print(f"fiber of {target} (n={rep.n}): size {rep.size}, "
              f"conjectured {rep.conjectured}, matches {rep.matches}")
        for lam in rep.fiber:
            print(f"  {lam}")
    return 0 if rep.matches else 1


def _cmd_explore_q2(args) -> int:
    mu = parse(args.partition)
    rep = explore_q2(mu)
    if args.json:
        out = rep.to_json_dict()
        out["seed"] = None
        _emit_json(out)
    else:
        print(f"rank-minimal elements of the fiber of {rep.mu}:")
        for lam in rep.minimal:
            print(f"  {lam}")
        print(f"conjectured {rep.conjectured}: in fiber {rep.in_fiber}, "
              f"unique minimum {rep.holds}")
    return 0 if rep.holds else 1


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


def build_parser() -> argparse.ArgumentParser:
    # each command takes only the flags it reads: one parent parser per flag
    out, seed, dump, bound = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    out.add_argument("--json", action="store_true")
    seed.add_argument("--seed", type=int, default=0)
    dump.add_argument("--dump-matrix", action="store_true")
    bound.add_argument("--coeff-bound", type=int, default=10)

    parser = argparse.ArgumentParser(
        prog="nilcomm",
        description="Jordan types of commuting nilpotent matrices, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dmap", parents=[out, seed],
                       help="generic commuting Jordan type of a partition")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_dmap)

    p = sub.add_parser("dinv", parents=[out, seed],
                       help="inverse image of a partition under the map")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_dinv)

    p = sub.add_parser("sample", parents=[out, seed, dump, bound],
                       help="random nilpotent elements commuting with a Jordan matrix")
    p.add_argument("partition")
    p.add_argument("--count", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_sample)

    pc = sub.add_parser("construct", help="verified witness constructions")
    subc = pc.add_subparsers(dest="construction", required=True)

    p = subc.add_parser("squarezero", parents=[out, dump],
                        help="square-zero partner of prescribed rank")
    p.add_argument("partition")
    p.add_argument("--rank", type=int, required=True)
    p.set_defaults(func=_cmd_construct_squarezero)

    p = subc.add_parser("antidiagonal", parents=[out, seed, dump, bound],
                        help="two-block antidiagonal element with predicted type")
    p.add_argument("l1", type=int)
    p.add_argument("l2", type=int)
    p.add_argument("j", type=int)
    p.add_argument("l", type=int)
    p.set_defaults(func=_cmd_construct_antidiagonal)

    p = subc.add_parser("lemma-eq2", parents=[out, dump],
                        help="partner of type (m+1, m-1) for equal blocks (m, m)")
    p.add_argument("lam", type=int)
    p.set_defaults(func=_cmd_construct_lemma_eq2)

    p = subc.add_parser("lemma-odd", parents=[out, dump],
                        help="two-block square-zero element of prescribed rank")
    p.add_argument("l1", type=int)
    p.add_argument("l2", type=int)
    p.add_argument("a", type=int)
    p.set_defaults(func=_cmd_construct_lemma_odd)

    pk = sub.add_parser("check", help="necessary-condition filters")
    subk = pk.add_subparsers(dest="what", required=True)
    p = subk.add_parser("pair", parents=[out],
                        help="can two types commute? forbidden or unknown")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("verify", parents=[out, seed],
                       help="run the acceptance suites")
    p.add_argument("--suite", default="all", type=_suite)
    p.add_argument("--max-n", type=int, default=16)
    p.set_defaults(func=_cmd_verify)

    pe = sub.add_parser("explore", help="evidence for the open questions")
    sube = pe.add_subparsers(dest="question", required=True)
    p = sube.add_parser("q1", parents=[out],
                        help="two-part fiber counts beyond gap 5")
    p.add_argument("--mu", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_explore_q1)
    p = sube.add_parser("q2", parents=[out],
                        help="rank-minimal fiber elements of a stable partition")
    p.add_argument("partition")
    p.set_defaults(func=_cmd_explore_q2)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
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
