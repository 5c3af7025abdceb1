"""nilcomm benchmark: one closed-loop client, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the library is imported from
its `src/` directory and nowhere else.  Workloads (see `workloads.py`):

  cli_queries     fresh `nilcomm dinv`/`nilcomm dmap --json` processes
  sample_bank     sampled Jordan types + pair filter (acceptance suite 11)
  twoblock_draws  two-block coefficient draws + constructions (suite 5)

One client issues the next operation only when the previous one has
finished.  Operations run in whole passes until --seconds have elapsed and
at least MIN_OPS operations are done.  Each answer is checked against the
reference in `oracle.py` as it arrives, off the clock; a failed check, an
exception or a non-zero CLI exit counts as a failed operation and the run
goes on.  The last line of standard output is the result object.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each pass twice
in a row, untraced and then under the boundary tracer (`tracer.py`),
prints the per-layer metrics and writes the spans to perfbench/out/.
Seed 7919 is held out: use it to confirm a claim, not while tuning a
change.  perfbench/README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli_queries", "sample_bank", "twoblock_draws")
MIN_OPS = 100  # p90 then has at least ten samples beyond it
SETUP_PROBES = 11
HARD_STOP_S = 120.0  # a pass never starts after this, whatever --seconds says
SHOWN_FAILURES = 5
CALIB_EVERY_S = 0.05
# the median calibrate() time on the machine this was tuned on (2 vCPUs,
# Python 3.11.7): scaled and raw figures agree there in its usual state
CALIB_REF_S = 0.85e-3
CALIB_MATRIX = tuple(tuple((i * 7 + j * 3) % 11 - 5 for j in range(10)) for i in range(10))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-start", type=float, default=None,
                    help=argparse.SUPPRESS)  # set-up probe: perf_counter at spawn
    return ap.parse_args(argv)


def require_sources() -> str:
    init = os.path.join(SRC, "nilcomm", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"perfbench: no nilcomm sources at {init}; run inside a checkout")
    return init


def load_library() -> float:
    """Import nilcomm from ROOT/src; returns the import time in seconds."""
    init = require_sources()
    sys.path.insert(0, SRC)
    t0 = perf_counter()
    import nilcomm
    import nilcomm.constraints  # noqa: F401
    import nilcomm.twoblock  # noqa: F401

    elapsed = perf_counter() - t0
    if os.path.dirname(os.path.abspath(nilcomm.__file__)) != os.path.dirname(init):
        sys.exit(f"perfbench: imported nilcomm from {nilcomm.__file__}, not {SRC}")
    return elapsed


def setup(args):
    """Import, make the workload and check its reference, warm up.

    Returns the workload, the import time and the seconds spent on the
    benchmark's own work (its modules, the reference D and its check, the
    input tables), which the set-up probe leaves out of setup_s."""
    import_s = load_library()
    own_t0 = perf_counter()
    from nilcomm.commutant import dmap_index
    from nilcomm.partitions import is_stable, min_ar_cover

    import workloads

    if args.workload == "cli_queries":
        wl = workloads.CliQueries(args.seed, ROOT)
    elif args.workload == "sample_bank":
        wl = workloads.SampleBank(args.seed)
    else:
        wl = workloads.TwoBlockDraws(args.seed)
    bad = wl.ref.check_against(dmap_index, min_ar_cover, is_stable)
    if bad:
        sys.exit("perfbench: reference D disagrees with library invariants "
                 f"({len(bad)} partitions), first: {bad[0]}")
    own_s = perf_counter() - own_t0
    wl.warm_up()
    return wl, import_s, own_s


def setup_probe(args) -> float:
    """Set-up time of one fresh process: from spawn to the first operation,
    less the benchmark's own work in setup()."""
    from workloads import spawn

    argv = [sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--probe-start", repr(perf_counter())]
    code, out, err, _ = spawn(argv, dict(os.environ), ROOT)
    if code != 0:
        sys.exit(f"perfbench: set-up probe failed ({code}): "
                 f"{err.decode(errors='replace').strip()}")
    return float(out.decode().split()[-1])


def calibrate() -> float:
    """Seconds for a fixed piece of integer matrix work in pure Python (a
    dense product and a fraction-free rank, like the library's kernels):
    how fast this machine runs right now."""
    t = perf_counter()
    a = CALIB_MATRIX
    for _ in range(3):
        cols = tuple(zip(*a))
        a = [tuple(sum(x * y for x, y in zip(r, c)) % 1000003 - 500001 for c in cols)
             for r in a]
    rows = [list(r) for r in a]
    n, prev, top = len(rows), 1, 0
    for pc in range(n):
        piv = next((r for r in range(top, n) if rows[r][pc]), -1)
        if piv < 0:
            continue
        rows[top], rows[piv] = rows[piv], rows[top]
        p = rows[top][pc]
        for r in range(top + 1, n):
            c = rows[r][pc]
            for k in range(pc + 1, n):
                rows[r][k] = (p * rows[r][k] - c * rows[top][k]) // prev
            rows[r][pc] = 0
        prev, top = p, top + 1
    return perf_counter() - t


@dataclass
class Window:
    """What one closed-loop window measured."""

    lat: list = field(default_factory=list)  # seconds per operation
    failures: list = field(default_factory=list)  # (op id, input, message)
    busy: list = field(default_factory=list)  # seconds per pass, checks excluded
    setup: list = field(default_factory=list)  # set-up probe samples
    calib: list = field(default_factory=list)  # calibrate() samples


def run_pass(wl, w: Window, p: int) -> None:
    """Pass p, one operation after another.  Each answer is checked as it
    arrives and, for in-process workloads, calibrate() runs every
    CALIB_EVERY_S, both off the clock."""
    start = last_calib = perf_counter()
    paused = 0.0
    for inp in wl.pass_inputs(p):
        s = perf_counter()
        try:
            res, errors = wl.run(inp, len(w.lat)), None
        except Exception as exc:  # counted as a failed operation
            errors = [f"{type(exc).__name__}: {exc}"]
        e = perf_counter()
        if errors is None:
            errors = wl.check(inp, res)
        if errors:
            w.failures.append((len(w.lat), inp, errors[0]))
        w.lat.append(e - s)
        if wl.in_process and e - last_calib >= CALIB_EVERY_S:
            w.calib.append(calibrate())
            last_calib = perf_counter()
        paused += perf_counter() - e
    w.busy.append(perf_counter() - start - paused)


def measure(wl, seconds: float, probe) -> Window:
    """Closed loop over whole passes, for at least `seconds` and MIN_OPS
    operations.  SETUP_PROBES calls of `probe` run between passes, off the
    clock, spread over the window so that they see the same machine state
    as the operations; any left over run at the end."""
    w = Window()
    t0 = perf_counter()
    probing = 0.0  # seconds spent in probes, not part of the window
    while True:
        run_pass(wl, w, len(w.busy))
        end = perf_counter()
        elapsed = end - t0 - probing
        due = SETUP_PROBES * elapsed > len(w.setup) * seconds  # spread over the window
        if len(w.setup) < SETUP_PROBES and due:
            w.setup.append(probe())
            probing += perf_counter() - end
        if elapsed >= seconds and len(w.lat) >= MIN_OPS or elapsed >= HARD_STOP_S:
            break
    while len(w.setup) < SETUP_PROBES:
        w.setup.append(probe())
    return w


def measure_traced(wl, tracer, seconds: float) -> tuple[Window, Window]:
    """Each pass twice in a row, untraced and then under the tracer, until
    `seconds` have elapsed: both copies meet the same machine state, so
    their difference is the tracing overhead.  The workload's layer counts
    cover the traced copies only."""
    plain, traced = Window(), Window()
    classes = [v for v in getattr(wl, "entries", {}).values() if isinstance(v, type)]
    t0 = perf_counter()
    while not plain.busy or perf_counter() - t0 < seconds:
        p, counts = len(plain.busy), dict(wl.counters)
        run_pass(wl, plain, p)
        wl.counters = counts
        wl.use_tracer(tracer)
        if wl.in_process:
            tracer.install(classes)
        try:
            run_pass(wl, traced, p)
        finally:
            tracer.uninstall()
            wl.use_tracer(None)
    return plain, traced


def report_failures(failures, seed: int) -> None:
    for op_id, inp, msg in failures[:SHOWN_FAILURES]:
        print(f"FAILED op {op_id} (run seed {seed}, input {_short(inp)}): {msg}",
              file=sys.stderr)
    if len(failures) > SHOWN_FAILURES:
        print(f"... {len(failures) - SHOWN_FAILURES} more failed operations",
              file=sys.stderr)


def _short(inp) -> str:
    text = repr(inp)
    return text if len(text) <= 200 else text[:197] + "..."


def provenance(args) -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "nilcomm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit(), "src_sha256": digest.hexdigest()[:16],
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def _commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown (not a git checkout)"


def end_to_end(wl, w: Window, setup_s: float) -> dict:
    """The end-to-end metrics.  For in-process workloads, operation times
    are multiplied, and the rate divided, by the window's median
    calibrate() time over CALIB_REF_S, which takes out most of the swings
    in machine speed between runs.  calibrate() does not follow process
    start and import, so cli_queries and setup_s stay raw.  The raw
    figures are printed above the result."""
    p50, p90 = statistics.median(w.lat), statistics.quantiles(w.lat, n=10)[8]
    rate = len(w.lat) / sum(w.busy)
    if wl.in_process:
        scale = CALIB_REF_S / statistics.median(w.calib)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        scale, rss_kb = 1.0, wl.max_rss_kb
    calib = (f"; calibrate() {CALIB_REF_S / scale * 1e3:.4f} ms (median of "
             f"{len(w.calib)}), scale {scale:.4f}" if wl.in_process else "")
    print(f"raw: {len(w.lat)} operations in {len(w.busy)} passes, "
          f"p50 {p50 * 1e3:.3f} ms, p90 {p90 * 1e3:.3f} ms, {rate:.3f} ops/s{calib}")
    return {
        "ops_per_s": (rate / scale, "1/s"),
        "op_p50_ms": (p50 * 1e3 * scale, "ms"),
        "op_p90_ms": (p90 * 1e3 * scale, "ms"),
        "ok_ratio": (1.0 - len(w.failures) / len(w.lat), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(wl, tracer, import_s: float, plain: Window, traced: Window) -> dict:
    from tracer import LAYERS

    out = {}
    for layer in LAYERS:
        calls, self_s = tracer.stats[layer]
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (self_s, "s")
    if getattr(wl, "import_s", None):
        import_s = statistics.median(wl.import_s)
    out["cli.import_s"] = (import_s, "s")
    counts = {"commutant.mc_trials": (0, "count"), "commutant.mc_uncertified": (0, "count"),
              "dinverse.mc_share": (0.0, "ratio"), "commutant.generic_share": (0.0, "ratio"),
              "twoblock.accept_ratio": (0.0, "ratio")}
    for name, value in wl.layer_metrics().items():
        counts[name] = (value, counts[name][1])
    out.update(counts)
    out["trace_overhead"] = (sum(traced.lat) / sum(plain.lat) - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe_start is not None:
        _, _, own_s = setup(args)
        print(perf_counter() - args.probe_start - own_s)
        return 0
    require_sources()
    print("provenance: " + json.dumps(provenance(args)))
    if args.trace == 0:
        wl, _, _ = setup(args)
        w = measure(wl, args.seconds, lambda: setup_probe(args))
        failures, attempted = w.failures, len(w.lat)
        metrics = end_to_end(wl, w, statistics.median(w.setup))
    else:
        from tracer import SPAN_FIELDS, Tracer

        wl, import_s, _ = setup(args)
        tracer = Tracer()
        plain, traced = measure_traced(wl, tracer, args.seconds)
        failures = plain.failures + traced.failures
        attempted = len(plain.lat) + len(traced.lat)
        metrics = per_layer(wl, tracer, import_s, plain, traced)
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        path = os.path.join(HERE, "out", f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"fields": SPAN_FIELDS, "spans": tracer.spans,
                       "dropped": tracer.dropped}, f)
    report_failures(failures, args.seed)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
