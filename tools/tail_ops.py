"""Rank the ops of one benchmark workload by their median calibrated clock.

Usage: python tools/tail_ops.py --workload upper-mass --seed 5 --passes 15

Builds the seeded op list of ``ordperf/run.py`` (imported as a library, with
its warm-up) in a temporary work directory, runs that many whole untraced
passes, and prints every op at or above the tail rank: the ops whose median
calibrated clock over the passes is at least that of the op the workload's
tail percentile (``op_tail_ms``) falls on. One line per op, slowest first::

    <rank> <op class> <median ms> <share %> <inputs, cut short>

where the share is the op's part of the pass clock: its median over the sum
of the medians of all passing ops, so a throughput claim can name the ops
that carry the pass.

then the tail percentile and its rank. Ops that did not pass in every pass
are left out, as the tail leaves them out. Exits 1 on an unexpected failure,
printed to stderr, and 0 otherwise.

With ``--by-class`` it prints instead where the pass clock goes by op
class: one line per class, the largest sum first::

    <op class> <ops> <sum ms> <share %> <median ms> <max ms>

the sum, share of the pass clock, median and maximum of the op medians of
the class's passing ops, then the pass clock, the number of passing ops and
the passes.
"""

import argparse
import importlib.util
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "ordperf"


def load_runner():
    """``ordperf/run.py`` as a module, with ``ordperf/`` and ``src/`` on the path."""
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    spec = importlib.util.spec_from_file_location("ordperf_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def main(argv=None) -> int:
    run = load_runner()
    hn = run.hn
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=run.wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=15)
    ap.add_argument("--by-class", action="store_true", help="sum the op medians by op class")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        ops = run.setup(args.workload, args.seed, Path(tmp) / "work")
        out = hn.Outcome()
        for _ in range(max(1, args.passes)):
            hn.run_pass(ops, hn.NullTracer(), out)
    for u in out.unexpected:
        print(f"unexpected failure: {u}", file=sys.stderr)
    passing = sorted(
        ((t, op) for op, t, ok in zip(ops, out.op_medians(), out.passed_by_op) if ok == out.passes),
        key=lambda pair: -pair[0],
    )
    clock = sum(t for t, _ in passing)
    if args.by_class:
        by_class = {}
        for t, op in passing:
            by_class.setdefault(op.cls, []).append(t)
        for cls, ts in sorted(by_class.items(), key=lambda item: -sum(item[1])):
            share = f"{100 * sum(ts) / clock:6.2f}%"
            print(f"{cls:24s} {len(ts):5d} {sum(ts) * 1e3:9.3f} {share:>7s} "
                  f"{statistics.median(ts) * 1e3:8.3f} {max(ts) * 1e3:8.3f}")
        print(f"pass clock {clock * 1e3:.3f} ms: {len(passing)} passing ops, {out.passes} passes")
    else:
        tail_p = hn.tail_percentile(sum(1 for op in ops if not op.known_failure))
        # the tail op is the rank-th fastest, so len - rank + 1 ops sit at or above it
        rank = hn.rank(tail_p, len(passing))
        for k, (t, op) in enumerate(passing[: len(passing) - rank + 1], 1):
            share = f"{100 * t / clock:5.2f}%"
            print(f"{k:4d} {op.cls:24s} {t * 1e3:8.3f} {share:>7s} {' '.join(op.desc.split())[:60]}")
        print(f"tail p{tail_p:g}: rank {rank} of {len(passing)} passing ops, {out.passes} passes")
    return 1 if out.unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
