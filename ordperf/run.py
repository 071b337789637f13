"""ordbench benchmark: one seeded workload, closed loop, one thread.

Usage (from the repository root):

    python3 ordperf/run.py --workload order-flow --seed 1 --seconds 30 --trace 0

One caller runs the workload's fixed op list in whole passes for about
``--seconds``; the next op starts only after the previous one
returned and was checked. Op times are calibrated by the machine's speed
(see ``harness``). ``--trace 0`` prints the end-to-end metrics of an
untraced run. ``--trace 1`` alternates untraced and traced passes and prints
the per-layer metrics of the traced ones. Every metric is printed
as ``name value unit``; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The run record, the
failures per op class and (when traced) the spans go to ``ordperf/out/``.

The library is imported from ``src/`` of the checkout the script sits in and
nowhere else; without it the script exits 2 before measuring anything.
"""

from __future__ import annotations

import time

# Set-up is timed from here, before the benchmark's own imports pull in the
# standard-library modules ordbench needs too.
START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import harness as hn  # noqa: E402
import workloads as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
BENCH = Path(__file__).resolve().parent
SETUPS = 5  # cold set-ups per run, each in a fresh interpreter; setup_s is their median

LAYERS = (
    "valuations.flow", "posets.upper_sets", "valuations.upper_mass", "valuations.grid",
    "valuations.rounding", "posets.parse", "posets.covers", "treeval.path_space",
    "treeval.admissible", "smyth.fin_antichains", "smyth.laws", "smyth.koenig",
    "deflations", "lazy", "valuations.parse", "cli.main",
)
# Per-layer metrics beyond busy_s / failed / busy_share, with their units.
LAYER_EXTRA = {
    "valuations.flow.calls": "count",
    "valuations.flow.true_share": "ratio",
    "valuations.flow.plan_pairs_out": "count",
    "posets.upper_sets.sets_out": "count",
    "posets.upper_sets.warm_share": "ratio",
    "valuations.upper_mass.calls": "count",
    "valuations.upper_mass.violations_out": "count",
    "valuations.upper_mass.mixing_k_tried": "count",
    "valuations.grid.points_out": "count",
    "valuations.grid.pairs_out": "count",
    "posets.parse.calls": "count",
    "treeval.path_space.paths_out": "count",
    "smyth.fin_antichains.antichains_out": "count",
    "cli.main.calls": "count",
    "trace.overhead_ratio": "ratio",
}
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.busy_s"] = "s"
        units[f"{layer}.failed"] = "count"
        units[f"{layer}.busy_share"] = "ratio"
    units.update(LAYER_EXTRA)
    return units


def import_library():
    """Import ordbench afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "ordbench" or m.startswith("ordbench.")]:
        del sys.modules[name]
    ob = importlib.import_module("ordbench")
    cli = importlib.import_module("ordbench.cli")
    if Path(ob.__file__).resolve().parent != SRC / "ordbench":
        raise ImportError(f"ordbench resolved to {ob.__file__}, not {SRC / 'ordbench'}")
    return ob, cli


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate the op list from the seed, and warm up.

    Warm-up runs, for each op class, the unit holding its cheapest op (a
    unit is an op plus the ops that share its state, e.g. a cold upper-set
    listing and its warm queries)."""
    ob, cli = import_library()
    rng = random.Random(f"{workload}/{seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    units = wl.build(workload, ob, cli, rng, str(workdir), str(GOLDEN))
    cheapest = {}
    for u, unit in enumerate(units):
        for op in unit:
            if op.cls not in cheapest or op.cost < cheapest[op.cls][0]:
                cheapest[op.cls] = (op.cost, u)
    warm = hn.Outcome()
    for u in sorted({u for _, u in cheapest.values()}):
        for op in units[u]:
            hn.run_op(op, hn.NullTracer(), warm)
    return [op for unit in units for op in unit]


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ordbench").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(out: hn.Outcome, setups, tail_p: float, raw: bool = False) -> dict:
    """The end-to-end metrics, from calibrated clocks (``raw``: wall clocks)."""
    return {
        "setup_s": statistics.median(s["raw_s" if raw else "calibrated_s"] for s in setups),
        "ops_per_s": out.passed / out.passes / out.pass_clock_s(raw),
        "op_p50_ms": out.latency_percentile(50, raw) * 1e3,
        "op_tail_ms": out.latency_percentile(tail_p, raw) * 1e3,
        "fail_ratio": (out.attempted - out.passed) / out.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: hn.Tracer, plain: hn.Outcome, traced: hn.Outcome) -> dict:
    m = hn.layer_metrics(tracer, list(LAYERS))
    c = tracer.counts

    def ratio(a, b):
        return c.get(a, 0) / c[b] if c.get(b) else 0.0

    flow_ok = m["valuations.flow.calls"] - m["valuations.flow.failed"]
    m["valuations.flow.true_share"] = c.get("valuations.flow.true", 0) / flow_ok if flow_ok else 0.0
    m["posets.upper_sets.warm_share"] = ratio("posets.upper_sets.warm", "posets.upper_sets.consumers")
    for name in LAYER_EXTRA:
        if name not in m:
            m[name] = c.get(name, 0)
    m["trace.overhead_ratio"] = traced.pass_clock_s() / plain.pass_clock_s() - 1
    units = per_layer_units()
    return {name: m[name] for name in units}


def class_clock(ops, out: hn.Outcome) -> dict:
    """Median-pass calibrated clock per op class, in seconds."""
    total = {}
    for op, t in zip(ops, out.op_medians()):
        total[op.cls] = round(total.get(op.cls, 0.0) + t, 4)
    return total


def timed_setup(workload: str, seed: int, workdir: Path):
    """The set-up of this interpreter, timed from its first line, and the
    same time calibrated by the machine's speed just after."""
    ops = setup(workload, seed, workdir)
    raw = time.perf_counter() - START
    return ops, {"raw_s": raw, "calibrated_s": raw / hn.machine_speed()}


def fresh_setups(args, count: int) -> list:
    """``count`` more cold set-ups, each in a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    out = []
    for _ in range(count):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "ordbench" / "__init__.py").is_file() or not GOLDEN.is_dir():
        print(f"error: no ordbench sources under {SRC} or goldens under {GOLDEN}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = BENCH / "work"
    outdir = BENCH / "out"

    if args.setup_only:
        ops, timing = timed_setup(args.workload, args.seed, workdir / "setup")
        shutil.rmtree(workdir / "setup", ignore_errors=True)
        print(json.dumps({**timing, "digest": hn.digest(ops)}))
        return 0
    ops, timing = timed_setup(args.workload, args.seed, workdir)
    setups = [timing] + fresh_setups(args, SETUPS - 1)
    digests = {hn.digest(ops)} | {s.pop("digest") for s in setups[1:]}
    if len(digests) != 1:
        print("error: the same seed generated different op lists", file=sys.stderr)
        return 2

    tail_p = hn.tail_percentile(sum(1 for op in ops if not op.known_failure))
    plain = hn.Outcome()
    if args.trace:
        # Per-layer numbers come from the traced passes, the overhead from
        # the traced and untraced ones.
        traced, tracer = hn.Outcome(), hn.Tracer()
        hn.run_phase(ops, [(hn.NullTracer(), plain), (tracer, traced)], args.seconds)
        phases = [plain, traced]
        metrics = per_layer(tracer, plain, traced)
        units = per_layer_units()
    else:
        hn.run_phase(ops, [(hn.NullTracer(), plain)], args.seconds)
        phases = [plain]
        metrics = end_to_end(plain, setups, tail_p)
        units = END_TO_END
    shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.attempted - p.passed for p in phases)
    unexpected = [u for p in phases for u in p.unexpected]
    classes = {}
    for op in ops:
        classes[op.cls] = classes.get(op.cls, 0) + 1
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "op_list_sha256": digests.pop()[:16],
        "ops_per_pass": len(ops),
        "ops_per_class": classes,
        "known_failures": {op.cls: op.known_failure for op in ops if op.known_failure},
        "passes": plain.passes,
        "tail_percentile": tail_p,
        "tail_samples": plain.passes * sum(ok == plain.passes for ok in plain.passed_by_op),
        "pass_clock_s": plain.pass_clock_s(),
        "pass_wall_s": plain.pass_clock_s(raw=True),
        "kernel_nominal_s": hn.KERNEL_NOMINAL_S,
        "machine_speed_per_pass": [round(v, 4) for v in plain.pass_speeds],
        "setup_s_runs": setups,
        "class_clock_s": class_clock(ops, plain),
        "failures": plain.failures,
        "unexpected": unexpected[:20],
    }
    if not args.trace:
        record["wall_metrics"] = end_to_end(plain, setups, tail_p, raw=True)
    outdir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(
        json.dumps({"record": record, "metrics": metrics}, indent=1, sort_keys=True) + "\n"
    )
    if args.trace:
        with open(outdir / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for s in traced.op_spans + tracer.spans:
                fh.write(json.dumps(s.__dict__, default=list) + "\n")

    for u in unexpected[:20]:
        print(f"unexpected failure: {u}", file=sys.stderr)
    print("record " + json.dumps(record, sort_keys=True))
    if args.trace:
        shares = (f"{layer}={metrics[layer + '.busy_share']:.3f}" for layer in LAYERS)
        print("layers busy_share: " + " ".join(shares))
    else:
        print(f"op_tail_ms is p{tail_p:g} of {record['tail_samples']} op latencies")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print(json.dumps({
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
