"""Self-tests of the benchmark: determinism, checks that catch corruption,
and failure accounting.

Run from the repository root with ``python3 -m pytest -q ordperf``.
"""

import dataclasses
import random
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness as hn  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def lib():
    return run.import_library()


def units_for(lib, workload, seed, workdir, golden=run.GOLDEN):
    ob, cli = lib
    return wl.build(workload, ob, cli, random.Random(f"{workload}/{seed}"), str(workdir), str(golden))


def flat(units):
    return [op for unit in units for op in unit]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_seed_fixes_the_op_list(lib, tmp_path, workload):
    first = hn.digest(flat(units_for(lib, workload, 7, tmp_path)))
    again = hn.digest(flat(units_for(lib, workload, 7, tmp_path)))
    other = hn.digest(flat(units_for(lib, workload, 8, tmp_path)))
    assert first == again
    assert first != other


def run_one(op):
    out = hn.Outcome()
    hn.run_op(op, hn.NullTracer(), out)
    return out


def corrupted(op, damage):
    return dataclasses.replace(op, run=lambda tr: damage(op.run(tr)))


def shift_mass(rep):
    (x, y), w = next(iter(rep.transport.items()))
    plan = dict(rep.transport)
    plan[(x, y)] = w + Fraction(1, 997)
    return dataclasses.replace(rep, transport=plan)


def reverse_pair(rep):
    plan = dict(rep.transport)
    x, y = next(p for p in plan if p[0] != p[1])
    plan[(y, x)] = plan.pop((x, y))
    return dataclasses.replace(rep, transport=plan)


def cheap_ops(lib, tmp_path, cls):
    ops = [op for op in flat(units_for(lib, "order-flow", 3, tmp_path)) if op.cls == cls]
    return sorted(ops, key=lambda op: op.cost)


@pytest.mark.parametrize("damage", [shift_mass, reverse_pair])
def test_corrupted_transport_plan_fails(lib, tmp_path, damage):
    holding = [op for op in cheap_ops(lib, tmp_path, "flow.report")[:12] if op.run(hn.NullTracer()).result]
    assert len(holding) >= 3
    for op in holding[:3]:
        assert run_one(op).passed == 1
        out = run_one(corrupted(op, damage))
        assert out.passed == 0 and out.attempted == 1
        assert next(iter(out.failures["flow.report"])).startswith("mismatch: plan")


def test_corrupted_cli_transport_line_fails(lib, tmp_path):
    op = next(op for op in cheap_ops(lib, tmp_path, "flow.cli") if op.run(hn.NullTracer())[0] == 0)

    def damage(res):
        code, text = res
        lines = text.splitlines()
        lines[1] = lines[1].replace("/", "/1", 1)
        return code, "\n".join(lines) + "\n"

    out = run_one(corrupted(op, damage))
    assert out.passed == 0 and out.unexpected


def test_flipped_golden_byte_fails(lib, tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(run.GOLDEN, golden)
    target = golden / "fin_diamond.txt"
    data = bytearray(target.read_bytes())
    data[3] ^= 0x01
    target.write_bytes(bytes(data))
    ob, cli = lib
    diamond = wl.write(str(tmp_path), "diamond.poset", wl.DIAMOND)
    results = {op.desc: run_one(op) for op in wl.golden_ops(cli, diamond, str(golden))}
    assert results["fin_diamond.txt"].passed == 0
    assert "golden at byte 3" in next(iter(results["fin_diamond.txt"].failures["struct.golden"]))
    assert all(out.passed == 1 for name, out in results.items() if name != "fin_diamond.txt")


KNOWN_FAILURES = {
    "order-flow": {},
    "upper-mass": {"upper.way_below_tall": "PosetError"},
    "structure": {"struct.koenig_deep": "RecursionError"},
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_only_known_failure_classes_fail(lib, tmp_path, workload):
    """One whole pass: every failure belongs to a known-failure class with its
    recorded reason, and every op of those classes is counted as failed.
    (A library change that fixes one of these classes shows up here, and in
    the run record, as that class passing.)"""
    ops = flat(units_for(lib, workload, 5, tmp_path))
    out = hn.Outcome()
    hn.run_pass(ops, hn.NullTracer(), out)
    assert out.unexpected == []
    known = {op.cls: op.known_failure for op in ops if op.known_failure}
    assert known == KNOWN_FAILURES[workload]
    assert out.failures == {
        cls: {reason: sum(op.cls == cls for op in ops)} for cls, reason in known.items()
    }
    assert out.attempted - out.passed == sum(1 for op in ops if op.known_failure)


def test_warm_share_reads_the_library_cache(lib, tmp_path):
    """A query counts as warm only when the Poset it runs on already holds a
    listing, so a cold op that lists nothing leaves the queries cold."""
    units = [u for u in units_for(lib, "upper-mass", 5, tmp_path) if len(u) > 1]
    group = units[0]
    tracer = hn.Tracer()
    for op in group:
        hn.run_op(op, tracer, hn.Outcome())
    assert tracer.counts["posets.upper_sets.consumers"] == len(group)
    assert tracer.counts["posets.upper_sets.warm"] == len(group) - 1

    ob, _ = lib
    cold = group[0]
    P = ob.parse_poset(cold.desc)
    tracer = hn.Tracer()
    wl.consume(tracer, P)
    P.upper_sets()
    wl.consume(tracer, P)
    assert tracer.counts == {"posets.upper_sets.consumers": 2, "posets.upper_sets.warm": 1}
