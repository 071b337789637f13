"""``tools/tail_ops.py``, the ranking of a benchmark workload's slowest ops,
run end to end on three passes of ``order-flow``.

The tool imports ordbench afresh from ``src/``, as the benchmark does, so it
runs in a child process and leaves this one's modules alone.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_three_passes_of_order_flow_rank_the_ops_at_the_tail():
    argv = [sys.executable, str(ROOT / "tools" / "tail_ops.py"),
            "--workload", "order-flow", "--seed", "1", "--passes", "3"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *ranked, last = proc.stdout.splitlines()
    tail = re.fullmatch(r"tail p([\d.]+): rank (\d+) of (\d+) passing ops, 3 passes", last)
    assert tail, last
    rank, passing = int(tail[2]), int(tail[3])
    # every op at or above the tail rank, slowest first, numbered from 1
    assert len(ranked) == passing - rank + 1 >= 1
    rows = [line.split(maxsplit=4) for line in ranked]
    assert [int(row[0]) for row in rows] == list(range(1, len(rows) + 1))
    assert all(row[1].startswith("flow.") for row in rows)
    clocks = [float(row[2]) for row in rows]
    assert clocks == sorted(clocks, reverse=True) and clocks[-1] > 0
    # each op's share of the pass clock, the sum of every passing op's median
    assert all(re.fullmatch(r"\d+\.\d\d%", row[3]) for row in rows)
    shares = [float(row[3][:-1]) for row in rows]
    assert shares == sorted(shares, reverse=True) and shares[-1] > 0
    # the ops below the tail rank, most of them, carry the rest of the clock
    assert rank > 1 and sum(shares) < 99
    # the shares are the clocks over one common total: the totals each line
    # allows, given the rounding of its clock and share, overlap
    lines = [(c, s) for c, s in zip(clocks, shares) if s > 0.005]
    assert max((c - 5e-4) / (s + 5e-3) for c, s in lines) <= min(
        (c + 5e-4) / (s - 5e-3) for c, s in lines)


def test_by_class_sums_one_pass_of_order_flow_by_op_class():
    argv = [sys.executable, str(ROOT / "tools" / "tail_ops.py"),
            "--workload", "order-flow", "--seed", "1", "--passes", "1", "--by-class"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *rows, last = proc.stdout.splitlines()
    total = re.fullmatch(r"pass clock ([\d.]+) ms: (\d+) passing ops, 1 passes", last)
    assert total, last
    rows = [line.split() for line in rows]
    assert sorted(row[0] for row in rows) == ["flow.cli", "flow.report"]
    counts = [int(row[1]) for row in rows]
    sums, medians, maxima = ([float(row[k]) for row in rows] for k in (2, 4, 5))
    assert all(re.fullmatch(r"\d+\.\d\d%", row[3]) for row in rows)
    shares = [float(row[3][:-1]) for row in rows]
    # the largest sum first; each class's sum, median and maximum in order
    assert sums == sorted(sums, reverse=True)
    assert all(0 < m <= x <= s for s, m, x in zip(sums, medians, maxima))
    assert sum(counts) == int(total[2])
    assert abs(sum(sums) - float(total[1])) <= 1e-3 * len(rows)
    assert abs(sum(shares) - 100) <= 0.01 + 1e-9
