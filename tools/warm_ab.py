"""Warm in-process time of every benchmark op, for two source trees.

    python tools/warm_ab.py PARENT_SRC [--runs 10] [--seed 1]

The time twin of ``tools/op_rss.py``.  For each workload and each of
``--runs`` rounds, each tree runs in a fresh child interpreter with its
``src/`` first on ``sys.path``: the child imports ``benchmarks/run.py`` and
calls its ``run_warm`` on every op of ``benchmarks/workloads.build_ops``,
once untimed as a warm-up and then ``PASSES`` timed passes, all in one new
empty directory so ``verify`` reads the frame file its workload wrote.  The
two trees alternate, and the tree that goes first alternates from round to
round, so a round is one pair of parent and change.

A child's op time is the median of its passes and its ``warm_pass_s`` is
the sum of those medians over the ops, as the benchmark computes it.
Prints each op's median over the rounds for both trees and their
difference (an op whose exit code differs from the one it expects is marked
with ``!``), then per workload the median and quartiles of ``warm_pass_s``
for both trees and the share of pairs the change won.  The change claims a
gain only when it wins at least nine tenths of the pairs, ties counting for
neither, and the medians differ by more than the parent's interquartile
distance.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WIN_SHARE = 0.9
PASSES = 3  # timed passes per child, after its warm-up pass

sys.path.insert(0, str(ROOT / "tools"))
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from op_rss import label, run, workloads  # noqa: E402  (no bytecode cache under tools/ or benchmarks/)
sys.dont_write_bytecode = _dont_write_bytecode


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive of the extremes."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list, this: list) -> dict:
    """The paired comparison of two lists of one metric, lower being better:
    pairs won and lost by the change, each side's quartiles, and whether
    the change may claim a gain."""
    wins = sum(b < a for a, b in zip(parent, this))
    losses = sum(b > a for a, b in zip(parent, this))
    p1, p_med, p3 = quartiles(parent)
    t1, t_med, t3 = quartiles(this)
    claim = wins >= WIN_SHARE * len(parent) and p_med - t_med > p3 - p1
    return {"pairs": len(parent), "wins": wins, "losses": losses, "parent": (p1, p_med, p3),
            "this": (t1, t_med, t3), "gain": claim}


def child_times(workload: str, seed: int) -> dict:
    """In a child: every op's timed warm runs and whether each run exited as expected."""
    import normframes.cli  # noqa: F401 - run_warm calls it

    ops = workloads.build_ops(workload, seed)
    times, ok = [[] for _ in ops], True
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):  # ops write --out here
        workdir = Path(tmp)
        for k in range(PASSES + 1):
            for i, op in enumerate(ops):
                result = run.run_warm(op, workdir)
                ok = ok and result.exit_code == op.expect_exit
                if k:
                    times[i].append(result.seconds)
    return {"src": sys.modules["normframes"].__file__, "times": times, "ok": ok}


def measure(src: Path, workload: str, seed: int) -> tuple[list, bool]:
    """(each op's median warm time, all runs as expected) from a fresh child of ``src``."""
    proc = subprocess.run(
        [sys.executable, "-B", __file__, str(src), "--child", workload, "--seed", str(seed)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child for {src} failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.splitlines()[-1])
    if not Path(doc["src"]).resolve().is_relative_to(src):
        raise SystemExit(f"the child imported normframes from {doc['src']}, not {src}")
    return [statistics.median(t) for t in doc["times"]], doc["ok"]


def compare(parent_src: Path, runs: int, workload: str, seed: int) -> tuple[list, list]:
    """Per op (label, parent medians, this medians, all as expected) and per
    round (parent warm_pass_s, this warm_pass_s)."""
    trees = (parent_src, SRC)
    samples: dict = {tree: [] for tree in trees}
    for k in range(runs):
        for tree in (trees if k % 2 == 0 else trees[::-1]):
            samples[tree].append(measure(tree, workload, seed))
    ops = workloads.build_ops(workload, seed)
    rows = [(label(op.argv), [s[0][i] for s in samples[parent_src]],
             [s[0][i] for s in samples[SRC]], all(s[1] for t in trees for s in samples[t]))
            for i, op in enumerate(ops)]
    passes_s = [(sum(a[0]), sum(b[0])) for a, b in zip(samples[parent_src], samples[SRC])]
    return rows, passes_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the src/ directory to compare against")
    parser.add_argument("--runs", type=int, default=10, help="pairs of children (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--child", choices=workloads.WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:  # a child times one workload of the positional tree
        sys.path.insert(0, str(args.parent_src.resolve()))
        print(json.dumps(child_times(args.child, args.seed)))
        return 0
    if not (args.parent_src / "normframes" / "cli.py").is_file():
        parser.error(f"{args.parent_src} holds no normframes package")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    parent_src = args.parent_src.resolve()
    print(f"{'workload':12s} {'op':60s} {'parent':>9s} {'this':>9s} {'diff':>9s}  (ms)")
    for name in workloads.WORKLOADS:
        rows, passes_s = compare(parent_src, args.runs, name, args.seed)
        for op, parent, this, ok in rows:
            a, b = statistics.median(parent) * 1e3, statistics.median(this) * 1e3
            print(f"{name:12s} {op[:60]:60s} {a:9.2f} {b:9.2f} {b - a:+9.2f}{'' if ok else ' !'}")
        v = verdict([a for a, _ in passes_s], [b for _, b in passes_s])
        (p1, pm, p3), (t1, tm, t3) = v["parent"], v["this"]
        print(f"{name:12s} warm_pass_s median [q1, q3]: parent {pm:.4f} [{p1:.4f}, {p3:.4f}]"
              f"  this {tm:.4f} [{t1:.4f}, {t3:.4f}]")
        print(f"{name:12s} change won {v['wins']}/{v['pairs']} pairs, lost {v['losses']};"
              f" parent IQR {p3 - p1:.4f} s; {'gain' if v['gain'] else 'no gain claimed'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
