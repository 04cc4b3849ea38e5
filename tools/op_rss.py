"""Median peak RSS of every benchmark op, cold, for two source trees.

    python tools/op_rss.py PARENT_SRC [--runs 5] [--seed 1]

Runs every op of ``benchmarks/workloads.build_ops`` as a fresh
``python -m normframes.cli``, once with ``PARENT_SRC`` and once with this
checkout's ``src/`` on ``PYTHONPATH``, for ``--runs`` rounds.  The two
trees alternate, and the tree that goes first alternates from round to
round.  Each op's peak RSS is what ``os.wait4`` reports for it, measured
by the benchmark's own launcher (``benchmarks/run.py``), so a child is
forked from a small interpreter, not from this one.  Both trees are
byte-compiled first, as the benchmark does, so the ops read cached
bytecode.  The ops of one workload share a new empty directory per tree
and round, so ``verify`` reads the frame file its workload wrote.

Prints each op's median peak RSS in MB for both trees and their
difference, then per workload the largest op median (the benchmark's
``peak_rss_mb``).  An op whose exit code differs from the one it expects
is marked with ``!``.
"""

from __future__ import annotations

import argparse
import compileall
import os
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
VALUE_FLAGS = ("--at", "--out", "--probe-seed", "--tol")  # their values only add noise to a label

sys.path.insert(0, str(ROOT / "benchmarks"))
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import run  # noqa: E402  (no bytecode cache: nothing is left behind under benchmarks/)
import workloads  # noqa: E402
sys.dont_write_bytecode = _dont_write_bytecode


def label(argv: tuple) -> str:
    """The op's arguments, with spec and frame files by name and no flag values."""
    words, skip = [], False
    for word in argv:
        if skip:
            skip = False
        elif word in VALUE_FLAGS:
            skip = True
        else:
            words.append(Path(word).stem if word.endswith(".json") else word)
    return " ".join(words)


def measure(src: Path, ops: list) -> list:
    """(peak RSS in MB, exit code as expected) of each op, run cold in order."""
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as tmp, run.Launcher(env) as launcher:
        results = [run.run_cold(op, Path(tmp), launcher) for op in ops]
    return [(r.rss_mb, r.exit_code == op.expect_exit) for op, r in zip(ops, results)]


def compare(parent_src: Path, runs: int, seed: int) -> list:
    """(workload, op label, parent MBs, this MBs, all exits as expected) per op."""
    trees = (parent_src, SRC)
    rows = []
    for name in workloads.WORKLOADS:
        ops = workloads.build_ops(name, seed)
        samples = {tree: [] for tree in trees}
        for k in range(runs):
            for tree in (trees if k % 2 == 0 else trees[::-1]):
                samples[tree].append(measure(tree, ops))
        for i, op in enumerate(ops):
            parent, this = ([s[i] for s in samples[tree]] for tree in trees)
            rows.append((name, label(op.argv), [mb for mb, _ in parent], [mb for mb, _ in this],
                         all(ok for _, ok in parent + this)))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the src/ directory to compare against")
    parser.add_argument("--runs", type=int, default=5, help="rounds per tree (default 5)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    args = parser.parse_args(argv)
    if not (args.parent_src / "normframes" / "cli.py").is_file():
        parser.error(f"{args.parent_src} holds no normframes package")
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    parent_src = args.parent_src.resolve()
    for tree in (parent_src, SRC):
        compileall.compile_dir(str(tree / "normframes"), quiet=1)
    rows = compare(parent_src, args.runs, args.seed)
    print(f"{'workload':12s} {'op':60s} {'parent':>8s} {'this':>8s} {'diff':>7s}")
    peaks: dict = {}
    for name, op, parent, this, ok in rows:
        a, b = statistics.median(parent), statistics.median(this)
        peak = peaks.setdefault(name, [0.0, 0.0])
        peak[:] = max(peak[0], a), max(peak[1], b)
        print(f"{name:12s} {op[:60]:60s} {a:8.3f} {b:8.3f} {b - a:+7.3f}{'' if ok else ' !'}")
    for name, (a, b) in peaks.items():
        print(f"{name:12s} {'peak_rss_mb (largest op median)':60s} {a:8.3f} {b:8.3f} {b - a:+7.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
