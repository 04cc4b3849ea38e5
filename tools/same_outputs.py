"""Check that two source trees give byte-identical CLI results.

    python tools/same_outputs.py PARENT_SRC

Runs every op of ``benchmarks/workloads.build_ops`` at seeds 3, 5 and 7,
plus ``analyze``, ``frame ... point`` (the connection form, and each spec
field with and without ``--holonomic``), ``frame ... flat``, ``frame ...
curve`` (each spec field along each spec curve) and a ``verify`` of each
frame file on every demo spec.  Ops
that fail inside an evaluation run on the tool's own spec
``tools/specs/w_pole.json``, whose W template has a pole at r = 1 inside
its domain box: ``analyze`` and ``frame ... point`` at the pole and away
from it, and ``frame ... flat`` over the box.  A ``frame ... flat`` on the
tool's spec ``tools/specs/linear_at_corner.json``, whose W template is a
linear connection only where x1 = 0 (its base node) and flat everywhere,
is refused by the pointwise linearity gate over the sample cloud.
``analyze``, a point frame and a flat frame with its ``verify``
also run on the polar demo spec at ``--probe-seed`` -3 (refused as input)
and 2**70 (three 32-bit seed words).  ``verify`` also reads the tool's own
frame files ``tools/specs/frame_*.json`` against the polar demo spec, laid
out or broken as this program never writes them: a short curve frame as
one line of compact JSON, with CRLF line ends, with one ragged matrix row,
cut off inside its matrices, and with one point off the curve; a
four-node curve frame with JSON strings and booleans for numbers; a
non-string ``kind``; and a symbolic locus outside the domain box and at
NaN.  ``analyze`` and a ``frame ... flat`` at step 0.01 (refused: not
flat) run on the tool's 6-D coordinate spec ``tools/specs/coordinate6.json``,
where the curvature tensor has n^4 entries.  Flags
that no construction reads run on the polar demo spec: ``verify --tol`` -1
and NaN, and ``--probe-seed`` on a curve frame.  Each op runs as a fresh
``python -m normframes.cli``, once with ``PARENT_SRC`` and once with this
checkout's ``src/`` on ``PYTHONPATH``.
The ops of one group share a new empty directory per side, so ``verify``
reads the frame file its group wrote.  Exit code, stdout, stderr and the
bytes of the ``--out`` file must match.  Prints each mismatch and exits 1
if there is any.  An output file that differs is described further when
both sides are JSON: the JSON path of the largest numeric difference, with
its absolute and relative size, and the paths where a boolean, string,
null, key set or array length differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEMO_SPECS = ROOT / "demos" / "specs"
POLE_SPEC = ROOT / "tools" / "specs" / "w_pole.json"
CORNER_SPEC = ROOT / "tools" / "specs" / "linear_at_corner.json"
COORDINATE6_SPEC = ROOT / "tools" / "specs" / "coordinate6.json"
FRAME_FILES = sorted((ROOT / "tools" / "specs").glob("frame_*.json"))
POLE, AWAY = "r=1.0,theta=0.5", "r=1.5,theta=0.5"
PROBE_SEEDS = (-3, 2**70)
SEEDS = (3, 5, 7)
PARTS = ("exit code", "stdout", "stderr", "output file")

sys.path.insert(0, str(ROOT / "benchmarks"))
_dont_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import workloads  # noqa: E402  (no bytecode cache: nothing is left behind under benchmarks/)
sys.dont_write_bytecode = _dont_write_bytecode


def benchmark_groups() -> list:
    return [[op.argv for op in workloads.build_ops(name, seed)]
            for name in workloads.WORKLOADS for seed in SEEDS]


def demo_runs(spec: Path) -> list:
    """analyze, point frames at the centre of the domain box, flat and curve
    frames, and their verify."""
    doc = json.loads(spec.read_text())
    coords, path = doc["coordinates"], str(spec)
    centre = ",".join(f"{c}={(lo + hi) / 2.0!r}" for c, (lo, hi) in zip(coords, doc["domain"]))
    fields, curves = doc.get("fields", {}), doc.get("curves", {})
    modes = ([("point", "--at", centre)]
             + [("point", "--at", centre, "--field", name, *holonomic)
                for name in fields for holonomic in [(), ("--holonomic",)]]
             + [("flat", "--grid", "x".join(["5"] * len(coords)))]
             + [("curve", "--field", f, "--curve", c) for f in fields for c in curves])
    runs = [("analyze", path, "--at", centre, "--out", "analysis.json")]
    for k, mode in enumerate(modes):
        runs.append(("frame", path, *mode, "--out", f"frame{k}.json"))
        runs.append(("verify", path, f"frame{k}.json", "--out", f"verify{k}.json"))
    return runs


def pole_runs() -> list:
    """analyze and point frames (connection form and field) at the W
    template's pole, where they fail with a domain error, and away from it;
    then a flat frame over the box, which holds the pole."""
    path = str(POLE_SPEC)
    runs = []
    for k, at in enumerate((POLE, AWAY)):
        runs += [("analyze", path, "--at", at, "--out", f"analysis{k}.json"),
                 ("frame", path, "point", "--at", at, "--out", f"point{k}.json"),
                 ("frame", path, "point", "--at", at, "--field", "radial",
                  "--out", f"field{k}.json")]
    return runs + [("frame", path, "flat", "--grid", "5x5", "--out", "flat.json")]


def gate_runs() -> list:
    """A flat frame that the pointwise linearity gate refuses (exit 5, the
    residual in the message)."""
    return [("frame", str(CORNER_SPEC), "flat", "--grid", "5x5", "--out", "flat.json")]


def probe_seed_runs(seed: int) -> list:
    """analyze, a point frame and a flat frame with its verify on the polar
    demo spec, at probe seed ``seed``."""
    path, at = str(DEMO_SPECS / "polar_euclidean.json"), "r=1.5,theta=0.8"
    flag = ("--probe-seed", str(seed))
    return [("analyze", path, "--at", at, *flag, "--out", "analysis.json"),
            ("frame", path, "point", "--at", at, *flag, "--out", "point.json"),
            ("frame", path, "flat", "--grid", "5x5", *flag, "--out", "flat.json"),
            ("verify", path, "flat.json", "--out", "verify.json")]


def dimension_runs() -> list:
    """analyze and a flat frame (refused, not flat) on the 6-D coordinate spec."""
    path = str(COORDINATE6_SPEC)
    at = ",".join(f"x{i}=1.5" for i in range(1, 7))
    return [("analyze", path, "--at", at, "--out", "analysis.json"),
            ("frame", path, "flat", "--grid", "3x3x3x3x3x3", "--step", "0.01",
             "--out", "flat.json")]


def frame_file_runs() -> list:
    """verify of each of the tool's frame files against the polar demo spec."""
    path = str(DEMO_SPECS / "polar_euclidean.json")
    return [("verify", path, str(frame), "--out", f"verify{k}.json")
            for k, frame in enumerate(FRAME_FILES)]


def flag_runs() -> list:
    """A flat frame on the polar demo spec and its verify at ``--tol`` -1 and
    NaN, then a curve frame given ``--probe-seed``."""
    path = str(DEMO_SPECS / "polar_euclidean.json")
    return [("frame", path, "flat", "--grid", "5x5", "--out", "flat.json"),
            ("verify", path, "flat.json", "--tol", "-1", "--out", "verify0.json"),
            ("verify", path, "flat.json", "--tol", "nan", "--out", "verify1.json"),
            ("frame", path, "curve", "--field", "angular", "--curve", "unit_circle",
             "--probe-seed", "7", "--out", "curve.json")]


def run_group(src: Path, group: list) -> list:
    """(exit code, stdout, stderr, output bytes or None) of each op, in order."""
    env = dict(os.environ, PYTHONPATH=str(src))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv in group:
            proc = subprocess.run([sys.executable, "-m", "normframes.cli", *argv],
                                  cwd=tmp, env=env, capture_output=True)
            out = Path(tmp, argv[argv.index("--out") + 1])
            results.append((proc.returncode, proc.stdout, proc.stderr,
                            out.read_bytes() if out.exists() else None))
    return results


def json_differences(left: bytes, right: bytes):
    """What differs between two JSON documents: the largest numeric
    difference as (absolute, relative, JSON path), or None, and the paths
    where a boolean, string, null, type, length or key set differs.  None
    when either is not JSON."""
    try:
        docs = json.loads(left), json.loads(right)
    except ValueError:
        return None
    largest, other = None, []
    stack = [("$", *docs)]
    while stack:
        path, a, b = stack.pop()
        number = (int, float)
        if isinstance(a, dict) and isinstance(b, dict):
            if a.keys() != b.keys():
                other.append(path)
            stack += [(f"{path}.{key}", a[key], b[key]) for key in a if key in b]
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                other.append(path)
            stack += [(f"{path}[{k}]", x, y) for k, (x, y) in enumerate(zip(a, b))]
        elif (isinstance(a, number) and isinstance(b, number)
              and not isinstance(a, bool) and not isinstance(b, bool)):
            gap = abs(a - b)
            if gap and (largest is None or gap > largest[0]):
                largest = (gap, gap / max(abs(a), abs(b)), path)
        elif type(a) is not type(b) or a != b:
            other.append(path)
    return largest, sorted(other)


def _describe(part: str, x, y) -> str:
    """``part differs``, with the JSON differences of an output file."""
    found = json_differences(x, y) if part == "output file" and None not in (x, y) else None
    if found is None:
        return f"{part} differs"
    largest, other = found
    numbers = ("no number differs" if largest is None else
               f"largest numeric difference {largest[0]:.3g} (relative {largest[1]:.3g}) "
               f"at {largest[2]}")
    rest = ("no boolean, string or key differs" if not other else
            f"booleans, strings or keys differ at {', '.join(other)}")
    return f"{part} differs: {numbers}; {rest}"


def mismatches(group: list, left: list, right: list) -> list:
    return [f"{' '.join(argv)}: {_describe(part, x, y)}"
            for argv, a, b in zip(group, left, right)
            for part, x, y in zip(PARTS, a, b) if x != y]


def compare(parent_src: Path, groups: list) -> list:
    problems = []
    for group in groups:
        problems += mismatches(group, run_group(parent_src, group), run_group(SRC, group))
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src", type=Path, help="the src/ directory to compare against")
    args = parser.parse_args(argv)
    if not (args.parent_src / "normframes" / "cli.py").is_file():
        parser.error(f"{args.parent_src} holds no normframes package")
    groups = (benchmark_groups() + [demo_runs(spec) for spec in sorted(DEMO_SPECS.glob("*.json"))]
              + [pole_runs(), gate_runs()] + [probe_seed_runs(seed) for seed in PROBE_SEEDS]
              + [dimension_runs(), frame_file_runs(), flag_runs()])
    problems = compare(args.parent_src.resolve(), groups)
    for line in problems:
        print(line)
    print(f"{sum(map(len, groups))} op runs, {len(problems)} mismatches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
