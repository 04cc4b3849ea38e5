"""Benchmark for normframes: time to a verified frame or verdict.

Run one workload (the last stdout line is a JSON result):

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run every workload, untraced and traced, and print each metric by name with
its unit:

    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

Load is a closed loop with one client: each op starts after the previous
one ended, in a single process, with no extra threads.  An untraced run
(``--trace 0``) takes samples for ``--seconds`` seconds, one op at a time:

* cold: the op as a fresh ``python -m normframes.cli`` subprocess,
  interpreter start-up included, with its peak RSS;
* warm: the same op through ``normframes.cli.main(argv)`` in this process,
  after one untimed warm-up run of that op;
* set-up: a fresh interpreter that imports ``normframes.cli`` and loads
  every spec of the workload (the first MAX_SETUP steps only).

Every op is sampled at least twice cold and once warm; beyond that each op
gets about the same share of the run, so short ops are sampled many times.
An op's time is the median of its samples; pass, frame, verdict and
warm-pass times sum those medians over the ops they cover, and ``setup_s``
is the median set-up sample.  The result file states the sample counts and
keeps every sample.

A traced run (``--trace 1``) makes a warm-up pass, then traced, untraced and
traced warm passes, and reports per-layer calls, self and total times from
the span recorder in ``tracer.py``.  Every op's output is checked against
references that do not come from normframes (``checks.py``).  Each run
writes a result file with its provenance under ``benchmarks/results``.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / ".work"
MAX_SETUP = 12
MIN_STEPS = 2

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import workloads  # noqa: E402
from workloads import OpResult, classify  # noqa: E402

END_TO_END = {
    "pass_s": "s",
    "frame_s": "s",
    "verdict_s": "s",
    "warm_pass_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

PER_LAYER = [
    "expr.evaluate.calls", "expr.evaluate.self_s", "expr.free_symbols.calls",
    "expr.differentiate.self_s", "expr.substitute.self_s",
    "expr.simplify.calls", "expr.simplify.self_s",
    "expr.compiled.calls", "expr.compiled.self_s", "expr.compile_exprs.calls",
    "expr.parse_expr.self_s", "cli.load_manifold_spec.self_s",
    "geometry.vanishes_on_chart.calls", "geometry.vanishes_on_chart.self_s",
    "geometry.anholonomy_coefficients.self_s", "geometry.commutator.self_s",
    "matops.evaluate_array.calls", "matops.evaluate_array.self_s", "matops.map_exprs.self_s",
    "derivation.w_of.calls", "derivation.w_of.self_s", "derivation.linearity_probe.total_s",
    "derivation.transform_w.self_s", "matops.inverse.self_s",
    "curvature.is_flat.total_s", "curvature.is_torsion_free.total_s",
    "curvature.curvature_matrix.total_s", "curvature.integrability_residual.total_s",
    "frames.flat_frame_neighborhood.self_s", "frames.flat_frame_neighborhood.total_s",
    "frames.transport_along_curve.self_s",
    "frames.frame_at_point_general.total_s", "frames.frame_at_point_holonomic.total_s",
    "frames.frame_at_point_connection.total_s",
    "cli.cmd_verify.self_s", "cli.dumps_report.self_s", "cli.build_analysis_report.self_s",
    "trace.domain_errors", "trace.overhead_ratio",
]


def layer_unit(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "1"
    return "s" if name.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# running ops


def _read_out(path):
    """The op's parsed output file, or None when it is missing or unreadable."""
    if path is None:
        return None
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


# Runs each command it reads from stdin as a child process and answers with
# the exit code, the wall time from spawn to exit and the child's peak RSS.
# Linux counts the memory of the process a child was forked from in the
# child's peak RSS, so children are forked from this small interpreter, not
# from the benchmark process, which grows with the warm passes.
LAUNCHER = """
import json, os, subprocess, sys, time
for line in sys.stdin:
    argv, cwd, err_path = json.loads(line)
    with open(os.devnull, "wb") as null, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=null, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    print(json.dumps([os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss]), flush=True)
"""


class Launcher:
    """A launcher interpreter for the run; use it as a context manager."""

    def __init__(self, env: dict):
        # its own process group, so a stuck child can be killed with it
        self.proc = subprocess.Popen([sys.executable, "-c", LAUNCHER], env=env, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     start_new_session=True)

    def run(self, argv: list, cwd: Path, err_path: Path) -> tuple[int, float, float]:
        """Exit code, seconds and peak RSS in MB of one child process."""
        self.proc.stdin.write(json.dumps([[sys.executable, *argv], str(cwd), str(err_path)]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher interpreter ended early")
        code, seconds, maxrss_kb = json.loads(line)
        return code, seconds, maxrss_kb / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()


def run_cold(op, workdir: Path, launcher: Launcher) -> OpResult:
    """One op as a fresh interpreter; wall time from spawn to exit."""
    out_path = workdir / op.out if op.out else None
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    err_path = workdir / "stderr.txt"
    code, seconds, rss_mb = launcher.run(["-m", "normframes.cli", *op.argv], workdir, err_path)
    return OpResult(code, err_path.read_text(errors="replace"), seconds, _read_out(out_path), rss_mb)


def run_warm(op, workdir: Path) -> OpResult:
    """One op through normframes.cli.main in this process.

    An exception escaping main is printed as the interpreter would print it
    and gives exit code 1, so cold and warm ops are judged alike.
    """
    cli = sys.modules["normframes.cli"]
    out_path = workdir / op.out if op.out else None
    if out_path is not None:
        out_path.unlink(missing_ok=True)
    err = io.StringIO()
    failure = None
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # an escaping exception is an op outcome, not a harness error
            failure, code = exc, 1
        seconds = time.perf_counter() - start
        if failure is not None:
            traceback.print_exception(failure)
    return OpResult(0 if code is None else code, err.getvalue(), seconds, _read_out(out_path))


class Tally:
    """Op outcomes of a run: counts, failures and any unexplained problem."""

    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.known_defects: dict[str, int] = {}
        self.unexpected: list[dict] = []
        self.failed_ops: set = set()

    def add(self, op, result: OpResult, phase: str):
        status, problems = classify(op, result)
        self.attempted += 1
        if status == "ok":
            self.ok += 1
            return
        self.failed_ops.add(op.argv)
        if status == "known-defect":
            self.known_defects[op.known_defect] = self.known_defects.get(op.known_defect, 0) + 1
        else:
            self.unexpected.append({"phase": phase, "argv": list(op.argv), "problems": problems,
                                    "stderr_tail": result.stderr[-400:]})


def run_pass(ops, runner, tally: Tally, phase: str) -> list:
    """Run every op once; returns the per-op results (checks are untimed)."""
    results = []
    for op in ops:
        result = runner(op)
        tally.add(op, result, phase)
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# phases


def setup_sample(specs: list, launcher: Launcher, workdir: Path) -> float:
    """One fresh interpreter that imports normframes.cli and loads every spec."""
    code = ("import sys\nfrom normframes.cli import load_manifold_spec\n"
            "for path in sys.argv[1:]:\n    load_manifold_spec(path)\n")
    err_path = workdir / "stderr.txt"
    status, seconds, _ = launcher.run(["-c", code, *specs], workdir, err_path)
    if status != 0:
        raise RuntimeError(f"set-up interpreter failed: {err_path.read_text(errors='replace')}")
    return seconds


def sampled_phase(ops, workdir, launcher: Launcher, budget: float, tally: Tally, specs: list) -> dict:
    """Cold, warm and set-up samples for budget seconds.

    Each step takes one op: a cold run (a fresh interpreter), then a warm
    run (``main`` in this process), then a set-up sample while fewer than
    MAX_SETUP exist.  An op's first warm run is its untimed warm-up.  The
    first steps take the ops in list order.  Until the budget is spent,
    each further step takes the op with the least run time so far, so every
    op gets about the same share of the run and short ops get many samples.
    Then every op with fewer than MIN_STEPS steps gets its missing ones, so
    each op has at least two cold samples and one timed warm sample.
    """
    cold, warm, setup = [[] for _ in ops], [[] for _ in ops], []
    spent = [0.0] * len(ops)
    start = time.perf_counter()
    with contextlib.chdir(workdir):
        while True:
            unsampled = [k for k, runs in enumerate(cold) if not runs]
            short = [k for k, runs in enumerate(cold) if len(runs) < MIN_STEPS]
            if unsampled:
                i = unsampled[0]
            elif time.perf_counter() - start < budget:
                i = spent.index(min(spent))
            elif short:
                i = short[0]
            else:
                break
            op = ops[i]
            result = run_cold(op, workdir, launcher)
            tally.add(op, result, "cold")
            cold[i].append(result)
            spent[i] += result.seconds
            first = len(cold[i]) == 1
            result = run_warm(op, workdir)
            tally.add(op, result, "warm-up" if first else "warm")
            if not first:
                warm[i].append(result.seconds)
            spent[i] += result.seconds
            if len(setup) < MAX_SETUP:
                setup.append(setup_sample(specs, launcher, workdir))
    cold_s = [statistics.median(r.seconds for r in runs) for runs in cold]
    return {
        "pass_s": sum(cold_s),
        "frame_s": sum(t for op, t in zip(ops, cold_s) if op.kind == "frame"),
        "verdict_s": sum(t for op, t in zip(ops, cold_s) if op.kind in ("analyze", "verify")),
        "warm_pass_s": sum(statistics.median(runs) for runs in warm),
        "setup_s": statistics.median(setup),
        # each op's median over its runs, then the largest op
        "peak_rss_mb": max(statistics.median(r.rss_mb for r in runs) for runs in cold),
    }, {
        "cold_op_s": [[r.seconds for r in runs] for runs in cold],
        "warm_op_s": warm,
        "setup_s": setup,
    }


def traced_phase(ops, workdir, tally: Tally, spans_path: Path) -> tuple[dict, dict]:
    """Warm-up, traced, untraced, traced: per-layer numbers and tracer checks."""
    from normframes.expr import DomainError
    from tracer import SpanRecorder

    rec = SpanRecorder(DomainError)

    def run_numbered(op):
        rec.op_id += 1  # spans of one op share its id
        return run_warm(op, workdir)

    def timed(phase, traced):
        # the wrappers exist only during traced passes, so untraced passes run the bare program
        if traced:
            rec.install()
            rec.recording = True
        lo, errors = rec.mark(), rec.domain_errors
        try:
            results = run_pass(ops, run_numbered, tally, phase)
        finally:
            rec.recording = False
            rec.uninstall()
        return sum(r.seconds for r in results), (lo, rec.mark()), rec.domain_errors - errors

    with contextlib.chdir(workdir):
        timed("warm-up", False)
        t1, bounds1, errors1 = timed("traced", True)
        untraced, _, _ = timed("warm", False)
        t2, bounds2, errors2 = timed("traced", True)
    first, second = rec.aggregate(*bounds1), rec.aggregate(*bounds2)
    mismatched = sorted(k for k in first if first[k]["calls"] != second[k]["calls"])

    rec.save(spans_path, [bounds1, bounds2])
    metrics = {}
    for name in PER_LAYER:
        if name == "trace.domain_errors":
            value = errors1
        elif name == "trace.overhead_ratio":
            value = statistics.median([t1, t2]) / untraced - 1.0
        else:
            label, _, field = name.rpartition(".")
            pair = [first.get(label, {}).get(field, 0), second.get(label, {}).get(field, 0)]
            value = first.get(label, {}).get("calls", 0) if field == "calls" else statistics.median(pair)
        metrics[name] = value
    detail = {
        "traced_pass_s": [t1, t2],
        "untraced_pass_s": untraced,
        "domain_errors": [errors1, errors2],
        "calls_mismatched": mismatched,
        "spans": int(bounds2[1] - bounds1[0]),
        "layers": {"traced_1": first, "traced_2": second},
    }
    return metrics, detail


def checker_self_test() -> list:
    """The checks must flag a planted wrong matrix entry and a planted traceback."""
    import numpy as np

    domain, counts = [[1.0, 2.0], [0.0, 1.6]], (5, 4)
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(domain, counts)]
    matrices = checks.polar_grid_frame(*np.meshgrid(*axes, indexing="ij"))
    locus = {"grid": {"axes": [a.tolist() for a in axes], "base_index": [0, 0]}}
    problems = []
    if checks.check_polar_grid({"data": {"matrices": matrices}, "locus": locus}, domain, counts):
        problems.append("self-test: the closed form does not pass its own check")
    planted = matrices.copy()
    planted[3, 2, 1, 0] += 1e-6
    if not checks.check_polar_grid({"data": {"matrices": planted}, "locus": locus}, domain, counts):
        problems.append("self-test: a planted wrong matrix entry was not flagged")
    op = workloads.Op("verify", ("verify",), expect_exit=0, out=None, check=lambda _doc: [])
    clean = OpResult(exit_code=0, stderr="", seconds=0.0, out_doc=None)
    crashed = OpResult(exit_code=0, stderr=f"{checks.TRACEBACK}:\n  File ...\nValueError\n",
                       seconds=0.0, out_doc=None)
    if classify(op, clean)[0] != "ok":
        problems.append("self-test: a clean op was flagged")
    if classify(op, crashed)[0] == "ok":
        problems.append("self-test: a planted traceback was not flagged")
    return problems


# ---------------------------------------------------------------------------
# provenance


def provenance(args, counts: dict) -> dict:
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "normframes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, one client, one process, no extra threads",
        "counts": counts,
        "tail": "no percentile above the median has ten samples beyond it in one run; "
                "every sample is kept in detail",
    }


# ---------------------------------------------------------------------------
# entry points


def check_benchmark_json():
    """BENCHMARK.json and this file must name the same metrics and units."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    doc = json.loads(path.read_text())
    declared = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if declared != END_TO_END or layers != {n: layer_unit(n) for n in PER_LAYER}:
        raise SystemExit("BENCHMARK.json and benchmarks/run.py disagree on the metrics")
    if set(w["name"] for w in doc["workloads"]) != set(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json and benchmarks/workloads.py disagree on the workloads")


def run_one(args) -> dict:
    ops = workloads.build_ops(args.workload, args.seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    compileall.compile_dir(str(SRC / "normframes"), quiet=1)
    sys.path.insert(0, str(SRC))
    import normframes.cli  # noqa: F401 - the warm passes call it

    if not Path(sys.modules["normframes"].__file__).resolve().is_relative_to(SRC):
        raise SystemExit("normframes was not imported from this checkout's src/")

    tally = Tally()
    self_test_problems = checker_self_test()
    RESULTS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, detail = traced_phase(ops, workdir, tally, RESULTS / f"{args.workload}-spans.npz")
            units = {n: layer_unit(n) for n in PER_LAYER}
            counts = {"traced_passes": 2, "untraced_passes": 1, "warm_up_passes": 1,
                      "spans": detail["spans"]}
            tracer_problems = [f"calls differ between traced passes: {detail['calls_mismatched']}"
                               ] if detail["calls_mismatched"] else []
        else:
            specs = workloads.workload_specs(args.workload)
            with Launcher(env) as launcher:
                metrics, detail = sampled_phase(ops, workdir, launcher, args.seconds, tally, specs)
            # share of the op list whose every run met its expected outcome
            metrics["ok_ratio"] = 1.0 - len(tally.failed_ops) / len(ops)
            units = END_TO_END
            counts = {"setup_samples": len(detail["setup_s"]),
                      "cold_runs_per_op": [len(t) for t in detail["cold_op_s"]],
                      "warm_runs_per_op": [len(t) for t in detail["warm_op_s"]],
                      "warm_up_runs_per_op": 1, "ops_per_pass": len(ops)}
            tracer_problems = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    problems = self_test_problems + tracer_problems
    correct = not problems and not tally.unexpected
    result = {
        "correct": correct,
        # ops of the list, an op failing when any of its runs failed: the
        # number of runs depends on the host's speed, the op list does not
        "attempted": len(ops),
        "failed": len(tally.failed_ops),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = dict(result, provenance=provenance(args, counts), op_runs=tally.attempted,
                  op_runs_failed=tally.attempted - tally.ok, known_defects=tally.known_defects,
                  unexpected=tally.unexpected, harness_problems=problems,
                  ops=[list(op.argv) for op in ops], detail=detail)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result


def run_all(args):
    """Every workload, untraced then traced, as child runs of this script."""
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"workload {name} (trace {trace}) failed")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, entry in result["metrics"].items():
                print(f"  {metric:44s} {entry['value']:.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "normframes" / "cli.py").is_file():
        print(f"no normframes sources under {SRC}", file=sys.stderr)
        return 2
    check_benchmark_json()
    if args.workload == "all":
        run_all(args)
    else:
        print(json.dumps(run_one(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
