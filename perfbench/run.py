"""Benchmark entry point.

    python3 perfbench/run.py --workload count --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  Load model: one client in a closed loop.
Ops run one at a time in a fixed order; each CLI op starts a fresh Python
process that imports `propp` from the checkout's `src/` and calls
`propp.cli.main(argv + ["--out", tmp, "--threads", "1"])`, so every command
pays a cold prime cache as a user would.  The `session` workload runs its
library calls in one process.  Passes over the op list repeat while the
next one is expected to end within `--seconds` (at least one pass); every
op's output is checked against a reference answer after it is timed.

With `--trace 0` the last stdout line reports the end-to-end metrics; with
`--trace 1` passes alternate untraced and traced, and it reports the
per-layer metrics.  Lines before it, starting with `#`, give the
per-command metrics, the failure ratio and the environment.  Exit status 2,
with no result line, when the checkout's `src/propp` is missing or the
package resolves anywhere else.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 9
# every run must end within 180 s; stop starting ops past this point
RUN_DEADLINE_S = 165.0


def _as_metrics(kind: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares under `kind`, with their units."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


class RefusedError(Exception):
    """The benchmark cannot measure this checkout's code."""


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)] if ordered else 0.0


def source_identity() -> dict:
    """The git commit when the checkout is a repository, and a digest of
    the package sources either way."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "propp")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_digest": h.hexdigest()[:16]}


class Runner:
    def __init__(self, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PROPP_PLIMIT", "PYTHONPATH", "PYTHONHOME")}
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        self.setup_s: list = []
        self.peak_rss_mb = 0.0
        self.propp_file = None

    def spawn(self, mode: str, extra: list, trace: bool):
        """Run one child; returns (report or None, parent wall, stderr)."""
        report_path = os.path.join(self.workdir, "report.json")
        if os.path.exists(report_path):
            os.remove(report_path)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None, 0.0, "run deadline reached"
        t0 = time.monotonic()
        cmd = [sys.executable, CHILD, report_path, SRC, repr(t0),
               "1" if trace else "0", mode] + extra
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.workdir, timeout=timeout,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        except subprocess.TimeoutExpired:
            return None, time.monotonic() - t0, "timed out"
        wall = time.monotonic() - t0
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            return None, wall, proc.stderr.decode(errors="replace")[-400:]
        if "error" in report:
            raise RefusedError(report["error"])
        self.propp_file = report["propp_file"]
        self.setup_s.append(report["setup_s"])
        self.peak_rss_mb = max(self.peak_rss_mb, report["peak_rss_mb"])
        return report, wall, proc.stderr.decode(errors="replace")[-400:]

    def probe(self) -> None:
        report, _, err = self.spawn("probe", [], False)
        if report is None:
            raise RefusedError(f"cannot import propp from {SRC}: {err.strip()}")


class Pass:
    """Timings, failures and trace statistics of one pass over the op list."""

    def __init__(self, traced: bool):
        self.traced = traced
        # per process and per op, in plan order; None where an op gave no time
        self.walls: list = []
        self.op_s: list = []
        self.families: dict = {}
        self.queries: list = []
        self.attempted = 0
        self.failures: list = []
        self.trace_ops: list = []
        self.spans: list = []
        self.bytes_out = 0

    @property
    def wall(self) -> float:
        return sum(self.walls)

    def record(self, family: str, op_s: float) -> None:
        self.op_s.append(op_s)
        self.families[family] = self.families.get(family, 0.0) + op_s


def _sum_of_medians(rows: list) -> float:
    """Sum over positions of the median across passes: each op's time is
    taken from its own median pass, so a burst of load on the shared host
    during one op of one pass does not move the total."""
    return sum(_median([v for v in column if v is not None]) for column in zip(*rows))


def _take_trace(p: Pass, entry: dict, label: str) -> None:
    t = entry["trace"]
    total = sum(t["self_s"].values())
    if abs(total - t["wall_s"]) > 1e-6:
        p.failures.append(f"{label}: layer self times sum to {total}, traced wall "
                          f"{t['wall_s']}")
    p.trace_ops.append(t)


def run_pass(runner: Runner, plan: workloads.Plan, traced: bool) -> Pass:
    p = Pass(traced)
    out_path = os.path.join(runner.workdir, "out.txt")
    for op in plan.ops:
        if os.path.exists(out_path):
            os.remove(out_path)
        argv = op.argv + ["--out", out_path, "--threads", "1"]
        report, wall, err = runner.spawn("cli", argv, traced)
        p.walls.append(wall)
        p.attempted += 1
        if report is None or not report["ops"]:
            p.failures.append(f"{' '.join(op.argv)}: no report ({err.strip()})")
            p.op_s.append(None)
            continue
        entry = report["ops"][0]
        p.record(op.family, entry["op_s"])
        try:
            with open(out_path, "rb") as fh:
                out = fh.read()
        except OSError:
            out = b""
        problem = op.check(entry["rc"], out)
        if problem:
            p.failures.append(f"{' '.join(op.argv)}: {problem}")
        if traced:
            p.bytes_out += len(out)
            _take_trace(p, entry, op.family)
            p.spans.append({"op": op.argv, "spans": report["spans"]})
    if plan.session is not None:
        spec = os.path.join(runner.workdir, "session.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(plan.session, fh)
        report, wall, err = runner.spawn("session", [spec], traced)
        p.walls.append(wall)
        p.attempted += len(plan.session)
        if report is None or len(report["ops"]) != len(plan.session):
            p.failures.append(f"session: incomplete report ({err.strip()})")
            p.op_s.extend([None] * len(plan.session))
            return p
        for query, check, entry in zip(plan.session, plan.session_checks, report["ops"]):
            kind = query[0]
            if kind == "compare":
                p.record("compare", entry["op_s"])
            else:
                p.op_s.append(entry["op_s"])
                p.queries.append(entry["op_s"])
            problem = check(entry["result"])
            if problem:
                p.failures.append(problem)
            if traced:
                _take_trace(p, entry, kind)
        if traced:
            p.spans.append({"op": ["session"], "spans": report["spans"]})
    return p


def end_to_end(runner: Runner, passes: list) -> dict:
    plain = [p for p in passes if not p.traced]
    values = {
        "wall_s": _sum_of_medians([p.walls for p in plain]),
        "work_s": _sum_of_medians([p.op_s for p in plain]),
        "peak_rss_mb": runner.peak_rss_mb,
        "setup_s": _median(runner.setup_s),
    }
    return _as_metrics("end_to_end", values)


def per_command(passes: list) -> dict:
    """The per-command metrics of this workload (untraced passes)."""
    plain = [p for p in passes if not p.traced]
    out = {}
    for family in dict.fromkeys(f for p in plain for f in p.families):
        out[f"{family}_s"] = (_median([p.families.get(family, 0.0) for p in plain]), "s")
    queries = [t for p in plain for t in p.queries]
    if queries:
        out["query_p50_ms"] = (1000.0 * _percentile(queries, 50), "ms")
        out["query_p95_ms"] = (1000.0 * _percentile(queries, 95), "ms")
    attempted = sum(p.attempted for p in passes)
    out["fail_ratio"] = (sum(len(p.failures) for p in passes) / max(attempted, 1), "ratio")
    return out


def per_layer(passes: list) -> dict:
    """Per-layer metrics: sums per traced pass, averaged over traced passes;
    maxima over every traced op."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    n = len(traced)
    values = {}
    for layer in layers.ALL_LAYERS:
        values[f"{layer}.self_s"] = sum(
            t["self_s"][layer] for p in traced for t in p.trace_ops) / n
    for key in layers.COUNTERS:
        values[key] = sum(t["counts"][key] for p in traced for t in p.trace_ops) / n
    values["cli.bytes_out"] = sum(p.bytes_out for p in traced) / n
    for key in layers.MAXIMA:
        values[key] = max((t["maxima"][key] for p in traced for t in p.trace_ops),
                          default=0)
    calls = values["primes.calls"]
    values["primes.cache_hit_ratio"] = (1.0 - values["primes.sieve_passes"] / calls
                                        if calls else 0.0)
    values["trace.overhead_ratio"] = (_median([p.wall for p in traced])
                                      / _median([p.wall for p in plain]))
    return _as_metrics("per_layer", values)


def measure(args) -> dict:
    if not os.path.isfile(os.path.join(SRC, "propp", "__init__.py")):
        raise RefusedError(f"no package source at {os.path.join(SRC, 'propp')}")
    started = time.monotonic()
    workdir = os.path.join(ROOT, ".perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(workdir, started + RUN_DEADLINE_S)
        for _ in range(SETUP_PROBES):
            runner.probe()
        plan = workloads.build(args.workload, args.seed, workdir)
        passes = []
        t0 = time.monotonic()
        rounds = 0
        # start another round only if it should end within --seconds
        while True:
            passes.append(run_pass(runner, plan, traced=False))
            if args.trace:
                passes.append(run_pass(runner, plan, traced=True))
            rounds += 1
            elapsed = time.monotonic() - t0
            if elapsed * (rounds + 1) / rounds > args.seconds or (
                    time.monotonic() > runner.deadline):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    failures = [f for p in passes for f in p.failures]
    for f in failures[:20]:
        print(f"# FAIL {f}")
    info = {"workload": args.workload, "seed": args.seed,
            "pass_wall_s": [round(p.wall, 3) for p in passes],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "propp_file": runner.propp_file}
    info.update(source_identity())
    print("# env " + json.dumps(info))
    for name, (value, unit) in per_command(passes).items():
        print(f"# {name} = {value:.6g} {unit}")
    if args.trace:
        metrics = per_layer(passes)
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump([s for p in passes for s in p.spans], fh)
    else:
        metrics = end_to_end(runner, passes)
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    attempted = sum(p.attempted for p in passes)
    return {"correct": not failures, "attempted": attempted,
            "failed": min(len(failures), attempted), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except RefusedError as exc:
        print(f"perfbench: refusing to run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
