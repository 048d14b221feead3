#!/usr/bin/env python3
"""Benchmark for the ac_diamond package in ``src/`` of the current directory.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of headline, sweep-fine, or ``all`` to run both in turn.  The
load is a closed loop with one client: each invocation starts after the
previous one has been reaped, and passes of the workload repeat until S
seconds are used.

--trace 0 runs every invocation as a fresh subprocess (``python3 -m
ac_diamond.cli``) and reports the end-to-end metrics.
--trace 1 runs the same inputs in this process through ``ac_diamond.cli.main``,
alternating untraced and traced passes, and reports the per-layer metrics of
the traced passes plus the tracing overhead.

Outputs are checked after the timed section against the references in
``reference.py``.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the run record (machine, generated
inputs, per-invocation results, spans) is written under ``.perfbench/``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))


def _capped_threads(env) -> dict[str, str]:
    """BLAS/OpenMP thread counts, defaulting to and capped at nproc."""
    capped = {}
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, NPROC))
        except ValueError:
            want = NPROC
        capped[var] = str(max(1, min(want, NPROC)))
    return capped


if __name__ == "__main__":
    # Before numpy loads, so the traced (in-process) runs use the same threads.
    os.environ.update(_capped_threads(os.environ))

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 16
TAIL_PERCENTILE = 95.0
TRACE_OFF_METRICS = {
    "setup_s": "s", "wall_s": "s", "latency_p50_s": "s", "latency_tail_s": "s",
    "peak_rss_mb": "MB", "work_per_s": "1/s",
}

@dataclass
class Result:
    """What one invocation did."""

    invocation: workloads.Invocation
    stdout: Path
    stderr: Path
    exit_code: int
    latency: float
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)
    failed: bool = False


@dataclass
class Pass:
    wall: float
    results: list[Result]
    traced: bool = False
    spans: int = 0  # spans recorded (traced passes)
    layer: dict = field(default_factory=dict)


# --------------------------------------------------------------------------
# Child processes


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env.update(_capped_threads(os.environ))
    return env


class Launcher:
    """Child processes spawned through ``launcher.py`` with the children's
    environment, one at a time.

    The rusage of ``os.wait4`` in the launcher belongs to one child alone,
    unlike RUSAGE_CHILDREN, which keeps a running maximum over all children.
    """

    def __init__(self, root: Path, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=env, cwd=root, text=True)

    def run(self, cmd: list[str], stdout: Path, stderr: Path):
        """(spawn-to-reap seconds, exit code, peak RSS MB) of cmd."""
        request = {"cmd": cmd, "stdout": str(stdout), "stderr": str(stderr)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"perfbench launcher exited with {self.proc.wait()}")
        reply = json.loads(line)
        return reply["seconds"], reply["exit_code"], reply["maxrss_kb"] / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *_):
        if exc_type is not None:
            self.proc.kill()
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class ImportProbe:
    """Fresh interpreters that import ``module`` from ``src/``.

    Each sample records the spawn-to-reap wall time and the import time
    measured inside the child.  One unmeasured probe first compiles the
    bytecode cache.
    """

    def __init__(self, launcher: Launcher, root: Path, module: str):
        self.launcher, self.root = launcher, root
        self.code = ("import time; t = time.perf_counter(); import {m}, ac_diamond; "
                     "print(time.perf_counter() - t); print(ac_diamond.__file__)"
                     ).format(m=module)
        self.walls: list[float] = []
        self.imports: list[float] = []
        self._probe()

    def _probe(self) -> tuple[float, float]:
        out, err = self.root / ".perfbench" / "probe.out", self.root / ".perfbench" / "probe.err"
        wall, code, _ = self.launcher.run([sys.executable, "-c", self.code], out, err)
        lines = out.read_text().split()
        if code != 0 or len(lines) != 2 or not _inside(Path(lines[1]), self.root / "src"):
            raise SystemExit(f"perfbench: cannot import ac_diamond from {self.root / 'src'}: "
                             f"{err.read_text(errors='replace')[-500:]}")
        return wall, float(lines[0])

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            wall, imported = self._probe()
            self.walls.append(wall)
            self.imports.append(imported)


def _inside(path: Path, parent: Path) -> bool:
    return path.resolve().is_relative_to(parent.resolve())


def run_subprocess(launcher: Launcher, inv, k: int, i: int, out_dir: Path) -> Result:
    stdout, stderr = out_dir / f"p{k}-{i}.stdout", out_dir / f"p{k}-{i}.stderr"
    wall, code, rss = launcher.run([sys.executable, "-m", "ac_diamond.cli", *inv.argv],
                                   stdout, stderr)
    return Result(inv, stdout, stderr, code, wall, rss)


# --------------------------------------------------------------------------
# In-process runs (trace mode)


class InProcess:
    """Runs invocations through ``ac_diamond.cli.main`` in this process,
    optionally under a tracer."""

    def __init__(self, root: Path):
        sys.path.insert(0, str(root / "src"))
        import ac_diamond.cli

        if not _inside(Path(ac_diamond.cli.__file__), root / "src"):
            raise SystemExit(f"perfbench: ac_diamond imported from {ac_diamond.cli.__file__}")
        self.cli_main = ac_diamond.cli.main
        self.tracer = tracing.Tracer()
        self.traced_main = self.tracer.wrap("cli.main", self.cli_main)

    def run(self, inv, k: int, i: int, out_dir: Path, traced: bool) -> Result:
        stdout, stderr = out_dir / f"p{k}-{i}.stdout", out_dir / f"p{k}-{i}.stderr"
        self.tracer.invocation += 1
        with open(stdout, "w") as so, open(stderr, "w") as se, \
                contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            start = time.perf_counter()
            try:
                code = (self.traced_main if traced else self.cli_main)(inv.argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # counted as a failed invocation by the checker
                traceback.print_exc()
                code = 1
            wall = time.perf_counter() - start
        return Result(inv, stdout, stderr, code, wall)


# --------------------------------------------------------------------------
# Passes, checks and metrics


def timed_passes(workload, seconds: float, out_dir: Path, run_one, tracer=None,
                 between=None):
    """Closed loop: pass after pass until ``seconds`` have elapsed.

    ``between()`` runs after each pass; its time counts towards ``seconds``
    but not towards any pass.

    With a tracer, pass 0 warms up, then untraced and traced passes alternate
    (at least one of each); the tracer keeps the spans of the last traced pass.
    """
    passes = []
    deadline = time.perf_counter() + seconds
    while len(passes) < (3 if tracer else 1) or time.perf_counter() < deadline:
        k = len(passes)
        traced = tracer is not None and k % 2 == 1
        invocations = workload.invocations(k, out_dir)
        if traced:
            tracer.spans.clear()
            tracer.counts.clear()
            tracer.install()
        try:
            start = time.perf_counter()
            results = [run_one(inv, k, i, traced) for i, inv in enumerate(invocations)]
            wall = time.perf_counter() - start
        finally:
            if traced:
                tracer.uninstall()
        p = Pass(wall, results, traced)
        if traced:
            p.spans = len(tracer.spans)
            p.layer = tracing.layer_metrics(list(enumerate(tracer.spans)), tracer.counts)
        passes.append(p)
        if between:
            between()
    return passes


def check(result: Result) -> None:
    """Fill in ``problems`` and ``failed``; runs outside the timed section."""
    stderr = result.stderr.read_text(errors="replace")
    problems = []
    if result.exit_code != 0:
        problems.append(f"exit code {result.exit_code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    if not problems:
        try:
            problems = result.invocation.check(result.invocation.out)
        except Exception as exc:  # a malformed output is a failed invocation
            problems = [f"unreadable output {result.invocation.out.name}: {exc!r}"]
    result.problems = problems
    result.failed = bool(problems)


def end_to_end(passes: list[Pass], setup_walls: list[float]) -> tuple[dict, dict]:
    results = [r for p in passes for r in p.results]
    latencies = [r.latency for r in results]
    values = {
        "setup_s": statistics.median(setup_walls),
        "wall_s": statistics.median(p.wall for p in passes),
        "latency_p50_s": float(np.percentile(latencies, 50)),
        "latency_tail_s": float(np.percentile(latencies, TAIL_PERCENTILE)),
        "peak_rss_mb": max(r.rss_mb for r in results),
        "work_per_s": statistics.median(
            sum(r.invocation.work for r in p.results if not r.failed) / p.wall
            for p in passes),
    }
    beyond = sum(1 for x in latencies if x > values["latency_tail_s"])
    extra = {"tail_percentile": TAIL_PERCENTILE, "latency_samples": len(latencies),
             "samples_beyond_tail": beyond, "passes": len(passes),
             "setup_s_samples": setup_walls}
    return values, extra


def per_layer(passes: list[Pass], import_times: list[float]) -> tuple[dict, dict]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes[1:] if not p.traced]  # pass 0 warms up
    values = {"cli.import_s": statistics.median(import_times)}
    for name in traced[0].layer:
        values[name] = statistics.median(p.layer[name] for p in traced)
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.spans"] = statistics.median(p.spans for p in traced)
    counts_repeat = all(
        p.layer[name] == traced[0].layer[name] for p in traced for name in p.layer
        if tracing.unit_of(name) not in ("s", "ns"))
    extra = {"traced_passes": len(traced), "untraced_passes": len(untraced),
             "traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall,
             "counts_repeat_exactly": counts_repeat}
    return values, extra


# --------------------------------------------------------------------------
# Machine record


def machine_record(root: Path) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        with contextlib.suppress(OSError, subprocess.CalledProcessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                                    capture_output=True, text=True).stdout.strip()
    return {
        "nproc": NPROC, "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "thread_env": _capped_threads(os.environ), "src_sha256": digest.hexdigest(),
        "git_commit": commit,
    }


# --------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: Path,
                 in_process: InProcess | None) -> dict:
    work_dir = root / ".perfbench"
    out_dir = work_dir / "out" / name
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](seed, root, work_dir / "inputs" / name)

    with Launcher(root, child_env(root)) as launcher:
        if not trace:
            probe = ImportProbe(launcher, root, "ac_diamond")
            begin = time.perf_counter()

            def spaced_probe():
                # Set-up samples spread over the run, so that no one state of
                # a shared machine decides the median.
                due = int(SETUP_PROBES * (time.perf_counter() - begin) / seconds)
                probe.sample(max(0, min(due, SETUP_PROBES) - len(probe.walls)))

            passes = timed_passes(
                workload, seconds, out_dir,
                lambda inv, k, i, _traced: run_subprocess(launcher, inv, k, i, out_dir),
                between=spaced_probe)
            probe.sample(max(0, SETUP_PROBES - len(probe.walls)))
            setup_walls = probe.walls
        else:
            probe = ImportProbe(launcher, root, "ac_diamond.cli")
            probe.sample(SETUP_PROBES)
            import_times = probe.imports
    if trace:
        passes = timed_passes(
            workload, seconds, out_dir,
            lambda inv, k, i, traced: in_process.run(inv, k, i, out_dir, traced),
            in_process.tracer)

    for p in passes:
        for r in p.results:
            check(r)
    results = [r for p in passes for r in p.results]
    attempted = len(results)
    failed = sum(r.failed for r in results)
    if trace:
        values, extra = per_layer(passes, import_times)
        metrics = {n: {"value": v, "unit": tracing.unit_of(n)} for n, v in values.items()}
    else:
        values, extra = end_to_end(passes, setup_walls)
        metrics = {n: {"value": v, "unit": TRACE_OFF_METRICS[n]} for n, v in values.items()}
    extra.update(failed_ratio=failed / attempted, work_unit=workload.work_unit)

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_record(root), "inputs": workload.inputs,
        "pass_walls_s": [p.wall for p in passes],
        "invocations": [
            {"pass": k, "label": r.invocation.label, "argv": r.invocation.argv,
             "exit_code": r.exit_code, "latency_s": r.latency, "rss_mb": r.rss_mb,
             "failed": r.failed, "problems": r.problems}
            for k, p in enumerate(passes) for r in p.results
        ],
        "attempted": attempted, "failed": failed, "metrics": metrics, "details": extra,
    }
    if trace:
        record["spans_last_traced_pass"] = {
            "fields": ["name", "start_s", "end_s", "parent", "invocation", "attr"],
            "spans": in_process.tracer.spans}
    (work_dir / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, default=str))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    for needed in ("src/ac_diamond/cli.py", "configs/default.cfg", "configs/phi10.cfg"):
        if not (root / needed).is_file():
            print(f"perfbench: {needed} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    (root / ".perfbench").mkdir(exist_ok=True)
    in_process = InProcess(root) if args.trace else None
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, bool(args.trace), root, in_process)
               for n in names]

    for rec in records:
        print(f"[{rec['workload']}] seed {rec['seed']}, trace {rec['trace']}: "
              f"{rec['failed']}/{rec['attempted']} failed")
        for name, m in rec["metrics"].items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
        for key, value in rec["details"].items():
            print(f"  ({key} = {value})")
        for inv in rec["invocations"]:
            for problem in inv["problems"]:
                print(f"  FAILED pass {inv['pass']} {inv['label']}: {problem}")
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in records for n, m in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
