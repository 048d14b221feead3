#!/usr/bin/env python3
"""Measure the benchmark's baseline and write it to perfbench/baseline.json.

Usage (from the repository root; about 25 minutes):

    python3 perfbench/baseline.py

Runs every workload untraced once per seed (seeds 1..10) for BENCHMARK.json's
run_seconds, and traced for seeds 1 and 2.  For each metric it records the
median, the quartiles and the spread (quartile distance over median) of the
per-run values, next to the per-layer -> end-to-end metric map below and a
comparison with the single-run figures of the ROADMAP baseline table.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import SWEEP_GRID

HERE = Path(__file__).resolve().parent
WORKLOADS = ("headline", "sweep-fine")
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 3)
SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

# headline's tail is the latency of its holonomy recipe.
HOLONOMY_MOVES = [("latency_tail_s", ["headline"]), ("wall_s", ["headline"])]
# Per-layer metric -> the end-to-end metrics it should move, on which workloads.
METRIC_MAP = {
    "cli.import_s": [("setup_s", WORKLOADS), ("latency_p50_s", ["headline"])],
    "cli.main_s.*": [("latency_p50_s", ["headline"])],
    "config.load_config_s": [("latency_p50_s", ["headline"])],
    "config.load_config.calls": [("latency_p50_s", ["headline"])],
    "geometry.velocity_s": [("latency_tail_s", ["headline"])],
    "geometry.velocity.points": [("latency_tail_s", ["headline"])],
    "geometry.position.calls": [("wall_s", ["sweep-fine"])],
    "phase.segment_phase_s": [("wall_s", ["sweep-fine"]), ("work_per_s", ["sweep-fine"])],
    "phase.segment_phase.calls": [("wall_s", ["sweep-fine"]), ("work_per_s", ["sweep-fine"])],
    "phase.total_rectified_phase.calls": [("wall_s", ["sweep-fine"]),
                                          ("work_per_s", ["sweep-fine"])],
    "sequence.sweep_signal_s": [("wall_s", ["sweep-fine"])],
    "sequence.simulate_run.closed_form_s": [("wall_s", ["sweep-fine"])],
    "sequence.simulate_run.calls": [("wall_s", ["sweep-fine"])],
    "sequence.runs_per_point": [("wall_s", ["sweep-fine"])],
    "sequence.build_echo_schedule_s": [("latency_p50_s", ["headline"])],
    "holonomy.path_ordered_propagator_s": HOLONOMY_MOVES,
    "holonomy.path_ordered_propagator.calls": HOLONOMY_MOVES,
    "holonomy.steps": HOLONOMY_MOVES,
    "holonomy.ns_per_step": HOLONOMY_MOVES,
    "holonomy.stack_bytes": [("peak_rss_mb", ["headline"])],
    "holonomy.unitarity_defect_s": [("latency_tail_s", ["headline"])],
    "measurement.monte_carlo_experiment_s": [("latency_p50_s", ["headline"])],
    "measurement.shots": [("latency_p50_s", ["headline"])],
}
# Predicted non-moves: where each mechanism is bypassed.  The holonomy recipe
# calls no closed-form phase.
NO_MOVE = {
    "phase.*": [("latency_tail_s", ["headline"])],
    "holonomy.path_ordered_propagator*": [("wall_s", ["sweep-fine"])],
}
# Single-run figures of the ROADMAP baseline table.
ROADMAP = {"sweep_us_per_point": 934.0, "holonomy_1e5_s": 1.49, "import_s": 0.17,
           "holonomy_1e5_rss_mb": 103.0}


def run_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def cross_read(baseline: dict) -> list[str]:
    """The baseline medians next to the ROADMAP figures they correspond to."""
    def median(workload, kind, name):
        return baseline[workload][kind][name]["median"]

    def versus(label, ours, theirs):
        return f"{label}: {ours:.4g} here vs ROADMAP {theirs:.4g} ({ours / theirs - 1:+.0%})"

    return [
        versus("sweep_signal us/pt at n = 7 (traced sweep-fine, in-process)",
               1e6 * median("sweep-fine", "per_layer", "sequence.sweep_signal_s") / SWEEP_GRID,
               ROADMAP["sweep_us_per_point"]),
        versus("holonomy 1e5 steps s (traced headline cli.main, in-process)",
               median("headline", "per_layer", "cli.main_s.holonomy"),
               ROADMAP["holonomy_1e5_s"]),
        versus("holonomy 1e5 steps s (headline latency_tail_s, subprocess)",
               median("headline", "end_to_end", "latency_tail_s"), ROADMAP["holonomy_1e5_s"]),
        versus("import s (cli.import_s, inside a fresh child)",
               median("headline", "per_layer", "cli.import_s"), ROADMAP["import_s"]),
        versus("import s (setup_s, spawn to exit of a fresh interpreter)",
               median("headline", "end_to_end", "setup_s"), ROADMAP["import_s"]),
        versus("holonomy 1e5 steps peak RSS MB (headline peak_rss_mb)",
               median("headline", "end_to_end", "peak_rss_mb"),
               ROADMAP["holonomy_1e5_rss_mb"]),
    ]


def main() -> int:
    baseline = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, 0) for seed in SEEDS]
        traced = [run_once(workload, seed, 1) for seed in TRACED_SEEDS]
        entry = {"failed": sum(r["failed"] for r in runs + traced),
                 "attempted": sum(r["attempted"] for r in runs + traced)}
        for key, results in (("end_to_end", runs), ("per_layer", traced)):
            entry[key] = {
                name: {"unit": results[0]["metrics"][name]["unit"],
                       **summary([r["metrics"][name]["value"] for r in results])}
                for name in results[0]["metrics"]
            }
        baseline[workload] = entry
        for name, s in entry["end_to_end"].items():
            print(f"{workload:18s} {name:16s} median {s['median']:.6g} "
                  f"spread {s['spread']:.3f}", flush=True)

    record = {
        "metric_map": {k: [{"metric": m, "workloads": list(w)} for m, w in v]
                       for k, v in METRIC_MAP.items()},
        "predicted_no_move": {k: [{"metric": m, "workloads": list(w)} for m, w in v]
                              for k, v in NO_MOVE.items()},
        "settings": {"seeds": list(SEEDS), "traced_seeds": list(TRACED_SEEDS),
                     "seconds": SECONDS},
        "baseline": baseline,
        "roadmap_cross_read": cross_read(baseline),
    }
    (HERE / "baseline.json").write_text(json.dumps(record, indent=1) + "\n")
    for line in record["roadmap_cross_read"]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
