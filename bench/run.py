#!/usr/bin/env python3
"""The vbraid benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload hunt3 --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and from nowhere else, and exits with status 2
without a result when there is none.

With ``--trace 0`` it times the workload untraced for ``--seconds`` seconds
and reports the end-to-end metrics of ``BENCHMARK.json``.  With
``--trace 1`` it replays a fixed seeded batch of every workload, untraced
and then traced, and reports the per-layer metrics (``layers.py``).  The
line before the result is a record of the run: configuration, environment,
the metrics under their workload names, the output fingerprints and the
first failed checks.  The same record, and in traced runs the spans, are
written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
WORKLOAD_NAMES = ("hunt3", "battery3", "certify2", "bnlong")
SETUP_REPEATS = 11

# Runs in a fresh interpreter: import the package, then build the workload's
# fixed objects; prints the seconds both took.
_SETUP_PROBE = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
started = time.perf_counter()
import vbraid
imported = time.perf_counter()
import workloads
prepared = time.perf_counter()
workloads.WORKLOADS[sys.argv[3]][0]()
print(imported - started + time.perf_counter() - prepared)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= 120:
        parser.error("--seconds must be in (0, 120]")
    return args


def load_package():
    """Import vbraid from this checkout's src/, or exit 2."""
    if not (SRC / "vbraid" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'vbraid'}; run from a vbraid checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import vbraid

    if Path(vbraid.__file__).resolve().parent != SRC / "vbraid":
        print(f"bench: imported vbraid from {vbraid.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    return vbraid


def git_revision() -> str | None:
    """HEAD of the checkout's .git, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(vbraid) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "vbraid": vbraid.__version__,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop that does not touch the package.

    Recorded beside the metrics, it tells a change of the machine's speed
    between runs apart from a change of the program.
    """
    started = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - started) * 1000


class SetupSampler:
    """Fresh-interpreter import plus workload set-up, ``SETUP_REPEATS`` times,
    each with a ``reference_ms()`` sample.

    Called after each timed operation, it spreads its samples over the run,
    so that they meet the machine in the same states as the timed calls do;
    the machine's speed changes over seconds.
    """

    def __init__(self, workload: str, seconds: float):
        self.workload = workload
        self.interval = seconds / SETUP_REPEATS
        self.due = time.perf_counter()
        self.samples: list[float] = []
        self.references: list[float] = []

    def __call__(self) -> None:
        if len(self.samples) < SETUP_REPEATS and time.perf_counter() >= self.due:
            self.take()
            self.due = time.perf_counter() + self.interval

    def take(self) -> None:
        completed = subprocess.run(
            [sys.executable, "-I", "-c", _SETUP_PROBE, str(SRC), str(BENCH), self.workload],
            capture_output=True, text=True, check=True, timeout=60,
        )
        self.samples.append(float(completed.stdout))
        self.references.append(reference_ms())

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_REPEATS:
            self.take()
        return self.samples


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(args):
    import workloads

    setup, measure = workloads.WORKLOADS[args.workload]
    state = setup()
    sampler = SetupSampler(args.workload, args.seconds)
    run = measure(args.seed, args.seconds, state, between=sampler)
    setups = sampler.finish()
    metrics = {
        "throughput_per_s": (run.throughput, "1/s"),
        "latency_ms_p50": (statistics.median(run.latencies_ms), "ms"),
        "latency_ms_p90": (workloads.percentile(run.latencies_ms, 90), "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    outcome = run.outcome
    named = {
        **run.named,
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "error_rate": (outcome.failed / outcome.attempted, "ratio"),
    }
    record = {
        "config": run.config,
        "decide_operations": len(run.latencies_ms),
        "setup_samples_s": setups,
        "machine_reference_ms": statistics.median(sampler.references),
        "named_metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in named.items()},
        "fingerprint": run.fingerprint,
    }
    return metrics, record, outcome


def traced(args):
    import layers

    metrics, tracers, outcome = layers.trace_all(args.seed)
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
    with open(spans_path, "w") as handle:
        json.dump(
            {
                "fields": ["name", "start_ns", "end_ns", "parent"],
                "replays": {name: tracer.spans for name, tracer in tracers.items()},
            },
            handle,
        )
    self_ms = {
        name: {span: round(ns / 1e6, 3) for span, ns in tracer.self_ns().items()}
        for name, tracer in tracers.items()
    }
    units = {name: spec[0] for name, spec in layers.LAYER_METRICS.items()}
    record = {
        "config": {name: value for name, value in vars(layers).items() if name.startswith("TRACE_")},
        "counts": {name: metrics[name] for name in layers.COUNTS},
        "layer_map": {
            name: {"measured_on": workload, "moves": moves, "roadmap_item": item}
            for name, (_, _, workload, moves, item) in layers.LAYER_METRICS.items()
        },
        "self_ms": self_ms,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return {name: (metrics[name], units[name]) for name in layers.LAYER_METRICS}, record, outcome


def main(argv=None) -> int:
    args = parse_args(argv)
    vbraid = load_package()
    started = time.perf_counter()
    metrics, record, outcome = (traced if args.trace else end_to_end)(args)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "environment": environment(vbraid),
        **record,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
    }
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1)
    )
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
