"""Checks of the benchmark itself.

Its output checks must catch a corrupted report or verdict, its fingerprints
and counts must repeat exactly for a seed, and it must refuse to run where
there is no package source.
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

from vbraid.diagram import Certificate
from vbraid.wordproblem import Equality, Verdict

import layers
import workloads as wl

BENCH = Path(__file__).resolve().parent


# Small operation lists, so that the two passes of a zero-second run are quick.
SMALL = {
    "hunt3": {"words": 300, "calls": 2},
    "battery3": {"samples": 200, "battery": 100, "rounds": 2, "timed": 10},
    "certify2": {"size": 20, "samples": 50, "batches": 2},
    "bnlong": {"pairs": 6},
}


def run_once(name, seed=5, **sizes):
    setup, measure = wl.WORKLOADS[name]
    return measure(seed, 0, setup(), **{**SMALL[name], **sizes})


def test_clean_runs_pass_and_fingerprints_repeat():
    for name in wl.WORKLOADS:
        first, second = run_once(name), run_once(name)
        assert first.outcome.attempted > 0
        assert first.outcome.failed == 0, first.outcome.problems
        assert first.fingerprint == second.fingerprint
        assert first.config["passes"] == wl.MIN_PASSES


def test_repeated_decisions_keep_the_cost_ranks_of_the_first_pass():
    assert len(run_once("battery3").latencies_ms) == 10
    costs = {index: index % 7 for index in range(70)}
    assert sorted(costs[index] for index in wl.evenly_ranked(costs, 7)) == list(range(7))


def test_probes_drawn_is_where_the_battery_stops():
    words, beta_cubed, choices = wl.setup_battery3()
    equal, w1, w2 = wl.battery_pair(5, 1, beta_cubed, choices)
    verdict = wl.distinguish_vbn(w1, w2, 1000, wl.Random("seed"))
    drawn = wl.probes_drawn(verdict, "seed", 1000, 3)
    assert verdict.status is Equality.DISTINCT and 0 < drawn < 1000
    assert wl.distinguish_vbn(w1, w2, drawn, wl.Random("seed")) == verdict
    assert wl.distinguish_vbn(w1, w2, drawn - 1, wl.Random("seed")).status is Equality.UNKNOWN


def test_an_output_that_changes_between_passes_is_a_failure(monkeypatch):
    real, calls = wl.are_equal_bn, []

    def flaky(w1, w2):
        calls.append(None)
        verdict = real(w1, w2)
        return verdict if len(calls) % 2 else dataclasses.replace(verdict, probe=(0,) * 8)

    monkeypatch.setattr(wl, "are_equal_bn", flaky)
    run = run_once("bnlong", pairs=3)
    assert run.outcome.failed > 0


def test_corrupted_hunt_report_is_a_failure(monkeypatch):
    real = wl.hunt

    def corrupted(config, workers=1):
        report = real(config, workers)
        if workers == 2:
            report = dataclasses.replace(report, words_tested=report.words_tested + 1)
        return report

    monkeypatch.setattr(wl, "hunt", corrupted)
    run = run_once("hunt3")
    assert run.outcome.failed == run.outcome.attempted > 0


def test_corrupted_vbn_verdict_is_a_failure(monkeypatch):
    def always_distinct(w1, w2, battery, rng):
        return Verdict(Equality.DISTINCT, witness="forged", probe=(0,) * 6, images=((0,) * 6, (1,) * 6))

    monkeypatch.setattr(wl, "distinguish_vbn", always_distinct)
    run = run_once("battery3")
    assert run.outcome.failed > 0


def test_corrupted_bn_verdict_is_a_failure(monkeypatch):
    monkeypatch.setattr(wl, "are_equal_bn", lambda w1, w2: Verdict(Equality.EQUAL))
    run = run_once("bnlong")
    assert run.outcome.failed > 0


def test_corrupted_certificate_is_a_failure(monkeypatch):
    real = wl.certify_nontrivial

    def corrupted(word) -> Certificate:
        return dataclasses.replace(real(word), violation="forged")

    monkeypatch.setattr(wl, "certify_nontrivial", corrupted)
    run = run_once("certify2")
    assert run.outcome.failed > 0


def test_trace_counts_repeat(monkeypatch):
    for name, value in {
        "TRACE_HUNT_WORDS": 3000,
        "TRACE_MOVED_CALLS": 2,
        "TRACE_VBN_PAIRS": 8,
        "TRACE_CERTIFY_WORDS": 100,
        "TRACE_QUAD_WORDS": 20,
        "TRACE_DIAGRAM_CALLS": 1,
        "TRACE_BN_PAIRS": 4,
    }.items():
        monkeypatch.setattr(layers, name, value)
    first, _, outcome = layers.trace_all(3)
    second, _, _ = layers.trace_all(3)
    assert outcome.failed == 0, outcome.problems
    assert set(first) == set(layers.LAYER_METRICS)
    assert {name: first[name] for name in layers.COUNTS} == {name: second[name] for name in layers.COUNTS}


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hunt3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
