"""Traced replays of the four workloads: the per-layer metrics.

A replay calls the same public functions as its workload, on a fixed batch
drawn from the seed, and wraps each call in a span (name, start, end,
parent) kept in memory.  The batch is fixed so that every count repeats
exactly for a given seed.  Each replay runs twice, untraced and traced; the
difference is reported as the tracing overhead.

``LAYER_METRICS`` names, for every per-layer metric, the workload it is
measured on, the end-to-end metric it should move and the ROADMAP item it
serves.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import statistics
import time
from random import Random

from vbraid.action import act_quad, act_word, apply_letters, base_vector
from vbraid.diagram import arrow_table, certify_nontrivial, verify_diagram
from vbraid.hunt import hunt, moved_fraction, provably_trivial, relation_rules
from vbraid.wordproblem import are_equal_bn, distinguish_vbn
from vbraid.words import BraidWord, format_word, inverse, parse_word, random_reduced_word

import workloads as wl

TRACE_HUNT_WORDS = 30000  # one hunt config, run at 1 and 2 workers and replayed
TRACE_CONJUGATES = 20  # seeded relator conjugates given to the prover
TRACE_MOVED_CALLS = 4
TRACE_VBN_PAIRS = 60
TRACE_CERTIFY_WORDS = 2000
TRACE_QUAD_WORDS = 500
TRACE_DIAGRAM_CALLS = 5
TRACE_BN_PAIRS = 30
TRACE_CALL = 10**6 - 1  # call and batch index of the replays; timed runs stay below it

# metric -> (unit, better, workload measured on, end-to-end metric it should
# move there, ROADMAP item)
LAYER_METRICS = {
    "words.seed_us_per_word": ("us", "lower", "hunt3", "hunt_words_per_s", 2),
    "words.gen_ns_per_letter": ("ns", "lower", "hunt3", "hunt_words_per_s, certify_words_per_s", 2),
    "action.screen_ns_per_letter": ("ns", "lower", "hunt3", "hunt_words_per_s", 2),
    "action.probe_ns_per_letter": ("ns", "lower", "battery3", "probes_per_s, vbn_decide_ms", 2),
    "action.bigint_ns_per_letter": ("ns", "lower", "bnlong", "bn_decide_ms", 2),
    "action.max_entry_bits": ("bits", "higher", "bnlong", "input property", 1),
    "hunt.battery_us_per_probe": ("us", "lower", "battery3", "probes_per_s", 2),
    "hunt.draw_us_per_probe": ("us", "lower", "battery3", "probes_per_s", 2),
    "hunt.prover_us_per_call": ("us", "lower", "hunt3", "none predicted", 4),
    "hunt.prover_proved_ratio": ("ratio", "higher", "hunt3", "none predicted", 4),
    "hunt.w2_efficiency": ("ratio", "higher", "hunt3", "hunt_words_per_s_w2", 2),
    "hunt.pool_start_ms": ("ms", "lower", "hunt3", "hunt_words_per_s_w2", 2),
    "hunt.base_fixers": ("count", "higher", "hunt3", "fingerprint", 4),
    "hunt.battery_survivors": ("count", "higher", "hunt3", "fingerprint", 4),
    "hunt.identity_words": ("count", "higher", "hunt3", "fingerprint", 4),
    "hunt.kernel_candidates": ("count", "lower", "hunt3", "fingerprint", 4),
    "hunt.base_fix_ratio": ("ratio", "higher", "hunt3", "fingerprint", 4),
    "wordproblem.vbn_ms_per_pair": ("ms", "lower", "battery3", "vbn_decide_ms", 2),
    "wordproblem.verdicts.equal": ("count", "higher", "battery3", "fingerprint", 4),
    "wordproblem.verdicts.distinct": ("count", "higher", "battery3", "fingerprint", 4),
    "wordproblem.verdicts.unknown": ("count", "lower", "battery3", "fingerprint", 4),
    "wordproblem.bn_ms_per_pair": ("ms", "lower", "bnlong", "bn_decide_ms", 2),
    "diagram.certify_us_per_letter": ("us", "lower", "certify2", "certify_words_per_s", 3),
    "diagram.quad_ns_per_step": ("ns", "lower", "certify2", "certify_words_per_s", 5),
    "diagram.verify_ns_per_sample": ("ns", "lower", "certify2", "diagram_samples_per_s", 3),
    "trace.hunt3_overhead_pct": ("%", "lower", "hunt3", "tracing cost", 1),
    "trace.battery3_overhead_pct": ("%", "lower", "battery3", "tracing cost", 1),
    "trace.certify2_overhead_pct": ("%", "lower", "certify2", "tracing cost", 1),
    "trace.bnlong_overhead_pct": ("%", "lower", "bnlong", "tracing cost", 1),
}

# The per-layer metrics that count outcomes of the fixed batch: for a given
# seed they repeat exactly, on any machine.
COUNTS = (
    "action.max_entry_bits",
    "hunt.prover_proved_ratio",
    "hunt.base_fixers",
    "hunt.battery_survivors",
    "hunt.identity_words",
    "hunt.kernel_candidates",
    "hunt.base_fix_ratio",
    "wordproblem.verdicts.equal",
    "wordproblem.verdicts.distinct",
    "wordproblem.verdicts.unknown",
)


class Tracer:
    """Spans (name, start_ns, end_ns, parent index) recorded in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.open: list[int] = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def total_ns(self, name: str) -> int:
        return sum(end - start for span_name, start, end, _ in self.spans if span_name == name)

    def self_ns(self) -> dict[str, int]:
        """Per span name: duration minus the time its child spans cover."""
        totals: dict[str, int] = {}
        for name, start, end, parent in self.spans:
            totals[name] = totals.get(name, 0) + end - start
            if parent >= 0:
                parent_name = self.spans[parent][0]
                totals[parent_name] = totals.get(parent_name, 0) - (end - start)
        return totals


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.record = [name, 0, 0, tracer.open[-1] if tracer.open else -1]

    def __enter__(self):
        tracer = self.tracer
        tracer.open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter_ns()

    def __exit__(self, *exc_info):
        self.record[2] = time.perf_counter_ns()
        self.tracer.open.pop()


class NullTracer:
    """Tracing off: the same calls with no span recorded."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


def conjugates(seed: int, count: int) -> list[BraidWord]:
    """Seeded u r u^-1 on three strands, r a rotated VB_3 relator."""
    rng = Random(f"hunt3:{seed}:conjugates")
    choices = wl.relators(3, virtual=True)
    words = []
    for _ in range(count):
        u = random_reduced_word(3, rng.randint(1, 6), rng)
        words.append(BraidWord(3, u.letters + wl.random_relator(choices, rng) + inverse(u).letters))
    return words


def replay_hunt3(seed: int, tracer, outcome: wl.Outcome) -> dict:
    """The documented per-index scheme of hunt(), through public functions."""
    words = TRACE_HUNT_WORDS
    config = wl.hunt_config(seed, TRACE_CALL, words)
    low, high = config.length_range()
    base = list(config.start_entries())
    with tracer.span("hunt.relation_rules"):
        rules = relation_rules(3)
    found: dict[str, object] = {}
    fixing = letters = 0
    for k in range(words):
        with tracer.span("words.seed"):
            rng = Random(config.seed * 2**64 + k)
        with tracer.span("words.gen"):
            word = random_reduced_word(3, rng.randint(low, high), rng)
        letters += len(word)
        with tracer.span("action.screen"):
            image = apply_letters(base, word.letters)
        if image != base:
            continue
        fixing += 1
        text = format_word(word)
        if text not in found:
            with tracer.span("hunt.battery"):
                found[text] = moved_fraction(word, config.battery_size, config.coefficient_bound, rng)
    survivors = [text for text, fraction in found.items() if fraction == 0]
    identities = []
    for text in survivors:
        with tracer.span("hunt.prover"):
            proved = provably_trivial(parse_word(text, 3), rules)
        if proved:
            identities.append(text)
    extra_proved = 0
    for word in conjugates(seed, TRACE_CONJUGATES):
        with tracer.span("hunt.prover"):
            extra_proved += provably_trivial(word, rules)
    calls = len(survivors) + TRACE_CONJUGATES
    return {
        "config": config,
        "fixers": list(found.items()),
        "identities": identities,
        "metrics": {
            "words.seed_us_per_word": ("words.seed", words, 1e3),
            "words.gen_ns_per_letter": ("words.gen", letters, 1),
            "action.screen_ns_per_letter": ("action.screen", letters, 1),
            "hunt.prover_us_per_call": ("hunt.prover", calls, 1e3),
        },
        "values": {
            "hunt.prover_proved_ratio": (len(identities) + extra_proved) / calls,
            "hunt.base_fixers": len(found),
            "hunt.battery_survivors": len(survivors),
            "hunt.identity_words": len(identities),
            "hunt.kernel_candidates": len(survivors) - len(identities),
            "hunt.base_fix_ratio": fixing / words,
        },
    }


def compare_with_hunt(replayed: dict, outcome: wl.Outcome) -> dict:
    """hunt() at 1 and 2 workers on the replayed config; both must match it."""
    config = replayed["config"]
    started = time.perf_counter()
    single = hunt(config, workers=1)
    middle = time.perf_counter()
    double = hunt(config, workers=2)
    ended = time.perf_counter()
    problems = wl.hunt_problems(single, double, relation_rules(3))
    fixers = [(fixer.word, fixer.moved_fraction) for fixer in single.base_fixers]
    if fixers != replayed["fixers"]:
        problems.append("the traced replay gives another fixer list than hunt()")
    if list(single.identity_words) != replayed["identities"]:
        problems.append("the traced replay gives other identity words than hunt()")
    outcome.record(problems)
    starts = []
    for _ in range(5):
        begun = time.perf_counter()
        with multiprocessing.Pool(2) as pool:
            pool.map(abs, [0, 1])
        starts.append((time.perf_counter() - begun) * 1000)
    return {
        "hunt.w2_efficiency": (middle - started) / (2 * (ended - middle)),
        "hunt.pool_start_ms": statistics.median(starts),
    }


def replay_battery3(seed: int, tracer, outcome: wl.Outcome) -> dict:
    words, beta_cubed, choices = wl.setup_battery3()
    probes = letters = 0
    for call in range(TRACE_MOVED_CALLS):
        word = words[call % 2]
        rng_seed = f"battery3:{seed}:moved:{call // 2}:{call % 2}"
        with tracer.span("hunt.battery"):
            fraction = moved_fraction(word, wl.MOVED_SAMPLES, 100, Random(rng_seed))
        rng = Random(rng_seed)
        with tracer.span("hunt.draw"):
            drawn = [[rng.randint(-100, 100) for _ in range(6)] for _ in range(wl.MOVED_SAMPLES)]
        with tracer.span("action.probe"):
            moved = sum(apply_letters(probe, word.letters) != probe for probe in drawn)
        agrees = fraction * wl.MOVED_SAMPLES == moved
        outcome.record([] if agrees else [f"moved_fraction {fraction} disagrees with the replay"])
        probes += wl.MOVED_SAMPLES
        letters += wl.MOVED_SAMPLES * len(word)
    verdicts = {"equal": 0, "distinct": 0, "unknown": 0}
    for index in range(TRACE_VBN_PAIRS):
        equal, w1, w2 = wl.battery_pair(seed, index, beta_cubed, choices)
        rng = Random(f"battery3:{seed}:battery:{index}")
        with tracer.span("wordproblem.distinguish_vbn"):
            verdict = distinguish_vbn(w1, w2, wl.VBN_BATTERY, rng)
        outcome.record(wl.vbn_problems(equal, verdict, w1, w2))
        verdicts[verdict.status.value] += 1
    return {
        "metrics": {
            "hunt.battery_us_per_probe": ("hunt.battery", probes, 1e3),
            "hunt.draw_us_per_probe": ("hunt.draw", probes, 1e3),
            "action.probe_ns_per_letter": ("action.probe", letters, 1),
            "wordproblem.vbn_ms_per_pair": ("wordproblem.distinguish_vbn", TRACE_VBN_PAIRS, 1e6),
        },
        "values": {f"wordproblem.verdicts.{key}": value for key, value in verdicts.items()},
    }


def replay_certify2(seed: int, tracer, outcome: wl.Outcome) -> dict:
    words = wl.certify_batch_words(seed, TRACE_CALL, TRACE_CERTIFY_WORDS)
    certificates = []
    for word in words:
        with tracer.span("diagram.certify"):
            certificates.append(certify_nontrivial(word))
    outcome.record([p for c in certificates for p in wl.certificate_problems(c)])
    steps = 0
    problems = []
    with tracer.span("diagram.quad_replay"):
        for certificate in certificates[:TRACE_QUAD_WORDS]:
            current = certificate.start
            for kind, _ in certificate.reduced.letters:
                current = act_quad(kind, current)
            steps += len(certificate.reduced)
            if current != certificate.image:
                problems.append(f"act_quad replay disagrees with {certificate.image}")
    outcome.record(problems)
    for call in range(TRACE_DIAGRAM_CALLS):
        with tracer.span("diagram.verify_diagram"):
            report = verify_diagram(wl.DIAGRAM_SAMPLES, Random(f"certify2:{seed}:diagram:{call}"))
        outcome.record([] if report.ok else ["verify_diagram failed"])
    samples = TRACE_DIAGRAM_CALLS * len(arrow_table()) * wl.DIAGRAM_SAMPLES
    return {
        "metrics": {
            "diagram.certify_us_per_letter": ("diagram.certify", sum(map(len, words)), 1e3),
            "diagram.quad_ns_per_step": ("diagram.quad_replay", steps, 1),
            "diagram.verify_ns_per_sample": ("diagram.verify_diagram", samples, 1),
        },
        "values": {},
    }


def replay_bnlong(seed: int, tracer, outcome: wl.Outcome) -> dict:
    choices = wl.setup_bnlong()
    letters = bits = 0
    for index in range(TRACE_BN_PAIRS):
        equal, w1, w2 = wl.bn_pair(seed, index, choices)
        with tracer.span("wordproblem.are_equal_bn"):
            verdict = are_equal_bn(w1, w2)
        base = base_vector(w1.strands)
        with tracer.span("action.act_word"):
            left = act_word(base, w1).entries
            right = act_word(base, w2).entries
        problems = wl.bn_problems(equal, verdict)
        if verdict.images is not None and tuple(map(tuple, verdict.images)) != (left, right):
            problems.append("are_equal_bn images disagree with act_word")
        outcome.record(problems)
        letters += len(w1) + len(w2)
        bits = max(bits, *(abs(x).bit_length() for x in left + right))
    return {
        "metrics": {
            "wordproblem.bn_ms_per_pair": ("wordproblem.are_equal_bn", TRACE_BN_PAIRS, 1e6),
            "action.bigint_ns_per_letter": ("action.act_word", letters, 1),
        },
        "values": {"action.max_entry_bits": bits},
    }


REPLAYS = {
    "hunt3": replay_hunt3,
    "battery3": replay_battery3,
    "certify2": replay_certify2,
    "bnlong": replay_bnlong,
}


def _seconds(replay, *args) -> float:
    started = time.perf_counter()
    replay(*args)
    return time.perf_counter() - started


def trace_all(seed: int) -> tuple[dict[str, float], dict[str, Tracer], wl.Outcome]:
    """Replay every workload untraced, traced and untraced; the per-layer metrics."""
    metrics: dict[str, float] = {}
    tracers: dict[str, Tracer] = {}
    outcome = wl.Outcome()
    for name, replay in REPLAYS.items():
        # Untraced passes on both sides of the traced one, so that warm-up
        # and drift do not count as overhead.
        plain = _seconds(replay, seed, NullTracer(), wl.Outcome())
        tracer = Tracer()
        started = time.perf_counter()
        result = replay(seed, tracer, outcome)
        traced = time.perf_counter() - started
        plain = (plain + _seconds(replay, seed, NullTracer(), wl.Outcome())) / 2
        metrics[f"trace.{name}_overhead_pct"] = (traced - plain) / plain * 100
        for metric, (span, work, scale) in result["metrics"].items():
            metrics[metric] = tracer.total_ns(span) / work / scale
        metrics.update(result["values"])
        if name == "hunt3":
            metrics.update(compare_with_hunt(result, outcome))
        tracers[name] = tracer
    return metrics, tracers, outcome
