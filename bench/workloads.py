"""The four benchmark workloads: seeded inputs, timed passes and output checks.

Every workload drives the library in-process through its public functions.
Its inputs are a fixed list of operations, a pure function of the seed, so
two runs with the same seed do the same work on any machine.

The machine's speed changes by a quarter or more over seconds as other load
on the host comes and goes, so one timing of an operation says as much about
the host as about the program.  A run therefore repeats the whole list in
passes until ``--seconds`` is over (at least ``MIN_PASSES`` of them) and keeps
each operation's best time: what the program costs when nothing else slows
the machine down.  Each workload reports the same timings from these best
times, so that every run prints every end-to-end metric of
``BENCHMARK.json``:

- ``throughput``: items of the workload's bulk operations over the sum of
  their best times,
- ``latencies_ms``: the best time of each of its per-decision operations,
  whose median and 90th percentile are reported.

Outputs are checked the first time an operation runs; every later run of
it must reproduce them.
``Run.named`` carries the same numbers under the names a user of the library
would look for (words/s at 2 workers, diagram samples/s, ...).
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field
from random import Random

from vbraid.action import Coordinates, act_word, apply_letters, base_vector
from vbraid.diagram import arrow_table, certify_nontrivial, verify_diagram
from vbraid.hunt import HuntConfig, hunt, moved_fraction, provably_trivial, relation_rules
from vbraid.wordproblem import BATTERY_BOUND, Equality, are_equal_bn, distinguish_vbn
from vbraid.words import (
    RHO,
    SIGMA,
    SIGMA_INV,
    BraidWord,
    Letter,
    format_word,
    parse_word,
    permutation,
    random_reduced_word,
)

# The two near-kernel words of acceptance criterion 7.  Both fix the base
# vector; BETA has order 3 in the symmetric group, so BETA^3 keeps the strand
# permutation and the base image of any word it is prepended to.
BETA = "s1 r2 s1 S2 s1 s2 S1 r1 s2 r1 s1 r2 S1 r2 S2 S1 s2 S1 r2 S1"
SECOND = "S2 s1 r2 s2 s1 S2 r2 s1 r2 s2 r1 S2 r1 S1 S2 r2 S1 s2"

MIN_PASSES = 2  # passes over the operation list whatever --seconds says
HUNT_WORDS = 1000  # words per hunt() call; each config runs at 1 and 2 workers
HUNT_CALLS = 6  # hunt configs per pass
MOVED_SAMPLES = 1000  # probes per moved_fraction() call
MOVED_STREAMS = 2  # seeded probe streams per near-kernel word
VBN_BATTERY = 1000  # probe battery of each distinguish_vbn() decision
BATTERY_ROUNDS = 15  # rounds of the first pass: every moved_fraction() call, then decisions
DECISIONS_PER_ROUND = 20  # distinguish_vbn() decisions per round
TIMED_DECISIONS = 20  # decisions repeated after the first pass, evenly spread over its costs
CERTIFY_BATCH = 100  # words per timed certify batch
CERTIFY_BATCHES = 10  # certify batches per pass, each followed by a verify_diagram() call
DIAGRAM_SAMPLES = 200  # samples per arrow in each verify_diagram() call
BN_PAIRS = 40  # are_equal_bn() pairs per pass

_GOLDEN = 0.6180339887498949


def _nothing() -> None:
    """The default ``between`` hook of the timed passes, called after each operation."""


class Outcome:
    """Operations attempted, those whose output failed a check, first problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.extend(problems)


class Fingerprint:
    """sha256 over the canonical JSON of each operation's first output."""

    def __init__(self):
        self._hash = hashlib.sha256()

    def add(self, output) -> None:
        self._hash.update(json.dumps(output, sort_keys=True).encode())
        self._hash.update(b"\n")

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


class Passes:
    """Repeats a fixed list of operations and keeps each one's best time.

    A workload iterates ``over()`` its list of operations, times each
    through ``time()`` and checks each output through ``check()``.
    """

    def __init__(self, seconds: float, between=_nothing):
        self.deadline = time.perf_counter() + seconds
        self.between = between
        self.count = 0  # passes finished
        self.best: dict = {}
        self.outcome = Outcome()
        self.fingerprint = Fingerprint()
        self._first: dict = {}

    def running(self) -> bool:
        return self.count < MIN_PASSES or time.perf_counter() < self.deadline

    def over(self, operations, later=None):
        """The operations, pass after pass, until the run is over; a run ends
        at most one operation after its deadline.  ``later``, when given, is
        called once after the first pass and gives the list for the passes
        after it."""
        while self.running():
            for operation in operations:
                if not self.running():
                    return
                yield operation
            self.count += 1
            if later is not None and self.count == 1:
                operations = later()

    def time(self, key, call, *args, **kwargs):
        """``call(*args, **kwargs)``, timed; keeps the best time under ``key``."""
        started = time.perf_counter()
        result = call(*args, **kwargs)
        elapsed = time.perf_counter() - started
        if elapsed < self.best.get(key, math.inf):
            self.best[key] = elapsed
        self.between()
        return result

    def check(self, key, output, problems, always: list[str] = ()) -> None:
        """Record one operation: the first time ``key`` runs, the problems of
        its output (``problems`` is called only then) and its fingerprint;
        afterwards whether the output repeats the first one.  ``always`` holds
        the problems of cheap checks that run every time."""
        found = list(always)
        if key not in self._first:
            self._first[key] = output
            self.fingerprint.add(output)
            found += problems()
        elif output != self._first[key]:
            found.append(f"operation {key} gave another output on pass {self.count}")
        self.outcome.record(found)

    def best_ms(self, kind: str) -> list[float]:
        return [seconds * 1000 for key, seconds in self.best.items() if key[0] == kind]

    def total(self, kind: str) -> float:
        return sum(seconds for key, seconds in self.best.items() if key[0] == kind)


@dataclass
class Run:
    """What one timed run of a workload measured."""

    throughput: float
    latencies_ms: list[float]
    outcome: Outcome
    fingerprint: str
    named: dict[str, tuple[float, str]] = field(default_factory=dict)
    config: dict = field(default_factory=dict)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) of at least two values, interpolated
    between them and never beyond, as few as they may be."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def finish(passes: Passes, throughput: float, named: dict, config: dict) -> Run:
    return Run(
        throughput=throughput,
        latencies_ms=passes.best_ms("decide"),
        outcome=passes.outcome,
        fingerprint=passes.fingerprint.hexdigest(),
        named=named,
        config={**config, "passes": passes.count, "timing": "best of passes per operation"},
    )


def stratified(index: int, low: int, high: int) -> int:
    """A low-discrepancy walk over [low, high]: every prefix covers it evenly."""
    return low + int((high - low + 1) * ((index * _GOLDEN) % 1.0))


def relators(strands: int, virtual: bool) -> list[tuple[Letter, ...]]:
    """Defining relators of B_n, or of VB_n when ``virtual``, as letter tuples."""
    s, t, r = (lambda i: Letter(SIGMA, i)), (lambda i: Letter(SIGMA_INV, i)), (lambda i: Letter(RHO, i))
    found = []
    for i in range(1, strands - 1):
        found.append((s(i), s(i + 1), s(i), t(i + 1), t(i), t(i + 1)))
        if virtual:
            found.append((r(i), r(i + 1)) * 3)
            found.append((r(i), r(i + 1), s(i), r(i + 1), r(i), t(i + 1)))
            found.append((r(i + 1), r(i), s(i + 1), r(i), r(i + 1), t(i)))
    kinds = (SIGMA, SIGMA_INV, RHO) if virtual else (SIGMA, SIGMA_INV)
    for i in range(1, strands):
        for j in range(i + 2, strands):
            for a in kinds:
                for b in kinds:
                    found.append((Letter(a, i), Letter(b, j), Letter(-a, i), Letter(-b, j)))
    return found


def random_relator(choices: list[tuple[Letter, ...]], rng: Random) -> tuple[Letter, ...]:
    """A relator, cyclically rotated and inverted at random."""
    relator = choices[rng.randrange(len(choices))]
    shift = rng.randrange(len(relator))
    relator = relator[shift:] + relator[:shift]
    if rng.random() < 0.5:
        relator = tuple(letter.inverse() for letter in reversed(relator))
    return relator


def insert_relators(word: BraidWord, count: int, choices, rng: Random) -> BraidWord:
    """The same group element: ``count`` relators inserted at random cuts."""
    letters = word.letters
    for _ in range(count):
        cut = rng.randint(0, len(letters))
        letters = letters[:cut] + random_relator(choices, rng) + letters[cut:]
    return BraidWord(word.strands, letters)


def verdict_output(verdict) -> dict:
    return {
        "status": verdict.status.value,
        "probe": None if verdict.probe is None else list(verdict.probe),
        "images": None if verdict.images is None else [list(side) for side in verdict.images],
    }


def witness_problems(verdict, w1: BraidWord, w2: BraidWord) -> list[str]:
    """A Distinct verdict's witness must re-verify through the reference action."""
    if verdict.images is None:
        return ["Distinct verdict without images"]
    left, right = (tuple(side) for side in verdict.images)
    if verdict.probe is None:
        expected = (permutation(w1), permutation(w2))
    else:
        probe = Coordinates(w1.strands, tuple(verdict.probe))
        expected = (act_word(probe, w1).entries, act_word(probe, w2).entries)
    if (left, right) != expected or left == right:
        return [f"Distinct witness does not re-verify for {format_word(w2)!r}"]
    return []


# ---------------------------------------------------------------- hunt3


def hunt_config(seed: int, call: int, words: int = HUNT_WORDS) -> HuntConfig:
    """Acceptance criterion 6, shortened: one config per call index."""
    return HuntConfig(
        strands=3,
        word_length=(1, 30),
        word_count=words,
        seed=seed * 10**6 + call,
        battery_size=100,
        coefficient_bound=100,
    )


def deterministic_report(report) -> dict:
    data = report.as_dict()
    data.pop("runtime_seconds")
    return data


def twin_problems(report, twin) -> list[str]:
    if deterministic_report(report) != deterministic_report(twin):
        return [f"seed {report.config.seed}: reports differ between 1 and 2 workers"]
    return []


def fixer_problems(report, rules) -> list[str]:
    """Every fixer fixes the base vector; every identity word proves trivial."""
    problems = []
    base = base_vector(3)
    for fixer in report.base_fixers:
        if act_word(base, parse_word(fixer.word, 3)) != base:
            problems.append(f"fixer {fixer.word!r} moves the base vector")
    for text in report.identity_words:
        if not provably_trivial(parse_word(text, 3), rules):
            problems.append(f"identity word {text!r} does not prove trivial")
    return problems


def hunt_problems(report, twin, rules) -> list[str]:
    """The 1- and 2-worker reports agree; fixers fix; identities prove trivial."""
    return twin_problems(report, twin) + fixer_problems(report, rules)


def setup_hunt3():
    return relation_rules(3)


def measure_hunt3(seed: int, seconds: float, rules, words: int = HUNT_WORDS, calls: int = HUNT_CALLS,
                  between=_nothing) -> Run:
    """hunt() on ``calls`` configs at 1 worker (bulk and decide), then at 2.

    The 2-worker calls are timed for the record only: they need both CPUs
    of the machine at once, and on a shared 2-CPU machine their best times
    follow the other CPU's load (see README).
    """
    passes = Passes(seconds, between)
    configs = [hunt_config(seed, call, words) for call in range(calls)]
    candidates = 0
    for call, config in passes.over(list(enumerate(configs))):
        single = passes.time(("decide", call), hunt, config, workers=1)
        double = passes.time(("w2", call), hunt, config, workers=2)
        # The worker-count check is cheap, so it runs on every pass.
        passes.check(call, deterministic_report(single), lambda: fixer_problems(single, rules),
                     twin_problems(single, double))
        if passes.count == 0:
            candidates += len(single.kernel_candidates)
    w1_rate = calls * words / passes.total("decide")
    w2_rate = words * 1000 / statistics.median(passes.best_ms("w2"))
    return finish(
        passes,
        w1_rate,
        named={
            "hunt_words_per_s": (w1_rate, "1/s"),
            "hunt_words_per_s_w2": (w2_rate, "1/s"),
            "kernel_candidates": (candidates, "count"),
        },
        config={"hunt_calls": calls, "words_per_call": words, "length": [1, 30],
                "battery": 100, "bound": 100, "hunt_seed": f"{seed} * 10**6 + call"},
    )


# ---------------------------------------------------------------- battery3


def battery_pair(seed: int, index: int, beta_cubed: BraidWord, choices) -> tuple[bool, BraidWord, BraidWord]:
    """Pair ``index``: (equal?, w1, w2).

    One pair in eight is equal: ``w`` against ``w`` with a relator rotation
    inserted, which runs the whole battery and ends Unknown.  The others are
    ``BETA^3 w`` against ``w``, which only a probe can tell apart.
    """
    rng = Random(f"battery3:{seed}:{index}")
    word = random_reduced_word(3, stratified(index, 10, 30), rng)
    if index % 8 == 0:
        return True, insert_relators(word, 1, choices, rng), word
    return False, beta_cubed * word, word


def moved_problems(word: BraidWord, fraction, samples: int, rng_seed: str) -> list[str]:
    """Replay the probe stream one probe at a time through apply_letters."""
    rng = Random(rng_seed)
    moved = 0
    for _ in range(samples):
        probe = [rng.randint(-100, 100) for _ in range(6)]
        moved += apply_letters(probe, word.letters) != probe
    if fraction * samples != moved:
        return [f"moved_fraction {fraction} disagrees with the replay ({moved}/{samples})"]
    return []


def vbn_problems(equal: bool, verdict, w1: BraidWord, w2: BraidWord) -> list[str]:
    if verdict.status is Equality.DISTINCT:
        if equal:
            return [f"equal pair judged Distinct: {format_word(w1)!r}"]
        return witness_problems(verdict, w1, w2)
    if verdict.status is Equality.EQUAL and not equal:
        return [f"distinct pair judged Equal: {format_word(w2)!r}"]
    return []


def setup_battery3():
    beta, second = parse_word(BETA, 3), parse_word(SECOND, 3)
    return [beta, second], beta * beta * beta, relators(3, virtual=True)


def probes_drawn(verdict, rng_seed: str, battery: int, strands: int) -> int:
    """How many battery probes a decision drew, found by replaying its stream."""
    if verdict.status is Equality.UNKNOWN:
        return battery
    if verdict.probe is None:
        return 0
    rng = Random(rng_seed)
    for drawn in range(1, battery + 1):
        if tuple(rng.randint(-BATTERY_BOUND, BATTERY_BOUND) for _ in range(2 * strands)) == verdict.probe:
            return drawn
    return 0  # told apart by the base vector


def evenly_ranked(costs: dict, count: int) -> list:
    """``count`` keys of ``costs`` at evenly spaced ranks of their cost."""
    order = sorted(costs, key=lambda key: (costs[key], key))
    step = len(order) / count
    return sorted(order[int((rank + 0.5) * step)] for rank in range(min(count, len(order))))


def measure_battery3(seed: int, seconds: float, state, samples: int = MOVED_SAMPLES,
                     battery: int = VBN_BATTERY, rounds: int = BATTERY_ROUNDS,
                     timed: int = TIMED_DECISIONS, between=_nothing) -> Run:
    """Each round: every moved_fraction() call (bulk), then
    ``DECISIONS_PER_ROUND`` distinguish_vbn() decisions (decide).

    The moved_fraction() calls cost the same whatever the seed, so a few of
    them, repeated every round, give the probe rate.  A decision's cost
    varies with its pair and probe stream, so the first pass runs many
    decisions; later passes repeat ``timed`` of them, taken at evenly spaced
    ranks of their cost (probes drawn times letters), so that their quantiles
    keep the shape of the whole set while each one runs often enough for its
    best time to hold.
    """
    words, beta_cubed, choices = state
    moved = [("bulk", (position, stream), word)
             for position, word in enumerate(words) for stream in range(MOVED_STREAMS)]
    decisions = [("decide", index, battery_pair(seed, index, beta_cubed, choices))
                 for index in range(rounds * DECISIONS_PER_ROUND)]

    def in_rounds(chosen):
        operations = []
        for start in range(0, len(chosen), DECISIONS_PER_ROUND):
            operations += moved + chosen[start:start + DECISIONS_PER_ROUND]
        return operations

    costs: dict[int, int] = {}

    def later():
        # Only the repeated decisions' times count.
        chosen = evenly_ranked(costs, timed)
        for index in costs.keys() - set(chosen):
            passes.best.pop(("decide", index))
        return in_rounds([decisions[index] for index in chosen])

    passes = Passes(seconds, between)
    verdicts = {status.value: 0 for status in Equality}
    for kind, index, subject in passes.over(in_rounds(decisions), later):
        # A fresh seeded stream every time, so that every repeat does the same work.
        if kind == "bulk":
            rng_seed = f"battery3:{seed}:moved:{index[0]}:{index[1]}"
            fraction = passes.time((kind, index), moved_fraction, subject, samples, 100, Random(rng_seed))
            passes.check((kind, index), str(fraction), lambda: moved_problems(subject, fraction, samples, rng_seed))
            continue
        equal, w1, w2 = subject
        rng_seed = f"battery3:{seed}:battery:{index}"
        verdict = passes.time((kind, index), distinguish_vbn, w1, w2, battery, Random(rng_seed))
        if passes.count == 0:
            verdicts[verdict.status.value] += 1
            costs[index] = probes_drawn(verdict, rng_seed, battery, 3) * (len(w1) + len(w2))
        passes.check((kind, index), verdict_output(verdict), lambda: vbn_problems(equal, verdict, w1, w2))
    probes_rate = len(moved) * samples / passes.total("bulk")
    decide_ms = passes.best_ms("decide")
    return finish(
        passes,
        probes_rate,
        named={
            "probes_per_s": (probes_rate, "1/s"),
            "vbn_decide_ms_p50": (statistics.median(decide_ms), "ms"),
            "vbn_decide_ms_p90": (percentile(decide_ms, 90), "ms"),
            **{f"verdicts.{key}": (value, "count") for key, value in verdicts.items()},
        },
        config={"moved_fraction_calls_per_round": len(moved), "samples": samples,
                "decisions": len(decisions), "timed_decisions": min(timed, len(decisions)),
                "battery": battery,
                "equal_pairs": "1 in 8", "word_length": [10, 30]},
    )


# ---------------------------------------------------------------- certify2


def certify_batch_words(seed: int, batch: int, size: int) -> list[BraidWord]:
    """Reduced two-strand words of length 1..50, as in acceptance criterion 5."""
    rng = Random(f"certify2:{seed}:{batch}")
    return [random_reduced_word(2, rng.randint(1, 50), rng) for _ in range(size)]


def certificate_output(certificate) -> dict:
    return {
        "reduced": format_word(certificate.reduced),
        "image": list(certificate.image),
        "boxes": list(certificate.boxes),
        "norms": list(certificate.norms),
        "violation": certificate.violation,
    }


def certificate_problems(certificate) -> list[str]:
    if certificate.violation is not None or certificate.trivial:
        return [f"{format_word(certificate.word)!r}: {certificate.violation or 'trivial'}"]
    if certificate.image == certificate.start:
        return [f"{format_word(certificate.word)!r} returned to the start vector"]
    return []


def setup_certify2():
    return len(arrow_table())


def certify_batch(seed: int, batch: int, size: int) -> list:
    """The timed bulk operation: generate a batch of words and certify each."""
    return [certify_nontrivial(word) for word in certify_batch_words(seed, batch, size)]


def measure_certify2(seed: int, seconds: float, arrows: int, size: int = CERTIFY_BATCH,
                     samples: int = DIAGRAM_SAMPLES, batches: int = CERTIFY_BATCHES,
                     between=_nothing) -> Run:
    """Each batch: generate and certify ``size`` words (bulk), then one
    verify_diagram() call (decide)."""
    operations = [(kind, batch) for batch in range(batches) for kind in ("bulk", "decide")]
    passes = Passes(seconds, between)
    for kind, index in passes.over(operations):
        if kind == "bulk":
            certificates = passes.time((kind, index), certify_batch, seed, index, size)
            passes.check((kind, index), [certificate_output(c) for c in certificates],
                         lambda: [p for c in certificates for p in certificate_problems(c)])
            continue
        rng = Random(f"certify2:{seed}:diagram:{index}")
        report = passes.time((kind, index), verify_diagram, samples, rng)
        passes.check((kind, index), report.as_dict(),
                     lambda: [] if report.ok else [f"verify_diagram failed: {report.as_dict()}"])
    words_rate = len(passes.best_ms("bulk")) * size / passes.total("bulk")
    samples_rate = arrows * samples * 1000 / statistics.median(passes.best_ms("decide"))
    return finish(
        passes,
        words_rate,
        named={
            "certify_words_per_s": (words_rate, "1/s"),
            "diagram_samples_per_s": (samples_rate, "1/s"),
        },
        config={"batches": batches, "words_per_batch": size, "word_length": [1, 50],
                "verify_diagram_calls": batches, "samples_per_arrow": samples},
    )


# ---------------------------------------------------------------- bnlong


def setup_bnlong():
    return {strands: relators(strands, virtual=False) for strands in range(4, 9)}


def bn_pair(seed: int, index: int, choices) -> tuple[bool, BraidWord, BraidWord]:
    """Pair ``index``: (equal?, w1, w2) of classical words, n = 4..8.

    Even pairs insert one to three braid relators and must be Equal; odd
    pairs invert one letter, which changes the element (w1 w2^-1 is a
    conjugate of sigma_i^2), and must be Distinct.
    """
    rng = Random(f"bnlong:{seed}:{index}")
    strands = 4 + index % 5
    word = random_reduced_word(strands, stratified(index, 1000, 10000), rng, virtual=False)
    if index % 2 == 0:
        return True, word, insert_relators(word, rng.randint(1, 3), choices[strands], rng)
    letters = list(word.letters)
    position = rng.randrange(len(letters))
    letters[position] = letters[position].inverse()
    return False, word, BraidWord(strands, tuple(letters))


def bn_problems(equal: bool, verdict) -> list[str]:
    expected = Equality.EQUAL if equal else Equality.DISTINCT
    if verdict.status is not expected:
        return [f"are_equal_bn said {verdict.status.value}, expected {expected.value}"]
    return []


def measure_bnlong(seed: int, seconds: float, choices, pairs: int = BN_PAIRS, between=_nothing) -> Run:
    """are_equal_bn() on each pair, counted both as letters (bulk) and per
    pair (decide)."""
    operations = [(index, *bn_pair(seed, index, choices)) for index in range(pairs)]
    passes = Passes(seconds, between)
    letters = sum(len(w1) + len(w2) for _, _, w1, w2 in operations)
    for index, equal, w1, w2 in passes.over(operations):
        verdict = passes.time(("decide", index), are_equal_bn, w1, w2)
        passes.check(index, verdict_output(verdict), lambda: bn_problems(equal, verdict))
    decide_ms = passes.best_ms("decide")
    letters_rate = letters * 1000 / sum(decide_ms)
    return finish(
        passes,
        letters_rate,
        named={
            "bn_letters_per_s": (letters_rate, "1/s"),
            "bn_decide_ms_p50": (statistics.median(decide_ms), "ms"),
            "bn_decide_ms_p90": (percentile(decide_ms, 90), "ms"),
        },
        config={"pairs": pairs, "strands": [4, 8], "word_length": [1000, 10000],
                "equal_pairs": "even indices, 1-3 relators inserted",
                "distinct_pairs": "odd indices, one letter inverted"},
    )


# name -> (set-up, timed passes); the passes take (seed, seconds, set-up result).
WORKLOADS = {
    "hunt3": (setup_hunt3, measure_hunt3),
    "battery3": (setup_battery3, measure_battery3),
    "certify2": (setup_certify2, measure_certify2),
    "bnlong": (setup_bnlong, measure_bnlong),
}
