"""Randomized search for virtual braid words acting trivially on the lattice.

For three or more strands it is unknown whether a nontrivial word can act
as the identity on all of Z^{2n}.  The hunt draws random freely reduced
words, keeps those fixing the distinguished base vector, and batters the
survivors with random probe vectors.  A freely reduced word can still be
the identity element of the group (relator conjugates like
sigma_1 rho_2 rho_1 sigma_2^-1 rho_1 rho_2 occur routinely at scale), and
such words of course pass every probe, so battery survivors are finally
screened with a bounded rewriting prover: survivors provably equal to the
identity are set aside and only the rest are flagged as kernel candidates,
i.e. potential nontrivial words acting trivially.  None is expected, but
base fixers themselves are interesting near-kernel elements and are
reported with the fraction of probes they move.

Reproducibility: word k of a run is drawn from ``Random(seed * 2**64 + k)``
and its battery probes from the same stream, so the outcome is a pure
function of the configuration no matter how the index range is split
across workers.  The stream is read as ``randint(low, high)`` for the
length, then the ``randrange`` letter draws of ``random_reduced_word``, then
``randint(-bound, bound)`` per probe entry; the inline ``getrandbits`` draws
that replace these calls are pinned to them by the stream tests.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import TYPE_CHECKING, Iterable

from .action import Coordinates, apply_letters, base_vector, moved_probes
from .words import (
    MAX_LETTERS,
    RHO,
    SIGMA,
    SIGMA_INV,
    BraidWord,
    Letter,
    _inverted,
    _reduced,
    _reduced_letters,
    check_strands,
    format_word,
)

if TYPE_CHECKING:
    from fractions import Fraction  # moved_fraction imports it when it runs

# Node budget of ``provably_trivial``: the distinct words it visits.
PROVER_NODES = 50000
# Memory budget of ``provably_trivial``: the letters of the words it stores.
# Rewrites never lengthen a word, and a visit to a word of L <= 64 letters
# stores at most 2L - 3 more, so on such words the node budget binds first.
PROVER_LETTERS = 2**22


@dataclass(frozen=True)
class HuntConfig:
    """Parameters of one hunt run.

    ``word_length`` is a fixed length or an inclusive (low, high) range
    sampled uniformly, at most ``words.MAX_LETTERS``.  ``base`` overrides the
    start vector; by default the base vector (0, 1, ..., 0, 1) for the
    configured strand count is used.
    """

    strands: int
    word_length: int | tuple[int, int]
    word_count: int
    seed: int
    battery_size: int = 100
    coefficient_bound: int = 100
    base: tuple[int, ...] | None = None

    def __post_init__(self):
        check_strands(self.strands)
        low, high = self.length_range()
        if low < 1 or high < low:
            raise ValueError(f"bad word length range ({low}, {high})")
        if high > MAX_LETTERS:
            raise ValueError(f"word length {high} exceeds {MAX_LETTERS} letters")
        if self.word_count < 0:
            raise ValueError("word count must be nonnegative")
        if self.battery_size < 1:
            raise ValueError("battery size must be positive")
        if self.coefficient_bound < 1:
            raise ValueError("coefficient bound must be positive")
        if self.base is not None:
            object.__setattr__(self, "base", Coordinates(self.strands, self.base).entries)

    def length_range(self) -> tuple[int, int]:
        if isinstance(self.word_length, int):
            return (self.word_length, self.word_length)
        low, high = self.word_length
        return (low, high)

    def start_entries(self) -> tuple[int, ...]:
        return self.base if self.base is not None else base_vector(self.strands).entries

    def as_dict(self) -> dict:
        low, high = self.length_range()
        return {
            "strands": self.strands,
            "word_length": [low, high],
            "word_count": self.word_count,
            "seed": self.seed,
            "battery_size": self.battery_size,
            "coefficient_bound": self.coefficient_bound,
            "base": None if self.base is None else list(self.base),
        }


@dataclass(frozen=True)
class Fixer:
    """A word that fixes the base vector, with its measured battery fraction."""

    word: str
    moved_fraction: Fraction
    samples: int

    def as_dict(self) -> dict:
        return {
            "word": self.word,
            "moved_fraction": float(self.moved_fraction),
            "samples": self.samples,
        }


@dataclass(frozen=True)
class HuntReport:
    """Deterministic outcome of a hunt, plus wall-clock runtime.

    ``as_dict`` records the seed partition: per word index, never per
    worker, so the report content does not depend on the worker count.
    Base fixers that also fixed the entire battery end up either in
    ``identity_words`` (proven equal to the identity element by relation
    rewriting) or in ``kernel_candidates``; any entry of the latter would be
    a potential nontrivial word acting trivially.
    """

    config: HuntConfig
    words_tested: int
    base_fixers: tuple[Fixer, ...]
    kernel_candidates: tuple[str, ...]
    identity_words: tuple[str, ...]
    runtime_seconds: float

    def as_dict(self) -> dict:
        return {
            "config": self.config.as_dict(),
            "words_tested": self.words_tested,
            "base_fixers": [fixer.as_dict() for fixer in self.base_fixers],
            "kernel_candidates": list(self.kernel_candidates),
            "identity_words": list(self.identity_words),
            "runtime_seconds": self.runtime_seconds,
            "seed_partition": {
                "scheme": "per word index",
                "word_seed": "seed * 2**64 + index",
                "indices": f"0..{self.config.word_count}",
            },
        }


def _rules(indices: Iterable[int]) -> dict[tuple[Letter, ...], tuple[tuple[Letter, ...], ...]]:
    """The rules of ``relation_rules`` for the defining relators whose
    generator indices all lie in ``indices``.

    Both sides of every rule use every index of its relator, so for a word
    over ``indices`` these are all the rules that can ever apply to it or
    to any of its rewrites.
    """
    present = set(indices)
    relators: list[tuple[Letter, ...]] = []
    for i in sorted(i for i in present if i + 1 in present):
        si, sj = Letter(SIGMA, i), Letter(SIGMA, i + 1)
        ti, tj = Letter(SIGMA_INV, i), Letter(SIGMA_INV, i + 1)
        ri, rj = Letter(RHO, i), Letter(RHO, i + 1)
        relators.append((si, sj, si, tj, ti, tj))  # braid relation
        relators.append((ri, rj, ri, rj, ri, rj))  # virtual braid relation
        relators.append((ri, rj, si, rj, ri, tj))  # mixed relation
        relators.append((rj, ri, sj, ri, rj, ti))  # mixed relation, other form
    rules: dict[tuple[Letter, ...], set[tuple[Letter, ...]]] = {}
    for relator in relators:
        for variant in (relator, _inverted(relator)):
            for shift in range(6):
                rotated = variant[shift:] + variant[:shift]
                rules.setdefault(rotated[:3], set()).add(_inverted(rotated[3:]))
    return {key: tuple(sorted(value)) for key, value in rules.items()}


def relation_rules(strands: int) -> dict[tuple[Letter, ...], tuple[tuple[Letter, ...], ...]]:
    """Length-preserving rewrite rules derived from the defining relators.

    Every rotation of each braid, virtual and mixed relator of VB_strands
    (and of its inverse) is split in half, giving rules u -> v between
    three-letter blocks with u = v in the group.  Rewrites can therefore
    never grow a word, and together with free reduction and far commutation
    they shrink relator conjugates to nothing.  Far commutation is not in
    the table, which has 26 (strands - 2) keys: ``provably_trivial`` applies
    it as a swap, and builds only the rules over its word's own indices.
    """
    check_strands(strands)
    return _rules(range(1, strands))


def provably_trivial(
    word: BraidWord,
    rules: dict[tuple[Letter, ...], tuple[tuple[Letter, ...], ...]] | None = None,
) -> bool:
    """True when a rewriting path to the empty word is found.

    Sound but incomplete: a True answer certifies that the word is the
    identity element; False only means no certificate was found within
    ``PROVER_NODES`` visited words and ``PROVER_LETTERS`` stored letters.
    The search is breadth first, on letter tuples, and every rewrite is
    freely reduced.  From each word it first swaps each adjacent pair of
    letters whose indices differ by two or more (far commutation), in
    position order, then replaces each three-letter block by the block's
    rules, in position order.  With ``rules`` omitted they are built over
    the word's own generator indices, which gives the same answer as
    ``relation_rules(word.strands)``.
    """
    start = _reduced(word.letters)
    if not start:
        return True
    indices = {index for _, index in start}
    if rules is None:
        rules = _rules(indices)
    # Rewrites keep to the word's own indices, so no far pair can ever occur
    # when they span at most one.
    far = max(indices) - min(indices) > 1
    seen = {start}
    stored = len(start)  # letters held by ``seen``
    queue: deque[tuple[Letter, ...]] = deque([start])
    while queue and len(seen) < PROVER_NODES:
        current = queue.popleft()
        swaps = (
            current[:at] + (current[at + 1], current[at]) + current[at + 2 :]
            for at in range(len(current) - 1 if far else 0)
            if abs(current[at][1] - current[at + 1][1]) > 1
        )
        blocks = (
            current[:at] + replacement + current[at + 3 :]
            for at in range(len(current) - 2)
            for replacement in rules.get(current[at : at + 3], ())
        )
        for rewritten in chain(swaps, blocks):
            candidate = _reduced(rewritten)
            if not candidate:
                return True
            if candidate not in seen:
                seen.add(candidate)
                queue.append(candidate)
                stored += len(candidate)
                if stored > PROVER_LETTERS:
                    return False
    return False


def moved_fraction(
    word: BraidWord, samples: int, coefficient_bound: int, rng: Random
) -> Fraction:
    """Fraction of random probe vectors the word moves.

    Probes have entries drawn independently and uniformly from the integers
    in [-coefficient_bound, coefficient_bound].
    """
    if samples < 1:
        raise ValueError("at least one sample is required")
    probes = moved_probes(word.letters, 2 * word.strands, samples, coefficient_bound, rng)
    from fractions import Fraction  # here, so that `import vbraid` does not load it
    return Fraction(sum(1 for _ in probes), samples)


def _scan_range(config: HuntConfig, start: int, stop: int) -> dict[tuple[Letter, ...], Fraction]:
    """Screen word indices [start, stop); return the base fixers' letters,
    in order of first occurrence, each with the battery fraction measured
    from the random stream of its first index."""
    low, high = config.length_range()
    base = list(config.start_entries())
    strands = config.strands
    found: dict[tuple[Letter, ...], Fraction] = {}
    rng = Random()
    for index in range(start, stop):
        rng.seed(config.seed * 2**64 + index)  # the stream of a new Random(that seed)
        letters = _reduced_letters(strands, rng.randint(low, high), rng)
        if apply_letters(base, letters) == base and letters not in found:
            found[letters] = moved_fraction(
                BraidWord(strands, letters), config.battery_size, config.coefficient_bound, rng
            )
    return found


def hunt(config: HuntConfig, workers: int = 1) -> HuntReport:
    """Run the randomized kernel search.

    The word index range is split into contiguous chunks across workers.
    ``starmap`` returns the chunk results in chunk order, and each lists
    its fixers in order of first occurrence, so merging them in that order
    with ``setdefault`` keeps, for each distinct fixer, the measurement from
    its earliest index and lists the fixers in order of first occurrence:
    the report is identical for any worker count.  The pool has at most
    ``os.cpu_count()`` processes.
    """
    if workers < 1:
        raise ValueError("worker count must be positive")
    workers = min(workers, os.cpu_count() or 1)
    started = time.perf_counter()
    count = config.word_count
    if workers == 1 or count < 2 * workers:
        partials = [_scan_range(config, 0, count)]
    else:
        chunk = (count + workers - 1) // workers
        ranges = [
            (config, lo, min(lo + chunk, count)) for lo in range(0, count, chunk)
        ]
        import multiprocessing  # here, so that `import vbraid` does not load it
        with multiprocessing.Pool(workers) as pool:
            partials = pool.starmap(_scan_range, ranges)

    merged: dict[tuple[Letter, ...], Fraction] = {}
    for partial in partials:
        for letters, fraction in partial.items():
            merged.setdefault(letters, fraction)

    fixers: list[Fixer] = []
    candidates: list[str] = []
    identities: list[str] = []
    for letters, fraction in merged.items():
        word = BraidWord(config.strands, letters)
        text = format_word(word)
        fixers.append(Fixer(text, fraction, config.battery_size))
        if fraction == 0:
            (identities if provably_trivial(word) else candidates).append(text)
    return HuntReport(
        config=config,
        words_tested=count,
        base_fixers=tuple(fixers),
        kernel_candidates=tuple(candidates),
        identity_words=tuple(identities),
        runtime_seconds=time.perf_counter() - started,
    )
